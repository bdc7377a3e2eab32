// bbsched_lint — enforces the repo's machine-checkable contracts over its
// own sources (see docs/STATIC_ANALYSIS.md for the rule catalog).
//
//   bbsched_lint [--root=DIR] [--format=text|json] [--show-suppressed]
//                [--list-rules] [paths...]
//
// With no paths, every .h/.hpp/.cc/.cpp file under src/ tools/ bench/
// examples/ tests/ is linted, plus docs/OBSERVABILITY.md for the event
// catalog. Paths are interpreted relative to the root.
//
// Exit status: 0 clean (or every finding suppressed), 1 unsuppressed
// findings, 2 usage or I/O error.
#include <algorithm>
#include <filesystem>
#include <iostream>
#include <string>
#include <vector>

#include "analysis/analyzer.h"

namespace fs = std::filesystem;

namespace {

constexpr const char* kDefaultDirs[] = {"src", "tools", "bench", "examples",
                                        "tests"};
constexpr const char* kDocPath = "docs/OBSERVABILITY.md";

[[nodiscard]] bool is_source_file(const fs::path& p) {
  const std::string ext = p.extension().string();
  return ext == ".h" || ext == ".hpp" || ext == ".cc" || ext == ".cpp";
}

/// Repo-relative path with '/' separators (rule scoping keys off these).
[[nodiscard]] std::string rel_path(const fs::path& p, const fs::path& root) {
  std::string s = p.lexically_relative(root).generic_string();
  return s.empty() ? p.generic_string() : s;
}

[[nodiscard]] int collect(bbsched::analysis::Analyzer& analyzer,
                          const fs::path& target, const fs::path& root) {
  std::error_code ec;
  if (fs::is_directory(target, ec)) {
    std::vector<fs::path> files;
    for (auto it = fs::recursive_directory_iterator(target, ec);
         !ec && it != fs::recursive_directory_iterator(); ++it) {
      if (it->is_regular_file(ec) && is_source_file(it->path())) {
        files.push_back(it->path());
      }
    }
    if (ec) {
      std::cerr << "bbsched_lint: cannot walk " << target << ": "
                << ec.message() << "\n";
      return 2;
    }
    std::sort(files.begin(), files.end());
    for (const fs::path& f : files) {
      if (!analyzer.add_file_from_disk(f.string(), rel_path(f, root))) {
        std::cerr << "bbsched_lint: cannot read " << f << "\n";
        return 2;
      }
    }
    return 0;
  }
  if (!fs::is_regular_file(target, ec)) {
    std::cerr << "bbsched_lint: no such file or directory: " << target
              << "\n";
    return 2;
  }
  if (!analyzer.add_file_from_disk(target.string(), rel_path(target, root))) {
    std::cerr << "bbsched_lint: cannot read " << target << "\n";
    return 2;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  fs::path root = fs::current_path();
  std::string format = "text";
  bool show_suppressed = false;
  std::vector<std::string> paths;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--json") {
      format = "json";
    } else if (arg.rfind("--format=", 0) == 0) {
      format = arg.substr(9);
      if (format != "text" && format != "json") {
        std::cerr << "bbsched_lint: unknown format '" << format
                  << "' (want text or json)\n";
        return 2;
      }
    } else if (arg == "--show-suppressed") {
      show_suppressed = true;
    } else if (arg == "--list-rules") {
      for (const std::string& r : bbsched::analysis::known_rules()) {
        std::cout << r << "\n";
      }
      std::cout << "annotation (not suppressible)\n";
      return 0;
    } else if (arg.rfind("--root=", 0) == 0) {
      root = arg.substr(7);
    } else if (arg == "--help" || arg == "-h") {
      std::cout << "usage: bbsched_lint [--root=DIR] [--format=text|json] "
                   "[--show-suppressed]\n"
                   "                    [--list-rules] [paths...]\n";
      return 0;
    } else if (arg.rfind("--", 0) == 0) {
      std::cerr << "bbsched_lint: unknown option " << arg << "\n";
      return 2;
    } else {
      paths.push_back(arg);
    }
  }

  std::error_code ec;
  root = fs::absolute(root, ec);
  if (ec || !fs::is_directory(root)) {
    std::cerr << "bbsched_lint: --root is not a directory: " << root << "\n";
    return 2;
  }

  bbsched::analysis::Analyzer analyzer;
  if (paths.empty()) {
    for (const char* dir : kDefaultDirs) {
      const fs::path d = root / dir;
      if (!fs::is_directory(d, ec)) continue;
      if (const int rc = collect(analyzer, d, root); rc != 0) return rc;
    }
    const fs::path doc = root / kDocPath;
    if (fs::is_regular_file(doc, ec) &&
        !analyzer.add_file_from_disk(doc.string(), kDocPath)) {
      std::cerr << "bbsched_lint: cannot read " << doc << "\n";
      return 2;
    }
  } else {
    for (const std::string& p : paths) {
      fs::path target = p;
      if (target.is_relative()) target = root / target;
      if (const int rc = collect(analyzer, target, root); rc != 0) return rc;
    }
  }

  const bbsched::analysis::AnalysisResult result = analyzer.run();
  if (format == "json") {
    bbsched::analysis::write_json_report(std::cout, result);
  } else {
    bbsched::analysis::write_text_report(std::cout, result, show_suppressed);
  }
  return result.unsuppressed() == 0 ? 0 : 1;
}
