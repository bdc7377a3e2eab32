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
#include "experiments/cli.h"

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
  bool list_rules = false;
  const auto paths = bbsched::experiments::parse_flags(
      argc, argv,
      {{"--root", "DIR", "tree to lint (default: the current directory)",
        [&root](std::string_view dir) {
          root = dir;
          return true;
        }},
       {"--format", "FORMAT", "text or json (default text)",
        [&format](std::string_view f) {
          format = f;
          return f == "text" || f == "json";
        }},
       {"--json", "", "same as --format=json",
        [&format](std::string_view) {
          format = "json";
          return true;
        }},
       {"--show-suppressed", "", "also print suppressed findings",
        bbsched::experiments::set_true(show_suppressed)},
       {"--list-rules", "", "print the rule names and exit",
        bbsched::experiments::set_true(list_rules)}},
      "[paths...]");
  if (list_rules) {
    for (const std::string& r : bbsched::analysis::known_rules()) {
      std::cout << r << "\n";
    }
    std::cout << "annotation (not suppressible)\n";
    return 0;
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
    for (const std::string_view p : paths) {
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
