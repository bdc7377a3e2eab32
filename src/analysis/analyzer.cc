#include "analysis/analyzer.h"

#include <algorithm>
#include <fstream>
#include <map>
#include <ostream>
#include <sstream>
#include <tuple>

#include "analysis/rules.h"

namespace bbsched::analysis {

namespace {

[[nodiscard]] bool starts_with(std::string_view s, std::string_view prefix) {
  return s.size() >= prefix.size() && s.substr(0, prefix.size()) == prefix;
}

[[nodiscard]] bool ends_with(std::string_view s, std::string_view suffix) {
  return s.size() >= suffix.size() &&
         s.substr(s.size() - suffix.size()) == suffix;
}

/// Path minus its extension: header and implementation of one unit share
/// a stem, so unordered-container names declared in cpu_manager.h are in
/// scope when linting cpu_manager.cc — and nowhere else.
[[nodiscard]] std::string stem_of(std::string_view path) {
  const std::size_t slash = path.rfind('/');
  const std::size_t dot = path.rfind('.');
  if (dot == std::string_view::npos ||
      (slash != std::string_view::npos && dot < slash)) {
    return std::string(path);
  }
  return std::string(path.substr(0, dot));
}

[[nodiscard]] bool in_determinism_scope(std::string_view path) {
  return starts_with(path, "src/core/") || starts_with(path, "src/sim/") ||
         starts_with(path, "src/spacesched/");
}

void json_escape(std::ostream& os, std::string_view s) {
  for (const char c : s) {
    switch (c) {
      case '"':
        os << "\\\"";
        break;
      case '\\':
        os << "\\\\";
        break;
      case '\n':
        os << "\\n";
        break;
      case '\t':
        os << "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          static constexpr char kHex[] = "0123456789abcdef";
          os << "\\u00" << kHex[(c >> 4) & 0xf] << kHex[c & 0xf];
        } else {
          os << c;
        }
    }
  }
}

}  // namespace

const std::set<std::string>& known_rules() {
  // The suppressible contracts. "annotation" findings (malformed markers)
  // are deliberately absent: a broken marker must never silence itself.
  static const std::set<std::string> kRules{
      "determinism", "signal", "atomics", "catalog", "sysfail"};
  return kRules;
}

void Analyzer::add_file(std::string path, std::string content) {
  files_.push_back({std::move(path), std::move(content)});
}

bool Analyzer::add_file_from_disk(const std::string& fs_path,
                                  std::string path) {
  std::ifstream in(fs_path, std::ios::binary);
  if (!in) return false;
  std::ostringstream buf;
  buf << in.rdbuf();
  if (in.bad()) return false;
  add_file(std::move(path), std::move(buf).str());
  return true;
}

AnalysisResult Analyzer::run() const {
  AnalysisResult result;
  result.files_scanned = files_.size();
  std::vector<Finding>& findings = result.findings;

  // Sort files by path up front: the contexts and the findings then derive
  // from a canonical order, so the report is byte-identical however the
  // walker enumerated files.
  std::vector<const Entry*> ordered;
  ordered.reserve(files_.size());
  for (const Entry& e : files_) ordered.push_back(&e);
  std::sort(ordered.begin(), ordered.end(),
            [](const Entry* a, const Entry* b) { return a->path < b->path; });

  std::vector<detail::FileContext> ctxs;
  ctxs.reserve(files_.size());
  const std::string* obs_doc = nullptr;
  for (const Entry* e : ordered) {
    if (ends_with(e->path, ".md")) {
      if (ends_with(e->path, "OBSERVABILITY.md")) obs_doc = &e->content;
      continue;
    }
    ctxs.emplace_back();
    detail::build_file_context(e->path, e->content, ctxs.back(), findings);
  }

  // Unordered-container names are scoped per unit stem (foo.h + foo.cc),
  // not tree-wide: a vector named apps_ in one translation unit must not
  // inherit suspicion from an unordered_map named apps_ in another.
  std::map<std::string, std::set<std::string>> stem_unordered;
  for (const detail::FileContext& fc : ctxs) {
    stem_unordered[stem_of(fc.path)].insert(fc.unordered_names.begin(),
                                            fc.unordered_names.end());
  }

  // Signal-annotated functions are callable from other signal-annotated
  // functions anywhere in the tree — the annotation is the proof
  // obligation, and the signal rule checks each annotated body.
  std::set<std::string> signal_safe_fns;
  for (const detail::FileContext& fc : ctxs) {
    for (const detail::FunctionRange& fn : fc.signal_fns) {
      if (!fn.name.empty()) signal_safe_fns.insert(fn.name);
    }
  }

  const detail::FileContext* events = nullptr;
  const detail::FileContext* exporter = nullptr;
  for (const detail::FileContext& fc : ctxs) {
    if (ends_with(fc.path, "src/obs/events.h")) events = &fc;
    if (ends_with(fc.path, "src/obs/export.cc")) exporter = &fc;
  }

  for (const detail::FileContext& fc : ctxs) {
    if (in_determinism_scope(fc.path)) {
      detail::run_determinism(fc, stem_unordered[stem_of(fc.path)],
                              findings);
    }
    if (starts_with(fc.path, "src/obs/")) {
      detail::run_atomics(fc, findings);
    }
    if (starts_with(fc.path, "src/runtime/") ||
        starts_with(fc.path, "src/core/")) {
      detail::run_sysfail(fc, findings);
    }
    detail::run_signal(fc, signal_safe_fns, findings);
  }
  if (events != nullptr && exporter != nullptr) {
    detail::run_catalog(*events, *exporter, obs_doc, findings);
  }

  // Apply allow suppressions: a trailing allow covers its own line, an
  // own-line allow covers only the line immediately below it (a blank or
  // comment line in between voids it — suppressions must sit tight).
  // Annotation findings are exempt by construction ("annotation" is not a
  // known rule).
  std::map<std::string, const detail::FileContext*> by_path;
  for (const detail::FileContext& fc : ctxs) by_path[fc.path] = &fc;
  for (Finding& f : findings) {
    const auto it = by_path.find(f.path);
    if (it == by_path.end()) continue;
    const detail::FileContext& fc = *it->second;
    for (const Annotation& a : fc.annotations.annotations) {
      if (a.kind != AnnotationKind::kAllow || a.rule != f.rule) continue;
      const int target = a.own_line ? a.line + 1 : a.line;
      if (target == f.line) {
        f.suppressed = true;
        f.justification = a.justification;
        break;
      }
    }
  }

  std::sort(findings.begin(), findings.end(),
            [](const Finding& a, const Finding& b) {
              return std::tie(a.path, a.line, a.col, a.rule, a.message) <
                     std::tie(b.path, b.line, b.col, b.rule, b.message);
            });
  return result;
}

// ---------------------------------------------------------------------------
// Report emitters.

void write_text_report(std::ostream& os, const AnalysisResult& result,
                       bool show_suppressed) {
  for (const Finding& f : result.findings) {
    if (f.suppressed && !show_suppressed) continue;
    os << f.path << ':' << f.line << ':' << f.col << ": [" << f.rule << "] "
       << f.message;
    if (f.suppressed) os << " (suppressed: " << f.justification << ')';
    os << '\n';
  }
  const std::size_t unsuppressed = result.unsuppressed();
  os << unsuppressed << " finding(s), "
     << result.findings.size() - unsuppressed << " suppressed, "
     << result.files_scanned << " file(s) scanned\n";
}

void write_json_report(std::ostream& os, const AnalysisResult& result) {
  os << "{\"files_scanned\":" << result.files_scanned
     << ",\"unsuppressed\":" << result.unsuppressed() << ",\"findings\":[";
  bool first = true;
  for (const Finding& f : result.findings) {
    if (!first) os << ',';
    first = false;
    os << "{\"rule\":\"";
    json_escape(os, f.rule);
    os << "\",\"path\":\"";
    json_escape(os, f.path);
    os << "\",\"line\":" << f.line << ",\"col\":" << f.col
       << ",\"message\":\"";
    json_escape(os, f.message);
    os << "\",\"suppressed\":" << (f.suppressed ? "true" : "false")
       << ",\"justification\":\"";
    json_escape(os, f.justification);
    os << "\"}";
  }
  os << "]}\n";
}

}  // namespace bbsched::analysis
