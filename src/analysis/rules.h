// Internal rule interfaces shared by analyzer.cc and rules.cc. Not part of
// the public surface (tools and tests include analyzer.h only).
#pragma once

#include <set>
#include <string>
#include <vector>

#include "analysis/analyzer.h"
#include "analysis/annotations.h"
#include "analysis/lexer.h"

namespace bbsched::analysis::detail {

/// A function body claimed by a signal annotation.
struct FunctionRange {
  std::string name;            ///< identifier before the parameter list
  std::size_t body_begin = 0;  ///< token index of the opening '{'
  std::size_t body_end = 0;    ///< token index of the matching '}'
};

/// Everything the per-file rules need, built once per source file.
struct FileContext {
  std::string path;
  std::vector<Token> tokens;
  AnnotationSet annotations;
  std::vector<FunctionRange> signal_fns;
  std::set<std::string> unordered_names;  ///< unordered members declared here
  bool has_atomic_decl = false;           ///< mentions std::atomic
};

/// Lexes and extracts annotations, function ranges, declared unordered
/// container names and the atomic flag. Malformed annotations and
/// annotations that attach to nothing become `annotation` findings.
void build_file_context(const std::string& path, const std::string& content,
                        FileContext& fc, std::vector<Finding>& findings);

void run_determinism(const FileContext& fc,
                     const std::set<std::string>& unordered_names,
                     std::vector<Finding>& out);
void run_atomics(const FileContext& fc, std::vector<Finding>& out);
/// Checks each signal-annotated body: every call must name the
/// async-signal-safe allowlist or a function in `signal_annotated` (the
/// tree-wide set of signal-annotated names).
void run_signal(const FileContext& fc,
                const std::set<std::string>& signal_annotated,
                std::vector<Finding>& out);
/// Flags raw global-scope calls (`::read`, `::write`, `::mmap`, …) to
/// syscalls the faults::sys shim interposes — scoped to src/runtime and
/// src/core, where every such call must route through the shim so the
/// syschaos suite can exercise its failure path.
void run_sysfail(const FileContext& fc, std::vector<Finding>& out);

/// Cross-file catalog check. `doc_text` may be null (no doc input).
void run_catalog(const FileContext& events, const FileContext& exporter,
                 const std::string* doc_text, std::vector<Finding>& out);

}  // namespace bbsched::analysis::detail
