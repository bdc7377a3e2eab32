// bbsched_lint's engine: scans source files and enforces the repo's
// machine-checkable per-file contracts (docs/STATIC_ANALYSIS.md is the
// catalog):
//
//   determinism  no wall-clock / libc randomness / unordered-container
//                iteration in policy paths (src/core, src/sim,
//                src/spacesched) — elections must replay bit-identically
//   signal       a function marked signal may only call the
//                async-signal-safe allowlist or another function marked
//                signal (the Supervisor SIGTERM regression class)
//   atomics      src/obs instruments use relaxed atomics only; no bare
//                ++/-- on members of atomic-bearing files
//   catalog      every obs::EventType enumerator has both exporter
//                switch cases and a docs/OBSERVABILITY.md heading; other
//                event enums keep full to_string coverage
//   sysfail      no raw global-scope calls to the syscalls the faults::sys
//                shim interposes, in src/runtime and src/core
//   annotation   the annotations themselves parse (a typo in a marker or
//                a justification-less allow is a finding, never a no-op)
//
// The hot-path (no allocation after warm-up) and lock-order contracts are
// enforced dynamically: tests/test_perf_smoke.cc (`ctest -L perf_smoke`)
// and the TSan leg of tools/check.sh.
//
// Files are added by repo-relative path (which drives rule scoping) with
// their content, so tests lint in-memory fixture snippets through exactly
// the code path the CLI uses on the real tree.
#pragma once

#include <iosfwd>
#include <set>
#include <string>
#include <vector>

namespace bbsched::analysis {

struct Finding {
  std::string rule;
  std::string path;
  int line = 0;
  int col = 0;
  std::string message;
  bool suppressed = false;     ///< a justified allow covered it
  std::string justification;   ///< the allow's reason, when suppressed
};

struct AnalysisResult {
  std::vector<Finding> findings;  ///< suppressed included, path/line order
  std::size_t files_scanned = 0;

  /// Findings no justified allow covers; they drive the CLI exit code.
  [[nodiscard]] std::size_t unsuppressed() const {
    std::size_t n = 0;
    for (const Finding& f : findings) {
      if (!f.suppressed) ++n;
    }
    return n;
  }
};

/// The rule identifiers accepted by the allow annotation.
[[nodiscard]] const std::set<std::string>& known_rules();

class Analyzer {
 public:
  /// Registers one file. `path` is repo-relative with '/' separators; it
  /// selects which rules apply. Paths ending in .md are catalog text
  /// inputs, everything else is lexed as C++.
  void add_file(std::string path, std::string content);

  /// Reads `fs_path` from disk and registers it under `path`.
  /// Returns false (and registers nothing) when unreadable.
  [[nodiscard]] bool add_file_from_disk(const std::string& fs_path,
                                        std::string path);

  /// Runs every rule over the registered files. Registration order does
  /// not matter: files are sorted by path before any rule runs, so the
  /// report is byte-identical regardless of directory-walk order.
  [[nodiscard]] AnalysisResult run() const;

 private:
  struct Entry {
    std::string path;
    std::string content;
  };
  std::vector<Entry> files_;
};

// ---------------------------------------------------------------------------
// Report emitters.

/// Human-readable report: one "path:line:col: [rule] message" per finding
/// plus a summary line. Suppressed findings are listed only when
/// `show_suppressed`.
void write_text_report(std::ostream& os, const AnalysisResult& result,
                       bool show_suppressed);

/// Machine-readable report for CI: one JSON object with a findings array.
void write_json_report(std::ostream& os, const AnalysisResult& result);

}  // namespace bbsched::analysis
