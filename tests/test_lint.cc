// bbsched_lint engine tests: every rule family proves it fires on a
// violating fixture AND stays quiet on the compliant twin, through the
// same Analyzer entry point the CLI uses on the real tree. Fixtures are
// in-memory: the path passed to add_file drives rule scoping exactly as
// repo-relative paths do.
#include <gtest/gtest.h>

#include <iterator>
#include <sstream>
#include <string>
#include <utility>

#include "analysis/analyzer.h"

namespace {

using bbsched::analysis::AnalysisResult;
using bbsched::analysis::Analyzer;
using bbsched::analysis::Finding;

AnalysisResult lint_one(const std::string& path, const std::string& src) {
  Analyzer a;
  a.add_file(path, src);
  return a.run();
}

std::size_t count_rule(const AnalysisResult& r, const std::string& rule) {
  std::size_t n = 0;
  for (const Finding& f : r.findings) {
    if (f.rule == rule) ++n;
  }
  return n;
}

// --------------------------------------------------------------- determinism

TEST(LintDeterminism, FlagsLibcRandomnessAndClocksInPolicyPaths) {
  const std::string src = R"(
int pick() { return rand(); }
long when() { return time(nullptr); }
)";
  const AnalysisResult r = lint_one("src/core/fixture.cc", src);
  EXPECT_EQ(count_rule(r, "determinism"), 2u);
  EXPECT_EQ(r.unsuppressed(), 2u);
}

TEST(LintDeterminism, FlagsUnorderedContainerIteration) {
  const std::string src = R"(
#include <unordered_map>
struct S {
  std::unordered_map<int, int> m_;
  int sum() {
    int s = 0;
    for (const auto& kv : m_) s += kv.second;
    return s;
  }
};
)";
  const AnalysisResult r = lint_one("src/core/fixture.cc", src);
  EXPECT_EQ(count_rule(r, "determinism"), 1u);
}

TEST(LintDeterminism, UnorderedNamesAreScopedToTheUnitStem) {
  // Header declares the unordered member; the .cc of the same stem iterates
  // it (finding). An unrelated unit reusing the name for a vector is clean.
  Analyzer a;
  a.add_file("src/core/mgr.h", R"(
#include <unordered_map>
struct M { std::unordered_map<int, int> apps_; };
)");
  a.add_file("src/core/mgr.cc", R"(
void f(M& m) { for (auto& kv : m.apps_) (void)kv; }
)");
  a.add_file("src/core/other.cc", R"(
#include <vector>
struct O { std::vector<int> apps_; };
void g(O& o) { for (int x : o.apps_) (void)x; }
)");
  const AnalysisResult r = a.run();
  ASSERT_EQ(count_rule(r, "determinism"), 1u);
  for (const Finding& f : r.findings) {
    if (f.rule == "determinism") {
      EXPECT_EQ(f.path, "src/core/mgr.cc");
    }
  }
}

TEST(LintDeterminism, QuietOutsidePolicyPathsAndOnOrderedAccess) {
  const std::string src = R"(
#include <unordered_map>
struct S {
  std::unordered_map<int, int> m_;
  int get(int k) { return m_.at(k); }
  bool has(int k) { return m_.find(k) != m_.end(); }
};
int pick() { return rand(); }
)";
  // Same source, non-policy path: the rule does not apply at all.
  EXPECT_EQ(count_rule(lint_one("src/runtime/fixture.cc", src),
                       "determinism"),
            0u);
  // Policy path, but only keyed access (no iteration): rand() fires, the
  // map use does not.
  EXPECT_EQ(count_rule(lint_one("src/core/fixture.cc", src), "determinism"),
            1u);
}

// -------------------------------------------------------------------- signal

TEST(LintSignal, FlagsCallsOutsideTheAllowlist) {
  const std::string src = R"(
#include <cstdio>
// bbsched:signal fixture
void handler(int) { printf("boom"); }
)";
  const AnalysisResult r = lint_one("src/runtime/fixture.cc", src);
  EXPECT_EQ(count_rule(r, "signal"), 1u);
}

TEST(LintSignal, AcceptsTheAsyncSignalSafeSubset) {
  const std::string src = R"(
#include <atomic>
#include <unistd.h>
std::atomic<int> g_flag{0};
// bbsched:signal fixture
void handler(int) {
  g_flag.store(1, std::memory_order_relaxed);
  write(2, "x", 1);
}
)";
  EXPECT_EQ(count_rule(lint_one("src/runtime/fixture.cc", src), "signal"),
            0u);
}

TEST(LintSignal, AnnotatedHelpersAreCallableAcrossFiles) {
  Analyzer a;
  a.add_file("src/runtime/helper.cc", R"(
// bbsched:signal fixture helper
void wake_all() {}
)");
  a.add_file("src/runtime/handler.cc", R"(
// bbsched:signal fixture
void handler(int) { wake_all(); }
)");
  EXPECT_EQ(count_rule(a.run(), "signal"), 0u);
}

TEST(LintSignal, UnannotatedInTreeHelperIsAFinding) {
  // The helper's body only calls write(), but nothing holds it to that:
  // without the annotation, calling it from a signal body is a finding at
  // the call site.
  Analyzer a;
  a.add_file("src/runtime/g1.cc", R"(
namespace bbsched::runtime {
void note_event(int fd);
// bbsched:signal fixture
void on_signal(int fd) { note_event(fd); }
}  // namespace bbsched::runtime
)");
  a.add_file("src/runtime/g2.cc", R"(
namespace bbsched::runtime {
void note_event(int fd) { write(fd, "e", 1); }
}  // namespace bbsched::runtime
)");
  const AnalysisResult r = a.run();
  ASSERT_EQ(count_rule(r, "signal"), 1u);
  for (const Finding& f : r.findings) {
    if (f.rule != "signal") continue;
    EXPECT_EQ(f.path, "src/runtime/g1.cc");
    EXPECT_NE(f.message.find("'note_event' in signal 'on_signal'"),
              std::string::npos)
        << f.message;
  }
}

// ------------------------------------------------------------------- atomics

TEST(LintAtomics, FlagsNonRelaxedOpsAndBareIncrementsInObs) {
  const std::string src = R"(
#include <atomic>
struct Counter {
  std::atomic<long> v_;
  long samples_ = 0;
  void inc() { v_.fetch_add(1); }
  void bump() { ++samples_; }
};
)";
  const AnalysisResult r = lint_one("src/obs/fixture.cc", src);
  EXPECT_EQ(count_rule(r, "atomics"), 2u);
}

TEST(LintAtomics, AcceptsRelaxedOpsAndNonMemberIncrements) {
  const std::string src = R"(
#include <atomic>
struct Counter {
  std::atomic<long> v_;
  void inc() { v_.fetch_add(1, std::memory_order_relaxed); }
  long read() const { return v_.load(std::memory_order_relaxed); }
};
void loop() {
  for (int i = 0; i < 4; ++i) {}
}
)";
  EXPECT_EQ(count_rule(lint_one("src/obs/fixture.cc", src), "atomics"), 0u);
}

TEST(LintAtomics, ScopedToObsOnly) {
  const std::string src = R"(
#include <atomic>
struct C {
  std::atomic<long> v_;
  void inc() { v_.fetch_add(1); }
};
)";
  EXPECT_EQ(count_rule(lint_one("src/runtime/fixture.cc", src), "atomics"),
            0u);
}

// ------------------------------------------------------------------- catalog

namespace catalog_fixture {

const char* kEvents = R"(
enum class EventType { kAlpha, kBeta };
enum class FaultKind { kDrop };
)";

const char* kFullExport = R"(
void name_of(EventType t, FaultKind k) {
  switch (t) {
    case EventType::kAlpha: break;
    case EventType::kBeta: break;
  }
  switch (t) {
    case EventType::kAlpha: break;
    case EventType::kBeta: break;
  }
  switch (k) {
    case FaultKind::kDrop: break;
  }
}
)";

const char* kFullDoc = "### Alpha\n### Beta\n";

}  // namespace catalog_fixture

TEST(LintCatalog, CompleteCatalogIsClean) {
  Analyzer a;
  a.add_file("src/obs/events.h", catalog_fixture::kEvents);
  a.add_file("src/obs/export.cc", catalog_fixture::kFullExport);
  a.add_file("docs/OBSERVABILITY.md", catalog_fixture::kFullDoc);
  EXPECT_EQ(count_rule(a.run(), "catalog"), 0u);
}

TEST(LintCatalog, DeletedExporterCaseIsDetected) {
  // kBeta keeps its to_string case but loses the JSON-writer one — the
  // exact regression the lint_tree ctest entry guards against.
  Analyzer a;
  a.add_file("src/obs/events.h", catalog_fixture::kEvents);
  a.add_file("src/obs/export.cc", R"(
void name_of(EventType t, FaultKind k) {
  switch (t) {
    case EventType::kAlpha: break;
    case EventType::kBeta: break;
  }
  switch (t) {
    case EventType::kAlpha: break;
  }
  switch (k) {
    case FaultKind::kDrop: break;
  }
}
)");
  a.add_file("docs/OBSERVABILITY.md", catalog_fixture::kFullDoc);
  const AnalysisResult r = a.run();
  ASSERT_EQ(count_rule(r, "catalog"), 1u);
  for (const Finding& f : r.findings) {
    if (f.rule == "catalog") {
      EXPECT_NE(f.message.find("kBeta"), std::string::npos);
    }
  }
}

TEST(LintCatalog, MissingDocHeadingIsDetected) {
  Analyzer a;
  a.add_file("src/obs/events.h", catalog_fixture::kEvents);
  a.add_file("src/obs/export.cc", catalog_fixture::kFullExport);
  a.add_file("docs/OBSERVABILITY.md", "### Alpha\n");
  const AnalysisResult r = a.run();
  ASSERT_EQ(count_rule(r, "catalog"), 1u);
  for (const Finding& f : r.findings) {
    if (f.rule == "catalog") {
      EXPECT_NE(f.message.find("### Beta"), std::string::npos);
    }
  }
}

// ------------------------------------------------------------------ sysfail

TEST(LintSysfail, FlagsRawShimmedSyscallsInRuntimeAndCore) {
  const std::string src = R"(
#include <unistd.h>
long pump(int fd, char* buf) {
  long n = ::read(fd, buf, 64);
  if (n > 0) n = ::write(fd, buf, (unsigned long)n);
  return n;
}
void* grab(int fd) { return ::mmap(nullptr, 4096, 3, 1, fd, 0); }
)";
  EXPECT_EQ(count_rule(lint_one("src/runtime/fixture.cc", src), "sysfail"),
            3u);
  EXPECT_EQ(count_rule(lint_one("src/core/fixture.cc", src), "sysfail"),
            3u);
}

TEST(LintSysfail, ShimCallsAndQualifiedNamesPass) {
  const std::string src = R"(
#include "faults/sysfail.h"
namespace sysio = bbsched::faults::sys;
long pump(int fd, char* buf) {
  long n = sysio::read(fd, buf, 64);
  if (n > 0) n = bbsched::faults::sys::write(fd, buf, (unsigned long)n);
  return n;
}
unsigned long persist(const char* p, void* f) {
  return std::fwrite(p, 1, 8, (FILE*)f);
}
int cleanup(int fd) { return ::close(fd); }  // close is not interposed
)";
  EXPECT_EQ(count_rule(lint_one("src/runtime/fixture.cc", src), "sysfail"),
            0u);
}

TEST(LintSysfail, ScopedToRuntimeAndCoreOnly) {
  const std::string src = R"(
#include <unistd.h>
long pump(int fd, char* buf) { return ::read(fd, buf, 64); }
)";
  EXPECT_EQ(count_rule(lint_one("src/sim/fixture.cc", src), "sysfail"), 0u);
  EXPECT_EQ(count_rule(lint_one("tools/fixture.cc", src), "sysfail"), 0u);
  EXPECT_EQ(count_rule(lint_one("src/faults/sysfail.cc", src), "sysfail"),
            0u);
}

TEST(LintSysfail, AllowEscapeSuppressesWithJustification) {
  const std::string src =
      "long h(int fd, char* b) { return ::read(fd, b, 1); }  "
      "// bbsched:allow(sysfail): async-signal-safe path, shim takes a "
      "lock\n";
  const AnalysisResult r = lint_one("src/runtime/fixture.cc", src);
  ASSERT_EQ(count_rule(r, "sysfail"), 1u);
  EXPECT_EQ(r.unsuppressed(), 0u);
  for (const Finding& f : r.findings) {
    if (f.rule == "sysfail") {
      EXPECT_TRUE(f.suppressed);
    }
  }
}

// -------------------------------------------------------------- suppressions

TEST(LintSuppression, TrailingAllowCoversItsOwnLine) {
  const std::string src =
      "int f() { return rand(); }  "
      "// bbsched:allow(determinism): seeded fixture, replay-safe\n";
  const AnalysisResult r = lint_one("src/core/fixture.cc", src);
  ASSERT_EQ(r.findings.size(), 1u);
  EXPECT_TRUE(r.findings[0].suppressed);
  EXPECT_EQ(r.findings[0].justification, "seeded fixture, replay-safe");
  EXPECT_EQ(r.unsuppressed(), 0u);
}

TEST(LintSuppression, OwnLineAllowCoversTheNextCodeLine) {
  const std::string src = R"(
// bbsched:allow(determinism): seeded fixture, replay-safe
int f() { return rand(); }
)";
  const AnalysisResult r = lint_one("src/core/fixture.cc", src);
  ASSERT_EQ(r.findings.size(), 1u);
  EXPECT_TRUE(r.findings[0].suppressed);
}

TEST(LintSuppression, AllowForADifferentRuleDoesNotSuppress) {
  const std::string src =
      "int f() { return rand(); }  "
      "// bbsched:allow(atomics): wrong rule on purpose\n";
  const AnalysisResult r = lint_one("src/core/fixture.cc", src);
  EXPECT_EQ(r.unsuppressed(), 1u);
}

TEST(LintSuppression, AllowOnADifferentLineDoesNotSuppress) {
  const std::string src = R"(
// bbsched:allow(determinism): targets the blank line below, not f

int f() { return rand(); }
)";
  EXPECT_EQ(lint_one("src/core/fixture.cc", src).unsuppressed(), 1u);
}

// --------------------------------------------------------------- annotations

TEST(LintAnnotation, MalformedMarkersAreFindingsNotNoOps) {
  const std::string src = R"(
// bbsched:signals misspelled keyword
void a() {}
// bbsched:allow(nosuchrule): unknown rule
void b() {}
// bbsched:allow(determinism)
void c() {}
// bbsched:frobnicate
void d() {}
)";
  const AnalysisResult r = lint_one("src/sim/fixture.cc", src);
  EXPECT_EQ(count_rule(r, "annotation"), 4u);
  // None of these are suppressible: they stay unsuppressed by construction.
  EXPECT_EQ(r.unsuppressed(), 4u);
}

TEST(LintAnnotation, AllowOfAnnotationRuleIsItselfMalformed) {
  const std::string src = R"(
// bbsched:allow(annotation): trying to silence the meta rule
void f() {}
)";
  EXPECT_EQ(count_rule(lint_one("src/sim/fixture.cc", src), "annotation"),
            1u);
}

TEST(LintAnnotation, DanglingSignalAnnotationIsReported) {
  const std::string src = R"(
// bbsched:signal attaches to a declaration, not a definition
void f(int x);
)";
  EXPECT_EQ(count_rule(lint_one("src/sim/fixture.cc", src), "annotation"),
            1u);
}

TEST(LintAnnotation, ProseMentionsAreIgnored) {
  const std::string src = R"(
// bbsched_lint checks this file; see also bbsched-managerd.
// The bbsched gate forwards signals.
void f() {}
)";
  EXPECT_EQ(lint_one("src/sim/fixture.cc", src).findings.size(), 0u);
}

// ------------------------------------------------------------------- reports

TEST(LintReport, JsonCarriesEveryFieldAndEscapes) {
  const std::string src = "int f() { return rand(); }\n";
  const AnalysisResult r = lint_one("src/core/fixture.cc", src);
  ASSERT_EQ(r.findings.size(), 1u);
  std::ostringstream os;
  bbsched::analysis::write_json_report(os, r);
  const std::string json = os.str();
  EXPECT_NE(json.find("\"files_scanned\":1"), std::string::npos);
  EXPECT_NE(json.find("\"unsuppressed\":1"), std::string::npos);
  EXPECT_NE(json.find("\"rule\":\"determinism\""), std::string::npos);
  EXPECT_NE(json.find("\"path\":\"src/core/fixture.cc\""), std::string::npos);
  EXPECT_NE(json.find("\"line\":"), std::string::npos);
  EXPECT_NE(json.find("\"suppressed\":false"), std::string::npos);
}

TEST(LintReport, TextReportHidesSuppressedByDefault) {
  const std::string src =
      "int f() { return rand(); }  "
      "// bbsched:allow(determinism): seeded fixture\n";
  const AnalysisResult r = lint_one("src/core/fixture.cc", src);
  std::ostringstream hidden;
  bbsched::analysis::write_text_report(hidden, r, false);
  EXPECT_EQ(hidden.str().find("determinism"), std::string::npos);
  std::ostringstream shown;
  bbsched::analysis::write_text_report(shown, r, true);
  EXPECT_NE(shown.str().find("suppressed: seeded fixture"),
            std::string::npos);
}

// ------------------------------------------------------- report determinism

TEST(LintReport, ByteIdenticalRegardlessOfRegistrationOrder) {
  const std::pair<const char*, const char*> files[] = {
      {"src/runtime/a.cc",
       "// bbsched:signal fixture\nvoid h(int) { printf(\"x\"); }\n"},
      {"src/runtime/b.cc", "long f(int fd) { return ::read(fd, 0, 0); }\n"},
      {"src/sim/c.cc", "long when() { return time(nullptr); }\n"},
      {"src/core/r.cc", "int pick() { return rand(); }\n"},
  };
  Analyzer fwd;
  for (const auto& [p, s] : files) fwd.add_file(p, s);
  Analyzer rev;
  for (auto it = std::rbegin(files); it != std::rend(files); ++it) {
    rev.add_file(it->first, it->second);
  }
  std::ostringstream a, b;
  bbsched::analysis::write_text_report(a, fwd.run(), true);
  bbsched::analysis::write_text_report(b, rev.run(), true);
  EXPECT_EQ(a.str(), b.str());
  EXPECT_FALSE(a.str().empty());
}

// ----------------------------------------------------------- lexer edge cases

TEST(LintLexer, RawStringContentIsOpaque) {
  // The snippet inside the raw string would be two findings if lexed.
  const std::string src = R"RAW(
const char* kSnippet = R"(int f() { return rand(); })";
int g() { return 1; }
)RAW";
  EXPECT_EQ(lint_one("src/core/fixture.cc", src).findings.size(), 0u);
}

TEST(LintLexer, LexingResumesCorrectlyAfterARawString) {
  const std::string src = R"RAW(
const char* kSnippet = R"(rand() inside a string)";
int g() { return rand(); }
)RAW";
  EXPECT_EQ(count_rule(lint_one("src/core/fixture.cc", src), "determinism"),
            1u);
}

TEST(LintLexer, DigitSeparatorsDoNotDesyncTheLexer) {
  const std::string src =
      "int f() { int big = 1'000'000; return big + rand(); }\n";
  EXPECT_EQ(count_rule(lint_one("src/core/fixture.cc", src), "determinism"),
            1u);
}

TEST(LintLexer, CallOperatorDefinitionsAreFunctions) {
  // `operator()` lexes as one name, so the marker attaches to its body.
  const std::string src = R"(
struct Functor {
  // bbsched:signal
  void operator()(int n) { printf("%d", n); }
};
)";
  const AnalysisResult r = lint_one("src/runtime/fixture.cc", src);
  EXPECT_EQ(count_rule(r, "signal"), 1u);
  EXPECT_EQ(count_rule(r, "annotation"), 0u);
}

}  // namespace
