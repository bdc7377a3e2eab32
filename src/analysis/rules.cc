#include "analysis/rules.h"

#include <map>
#include <string_view>
#include <utility>

namespace bbsched::analysis::detail {

namespace {

constexpr std::size_t kNpos = static_cast<std::size_t>(-1);

bool is_punct(const Token& t, std::string_view text) {
  return t.kind == TokenKind::kPunct && t.text == text;
}

bool is_ident(const Token& t, std::string_view text) {
  return t.kind == TokenKind::kIdentifier && t.text == text;
}

bool set_contains(const std::set<std::string>& set, std::string_view word) {
  return set.find(std::string(word)) != set.end();
}

void add_finding(std::vector<Finding>& out, const char* rule,
                 const FileContext& fc, const Token& at,
                 std::string message) {
  out.push_back(
      {rule, fc.path, at.line, at.col, std::move(message), false, {}});
}

std::size_t next_code(const std::vector<Token>& toks, std::size_t i) {
  for (std::size_t j = i + 1; j < toks.size(); ++j) {
    if (!is_trivia(toks[j])) return j;
  }
  return kNpos;
}

std::size_t prev_code(const std::vector<Token>& toks, std::size_t i) {
  for (std::size_t j = i; j-- > 0;) {
    if (!is_trivia(toks[j])) return j;
  }
  return kNpos;
}

/// Matches a bracket pair starting at `open` (token index of the opening
/// bracket). Returns the index of the closing token, or kNpos.
std::size_t match_pair(const std::vector<Token>& toks, std::size_t open,
                       std::string_view open_text,
                       std::string_view close_text) {
  int depth = 0;
  for (std::size_t i = open; i < toks.size(); ++i) {
    if (is_punct(toks[i], open_text)) {
      ++depth;
    } else if (is_punct(toks[i], close_text)) {
      if (--depth == 0) return i;
    }
  }
  return kNpos;
}

/// For a container type name at token `i`, skips an optional template
/// argument list and returns the index of the first token after the type
/// (kNpos when the angle brackets never close).
std::size_t skip_template_args(const std::vector<Token>& toks,
                               std::size_t i) {
  std::size_t j = next_code(toks, i);
  if (j == kNpos || !is_punct(toks[j], "<")) return j;
  const std::size_t close = match_pair(toks, j, "<", ">");
  if (close == kNpos) return kNpos;
  return next_code(toks, close);
}

const std::set<std::string>& signal_safe_builtin() {
  // The POSIX async-signal-safe subset this codebase actually leans on,
  // plus lock-free atomic member operations (async-signal-safe per the
  // C++ memory model) and assert (accepted for invariant checks: it only
  // runs work on the failure path, where the process is lost anyway).
  static const std::set<std::string> kSet{
      // syscalls / libc
      "write", "read", "open", "close", "fsync", "unlink", "dup", "dup2",
      "pipe", "poll", "send", "recv", "sendto", "recvfrom", "kill",
      "raise", "tgkill", "abort", "_exit", "_Exit", "getpid", "getppid",
      "gettid", "syscall", "waitpid", "nanosleep", "clock_gettime",
      // signal management
      "sigaction", "signal", "sigemptyset", "sigfillset", "sigaddset",
      "sigdelset", "sigismember", "sigsuspend", "sigprocmask",
      "sigpending", "pthread_kill", "pthread_self", "pthread_sigmask",
      // string/memory primitives
      "memcpy", "memmove", "memset", "memcmp", "strlen",
      // lock-free atomics
      "load", "store", "exchange", "fetch_add", "fetch_sub", "fetch_and",
      "fetch_or", "fetch_xor", "compare_exchange_strong",
      "compare_exchange_weak", "test_and_set", "notify_one", "notify_all",
      // invariants
      "assert"};
  return kSet;
}

const std::set<std::string>& call_keywords() {
  static const std::set<std::string> kSet{
      "if", "while", "for", "switch", "return", "sizeof", "alignof",
      "alignas", "catch", "noexcept", "decltype", "defined", "static_assert",
      "throw", "new", "delete", "typeid", "requires",
      // primitive / vocabulary type names: function-style casts, not calls
      "void", "bool", "char", "short", "int", "long", "float", "double",
      "unsigned", "signed", "auto", "size_t", "ssize_t", "ptrdiff_t",
      "int8_t", "int16_t", "int32_t", "int64_t", "uint8_t", "uint16_t",
      "uint32_t", "uint64_t", "uintptr_t", "intptr_t", "time_t", "off_t",
      "pid_t", "socklen_t"};
  return kSet;
}

const std::set<std::string>& unordered_types() {
  static const std::set<std::string> kSet{
      "unordered_map", "unordered_multimap", "unordered_set",
      "unordered_multiset"};
  return kSet;
}

}  // namespace

void build_file_context(const std::string& path, const std::string& content,
                        FileContext& fc, std::vector<Finding>& findings) {
  fc.path = path;
  fc.tokens = lex(content);
  fc.annotations = parse_annotations(fc.tokens, known_rules());
  for (const AnnotationDiag& d : fc.annotations.diags) {
    findings.push_back(
        {"annotation", fc.path, d.line, d.col, d.message, false, {}});
  }

  const std::vector<Token>& toks = fc.tokens;
  for (const Annotation& a : fc.annotations.annotations) {
    if (a.kind != AnnotationKind::kSignal) continue;
    // The annotated function's body is the first braced block after the
    // marker; a top-level ';' first means the marker sits on a mere
    // declaration (or nothing), which the rules could never check.
    std::size_t open = kNpos;
    int paren_depth = 0;
    for (std::size_t i = a.token_index + 1; i < toks.size(); ++i) {
      if (is_trivia(toks[i])) continue;
      if (is_punct(toks[i], "(")) ++paren_depth;
      if (is_punct(toks[i], ")")) --paren_depth;
      if (paren_depth == 0 && is_punct(toks[i], ";")) break;
      if (is_punct(toks[i], "{")) {
        open = i;
        break;
      }
    }
    if (open == kNpos) {
      findings.push_back({"annotation", fc.path, a.line, a.col,
                          "signal annotation attaches to no function body "
                          "— place it directly above the definition",
                          false,
                          {}});
      continue;
    }
    const std::size_t close = match_pair(toks, open, "{", "}");
    if (close == kNpos) continue;  // truncated file; nothing to check
    FunctionRange fr;
    fr.body_begin = open;
    fr.body_end = close;
    for (std::size_t i = a.token_index + 1; i < open; ++i) {
      if (toks[i].kind != TokenKind::kIdentifier) continue;
      const std::size_t n = next_code(toks, i);
      if (n != kNpos && n < open && is_punct(toks[n], "(")) {
        fr.name = std::string(toks[i].text);
      }
    }
    fc.signal_fns.push_back(std::move(fr));
  }

  // Declared unordered-container variable names (for the determinism
  // rule's iteration check) and the atomic marker (for the atomics rule).
  for (std::size_t i = 0; i < toks.size(); ++i) {
    if (toks[i].kind != TokenKind::kIdentifier) continue;
    if (toks[i].text == "atomic") fc.has_atomic_decl = true;
    if (!set_contains(unordered_types(), toks[i].text)) continue;
    const std::size_t after = skip_template_args(toks, i);
    if (after != kNpos && toks[after].kind == TokenKind::kIdentifier) {
      fc.unordered_names.insert(std::string(toks[after].text));
    }
  }
}

// ---------------------------------------------------------------------------
// determinism

namespace {

const std::set<std::string>& banned_calls() {
  static const std::set<std::string> kSet{
      "rand", "srand", "rand_r", "random", "srandom", "drand48", "erand48",
      "lrand48", "nrand48", "mrand48", "jrand48", "srand48", "time",
      "clock", "gettimeofday", "clock_gettime", "localtime", "gmtime"};
  return kSet;
}

const std::set<std::string>& banned_idents() {
  static const std::set<std::string> kSet{
      "random_device", "system_clock", "steady_clock",
      "high_resolution_clock"};
  return kSet;
}

}  // namespace

void run_determinism(const FileContext& fc,
                     const std::set<std::string>& unordered_names,
                     std::vector<Finding>& out) {
  const std::vector<Token>& toks = fc.tokens;
  for (std::size_t i = 0; i < toks.size(); ++i) {
    const Token& t = toks[i];
    if (t.kind != TokenKind::kIdentifier) continue;

    const std::size_t p = prev_code(toks, i);
    const bool member_access =
        p != kNpos && (is_punct(toks[p], ".") || is_punct(toks[p], "->"));

    if (set_contains(banned_idents(), t.text) && !member_access) {
      add_finding(out, "determinism", fc, t,
                  "'" + std::string(t.text) +
                      "' in a policy path — elections must replay "
                      "bit-identically from the seed");
      continue;
    }
    if (set_contains(banned_calls(), t.text) && !member_access) {
      const std::size_t n = next_code(toks, i);
      if (n != kNpos && is_punct(toks[n], "(")) {
        add_finding(out, "determinism", fc, t,
                    "call to '" + std::string(t.text) +
                        "()' in a policy path — wall clocks and libc "
                        "randomness break replay determinism");
        continue;
      }
    }

    // Iteration over an unordered container: range-for whose range
    // expression mentions one, or a direct begin()/cbegin() walk.
    if (t.text == "for") {
      const std::size_t open = next_code(toks, i);
      if (open == kNpos || !is_punct(toks[open], "(")) continue;
      const std::size_t close = match_pair(toks, open, "(", ")");
      if (close == kNpos) continue;
      std::size_t colon = kNpos;
      int depth = 0;
      for (std::size_t j = open; j < close; ++j) {
        if (is_punct(toks[j], "(") || is_punct(toks[j], "[")) ++depth;
        if (is_punct(toks[j], ")") || is_punct(toks[j], "]")) --depth;
        if (depth == 1 && is_punct(toks[j], ":")) {
          colon = j;
          break;
        }
        if (depth == 1 && is_punct(toks[j], ";")) break;  // classic for
      }
      if (colon == kNpos) continue;
      for (std::size_t j = colon + 1; j < close; ++j) {
        if (toks[j].kind == TokenKind::kIdentifier &&
            set_contains(unordered_names, toks[j].text)) {
          add_finding(out, "determinism", fc, toks[j],
                      "iteration over unordered container '" +
                          std::string(toks[j].text) +
                          "' — hash order is not deterministic across "
                          "libraries/ASLR; iterate an ordered view");
          break;
        }
      }
      continue;
    }
    if (set_contains(unordered_names, t.text)) {
      const std::size_t dot = next_code(toks, i);
      if (dot == kNpos ||
          !(is_punct(toks[dot], ".") || is_punct(toks[dot], "->"))) {
        continue;
      }
      const std::size_t fn = next_code(toks, dot);
      if (fn != kNpos && (is_ident(toks[fn], "begin") ||
                          is_ident(toks[fn], "cbegin"))) {
        add_finding(out, "determinism", fc, toks[fn],
                    "'" + std::string(t.text) +
                        ".begin()' walks an unordered container — hash "
                        "order is not deterministic");
      }
    }
  }
}

// ---------------------------------------------------------------------------
// atomics

namespace {

const std::set<std::string>& atomic_ops() {
  static const std::set<std::string> kSet{
      "load", "store", "exchange", "fetch_add", "fetch_sub", "fetch_and",
      "fetch_or", "fetch_xor", "compare_exchange_strong",
      "compare_exchange_weak"};
  return kSet;
}

}  // namespace

void run_atomics(const FileContext& fc, std::vector<Finding>& out) {
  const std::vector<Token>& toks = fc.tokens;
  for (std::size_t i = 0; i < toks.size(); ++i) {
    const Token& t = toks[i];
    if (t.kind == TokenKind::kPunct && (t.text == "++" || t.text == "--")) {
      if (!fc.has_atomic_decl) continue;
      // Bare increment on a member (trailing-underscore) field of a file
      // holding atomics: either it races, or its single-writer contract
      // deserves an explicit justification.
      const std::size_t n = next_code(toks, i);
      const std::size_t p = prev_code(toks, i);
      const Token* operand = nullptr;
      if (n != kNpos && toks[n].kind == TokenKind::kIdentifier) {
        operand = &toks[n];
      } else if (p != kNpos && toks[p].kind == TokenKind::kIdentifier) {
        operand = &toks[p];
      }
      if (operand != nullptr && !operand->text.empty() &&
          operand->text.back() == '_') {
        add_finding(out, "atomics", fc, t,
                    "bare '" + std::string(t.text) + "' on member '" +
                        std::string(operand->text) +
                        "' in an atomic-bearing file — use a relaxed "
                        "atomic op or justify the single-writer contract");
      }
      continue;
    }
    if (t.kind != TokenKind::kIdentifier ||
        !set_contains(atomic_ops(), t.text)) {
      continue;
    }
    const std::size_t p = prev_code(toks, i);
    if (p == kNpos || !(is_punct(toks[p], ".") || is_punct(toks[p], "->"))) {
      continue;
    }
    const std::size_t open = next_code(toks, i);
    if (open == kNpos || !is_punct(toks[open], "(")) continue;
    const std::size_t close = match_pair(toks, open, "(", ")");
    if (close == kNpos) continue;
    bool relaxed = false;
    for (std::size_t j = open + 1; j < close; ++j) {
      if (is_ident(toks[j], "memory_order_relaxed")) {
        relaxed = true;
        break;
      }
    }
    if (!relaxed) {
      add_finding(
          out, "atomics", fc, t,
          "atomic '" + std::string(t.text) +
              "' without memory_order_relaxed — obs instruments are "
              "standalone values; nothing may order across them");
    }
  }
}

// ---------------------------------------------------------------------------
// signal

void run_signal(const FileContext& fc,
                const std::set<std::string>& signal_annotated,
                std::vector<Finding>& out) {
  const std::vector<Token>& toks = fc.tokens;
  for (const FunctionRange& fn : fc.signal_fns) {
    const std::string where =
        fn.name.empty() ? "signal context" : "signal '" + fn.name + "'";
    for (std::size_t i = fn.body_begin + 1; i < fn.body_end; ++i) {
      const Token& t = toks[i];
      if (t.kind != TokenKind::kIdentifier) continue;
      const std::size_t n = next_code(toks, i);
      if (n == kNpos || n >= fn.body_end || !is_punct(toks[n], "(")) {
        continue;
      }
      if (set_contains(call_keywords(), t.text) ||
          set_contains(signal_safe_builtin(), t.text) ||
          set_contains(signal_annotated, t.text)) {
        continue;
      }
      add_finding(out, "signal", fc, t,
                  "call to '" + std::string(t.text) + "' in " + where +
                      " — not on the async-signal-safe allowlist (mark the "
                      "callee with the signal annotation if it qualifies)");
    }
  }
}

// ---------------------------------------------------------------------------
// sysfail

namespace {

const std::set<std::string>& shimmed_syscalls() {
  // The kernel entry points faults::sys interposes (src/faults/sysfail.h).
  // A raw global-scope call to one of these in the runtime or the core is
  // a hole in the fault-injection net: the syschaos soak cannot exercise
  // its failure path.
  static const std::set<std::string> kSet{
      "read",    "write",   "mmap",    "send",         "recv",
      "sendmsg", "recvmsg", "accept4", "memfd_create", "ftruncate",
      "fork",    "fwrite"};
  return kSet;
}

/// Keywords the tokenizer reports as identifiers but that cannot qualify a
/// name: `return ::read(...)` is still a global-scope call.
bool is_nonqualifying_keyword(std::string_view text) {
  static const std::set<std::string, std::less<>> kSet{
      "return", "throw",    "else",     "do",      "case",
      "new",    "co_await", "co_yield", "co_return"};
  return kSet.find(text) != kSet.end();
}

}  // namespace

void run_sysfail(const FileContext& fc, std::vector<Finding>& out) {
  const std::vector<Token>& toks = fc.tokens;
  for (std::size_t i = 0; i < toks.size(); ++i) {
    if (!is_punct(toks[i], "::")) continue;
    // Only *global-scope* qualification (`::read(...)`) is a raw syscall.
    // A qualified name — `sys::read`, `std::fwrite`, `sysio::recv` — has
    // an identifier before the `::` and passes.
    const std::size_t p = prev_code(toks, i);
    if (p != kNpos && toks[p].kind == TokenKind::kIdentifier &&
        !is_nonqualifying_keyword(toks[p].text)) {
      continue;
    }
    const std::size_t name = next_code(toks, i);
    if (name == kNpos || toks[name].kind != TokenKind::kIdentifier ||
        !set_contains(shimmed_syscalls(), toks[name].text)) {
      continue;
    }
    const std::size_t open = next_code(toks, name);
    if (open == kNpos || !is_punct(toks[open], "(")) continue;
    add_finding(out, "sysfail", fc, toks[name],
                "raw '::" + std::string(toks[name].text) +
                    "' bypasses the faults::sys shim (src/faults/sysfail.h)"
                    " — route through sys::" +
                    std::string(toks[name].text) +
                    " so fault injection covers this call, or justify with "
                    "bbsched:allow(sysfail)");
  }
}

// ---------------------------------------------------------------------------
// catalog

namespace {

struct Enumerator {
  std::string name;
  int line = 0;
};

/// Parses every `enum class Name { ... }` in the token stream.
[[nodiscard]] std::map<std::string, std::vector<Enumerator>> parse_enums(
    const std::vector<Token>& toks) {
  std::map<std::string, std::vector<Enumerator>> enums;
  for (std::size_t i = 0; i < toks.size(); ++i) {
    if (!is_ident(toks[i], "enum")) continue;
    std::size_t j = next_code(toks, i);
    if (j == kNpos || !is_ident(toks[j], "class")) continue;
    j = next_code(toks, j);
    if (j == kNpos || toks[j].kind != TokenKind::kIdentifier) continue;
    const std::string name(toks[j].text);
    // Skip an optional underlying type up to the opening brace.
    std::size_t open = j;
    while (open < toks.size() && !is_punct(toks[open], "{") &&
           !is_punct(toks[open], ";")) {
      ++open;
    }
    if (open >= toks.size() || !is_punct(toks[open], "{")) continue;
    const std::size_t close = match_pair(toks, open, "{", "}");
    if (close == kNpos) continue;
    std::vector<Enumerator>& list = enums[name];
    bool expect_name = true;
    for (std::size_t k = open + 1; k < close; ++k) {
      if (is_trivia(toks[k])) continue;
      if (is_punct(toks[k], ",")) {
        expect_name = true;
        continue;
      }
      if (expect_name && toks[k].kind == TokenKind::kIdentifier) {
        list.push_back({std::string(toks[k].text), toks[k].line});
        expect_name = false;
      }
    }
  }
  return enums;
}

/// Counts `case Enum::kName` occurrences in the exporter.
[[nodiscard]] int count_cases(const std::vector<Token>& toks,
                              const std::string& enum_name,
                              const std::string& enumerator) {
  int count = 0;
  for (std::size_t i = 0; i < toks.size(); ++i) {
    if (!is_ident(toks[i], "case")) continue;
    std::size_t j = next_code(toks, i);
    if (j == kNpos || !is_ident(toks[j], enum_name)) continue;
    j = next_code(toks, j);
    if (j == kNpos || !is_punct(toks[j], "::")) continue;
    j = next_code(toks, j);
    if (j != kNpos && is_ident(toks[j], enumerator)) ++count;
  }
  return count;
}

}  // namespace

void run_catalog(const FileContext& events, const FileContext& exporter,
                 const std::string* doc_text, std::vector<Finding>& out) {
  const auto enums = parse_enums(events.tokens);
  for (const auto& [enum_name, enumerators] : enums) {
    // The event discriminator needs both exporter switches (name table +
    // JSON writer); the payload enums need at least their name table.
    const bool is_event_type = enum_name == "EventType";
    const int required = is_event_type ? 2 : 1;
    for (const Enumerator& e : enumerators) {
      const int cases = count_cases(exporter.tokens, enum_name, e.name);
      if (cases < required) {
        out.push_back(
            {"catalog", events.path, e.line, 1,
             enum_name + "::" + e.name + " has " + std::to_string(cases) +
                 " exporter case(s) in " + exporter.path + ", needs " +
                 std::to_string(required) +
                 " — every event kind must export (docs/OBSERVABILITY.md)",
             false,
             {}});
      }
      if (is_event_type && doc_text != nullptr) {
        // Doc entries are headings named after the exported event, i.e.
        // the enumerator minus its k prefix.
        std::string heading = "### " + e.name;
        if (heading.size() > 4 && heading[4] == 'k') heading.erase(4, 1);
        if (doc_text->find(heading) == std::string::npos) {
          out.push_back({"catalog", events.path, e.line, 1,
                         enum_name + "::" + e.name + " has no '" + heading +
                             "' entry in the observability doc — the event "
                             "catalog must stay complete",
                         false,
                         {}});
        }
      }
    }
  }
}

}  // namespace bbsched::analysis::detail
