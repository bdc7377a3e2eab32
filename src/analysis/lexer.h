// Minimal C++ token scanner for the in-tree invariant checker.
//
// This is not a compiler front end: it produces a flat token stream good
// enough to find identifiers, calls, comments and brace structure without
// any external dependency. Comments and preprocessor directives are kept
// as tokens (the annotation layer reads comments; rules skip them), and
// string/char literals are opaque single tokens so nothing inside a
// literal can ever trip a rule.
//
// Deliberate simplifications, safe for the rule set built on top:
//   - no preprocessing: macros are scanned as the identifiers they are;
//   - `>>` lexes as two `>` tokens (template-angle matching needs this;
//     the rules never care about shift operators);
//   - keywords are plain identifiers (rules match by text);
//   - `operator` followed by an operator symbol (`()`, `[]`, `<`, `==`,
//     `->`, ...) lexes as ONE identifier token spanning both, so rules
//     see `operator()` as a function name instead of misreading the
//     symbol as punctuation (an unmerged `operator<` would open a phantom
//     template-argument list).
#pragma once

#include <cstdint>
#include <string_view>
#include <vector>

namespace bbsched::analysis {

enum class TokenKind : std::uint8_t {
  kIdentifier,
  kNumber,
  kString,       ///< includes raw strings and encoding-prefixed strings
  kCharLiteral,
  kPunct,        ///< single char, except `::` `->` `++` `--` (one token)
  kLineComment,  ///< text includes the leading `//`
  kBlockComment, ///< text includes the `/*` and `*/`
  kPreprocessor, ///< whole directive line(s), continuations included
};

struct Token {
  TokenKind kind = TokenKind::kPunct;
  std::string_view text;  ///< view into the lexed buffer
  int line = 1;           ///< 1-based line of the token's first char
  int col = 1;            ///< 1-based column of the token's first char
};

/// Scans `src` into tokens. Never fails: unexpected bytes become
/// single-char punct tokens, and unterminated literals/comments extend to
/// the end of input.
[[nodiscard]] std::vector<Token> lex(std::string_view src);

/// True for tokens rules should skip (comments and preprocessor lines).
[[nodiscard]] inline bool is_trivia(const Token& t) {
  return t.kind == TokenKind::kLineComment ||
         t.kind == TokenKind::kBlockComment ||
         t.kind == TokenKind::kPreprocessor;
}

}  // namespace bbsched::analysis
