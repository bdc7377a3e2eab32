#include "analysis/annotations.h"

#include <cctype>

namespace bbsched::analysis {

namespace {

constexpr std::string_view kMarker = "bbsched";

[[nodiscard]] std::string_view strip_comment_syntax(const Token& t) {
  std::string_view s = t.text;
  if (t.kind == TokenKind::kLineComment) {
    s.remove_prefix(2);  // "//"
  } else {
    s.remove_prefix(2);  // "/*"
    if (s.size() >= 2 && s.substr(s.size() - 2) == "*/") {
      s.remove_suffix(2);
    }
  }
  while (!s.empty() &&
         std::isspace(static_cast<unsigned char>(s.front()))) {
    s.remove_prefix(1);
  }
  while (!s.empty() && std::isspace(static_cast<unsigned char>(s.back()))) {
    s.remove_suffix(1);
  }
  return s;
}

[[nodiscard]] std::string_view take_word(std::string_view& s) {
  std::size_t n = 0;
  while (n < s.size() && (std::isalnum(static_cast<unsigned char>(s[n])) ||
                          s[n] == '_' || s[n] == '-')) {
    ++n;
  }
  const std::string_view word = s.substr(0, n);
  s.remove_prefix(n);
  return word;
}

void trim_leading(std::string_view& s) {
  while (!s.empty() &&
         std::isspace(static_cast<unsigned char>(s.front()))) {
    s.remove_prefix(1);
  }
}

}  // namespace

AnnotationSet parse_annotations(const std::vector<Token>& tokens,
                                const std::set<std::string>& known_rules) {
  AnnotationSet out;
  int last_code_line = -1;  // line of the most recent non-trivia token
  for (std::size_t i = 0; i < tokens.size(); ++i) {
    const Token& t = tokens[i];
    if (!is_trivia(t)) {
      last_code_line = t.line;
      continue;
    }
    if (t.kind == TokenKind::kPreprocessor) continue;

    std::string_view s = strip_comment_syntax(t);
    // The marker is the exact prefix "bbsched:"; comments that merely
    // mention bbsched ("bbsched_lint — ...", "bbsched-managerd ...") are
    // prose. Everything after the colon is held to the grammar.
    if (s.substr(0, kMarker.size()) != kMarker) continue;
    s.remove_prefix(kMarker.size());
    if (s.empty() || s.front() != ':') continue;
    s.remove_prefix(1);

    const auto diag = [&](std::string message) {
      out.diags.push_back({t.line, t.col, std::move(message)});
    };
    const std::string_view keyword = take_word(s);

    Annotation a;
    a.line = t.line;
    a.col = t.col;
    a.token_index = i;
    a.own_line = last_code_line != t.line;

    if (keyword == "signal") {
      a.kind = AnnotationKind::kSignal;
      // Anything after the keyword is a free-form note, but it must be
      // separated (reject e.g. "signal:" or "signal(...)").
      if (!s.empty() && !std::isspace(static_cast<unsigned char>(s.front()))) {
        diag("malformed annotation: unknown keyword '" +
             std::string(keyword) + std::string(s.substr(0, 8)) + "'");
        continue;
      }
      out.annotations.push_back(std::move(a));
      continue;
    }
    if (keyword == "allow") {
      a.kind = AnnotationKind::kAllow;
      if (s.empty() || s.front() != '(') {
        diag("malformed allow: expected '(<rule>)'");
        continue;
      }
      s.remove_prefix(1);
      const std::string_view rule = take_word(s);
      if (s.empty() || s.front() != ')') {
        diag("malformed allow: unterminated '(<rule>)'");
        continue;
      }
      s.remove_prefix(1);
      if (known_rules.find(std::string(rule)) == known_rules.end()) {
        diag("allow names unknown rule '" + std::string(rule) + "'");
        continue;
      }
      // Justification: everything after an optional ':' / '-' separator.
      trim_leading(s);
      if (!s.empty() && (s.front() == ':' || s.front() == '-')) {
        s.remove_prefix(1);
      }
      trim_leading(s);
      if (s.empty()) {
        diag("allow(" + std::string(rule) +
             ") lacks a justification — say why the exception is safe");
        continue;
      }
      a.rule = std::string(rule);
      a.justification = std::string(s);
      out.annotations.push_back(std::move(a));
      continue;
    }
    diag("malformed annotation: unknown keyword '" + std::string(keyword) +
         "'");
  }
  return out;
}

}  // namespace bbsched::analysis
