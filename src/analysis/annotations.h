// Annotation layer: parses the repo's contract markers out of comments.
//
// Grammar (docs/STATIC_ANALYSIS.md), always at the *start* of a comment —
// a mid-sentence mention of a marker is prose and is ignored:
//
//   // bbsched:signal [note]        the next function runs in (or is
//                                   reachable from) a signal handler
//   // bbsched:allow(<rule>): why   suppress <rule> findings on this line
//                                   (trailing form) or the line immediately
//                                   below (own-line form); the justification
//                                   is mandatory
//
// Anything that starts like a marker but does not parse — unknown keyword,
// unknown rule name, missing justification — is itself reported, so a typo
// cannot silently disable a contract.
#pragma once

#include <cstddef>
#include <set>
#include <string>
#include <vector>

#include "analysis/lexer.h"

namespace bbsched::analysis {

enum class AnnotationKind : std::uint8_t { kSignal, kAllow };

struct Annotation {
  AnnotationKind kind = AnnotationKind::kSignal;
  int line = 0;
  int col = 0;
  std::size_t token_index = 0;  ///< index of the comment token
  bool own_line = false;        ///< no code token precedes it on its line
  std::string rule;             ///< allow: which rule is being suppressed
  std::string justification;    ///< allow: mandatory reason
};

struct AnnotationDiag {
  int line = 0;
  int col = 0;
  std::string message;
};

struct AnnotationSet {
  std::vector<Annotation> annotations;
  std::vector<AnnotationDiag> diags;
};

/// Extracts annotations from the comment tokens of one file.
/// `known_rules` validates the argument of the allow form.
[[nodiscard]] AnnotationSet parse_annotations(
    const std::vector<Token>& tokens, const std::set<std::string>& known_rules);

}  // namespace bbsched::analysis
