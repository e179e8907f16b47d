#ifndef SMARTPSI_TOOLS_PSI_CHECK_LEXER_H_
#define SMARTPSI_TOOLS_PSI_CHECK_LEXER_H_

// Minimal C++ lexer for tools/psi_check (DESIGN.md §15). Deliberately not
// a compiler front end: it produces the token stream the contract rules
// need (identifiers, string literals, punctuation with `::` fused, line
// numbers), records `#include "..."` directives, and parses
// `// psi-check: allow(<rule>) -- <reason>` waiver annotations out of
// comments. Everything else the preprocessor would do (macro expansion,
// conditionals) is intentionally skipped so the tool has zero dependency
// on libclang and sees the source exactly as reviewers do.

#include <string>
#include <vector>

namespace psi::check {

struct Token {
  enum class Kind { kIdent, kNumber, kString, kPunct, kEnd };
  Kind kind = Kind::kEnd;
  /// Identifier/number spelling, string literal *contents* (no quotes,
  /// escapes left as written), or punctuation text (`::` is one token).
  std::string text;
  int line = 0;
};

/// One `#include "..."` directive (angle-bracket includes are recorded with
/// `system = true` so rules can ignore them).
struct IncludeDirective {
  std::string path;
  int line = 0;
  bool system = false;
};

/// One `// psi-check: allow(rule[,rule...]) -- reason` annotation. A
/// malformed annotation (unknown shape, missing reason) is surfaced via
/// `malformed` so the checker can reject it loudly instead of silently
/// ignoring a typo'd waiver.
struct Waiver {
  int line = 0;
  std::vector<std::string> rules;
  std::string reason;
  bool malformed = false;
  std::string error;  // set when malformed
};

/// A lexed source file. `tokens` always ends with a kEnd sentinel.
struct LexedFile {
  std::vector<Token> tokens;
  std::vector<IncludeDirective> includes;
  std::vector<Waiver> waivers;
  /// Identifiers in `#define` bodies. They are not tokens (the rules check
  /// call sites, not macro definitions), but a function a macro calls is
  /// still called.
  std::vector<std::string> macro_idents;
};

/// Lexes `content` (the bytes of one source file). Never fails: unexpected
/// bytes become single-character punctuation tokens.
LexedFile Lex(const std::string& content);

}  // namespace psi::check

#endif  // SMARTPSI_TOOLS_PSI_CHECK_LEXER_H_
