// Hand-written lexer for the mini-C subset.
//
// Handles //- and /* */-comments; `#`-lines (preprocessor directives such as
// #pragma) are skipped to end of line — the corpus sources are pre-expanded
// and parallelization pragmas are *produced* by the transform module, never
// consumed.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string_view>
#include <vector>

#include "frontend/token.h"
#include "support/diagnostics.h"

namespace sspar::ast {

class Lexer {
 public:
  // Lexes `source` from `start` (the position of its first byte to lex):
  // token locations are absolute, so a slice of a larger buffer lexes with
  // the positions a whole-buffer lex would give it.
  Lexer(std::string_view source, support::DiagnosticEngine& diags,
        support::SourceLocation start = {1, 1, 0});

  Token next();

  // Lexes the input from `start` to its end (including the trailing End
  // token).
  static std::vector<Token> tokenize(std::string_view source,
                                     support::DiagnosticEngine& diags,
                                     support::SourceLocation start = {1, 1, 0});

  // The run of trivia (whitespace, comments, #-lines) at `pos`. This is the
  // lexer's own skipping rule; byte scanners that must agree with the lexer
  // on where tokens start call it instead of keeping a copy.
  struct Trivia {
    size_t end = 0;             // first byte after the run (== pos: none)
    uint32_t newlines = 0;      // '\n' bytes inside the run
    size_t line_start = 0;      // byte after the run's last '\n' (newlines > 0)
    bool unterminated = false;  // a block comment ran to the end of input
  };
  static Trivia scan_trivia(std::string_view source, size_t pos);

 private:
  char peek(size_t ahead = 0) const;
  char advance();
  bool match(char expected);
  void skip_trivia();
  support::SourceLocation here() const;

  Token lex_number();
  Token lex_identifier();

  std::string_view source_;
  support::DiagnosticEngine& diags_;
  size_t pos_ = 0;
  uint32_t line_ = 1;
  uint32_t column_ = 1;
};

// Inline: byte scanners call it at every byte, and the common answer (no
// trivia here) must cost a compare or two.
inline Lexer::Trivia Lexer::scan_trivia(std::string_view source, size_t pos) {
  Trivia t;
  const size_t size = source.size();
  auto at = [&](size_t p) { return p < size ? source[p] : '\0'; };
  while (pos < size) {
    const char c = source[pos];
    if (c == ' ' || c == '\t' || c == '\r' || c == '\n') {
      if (c == '\n') {
        ++t.newlines;
        t.line_start = pos + 1;
      }
      ++pos;
    } else if ((c == '/' && at(pos + 1) == '/') || c == '#') {
      while (pos < size && source[pos] != '\n') ++pos;
    } else if (c == '/' && at(pos + 1) == '*') {
      pos += 2;
      while (pos < size && !(source[pos] == '*' && at(pos + 1) == '/')) {
        if (source[pos] == '\n') {
          ++t.newlines;
          t.line_start = pos + 1;
        }
        ++pos;
      }
      if (pos < size) {
        pos += 2;
      } else {
        t.unterminated = true;
      }
    } else {
      break;
    }
  }
  t.end = pos;
  return t;
}

}  // namespace sspar::ast
