// Top-level chunks of a mini-C source: the unit of parse reuse between
// successive versions of one file (see IncrementalEngine).
//
// A chunk is one top-level declaration: a function from its first token up
// to its matching '}', or a global declaration up to its ';'. Trivia between
// chunks (blank lines, comments, #-lines) belongs to no chunk, so editing it
// only moves the chunks below. The splitter scans bytes and counts braces;
// it skips trivia with the lexer's own rule (ast::Lexer::scan_trivia), so a
// brace inside a comment or a #-line never counts.
#pragma once

#include <cstddef>
#include <string_view>
#include <vector>

#include "support/source_location.h"

namespace sspar::incremental {

struct SourceChunk {
  size_t begin = 0;               // byte of the chunk's first token
  size_t end = 0;                 // one past its closing '}' or ';'
  support::SourceLocation start;  // position of `begin`
};

// Splits `source` into its chunks in source order. Returns false for text
// the scan cannot settle: a '}' with no open '{', an unterminated block
// comment, or text after the last chunk that no '}' or ';' closes. A true
// return says nothing about whether each chunk parses.
bool split_chunks(std::string_view source, std::vector<SourceChunk>& out);

}  // namespace sspar::incremental
