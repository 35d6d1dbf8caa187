#include "incremental/chunks.h"

#include "frontend/lexer.h"

namespace sspar::incremental {

bool split_chunks(std::string_view source, std::vector<SourceChunk>& out) {
  out.clear();
  uint32_t line = 1;
  size_t line_start = 0;  // byte offset of the current line's first byte
  size_t pos = 0;
  int depth = 0;
  bool open = false;
  SourceChunk chunk;
  for (;;) {
    // Token characters never include '\n' or a trivia opener, so stepping
    // over one byte at a time and asking the lexer's rule at each byte finds
    // the same trivia runs the lexer skips between tokens.
    const ast::Lexer::Trivia trivia = ast::Lexer::scan_trivia(source, pos);
    if (trivia.unterminated) return false;
    if (trivia.newlines > 0) {
      line += trivia.newlines;
      line_start = trivia.line_start;
    }
    pos = trivia.end;
    if (pos >= source.size()) break;
    if (!open) {
      open = true;
      chunk.begin = pos;
      chunk.start = {line, static_cast<uint32_t>(pos - line_start + 1),
                     static_cast<uint32_t>(pos)};
    }
    const char c = source[pos++];
    bool closes = false;
    if (c == '{') {
      ++depth;
    } else if (c == '}') {
      if (depth == 0) return false;
      closes = --depth == 0;
    } else if (c == ';') {
      closes = depth == 0;
    }
    if (closes) {
      chunk.end = pos;
      out.push_back(chunk);
      open = false;
    }
  }
  return !open;
}

}  // namespace sspar::incremental
