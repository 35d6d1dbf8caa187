#include "frontend/lexer.h"

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <charconv>
#include <cmath>
#include <cstdlib>
#include <unordered_map>

namespace sspar::ast {

namespace {
const std::unordered_map<std::string_view, TokenKind>& keywords() {
  static const std::unordered_map<std::string_view, TokenKind> map = {
      {"int", TokenKind::KwInt},         {"long", TokenKind::KwLong},
      {"float", TokenKind::KwFloat},     {"double", TokenKind::KwDouble},
      {"void", TokenKind::KwVoid},       {"for", TokenKind::KwFor},
      {"while", TokenKind::KwWhile},     {"if", TokenKind::KwIf},
      {"else", TokenKind::KwElse},       {"break", TokenKind::KwBreak},
      {"continue", TokenKind::KwContinue}, {"return", TokenKind::KwReturn},
  };
  return map;
}
}  // namespace

const char* token_kind_name(TokenKind kind) {
  switch (kind) {
    case TokenKind::End: return "end of input";
    case TokenKind::Identifier: return "identifier";
    case TokenKind::IntLiteral: return "integer literal";
    case TokenKind::FloatLiteral: return "float literal";
    case TokenKind::KwInt: return "'int'";
    case TokenKind::KwLong: return "'long'";
    case TokenKind::KwFloat: return "'float'";
    case TokenKind::KwDouble: return "'double'";
    case TokenKind::KwVoid: return "'void'";
    case TokenKind::KwFor: return "'for'";
    case TokenKind::KwWhile: return "'while'";
    case TokenKind::KwIf: return "'if'";
    case TokenKind::KwElse: return "'else'";
    case TokenKind::KwBreak: return "'break'";
    case TokenKind::KwContinue: return "'continue'";
    case TokenKind::KwReturn: return "'return'";
    case TokenKind::LParen: return "'('";
    case TokenKind::RParen: return "')'";
    case TokenKind::LBrace: return "'{'";
    case TokenKind::RBrace: return "'}'";
    case TokenKind::LBracket: return "'['";
    case TokenKind::RBracket: return "']'";
    case TokenKind::Semi: return "';'";
    case TokenKind::Comma: return "','";
    case TokenKind::Question: return "'?'";
    case TokenKind::Colon: return "':'";
    case TokenKind::Assign: return "'='";
    case TokenKind::PlusAssign: return "'+='";
    case TokenKind::MinusAssign: return "'-='";
    case TokenKind::StarAssign: return "'*='";
    case TokenKind::SlashAssign: return "'/='";
    case TokenKind::PercentAssign: return "'%='";
    case TokenKind::PlusPlus: return "'++'";
    case TokenKind::MinusMinus: return "'--'";
    case TokenKind::Plus: return "'+'";
    case TokenKind::Minus: return "'-'";
    case TokenKind::Star: return "'*'";
    case TokenKind::Slash: return "'/'";
    case TokenKind::Percent: return "'%'";
    case TokenKind::Lt: return "'<'";
    case TokenKind::Le: return "'<='";
    case TokenKind::Gt: return "'>'";
    case TokenKind::Ge: return "'>='";
    case TokenKind::EqEq: return "'=='";
    case TokenKind::NotEq: return "'!='";
    case TokenKind::AmpAmp: return "'&&'";
    case TokenKind::PipePipe: return "'||'";
    case TokenKind::Not: return "'!'";
  }
  return "?";
}

Lexer::Lexer(std::string_view source, support::DiagnosticEngine& diags,
             support::SourceLocation start)
    : source_(source), diags_(diags), pos_(start.offset), line_(start.line),
      column_(start.column) {}

char Lexer::peek(size_t ahead) const {
  size_t p = pos_ + ahead;
  return p < source_.size() ? source_[p] : '\0';
}

char Lexer::advance() {
  char c = source_[pos_++];
  if (c == '\n') {
    ++line_;
    column_ = 1;
  } else {
    ++column_;
  }
  return c;
}

bool Lexer::match(char expected) {
  if (peek() != expected) return false;
  advance();
  return true;
}

support::SourceLocation Lexer::here() const {
  return {line_, column_, static_cast<uint32_t>(pos_)};
}

void Lexer::skip_trivia() {
  const Trivia t = scan_trivia(source_, pos_);
  if (t.newlines > 0) {
    line_ += t.newlines;
    column_ = static_cast<uint32_t>(t.end - t.line_start + 1);
  } else {
    column_ += static_cast<uint32_t>(t.end - pos_);
  }
  pos_ = t.end;
  if (t.unterminated) {
    diags_.error(support::DiagCode::LexUnterminatedComment, here(),
                 "unterminated block comment");
  }
}

Token Lexer::lex_number() {
  Token tok;
  tok.location = here();
  // Scan the token as one span of the source instead of growing a string a
  // character at a time (lexing is on the interactive re-parse path).
  const size_t start = pos_;
  bool is_float = false;
  while (std::isdigit(static_cast<unsigned char>(peek()))) advance();
  if (peek() == '.' && std::isdigit(static_cast<unsigned char>(peek(1)))) {
    is_float = true;
    advance();
    while (std::isdigit(static_cast<unsigned char>(peek()))) advance();
  }
  if (peek() == 'e' || peek() == 'E') {
    size_t save = 1;
    if (peek(1) == '+' || peek(1) == '-') save = 2;
    if (std::isdigit(static_cast<unsigned char>(peek(save)))) {
      is_float = true;
      advance();  // e
      if (peek() == '+' || peek() == '-') advance();
      while (std::isdigit(static_cast<unsigned char>(peek()))) advance();
    }
  }
  // A literal that does not fit is reported and lexed as 0, so the parse
  // goes on and the file fails with a located diagnostic.
  const std::string digits(source_.substr(start, pos_ - start));
  bool in_range = true;
  if (is_float) {
    tok.kind = TokenKind::FloatLiteral;
    errno = 0;
    tok.float_value = std::strtod(digits.c_str(), nullptr);
    // Underflow rounds toward zero like C; only overflow is an error.
    in_range = !(errno == ERANGE && std::isinf(tok.float_value));
    if (!in_range) tok.float_value = 0;
  } else {
    tok.kind = TokenKind::IntLiteral;
    // from_chars leaves the value at 0 when it does not fit.
    in_range = std::from_chars(digits.data(), digits.data() + digits.size(), tok.int_value).ec ==
               std::errc();
  }
  if (!in_range) {
    diags_.error(support::DiagCode::LexLiteralOutOfRange, tok.location,
                 (is_float ? "floating literal '" : "integer literal '") + digits +
                     (is_float ? "' is too large for double" : "' is too large for int64"));
  }
  return tok;
}

Token Lexer::lex_identifier() {
  Token tok;
  tok.location = here();
  const size_t start = pos_;
  while (std::isalnum(static_cast<unsigned char>(peek())) || peek() == '_') {
    ++pos_;  // identifiers cannot span lines; column is fixed up below
  }
  column_ += static_cast<uint32_t>(pos_ - start);
  std::string_view text = source_.substr(start, pos_ - start);
  auto it = keywords().find(text);
  if (it != keywords().end()) {
    tok.kind = it->second;
  } else {
    tok.kind = TokenKind::Identifier;
    tok.text = std::string(text);
  }
  return tok;
}

Token Lexer::next() {
  skip_trivia();
  Token tok;
  tok.location = here();
  if (pos_ >= source_.size()) {
    tok.kind = TokenKind::End;
    return tok;
  }
  char c = peek();
  if (std::isdigit(static_cast<unsigned char>(c))) return lex_number();
  if (std::isalpha(static_cast<unsigned char>(c)) || c == '_') return lex_identifier();
  advance();
  switch (c) {
    case '(': tok.kind = TokenKind::LParen; break;
    case ')': tok.kind = TokenKind::RParen; break;
    case '{': tok.kind = TokenKind::LBrace; break;
    case '}': tok.kind = TokenKind::RBrace; break;
    case '[': tok.kind = TokenKind::LBracket; break;
    case ']': tok.kind = TokenKind::RBracket; break;
    case ';': tok.kind = TokenKind::Semi; break;
    case ',': tok.kind = TokenKind::Comma; break;
    case '?': tok.kind = TokenKind::Question; break;
    case ':': tok.kind = TokenKind::Colon; break;
    case '+':
      tok.kind = match('+') ? TokenKind::PlusPlus
               : match('=') ? TokenKind::PlusAssign
                            : TokenKind::Plus;
      break;
    case '-':
      tok.kind = match('-') ? TokenKind::MinusMinus
               : match('=') ? TokenKind::MinusAssign
                            : TokenKind::Minus;
      break;
    case '*': tok.kind = match('=') ? TokenKind::StarAssign : TokenKind::Star; break;
    case '/': tok.kind = match('=') ? TokenKind::SlashAssign : TokenKind::Slash; break;
    case '%': tok.kind = match('=') ? TokenKind::PercentAssign : TokenKind::Percent; break;
    case '<': tok.kind = match('=') ? TokenKind::Le : TokenKind::Lt; break;
    case '>': tok.kind = match('=') ? TokenKind::Ge : TokenKind::Gt; break;
    case '=': tok.kind = match('=') ? TokenKind::EqEq : TokenKind::Assign; break;
    case '!': tok.kind = match('=') ? TokenKind::NotEq : TokenKind::Not; break;
    case '&':
      if (match('&')) {
        tok.kind = TokenKind::AmpAmp;
      } else {
        diags_.error(support::DiagCode::LexUnexpectedChar, tok.location,
                     "unexpected character '&'");
        return next();
      }
      break;
    case '|':
      if (match('|')) {
        tok.kind = TokenKind::PipePipe;
      } else {
        diags_.error(support::DiagCode::LexUnexpectedChar, tok.location,
                     "unexpected character '|'");
        return next();
      }
      break;
    default:
      diags_.error(support::DiagCode::LexUnexpectedChar, tok.location,
                   std::string("unexpected character '") + c + "'");
      return next();
  }
  return tok;
}

std::vector<Token> Lexer::tokenize(std::string_view source,
                                   support::DiagnosticEngine& diags,
                                   support::SourceLocation start) {
  Lexer lexer(source, diags, start);
  std::vector<Token> tokens;
  // ~5 bytes per token is typical for this grammar; one up-front reservation
  // avoids log(n) grow-and-move cycles of 64-byte Tokens.
  tokens.reserve((source.size() - std::min<size_t>(start.offset, source.size())) / 5 + 16);
  for (;;) {
    tokens.push_back(lexer.next());
    if (tokens.back().kind == TokenKind::End) break;
  }
  return tokens;
}

}  // namespace sspar::ast
