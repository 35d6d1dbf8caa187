// Recursive-descent parser for the mini-C subset.
#pragma once

#include <memory>
#include <string>
#include <string_view>

#include "frontend/ast.h"
#include "frontend/lexer.h"
#include "support/diagnostics.h"

namespace sspar::ast {

class Parser {
 public:
  // Parses `source` from `start` (see Lexer): node locations are absolute,
  // so one top-level declaration cut out of a larger buffer parses into the
  // nodes a whole-buffer parse would build for it.
  Parser(std::string_view source, support::DiagnosticEngine& diags,
         support::SourceLocation start = {1, 1, 0});

  // Parses a whole translation unit. Returns a program even on error (with
  // diagnostics reported); callers should check diags.has_errors().
  std::unique_ptr<Program> parse_program();

  // Parses one top-level declaration (a function, or one global declaration
  // statement) into `program`.
  void parse_top_level(Program& program);
  // True once every token has been consumed.
  bool at_end() const { return check(TokenKind::End); }

  // Parse errors reported before the parser gives up on the input: a
  // backstop that bounds the work and the diagnostics of any input.
  static constexpr int kMaxErrors = 100;

 private:
  const Token& peek(size_t ahead = 0) const;
  const Token& current() const { return peek(0); }
  Token consume();
  bool check(TokenKind kind) const { return current().kind == kind; }
  bool match(TokenKind kind);
  Token expect(TokenKind kind, const char* context);
  // Reports a parse error; the kMaxErrors-th one ends the parse.
  void error(support::DiagCode code, support::SourceLocation location, std::string message);
  void synchronize();

  bool at_type_keyword() const;
  TypeKind parse_type();

  std::unique_ptr<VarDecl> parse_declarator(TypeKind base, bool is_param);
  std::unique_ptr<FuncDecl> parse_function_rest(TypeKind ret, Token name_tok);

  StmtPtr parse_stmt();
  StmtPtr parse_compound();
  StmtPtr parse_if();
  StmtPtr parse_for();
  StmtPtr parse_while();
  StmtPtr parse_decl_stmt();

  ExprPtr parse_expr() { return parse_assignment(); }
  ExprPtr parse_assignment();
  ExprPtr parse_conditional();
  ExprPtr parse_binary(int min_precedence);
  ExprPtr parse_unary();
  ExprPtr parse_postfix();
  ExprPtr parse_primary();

  std::vector<Token> tokens_;
  size_t pos_ = 0;
  support::DiagnosticEngine& diags_;
  int errors_ = 0;
};

}  // namespace sspar::ast
