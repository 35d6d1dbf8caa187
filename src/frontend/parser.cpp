#include "frontend/parser.h"

#include <optional>

namespace sspar::ast {

namespace {

struct BinOpInfo {
  BinaryOp op;
  int precedence;  // higher binds tighter
};

std::optional<BinOpInfo> binop_info(TokenKind kind) {
  switch (kind) {
    case TokenKind::PipePipe: return BinOpInfo{BinaryOp::LOr, 1};
    case TokenKind::AmpAmp: return BinOpInfo{BinaryOp::LAnd, 2};
    case TokenKind::EqEq: return BinOpInfo{BinaryOp::Eq, 3};
    case TokenKind::NotEq: return BinOpInfo{BinaryOp::Ne, 3};
    case TokenKind::Lt: return BinOpInfo{BinaryOp::Lt, 4};
    case TokenKind::Le: return BinOpInfo{BinaryOp::Le, 4};
    case TokenKind::Gt: return BinOpInfo{BinaryOp::Gt, 4};
    case TokenKind::Ge: return BinOpInfo{BinaryOp::Ge, 4};
    case TokenKind::Plus: return BinOpInfo{BinaryOp::Add, 5};
    case TokenKind::Minus: return BinOpInfo{BinaryOp::Sub, 5};
    case TokenKind::Star: return BinOpInfo{BinaryOp::Mul, 6};
    case TokenKind::Slash: return BinOpInfo{BinaryOp::Div, 6};
    case TokenKind::Percent: return BinOpInfo{BinaryOp::Rem, 6};
    default: return std::nullopt;
  }
}

std::optional<AssignOp> assign_op(TokenKind kind) {
  switch (kind) {
    case TokenKind::Assign: return AssignOp::Assign;
    case TokenKind::PlusAssign: return AssignOp::Add;
    case TokenKind::MinusAssign: return AssignOp::Sub;
    case TokenKind::StarAssign: return AssignOp::Mul;
    case TokenKind::SlashAssign: return AssignOp::Div;
    case TokenKind::PercentAssign: return AssignOp::Rem;
    default: return std::nullopt;
  }
}

}  // namespace

Parser::Parser(std::string_view source, support::DiagnosticEngine& diags,
               support::SourceLocation start)
    : tokens_(Lexer::tokenize(source, diags, start)), diags_(diags) {}

const Token& Parser::peek(size_t ahead) const {
  size_t p = pos_ + ahead;
  if (p >= tokens_.size()) p = tokens_.size() - 1;  // End token
  return tokens_[p];
}

Token Parser::consume() {
  Token tok = current();
  if (pos_ + 1 < tokens_.size()) ++pos_;
  return tok;
}

bool Parser::match(TokenKind kind) {
  if (!check(kind)) return false;
  consume();
  return true;
}

Token Parser::expect(TokenKind kind, const char* context) {
  if (check(kind)) return consume();
  error(support::DiagCode::ParseExpectedToken, current().location,
        std::string("expected ") + token_kind_name(kind) + " " + context + ", found " +
            token_kind_name(current().kind));
  return current();
}

void Parser::error(support::DiagCode code, support::SourceLocation location,
                   std::string message) {
  if (errors_ >= kMaxErrors) return;
  diags_.error(code, location, std::move(message));
  if (++errors_ < kMaxErrors) return;
  diags_.error(support::DiagCode::ParseTooManyErrors, location,
               "too many errors; parsing stopped");
  pos_ = tokens_.size() - 1;  // the End token: every parsing loop stops there
}

void Parser::synchronize() {
  // Skip to the next statement boundary after a parse error.
  while (!check(TokenKind::End)) {
    if (match(TokenKind::Semi)) return;
    if (check(TokenKind::RBrace)) return;
    consume();
  }
}

bool Parser::at_type_keyword() const {
  switch (current().kind) {
    case TokenKind::KwInt:
    case TokenKind::KwLong:
    case TokenKind::KwFloat:
    case TokenKind::KwDouble:
    case TokenKind::KwVoid:
      return true;
    default:
      return false;
  }
}

TypeKind Parser::parse_type() {
  switch (current().kind) {
    case TokenKind::KwInt:
      consume();
      // "long long" / "long int" collapse to Int (64-bit in the interpreter).
      return TypeKind::Int;
    case TokenKind::KwLong:
      consume();
      while (check(TokenKind::KwLong) || check(TokenKind::KwInt)) consume();
      return TypeKind::Int;
    case TokenKind::KwFloat:
    case TokenKind::KwDouble:
      consume();
      return TypeKind::Double;
    case TokenKind::KwVoid:
      consume();
      return TypeKind::Void;
    default:
      error(support::DiagCode::ParseExpectedType, current().location, "expected type");
      consume();
      return TypeKind::Int;
  }
}

std::unique_ptr<Program> Parser::parse_program() {
  auto program = std::make_unique<Program>();
  while (!check(TokenKind::End)) {
    parse_top_level(*program);
  }
  return program;
}

void Parser::parse_top_level(Program& program) {
  if (!at_type_keyword()) {
    error(support::DiagCode::ParseExpectedDecl, current().location,
          "expected declaration at top level");
    // synchronize() stops before a '}' so that a block can close; at top
    // level no block is open, and a stray '}' left in place would stall
    // parse_program on it forever.
    if (!match(TokenKind::RBrace)) synchronize();
    return;
  }
  TypeKind base = parse_type();
  Token name = expect(TokenKind::Identifier, "in declaration");
  if (check(TokenKind::LParen)) {
    program.functions.push_back(parse_function_rest(base, name));
    return;
  }
  // Global variable(s).
  for (;;) {
    auto decl = std::make_unique<VarDecl>();
    decl->name = name.text;
    decl->elem_type = base;
    decl->location = name.location;
    while (match(TokenKind::LBracket)) {
      if (check(TokenKind::RBracket)) {
        decl->dims.push_back(nullptr);
      } else {
        decl->dims.push_back(parse_expr());
      }
      expect(TokenKind::RBracket, "after array dimension");
    }
    if (match(TokenKind::Assign)) decl->init = parse_assignment();
    program.globals.push_back(std::move(decl));
    if (!match(TokenKind::Comma)) break;
    name = expect(TokenKind::Identifier, "after ',' in declaration");
  }
  expect(TokenKind::Semi, "after declaration");
}

std::unique_ptr<VarDecl> Parser::parse_declarator(TypeKind base, bool is_param) {
  auto decl = std::make_unique<VarDecl>();
  Token name = expect(TokenKind::Identifier, "in declaration");
  decl->name = name.text;
  decl->elem_type = base;
  decl->is_param = is_param;
  decl->location = name.location;
  while (match(TokenKind::LBracket)) {
    if (check(TokenKind::RBracket)) {
      decl->dims.push_back(nullptr);
    } else {
      decl->dims.push_back(parse_expr());
    }
    expect(TokenKind::RBracket, "after array dimension");
  }
  if (!is_param && match(TokenKind::Assign)) decl->init = parse_assignment();
  return decl;
}

std::unique_ptr<FuncDecl> Parser::parse_function_rest(TypeKind ret, Token name_tok) {
  auto func = std::make_unique<FuncDecl>();
  func->name = name_tok.text;
  func->return_type = ret;
  func->location = name_tok.location;
  expect(TokenKind::LParen, "after function name");
  if (!check(TokenKind::RParen) && !check(TokenKind::KwVoid)) {
    for (;;) {
      TypeKind ptype = parse_type();
      func->params.push_back(parse_declarator(ptype, /*is_param=*/true));
      if (!match(TokenKind::Comma)) break;
    }
  } else if (check(TokenKind::KwVoid) && peek(1).kind == TokenKind::RParen) {
    consume();  // void parameter list
  }
  expect(TokenKind::RParen, "after parameter list");
  auto body = parse_compound();
  auto* compound = body->as<Compound>();
  func->body.reset(static_cast<Compound*>(body.release()));
  (void)compound;
  return func;
}

StmtPtr Parser::parse_compound() {
  auto compound = std::make_unique<Compound>();
  compound->location = current().location;
  expect(TokenKind::LBrace, "to open block");
  while (!check(TokenKind::RBrace) && !check(TokenKind::End)) {
    compound->body.push_back(parse_stmt());
  }
  expect(TokenKind::RBrace, "to close block");
  return compound;
}

StmtPtr Parser::parse_decl_stmt() {
  auto decl_stmt = std::make_unique<DeclStmt>();
  decl_stmt->location = current().location;
  TypeKind base = parse_type();
  for (;;) {
    decl_stmt->decls.push_back(parse_declarator(base, /*is_param=*/false));
    if (!match(TokenKind::Comma)) break;
  }
  expect(TokenKind::Semi, "after declaration");
  return decl_stmt;
}

StmtPtr Parser::parse_stmt() {
  switch (current().kind) {
    case TokenKind::LBrace:
      return parse_compound();
    case TokenKind::KwIf:
      return parse_if();
    case TokenKind::KwFor:
      return parse_for();
    case TokenKind::KwWhile:
      return parse_while();
    case TokenKind::KwBreak: {
      auto s = std::make_unique<Break>();
      s->location = consume().location;
      expect(TokenKind::Semi, "after 'break'");
      return s;
    }
    case TokenKind::KwContinue: {
      auto s = std::make_unique<Continue>();
      s->location = consume().location;
      expect(TokenKind::Semi, "after 'continue'");
      return s;
    }
    case TokenKind::KwReturn: {
      auto loc = consume().location;
      ExprPtr value;
      if (!check(TokenKind::Semi)) value = parse_expr();
      expect(TokenKind::Semi, "after return statement");
      auto s = std::make_unique<Return>(std::move(value));
      s->location = loc;
      return s;
    }
    case TokenKind::Semi: {
      auto s = std::make_unique<Empty>();
      s->location = consume().location;
      return s;
    }
    default:
      if (at_type_keyword()) return parse_decl_stmt();
      {
        auto loc = current().location;
        auto expr = parse_expr();
        expect(TokenKind::Semi, "after expression statement");
        auto s = std::make_unique<ExprStmt>(std::move(expr));
        s->location = loc;
        return s;
      }
  }
}

StmtPtr Parser::parse_if() {
  auto loc = consume().location;  // 'if'
  expect(TokenKind::LParen, "after 'if'");
  auto cond = parse_expr();
  expect(TokenKind::RParen, "after if condition");
  auto then_branch = parse_stmt();
  StmtPtr else_branch;
  if (match(TokenKind::KwElse)) else_branch = parse_stmt();
  auto s = std::make_unique<If>(std::move(cond), std::move(then_branch), std::move(else_branch));
  s->location = loc;
  return s;
}

StmtPtr Parser::parse_for() {
  auto loc = consume().location;  // 'for'
  expect(TokenKind::LParen, "after 'for'");
  StmtPtr init;
  if (match(TokenKind::Semi)) {
    init = std::make_unique<Empty>();
  } else if (at_type_keyword()) {
    init = parse_decl_stmt();
  } else {
    auto expr = parse_expr();
    expect(TokenKind::Semi, "after for-init");
    init = std::make_unique<ExprStmt>(std::move(expr));
  }
  ExprPtr cond;
  if (!check(TokenKind::Semi)) cond = parse_expr();
  expect(TokenKind::Semi, "after for-condition");
  ExprPtr step;
  if (!check(TokenKind::RParen)) step = parse_expr();
  expect(TokenKind::RParen, "after for-step");
  auto body = parse_stmt();
  auto s = std::make_unique<For>(std::move(init), std::move(cond), std::move(step),
                                 std::move(body));
  s->location = loc;
  return s;
}

StmtPtr Parser::parse_while() {
  auto loc = consume().location;  // 'while'
  expect(TokenKind::LParen, "after 'while'");
  auto cond = parse_expr();
  expect(TokenKind::RParen, "after while condition");
  auto body = parse_stmt();
  auto s = std::make_unique<While>(std::move(cond), std::move(body));
  s->location = loc;
  return s;
}

ExprPtr Parser::parse_assignment() {
  auto lhs = parse_conditional();
  if (auto op = assign_op(current().kind)) {
    auto loc = consume().location;
    auto rhs = parse_assignment();  // right-associative
    auto e = std::make_unique<Assign>(*op, std::move(lhs), std::move(rhs));
    e->location = loc;
    return e;
  }
  return lhs;
}

ExprPtr Parser::parse_conditional() {
  auto cond = parse_binary(1);
  if (!match(TokenKind::Question)) return cond;
  auto then_expr = parse_expr();
  expect(TokenKind::Colon, "in conditional expression");
  auto else_expr = parse_conditional();
  auto e = std::make_unique<Conditional>(std::move(cond), std::move(then_expr),
                                         std::move(else_expr));
  e->location = e->cond->location;
  return e;
}

ExprPtr Parser::parse_binary(int min_precedence) {
  auto lhs = parse_unary();
  for (;;) {
    auto info = binop_info(current().kind);
    if (!info || info->precedence < min_precedence) return lhs;
    auto loc = consume().location;
    auto rhs = parse_binary(info->precedence + 1);
    auto e = std::make_unique<Binary>(info->op, std::move(lhs), std::move(rhs));
    e->location = loc;
    lhs = std::move(e);
  }
}

ExprPtr Parser::parse_unary() {
  switch (current().kind) {
    case TokenKind::Minus: {
      auto loc = consume().location;
      auto e = std::make_unique<Unary>(UnaryOp::Neg, parse_unary());
      e->location = loc;
      return e;
    }
    case TokenKind::Plus:
      consume();
      return parse_unary();
    case TokenKind::Not: {
      auto loc = consume().location;
      auto e = std::make_unique<Unary>(UnaryOp::Not, parse_unary());
      e->location = loc;
      return e;
    }
    case TokenKind::PlusPlus:
    case TokenKind::MinusMinus: {
      bool inc = current().kind == TokenKind::PlusPlus;
      auto loc = consume().location;
      auto target = parse_unary();
      auto e = std::make_unique<IncDec>(inc ? IncDecOp::PreInc : IncDecOp::PreDec,
                                        std::move(target));
      e->location = loc;
      return e;
    }
    default:
      return parse_postfix();
  }
}

ExprPtr Parser::parse_postfix() {
  auto expr = parse_primary();
  for (;;) {
    if (match(TokenKind::LBracket)) {
      auto index = parse_expr();
      expect(TokenKind::RBracket, "after subscript");
      auto loc = expr->location;
      auto e = std::make_unique<ArrayRef>(std::move(expr), std::move(index));
      e->location = loc;
      expr = std::move(e);
    } else if (check(TokenKind::LParen) && expr->kind == ExprNodeKind::VarRef) {
      consume();
      std::vector<ExprPtr> args;
      if (!check(TokenKind::RParen)) {
        for (;;) {
          args.push_back(parse_assignment());
          if (!match(TokenKind::Comma)) break;
        }
      }
      expect(TokenKind::RParen, "after call arguments");
      auto loc = expr->location;
      auto e = std::make_unique<Call>(expr->as<VarRef>()->name, std::move(args));
      e->location = loc;
      expr = std::move(e);
    } else if (check(TokenKind::PlusPlus) || check(TokenKind::MinusMinus)) {
      bool inc = current().kind == TokenKind::PlusPlus;
      auto loc = consume().location;
      auto e = std::make_unique<IncDec>(inc ? IncDecOp::PostInc : IncDecOp::PostDec,
                                        std::move(expr));
      e->location = loc;
      expr = std::move(e);
    } else {
      return expr;
    }
  }
}

ExprPtr Parser::parse_primary() {
  switch (current().kind) {
    case TokenKind::IntLiteral: {
      Token tok = consume();
      auto e = std::make_unique<IntLit>(tok.int_value);
      e->location = tok.location;
      return e;
    }
    case TokenKind::FloatLiteral: {
      Token tok = consume();
      auto e = std::make_unique<FloatLit>(tok.float_value);
      e->location = tok.location;
      return e;
    }
    case TokenKind::Identifier: {
      Token tok = consume();
      auto e = std::make_unique<VarRef>(tok.text);
      e->location = tok.location;
      return e;
    }
    case TokenKind::LParen: {
      consume();
      auto e = parse_expr();
      expect(TokenKind::RParen, "to close parenthesized expression");
      return e;
    }
    default:
      error(support::DiagCode::ParseExpectedExpr, current().location,
            std::string("expected expression, found ") + token_kind_name(current().kind));
      consume();
      return std::make_unique<IntLit>(0);
  }
}

}  // namespace sspar::ast
