#include <gtest/gtest.h>

#include "frontend/frontend.h"

namespace sspar::ast {
namespace {

using support::DiagnosticEngine;

ParseResult parse_ok(std::string_view source) {
  DiagnosticEngine diags;
  ParseResult result = parse_and_resolve(source, diags);
  EXPECT_TRUE(result.ok) << diags.dump();
  return result;
}

// ---------------------------------------------------------------------------
// Lexer
// ---------------------------------------------------------------------------

TEST(Lexer, TokenizesOperators) {
  DiagnosticEngine diags;
  auto toks = Lexer::tokenize("+ += ++ - -= -- <= < >= > == = != ! && ||", diags);
  ASSERT_FALSE(diags.has_errors());
  std::vector<TokenKind> kinds;
  for (const auto& t : toks) kinds.push_back(t.kind);
  std::vector<TokenKind> expected = {
      TokenKind::Plus,       TokenKind::PlusAssign, TokenKind::PlusPlus,
      TokenKind::Minus,      TokenKind::MinusAssign, TokenKind::MinusMinus,
      TokenKind::Le,         TokenKind::Lt,          TokenKind::Ge,
      TokenKind::Gt,         TokenKind::EqEq,        TokenKind::Assign,
      TokenKind::NotEq,      TokenKind::Not,         TokenKind::AmpAmp,
      TokenKind::PipePipe,   TokenKind::End};
  EXPECT_EQ(kinds, expected);
}

TEST(Lexer, NumbersAndIdentifiers) {
  DiagnosticEngine diags;
  auto toks = Lexer::tokenize("42 3.5 1e3 x_1 for", diags);
  ASSERT_FALSE(diags.has_errors());
  EXPECT_EQ(toks[0].kind, TokenKind::IntLiteral);
  EXPECT_EQ(toks[0].int_value, 42);
  EXPECT_EQ(toks[1].kind, TokenKind::FloatLiteral);
  EXPECT_DOUBLE_EQ(toks[1].float_value, 3.5);
  EXPECT_EQ(toks[2].kind, TokenKind::FloatLiteral);
  EXPECT_DOUBLE_EQ(toks[2].float_value, 1000.0);
  EXPECT_EQ(toks[3].kind, TokenKind::Identifier);
  EXPECT_EQ(toks[3].text, "x_1");
  EXPECT_EQ(toks[4].kind, TokenKind::KwFor);
}

TEST(Lexer, SkipsCommentsAndPragmas) {
  DiagnosticEngine diags;
  auto toks = Lexer::tokenize(
      "// line comment\n/* block\ncomment */ #pragma omp parallel\nx", diags);
  ASSERT_FALSE(diags.has_errors());
  ASSERT_EQ(toks.size(), 2u);
  EXPECT_EQ(toks[0].text, "x");
}

TEST(Lexer, TracksLineAndColumn) {
  DiagnosticEngine diags;
  auto toks = Lexer::tokenize("a\n  b", diags);
  EXPECT_EQ(toks[0].location.line, 1u);
  EXPECT_EQ(toks[0].location.column, 1u);
  EXPECT_EQ(toks[1].location.line, 2u);
  EXPECT_EQ(toks[1].location.column, 3u);
}

TEST(Lexer, ReportsUnexpectedCharacter) {
  DiagnosticEngine diags;
  Lexer::tokenize("a @ b", diags);
  EXPECT_TRUE(diags.has_errors());
}

TEST(Lexer, IntegerLiteralBeyondInt64IsALocatedErrorAndLexingGoesOn) {
  DiagnosticEngine diags;
  auto toks = Lexer::tokenize("x = 9223372036854775807;\ny = 99999999999999999999; z", diags);
  ASSERT_EQ(diags.error_count(), 1u) << diags.dump();
  const support::Diagnostic& d = diags.diagnostics()[0];
  EXPECT_EQ(d.code, support::DiagCode::LexLiteralOutOfRange);
  EXPECT_EQ(support::diag_code_name(d.code), "E0103");
  EXPECT_EQ(d.location.line, 2u);
  EXPECT_EQ(d.location.column, 5u);
  EXPECT_NE(d.message.find("99999999999999999999"), std::string::npos);
  ASSERT_EQ(toks.size(), 10u);  // x = N ; y = N ; z End
  EXPECT_EQ(toks[2].int_value, INT64_MAX);
  EXPECT_EQ(toks[6].kind, TokenKind::IntLiteral);
  EXPECT_EQ(toks[6].int_value, 0);
  EXPECT_EQ(toks[8].text, "z");
}

TEST(Lexer, FloatLiteralBeyondDoubleIsALocatedErrorAndLexingGoesOn) {
  DiagnosticEngine diags;
  auto toks = Lexer::tokenize("a = 1e-999; b = 1e999; c", diags);
  ASSERT_EQ(diags.error_count(), 1u) << diags.dump();
  const support::Diagnostic& d = diags.diagnostics()[0];
  EXPECT_EQ(d.code, support::DiagCode::LexLiteralOutOfRange);
  EXPECT_EQ(d.location.line, 1u);
  EXPECT_EQ(d.location.column, 17u);
  ASSERT_EQ(toks.size(), 10u);
  EXPECT_EQ(toks[2].float_value, 0.0);  // underflow rounds to zero, like C
  EXPECT_EQ(toks[6].kind, TokenKind::FloatLiteral);
  EXPECT_EQ(toks[6].float_value, 0.0);
  EXPECT_EQ(toks[8].text, "c");
}

TEST(Parser, OutOfRangeLiteralFailsTheParseWithoutThrowing) {
  for (const char* literal : {"99999999999999999999", "1e999"}) {
    DiagnosticEngine diags;
    std::string source = std::string("int a[10];\nvoid f() {\n  a[1] = ") + literal + ";\n}\n";
    ParseResult result = parse_and_resolve(source, diags);
    EXPECT_FALSE(result.ok) << literal;
    ASSERT_EQ(diags.error_count(), 1u) << diags.dump();
    EXPECT_EQ(diags.diagnostics()[0].to_string().rfind("3:10: error: ", 0), 0u)
        << diags.diagnostics()[0].to_string();
  }
}

// ---------------------------------------------------------------------------
// Parser structure
// ---------------------------------------------------------------------------

TEST(Parser, GlobalAndFunction) {
  auto r = parse_ok(R"(
    int n;
    int a[100];
    double m[10][20];
    void f(int x, int b[]) {
      x = b[0];
    }
  )");
  EXPECT_EQ(r.program->globals.size(), 3u);
  ASSERT_EQ(r.program->functions.size(), 1u);
  const auto* f = r.program->find_function("f");
  ASSERT_NE(f, nullptr);
  EXPECT_EQ(f->params.size(), 2u);
  EXPECT_TRUE(f->params[1]->is_array());
  EXPECT_EQ(r.program->find_global("m")->dims.size(), 2u);
  EXPECT_EQ(r.program->find_global("m")->elem_type, TypeKind::Double);
}

TEST(Parser, ForLoopCanonical) {
  auto r = parse_ok(R"(
    void f(int n, int a[]) {
      for (int i = 0; i < n; i++) {
        a[i] = i;
      }
    }
  )");
  auto loops = collect_loops(r.program->find_function("f")->body.get());
  ASSERT_EQ(loops.size(), 1u);
  EXPECT_EQ(loops[0]->loop_id, 0);
  EXPECT_NE(loops[0]->cond, nullptr);
  EXPECT_NE(loops[0]->step, nullptr);
}

TEST(Parser, NestedLoopsGetPreOrderIds) {
  auto r = parse_ok(R"(
    void f(int n, int a[]) {
      for (int i = 0; i < n; i++) {
        for (int j = 0; j < n; j++) {
          a[j] = j;
        }
      }
      for (int k = 0; k < n; k++) {
        a[k] = k;
      }
    }
  )");
  auto loops = collect_loops(r.program->find_function("f")->body.get());
  ASSERT_EQ(loops.size(), 3u);
  EXPECT_EQ(loops[0]->loop_id, 0);
  EXPECT_EQ(loops[1]->loop_id, 1);
  EXPECT_EQ(loops[2]->loop_id, 2);
}

TEST(Parser, PrecedenceAndAssociativity) {
  auto r = parse_ok("void f(int a, int b, int c) { a = a + b * c - 1; }");
  const auto* f = r.program->find_function("f");
  const auto* stmt = f->body->body[0]->as<ExprStmt>();
  EXPECT_EQ(print_expr(*stmt->expr), "a = a + b * c - 1");
}

TEST(Parser, TernaryAndLogical) {
  auto r = parse_ok("void f(int a, int b) { a = a > 0 && b < 3 ? a : b; }");
  const auto* stmt = r.program->find_function("f")->body->body[0]->as<ExprStmt>();
  EXPECT_EQ(print_expr(*stmt->expr), "a = a > 0 && b < 3 ? a : b");
}

TEST(Parser, PostfixChains) {
  auto r = parse_ok("void f(int x, int a[], int b[]) { a[b[x++]]--; }");
  const auto* stmt = r.program->find_function("f")->body->body[0]->as<ExprStmt>();
  EXPECT_EQ(print_expr(*stmt->expr), "a[b[x++]]--");
}

TEST(Parser, MultiDimSubscripts) {
  auto r = parse_ok("void f(int m[10][20], int i, int j) { m[i][j] = 1; }");
  const auto* stmt = r.program->find_function("f")->body->body[0]->as<ExprStmt>();
  const auto* assign = stmt->expr->as<Assign>();
  const auto* ar = assign->target->as<ArrayRef>();
  ASSERT_NE(ar, nullptr);
  EXPECT_EQ(ar->root()->name, "m");
  EXPECT_EQ(ar->subscripts().size(), 2u);
}

TEST(Parser, CallsParse) {
  auto r = parse_ok("void f(int x) { g(x, x + 1); }");
  const auto* stmt = r.program->find_function("f")->body->body[0]->as<ExprStmt>();
  const auto* call = stmt->expr->as<Call>();
  ASSERT_NE(call, nullptr);
  EXPECT_EQ(call->callee, "g");
  EXPECT_EQ(call->args.size(), 2u);
}

TEST(Parser, WhileBreakContinueReturn) {
  auto r = parse_ok(R"(
    int f(int n) {
      while (n > 0) {
        n--;
        if (n == 5) break;
        if (n == 3) continue;
      }
      return n;
    }
  )");
  EXPECT_EQ(r.program->functions.size(), 1u);
}

TEST(Parser, CommaDeclarations) {
  auto r = parse_ok("void f() { int a = 1, b, c = 2; b = a + c; }");
  const auto* ds = r.program->find_function("f")->body->body[0]->as<DeclStmt>();
  ASSERT_NE(ds, nullptr);
  EXPECT_EQ(ds->decls.size(), 3u);
}

TEST(Parser, ErrorRecovery) {
  DiagnosticEngine diags;
  auto result = parse_and_resolve("void f() { int x = ; x = 1; }", diags);
  EXPECT_TRUE(diags.has_errors());
  EXPECT_FALSE(result.ok);
}

TEST(Parser, StrayTopLevelBraceIsConsumed) {
  // A half-typed statement between two functions leaves g's '}' at top
  // level; the parser once stalled on it, adding one error per turn until
  // memory ran out.
  DiagnosticEngine diags;
  Parser parser("void f(int n) { }\nfor (int z = 0; z <\nvoid g(int n) { }\n", diags);
  auto program = parser.parse_program();
  ASSERT_TRUE(diags.has_errors());
  EXPECT_LE(diags.diagnostics().size(), 3u);
  for (const auto& d : diags.diagnostics()) {
    EXPECT_EQ(d.code, support::DiagCode::ParseExpectedDecl) << d.to_string();
  }
  EXPECT_EQ(program->functions.size(), 1u);
}

TEST(Parser, StopsAfterTooManyErrors) {
  std::string junk;
  for (int i = 0; i < 5 * Parser::kMaxErrors; ++i) junk += "x;\n";
  DiagnosticEngine diags;
  Parser(junk, diags).parse_program();
  const auto& list = diags.diagnostics();
  ASSERT_EQ(list.size(), static_cast<size_t>(Parser::kMaxErrors) + 1);
  EXPECT_EQ(list.back().code, support::DiagCode::ParseTooManyErrors);
  EXPECT_EQ(list.back().location.line, static_cast<uint32_t>(Parser::kMaxErrors));
}

TEST(Parser, ParsesOneDeclarationAtItsAbsolutePosition) {
  const std::string source = "int n;\n  void f(void) { n = 1; }\nint m;\n";
  const size_t begin = source.find("void");
  const size_t end = source.find('}') + 1;
  DiagnosticEngine diags;
  Parser parser(std::string_view(source).substr(0, end), diags,
                {2, 3, static_cast<uint32_t>(begin)});
  Program piece;
  parser.parse_top_level(piece);
  ASSERT_FALSE(diags.has_errors());
  EXPECT_TRUE(parser.at_end());
  ASSERT_EQ(piece.functions.size(), 1u);

  // Every node sits where a whole-file parse puts it.
  auto whole = parse_ok(source);
  const FuncDecl& a = *piece.functions[0];
  const FuncDecl& b = *whole.program->find_function("f");
  EXPECT_EQ(a.location.to_string(), b.location.to_string());
  EXPECT_EQ(a.location.offset, b.location.offset);
  const auto* sa = a.body->body[0]->as<ExprStmt>();
  const auto* sb = b.body->body[0]->as<ExprStmt>();
  EXPECT_EQ(sa->expr->location.offset, sb->expr->location.offset);
  EXPECT_EQ(sa->expr->location.column, sb->expr->location.column);
}

TEST(Ast, ShiftLocationsMovesEveryKnownPosition) {
  auto r = parse_ok("int g[4];\nvoid f(int a[4]) {\n  int t = a[0];\n  for (int i = 0; i < t; i++) g[i] = i;\n}\n");
  FuncDecl& f = *r.program->find_function("f");
  std::vector<support::SourceLocation> before;
  auto collect = [](const FuncDecl& fn) {
    std::vector<support::SourceLocation> out{fn.location};
    for (const auto& p : fn.params) out.push_back(p->location);
    walk_stmts(static_cast<const Stmt*>(fn.body.get()), [&out](const Stmt* s) {
      out.push_back(s->location);
      if (const auto* ds = s->as<DeclStmt>()) {
        for (const auto& d : ds->decls) out.push_back(d->location);
      }
      return true;
    });
    walk_exprs(fn.body.get(), [&out](const Expr* e) { out.push_back(e->location); });
    return out;
  };
  before = collect(f);
  shift_locations(f, 3, 40);
  const auto after = collect(f);
  ASSERT_EQ(before.size(), after.size());
  for (size_t i = 0; i < before.size(); ++i) {
    if (!before[i].valid()) continue;
    EXPECT_EQ(after[i].line, before[i].line + 3);
    EXPECT_EQ(after[i].column, before[i].column);
    EXPECT_EQ(after[i].offset, before[i].offset + 40);
  }
}

// ---------------------------------------------------------------------------
// Sema
// ---------------------------------------------------------------------------

TEST(Sema, BindsReferencesToDecls) {
  auto r = parse_ok("int g; void f(int p) { p = g; }");
  const auto* stmt = r.program->find_function("f")->body->body[0]->as<ExprStmt>();
  const auto* assign = stmt->expr->as<Assign>();
  EXPECT_EQ(assign->target->as<VarRef>()->decl->name, "p");
  EXPECT_EQ(assign->value->as<VarRef>()->decl, r.program->find_global("g"));
}

TEST(Sema, InnerScopeShadows) {
  auto r = parse_ok(R"(
    int x;
    void f() {
      int x;
      x = 1;
    }
  )");
  const auto* stmt = r.program->find_function("f")->body->body[1]->as<ExprStmt>();
  const auto* assign = stmt->expr->as<Assign>();
  const auto* bound = assign->target->as<VarRef>()->decl;
  EXPECT_NE(bound, r.program->find_global("x"));
  // Distinct declarations get distinct symbols even with the same name.
  EXPECT_NE(bound->symbol, r.program->find_global("x")->symbol);
}

TEST(Sema, UndeclaredIdentifierIsError) {
  DiagnosticEngine diags;
  auto result = parse_and_resolve("void f() { y = 1; }", diags);
  EXPECT_FALSE(result.ok);
  EXPECT_NE(diags.dump().find("undeclared"), std::string::npos);
}

TEST(Sema, RedeclarationInSameScopeIsError) {
  DiagnosticEngine diags;
  auto result = parse_and_resolve("void f() { int x; int x; }", diags);
  EXPECT_FALSE(result.ok);
}

TEST(Sema, SubscriptOfScalarIsError) {
  DiagnosticEngine diags;
  auto result = parse_and_resolve("void f(int x) { x[0] = 1; }", diags);
  EXPECT_FALSE(result.ok);
}

TEST(Sema, TooManySubscriptsIsError) {
  DiagnosticEngine diags;
  auto result = parse_and_resolve("void f(int a[10]) { a[0][1] = 1; }", diags);
  EXPECT_FALSE(result.ok);
}

TEST(Sema, ForInitDeclScopesOverLoopOnly) {
  DiagnosticEngine diags;
  auto result = parse_and_resolve(R"(
    void f(int a[]) {
      for (int i = 0; i < 10; i++) { a[i] = i; }
      a[i] = 0;
    }
  )", diags);
  EXPECT_FALSE(result.ok);  // i out of scope after the loop
}

// ---------------------------------------------------------------------------
// Printer (round-trip)
// ---------------------------------------------------------------------------

TEST(Printer, RoundTripPreservesSemantics) {
  const char* source = R"(
    int rowptr[101];
    int rowsize[100];
    void fill(int ROWLEN) {
      rowptr[0] = 0;
      for (int i = 1; i < ROWLEN + 1; i++) {
        rowptr[i] = rowptr[i - 1] + rowsize[i - 1];
      }
    }
  )";
  auto r1 = parse_ok(source);
  std::string printed = print_program(*r1.program);
  // The printed source must re-parse cleanly and re-print identically
  // (fixed-point after one round).
  auto r2 = parse_ok(printed);
  EXPECT_EQ(print_program(*r2.program), printed);
}

TEST(Printer, EmitsAnnotationsAboveLoop) {
  auto r = parse_ok("void f(int n, int a[]) { for (int i = 0; i < n; i++) { a[i] = i; } }");
  auto loops = collect_loops(r.program->find_function("f")->body.get());
  const_cast<For*>(loops[0])->annotations.push_back("#pragma omp parallel for");
  std::string printed = print_program(*r.program);
  size_t pragma_pos = printed.find("#pragma omp parallel for");
  size_t for_pos = printed.find("for (");
  ASSERT_NE(pragma_pos, std::string::npos);
  EXPECT_LT(pragma_pos, for_pos);
}

TEST(Printer, BareBodiesOmitAnnotationsAndHybridDispatch) {
  auto r = parse_ok("void f(int n, int a[]) { for (int i = 0; i < n; i++) { a[i] = i; } }");
  const FuncDecl& f = *r.program->find_function("f");
  const std::string bare = print_stmt(*f.body);
  auto loops = collect_loops(static_cast<Stmt*>(r.program->find_function("f")->body.get()));
  loops[0]->annotations.push_back("// note");
  loops[0]->hybrid_check = "check(a)";
  EXPECT_NE(print_stmt(*f.body), bare);
  EXPECT_EQ(print_stmt(*f.body, 0, /*annotations=*/false), bare);
  // print_program is the globals block plus every function.
  std::string pieces = print_globals(*r.program);
  for (const auto& fn : r.program->functions) print_function(*fn, pieces);
  EXPECT_EQ(pieces, print_program(*r.program));
}

TEST(Printer, ParenthesizesByPrecedence) {
  auto r = parse_ok("void f(int a, int b, int c) { a = (a + b) * c; a = a - (b - c); }");
  const auto* f = r.program->find_function("f");
  EXPECT_EQ(print_expr(*f->body->body[0]->as<ExprStmt>()->expr), "a = (a + b) * c");
  EXPECT_EQ(print_expr(*f->body->body[1]->as<ExprStmt>()->expr), "a = a - (b - c)");
}

// All of the paper's figure codes must parse; exact analysis semantics are
// covered by corpus integration tests.
class PaperFigureParse : public ::testing::TestWithParam<const char*> {};

TEST_P(PaperFigureParse, Parses) {
  parse_ok(GetParam());
}

INSTANTIATE_TEST_SUITE_P(
    Figures, PaperFigureParse,
    ::testing::Values(
        // Fig 2 core loop
        R"(int nelt; int mt_to_id[100]; int id_to_mt[100];
           void f() {
             for (int miel = 0; miel < nelt; miel++) {
               int iel = mt_to_id[miel];
               id_to_mt[iel] = miel;
             }
           })",
        // Fig 3 core loop
        R"(int lastrow; int firstrow; int firstcol; int rowstr[101]; int colidx[1000];
           void f() {
             for (int j = 0; j < lastrow - firstrow + 1; j++) {
               for (int k = rowstr[j]; k < rowstr[j+1]; k++) {
                 colidx[k] = colidx[k] - firstcol;
               }
             }
           })",
        // Fig 5 core loop
        R"(int m; int jmatch[100]; int imatch[100];
           void f() {
             for (int i = 0; i < m; i++) {
               if (jmatch[i] >= 0) {
                 imatch[jmatch[i]] = i;
               }
             }
           })",
        // Fig 9 lines 1-15 (index array creation)
        R"(int ROWLEN; int COLUMNLEN; int ind; int index;
           int a[100][100]; int column_number[10000]; double value[10000];
           int rowsize[100]; int rowptr[101];
           void f() {
             for (int i = 0; i < ROWLEN; i++) {
               int count = 0;
               for (int j = 0; j < COLUMNLEN; j++) {
                 if (a[i][j] != 0) {
                   count++;
                   column_number[index++] = j;
                   value[ind++] = a[i][j];
                 }
               }
               rowsize[i] = count;
             }
             rowptr[0] = 0;
             for (int i = 1; i < ROWLEN + 1; i++) {
               rowptr[i] = rowptr[i-1] + rowsize[i-1];
             }
           })"));

}  // namespace
}  // namespace sspar::ast
