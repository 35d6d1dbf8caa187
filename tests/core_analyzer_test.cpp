// Tests for the Phase 1 / Phase 2 index-array analysis against the worked
// example of paper Section 3.5 and related patterns.
#include <gtest/gtest.h>

#include "core/analyzer.h"
#include "frontend/frontend.h"
#include "support/diagnostics.h"

namespace sspar::core {
namespace {

struct Analyzed {
  ast::ParseResult parsed;
  std::unique_ptr<Analyzer> analyzer;

  const ast::FuncDecl* func(const char* name) const {
    return parsed.program->find_function(name);
  }
  const FactDB* end_facts(const char* name) const {
    return analyzer->facts_at_end(func(name));
  }
  sym::SymbolTable& syms() const { return *parsed.symbols; }
  sym::SymbolId sym_of(const char* name) const {
    auto id = parsed.symbols->lookup(name);
    EXPECT_NE(id, sym::kInvalidSymbol) << name;
    return id;
  }
};

Analyzed analyze(const char* source,
                 const std::vector<std::pair<const char*, int64_t>>& assumptions = {},
                 AnalyzerOptions options = {}) {
  Analyzed a;
  support::DiagnosticEngine diags;
  a.parsed = ast::parse_and_resolve(source, diags);
  EXPECT_TRUE(a.parsed.ok) << diags.dump();
  a.analyzer = std::make_unique<Analyzer>(*a.parsed.program, *a.parsed.symbols, options);
  for (const auto& [name, lo] : assumptions) {
    a.analyzer->assume_ge(a.parsed.program->find_global(name), lo);
  }
  a.analyzer->run();
  return a;
}

// The paper's Fig. 9 lines 1-15: index-array creation for CSR-style storage.
const char* kFig9Fill = R"(
  int ROWLEN;
  int COLUMNLEN;
  int ind;
  int index;
  int a[100][100];
  int column_number[10000];
  double value[10000];
  int rowsize[100];
  int rowptr[101];
  void fill() {
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
  }
)";

TEST(Phase2, Fig9RowsizeValueFact) {
  auto a = analyze(kFig9Fill, {{"ROWLEN", 1}, {"COLUMNLEN", 1}});
  const FactDB* facts = a.end_facts("fill");
  ASSERT_NE(facts, nullptr);
  // Paper Section 3.5: rowsize : [0 : ROWLEN-1], [0 : COLUMNLEN]
  // (we use the sound trip-count bound COLUMNLEN where the paper writes
  // COLUMNLEN-1; see DESIGN.md).
  sym::AssumptionContext ctx;
  ctx.assume_ge(a.sym_of("ROWLEN"), 1);
  auto value = facts->elem_value(a.sym_of("rowsize"), sym::make_const(0), ctx);
  ASSERT_TRUE(value.has_value()) << facts->to_string(a.syms());
  ASSERT_TRUE(value->lo_bounded());
  EXPECT_EQ(sym::to_string(value->lo(), a.syms()), "0");
  ASSERT_TRUE(value->hi_bounded());
  EXPECT_EQ(sym::to_string(value->hi(), a.syms()), "COLUMNLEN");
}

TEST(Phase2, Fig9RowptrMonotonicStepFact) {
  auto a = analyze(kFig9Fill, {{"ROWLEN", 1}, {"COLUMNLEN", 1}});
  const FactDB* facts = a.end_facts("fill");
  ASSERT_NE(facts, nullptr);
  // Paper Section 3.5: rowptr : [1 : ROWLEN], Monotonic_inc.
  sym::AssumptionContext ctx;
  ctx.assume_ge(a.sym_of("ROWLEN"), 1);
  auto i = sym::make_sym(a.syms().intern("qi"));
  ctx.assume(a.syms().lookup("qi"), sym::Range::of_consts(1, 1));
  // Difference across one link: rowptr[1] - rowptr[0] in [0 : COLUMNLEN].
  auto diff = facts->elem_diff(a.sym_of("rowptr"), sym::make_const(1), sym::make_const(0), ctx);
  ASSERT_TRUE(diff.has_value()) << facts->to_string(a.syms());
  ASSERT_TRUE(diff->lo_bounded());
  EXPECT_EQ(sym::to_string(diff->lo(), a.syms()), "0");
  (void)i;
}

TEST(Phase2, Fig9RowptrBasePointFact) {
  auto a = analyze(kFig9Fill, {{"ROWLEN", 1}, {"COLUMNLEN", 1}});
  const FactDB* facts = a.end_facts("fill");
  // rowptr[0] = 0 must survive the fill loop (writes go to [1 : ROWLEN]).
  sym::AssumptionContext ctx;
  ctx.assume_ge(a.sym_of("ROWLEN"), 1);
  auto value = facts->elem_value(a.sym_of("rowptr"), sym::make_const(0), ctx);
  ASSERT_TRUE(value.has_value()) << facts->to_string(a.syms());
  EXPECT_TRUE(value->is_exact());
  EXPECT_EQ(sym::to_string(value->exact_value(), a.syms()), "0");
}

TEST(Phase2, IdentityFill) {
  auto a = analyze(R"(
    int n;
    int perm[100];
    void fill() {
      for (int i = 0; i < n; i++) {
        perm[i] = i;
      }
    }
  )", {{"n", 1}});
  const FactDB* facts = a.end_facts("fill");
  sym::AssumptionContext ctx;
  ctx.assume_ge(a.sym_of("n"), 1);
  EXPECT_TRUE(facts->identity_over(a.sym_of("perm"), sym::make_const(0),
                                   sym::sub(sym::make_sym(a.sym_of("n")), sym::make_const(1)),
                                   ctx))
      << facts->to_string(a.syms());
  EXPECT_TRUE(facts->injective_over(a.sym_of("perm"), sym::make_const(0),
                                    sym::sub(sym::make_sym(a.sym_of("n")), sym::make_const(1)),
                                    ctx));
}

TEST(Phase2, GatheredLambdaValueGetsNoStepFact) {
  // idx[k++] = y with y decremented every iteration: the value is λ(y) - 1,
  // which changes per iteration without being affine in i, so no step fact
  // (and certainly no constant one) may describe idx.
  auto a = analyze(R"(
    int n;
    int k;
    int y;
    int idx[100];
    void fill() {
      k = 0;
      y = 0;
      for (int i = 0; i < n; i++) {
        y = y - 1;
        idx[k++] = y;
      }
    }
  )", {{"n", 2}});
  const FactDB* facts = a.end_facts("fill");
  sym::AssumptionContext ctx;
  ctx.assume_ge(a.sym_of("n"), 2);
  EXPECT_FALSE(
      facts->elem_diff(a.sym_of("idx"), sym::make_const(1), sym::make_const(0), ctx).has_value())
      << facts->to_string(a.syms());
}

TEST(Phase2, StrictAffineFillIsInjective) {
  auto a = analyze(R"(
    int n;
    int idx[100];
    void fill() {
      for (int i = 0; i < n; i++) {
        idx[i] = 3 * i + 5;
      }
    }
  )", {{"n", 1}});
  const FactDB* facts = a.end_facts("fill");
  sym::AssumptionContext ctx;
  ctx.assume_ge(a.sym_of("n"), 1);
  auto n = sym::make_sym(a.sym_of("n"));
  EXPECT_TRUE(facts->injective_over(a.sym_of("idx"), sym::make_const(0),
                                    sym::sub(n, sym::make_const(1)), ctx))
      << facts->to_string(a.syms());
  // Value fact: [5 : 3n+2].
  auto value = facts->elem_value(a.sym_of("idx"), sym::make_const(0), ctx);
  ASSERT_TRUE(value.has_value());
  EXPECT_EQ(sym::to_string(value->lo(), a.syms()), "5");
}

TEST(Phase2, DecreasingFill) {
  auto a = analyze(R"(
    int n;
    int idx[100];
    void fill() {
      for (int i = 0; i < n; i++) {
        idx[i] = n - i;
      }
    }
  )", {{"n", 1}});
  const FactDB* facts = a.end_facts("fill");
  sym::AssumptionContext ctx;
  ctx.assume_ge(a.sym_of("n"), 1);
  auto n = sym::make_sym(a.sym_of("n"));
  // Strictly decreasing is still injective.
  EXPECT_TRUE(facts->injective_over(a.sym_of("idx"), sym::make_const(0),
                                    sym::sub(n, sym::make_const(1)), ctx))
      << facts->to_string(a.syms());
}

TEST(Phase2, ConditionalWriteProducesNoValueFact) {
  auto a = analyze(R"(
    int n;
    int flag[100];
    int out[100];
    void fill() {
      for (int i = 0; i < n; i++) {
        if (flag[i] > 0) {
          out[i] = 1;
        }
      }
    }
  )", {{"n", 1}});
  const FactDB* facts = a.end_facts("fill");
  sym::AssumptionContext ctx;
  ctx.assume_ge(a.sym_of("n"), 1);
  EXPECT_FALSE(facts->elem_value(a.sym_of("out"), sym::make_const(0), ctx).has_value())
      << facts->to_string(a.syms());
}

TEST(Phase2, OverwriteKillsFacts) {
  auto a = analyze(R"(
    int n;
    int idx[100];
    void fill() {
      for (int i = 0; i < n; i++) {
        idx[i] = i;
      }
      for (int i = 0; i < n; i++) {
        idx[i] = 7;
      }
    }
  )", {{"n", 1}});
  const FactDB* facts = a.end_facts("fill");
  sym::AssumptionContext ctx;
  ctx.assume_ge(a.sym_of("n"), 1);
  auto n = sym::make_sym(a.sym_of("n"));
  // The identity/injectivity from the first loop must be gone...
  EXPECT_FALSE(facts->injective_over(a.sym_of("idx"), sym::make_const(0),
                                     sym::sub(n, sym::make_const(1)), ctx))
      << facts->to_string(a.syms());
  // ...and replaced by the constant value fact.
  auto value = facts->elem_value(a.sym_of("idx"), sym::make_const(0), ctx);
  ASSERT_TRUE(value.has_value());
  EXPECT_EQ(sym::to_string(value->lo(), a.syms()), "7");
  EXPECT_EQ(sym::to_string(value->hi(), a.syms()), "7");
}

TEST(Phase2, DisjointWritesPreserveFacts) {
  auto a = analyze(R"(
    int n;
    int idx[200];
    void fill() {
      for (int i = 0; i < n; i++) {
        idx[i] = i;
      }
      for (int i = 100; i < 100 + n; i++) {
        idx[i] = 7;
      }
    }
  )", {{"n", 1}});
  // With n <= 100 unknown, the second write [100 : 99+n] cannot be proven
  // disjoint from [0 : n-1], so facts die. Declare n <= 50 via a range.
  support::DiagnosticEngine diags;
  auto parsed = ast::parse_and_resolve(R"(
    int n;
    int idx[200];
    void fill() {
      for (int i = 0; i < n; i++) {
        idx[i] = i;
      }
      for (int i = 100; i < 100 + n; i++) {
        idx[i] = 7;
      }
    }
  )", diags);
  ASSERT_TRUE(parsed.ok);
  Analyzer analyzer(*parsed.program, *parsed.symbols);
  analyzer.assume(parsed.program->find_global("n"),
                  sym::Range::of_consts(1, 50));
  analyzer.run();
  const FactDB* facts = analyzer.facts_at_end(parsed.program->find_function("fill"));
  sym::AssumptionContext ctx;
  ctx.assume(parsed.symbols->lookup("n"), sym::Range::of_consts(1, 50));
  auto n = sym::make_sym(parsed.symbols->lookup("n"));
  EXPECT_TRUE(facts->injective_over(parsed.symbols->lookup("idx"), sym::make_const(0),
                                    sym::sub(n, sym::make_const(1)), ctx))
      << facts->to_string(*parsed.symbols);
}

TEST(Phase2, DensePrefixGatherLoop) {
  // Lin & Padua's "index gathering loop": idx[k++] = 2*i, unconditional.
  auto a = analyze(R"(
    int n;
    int k;
    int idx[100];
    void fill() {
      k = 0;
      for (int i = 0; i < n; i++) {
        idx[k++] = 2 * i;
      }
    }
  )", {{"n", 1}});
  const FactDB* facts = a.end_facts("fill");
  sym::AssumptionContext ctx;
  ctx.assume_ge(a.sym_of("n"), 1);
  auto n = sym::make_sym(a.sym_of("n"));
  EXPECT_TRUE(facts->injective_over(a.sym_of("idx"), sym::make_const(0),
                                    sym::sub(n, sym::make_const(1)), ctx))
      << facts->to_string(a.syms());
  auto value = facts->elem_value(a.sym_of("idx"), sym::make_const(0), ctx);
  ASSERT_TRUE(value.has_value());
  EXPECT_EQ(sym::to_string(value->lo(), a.syms()), "0");
}

TEST(Phase2, InversePermutationRule) {
  auto a = analyze(R"(
    int n;
    int perm[100];
    int inv[100];
    void fill() {
      for (int i = 0; i < n; i++) {
        perm[i] = n - 1 - i;
      }
      for (int i = 0; i < n; i++) {
        inv[perm[i]] = i;
      }
    }
  )", {{"n", 1}});
  const FactDB* facts = a.end_facts("fill");
  sym::AssumptionContext ctx;
  ctx.assume_ge(a.sym_of("n"), 1);
  auto n = sym::make_sym(a.sym_of("n"));
  EXPECT_TRUE(facts->injective_over(a.sym_of("inv"), sym::make_const(0),
                                    sym::sub(n, sym::make_const(1)), ctx))
      << facts->to_string(a.syms());
}

TEST(Phase2, SubsetInjectiveBranchFill) {
  // Fig. 5 fill shape: non-negative branch strictly monotone, else sentinel.
  auto a = analyze(R"(
    int n;
    int flag[100];
    int jmatch[100];
    void fill() {
      for (int i = 0; i < n; i++) {
        if (flag[i] > 0) {
          jmatch[i] = 2 * i;
        } else {
          jmatch[i] = -1;
        }
      }
    }
  )", {{"n", 1}});
  const FactDB* facts = a.end_facts("fill");
  sym::AssumptionContext ctx;
  ctx.assume_ge(a.sym_of("n"), 1);
  auto n = sym::make_sym(a.sym_of("n"));
  std::optional<int64_t> min_value;
  EXPECT_TRUE(facts->injective_over(a.sym_of("jmatch"), sym::make_const(0),
                                    sym::sub(n, sym::make_const(1)), ctx, &min_value))
      << facts->to_string(a.syms());
  ASSERT_TRUE(min_value.has_value());
  EXPECT_EQ(*min_value, 0);
}

TEST(Phase2, DisjointStridedBranchFill) {
  // Fig. 8 shape: 7i+3 vs 7i+5 never collide (offsets differ mod 7).
  auto a = analyze(R"(
    int n;
    int flag[100];
    int dest[1000];
    void fill() {
      for (int i = 0; i < n; i++) {
        if (flag[i] > 0) {
          dest[i] = 7 * i + 3;
        } else {
          dest[i] = 7 * i + 5;
        }
      }
    }
  )", {{"n", 1}});
  const FactDB* facts = a.end_facts("fill");
  sym::AssumptionContext ctx;
  ctx.assume_ge(a.sym_of("n"), 1);
  auto n = sym::make_sym(a.sym_of("n"));
  EXPECT_TRUE(facts->injective_over(a.sym_of("dest"), sym::make_const(0),
                                    sym::sub(n, sym::make_const(1)), ctx))
      << facts->to_string(a.syms());
}

TEST(Phase2, ScalarLambdaAggregation) {
  // count: [λ : λ+1] per iteration over n iterations => [0 : n].
  auto a = analyze(R"(
    int n;
    int total;
    int flag[100];
    int out[100];
    void fill() {
      total = 0;
      for (int i = 0; i < n; i++) {
        if (flag[i] > 0) {
          total = total + 1;
        }
        out[i] = total;
      }
    }
  )", {{"n", 1}});
  const FactDB* facts = a.end_facts("fill");
  sym::AssumptionContext ctx;
  ctx.assume_ge(a.sym_of("n"), 1);
  auto value = facts->elem_value(a.sym_of("out"), sym::make_const(0), ctx);
  ASSERT_TRUE(value.has_value()) << facts->to_string(a.syms());
  EXPECT_EQ(sym::to_string(value->lo(), a.syms()), "0");
  EXPECT_EQ(sym::to_string(value->hi(), a.syms()), "n");
}

TEST(Phase2, LambdaPlusIndexClosedForm) {
  // x += i aggregates to Λ + n(n-1)/2 (paper Section 3.4 advanced case);
  // the value fact on out[0..n-1] proves a non-negative range.
  auto a = analyze(R"(
    int n;
    int x;
    int out[100];
    void fill() {
      x = 0;
      for (int i = 0; i < n; i++) {
        x = x + i;
      }
      for (int i = 0; i < n; i++) {
        out[i] = x;
      }
    }
  )", {{"n", 1}});
  const FactDB* facts = a.end_facts("fill");
  sym::AssumptionContext ctx;
  ctx.assume_ge(a.sym_of("n"), 1);
  auto value = facts->elem_value(a.sym_of("out"), sym::make_const(0), ctx);
  ASSERT_TRUE(value.has_value()) << facts->to_string(a.syms());
  ASSERT_TRUE(value->is_exact());
  // x = sum_{i=0}^{n-1} i = n(n-1)/2 = (n*n - n)/2 in canonical print order.
  EXPECT_EQ(sym::to_string(value->exact_value(), a.syms()), "div(-n + n*n, 2)");
}

TEST(Phase2, RecurrenceWithNegativeStepIsDecreasing) {
  auto a = analyze(R"(
    int n;
    int down[101];
    void fill() {
      down[0] = 1000;
      for (int i = 1; i < n + 1; i++) {
        down[i] = down[i-1] - 2;
      }
    }
  )", {{"n", 1}});
  const FactDB* facts = a.end_facts("fill");
  sym::AssumptionContext ctx;
  ctx.assume_ge(a.sym_of("n"), 1);
  auto diff = facts->elem_diff(a.sym_of("down"), sym::make_const(1), sym::make_const(0), ctx);
  ASSERT_TRUE(diff.has_value()) << facts->to_string(a.syms());
  EXPECT_EQ(sym::to_string(diff->lo(), a.syms()), "-2");
  EXPECT_EQ(sym::to_string(diff->hi(), a.syms()), "-2");
  // Strictly decreasing => injective.
  auto n = sym::make_sym(a.sym_of("n"));
  EXPECT_TRUE(facts->injective_over(a.sym_of("down"), sym::make_const(0), n, ctx));
}

TEST(Phase2, UnanalyzableLoopHavocsFacts) {
  auto a = analyze(R"(
    int n;
    int idx[100];
    void fill() {
      for (int i = 0; i < n; i++) {
        idx[i] = i;
      }
      int i = 0;
      while (i < n) {
        idx[i] = 0;
        i = i + 1;
      }
    }
  )", {{"n", 1}});
  const FactDB* facts = a.end_facts("fill");
  sym::AssumptionContext ctx;
  ctx.assume_ge(a.sym_of("n"), 1);
  auto n = sym::make_sym(a.sym_of("n"));
  EXPECT_FALSE(facts->injective_over(a.sym_of("idx"), sym::make_const(0),
                                     sym::sub(n, sym::make_const(1)), ctx))
      << facts->to_string(a.syms());
}

// Ablation: every extension rule can be switched off and its fact disappears.
TEST(Phase2, AblationRecurrenceRule) {
  AnalyzerOptions opts;
  opts.enable_recurrence_rule = false;
  auto a = analyze(kFig9Fill, {{"ROWLEN", 1}, {"COLUMNLEN", 1}}, opts);
  const FactDB* facts = a.end_facts("fill");
  sym::AssumptionContext ctx;
  ctx.assume_ge(a.sym_of("ROWLEN"), 1);
  EXPECT_FALSE(
      facts->elem_diff(a.sym_of("rowptr"), sym::make_const(1), sym::make_const(0), ctx)
          .has_value());
}

TEST(Phase2, AblationIdentityRule) {
  AnalyzerOptions opts;
  opts.enable_identity_rule = false;
  auto a = analyze(R"(
    int n;
    int perm[100];
    void fill() {
      for (int i = 0; i < n; i++) {
        perm[i] = i;
      }
    }
  )", {{"n", 1}}, opts);
  const FactDB* facts = a.end_facts("fill");
  sym::AssumptionContext ctx;
  ctx.assume_ge(a.sym_of("n"), 1);
  auto n = sym::make_sym(a.sym_of("n"));
  EXPECT_FALSE(facts->identity_over(a.sym_of("perm"), sym::make_const(0),
                                    sym::sub(n, sym::make_const(1)), ctx));
  // The affine rule still catches it as strictly monotonic (coeff 1).
  EXPECT_TRUE(facts->injective_over(a.sym_of("perm"), sym::make_const(0),
                                    sym::sub(n, sym::make_const(1)), ctx));
}

}  // namespace
}  // namespace sspar::core
