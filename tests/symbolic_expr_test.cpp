#include <gtest/gtest.h>

#include <random>

#include "symbolic/expr.h"

namespace sspar::sym {
namespace {

class ExprTest : public ::testing::Test {
 protected:
  SymbolTable syms;
  SymbolId i = syms.intern("i");
  SymbolId n = syms.intern("n");
  SymbolId a = syms.intern("a");

  ExprPtr I() { return make_sym(i); }
  ExprPtr N() { return make_sym(n); }
  std::string str(const ExprPtr& e) { return to_string(e, syms); }
};

TEST_F(ExprTest, ConstFolding) {
  EXPECT_EQ(str(add(make_const(2), make_const(3))), "5");
  EXPECT_EQ(str(sub(make_const(2), make_const(3))), "-1");
  EXPECT_EQ(str(mul(make_const(4), make_const(-3))), "-12");
}

TEST_F(ExprTest, AdditionCanonicalizes) {
  // i + i == 2*i
  EXPECT_EQ(str(add(I(), I())), "2*i");
  // i - i == 0
  EXPECT_EQ(str(sub(I(), I())), "0");
  // (i + 2) + (n - 2) == i + n
  auto e = add(add(I(), make_const(2)), sub(N(), make_const(2)));
  EXPECT_EQ(str(e), "i + n");
}

TEST_F(ExprTest, StructuralEqualityIsSemanticForAffine) {
  auto e1 = add(mul_const(I(), 3), sub(N(), make_const(1)));
  auto e2 = sub(add(N(), mul_const(I(), 3)), make_const(1));
  EXPECT_TRUE(equal(e1, e2));
  EXPECT_EQ(compare(e1, e2), 0);
  EXPECT_EQ(hash(e1), hash(e2));
}

TEST_F(ExprTest, MulDistributesOverAdd) {
  // (i + 1) * 3 == 3*i + 3
  EXPECT_EQ(str(mul(add(I(), make_const(1)), make_const(3))), "3*i + 3");
  // (i + 1) * (i - 1) == i*i - 1
  auto e = mul(add(I(), make_const(1)), sub(I(), make_const(1)));
  EXPECT_EQ(str(e), "i*i - 1");
}

TEST_F(ExprTest, MulProductsAreSorted) {
  auto e1 = mul(N(), I());
  auto e2 = mul(I(), N());
  EXPECT_TRUE(equal(e1, e2));
}

TEST_F(ExprTest, BottomAbsorbs) {
  EXPECT_TRUE(is_bottom(add(make_bottom(), I())));
  EXPECT_TRUE(is_bottom(mul(I(), make_bottom())));
  EXPECT_TRUE(is_bottom(smin(make_bottom(), I())));
  EXPECT_TRUE(is_bottom(make_array_elem(a, make_bottom())));
}

TEST_F(ExprTest, DivFloorFolding) {
  EXPECT_EQ(str(div_floor(make_const(7), make_const(2))), "3");
  EXPECT_EQ(str(div_floor(make_const(-7), make_const(2))), "-4");
  EXPECT_EQ(str(div_floor(I(), make_const(1))), "i");
  EXPECT_TRUE(is_bottom(div_floor(I(), make_const(0))));
}

TEST_F(ExprTest, ModFolding) {
  EXPECT_EQ(str(mod(make_const(7), make_const(3))), "1");
  EXPECT_EQ(str(mod(make_const(-1), make_const(8))), "7");  // floor-mod
  EXPECT_EQ(str(mod(I(), make_const(1))), "0");
}

TEST_F(ExprTest, MinMaxFolding) {
  EXPECT_EQ(str(smin(make_const(3), make_const(5))), "3");
  EXPECT_EQ(str(smax(make_const(3), make_const(5))), "5");
  EXPECT_EQ(str(smin(I(), I())), "i");
  // min(i, i+3) folds to i via constant difference.
  EXPECT_EQ(str(smin(I(), add(I(), make_const(3)))), "i");
  EXPECT_EQ(str(smax(I(), add(I(), make_const(3)))), "i + 3");
}

TEST_F(ExprTest, MinMaxFlattenAndDedup) {
  auto e = smin(smin(I(), N()), I());
  EXPECT_EQ(str(e), "min(i, n)");
}

TEST_F(ExprTest, ArrayElemPrinting) {
  auto e = make_array_elem(a, sub(I(), make_const(1)));
  EXPECT_EQ(str(e), "a[i - 1]");
}

TEST_F(ExprTest, LambdaPrinting) {
  EXPECT_EQ(str(make_iter_start(i)), "lam.i");
  EXPECT_EQ(str(make_loop_start(i)), "LAM.i");
  EXPECT_EQ(str(make_bottom()), "_|_");
}

TEST_F(ExprTest, LinearFormRoundTrip) {
  auto e = add(mul_const(I(), 3), add(mul_const(make_array_elem(a, I()), -2), make_const(7)));
  LinearForm lf = to_linear(e);
  EXPECT_FALSE(lf.bottom);
  EXPECT_EQ(lf.constant, 7);
  EXPECT_EQ(lf.terms.size(), 2u);
  EXPECT_EQ(lf.coeff_of(I()), 3);
  EXPECT_EQ(lf.coeff_of(make_array_elem(a, I())), -2);
  EXPECT_TRUE(equal(from_linear(lf), e));
}

TEST_F(ExprTest, AffineInSplitsStrideAndRest) {
  auto aff = affine_in(add(mul_const(I(), 7), make_const(5)), i);
  ASSERT_TRUE(aff.has_value());
  EXPECT_EQ(const_value(aff->stride), std::optional<int64_t>(7));
  EXPECT_EQ(const_value(aff->rest), std::optional<int64_t>(5));

  // Index-free terms go to the rest, whatever their shape.
  auto with_n = affine_in(add(I(), mul(N(), make_array_elem(a, N()))), i);
  ASSERT_TRUE(with_n.has_value());
  EXPECT_EQ(str(with_n->stride), "1");
  EXPECT_EQ(str(with_n->rest), str(mul(N(), make_array_elem(a, N()))));

  // A product with the index as a direct factor gives a symbolic stride.
  auto scaled = affine_in(add(add(mul_const(mul(N(), I()), 3), I()), make_const(2)), i);
  ASSERT_TRUE(scaled.has_value());
  EXPECT_TRUE(equal(scaled->stride, add(mul_const(N(), 3), make_const(1))));
  EXPECT_EQ(const_stride(scaled), std::nullopt);
  EXPECT_EQ(const_value(scaled->rest), std::optional<int64_t>(2));
}

TEST_F(ExprTest, AffineInOfAnIndexFreeExpressionIsTheExpression) {
  ExprPtr e = add(mul(N(), make_array_elem(a, N())), make_const(4));
  auto aff = affine_in(e, i);
  ASSERT_TRUE(aff.has_value());
  EXPECT_EQ(aff->stride, make_const(0));
  EXPECT_EQ(aff->rest, e);  // pointer-equal: no rebuild
  EXPECT_EQ(const_stride(affine_in(make_const(4), i)), std::optional<int64_t>(0));
}

TEST_F(ExprTest, AffineInRejectsBottomLambdaAndNonlinearIndex) {
  EXPECT_FALSE(affine_in(nullptr, i).has_value());
  EXPECT_FALSE(affine_in(make_bottom(), i).has_value());
  // λ markers change per iteration on their own, with or without the index.
  EXPECT_FALSE(affine_in(add(make_iter_start(n), I()), i).has_value());
  EXPECT_FALSE(affine_in(make_iter_start(n), i).has_value());
  EXPECT_FALSE(affine_in(mul(I(), I()), i).has_value());
  EXPECT_FALSE(affine_in(mul(mul(I(), I()), N()), i).has_value());
  EXPECT_FALSE(affine_in(mul(I(), make_array_elem(a, I())), i).has_value());
  EXPECT_FALSE(affine_in(make_array_elem(a, I()), i).has_value());
  EXPECT_FALSE(affine_in(div_floor(I(), make_const(2)), i).has_value());
  EXPECT_FALSE(affine_in(mod(I(), N()), i).has_value());
  EXPECT_FALSE(affine_in(smin(I(), N()), i).has_value());
  EXPECT_FALSE(affine_in(smax(I(), N()), i).has_value());
  EXPECT_EQ(const_stride(std::nullopt), std::nullopt);
}

TEST_F(ExprTest, AffineInNestsOverAnOuterIndex) {
  // 4*j + i: the rest over i is 4*j, itself affine over j.
  SymbolId j = syms.intern("j");
  auto inner = affine_in(add(mul_const(make_sym(j), 4), I()), i);
  ASSERT_TRUE(inner.has_value());
  EXPECT_EQ(const_value(inner->stride), std::optional<int64_t>(1));
  auto outer = affine_in(inner->rest, j);
  ASSERT_TRUE(outer.has_value());
  EXPECT_EQ(const_value(outer->stride), std::optional<int64_t>(4));
  EXPECT_EQ(const_value(outer->rest), std::optional<int64_t>(0));
}

// A random expression affine in i: c1*i + c2*m*i + c3*j + c4*q + c5.
class AffineInDifferential : public ExprTest {
 protected:
  SymbolId j = syms.intern("j");
  SymbolId m = syms.intern("m");
  SymbolId q = syms.intern("q");

  ExprPtr random_affine(std::mt19937& rng) {
    std::uniform_int_distribution<int64_t> coeff(-5, 5);
    ExprPtr e = make_const(coeff(rng));
    e = add(e, mul_const(I(), coeff(rng)));
    e = add(e, mul_const(mul(make_sym(m), I()), coeff(rng)));
    e = add(e, mul_const(make_sym(j), coeff(rng)));
    e = add(e, mul_const(make_sym(q), coeff(rng)));
    return e;
  }
};

TEST_F(AffineInDifferential, MatchesSubstitution) {
  // stride * k + rest must be pointer-equal to substituting k for the index:
  // both canonicalize through the same interning arena.
  std::mt19937 rng(20260808);
  for (int trial = 0; trial < 200; ++trial) {
    ExprPtr e = random_affine(rng);
    auto aff = affine_in(e, i);
    ASSERT_TRUE(aff.has_value());
    EXPECT_FALSE(contains_sym(aff->stride, i));
    EXPECT_FALSE(contains_sym(aff->rest, i));
    for (int64_t k = -4; k <= 8; ++k) {
      ExprPtr at_k = add(mul(aff->stride, make_const(k)), aff->rest);
      EXPECT_EQ(at_k, subst_sym(e, i, make_const(k))) << "trial " << trial << " k " << k;
    }
  }
}

TEST_F(AffineInDifferential, MatchesNumericEvaluationOverRandomizedNests) {
  // Concretize every free symbol and compare the numeric value of the view
  // with the original expression across a simulated loop nest (j outer,
  // i inner): the interpreter's-eye view of the subscripts.
  std::mt19937 rng(7);
  std::uniform_int_distribution<int64_t> val(-7, 7);
  for (int trial = 0; trial < 100; ++trial) {
    ExprPtr e = random_affine(rng);
    int64_t mv = val(rng), qv = val(rng);
    auto aff = affine_in(e, i);
    ASSERT_TRUE(aff.has_value());
    for (int64_t jv = 0; jv < 3; ++jv) {
      auto concretize = [&](ExprPtr x) {
        x = subst_sym(x, m, make_const(mv));
        x = subst_sym(x, q, make_const(qv));
        return subst_sym(x, j, make_const(jv));
      };
      ExprPtr stride = concretize(aff->stride);
      ExprPtr rest = concretize(aff->rest);
      for (int64_t iv = 0; iv < 6; ++iv) {
        auto expect = const_value(concretize(subst_sym(e, i, make_const(iv))));
        auto got = const_value(add(mul_const(stride, iv), rest));
        ASSERT_TRUE(expect.has_value());
        ASSERT_TRUE(got.has_value());
        EXPECT_EQ(*got, *expect) << "trial " << trial << " j " << jv << " i " << iv;
      }
    }
  }
}

TEST_F(ExprTest, SubstSym) {
  auto e = add(mul_const(I(), 2), N());
  auto r = subst_sym(e, i, make_const(5));
  EXPECT_EQ(str(r), "n + 10");
}

TEST_F(ExprTest, SubstIterAndLoopStart) {
  SymbolId x = syms.intern("x");
  auto e = add(make_iter_start(x), make_const(1));
  auto r = subst_iter_start(e, x, make_loop_start(x));
  EXPECT_EQ(str(r), "LAM.x + 1");
  r = subst_loop_start(r, x, make_const(0));
  EXPECT_EQ(str(r), "1");
}

TEST_F(ExprTest, SubstInsideArrayElem) {
  auto e = make_array_elem(a, sub(I(), make_const(1)));
  auto r = subst_sym(e, i, add(I(), make_const(1)));
  EXPECT_EQ(str(r), "a[i]");
}

TEST_F(ExprTest, ContainsQueries) {
  auto e = make_array_elem(a, add(I(), make_const(1)));
  EXPECT_TRUE(contains_sym(e, i));
  EXPECT_FALSE(contains_sym(e, n));
  EXPECT_TRUE(contains_kind(e, ExprKind::ArrayElem));
  EXPECT_FALSE(contains_kind(e, ExprKind::Min));
}

TEST_F(ExprTest, CollectArrayElems) {
  SymbolId b = syms.intern("b");
  auto e = add(make_array_elem(a, I()), make_array_elem(b, N()));
  EXPECT_EQ(collect_array_elems(e).size(), 2u);
  EXPECT_EQ(collect_array_elems(e, a).size(), 1u);
  EXPECT_EQ(collect_array_elems(e, a)[0]->symbol, a);
}

TEST_F(ExprTest, PrintingOfNegativeTerms) {
  auto e = sub(make_const(3), mul_const(I(), 2));
  EXPECT_EQ(str(e), "-2*i + 3");
}

// Property-style sweep: add/sub/mul_const agree with direct integer math for
// constant expressions across a parameter grid.
class ExprArithSweep : public ::testing::TestWithParam<std::tuple<int64_t, int64_t>> {};

TEST_P(ExprArithSweep, ConstantsBehaveLikeIntegers) {
  auto [x, y] = GetParam();
  auto ex = make_const(x);
  auto ey = make_const(y);
  EXPECT_EQ(const_value(add(ex, ey)), x + y);
  EXPECT_EQ(const_value(sub(ex, ey)), x - y);
  EXPECT_EQ(const_value(mul(ex, ey)), x * y);
  EXPECT_EQ(const_value(smin(ex, ey)), std::min(x, y));
  EXPECT_EQ(const_value(smax(ex, ey)), std::max(x, y));
  if (y != 0) {
    int64_t q = *const_value(div_floor(ex, ey));
    int64_t r = *const_value(mod(ex, ey));
    EXPECT_EQ(q * y + r, x) << "floor div/mod identity";
    if (y > 0) {
      EXPECT_GE(r, 0);
      EXPECT_LT(r, y);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, ExprArithSweep,
    ::testing::Combine(::testing::Values(-7, -2, -1, 0, 1, 3, 10),
                       ::testing::Values(-5, -1, 0, 1, 2, 8)));

}  // namespace
}  // namespace sspar::sym
