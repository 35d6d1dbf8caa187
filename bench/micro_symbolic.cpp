// Micro benchmarks for the symbolic substrate: canonicalization, the prover,
// and the whole-pipeline translation of the Fig. 9 program. These are the
// inner loops of the compile-time analysis whose cost sspbench's batch-cold
// workload measures end to end.
#include <benchmark/benchmark.h>

#include "symbolic/context.h"
#include "pipeline/session.h"

using namespace sspar;

namespace {

void BM_ExprCanonicalize(benchmark::State& state) {
  sym::SymbolTable syms;
  auto i = sym::make_sym(syms.intern("i"));
  auto n = sym::make_sym(syms.intern("n"));
  for (auto _ : state) {
    // (3i + n - 1) - (2i + n) + (i + 1) == 0 after canonicalization.
    auto a = sym::add(sym::mul_const(i, 3), sym::sub(n, sym::make_const(1)));
    auto b = sym::add(sym::mul_const(i, 2), n);
    auto c = sym::add(i, sym::make_const(1));
    auto r = sym::add(sym::sub(a, b), c);
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_ExprCanonicalize);

void BM_ProveWithMonotonicityFact(benchmark::State& state) {
  sym::SymbolTable syms;
  sym::SymbolId i_sym = syms.intern("i");
  sym::SymbolId rowptr = syms.intern("rowptr");
  auto i = sym::make_sym(i_sym);
  sym::AssumptionContext ctx;
  ctx.assume(i_sym, sym::Range::of(sym::make_const(1), nullptr));
  ctx.set_elem_diff([rowptr](sym::SymbolId array, const sym::ExprPtr& hi,
                             const sym::ExprPtr& lo) -> std::optional<sym::Range> {
    if (array != rowptr) return std::nullopt;
    auto d = sym::const_value(sym::sub(hi, lo));
    if (!d || *d < 0) return std::nullopt;
    return sym::Range::of(sym::make_const(0), nullptr);
  });
  auto elem_i = sym::make_array_elem(rowptr, i);
  auto elem_next = sym::make_array_elem(rowptr, sym::add(i, sym::make_const(1)));
  for (auto _ : state) {
    auto verdict = sym::prove_lt(sym::sub(elem_i, sym::make_const(1)), elem_next, ctx);
    benchmark::DoNotOptimize(verdict);
  }
}
BENCHMARK(BM_ProveWithMonotonicityFact);

void BM_SubstIterStart(benchmark::State& state) {
  // The analyzer's hottest rewrite: replacing λ(x) while aggregating a loop
  // body. The arena memoizes on (node, replacement, symbol), so steady-state
  // iterations are a memo hit.
  sym::SymbolTable syms;
  sym::SymbolId x = syms.intern("x");
  auto i = sym::make_sym(syms.intern("i"));
  auto rowptr = syms.intern("rowptr");
  auto e = sym::add(sym::make_array_elem(rowptr, sym::add(sym::make_iter_start(x), i)),
                    sym::mul_const(sym::make_iter_start(x), 3));
  auto repl = sym::add(sym::make_loop_start(x), sym::mul_const(i, 2));
  for (auto _ : state) {
    auto r = sym::subst_iter_start(e, x, repl);
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_SubstIterStart);

void BM_ContainsSymMiss(benchmark::State& state) {
  // Containment misses are the common case during aggregation; the subtree
  // bloom answers without walking.
  sym::SymbolTable syms;
  auto i = sym::make_sym(syms.intern("i"));
  auto n = sym::make_sym(syms.intern("n"));
  sym::SymbolId absent = syms.intern("absent");
  auto e = sym::add(sym::mul(i, n), sym::make_array_elem(syms.intern("a"), i));
  for (auto _ : state) {
    bool r = sym::contains_sym(e, absent);
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_ContainsSymMiss);

const char* kFig9 = R"(
int ROWLEN;
int COLUMNLEN;
int j1;
int rowsize[100];
int rowptr[101];
double value[10000];
double vector[10000];
double product_array[10000];
void f(void) {
  for (int i = 0; i < ROWLEN; i++) {
    rowsize[i] = (i % 3 == 0) ? 2 : 1;
  }
  rowptr[0] = 0;
  for (int i = 1; i < ROWLEN + 1; i++) {
    rowptr[i] = rowptr[i-1] + rowsize[i-1];
  }
  for (int i = 0; i < ROWLEN + 1; i++) {
    if (i == 0) { j1 = i; } else { j1 = rowptr[i-1]; }
    for (int j = j1; j < rowptr[i]; j++) {
      product_array[j] = value[j] * vector[j];
    }
  }
}
)";

void BM_TranslateFig9(benchmark::State& state) {
  for (auto _ : state) {
    pipeline::Session session(kFig9, {{"ROWLEN", 1}, {"COLUMNLEN", 1}});
    session.annotate();
    benchmark::DoNotOptimize(session.emit().output);
  }
}
BENCHMARK(BM_TranslateFig9);

}  // namespace
