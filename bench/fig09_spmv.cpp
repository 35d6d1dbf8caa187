// Experiment E4 — the paper's Fig. 9 kernel (CSR-style product over rowptr
// ranges) end to end: the analysis proves the loop parallel at compile time,
// and this bench measures the speedup that proof unlocks across thread
// counts and problem sizes.
#include <chrono>
#include <cstdio>

#include "kernels/pattern_kernels.h"
#include "support/text.h"
#include "pipeline/session.h"

using namespace sspar;

namespace {
double time_seconds(const std::function<void()>& fn, int repeats) {
  auto t0 = std::chrono::steady_clock::now();
  for (int r = 0; r < repeats; ++r) fn();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count() /
         repeats;
}
}  // namespace

int main() {
  // First: show that the compile-time pipeline actually proves the loop.
  std::printf("Fig. 9 product kernel — compile-time verdict and runtime speedup\n\n");

  pipeline::Session session(R"(
    int ROWS;
    int rowptr[100001];
    double value[1000000];
    double vec[1000000];
    double product[1000000];
    int rowsize[100000];
    void f(void) {
      for (int i = 0; i < ROWS; i++) {
        rowsize[i] = (i % 3 == 0) ? 2 : 1;
      }
      rowptr[0] = 0;
      for (int i = 1; i < ROWS + 1; i++) {
        rowptr[i] = rowptr[i-1] + rowsize[i-1];
      }
      for (int i = 0; i < ROWS; i++) {
        for (int j = rowptr[i]; j < rowptr[i+1]; j++) {
          product[j] = value[j] * vec[j];
        }
      }
    }
  )",
                            {{"ROWS", 1}});
  const auto* verdicts = session.parallelize();
  if (!verdicts) {
    std::fprintf(stderr, "%s", session.diagnostics().dump().c_str());
    return 1;
  }
  for (const auto& v : *verdicts) {
    if (v.parallel && v.uses_subscripted_subscripts) {
      std::printf("compile-time: loop %d parallel — %s\n", v.loop_id, v.reason.c_str());
    }
  }
  std::printf("\n");

  std::vector<std::vector<std::string>> rows;
  rows.push_back({"rows", "avg row", "nnz", "serial[ms]", "T=2", "T=4", "T=6", "T=8"});
  for (int64_t n : {20'000, 200'000, 2'000'000}) {
    auto kernel = kern::RowRangeProduct::random(n, 8, 42);
    int repeats = n >= 2'000'000 ? 3 : 10;
    double serial = time_seconds([&] { kernel.run_serial(); }, repeats);
    std::vector<std::string> row = {
        std::to_string(n), "8", std::to_string(kernel.rowptr.back()),
        support::format("%.2f", serial * 1e3)};
    for (unsigned t : {2u, 4u, 6u, 8u}) {
      rt::ThreadPool pool(t);
      double parallel = time_seconds([&] { kernel.run_parallel(pool); }, repeats);
      row.push_back(support::format("%.2fx", serial / parallel));
    }
    rows.push_back(row);
  }
  std::printf("%s\n", support::render_table(rows).c_str());
  return 0;
}
