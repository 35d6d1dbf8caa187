// Runtime inspector/executor baseline (paper Section 4 related work).
//
// Inspector/executor schemes verify index-array properties at run time before
// executing a loop in parallel. The paper's argument against them is the
// inspection overhead on every invocation, which the compile-time approach
// does not pay. These checks back the interpreter's sspar_check_* builtins,
// the runtime half of hybrid (dual-version) verdicts.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "runtime/thread_pool.h"

namespace sspar::rt {

// O(n) monotonicity checks.
bool is_nondecreasing(std::span<const int64_t> values);
bool is_strictly_increasing(std::span<const int64_t> values);

// Injectivity check. A mark vector (O(n + span)) is used while the occupied
// value span fits within max(universe_hint, 4 * n), bounded by a hard
// allocation cap; otherwise a sort-based check (O(n log n)). `universe_hint`
// is the caller's promise that values fall inside [0, universe) — it widens
// the mark-vector threshold for dense-but-larger-than-4n universes, it never
// shrinks it, and it does not affect the result.
bool is_injective(std::span<const int64_t> values, int64_t universe_hint = -1);

// Injectivity of the subset with values >= min_value (paper Fig. 5).
bool is_subset_injective(std::span<const int64_t> values, int64_t min_value,
                         int64_t universe_hint = -1);

struct InspectionResult {
  bool nondecreasing = false;
  bool strictly_increasing = false;
  bool injective = false;
  double inspection_seconds = 0.0;
};

// Runs all inspections with timing.
InspectionResult inspect(std::span<const int64_t> values, int64_t universe_hint = -1);

// Inspector/executor for the canonical CSR-style loop
//   for r in [0, rows): for k in [ptr[r], ptr[r+1]): body(r, k)
// The inspector verifies that `ptr` is non-decreasing on every invocation;
// if it is, rows are executed in parallel, otherwise serially.
class InspectorExecutor {
 public:
  explicit InspectorExecutor(ThreadPool& pool) : pool_(pool) {}

  // Returns true if the parallel path was taken. Timing of the inspection is
  // accumulated in inspection_seconds().
  template <typename Body>
  bool run_csr(std::span<const int64_t> ptr, const Body& body) {
    auto t0 = clock_now();
    bool monotonic = is_nondecreasing(ptr);
    inspection_seconds_ += seconds_since(t0);
    int64_t rows = static_cast<int64_t>(ptr.size()) - 1;
    // An empty `ptr` gives rows == -1 and a single-element `ptr` gives
    // rows == 0: neither describes any row, so never touch the pool.
    if (rows <= 0) return monotonic;
    if (monotonic) {
      pool_.parallel_for(0, rows, [&](int64_t lo, int64_t hi) {
        for (int64_t r = lo; r < hi; ++r) {
          for (int64_t k = ptr[r]; k < ptr[r + 1]; ++k) body(r, k);
        }
      });
    } else {
      for (int64_t r = 0; r < rows; ++r) {
        for (int64_t k = ptr[r]; k < ptr[r + 1]; ++k) body(r, k);
      }
    }
    return monotonic;
  }

  double inspection_seconds() const { return inspection_seconds_; }
  void reset_timing() { inspection_seconds_ = 0.0; }

 private:
  static uint64_t clock_now();
  static double seconds_since(uint64_t t0);

  ThreadPool& pool_;
  double inspection_seconds_ = 0.0;
};

}  // namespace sspar::rt
