// Parallelism detection: the extended Range Test (paper Section 5) plus the
// injectivity-based output-dependence tests (paper Section 2).
//
// For a candidate loop the test:
//  1. collects every array access in the body (inner loops flattened to their
//     symbolic access ranges, e.g. k ∈ [rowstr[i] : rowstr[i+1]-1]),
//  2. forms the per-iteration access range U(i) of each written array,
//  3. proves U(i) and U(i+1) disjoint and the bounds monotone in i — array
//     element differences are discharged through the Monotonic step facts
//     derived by the analyzer (rowptr[i] <= rowptr[i+1]),
//  4. falls back to injectivity: a single write a[b[i]] is output-dependence
//     free when b is injective (Fig. 2), or subset-injective with a matching
//     guard (Fig. 5),
//  5. "virtually peels" first-iteration special cases (the if (i == 0) idiom
//     of Fig. 9 / Fig. 4) and proves the peeled iteration disjoint from the
//     rest symbolically — the refinement the paper sketches in Section 5.
//
// Scalars written in the loop must be privatizable (defined before use in
// every iteration); a read of the previous iteration's value (λ-read) is a
// loop-carried dependence and blocks parallelization.
#pragma once

#include <string>
#include <vector>

#include "core/analyzer.h"

namespace sspar::core {

// The property of the index array that made the dependence test succeed
// (paper Section 2's property catalogue). `None` for serial loops.
enum class EnablingProperty {
  None,
  Affine,           // no indirection needed: affine disjoint accesses
  Monotonic,        // monotonic index array ranges (extended Range Test)
  Injective,        // injective index array subscript (Fig. 2)
  SubsetInjective,  // subset-injective with matching guard (Fig. 5)
  AffineInjective,  // injective via a provably nonzero symbolic stride — an
                    // addition beyond the paper's catalogue
};

// Stable lowercase spelling ("affine", "monotonic", "injective",
// "subset-injective", "affine-injective"); empty string for None. Used as the
// histogram key in driver::BatchStats and in the JSON reports.
const char* property_name(EnablingProperty property);

struct LoopVerdict {
  const ast::For* loop = nullptr;
  int loop_id = -1;
  bool canonical = false;
  bool parallel = false;
  // The loop involves subscripted subscripts (directly a[b[i]], or inner loop
  // bounds taken from an index array).
  bool uses_subscripted_subscripts = false;
  // Main enabling property when parallel, plus whether the proof needed to
  // virtually peel the first iteration (Fig. 9 / Fig. 4 idiom).
  EnablingProperty property = EnablingProperty::None;
  bool peeled = false;
  // Human-readable restatement of `property` (+ peeling).
  std::string reason;
  // Interprocedural provenance: names of the functions whose summaries
  // produced the index-array facts this proof consumed ("property proven via
  // summary of f"). Empty for purely intraprocedural proofs, so reasons stay
  // byte-identical with the hand-inlined equivalent. Sorted, unique.
  std::vector<std::string> summaries_used;
  std::vector<std::string> blockers;
  // Scalars to privatize in the OpenMP clause (declared outside the loop).
  std::vector<const ast::VarDecl*> privates;
  // Emitter guidance read off the access ranges' strides (parallel
  // verdicts only): Static when every access range advances by a
  // compile-time-constant stride (uniform, coalesced per-iteration work),
  // Dynamic when access ranges depend on index-array contents (variable
  // inner trip counts, e.g. rowstr[i]..rowstr[i+1]). None when neither is
  // established. Rendered as a provenance comment, never into the pragma.
  enum class ScheduleHint { None, Static, Dynamic };
  ScheduleHint schedule = ScheduleHint::None;
  std::string schedule_reason;
  // Hybrid inspector–executor candidate: the loop stays serial only because a
  // single enabling property of a single index array is statically unproven —
  // re-running the dependence tests under the hypothesis that the property
  // holds clears every blocker. The emitter turns such verdicts into a
  // dual-version loop guarded by the matching sspar::rt runtime check.
  bool hybrid = false;
  EnablingProperty hybrid_property = EnablingProperty::None;
  std::string hybrid_index_array;  // source name of the index array
  int64_t hybrid_min_value = 0;    // participation threshold (SubsetInjective)
  // Inclusive index range of the array section the runtime check must cover,
  // rendered as C expressions over the program's globals.
  std::string hybrid_check_lo;
  std::string hybrid_check_hi;
};

class Parallelizer {
 public:
  explicit Parallelizer(Analyzer& analyzer) : analyzer_(analyzer) {}

  LoopVerdict analyze(const ast::For& loop);

  // Verdicts for every loop of the function, in pre-order.
  std::vector<LoopVerdict> analyze_all(const ast::FuncDecl& function);

 private:
  struct Hypothesis;
  struct HybridScan;
  LoopVerdict analyze_impl(const ast::For& loop, const Hypothesis* hypothesis,
                           HybridScan* scan);

  Analyzer& analyzer_;
};

// True if the loop nest uses subscripted subscripts in the paper's sense.
bool uses_subscripted_subscripts(const ast::For& loop);

}  // namespace sspar::core
