// Run-time index-array property checks (paper Section 4 related work).
//
// Inspector/executor schemes verify index-array properties at run time before
// executing a loop in parallel. The paper's argument against them is the
// inspection overhead on every invocation, which the compile-time approach
// does not pay. These checks back the interpreter's sspar_check_* builtins,
// the runtime half of hybrid (dual-version) verdicts.
#pragma once

#include <cstdint>
#include <span>

namespace sspar::rt {

// O(n) monotonicity check.
bool is_nondecreasing(std::span<const int64_t> values);

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

}  // namespace sspar::rt
