#include "runtime/inspector.h"

#include <algorithm>
#include <vector>

namespace sspar::rt {

bool is_nondecreasing(std::span<const int64_t> values) {
  for (size_t i = 1; i < values.size(); ++i) {
    if (values[i] < values[i - 1]) return false;
  }
  return true;
}

namespace {
bool injective_impl(std::span<const int64_t> values, int64_t min_value,
                    int64_t universe_hint) {
  size_t participating = 0;
  int64_t lo = INT64_MAX, hi = INT64_MIN;
  for (int64_t v : values) {
    if (v < min_value) continue;
    ++participating;
    lo = std::min(lo, v);
    hi = std::max(hi, v);
  }
  if (participating <= 1) return true;
  // Span of occupied values, computed in uint64_t: `hi - lo` can exceed
  // INT64_MAX (e.g. values straddling INT64_MIN and INT64_MAX), where a
  // signed `hi - lo + 1` overflows into a zero/negative "span" and an
  // undersized mark vector with out-of-bounds writes.
  uint64_t span = static_cast<uint64_t>(hi) - static_cast<uint64_t>(lo);
  // Mark-vector path while the occupied span fits within
  // max(universe_hint, 4 * size), bounded by a hard allocation cap so a
  // generous hint can never trigger a multi-gigabyte allocation for a
  // handful of values. Everything else falls through to the sort.
  constexpr uint64_t kMarkAllocationCap = uint64_t{1} << 26;  // 64 MiB of marks
  uint64_t limit = static_cast<uint64_t>(values.size()) * 4;
  if (universe_hint > 0) limit = std::max(limit, static_cast<uint64_t>(universe_hint));
  limit = std::min(limit, kMarkAllocationCap);
  if (span < limit) {  // span + 1 slots needed; `<` keeps span + 1 <= limit overflow-free
    std::vector<uint8_t> seen(static_cast<size_t>(span) + 1, 0);
    for (int64_t v : values) {
      if (v < min_value) continue;
      size_t slot = static_cast<size_t>(static_cast<uint64_t>(v) - static_cast<uint64_t>(lo));
      if (seen[slot]) return false;
      seen[slot] = 1;
    }
    return true;
  }
  std::vector<int64_t> sorted;
  sorted.reserve(participating);
  for (int64_t v : values) {
    if (v >= min_value) sorted.push_back(v);
  }
  std::sort(sorted.begin(), sorted.end());
  return std::adjacent_find(sorted.begin(), sorted.end()) == sorted.end();
}
}  // namespace

bool is_injective(std::span<const int64_t> values, int64_t universe_hint) {
  return injective_impl(values, INT64_MIN, universe_hint);
}

bool is_subset_injective(std::span<const int64_t> values, int64_t min_value,
                         int64_t universe_hint) {
  return injective_impl(values, min_value, universe_hint);
}

}  // namespace sspar::rt
