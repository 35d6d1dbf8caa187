#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "runtime/inspector.h"

namespace sspar::rt {
namespace {

TEST(Inspector, Monotonicity) {
  EXPECT_TRUE(is_nondecreasing(std::vector<int64_t>{0, 0, 1, 5, 5}));
  EXPECT_FALSE(is_nondecreasing(std::vector<int64_t>{0, 2, 1}));
  EXPECT_TRUE(is_nondecreasing(std::vector<int64_t>{}));
  EXPECT_TRUE(is_nondecreasing(std::vector<int64_t>{7}));
}

TEST(Inspector, Injectivity) {
  EXPECT_TRUE(is_injective(std::vector<int64_t>{3, 1, 4, 0, 2}));
  EXPECT_FALSE(is_injective(std::vector<int64_t>{3, 1, 3}));
  EXPECT_TRUE(is_injective(std::vector<int64_t>{}));
  // Large sparse values force the sort-based path.
  EXPECT_TRUE(is_injective(std::vector<int64_t>{1'000'000'000, 5, -7}));
  EXPECT_FALSE(is_injective(std::vector<int64_t>{1'000'000'000, 5, 1'000'000'000}));
}

TEST(Inspector, SubsetInjectivity) {
  // Negative sentinels repeat but do not participate.
  EXPECT_TRUE(is_subset_injective(std::vector<int64_t>{-1, 3, -1, 5, -1, 0}, 0));
  EXPECT_FALSE(is_subset_injective(std::vector<int64_t>{-1, 3, 3}, 0));
}

TEST(Inspector, ExtremeValueSpansDoNotOverflow) {
  // Regression: `hi - lo + 1` in int64_t overflows when the values straddle
  // INT64_MIN/INT64_MAX, which used to size the mark vector from a wrapped
  // negative span and write out of bounds.
  EXPECT_TRUE(is_injective(std::vector<int64_t>{INT64_MIN, INT64_MAX}));
  EXPECT_FALSE(is_injective(std::vector<int64_t>{INT64_MIN, INT64_MAX, INT64_MAX}));
  EXPECT_TRUE(is_injective(std::vector<int64_t>{INT64_MIN, 0, INT64_MAX}));
  EXPECT_FALSE(is_injective(std::vector<int64_t>{INT64_MIN, INT64_MIN}));
  // Near-maximal span (0 .. INT64_MAX - 1) must route to the sort.
  EXPECT_TRUE(is_injective(std::vector<int64_t>{0, INT64_MAX - 1}));
  EXPECT_FALSE(is_injective(std::vector<int64_t>{0, INT64_MAX - 1, 0}));
  // Subset injectivity with participating extremes.
  EXPECT_TRUE(is_subset_injective(std::vector<int64_t>{INT64_MIN, 1, INT64_MAX}, 0));
  EXPECT_FALSE(is_subset_injective(std::vector<int64_t>{-5, INT64_MAX, INT64_MAX}, 0));
}

TEST(Inspector, UniverseHintIsBoundedByAllocationCap) {
  // A huge hint used to permit an allocation proportional to the hint even
  // for a handful of values; now it is clamped by a hard cap and large spans
  // fall through to the sort-based check — with identical results.
  EXPECT_TRUE(is_injective(std::vector<int64_t>{0, 1'000'000'000}, 2'000'000'000));
  EXPECT_FALSE(is_injective(std::vector<int64_t>{0, 1'000'000'000, 0}, 2'000'000'000));
  EXPECT_TRUE(is_injective(std::vector<int64_t>{3, 9, 7}, INT64_MAX));
  EXPECT_FALSE(is_injective(std::vector<int64_t>{3, 9, 3}, INT64_MAX));
}

TEST(Inspector, HintSmallerThanSpanStillCorrect) {
  // The hint widens the mark-vector threshold; a hint smaller than the
  // actual span must not change the verdict (dense path still applies via
  // the 4*n default, or the sort path takes over).
  std::vector<int64_t> dense = {0, 5, 3, 9, 1, 7};
  EXPECT_TRUE(is_injective(dense, 2));
  dense.push_back(5);
  EXPECT_FALSE(is_injective(dense, 2));
  // Values outside the hinted universe ([0, 4)) are still handled.
  EXPECT_TRUE(is_injective(std::vector<int64_t>{-100, 2, 200}, 4));
}

}  // namespace
}  // namespace sspar::rt
