#include <gtest/gtest.h>

#include <atomic>
#include <numeric>

#include "runtime/inspector.h"
#include "runtime/thread_pool.h"

namespace sspar::rt {
namespace {

TEST(ThreadPool, SingleThreadDegeneratesToSerial) {
  ThreadPool pool(1);
  std::vector<int> data(100, 0);
  pool.parallel_for(0, 100, [&](int64_t lo, int64_t hi) {
    for (int64_t i = lo; i < hi; ++i) data[static_cast<size_t>(i)] = static_cast<int>(i);
  });
  for (int i = 0; i < 100; ++i) EXPECT_EQ(data[static_cast<size_t>(i)], i);
}

TEST(ThreadPool, CoversWholeRangeExactlyOnce) {
  for (unsigned threads : {2u, 4u, 7u}) {
    ThreadPool pool(threads);
    std::vector<std::atomic<int>> hits(1000);
    for (auto& h : hits) h = 0;
    pool.parallel_for(0, 1000, [&](int64_t lo, int64_t hi) {
      for (int64_t i = lo; i < hi; ++i) hits[static_cast<size_t>(i)]++;
    });
    for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
  }
}

TEST(ThreadPool, EmptyAndTinyRanges) {
  ThreadPool pool(8);
  int calls = 0;
  pool.parallel_for(5, 5, [&](int64_t, int64_t) { ++calls; });
  EXPECT_EQ(calls, 0);
  std::atomic<int64_t> sum{0};
  pool.parallel_for(0, 3, [&](int64_t lo, int64_t hi) {
    for (int64_t i = lo; i < hi; ++i) sum += i;
  });
  EXPECT_EQ(sum.load(), 3);
}

TEST(ThreadPool, ReduceMatchesSerialSum) {
  ThreadPool pool(6);
  std::vector<double> v(10007);
  for (size_t i = 0; i < v.size(); ++i) v[i] = static_cast<double>(i % 13) * 0.5;
  double serial = std::accumulate(v.begin(), v.end(), 0.0);
  double parallel = pool.parallel_reduce(0, static_cast<int64_t>(v.size()),
                                         [&](int64_t lo, int64_t hi) {
                                           double s = 0.0;
                                           for (int64_t i = lo; i < hi; ++i) s += v[static_cast<size_t>(i)];
                                           return s;
                                         });
  EXPECT_NEAR(serial, parallel, 1e-9);
}

TEST(ThreadPool, ReduceAddsPartialsInChunkOrder) {
  // One element per chunk at 4 threads. Floating-point addition does not
  // associate here: in chunk order ((1e16 + 1) - 1e16) + 1 == 1, while an
  // order decided by which lane finishes first can give 0 or 2.
  const std::vector<double> v = {1e16, 1.0, -1e16, 1.0};
  double ordered = 0.0;
  for (double x : v) ordered += x;
  ASSERT_EQ(ordered, 1.0);
  ThreadPool pool(4);
  for (int round = 0; round < 200; ++round) {
    double got = pool.parallel_reduce(0, static_cast<int64_t>(v.size()),
                                      [&](int64_t lo, int64_t hi) {
                                        double s = 0.0;
                                        for (int64_t i = lo; i < hi; ++i) s += v[static_cast<size_t>(i)];
                                        return s;
                                      });
    ASSERT_EQ(got, ordered) << "round " << round;
  }
}

TEST(ThreadPool, ManySequentialJobs) {
  ThreadPool pool(4);
  std::atomic<int64_t> total{0};
  for (int round = 0; round < 200; ++round) {
    pool.parallel_for(0, 64, [&](int64_t lo, int64_t hi) { total += hi - lo; });
  }
  EXPECT_EQ(total.load(), 200 * 64);
}

TEST(Inspector, Monotonicity) {
  EXPECT_TRUE(is_nondecreasing(std::vector<int64_t>{0, 0, 1, 5, 5}));
  EXPECT_FALSE(is_nondecreasing(std::vector<int64_t>{0, 2, 1}));
  EXPECT_TRUE(is_strictly_increasing(std::vector<int64_t>{1, 2, 9}));
  EXPECT_FALSE(is_strictly_increasing(std::vector<int64_t>{1, 1, 2}));
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

TEST(Inspector, InspectionReportsAllProperties) {
  auto result = inspect(std::vector<int64_t>{0, 2, 4, 9});
  EXPECT_TRUE(result.nondecreasing);
  EXPECT_TRUE(result.strictly_increasing);
  EXPECT_TRUE(result.injective);
  EXPECT_GE(result.inspection_seconds, 0.0);
}

TEST(InspectorExecutor, ParallelPathOnMonotonicPtr) {
  ThreadPool pool(4);
  InspectorExecutor ie(pool);
  std::vector<int64_t> ptr = {0, 2, 2, 5, 9};
  std::vector<int64_t> touched(9, 0);
  bool parallel = ie.run_csr(ptr, [&](int64_t, int64_t k) { touched[static_cast<size_t>(k)]++; });
  EXPECT_TRUE(parallel);
  for (int64_t t : touched) EXPECT_EQ(t, 1);
  EXPECT_GT(ie.inspection_seconds(), 0.0);
}

TEST(InspectorExecutor, SerialFallbackOnBrokenPtr) {
  ThreadPool pool(4);
  InspectorExecutor ie(pool);
  std::vector<int64_t> ptr = {0, 5, 3, 6};  // not monotonic
  std::atomic<int> count{0};
  bool parallel = ie.run_csr(ptr, [&](int64_t, int64_t) { count++; });
  EXPECT_FALSE(parallel);
  // The serial path must still execute every (r, k) pair: rows 0 and 2 have
  // nonempty ranges ([0,5) and [3,6)), row 1's range [5,3) is empty.
  EXPECT_EQ(count.load(), 8);
}

TEST(InspectorExecutor, EmptyPtrDoesNotInvokePool) {
  ThreadPool pool(4);
  InspectorExecutor ie(pool);
  std::atomic<int> calls{0};
  // rows == -1: there is no row to execute and the pool must not be entered.
  bool parallel = ie.run_csr(std::span<const int64_t>{}, [&](int64_t, int64_t) { calls++; });
  EXPECT_TRUE(parallel);  // vacuously monotonic
  EXPECT_EQ(calls.load(), 0);
}

TEST(InspectorExecutor, SingleElementPtrHasNoRows) {
  ThreadPool pool(4);
  InspectorExecutor ie(pool);
  std::vector<int64_t> ptr = {5};  // rows == 0
  std::atomic<int> calls{0};
  bool parallel = ie.run_csr(ptr, [&](int64_t, int64_t) { calls++; });
  EXPECT_TRUE(parallel);
  EXPECT_EQ(calls.load(), 0);
}

TEST(InspectorExecutor, InspectionSecondsAccumulateAcrossInvocations) {
  ThreadPool pool(2);
  InspectorExecutor ie(pool);
  std::vector<int64_t> ptr(4097);
  for (size_t i = 0; i < ptr.size(); ++i) ptr[i] = static_cast<int64_t>(i * 2);
  std::atomic<int64_t> sink{0};
  ie.run_csr(ptr, [&](int64_t, int64_t k) { sink += k; });
  double after_first = ie.inspection_seconds();
  EXPECT_GT(after_first, 0.0);
  ie.run_csr(ptr, [&](int64_t, int64_t k) { sink += k; });
  EXPECT_GE(ie.inspection_seconds(), after_first);
  ie.reset_timing();
  EXPECT_EQ(ie.inspection_seconds(), 0.0);
}

}  // namespace
}  // namespace sspar::rt
