// Determinism: the batch driver's verdicts and aggregates must not depend on
// the degree of parallelism. Runs the whole corpus with 1 and 8 threads and
// requires bit-identical per-loop verdicts and aggregate statistics.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "driver/batch_analyzer.h"

namespace sspar::driver {
namespace {

struct FlatVerdict {
  std::string program;
  int loop_id;
  bool canonical, parallel, subscripted;
  std::string reason;
  std::vector<std::string> blockers;

  bool operator==(const FlatVerdict& other) const {
    return program == other.program && loop_id == other.loop_id &&
           canonical == other.canonical && parallel == other.parallel &&
           subscripted == other.subscripted && reason == other.reason &&
           blockers == other.blockers;
  }
};

std::vector<FlatVerdict> flatten(const BatchReport& report) {
  std::vector<FlatVerdict> flat;
  for (const ProgramReport& p : report.programs) {
    for (const auto& v : p.result.verdicts) {
      flat.push_back(FlatVerdict{p.name, v.loop_id, v.canonical, v.parallel,
                                 v.uses_subscripted_subscripts, v.reason, v.blockers});
    }
  }
  return flat;
}

TEST(DriverDeterminism, OneThreadAndEightThreadsAgreeOverTheCorpus) {
  auto inputs = BatchAnalyzer::corpus_inputs();

  BatchReport serial = BatchAnalyzer(BatchOptions{1, {}}).run(inputs);
  BatchReport parallel = BatchAnalyzer(BatchOptions{8, {}}).run(inputs);

  ASSERT_EQ(serial.programs.size(), parallel.programs.size());
  for (size_t i = 0; i < serial.programs.size(); ++i) {
    EXPECT_EQ(serial.programs[i].name, parallel.programs[i].name);
    EXPECT_EQ(serial.programs[i].ok, parallel.programs[i].ok);
    EXPECT_EQ(serial.programs[i].result.output, parallel.programs[i].result.output)
        << serial.programs[i].name;
  }

  auto serial_verdicts = flatten(serial);
  auto parallel_verdicts = flatten(parallel);
  ASSERT_EQ(serial_verdicts.size(), parallel_verdicts.size());
  for (size_t i = 0; i < serial_verdicts.size(); ++i) {
    EXPECT_TRUE(serial_verdicts[i] == parallel_verdicts[i])
        << serial_verdicts[i].program << " loop " << serial_verdicts[i].loop_id;
  }

  EXPECT_EQ(serial.stats, parallel.stats);
  // identical aggregate counts, spelled out for readable failures
  EXPECT_EQ(serial.stats.loops, parallel.stats.loops);
  EXPECT_EQ(serial.stats.parallel, parallel.stats.parallel);
  EXPECT_EQ(serial.stats.parallel_subscripted, parallel.stats.parallel_subscripted);
  EXPECT_EQ(serial.stats.property_counts, parallel.stats.property_counts);
}

TEST(DriverDeterminism, RepeatedRunsAreStable) {
  auto inputs = BatchAnalyzer::corpus_inputs();
  BatchAnalyzer analyzer(BatchOptions{4, {}});
  BatchReport first = analyzer.run(inputs);
  BatchReport second = analyzer.run(inputs);
  EXPECT_EQ(first.stats, second.stats);
  EXPECT_TRUE(flatten(first) == flatten(second));
}

// One run whose sessions share a fresh cross-program cache.
BatchReport run_shared(unsigned threads, const std::vector<ProgramInput>& inputs) {
  ipa::CrossProgramCache cache;
  return BatchAnalyzer(BatchOptions{threads, {}, &cache}).run(inputs);
}

// Programs that share a two-level helper chain: h calls g, f calls h. A
// session that computes h's summary applies g's at the call; a session that
// rehydrates h from a shared cross-program cache applies none. Which one a
// session does depends on which lane reaches the key first.
std::vector<ProgramInput> shared_helper_chain_batch() {
  std::vector<ProgramInput> inputs;
  for (int p = 0; p < 32; ++p) {
    std::string source = R"(
      int n;
      int idx[4096];
      int a[4096];
      void g(int i) {
        idx[i] = 2 * i;
      }
      void h(int i) {
        g(i);
        a[idx[i]] = i;
      }
      void f() {
        for (int i = 0; i < n; i++) {
          h(i + )" + std::to_string(p) + R"();
        }
      }
    )";
    inputs.push_back(ProgramInput{"chain" + std::to_string(p), source, {{"n", 1}}});
  }
  return inputs;
}

TEST(DriverDeterminism, SharedHelperChainStatsAgreeAcrossThreadCounts) {
  auto inputs = shared_helper_chain_batch();
  BatchReport serial = run_shared(1, inputs);
  ASSERT_EQ(serial.stats.failed, 0);
  ASSERT_GT(serial.stats.cross_summary_requests, 0);
  for (int run = 0; run < 40; ++run) {
    BatchReport parallel = run_shared(4, inputs);
    ASSERT_EQ(serial.stats, parallel.stats) << "run " << run;
    ASSERT_TRUE(flatten(serial) == flatten(parallel)) << "run " << run;
  }
}

// Without BatchOptions::share_with no session touches a shared cache, so
// even the counters operator== leaves out stop depending on scheduling.
TEST(DriverDeterminism, WithoutASharedCacheEverySummaryCounterIsFixed) {
  for (const auto& inputs : {shared_helper_chain_batch(), BatchAnalyzer::corpus_inputs()}) {
    BatchReport serial = BatchAnalyzer(BatchOptions{1, {}}).run(inputs);
    ASSERT_EQ(serial.stats.failed, 0);
    ASSERT_GT(serial.stats.summary_applications, 0);
    EXPECT_EQ(serial.shared_cache.lookups, 0u);
    EXPECT_EQ(serial.stats.cross_summary_requests, 0);
    for (int run = 0; run < 5; ++run) {
      BatchReport wide = BatchAnalyzer(BatchOptions{8, {}}).run(inputs);
      EXPECT_EQ(wide.shared_cache.lookups, 0u) << "run " << run;
      EXPECT_EQ(serial.stats, wide.stats) << "run " << run;
      EXPECT_EQ(serial.stats.summary_cache_hits, wide.stats.summary_cache_hits)
          << "run " << run;
      EXPECT_EQ(serial.stats.summary_applications, wide.stats.summary_applications)
          << "run " << run;
    }
  }
}

TEST(DriverDeterminism, StatsEqualityIgnoresOnlyTheSchedulingDependentCounters) {
  // summary_cache_hits and summary_applications follow the cross-cache
  // hit/miss split, so two otherwise equal stats compare equal.
  BatchStats scheduled;
  scheduled.summary_cache_hits = 7;
  scheduled.summary_applications = 3;
  EXPECT_EQ(scheduled, BatchStats{});

  // Every other field takes part in the comparison.
  for (int BatchStats::*field :
       {&BatchStats::programs, &BatchStats::failed, &BatchStats::loops,
        &BatchStats::subscripted, &BatchStats::parallel, &BatchStats::parallel_subscripted,
        &BatchStats::annotated, &BatchStats::static_parallel, &BatchStats::hybrid_parallel,
        &BatchStats::serial, &BatchStats::programs_with_pattern,
        &BatchStats::summaries_computed, &BatchStats::summary_context_computed,
        &BatchStats::cross_summary_requests, &BatchStats::cross_summary_entries,
        &BatchStats::summary_scc, &BatchStats::store_loaded, &BatchStats::store_hits,
        &BatchStats::store_misses, &BatchStats::store_evicted, &BatchStats::store_flushed,
        &BatchStats::journal_replays}) {
    BatchStats changed;
    changed.*field = 1;
    EXPECT_FALSE(changed == BatchStats{});
  }
  BatchStats histogram;
  histogram.property_counts["monotonic"] = 1;
  EXPECT_FALSE(histogram == BatchStats{});
}

}  // namespace
}  // namespace sspar::driver
