// Glue between the batch driver and the persistent summary store: one
// warm-cache batch run. Both one-shot `sspar-analyze --store` and every
// `--serve` request go through run_with_store, so a daemon response is
// byte-identical to the one-shot report for the same inputs and store state.
#pragma once

#include <vector>

#include "driver/batch_analyzer.h"
#include "store/summary_store.h"

namespace sspar::driver {

// Runs one batch against an optional persistent store:
//
//   1. preload the store's records into a fresh CrossProgramCache (hits on
//      these count as store hits),
//   2. run the batch sharing that cache,
//   3. absorb the cache back (first-writer-wins; hit keys' generations
//      bumped) and commit() — a full flush, or just the fsync'd WAL batch
//      when the store runs in journal mode,
//   4. fill BatchStats::store_loaded/evicted/flushed/journal_replays from
//      the store.
//
// `store` may be null — then this is exactly BatchAnalyzer::run, with no
// shared cache.
BatchReport run_with_store(const std::vector<ProgramInput>& inputs, BatchOptions options,
                           store::SummaryStore* store,
                           const BatchAnalyzer::ReportCallback& on_report = nullptr);

}  // namespace sspar::driver
