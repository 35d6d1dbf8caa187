#include "driver/store_session.h"

namespace sspar::driver {

BatchReport run_with_store(const std::vector<ProgramInput>& inputs, BatchOptions options,
                           store::SummaryStore* store,
                           const BatchAnalyzer::ReportCallback& on_report) {
  ipa::CrossProgramCache cache;
  size_t preloaded = 0;
  if (store) {
    preloaded = store->preload(cache);
    options.share_with = &cache;
  }
  BatchAnalyzer analyzer(options);
  BatchReport report = analyzer.run(inputs, on_report);
  if (store) {
    store->absorb(cache);
    // commit(), not flush(): in journal mode the absorb's fsync'd WAL batch
    // already made the run durable, so the O(store) rewrite is deferred to a
    // checkpoint trigger.
    store->commit();
    const store::SummaryStore::Stats s = store->stats();
    report.stats.store_loaded = static_cast<int>(preloaded);
    report.stats.store_evicted = static_cast<int>(s.evicted);
    report.stats.store_flushed = static_cast<int>(s.flushed);
    report.stats.journal_replays = static_cast<int>(s.journal_replayed);
  }
  return report;
}

}  // namespace sspar::driver
