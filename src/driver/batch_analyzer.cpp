#include "driver/batch_analyzer.h"

#include <algorithm>
#include <atomic>
#include <exception>
#include <mutex>
#include <numeric>
#include <thread>
#include <vector>

#include "corpus/analysis.h"
#include "corpus/corpus.h"

namespace sspar::driver {

namespace {

unsigned clamp_threads(unsigned requested) {
  if (requested == 0) {
    // 0 means "use the hardware": one lane per logical core. The standard
    // allows hardware_concurrency() to return 0 (unknown); fall back to 2 so
    // the concurrent path is still exercised (verdicts are deterministic
    // either way). See BatchOptions::threads for the full contract.
    unsigned hw = std::thread::hardware_concurrency();
    return hw == 0 ? 2u : hw;
  }
  return requested;
}

ProgramReport analyze_one(const ProgramInput& input, const core::AnalyzerOptions& options,
                          ipa::CrossProgramCache* shared) {
  ProgramReport report;
  report.name = input.name;
  try {
    pipeline::Session session(input.source, input.assumptions);
    session.share_summaries(shared);
    if (session.parse()) {
      session.analyze(options);
      if (const auto* verdicts = session.parallelize()) report.result.verdicts = *verdicts;
      report.result.parallelized = session.annotate();
      report.result.output = session.emit().output;
      report.result.ok = true;
    }
    report.result.diags = session.diagnostics().diagnostics();
    // Canonical (line, column, code) order + dedup: diagnostics compare
    // byte-identical no matter what order the analysis visited functions in
    // (batch shards, incremental dirty cones). The joined string form follows
    // the same order.
    support::canonicalize_diagnostics(report.result.diags);
    report.result.diagnostics.clear();
    for (const support::Diagnostic& d : report.result.diags) {
      report.result.diagnostics += d.to_string();
      report.result.diagnostics += '\n';
    }
    report.summary_cache = session.summaries().stats();
    report.result.parsed = session.take_parse();
    report.stages = session.stats();
  } catch (const std::exception& e) {
    report.error = e.what();
    return report;
  }
  if (!report.result.ok) {
    report.error = report.result.diagnostics.empty() ? "frontend failed"
                                                     : report.result.diagnostics;
    return report;
  }
  for (const auto& v : report.result.verdicts) {
    ++report.loops;
    if (v.uses_subscripted_subscripts) ++report.subscripted;
    if (v.parallel) ++report.parallel;
    if (v.parallel && v.uses_subscripted_subscripts) ++report.parallel_subscripted;
    if (v.parallel) {
      ++report.static_parallel;
    } else if (v.hybrid) {
      ++report.hybrid_parallel;
    } else {
      ++report.serial;
    }
  }
  report.ok = true;
  return report;
}

}  // namespace

// summary_cache_hits and summary_applications are left out: they follow the
// scheduling-dependent cross-cache hit/miss split (see BatchStats).
bool BatchStats::operator==(const BatchStats& other) const {
  return programs == other.programs && failed == other.failed && loops == other.loops &&
         subscripted == other.subscripted && parallel == other.parallel &&
         parallel_subscripted == other.parallel_subscripted && annotated == other.annotated &&
         static_parallel == other.static_parallel &&
         hybrid_parallel == other.hybrid_parallel && serial == other.serial &&
         programs_with_pattern == other.programs_with_pattern &&
         summaries_computed == other.summaries_computed &&
         summary_context_computed == other.summary_context_computed &&
         cross_summary_requests == other.cross_summary_requests &&
         cross_summary_entries == other.cross_summary_entries &&
         summary_scc == other.summary_scc && store_loaded == other.store_loaded &&
         store_hits == other.store_hits && store_misses == other.store_misses &&
         store_evicted == other.store_evicted && store_flushed == other.store_flushed &&
         journal_replays == other.journal_replays &&
         property_counts == other.property_counts;
}

BatchAnalyzer::BatchAnalyzer(BatchOptions options)
    : options_(options), threads_(clamp_threads(options.threads)) {}

BatchReport BatchAnalyzer::run(const std::vector<ProgramInput>& inputs,
                               const ReportCallback& on_report) const {
  BatchReport report;
  report.programs.resize(inputs.size());
  // Sessions share summaries only through a caller-owned cache
  // (options_.share_with), typically warmed from a store::SummaryStore.
  // Without one, each session keeps its own SummaryDB and computes no
  // content keys or portable summaries. Verdicts are identical either way.
  ipa::CrossProgramCache* shared = options_.share_with;
  if (!inputs.empty()) {
    if (threads_ == 1) {
      // threads == 1 means "serial on the calling thread": no lanes, and the
      // streaming callback fires in input order.
      for (size_t i = 0; i < inputs.size(); ++i) {
        report.programs[i] = analyze_one(inputs[i], options_.analyzer, shared);
        if (on_report) on_report(report.programs[i]);
      }
    } else {
      // Longest-processing-time first, with source bytes as the cost proxy:
      // each lane pulls the next-largest program from a shared cursor until
      // none is left. Each program writes only its own input-ordered slot,
      // so the report vector needs no locking and its order never depends
      // on scheduling. Only the streaming callback needs serialization.
      std::vector<size_t> order(inputs.size());
      std::iota(order.begin(), order.end(), size_t{0});
      std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
        return inputs[a].source.size() > inputs[b].source.size();
      });
      std::atomic<size_t> next{0};
      std::mutex callback_mutex;
      // The first exception any lane throws (only the streaming callback
      // can: analyze_one catches its own). It empties the cursor so the
      // other lanes stop, and is rethrown on the calling thread once every
      // lane has joined.
      std::exception_ptr failure;
      auto lane = [&] {
        try {
          for (size_t k = next++; k < order.size(); k = next++) {
            const size_t i = order[k];
            report.programs[i] = analyze_one(inputs[i], options_.analyzer, shared);
            if (on_report) {
              std::lock_guard<std::mutex> lock(callback_mutex);
              on_report(report.programs[i]);
            }
          }
        } catch (...) {
          std::lock_guard<std::mutex> lock(callback_mutex);
          if (!failure) failure = std::current_exception();
          next = order.size();
        }
      };
      {
        // lanes - 1 helper threads plus the calling thread; the helpers
        // join when `helpers` leaves this scope.
        const size_t lanes = std::min<size_t>(threads_, inputs.size());
        std::vector<std::jthread> helpers;
        helpers.reserve(lanes - 1);
        for (size_t l = 1; l < lanes; ++l) helpers.emplace_back(lane);
        lane();
      }
      if (failure) std::rethrow_exception(failure);
    }
  }
  report.stats = aggregate(report.programs);
  if (shared) {
    report.shared_cache = shared->stats();
    // The set of unique content keys is scheduling-independent (every
    // requested-and-missed key gets inserted), so this stays deterministic.
    report.stats.cross_summary_entries = static_cast<int>(shared->size());
  }
  return report;
}

BatchStats BatchAnalyzer::aggregate(const std::vector<ProgramReport>& programs) {
  BatchStats stats;
  for (const ProgramReport& p : programs) {
    ++stats.programs;
    if (!p.ok) {
      ++stats.failed;
      continue;
    }
    stats.loops += p.loops;
    stats.subscripted += p.subscripted;
    stats.parallel += p.parallel;
    stats.parallel_subscripted += p.parallel_subscripted;
    stats.annotated += p.result.parallelized;
    stats.static_parallel += p.static_parallel;
    stats.hybrid_parallel += p.hybrid_parallel;
    stats.serial += p.serial;
    if (p.parallel_subscripted > 0) ++stats.programs_with_pattern;
    // Materialized (computed + rehydrated) rather than raw computes: whether
    // a racing session computed or rehydrated a summary depends on
    // scheduling, the number of summaries it entered into its DB does not.
    stats.summaries_computed += static_cast<int>(p.summary_cache.materialized());
    stats.summary_cache_hits += static_cast<int>(p.summary_cache.hits);
    stats.summary_applications += static_cast<int>(p.summary_cache.applications);
    stats.summary_context_computed += static_cast<int>(p.summary_cache.context_computed);
    stats.cross_summary_requests += static_cast<int>(p.summary_cache.shared_requests());
    stats.summary_scc += static_cast<int>(p.summary_cache.scc_summaries);
    // Hits on preloaded (disk-backed) entries are deterministic: the keys are
    // present before any session runs, so scheduling cannot flip them.
    stats.store_hits += static_cast<int>(p.summary_cache.store_hits);
    stats.store_misses += static_cast<int>(p.summary_cache.store_misses());
    for (const auto& v : p.result.verdicts) {
      if (v.parallel && v.uses_subscripted_subscripts) {
        ++stats.property_counts[core::property_name(v.property)];
      }
    }
  }
  return stats;
}

std::vector<ProgramInput> BatchAnalyzer::corpus_inputs() {
  std::vector<ProgramInput> inputs;
  for (const corpus::Entry& entry : corpus::all_entries()) {
    inputs.push_back(
        ProgramInput{entry.name, entry.source, corpus::analyzer_assumptions(entry)});
  }
  return inputs;
}

}  // namespace sspar::driver
