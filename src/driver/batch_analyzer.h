// Concurrent batch-analysis driver: runs the staged pipeline
// (pipeline::Session — parse -> analyze -> parallelize -> annotate -> emit)
// over many programs on concurrent lanes and aggregates per-loop verdicts
// into corpus-wide statistics — the paper's Fig. 1 survey numbers as a
// programmatic API.
//
// Each run starts its own lanes: the calling thread plus lanes - 1
// std::jthreads, joined before the run returns. Dispatch is dynamic, largest
// first: the programs are ordered by descending source size (ties keep input
// order), and each lane pulls the next one from a shared cursor as soon as
// it finishes the last, so no lane sits idle while another works through a
// run of large programs.
//
// Results are deterministic: reports come back in input order and every
// aggregate is computed serially from them, so a 1-thread and an 8-thread run
// produce identical output. A malformed program never aborts the batch; it
// yields per-program diagnostics and counts toward `stats.failed`.
//
// Callers that want results as they finish (progress bars, streaming JSON)
// can pass a per-report callback to run(); see BatchAnalyzer::run below.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "core/analyzer.h"
#include "ipa/cross_cache.h"
#include "ipa/summary.h"
#include "pipeline/assumptions.h"
#include "pipeline/session.h"
#include "support/diagnostics.h"
#include "transform/omp_emitter.h"

namespace sspar::driver {

// One program to analyze. `assumptions` declares lower bounds for global
// symbols (problem sizes known to be positive), as in pipeline::Session.
struct ProgramInput {
  std::string name;
  std::string source;
  pipeline::Assumptions assumptions;
};

// Pipeline output for one program. `result.parsed` owns the AST that
// `result.verdicts` point into, so downstream consumers (e.g. the dynamic
// dependence oracle in the differential tests) can keep interrogating loops.
struct ProgramReport {
  std::string name;
  bool ok = false;
  std::string error;  // frontend diagnostics or exception text when !ok
  // Structured diagnostics (stable code + location) live in `result.diags`.
  transform::TranslateResult result;
  // Per-stage wall-clock cost of this program's pipeline run.
  pipeline::SessionStats stages;
  // Interprocedural summary-cache counters of this program's session
  // (computed/hits/context_computed/applications plus this session's
  // cross-program shared_hits/shared_misses; all zero for single-function
  // programs, and the shared ones zero unless BatchOptions::share_with
  // passes a cache). With a shared cache and threads > 1 the shared hit/miss
  // split depends on scheduling, and so do computed, hits and applications:
  // a summary rehydrated from the cross-program cache is neither computed
  // here nor applies its callees' summaries. materialized(),
  // context_computed, shared_requests(), store_hits and scc_summaries are
  // deterministic.
  ipa::SummaryDB::Stats summary_cache;

  // Per-program counts over result.verdicts (all zero when !ok).
  int loops = 0;
  int subscripted = 0;
  int parallel = 0;
  int parallel_subscripted = 0;
  // Coverage classification of every loop: statically parallel, hybrid
  // (dual-version with a runtime inspector check), or serial. The three
  // counters partition `loops`.
  int static_parallel = 0;
  int hybrid_parallel = 0;
  int serial = 0;
};

// Corpus-wide aggregates (the Fig. 1 survey as numbers).
struct BatchStats {
  int programs = 0;
  int failed = 0;
  int loops = 0;
  int subscripted = 0;
  int parallel = 0;
  int parallel_subscripted = 0;
  int annotated = 0;
  // Coverage partition of `loops` across the whole corpus: statically
  // parallel / hybrid inspector–executor dual-version / serial. Deterministic
  // at any thread count, like every other aggregate.
  int static_parallel = 0;
  int hybrid_parallel = 0;
  int serial = 0;
  // Programs containing >= 1 parallel loop with a subscripted subscript.
  int programs_with_pattern = 0;
  // Interprocedural summary-cache totals across all program sessions.
  // summaries_computed counts materialized summaries and is deterministic.
  // With a shared cache (BatchOptions::share_with), summary_cache_hits and
  // summary_applications follow the cross-cache hit/miss split, so with
  // threads > 1 they depend on scheduling; they are reported but left out
  // of operator==. Without one they are deterministic too.
  int summaries_computed = 0;
  int summary_cache_hits = 0;
  int summary_applications = 0;
  // Context-sensitive re-summaries (entry-fact fingerprint != 0).
  int summary_context_computed = 0;
  // Cross-program shared-cache totals, both 0 unless BatchOptions::share_with
  // passes a cache. Both are deterministic for a fixed input set at ANY
  // thread count: each session performs a fixed number of shared lookups,
  // and the set of unique content keys does not depend on scheduling (only
  // the hit/miss split does — that split lives in BatchReport::shared_cache
  // and per-program summary_cache, outside this equality).
  int cross_summary_requests = 0;  // shared lookups across all sessions
  int cross_summary_entries = 0;   // unique content keys cached at end of run
  // SCC-member (recursive-function) summaries materialized across all
  // sessions — covered by the store since SCCs gained combined content keys.
  int summary_scc = 0;
  // Persistent-store (store::SummaryStore) counters. All deterministic for a
  // fixed input set AND store state: a preloaded key is present before any
  // session runs, so scheduling cannot flip its lookups between hit and
  // miss. store_loaded/evicted/flushed are filled by the store orchestrator
  // (CLI / server) via apply_store_stats; hits/misses aggregate from the
  // per-session SummaryDB counters.
  int store_loaded = 0;   // records read from disk at open
  int store_hits = 0;     // shared lookups served by a preloaded entry
  int store_misses = 0;   // shared lookups the store could not serve
  int store_evicted = 0;  // records dropped by the size cap at flush
  int store_flushed = 0;  // records written by the last flush
  // WAL records replayed when the store opened (JSON
  // `stats.resilience.journal_replays`). Fixed by the store state the run
  // opened with, so deterministic and inside operator==. The server's
  // cumulative shed/timed_out/recovered totals live in its `stats` method
  // response, outside report equality.
  int journal_replays = 0;
  // Enabling-property histogram over parallel subscripted-subscript loops,
  // keyed by core::property_name(verdict.property).
  std::map<std::string, int> property_counts;

  bool operator==(const BatchStats& other) const;
};

struct BatchReport {
  std::vector<ProgramReport> programs;  // in input order
  BatchStats stats;
  // Raw counters of the cache passed in BatchOptions::share_with, all zero
  // without one. lookups/entries are deterministic; the hit/miss split can
  // vary with scheduling when sessions race on one key — never the
  // verdicts, which are identical either way.
  ipa::CrossProgramCache::Stats shared_cache;
};

struct BatchOptions {
  // Total degree of parallelism, including the calling thread. The contract:
  //   0  -> std::thread::hardware_concurrency(), i.e. one lane per logical
  //         core; when the hardware cannot be queried (the standard allows
  //         hardware_concurrency() == 0) the analyzer falls back to 2 so the
  //         concurrent path is still exercised;
  //   1  -> run serially on the calling thread, in input order (no extra
  //         threads);
  //   N  -> min(N, number of inputs) lanes, the calling thread among them,
  //         pulling programs largest first (see the top of this file).
  //         threads() reports N itself; only the lane count is capped.
  // Verdicts and aggregates are deterministic for every setting.
  unsigned threads = 0;
  core::AnalyzerOptions analyzer;
  // A content-addressed summary cache (ipa::CrossProgramCache) shared by
  // every program session of a run, and by every run given the same cache:
  // sessions rehydrate byte-identical helper summaries instead of
  // re-deriving them, and entries preloaded from a store::SummaryStore
  // count as store hits. run_with_store passes one. When null (the
  // default), each session keeps its summaries to itself and pays for no
  // content keys or portable conversion; at the corpus's hit ratios that is
  // the faster choice. Verdicts are identical with or without sharing. The
  // caller keeps ownership and must keep the cache alive for the duration
  // of run().
  ipa::CrossProgramCache* share_with = nullptr;
};

class BatchAnalyzer {
 public:
  // Invoked once per finished program, in COMPLETION order (not input
  // order — aggregation stays input-ordered and deterministic regardless).
  // Calls are serialized by the analyzer; the reference is only valid for
  // the duration of the call with threads > 1.
  using ReportCallback = std::function<void(const ProgramReport&)>;

  explicit BatchAnalyzer(BatchOptions options = {});

  // Analyzes all inputs concurrently, sharing summaries through
  // options.share_with when it is set; never throws for bad input programs.
  // `on_report`, if given, streams each report as it completes. An
  // exception thrown by `on_report` stops the run and propagates to the
  // caller after every lane has joined.
  BatchReport run(const std::vector<ProgramInput>& inputs,
                  const ReportCallback& on_report = nullptr) const;

  // The resolved thread count (0 replaced by the hardware's); a run uses at
  // most this many lanes, and no more lanes than it has inputs.
  unsigned threads() const { return threads_; }

  // The whole benchmark corpus (corpus::all_entries()) as batch inputs.
  static std::vector<ProgramInput> corpus_inputs();

  // Serial aggregation in input order; exposed for tests.
  static BatchStats aggregate(const std::vector<ProgramReport>& programs);

 private:
  BatchOptions options_;
  unsigned threads_;
};

}  // namespace sspar::driver
