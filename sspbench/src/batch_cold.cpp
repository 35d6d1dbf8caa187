// batch-cold: repeated BatchAnalyzer::run over seeded batches of generated
// programs, each call with a fresh cross-program cache, no store, and one
// lane per CPU — the `sspar-analyze` over-a-codebase path.
#include <optional>

#include "driver/batch_analyzer.h"
#include "gen.h"
#include "pipeline/session.h"
#include "workloads.h"

namespace sspbench {

namespace {

// Sixteen batches, so the p90 batch time sits between the pool's slowest
// batches instead of on the single slowest one (with eight it did, and it
// swung with each seed's worst program order).
constexpr int kPoolBatches = 16;
// An assumed batch size, not a measured one: large enough that every batch
// spans the whole 1-64-block range (one program per log-size slice).
constexpr int kProgramsPerBatch = 32;
// Set-ups per run; setup_s is their median. Each is a full pass over the
// pool (about 0.7 s on 4 cores), so a few slow ones do not move the median.
constexpr int kSetups = 9;

using Batch = std::vector<sspar::driver::ProgramInput>;

std::vector<Batch> make_pool(uint64_t seed) {
  Rng rng(seed);
  std::vector<Batch> pool(kPoolBatches);
  for (Batch& batch : pool) {
    for (Program& p : generate_batch(rng.next(), kProgramsPerBatch)) {
      batch.push_back({std::move(p.name), std::move(p.source), p.assumptions});
    }
  }
  return pool;
}

double stage_ms(const sspar::pipeline::SessionStats& s) {
  return s.parse.total_ms + s.analyze.total_ms + s.parallelize.total_ms +
         s.annotate.total_ms + s.emit.total_ms;
}

// Serial replay of one batch through explicit Session stages, sharing one
// fresh cross-program cache like BatchAnalyzer does.
void replay_stages(const Batch& batch, Trace& trace, double* lines) {
  sspar::ipa::CrossProgramCache cache;
  for (size_t i = 0; i < batch.size(); ++i) {
    const int64_t op = static_cast<int64_t>(i);
    Trace::Scope root(trace, "replay.session", -1, op);
    sspar::pipeline::Session session(batch[i].source, batch[i].assumptions);
    session.share_summaries(&cache);
    traced_stages(session, trace, root.id(), op);
    *lines += count_lines(batch[i].source);
  }
}

// The per-op check: every program's annotated output and diagnostics, and
// the aggregate stats, equal the threads=1 run's. Two summary counters are
// left out of the aggregate comparison: with threads > 1 they follow the
// scheduling-dependent cross-cache hit/miss split (a helper rehydrated from
// the cache applies no callee summaries of its own), although
// BatchStats::operator== includes them.
bool same_outcome(const sspar::driver::BatchReport& got,
                  const sspar::driver::BatchReport& want) {
  if (got.stats.failed != 0 || got.programs.size() != want.programs.size()) return false;
  for (size_t i = 0; i < got.programs.size(); ++i) {
    const auto& g = got.programs[i].result;
    const auto& w = want.programs[i].result;
    if (g.output != w.output || g.diagnostics != w.diagnostics) return false;
  }
  sspar::driver::BatchStats a = got.stats, b = want.stats;
  a.summary_cache_hits = b.summary_cache_hits = 0;
  a.summary_applications = b.summary_applications = 0;
  return a == b;
}

}  // namespace

Result run_batch_cold(const RunConfig& config, Trace& trace) {
  Result result;
  sspar::driver::BatchOptions options;
  options.threads = static_cast<unsigned>(config.lanes);
  const sspar::driver::BatchAnalyzer analyzer(options);
  sspar::driver::BatchOptions serial_options;
  serial_options.threads = 1;
  const sspar::driver::BatchAnalyzer serial(serial_options);

  // Set-up: generate the pool, then one untimed pass over it so lazy
  // allocation and first-touch page faults land here, not in timed calls.
  std::vector<Batch> pool;
  std::vector<double> setup_ms;
  for (int s = 0; s < kSetups; ++s) {
    const double t0 = now_ms();
    pool = make_pool(config.seed);
    for (const Batch& batch : pool) analyzer.run(batch);
    setup_ms.push_back(now_ms() - t0);
  }

  // References: a threads=1 run per pool batch, checked against every
  // parallel run of it. One batch is re-timed at threads=1 after each pass
  // over the pool, so the speedup's two sides see the same machine drift.
  std::vector<std::optional<sspar::driver::BatchReport>> reference(kPoolBatches);
  std::vector<std::vector<double>> serial_ms(kPoolBatches);
  auto time_serial = [&](int b) {
    const double t0 = now_ms();
    sspar::driver::BatchReport report = serial.run(pool[b]);
    serial_ms[b].push_back(now_ms() - t0);
    return report;
  };
  auto ensure_reference = [&](int b) {
    if (!reference[b]) reference[b] = time_serial(b);
  };

  std::vector<std::vector<double>> batch_ms(kPoolBatches);
  std::vector<double> all_ms, traced_ms, untraced_ms;
  // Traced-run accumulators (per operation).
  std::vector<double> lane_use, computed, hits, context, lookups, hit_ratio;
  std::vector<double> n_static, n_hybrid, n_serial, annotated;
  std::vector<bool> replayed(kPoolBatches, false);
  double replay_lines = 0.0;

  const double start = now_ms();
  for (int64_t op = 0; now_ms() - start < config.seconds * 1000.0; ++op) {
    const int b = static_cast<int>(op % kPoolBatches);
    const bool traced = traced_op(trace, op, kPoolBatches);
    const int span = traced ? trace.begin("driver.batch_run", -1, op) : -1;
    const double t0 = now_ms();
    sspar::driver::BatchReport report = analyzer.run(pool[b]);
    const double ms = now_ms() - t0;
    trace.end(span);

    ++result.attempted;
    ensure_reference(b);
    if (!same_outcome(report, *reference[b])) ++result.failed;
    if (b == kPoolBatches - 1 && op >= kPoolBatches) {
      time_serial(static_cast<int>((op / kPoolBatches) % kPoolBatches));
    }
    batch_ms[b].push_back(ms);
    all_ms.push_back(ms);
    (traced ? traced_ms : untraced_ms).push_back(ms);

    if (trace.enabled()) {
      double busy = 0.0;
      for (const auto& p : report.programs) busy += stage_ms(p.stages);
      lane_use.push_back(busy / (config.lanes * ms));
      const sspar::driver::BatchStats& st = report.stats;
      computed.push_back(st.summaries_computed);
      hits.push_back(st.summary_cache_hits);
      context.push_back(st.summary_context_computed);
      lookups.push_back(static_cast<double>(report.shared_cache.lookups));
      if (report.shared_cache.lookups > 0) {
        hit_ratio.push_back(static_cast<double>(report.shared_cache.hits) /
                            static_cast<double>(report.shared_cache.lookups));
      }
      n_static.push_back(st.static_parallel);
      n_hybrid.push_back(st.hybrid_parallel);
      n_serial.push_back(st.serial);
      annotated.push_back(st.annotated);
      if (!replayed[b]) {
        replay_stages(pool[b], trace, &replay_lines);
        replayed[b] = true;
      }
    }
  }
  for (int b = 0; b < kPoolBatches; ++b) ensure_reference(b);

  auto& m = result.metrics;
  if (!trace.enabled()) {
    m["setup_s"] = median(setup_ms) / 1000.0;
    m["latency_ms_p50"] = percentile(all_ms, 0.5);
    m["latency_ms_p90"] = percentile(all_ms, 0.9);
    // One pass over the pool at each batch's median time.
    double programs = 0.0, pass_ms = 0.0, serial_pass_ms = 0.0;
    int loops = 0, static_parallel = 0;
    for (int b = 0; b < kPoolBatches; ++b) {
      loops += reference[b]->stats.loops;
      static_parallel += reference[b]->stats.static_parallel;
      if (batch_ms[b].empty()) continue;
      programs += static_cast<double>(pool[b].size());
      pass_ms += median(batch_ms[b]);
      serial_pass_ms += median(serial_ms[b]);
    }
    m["throughput_per_s"] = programs / (pass_ms / 1000.0);
    m["speedup"] = serial_pass_ms / pass_ms;
    m["static_parallel_share"] = static_cast<double>(static_parallel) / loops;
    m["peak_rss_mb"] = peak_rss_mb();
  } else {
    const Trace::SelfTimes self = trace.self_times();
    auto self_mean = [&](const char* name) { return Trace::mean_self_ms(self, name); };
    stage_metrics(self, replay_lines, m);
    m["driver.batch_run_ms"] = self_mean("driver.batch_run");
    m["driver.lane_utilization"] = mean(lane_use);
    m["ipa.summaries_computed"] = mean(computed);
    m["ipa.summary_hits"] = mean(hits);
    m["ipa.context_computed"] = mean(context);
    m["ipa.cross_cache_lookups"] = mean(lookups);
    m["ipa.cross_cache_hit_ratio"] = mean(hit_ratio);
    m["core.static_parallel"] = mean(n_static);
    m["core.hybrid"] = mean(n_hybrid);
    m["core.serial"] = mean(n_serial);
    m["transform.annotated_loops"] = mean(annotated);
    m["trace.overhead_ms"] = median(traced_ms) - median(untraced_ms);
    m["trace.spans"] = static_cast<double>(trace.spans().size());
  }
  return result;
}

}  // namespace sspbench
