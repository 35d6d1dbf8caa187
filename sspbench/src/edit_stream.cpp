// edit-stream: one open_session, then a seeded stream of `update` requests
// (emit: true) to an in-process AnalysisServer over a Unix socket, backed by
// a journaled summary store — the interactive editor path.
#include <cstdio>
#include <filesystem>
#include <memory>
#include <optional>

#include "gen.h"
#include "incremental/incremental_engine.h"
#include "server/analysis_server.h"
#include "server/client.h"
#include "server/protocol.h"
#include "store/summary_store.h"
#include "workloads.h"

namespace sspbench {

namespace {

namespace fs = std::filesystem;
using sspar::support::json::Value;

constexpr int kBlocks = 128;
constexpr int64_t kRound = 32;  // edits per round of the fixed mix
// The session's caches grow with every new version, so its memory is read
// after a fixed number of updates rather than after a fixed time.
constexpr int64_t kRssAfter = 256;
const char* const kSession = "edit";
// Set-ups per run; setup_s is their median. One set-up takes under 0.1 s,
// so many are cheap, and their median no longer follows the few slow ones.
constexpr int kSetups = 25;

// Members are destroyed in reverse order: client, then server, then store.
struct Editor {
  explicit Editor(uint64_t seed) : stream(seed, kBlocks) {}
  EditStream stream;
  std::string dir;
  std::unique_ptr<sspar::store::SummaryStore> store;
  std::unique_ptr<sspar::server::AnalysisServer> server;
  sspar::server::Client client;
};

bool request_ok(const std::optional<Value>& response) {
  const Value* ok = response ? response->find("ok") : nullptr;
  return ok != nullptr && ok->as_bool();
}

const Value* update_of(const std::optional<Value>& response) {
  return request_ok(response) ? response->find("update") : nullptr;
}

// Set-up: generate the stream, open the store, start the server, connect,
// open the session, and apply the base version (a cold analysis).
std::unique_ptr<Editor> open_editor(const RunConfig& config, int index, std::string* error) {
  auto e = std::make_unique<Editor>(config.seed);
  e->dir = config.workdir + "/edit" + std::to_string(index);
  fs::create_directories(e->dir);
  sspar::store::StoreOptions store_options;
  store_options.journal = true;
  e->store = std::make_unique<sspar::store::SummaryStore>(e->dir + "/summaries.store",
                                                           store_options);
  e->store->open();
  sspar::server::ServerOptions options;
  options.socket_path = e->dir + "/s.sock";
  options.threads = 1;
  options.store = e->store.get();
  e->server = std::make_unique<sspar::server::AnalysisServer>(options);
  if (!e->server->start(error)) return nullptr;
  if (!e->client.connect(options.socket_path, error)) return nullptr;
  sspar::pipeline::Assumptions assumptions(e->stream.assumptions());
  if (!request_ok(e->client.request(
          sspar::server::make_open_session_request(kSession, assumptions), error))) {
    if (error->empty()) *error = "open_session refused";
    return nullptr;
  }
  const std::optional<Value> response = e->client.request(
      sspar::server::make_update_request(kSession, e->stream.base(), true), error);
  const Value* base = update_of(response);
  if (base == nullptr || !base->find("ok")->as_bool()) {
    if (error->empty()) *error = "the base version did not analyze";
    return nullptr;
  }
  return e;
}

void close_editor(std::unique_ptr<Editor> e) {
  e->client.close();
  e->server->stop();
  const std::string dir = e->dir;
  e.reset();
  std::error_code ec;
  fs::remove_all(dir, ec);
}

}  // namespace

Result run_edit_stream(const RunConfig& config, Trace& trace) {
  Result result;
  std::unique_ptr<Editor> editor;
  std::vector<double> setup_ms;
  for (int s = 0; s < kSetups; ++s) {
    if (editor) close_editor(std::move(editor));
    std::string error;
    const double t0 = now_ms();
    editor = open_editor(config, s, &error);
    setup_ms.push_back(now_ms() - t0);
    if (!editor) {
      std::fprintf(stderr, "sspbench: edit-stream set-up failed: %s\n", error.c_str());
      result.correct = false;
      return result;
    }
  }
  EditStream& stream = editor->stream;
  const sspar::pipeline::Assumptions assumptions(stream.assumptions());

  // Traced run: the same edits replayed in process through a second engine
  // with its own journaled store.
  std::unique_ptr<sspar::store::SummaryStore> replay_store;
  std::unique_ptr<sspar::incremental::IncrementalEngine> replay;
  if (trace.enabled()) {
    sspar::store::StoreOptions store_options;
    store_options.journal = true;
    replay_store = std::make_unique<sspar::store::SummaryStore>(
        editor->dir + "/replay.store", store_options);
    replay_store->open();
    sspar::incremental::EngineOptions engine_options;
    engine_options.assumptions = assumptions;
    engine_options.store = replay_store.get();
    replay = std::make_unique<sspar::incremental::IncrementalEngine>(engine_options);
    replay->update(stream.base());
    replay->flush_store();
  }

  std::vector<double> latency, cold_ms, traced_ms, untraced_ms;
  std::vector<double> overhead, request_bytes, response_bytes;
  std::vector<double> dirty, reanalyzed, reused_verdicts, reused_summaries, lookups;
  double functions = 0.0, reused_functions = 0.0, cache_hits = 0.0, cache_lookups = 0.0;
  double reference_lines = 0.0;
  double rss_mb = 0.0;

  const double start = now_ms();
  for (int64_t op = 0; now_ms() - start < config.seconds * 1000.0; ++op) {
    const Version v = stream.next();
    const std::string line = sspar::server::make_update_request(kSession, v.source, true);
    const bool traced = traced_op(trace, op, kRound);
    const int span = traced ? trace.begin("server.roundtrip", -1, op) : -1;
    const double t0 = now_ms();
    std::optional<Value> response = editor->client.request(line);
    const double ms = now_ms() - t0;
    trace.end(span);
    ++result.attempted;
    latency.push_back(ms);
    (traced ? traced_ms : untraced_ms).push_back(ms);

    // Check: the update's output is byte-identical to a cold analysis of the
    // same version (timed: it is the speedup's baseline); a syntax error
    // fails both ways and the session survives it.
    const Value* update = update_of(response);
    bool ok = update != nullptr && update->find("ok")->as_bool() == v.parses;
    if (ok) {
      sspar::pipeline::Session cold(v.source, assumptions);
      Trace::Scope root(trace, "reference.session", -1, op);
      const double c0 = now_ms();
      try {
        const sspar::pipeline::EmitResult reference = traced_stages(cold, trace, root.id(), op);
        if (v.parses) {
          cold_ms.push_back(now_ms() - c0);
          reference_lines += count_lines(v.source);
          const Value* output = update->find("output");
          ok = reference.ok && output != nullptr && output->as_string() == reference.output;
        } else {
          ok = !reference.ok;
        }
      } catch (const std::exception& e) {
        std::fprintf(stderr, "sspbench: cold analysis of update %lld threw: %s\n",
                     static_cast<long long>(op), e.what());
        ok = false;
      }
    }
    if (!ok) ++result.failed;
    if (op + 1 == kRssAfter) rss_mb = peak_rss_mb();

    if (replay) {
      if (traced && update != nullptr && v.parses) {
        overhead.push_back(ms - update->find("stats")->find("update_ms")->as_double());
        request_bytes.push_back(static_cast<double>(line.size() + 1));
        response_bytes.push_back(static_cast<double>(response->dump().size() + 1));
      }
      const auto before = replay->cache().stats();
      Trace::Scope root(trace, "replay.update", -1, op);
      sspar::incremental::UpdateResult r;
      {
        Trace::Scope s(trace, "incremental.update", root.id(), op);
        r = replay->update(v.source);
      }
      if (r.ok) {
        Trace::Scope s(trace, "store.flush", root.id(), op);
        replay->flush_store();
      }
      if (r.ok) {
        const auto after = replay->cache().stats();
        dirty.push_back(r.stats.dirty);
        reanalyzed.push_back(r.stats.reanalyzed);
        reused_verdicts.push_back(r.stats.reused_verdicts);
        reused_summaries.push_back(r.stats.reused_summaries);
        lookups.push_back(static_cast<double>(after.lookups - before.lookups));
        cache_lookups += static_cast<double>(after.lookups - before.lookups);
        cache_hits += static_cast<double>(after.hits - before.hits);
        functions += r.stats.functions_total;
        reused_functions += r.stats.functions_total - r.stats.reanalyzed;
      }
    }
  }

  auto& m = result.metrics;
  if (!trace.enabled()) {
    m["setup_s"] = median(setup_ms) / 1000.0;
    m["throughput_per_s"] = 1000.0 / trimmed_mean(latency, 0.05);
    m["latency_ms_p50"] = percentile(latency, 0.5);
    m["latency_ms_p90"] = percentile(latency, 0.9);
    m["speedup"] = median(cold_ms) / percentile(latency, 0.5);
    int loops = 0, static_parallel = 0;
    {
      sspar::pipeline::Session base(stream.base(), assumptions);
      for (const auto& v : *base.parallelize()) {
        ++loops;
        static_parallel += v.parallel ? 1 : 0;
      }
    }
    m["static_parallel_share"] = static_cast<double>(static_parallel) / loops;
    m["peak_rss_mb"] = rss_mb > 0.0 ? rss_mb : peak_rss_mb();
  } else {
    const Trace::SelfTimes self = trace.self_times();
    stage_metrics(self, reference_lines, m);
    m["incremental.update_ms"] = Trace::mean_self_ms(self, "incremental.update");
    m["store.flush_ms"] = Trace::mean_self_ms(self, "store.flush");
    m["incremental.dirty"] = mean(dirty);
    m["incremental.reanalyzed"] = mean(reanalyzed);
    m["incremental.reused_verdicts"] = mean(reused_verdicts);
    m["incremental.reused_summaries"] = mean(reused_summaries);
    m["incremental.reuse_ratio"] = functions > 0.0 ? reused_functions / functions : 0.0;
    m["ipa.cross_cache_lookups"] = mean(lookups);
    m["ipa.cross_cache_hit_ratio"] = cache_lookups > 0.0 ? cache_hits / cache_lookups : 0.0;
    m["server.roundtrip_ms"] = Trace::mean_self_ms(self, "server.roundtrip");
    m["server.overhead_ms"] = mean(overhead);
    m["server.request_bytes"] = mean(request_bytes);
    m["server.response_bytes"] = mean(response_bytes);
    m["trace.overhead_ms"] = median(traced_ms) - median(untraced_ms);
    m["trace.spans"] = static_cast<double>(trace.spans().size());
  }
  replay.reset();
  replay_store.reset();
  close_editor(std::move(editor));
  return result;
}

}  // namespace sspbench
