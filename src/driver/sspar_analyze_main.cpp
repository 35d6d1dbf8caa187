// sspar-analyze: batch-analysis CLI over the built-in corpus or user files.
//
//   sspar-analyze                       # analyze the whole benchmark corpus
//   sspar-analyze --suite=npb           # one suite only
//   sspar-analyze --threads=4 --emit    # 4 threads, print annotated sources
//   sspar-analyze --json                # machine-readable report on stdout
//   sspar-analyze --assume n=1 prog.c   # analyze mini-C files instead
//   sspar-analyze --json --store=s.bin  # warm-start from a persistent store
//   sspar-analyze --serve --socket=S    # long-lived analysis daemon
//   sspar-analyze --connect=S --json    # send this run to a daemon instead
//   sspar-analyze --incremental a.c b.c # replay edits through one warm engine
#include <csignal>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "corpus/corpus.h"
#include "driver/batch_analyzer.h"
#include "driver/json_report.h"
#include "driver/store_session.h"
#include "incremental/incremental_engine.h"
#include "server/analysis_server.h"
#include "server/client.h"
#include "server/protocol.h"
#include "store/summary_store.h"

namespace {

using sspar::driver::BatchAnalyzer;
using sspar::driver::BatchOptions;
using sspar::driver::BatchReport;
using sspar::driver::ProgramInput;
using sspar::driver::ProgramReport;

void print_usage(std::ostream& os) {
  os << "usage: sspar-analyze [options] [file.c ...]\n"
        "\n"
        "Analyzes mini-C programs for parallelizable subscripted-subscript\n"
        "loops. With no files, runs over the built-in benchmark corpus.\n"
        "\n"
        "options:\n"
        "  --threads=N      degree of parallelism (default 0 = one lane per\n"
        "                   logical core; 1 = serial on the calling thread)\n"
        "  --suite=NAME     corpus subset: paper | npb | suitesparse\n"
        "  --emit           also print the OpenMP-annotated source\n"
        "  --json           machine-readable JSON report on stdout (verdicts,\n"
        "                   structured diagnostics, per-stage timings, stats)\n"
        "  --quiet          aggregate statistics only\n"
        "  --assume VAR=MIN assume global VAR >= MIN for file inputs (repeatable)\n"
        "\n"
        "persistent store:\n"
        "  --store=PATH     load/save function summaries from a disk store; a\n"
        "                   second run over the same code starts warm\n"
        "  --store-cap=N    max records kept across a flush (default 4096;\n"
        "                   coldest generations evicted first)\n"
        "  --no-store       ignore any --store flag (one-shot cold run)\n"
        "  --journal        crash-safe write-ahead journal: absorbed summaries\n"
        "                   are fsync'd to <store>.journal per run and replayed\n"
        "                   on open; the full store rewrite only happens at\n"
        "                   checkpoints, so a crash loses at most the in-flight\n"
        "                   run's records\n"
        "\n"
        "incremental analysis:\n"
        "  --incremental    treat the file arguments as SUCCESSIVE VERSIONS of\n"
        "                   one program and replay them through a warm\n"
        "                   incremental engine: each update re-analyzes only\n"
        "                   the dirty cone (changed functions + callers) and\n"
        "                   reports the diagnostic delta plus reuse stats;\n"
        "                   verdicts are byte-identical to a cold run of each\n"
        "                   version (composes with --store, --emit, --json)\n"
        "\n"
        "analysis server:\n"
        "  --serve          run as a long-lived daemon answering analyze\n"
        "                   requests over a Unix-domain socket (requires\n"
        "                   --socket; SIGTERM/SIGINT flush the store and exit)\n"
        "  --socket=PATH    the socket path to listen on\n"
        "  --connect=PATH   ship this invocation's inputs to a daemon at PATH\n"
        "                   and print its response (with --json, the report is\n"
        "                   byte-identical to a local --json run against the\n"
        "                   same store state)\n"
        "  --shutdown       with --connect: ask the daemon to exit\n"
        "  --max-sessions=N serve: LRU cap on warm incremental sessions; opening\n"
        "                   past it evicts the least recently used (default 8)\n"
        "  --session-idle-ms=N  serve: purge sessions idle past N ms; later\n"
        "                   requests on them answer E_NO_SESSION (default 0 = keep)\n"
        "\n"
        "resilience (see README \"Resilience & operational limits\"):\n"
        "  --max-connections=N   serve: live-connection cap; excess clients are\n"
        "                   shed with E_OVERLOADED (default 64)\n"
        "  --request-timeout-ms=N  serve: per-request deadline; an analyze past\n"
        "                   it answers E_DEADLINE (default 0 = none)\n"
        "  --timeout-ms=N   connect: client-side connect/read timeout so a hung\n"
        "                   daemon fails fast (default 30000; 0 = wait forever)\n"
        "  --help           this message\n";
}

bool parse_int(const std::string& text, int64_t* value) {
  try {
    size_t consumed = 0;
    *value = std::stoll(text, &consumed);
    return consumed == text.size();
  } catch (const std::exception&) {
    return false;
  }
}

bool parse_suite(const std::string& name, sspar::corpus::Suite* suite) {
  if (name == "paper") {
    *suite = sspar::corpus::Suite::Paper;
  } else if (name == "npb") {
    *suite = sspar::corpus::Suite::NPB;
  } else if (name == "suitesparse") {
    *suite = sspar::corpus::Suite::SuiteSparse;
  } else {
    return false;
  }
  return true;
}

void print_program(const ProgramReport& report, bool emit, std::ostream& os) {
  os << "== " << report.name;
  if (!report.ok) {
    os << "  ERROR\n" << report.error << "\n";
    return;
  }
  os << "  (" << report.loops << " loops, " << report.subscripted << " subscripted, "
     << report.parallel << " parallel, " << report.parallel_subscripted
     << " parallel+subscripted)\n";
  for (const auto& v : report.result.verdicts) {
    os << "  L" << v.loop_id;
    if (v.loop && v.loop->location.valid()) os << " @" << v.loop->location.to_string();
    os << (v.parallel ? "  parallel" : (v.hybrid ? "  hybrid  " : "  serial  "));
    if (v.uses_subscripted_subscripts) os << "  [subscripted]";
    if (v.parallel && !v.reason.empty()) os << "  " << v.reason;
    if (v.hybrid) {
      os << "  runtime check: " << sspar::core::property_name(v.hybrid_property) << " of '"
         << v.hybrid_index_array << "'";
    }
    if (!v.parallel && !v.hybrid && !v.blockers.empty())
      os << "  blockers: " << v.blockers.front();
    os << "\n";
  }
  if (emit) os << "---- annotated source ----\n" << report.result.output << "\n";
}

void print_stats(const BatchReport& report, unsigned threads, std::ostream& os) {
  const auto& s = report.stats;
  os << "== aggregate (" << s.programs << " programs, " << threads << " threads)\n"
     << "  analyzed ok:            " << (s.programs - s.failed) << "\n"
     << "  failed:                 " << s.failed << "\n"
     << "  loops:                  " << s.loops << "\n"
     << "  subscripted loops:      " << s.subscripted << "\n"
     << "  parallel loops:         " << s.parallel << "\n"
     << "  parallel+subscripted:   " << s.parallel_subscripted << "\n"
     << "  loops annotated (omp):  " << s.annotated << "\n"
     << "  coverage:               " << s.static_parallel << " static-parallel, "
     << s.hybrid_parallel << " hybrid, " << s.serial << " serial\n"
     << "  programs with pattern:  " << s.programs_with_pattern << "\n";
  if (s.summaries_computed > 0 || s.summary_applications > 0) {
    os << "  function summaries:     " << s.summaries_computed << " materialized ("
       << s.summary_context_computed << " context-sensitive, " << s.summary_scc
       << " recursive-scc), " << s.summary_cache_hits << " cache hits, "
       << s.summary_applications << " call-site applications\n";
  }
  if (report.shared_cache.lookups > 0) {
    os << "  cross-program cache:    " << report.shared_cache.entries << " entries, "
       << report.shared_cache.hits << "/" << report.shared_cache.lookups
       << " lookups rehydrated\n";
  }
  if (s.store_loaded > 0 || s.store_flushed > 0) {
    os << "  persistent store:       " << s.store_loaded << " loaded, " << s.store_hits
       << " hits, " << s.store_misses << " misses, " << s.store_evicted << " evicted, "
       << s.store_flushed << " flushed\n";
  }
  if (s.journal_replays > 0) {
    os << "  store journal:          " << s.journal_replays << " records replayed at open\n";
  }
  if (!s.property_counts.empty()) {
    os << "  enabling properties:\n";
    for (const auto& [key, count] : s.property_counts) {
      os << "    " << key << ": " << count << "\n";
    }
  }
}

void print_update(const std::string& name, const sspar::incremental::UpdateResult& result,
                  bool emit, std::ostream& os) {
  os << "== update " << name;
  if (!result.ok) {
    os << "  ERROR\n" << result.error << "\n";
    return;
  }
  int parallel = 0;
  for (const auto& v : result.verdicts) {
    if (v.parallel) ++parallel;
  }
  const auto& s = result.stats;
  os << "  (" << result.verdicts.size() << " loops, " << parallel << " parallel)\n"
     << "  functions: " << s.functions_total << " total, " << s.dirty << " dirty, "
     << s.reanalyzed << " re-analyzed\n"
     << "  reused:    " << s.reused_summaries << " summaries, " << s.reused_verdicts
     << " verdicts\n"
     << "  diags:     +" << result.delta.added.size() << " -" << result.delta.removed.size()
     << " =" << result.delta.unchanged << "\n";
  for (const auto& d : result.delta.added) os << "    + " << d.to_string() << "\n";
  for (const auto& d : result.delta.removed) os << "    - " << d.to_string() << "\n";
  if (emit) os << "---- annotated source ----\n" << result.output << "\n";
}

int run_incremental(const std::vector<ProgramInput>& inputs, const BatchOptions& options,
                    sspar::store::SummaryStore* store, bool emit, bool json, bool quiet) {
  sspar::incremental::EngineOptions engine_options;
  engine_options.analyzer = options.analyzer;
  engine_options.store = store;
  if (!inputs.empty()) engine_options.assumptions = inputs.front().assumptions;
  sspar::incremental::IncrementalEngine engine(engine_options);
  int failed = 0;
  sspar::support::json::Array updates_json;
  for (const ProgramInput& input : inputs) {
    sspar::incremental::UpdateResult result = engine.update(input.source);
    if (!result.ok) ++failed;
    if (json) {
      sspar::support::json::Object o;
      o.emplace("name", input.name);
      o.emplace("ok", result.ok);
      if (!result.ok) {
        o.emplace("error", result.error);
      } else {
        int parallel = 0;
        for (const auto& v : result.verdicts) {
          if (v.parallel) ++parallel;
        }
        o.emplace("loops", static_cast<int64_t>(result.verdicts.size()));
        o.emplace("parallel", static_cast<int64_t>(parallel));
        o.emplace("stats", sspar::incremental::to_json(result.stats));
        o.emplace("delta", sspar::incremental::to_json(result.delta));
        if (emit) o.emplace("output", result.output);
      }
      sspar::support::json::Array diags;
      for (const auto& d : result.diagnostics) {
        diags.push_back(sspar::incremental::diagnostic_to_json(d));
      }
      o.emplace("diagnostics", std::move(diags));
      updates_json.push_back(std::move(o));
    } else if (!quiet) {
      print_update(input.name, result, emit, std::cout);
    }
  }
  engine.flush_store();
  if (json) {
    sspar::support::json::Object root;
    sspar::support::json::Object incr;
    incr.emplace("updates", std::move(updates_json));
    incr.emplace("totals", sspar::incremental::to_json(engine.totals()));
    root.emplace("incremental", std::move(incr));
    std::cout << sspar::support::json::Value(std::move(root)).dump(2) << "\n";
  } else {
    const auto& t = engine.totals();
    std::cout << "== incremental totals (" << t.updates << " updates)\n"
              << "  functions seen:     " << t.functions_total << "\n"
              << "  dirty:              " << t.dirty << "\n"
              << "  re-analyzed:        " << t.reanalyzed << "\n"
              << "  reused summaries:   " << t.reused_summaries << "\n"
              << "  reused verdicts:    " << t.reused_verdicts << "\n"
              << "  dirty-cone ratio:   " << t.dirty_cone_ratio() << "\n";
  }
  return failed == 0 ? 0 : 1;
}

sspar::server::AnalysisServer* g_server = nullptr;

void handle_signal(int) {
  // Async-signal-safe: request_stop only write()s to the server's self-pipe;
  // the orderly shutdown (join + store flush) runs on the main thread.
  if (g_server != nullptr) g_server->request_stop();
}

int run_serve(const BatchOptions& options, const std::string& socket_path,
              sspar::store::SummaryStore* store, int64_t max_connections,
              int64_t request_timeout_ms, int64_t max_sessions,
              int64_t session_idle_ms) {
  sspar::server::ServerOptions server_options;
  server_options.socket_path = socket_path;
  server_options.threads = options.threads;
  server_options.analyzer = options.analyzer;
  server_options.store = store;
  server_options.max_connections = static_cast<size_t>(max_connections);
  server_options.request_timeout_ms = static_cast<int>(request_timeout_ms);
  server_options.max_sessions = static_cast<size_t>(max_sessions);
  server_options.session_idle_ms = static_cast<int>(session_idle_ms);
  sspar::server::AnalysisServer server(server_options);
  std::string error;
  if (!server.start(&error)) {
    std::cerr << "sspar-analyze: " << error << "\n";
    return 2;
  }
  g_server = &server;
  std::signal(SIGTERM, handle_signal);
  std::signal(SIGINT, handle_signal);
  std::cerr << "sspar-analyze: serving on " << socket_path << "\n";
  server.wait();  // returns after stop(): store flushed, socket unlinked
  g_server = nullptr;
  std::cerr << "sspar-analyze: served " << server.requests() << " requests, shut down\n";
  return 0;
}

// Renders either error shape: the structured {"code","message"} object or a
// plain string (older servers).
std::string describe_server_error(const sspar::support::json::Value& response) {
  const auto* why = response.find("error");
  if (why == nullptr) return response.dump();
  if (why->is_string()) return why->as_string();
  if (why->is_object()) {
    const auto* code = why->find("code");
    const auto* message = why->find("message");
    std::string text;
    if (code && code->is_string()) text += "[" + code->as_string() + "] ";
    if (message && message->is_string()) text += message->as_string();
    if (!text.empty()) return text;
  }
  return response.dump();
}

int run_connect(const std::vector<ProgramInput>& inputs, const BatchOptions& options,
                const std::string& socket_path, bool emit, bool json,
                bool shutdown_daemon, int64_t timeout_ms) {
  sspar::server::Client client;
  client.set_timeout_ms(static_cast<int>(timeout_ms));
  std::string error;
  if (!client.connect(socket_path, &error)) {
    std::cerr << "sspar-analyze: " << error << "\n";
    return 2;
  }
  if (shutdown_daemon) {
    auto response = client.request(
        sspar::server::make_simple_request(sspar::server::Method::Shutdown), &error);
    if (!response) {
      std::cerr << "sspar-analyze: " << error << "\n";
      return 2;
    }
    std::cout << response->dump(2) << "\n";
    return 0;
  }
  auto response = client.request(
      sspar::server::make_analyze_request(inputs, emit, options.threads), &error);
  if (!response) {
    std::cerr << "sspar-analyze: " << error << "\n";
    return 2;
  }
  const auto* ok = response->find("ok");
  if (!ok || !ok->is_bool() || !ok->as_bool()) {
    std::cerr << "sspar-analyze: server error: " << describe_server_error(*response)
              << "\n";
    return 1;
  }
  const auto* report_json = response->find("report");
  if (!report_json) {
    std::cerr << "sspar-analyze: server response carries no report\n";
    return 1;
  }
  if (json) {
    // Same shape and key order as a local `--json` run: the server built
    // this object with batch_report_to_json and objects dump sorted.
    std::cout << report_json->dump(2) << "\n";
  } else {
    sspar::driver::BatchStats stats;
    if (const auto* stats_json = report_json->find("stats")) {
      stats = sspar::driver::stats_from_json(*stats_json);
    }
    std::cout << "== remote aggregate (" << stats.programs << " programs)\n"
              << "  parallel loops:        " << stats.parallel << "\n"
              << "  parallel+subscripted:  " << stats.parallel_subscripted << "\n"
              << "  persistent store hits: " << stats.store_hits << "\n";
  }
  const auto* stats_json = report_json->find("stats");
  int64_t failed = stats_json ? stats_json->int_or("failed", 0) : 0;
  return failed == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  BatchOptions options;
  bool emit = false;
  bool quiet = false;
  bool json = false;
  bool have_suite = false;
  bool serve = false;
  bool incremental = false;
  bool no_store = false;
  bool shutdown_daemon = false;
  bool journal = false;
  std::string store_path;
  std::string socket_path;
  std::string connect_path;
  int64_t store_cap = 4096;
  int64_t max_connections = 64;
  int64_t request_timeout_ms = 0;
  int64_t client_timeout_ms = 30000;
  int64_t max_sessions = 8;
  int64_t session_idle_ms = 0;
  sspar::corpus::Suite suite = sspar::corpus::Suite::Paper;
  std::vector<std::string> files;
  sspar::pipeline::Assumptions assumptions;

  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      print_usage(std::cout);
      return 0;
    } else if (arg.rfind("--threads=", 0) == 0) {
      int64_t threads = 0;
      if (!parse_int(arg.substr(10), &threads) || threads < 0 || threads > 1024) {
        std::cerr << "sspar-analyze: --threads expects an integer in [0, 1024], got '"
                  << arg.substr(10) << "'\n";
        return 2;
      }
      options.threads = static_cast<unsigned>(threads);
    } else if (arg.rfind("--suite=", 0) == 0) {
      if (!parse_suite(arg.substr(8), &suite)) {
        std::cerr << "sspar-analyze: unknown suite '" << arg.substr(8) << "'\n";
        return 2;
      }
      have_suite = true;
    } else if (arg == "--emit") {
      emit = true;
    } else if (arg == "--quiet") {
      quiet = true;
    } else if (arg == "--json") {
      json = true;
    } else if (arg.rfind("--store=", 0) == 0) {
      store_path = arg.substr(8);
      if (store_path.empty()) {
        std::cerr << "sspar-analyze: --store expects a file path\n";
        return 2;
      }
    } else if (arg.rfind("--store-cap=", 0) == 0) {
      if (!parse_int(arg.substr(12), &store_cap) || store_cap < 1) {
        std::cerr << "sspar-analyze: --store-cap expects a positive integer\n";
        return 2;
      }
    } else if (arg == "--no-store") {
      no_store = true;
    } else if (arg == "--journal") {
      journal = true;
    } else if (arg.rfind("--max-connections=", 0) == 0) {
      if (!parse_int(arg.substr(18), &max_connections) || max_connections < 1) {
        std::cerr << "sspar-analyze: --max-connections expects a positive integer\n";
        return 2;
      }
    } else if (arg.rfind("--request-timeout-ms=", 0) == 0) {
      if (!parse_int(arg.substr(21), &request_timeout_ms) || request_timeout_ms < 0) {
        std::cerr << "sspar-analyze: --request-timeout-ms expects a non-negative integer\n";
        return 2;
      }
    } else if (arg.rfind("--max-sessions=", 0) == 0) {
      if (!parse_int(arg.substr(15), &max_sessions) || max_sessions < 1) {
        std::cerr << "sspar-analyze: --max-sessions expects a positive integer\n";
        return 2;
      }
    } else if (arg.rfind("--session-idle-ms=", 0) == 0) {
      if (!parse_int(arg.substr(18), &session_idle_ms) || session_idle_ms < 0) {
        std::cerr << "sspar-analyze: --session-idle-ms expects a non-negative integer\n";
        return 2;
      }
    } else if (arg.rfind("--timeout-ms=", 0) == 0) {
      if (!parse_int(arg.substr(13), &client_timeout_ms) || client_timeout_ms < 0) {
        std::cerr << "sspar-analyze: --timeout-ms expects a non-negative integer\n";
        return 2;
      }
    } else if (arg == "--serve") {
      serve = true;
    } else if (arg == "--incremental") {
      incremental = true;
    } else if (arg.rfind("--socket=", 0) == 0) {
      socket_path = arg.substr(9);
    } else if (arg.rfind("--connect=", 0) == 0) {
      connect_path = arg.substr(10);
    } else if (arg == "--shutdown") {
      shutdown_daemon = true;
    } else if (arg == "--assume" && i + 1 < argc) {
      std::string spec = argv[++i];
      if (!assumptions.add_spec(spec)) {
        std::cerr << "sspar-analyze: --assume expects VAR=MIN, got '" << spec << "'\n";
        return 2;
      }
    } else if (!arg.empty() && arg[0] == '-') {
      std::cerr << "sspar-analyze: unknown option '" << arg << "'\n";
      print_usage(std::cerr);
      return 2;
    } else {
      files.push_back(arg);
    }
  }

  if (!files.empty() && have_suite) {
    std::cerr << "sspar-analyze: --suite only applies to corpus runs, not file inputs\n";
    return 2;
  }
  if (files.empty() && !assumptions.empty()) {
    std::cerr << "sspar-analyze: --assume only applies to file inputs; corpus entries "
                 "carry their own assumptions\n";
    return 2;
  }
  if (serve && socket_path.empty()) {
    std::cerr << "sspar-analyze: --serve requires --socket=PATH\n";
    return 2;
  }
  if (serve && !connect_path.empty()) {
    std::cerr << "sspar-analyze: --serve and --connect are mutually exclusive\n";
    return 2;
  }
  if (incremental && files.empty()) {
    std::cerr << "sspar-analyze: --incremental expects file arguments (successive "
                 "versions of one program)\n";
    return 2;
  }
  if (incremental && (serve || !connect_path.empty())) {
    std::cerr << "sspar-analyze: --incremental runs locally; it cannot combine with "
                 "--serve/--connect (use the open_session/update protocol instead)\n";
    return 2;
  }
  if (shutdown_daemon && connect_path.empty()) {
    std::cerr << "sspar-analyze: --shutdown requires --connect=PATH\n";
    return 2;
  }
  if (no_store) store_path.clear();
  if (journal && store_path.empty() && !no_store) {
    std::cerr << "sspar-analyze: --journal requires --store=PATH\n";
    return 2;
  }

  sspar::store::StoreOptions store_options;
  store_options.max_entries = static_cast<size_t>(store_cap);
  store_options.journal = journal;
  sspar::store::SummaryStore store(store_path, store_options);
  sspar::store::SummaryStore* store_ptr = nullptr;
  if (!store_path.empty()) {
    if (!store.open()) {
      std::cerr << "sspar-analyze: store '" << store_path
                << "' was corrupt; quarantined to '" << store_path
                << ".corrupt' and starting empty\n";
    }
    store_ptr = &store;
  }

  if (serve) {
    return run_serve(options, socket_path, store_ptr, max_connections,
                     request_timeout_ms, max_sessions, session_idle_ms);
  }

  std::vector<ProgramInput> inputs;
  if (files.empty()) {
    inputs = BatchAnalyzer::corpus_inputs();
    if (have_suite) {
      std::erase_if(inputs, [&](const ProgramInput& input) {
        const sspar::corpus::Entry* e = sspar::corpus::find_entry(input.name);
        return !e || e->suite != suite;
      });
    }
  } else {
    for (const std::string& path : files) {
      std::ifstream in(path);
      if (!in) {
        std::cerr << "sspar-analyze: cannot open '" << path << "'\n";
        return 2;
      }
      std::ostringstream buffer;
      buffer << in.rdbuf();
      inputs.push_back(ProgramInput{path, buffer.str(), assumptions});
    }
  }

  if (!connect_path.empty()) {
    return run_connect(inputs, options, connect_path, emit, json, shutdown_daemon,
                       client_timeout_ms);
  }

  if (incremental) {
    return run_incremental(inputs, options, store_ptr, emit, json, quiet);
  }

  BatchAnalyzer analyzer(options);
  BatchReport report = sspar::driver::run_with_store(inputs, options, store_ptr);

  if (json) {
    std::cout << sspar::driver::batch_report_to_json(report, analyzer.threads(), emit).dump(2)
              << "\n";
    return report.stats.failed == 0 ? 0 : 1;
  }
  if (!quiet) {
    for (const ProgramReport& p : report.programs) print_program(p, emit, std::cout);
  }
  print_stats(report, analyzer.threads(), std::cout);
  return report.stats.failed == 0 ? 0 : 1;
}
