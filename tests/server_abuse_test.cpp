// Abuse suite for the analysis server's resilience layer: slowloris clients
// time out, excess connections are shed with E_OVERLOADED while admitted
// clients keep getting byte-identical reports, oversized request lines are
// rejected, a throwing analyze answers E_INTERNAL without wounding the
// daemon, deadlines answer E_DEADLINE — and a SIGKILL at every server.*
// fault point leaves the persistent store consistent for the next run.
#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <csignal>
#include <cstdio>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "driver/json_report.h"
#include "driver/store_session.h"
#include "server/analysis_server.h"
#include "server/client.h"
#include "server/protocol.h"
#include "store/summary_store.h"
#include "support/faultpoint.h"
#include "support/json.h"

namespace sspar::server {
namespace {

std::string temp_path(const std::string& name) {
  return testing::TempDir() + "sspar_server_abuse_" + name;
}

std::string fresh_path(const std::string& name) {
  std::string path = temp_path(name);
  std::remove(path.c_str());
  return path;
}

std::vector<driver::ProgramInput> abuse_inputs() {
  const char* kProgram = R"(
    int n;
    int a[100];
    int idx[100];
    int clamp(int v) {
      if (v < 0) { v = 0; }
      return v;
    }
    void f() {
      for (int i = 0; i < n; i++) {
        a[idx[i]] = clamp(i);
      }
    }
  )";
  std::vector<driver::ProgramInput> inputs;
  inputs.push_back(driver::ProgramInput{"prog", kProgram, {{"n", 1}}});
  return inputs;
}

void canonicalize(support::json::Value& value) {
  if (value.is_object()) {
    for (auto& [key, child] : value.as_object()) {
      if (key == "total_ms") {
        child = support::json::Value(int64_t{0});
      } else {
        canonicalize(child);
      }
    }
  } else if (value.is_array()) {
    for (auto& child : value.as_array()) canonicalize(child);
  }
}

std::string canonical_dump(support::json::Value value) {
  canonicalize(value);
  return value.dump(2);
}

// Every test disarms on entry AND exit so a failing assertion cannot leak an
// armed fault into its neighbors.
struct FaultGuard {
  FaultGuard() { support::faultpoint::disarm_all(); }
  ~FaultGuard() { support::faultpoint::disarm_all(); }
};

struct AbuseFixture {
  std::string socket_path;
  std::string store_path;
  store::SummaryStore store;
  AnalysisServer server;

  AbuseFixture(const std::string& name, ServerOptions options)
      : socket_path(fresh_path(name + ".sock")),
        store_path(fresh_path(name + ".bin")),
        store(store_path),
        server([&] {
          options.socket_path = socket_path;
          options.store = &store;
          return options;
        }()) {
    EXPECT_TRUE(store.open());
  }

  ~AbuseFixture() {
    server.stop();
    std::remove(store_path.c_str());
  }

  bool start() {
    std::string error;
    bool ok = server.start(&error);
    EXPECT_TRUE(ok) << error;
    return ok;
  }
};

const char* error_code_of(const support::json::Value& response) {
  const support::json::Value* err = response.find("error");
  if (!err || !err->is_object()) return "";
  const support::json::Value* code = err->find("code");
  return code && code->is_string() ? code->as_string().c_str() : "";
}

TEST(ServerAbuse, SlowlorisPartialRequestTimesOutFreshClientsUnaffected) {
  FaultGuard guard;
  ServerOptions options;
  options.threads = 1;
  options.read_timeout_ms = 150;
  AbuseFixture fx("slowloris", options);
  ASSERT_TRUE(fx.start());

  // Drip three bytes of a request and go silent: the server must give up on
  // the PARTIAL line after read_timeout_ms with E_TIMEOUT.
  Client slow;
  slow.set_timeout_ms(5000);
  ASSERT_TRUE(slow.connect(fx.socket_path));
  ASSERT_TRUE(slow.send_bytes(R"({"m)"));
  auto verdict = slow.read_response();
  ASSERT_TRUE(verdict.has_value());
  EXPECT_FALSE(verdict->find("ok")->as_bool());
  EXPECT_STREQ(error_code_of(*verdict), "E_TIMEOUT");
  EXPECT_GE(fx.server.timed_out(), 1u);

  // An IDLE connection (no partial line pending) is never timed out…
  Client idle;
  ASSERT_TRUE(idle.connect(fx.socket_path));
  std::this_thread::sleep_for(std::chrono::milliseconds(400));
  auto ping = idle.request(make_simple_request(Method::Ping));
  ASSERT_TRUE(ping.has_value());
  EXPECT_TRUE(ping->find("ok")->as_bool());

  // …and the abuse never touched fresh clients.
  Client fresh;
  ASSERT_TRUE(fresh.connect(fx.socket_path));
  auto response = fresh.request(make_analyze_request(abuse_inputs(), false, 1));
  ASSERT_TRUE(response.has_value());
  EXPECT_TRUE(response->find("ok")->as_bool());
}

TEST(ServerAbuse, ConnectionCapShedsExcessClientsAdmittedOnesAreUnperturbed) {
  FaultGuard guard;
  ServerOptions options;
  options.threads = 1;
  options.max_connections = 2;
  AbuseFixture fx("capshed", options);
  ASSERT_TRUE(fx.start());
  const std::string request = make_analyze_request(abuse_inputs(), true, 1);

  // Warm the store, then capture the control report every later response
  // must match byte for byte.
  Client a;
  ASSERT_TRUE(a.connect(fx.socket_path));
  ASSERT_TRUE(a.request(request).has_value());
  auto control = a.request(request);
  ASSERT_TRUE(control.has_value());
  ASSERT_TRUE(control->find("ok")->as_bool());
  const std::string control_bytes = canonical_dump(*control);

  // Fill the second slot, then pile on: every extra connection gets ONE
  // E_OVERLOADED response and is closed by the accept thread.
  Client b;
  ASSERT_TRUE(b.connect(fx.socket_path));
  ASSERT_TRUE(b.request(make_simple_request(Method::Ping)).has_value());
  constexpr int kExtra = 4;
  int shed_seen = 0;
  for (int i = 0; i < kExtra; ++i) {
    Client extra;
    extra.set_timeout_ms(5000);
    ASSERT_TRUE(extra.connect(fx.socket_path));
    auto notice = extra.read_response();
    ASSERT_TRUE(notice.has_value()) << "extra client " << i;
    EXPECT_FALSE(notice->find("ok")->as_bool());
    EXPECT_STREQ(error_code_of(*notice), "E_OVERLOADED");
    ++shed_seen;
  }
  EXPECT_EQ(shed_seen, kExtra);
  EXPECT_GE(fx.server.shed(), static_cast<uint64_t>(kExtra));

  // The admitted clients never noticed: same bytes as the control, and the
  // same per-run stats as the unloaded run.
  auto during = a.request(request);
  ASSERT_TRUE(during.has_value());
  EXPECT_EQ(canonical_dump(*during), control_bytes);
  EXPECT_EQ(driver::stats_from_json(*during->find("report")->find("stats")),
            driver::stats_from_json(*control->find("report")->find("stats")));

  // Freeing a slot re-admits: close one admitted client and a newcomer gets
  // in (the accept loop reaps finished handlers before judging the cap).
  b.close();
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(5);
  bool readmitted = false;
  while (std::chrono::steady_clock::now() < deadline) {
    Client c;
    c.set_timeout_ms(2000);
    if (!c.connect(fx.socket_path)) continue;
    auto response = c.request(request);
    if (response && response->find("ok")->as_bool()) {
      EXPECT_EQ(canonical_dump(*response), control_bytes);
      readmitted = true;
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  EXPECT_TRUE(readmitted);
}

TEST(ServerAbuse, OversizedRequestLineIsRejectedAndTheConnectionClosed) {
  FaultGuard guard;
  ServerOptions options;
  options.threads = 1;
  options.max_request_bytes = 1024;
  AbuseFixture fx("toolarge", options);
  ASSERT_TRUE(fx.start());

  Client big;
  big.set_timeout_ms(5000);
  ASSERT_TRUE(big.connect(fx.socket_path));
  auto response = big.request(std::string(4096, 'x'));
  ASSERT_TRUE(response.has_value());
  EXPECT_FALSE(response->find("ok")->as_bool());
  EXPECT_STREQ(error_code_of(*response), "E_REQ_TOO_LARGE");
  // The connection is gone — the server refuses to keep buffering for it.
  auto next = big.request(make_simple_request(Method::Ping));
  EXPECT_FALSE(next.has_value());

  // A request UNDER the cap on a fresh connection is served normally.
  Client fine;
  ASSERT_TRUE(fine.connect(fx.socket_path));
  auto ping = fine.request(make_simple_request(Method::Ping));
  ASSERT_TRUE(ping.has_value());
  EXPECT_TRUE(ping->find("ok")->as_bool());
}

TEST(ServerAbuse, ThrowingAnalyzeAnswersInternalAndTheDaemonKeepsServing) {
  if (!support::faultpoint::compiled_in()) GTEST_SKIP() << "faultpoints off";
  FaultGuard guard;
  ServerOptions options;
  options.threads = 1;
  AbuseFixture fx("throwing", options);
  ASSERT_TRUE(fx.start());
  const std::string request = make_analyze_request(abuse_inputs(), false, 1);

  support::faultpoint::arm("server.analyze.pre_run", "throw");
  Client victim;
  ASSERT_TRUE(victim.connect(fx.socket_path));
  auto failed = victim.request(request);
  ASSERT_TRUE(failed.has_value());
  EXPECT_FALSE(failed->find("ok")->as_bool());
  EXPECT_STREQ(error_code_of(*failed), "E_INTERNAL");
  EXPECT_GE(fx.server.recovered(), 1u);

  // Disarmed, the NEXT analyze on a fresh connection succeeds — the thrown
  // exception wounded one request, not the daemon.
  support::faultpoint::disarm_all();
  Client fresh;
  ASSERT_TRUE(fresh.connect(fx.socket_path));
  auto ok = fresh.request(request);
  ASSERT_TRUE(ok.has_value());
  EXPECT_TRUE(ok->find("ok")->as_bool());
  EXPECT_NE(ok->find("report"), nullptr);
}

TEST(ServerAbuse, RequestDeadlineAnswersDeadlineInsteadOfTheReport) {
  if (!support::faultpoint::compiled_in()) GTEST_SKIP() << "faultpoints off";
  FaultGuard guard;
  ServerOptions options;
  options.threads = 1;
  options.request_timeout_ms = 50;
  AbuseFixture fx("deadline", options);
  ASSERT_TRUE(fx.start());

  support::faultpoint::arm("server.analyze.pre_run", "sleep=300");
  Client client;
  client.set_timeout_ms(5000);
  ASSERT_TRUE(client.connect(fx.socket_path));
  auto late = client.request(make_analyze_request(abuse_inputs(), false, 1));
  ASSERT_TRUE(late.has_value());
  EXPECT_FALSE(late->find("ok")->as_bool());
  EXPECT_STREQ(error_code_of(*late), "E_DEADLINE");
  EXPECT_GE(fx.server.timed_out(), 1u);

  // Under the deadline, the same connection gets its report.
  support::faultpoint::disarm_all();
  auto ok = client.request(make_analyze_request(abuse_inputs(), false, 1));
  ASSERT_TRUE(ok.has_value());
  EXPECT_TRUE(ok->find("ok")->as_bool());
}

// Kill matrix over the server.* fault points: fork a child that RUNS the
// daemon, arm one point with "kill", drive a request into it from the
// parent, and assert (a) the child died by SIGKILL at the point, (b) the
// journal-mode store reloads consistently afterwards, (c) a follow-up warm
// run in the parent still hits. gtest runs tests sequentially and every
// prior fixture has stopped its server, so the parent is single-threaded at
// each fork.
TEST(ServerAbuse, KilledAtEveryServerFaultPointLeavesTheStoreConsistent) {
  if (!support::faultpoint::compiled_in()) GTEST_SKIP() << "faultpoints off";
  FaultGuard guard;
  const std::string store_path = fresh_path("killmatrix.bin");
  std::remove((store_path + ".journal").c_str());
  std::remove((store_path + ".corrupt").c_str());

  store::StoreOptions journal_options;
  journal_options.journal = true;

  // Durable baseline the kills must never lose.
  size_t baseline = 0;
  {
    store::SummaryStore store(store_path, journal_options);
    ASSERT_TRUE(store.open());
    driver::BatchOptions options;
    options.threads = 1;
    driver::BatchReport cold = driver::run_with_store(abuse_inputs(), options, &store);
    ASSERT_EQ(cold.stats.failed, 0);
    baseline = store.size();
    ASSERT_GT(baseline, 0u);
  }

  const std::vector<std::string> points = support::faultpoint::known_points("server.");
  ASSERT_GE(points.size(), 4u);
  // The request sequence that actually reaches `point`: session-family fault
  // sites only fire on session requests, everything else on an analyze. All
  // but the LAST request of a sequence must succeed; the last dies with the
  // daemon.
  auto requests_for = [](const std::string& point) -> std::vector<std::string> {
    if (point == "server.session.open") {
      return {make_open_session_request("victim", {{"n", 1}})};
    }
    if (point == "server.session.update.pre_run") {
      return {make_open_session_request("victim", {{"n", 1}}),
              make_update_request("victim", abuse_inputs()[0].source)};
    }
    if (point == "server.session.close") {
      return {make_open_session_request("victim", {{"n", 1}}),
              make_close_session_request("victim")};
    }
    return {make_analyze_request(abuse_inputs(), false, 1)};
  };
  for (const std::string& point : points) {
    SCOPED_TRACE(point);
    const std::string socket_path = fresh_path("killmatrix.sock");
    pid_t pid = ::fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) {
      // Child: run the daemon with the fault armed until the kill lands.
      ::alarm(10);
      support::faultpoint::disarm_all();
      support::faultpoint::arm(point, "kill");
      store::SummaryStore store(store_path, journal_options);
      if (!store.open()) ::_exit(3);
      ServerOptions options;
      options.socket_path = socket_path;
      options.threads = 1;
      options.store = &store;
      AnalysisServer server(options);
      std::string error;
      if (!server.start(&error)) ::_exit(4);
      server.wait();
      ::_exit(2);  // the armed point never fired — a matrix bug
    }

    // Parent: connect (retrying while the child binds) and push a request
    // into the fault. Whichever point fires, the request must fail — the
    // daemon died mid-flight.
    Client client;
    client.set_timeout_ms(2000);
    const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(5);
    bool connected = false;
    while (std::chrono::steady_clock::now() < deadline) {
      if (client.connect(socket_path)) {
        connected = true;
        break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    ASSERT_TRUE(connected);
    const std::vector<std::string> requests = requests_for(point);
    for (size_t i = 0; i + 1 < requests.size(); ++i) {
      auto setup = client.request(requests[i]);
      ASSERT_TRUE(setup.has_value()) << "setup request " << i << " got no response";
      ASSERT_TRUE(setup->find("ok")->as_bool());
    }
    auto response = client.request(requests.back());
    EXPECT_FALSE(response.has_value());

    int status = 0;
    ASSERT_EQ(::waitpid(pid, &status, 0), pid);
    ASSERT_TRUE(WIFSIGNALED(status)) << "child exited " << WEXITSTATUS(status)
                                     << " instead of dying at " << point;
    ASSERT_EQ(WTERMSIG(status), SIGKILL);

    // The store the dead daemon was holding reloads clean and full, and a
    // warm run still hits.
    EXPECT_FALSE(std::ifstream(store_path + ".corrupt").good());
    store::SummaryStore survivor(store_path, journal_options);
    ASSERT_TRUE(survivor.open());
    EXPECT_EQ(survivor.size(), baseline);
    driver::BatchOptions options;
    options.threads = 1;
    driver::BatchReport warm = driver::run_with_store(abuse_inputs(), options, &survivor);
    EXPECT_EQ(warm.stats.failed, 0);
    EXPECT_GT(warm.stats.store_hits, 0);
    std::remove(socket_path.c_str());
  }

  std::remove(store_path.c_str());
  std::remove((store_path + ".journal").c_str());
}

}  // namespace
}  // namespace sspar::server
