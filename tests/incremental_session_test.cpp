// Session-scoped incremental protocol of the analysis server:
// open_session / update / close_session round trips, E_NO_SESSION on every
// stale-name path (never opened, closed, LRU-evicted, idle-expired),
// concurrent clients on distinct sessions, the stats "incremental" object,
// byte-identity of the update's emitted output with a one-shot translation,
// and fault injection at the session handlers.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "server/analysis_server.h"
#include "server/client.h"
#include "server/protocol.h"
#include "store/summary_store.h"
#include "support/faultpoint.h"
#include "support/json.h"
#include "pipeline/session.h"

namespace sspar::server {
namespace {

std::string fresh_path(const std::string& name) {
  std::string path = testing::TempDir() + "sspar_incr_session_" + name;
  std::remove(path.c_str());
  return path;
}

const char* kBase = R"(int n;
int a[100];
int idx[100];
void fill(void) {
  for (int i = 0; i < n; i++) {
    idx[i] = i + 1;
  }
}
void scale(void) {
  for (int i = 0; i < n; i++) {
    a[idx[i]] = i;
  }
}
void driver(void) {
  fill();
  scale();
}
)";

std::string edited_base() {
  std::string src = kBase;
  src.replace(src.find("a[idx[i]] = i;"), 14, "a[idx[i]] = i + 1;");
  return src;
}

struct FaultGuard {
  FaultGuard() { support::faultpoint::disarm_all(); }
  ~FaultGuard() { support::faultpoint::disarm_all(); }
};

struct SessionFixture {
  std::string socket_path;
  std::string store_path;
  store::SummaryStore store;
  AnalysisServer server;

  SessionFixture(const std::string& name, ServerOptions options)
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

  ~SessionFixture() {
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
  const support::json::Value* error = response.find("error");
  if (error == nullptr || error->find("code") == nullptr) return "";
  return error->find("code")->as_string().c_str();
}

int64_t update_stat(const support::json::Value& response, const std::string& key) {
  const support::json::Value* update = response.find("update");
  if (update == nullptr || update->find("stats") == nullptr) return -1;
  return update->find("stats")->int_or(key, -1);
}

TEST(IncrementalSession, OpenUpdateCloseRoundTrip) {
  ServerOptions options;
  options.threads = 1;
  SessionFixture fx("roundtrip", options);
  ASSERT_TRUE(fx.start());
  Client client;
  ASSERT_TRUE(client.connect(fx.socket_path));

  auto opened = client.request(make_open_session_request("editor", {{"n", 1}}));
  ASSERT_TRUE(opened.has_value());
  EXPECT_TRUE(opened->find("ok")->as_bool());
  EXPECT_EQ(opened->find("session")->as_string(), "editor");

  // First update: everything is dirty (the engine is cold).
  auto first = client.request(make_update_request("editor", kBase));
  ASSERT_TRUE(first.has_value());
  ASSERT_TRUE(first->find("ok")->as_bool());
  EXPECT_EQ(update_stat(*first, "functions_total"), 3);
  EXPECT_EQ(update_stat(*first, "dirty"), 3);
  EXPECT_GT(first->find("update")->int_or("loops", 0), 0);

  // Second update: a one-function edit only re-analyzes its cone.
  auto second = client.request(make_update_request("editor", edited_base()));
  ASSERT_TRUE(second.has_value());
  ASSERT_TRUE(second->find("ok")->as_bool());
  EXPECT_EQ(update_stat(*second, "dirty"), 2) << "scale + driver";
  EXPECT_GT(update_stat(*second, "reused_verdicts"), 0);

  auto closed = client.request(make_close_session_request("editor"));
  ASSERT_TRUE(closed.has_value());
  EXPECT_TRUE(closed->find("ok")->as_bool());

  // The closed name is gone: update and re-close both answer E_NO_SESSION.
  auto stale = client.request(make_update_request("editor", kBase));
  ASSERT_TRUE(stale.has_value());
  EXPECT_FALSE(stale->find("ok")->as_bool());
  EXPECT_STREQ(error_code_of(*stale), "E_NO_SESSION");
  auto reclosed = client.request(make_close_session_request("editor"));
  ASSERT_TRUE(reclosed.has_value());
  EXPECT_STREQ(error_code_of(*reclosed), "E_NO_SESSION");
}

TEST(IncrementalSession, UpdateOnNeverOpenedSessionAnswersENoSession) {
  ServerOptions options;
  options.threads = 1;
  SessionFixture fx("unknown", options);
  ASSERT_TRUE(fx.start());
  Client client;
  ASSERT_TRUE(client.connect(fx.socket_path));
  auto response = client.request(make_update_request("never-opened", kBase));
  ASSERT_TRUE(response.has_value());
  EXPECT_FALSE(response->find("ok")->as_bool());
  EXPECT_STREQ(error_code_of(*response), "E_NO_SESSION");
}

TEST(IncrementalSession, LruCapEvictsTheLeastRecentlyUsedSession) {
  ServerOptions options;
  options.threads = 1;
  options.max_sessions = 2;
  SessionFixture fx("lru", options);
  ASSERT_TRUE(fx.start());
  Client client;
  ASSERT_TRUE(client.connect(fx.socket_path));

  for (const char* name : {"s1", "s2"}) {
    auto opened = client.request(make_open_session_request(name, {{"n", 1}}));
    ASSERT_TRUE(opened.has_value());
    ASSERT_TRUE(opened->find("ok")->as_bool());
    auto updated = client.request(make_update_request(name, kBase));
    ASSERT_TRUE(updated.has_value());
    ASSERT_TRUE(updated->find("ok")->as_bool());
  }
  // Touch s1 so s2 is the LRU victim when s3 opens over the cap.
  ASSERT_TRUE(client.request(make_update_request("s1", edited_base()))->find("ok")->as_bool());
  auto third = client.request(make_open_session_request("s3", {{"n", 1}}));
  ASSERT_TRUE(third.has_value());
  ASSERT_TRUE(third->find("ok")->as_bool());

  auto evicted = client.request(make_update_request("s2", kBase));
  ASSERT_TRUE(evicted.has_value());
  EXPECT_FALSE(evicted->find("ok")->as_bool());
  EXPECT_STREQ(error_code_of(*evicted), "E_NO_SESSION");

  // The survivors still serve, and s1 is still WARM (a re-update of already
  // seen source dirties nothing).
  auto survivor = client.request(make_update_request("s1", edited_base()));
  ASSERT_TRUE(survivor.has_value());
  ASSERT_TRUE(survivor->find("ok")->as_bool());
  EXPECT_EQ(update_stat(*survivor, "dirty"), 0);
  ASSERT_TRUE(client.request(make_update_request("s3", kBase))->find("ok")->as_bool());
}

TEST(IncrementalSession, IdleSessionsExpire) {
  ServerOptions options;
  options.threads = 1;
  options.session_idle_ms = 50;
  SessionFixture fx("idle", options);
  ASSERT_TRUE(fx.start());
  Client client;
  ASSERT_TRUE(client.connect(fx.socket_path));

  ASSERT_TRUE(client.request(make_open_session_request("sleepy", {{"n", 1}}))
                  ->find("ok")
                  ->as_bool());
  ASSERT_TRUE(client.request(make_update_request("sleepy", kBase))->find("ok")->as_bool());

  // Expiry is enforced at access time, so no purge tick needs to run first.
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  auto expired = client.request(make_update_request("sleepy", edited_base()));
  ASSERT_TRUE(expired.has_value());
  EXPECT_FALSE(expired->find("ok")->as_bool());
  EXPECT_STREQ(error_code_of(*expired), "E_NO_SESSION");
}

TEST(IncrementalSession, ConcurrentClientsOnDistinctSessionsDoNotInterfere) {
  ServerOptions options;
  options.threads = 1;
  SessionFixture fx("concurrent", options);
  ASSERT_TRUE(fx.start());

  constexpr int kClients = 4;
  std::vector<std::string> outputs(kClients);
  std::vector<std::thread> threads;
  for (int i = 0; i < kClients; ++i) {
    threads.emplace_back([&, i] {
      Client client;
      if (!client.connect(fx.socket_path)) return;
      const std::string session = "editor-" + std::to_string(i);
      auto opened = client.request(make_open_session_request(session, {{"n", 1}}));
      if (!opened || !opened->find("ok")->as_bool()) return;
      auto first = client.request(make_update_request(session, kBase));
      if (!first || !first->find("ok")->as_bool()) return;
      auto second =
          client.request(make_update_request(session, edited_base(), /*emit=*/true));
      if (!second || !second->find("ok")->as_bool()) return;
      if (update_stat(*second, "dirty") != 2) return;
      outputs[static_cast<size_t>(i)] =
          second->find("update")->find("output")->as_string();
    });
  }
  for (std::thread& t : threads) t.join();

  // Every session completed its sequence and all emitted outputs agree.
  for (int i = 0; i < kClients; ++i) {
    ASSERT_FALSE(outputs[static_cast<size_t>(i)].empty()) << "client " << i << " failed";
    EXPECT_EQ(outputs[static_cast<size_t>(i)], outputs[0]) << "client " << i;
  }
}

TEST(IncrementalSession, UpdateOutputMatchesOneShotTranslation) {
  ServerOptions options;
  options.threads = 1;
  SessionFixture fx("oneshot", options);
  ASSERT_TRUE(fx.start());
  Client client;
  ASSERT_TRUE(client.connect(fx.socket_path));
  ASSERT_TRUE(client.request(make_open_session_request("cmp", {{"n", 1}}))
                  ->find("ok")
                  ->as_bool());
  ASSERT_TRUE(client.request(make_update_request("cmp", kBase))->find("ok")->as_bool());
  auto update =
      client.request(make_update_request("cmp", edited_base(), /*emit=*/true));
  ASSERT_TRUE(update.has_value());
  ASSERT_TRUE(update->find("ok")->as_bool());

  pipeline::Session oneshot(edited_base(), {{"n", 1}});
  ASSERT_TRUE(oneshot.parse()) << oneshot.diagnostics().dump();
  const int annotated = oneshot.annotate();
  EXPECT_EQ(update->find("update")->find("output")->as_string(), oneshot.emit().output)
      << "session update must emit byte-identical transformed source";
  EXPECT_EQ(update->find("update")->int_or("annotated", -1), annotated);
}

TEST(IncrementalSession, StatsReportTheIncrementalObject) {
  ServerOptions options;
  options.threads = 1;
  options.max_sessions = 2;
  SessionFixture fx("stats", options);
  ASSERT_TRUE(fx.start());
  Client client;
  ASSERT_TRUE(client.connect(fx.socket_path));

  ASSERT_TRUE(client.request(make_open_session_request("a", {{"n", 1}}))
                  ->find("ok")
                  ->as_bool());
  ASSERT_TRUE(client.request(make_update_request("a", kBase))->find("ok")->as_bool());
  ASSERT_TRUE(
      client.request(make_update_request("a", edited_base()))->find("ok")->as_bool());
  ASSERT_TRUE(client.request(make_close_session_request("a"))->find("ok")->as_bool());
  ASSERT_TRUE(client.request(make_open_session_request("b", {{"n", 1}}))
                  ->find("ok")
                  ->as_bool());

  auto stats = client.request(make_simple_request(Method::Stats));
  ASSERT_TRUE(stats.has_value());
  ASSERT_TRUE(stats->find("ok")->as_bool());
  const support::json::Value* incr = stats->find("incremental");
  ASSERT_NE(incr, nullptr) << "stats response must carry the incremental object";
  EXPECT_EQ(incr->int_or("updates", -1), 2);
  EXPECT_EQ(incr->int_or("sessions_open", -1), 1);
  EXPECT_EQ(incr->int_or("sessions_opened", -1), 2);
  EXPECT_EQ(incr->int_or("sessions_closed", -1), 1);
  // 3 functions per update: the first update dirties all 3, the second 2.
  EXPECT_EQ(incr->int_or("functions_total", -1), 6);
  EXPECT_EQ(incr->int_or("dirty", -1), 5);
  ASSERT_NE(incr->find("dirty_cone_ratio"), nullptr);
  EXPECT_NEAR(incr->find("dirty_cone_ratio")->as_double(), 5.0 / 6.0, 1e-9);
}

TEST(IncrementalSession, ThrowingUpdateAnswersInternalAndTheSessionSurvives) {
  if (!support::faultpoint::compiled_in()) GTEST_SKIP() << "faultpoints off";
  FaultGuard guard;
  ServerOptions options;
  options.threads = 1;
  SessionFixture fx("faulty", options);
  ASSERT_TRUE(fx.start());
  Client client;
  ASSERT_TRUE(client.connect(fx.socket_path));
  ASSERT_TRUE(client.request(make_open_session_request("robust", {{"n", 1}}))
                  ->find("ok")
                  ->as_bool());
  ASSERT_TRUE(
      client.request(make_update_request("robust", kBase))->find("ok")->as_bool());

  support::faultpoint::arm("server.session.update.pre_run", "throw");
  auto failed = client.request(make_update_request("robust", edited_base()));
  ASSERT_TRUE(failed.has_value());
  EXPECT_FALSE(failed->find("ok")->as_bool());
  EXPECT_STREQ(error_code_of(*failed), "E_INTERNAL");
  EXPECT_GE(fx.server.recovered(), 1u);
  EXPECT_GE(support::faultpoint::hit_count("server.session.update.pre_run"), 1u);

  // Disarmed, the SAME session serves the same edit incrementally — the
  // injected failure wounded one request, not the warm engine state.
  support::faultpoint::disarm_all();
  auto recovered = client.request(make_update_request("robust", edited_base()));
  ASSERT_TRUE(recovered.has_value());
  ASSERT_TRUE(recovered->find("ok")->as_bool());
  EXPECT_EQ(update_stat(*recovered, "dirty"), 2) << "scale + driver";
}

}  // namespace
}  // namespace sspar::server
