#include "support/faultpoint.h"

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <algorithm>
#include <atomic>
#include <chrono>
#include <map>
#include <mutex>
#include <thread>

namespace sspar::support::faultpoint {

namespace {

// Every SSPAR_FAULTPOINT site in the codebase, sorted. hit() aborts on a
// name missing from this list (faultpoint builds only), so the registry and
// the code cannot drift apart; the crash-matrix tests iterate it.
constexpr const char* kKnownPoints[] = {
    "incremental.update.post_parse",  // new program assembled, not yet analyzed
    "server.accept.post_accept",   // connection admitted, handler not yet started
    "server.analyze.pre_run",      // request parsed, pipeline not yet entered
    "server.read.post_poll",       // bytes readable on a connection
    "server.session.close",        // close_session parsed, session not yet dropped
    "server.session.open",         // open_session parsed, engine not yet created
    "server.session.update.pre_run",  // update parsed, engine not yet entered
    "server.write.pre_send",       // response built, first byte not yet sent
    "store.flush.post_rename",     // base file replaced, journal not yet truncated
    "store.flush.pre_rename",      // tmp file durable, rename not yet issued
    "store.flush.pre_sync",        // tmp file written, not yet fsync'd
    "store.flush.pre_write",       // eviction done, tmp file not yet written
    "store.journal.post_append",   // WAL batch durable
    "store.journal.pre_append",    // WAL batch built, not yet written
    "store.journal.pre_sync",      // WAL batch written, not yet fsync'd
    "store.open.pre_load",         // base file about to be read
    "store.open.pre_replay",       // base loaded, journal not yet replayed
};

enum class Action { None, Kill, Abort, Throw, Fail, Sleep };

struct Armed {
  Action action = Action::None;
  int sleep_ms = 0;
};

struct State {
  std::mutex mutex;
  std::map<std::string, Armed, std::less<>> armed;
  std::map<std::string, uint64_t, std::less<>> hits;
  bool env_parsed = false;
};

State& state() {
  static State s;
  return s;
}

bool is_known(std::string_view name) {
  for (const char* known : kKnownPoints) {
    if (name == known) return true;
  }
  return false;
}

bool parse_action(std::string_view text, Armed* out) {
  if (text == "kill") {
    out->action = Action::Kill;
  } else if (text == "abort") {
    out->action = Action::Abort;
  } else if (text == "throw") {
    out->action = Action::Throw;
  } else if (text == "fail") {
    out->action = Action::Fail;
  } else if (text.rfind("sleep=", 0) == 0) {
    out->action = Action::Sleep;
    out->sleep_ms = std::atoi(std::string(text.substr(6)).c_str());
    if (out->sleep_ms < 0) out->sleep_ms = 0;
  } else {
    return false;
  }
  return true;
}

// SSPAR_FAULTPOINTS="store.flush.pre_rename=kill;server.analyze.pre_run=throw"
void parse_env_locked(State& s) {
  if (s.env_parsed) return;
  s.env_parsed = true;
  const char* env = std::getenv("SSPAR_FAULTPOINTS");
  if (env == nullptr) return;
  std::string_view rest = env;
  while (!rest.empty()) {
    size_t semi = rest.find(';');
    std::string_view entry = rest.substr(0, semi);
    rest = semi == std::string_view::npos ? std::string_view{} : rest.substr(semi + 1);
    size_t eq = entry.find('=');
    if (eq == std::string_view::npos || eq == 0) continue;
    // The sleep action itself contains '='; split on the FIRST one only.
    std::string_view name = entry.substr(0, eq);
    std::string_view action = entry.substr(eq + 1);
    Armed armed;
    if (parse_action(action, &armed)) {
      s.armed[std::string(name)] = armed;
    } else {
      std::fprintf(stderr, "sspar faultpoint: unknown action '%.*s' for '%.*s'\n",
                   static_cast<int>(action.size()), action.data(),
                   static_cast<int>(name.size()), name.data());
    }
  }
}

// Looks up the armed action and bumps the hit counter; the action itself
// runs OUTSIDE the lock (kill/abort never return, sleep must not serialize
// unrelated connections, throw must not unwind through a held mutex).
Armed lookup(const char* name) {
  State& s = state();
  std::lock_guard<std::mutex> lock(s.mutex);
  parse_env_locked(s);
  if (!is_known(name)) {
    std::fprintf(stderr, "sspar faultpoint: '%s' is not in the known-points registry\n",
                 name);
    std::abort();
  }
  s.hits[std::string(name)] += 1;
  auto it = s.armed.find(std::string_view(name));
  return it == s.armed.end() ? Armed{} : it->second;
}

}  // namespace

bool compiled_in() {
#ifdef SSPAR_FAULTPOINTS
  return true;
#else
  return false;
#endif
}

void arm(std::string_view name, std::string_view action) {
  Armed armed;
  if (!parse_action(action, &armed)) {
    std::fprintf(stderr, "sspar faultpoint: unknown action '%.*s'\n",
                 static_cast<int>(action.size()), action.data());
    return;
  }
  State& s = state();
  std::lock_guard<std::mutex> lock(s.mutex);
  s.armed[std::string(name)] = armed;
}

void disarm_all() {
  State& s = state();
  std::lock_guard<std::mutex> lock(s.mutex);
  s.armed.clear();
  s.hits.clear();
}

uint64_t hit_count(std::string_view name) {
  State& s = state();
  std::lock_guard<std::mutex> lock(s.mutex);
  auto it = s.hits.find(name);
  return it == s.hits.end() ? 0 : it->second;
}

std::vector<std::string> known_points() { return known_points(""); }

std::vector<std::string> known_points(std::string_view prefix) {
  std::vector<std::string> points;
  for (const char* name : kKnownPoints) {
    if (std::string_view(name).rfind(prefix, 0) == 0) points.emplace_back(name);
  }
  return points;
}

void hit(const char* name) {
  Armed armed = lookup(name);
  switch (armed.action) {
    case Action::None:
    case Action::Fail:  // only SSPAR_FAULTPOINT_FAIL sites react to "fail"
      return;
    case Action::Kill:
      // SIGKILL, not _exit(): no atexit handlers, no stream flushes — the
      // closest a test can get to the machine losing the process.
      std::raise(SIGKILL);
      return;
    case Action::Abort:
      std::abort();
      return;
    case Action::Throw:
      throw FaultInjected(name);
    case Action::Sleep:
      std::this_thread::sleep_for(std::chrono::milliseconds(armed.sleep_ms));
      return;
  }
}

bool hit_fail(const char* name) {
  Armed armed = lookup(name);
  if (armed.action == Action::Fail) return true;
  switch (armed.action) {
    case Action::Kill:
      std::raise(SIGKILL);
      break;
    case Action::Abort:
      std::abort();
      break;
    case Action::Throw:
      throw FaultInjected(name);
    case Action::Sleep:
      std::this_thread::sleep_for(std::chrono::milliseconds(armed.sleep_ms));
      break;
    case Action::None:
    case Action::Fail:
      break;
  }
  return false;
}

}  // namespace sspar::support::faultpoint
