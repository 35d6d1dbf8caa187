// Long-lived analysis daemon behind `sspar-analyze --serve`.
//
// Listens on a Unix-domain stream socket and answers newline-delimited JSON
// requests (see server/protocol.h). Every connection gets its own handler
// thread; every analyze request runs driver::run_with_store against the
// shared persistent store, so concurrent clients reuse each other's function
// summaries across requests — the warm-cache economics of the batch driver,
// kept warm for the lifetime of the daemon instead of one process run.
//
// Threading model: one accept thread polls the listen socket plus an
// internal self-pipe (so stop() can wake it without races); each accepted
// connection is served by a dedicated thread reading request lines until the
// peer disconnects. Finished handler threads are reaped by the accept loop
// (join + close), so a long-lived daemon's thread count tracks its LIVE
// connections, not its connection history. Analysis parallelism *within* a
// request is the batch driver's own lanes, bounded by
// ServerOptions::threads. A client that disconnects mid-request or
// mid-response never takes the server down: writes use MSG_NOSIGNAL and
// failures just close that connection.
//
// Resilience (see server/protocol.h for the error codes):
//
//   * Admission control — at most max_connections live connections; excess
//     accepts get one E_OVERLOADED response and are closed by the accept
//     thread itself (load shedding: cost to the daemon is one write, never
//     a thread).
//   * Read timeout — a connection holding a PARTIAL request line that stays
//     silent for read_timeout_ms gets E_TIMEOUT and is closed (slowloris
//     defense). Idle connections BETWEEN requests wait forever.
//   * Write timeout — a peer that stops draining its response for
//     write_timeout_ms forfeits the connection.
//   * Request deadline — an analyze that runs past request_timeout_ms
//     answers E_DEADLINE instead of its report.
//   * Request-size cap — a request line over max_request_bytes gets
//     E_REQ_TOO_LARGE and the connection is closed (the buffer never grows
//     unboundedly).
//   * Exception isolation — a throwing analyze yields E_INTERNAL; the
//     connection and the daemon keep serving.
//
// Shutdown: stop() — triggered by a "shutdown" request, a SIGTERM/SIGINT
// forwarded by the CLI, or the owner — closes the listener, joins all
// connection threads, flushes the store one final time, and unlinks the
// socket path.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/analyzer.h"
#include "store/summary_store.h"

namespace sspar::server {

class SessionManager;

struct ServerOptions {
  std::string socket_path;
  // Analysis threads per request (BatchOptions::threads semantics: 0 = one
  // lane per logical core). Requests may override with their own "threads".
  unsigned threads = 1;
  core::AnalyzerOptions analyzer;
  // Optional persistent store, owned by the caller and already open()ed.
  // Shared by every request; flushed after each absorb and at stop().
  store::SummaryStore* store = nullptr;
  // --- Resilience knobs (appended so existing aggregate initializers keep
  // meaning what they always did) ---
  // Live-connection cap; excess accepts are shed with E_OVERLOADED.
  size_t max_connections = 64;
  // Deadline for one analyze request; 0 = no deadline. Over-deadline
  // requests answer E_DEADLINE instead of their report.
  int request_timeout_ms = 0;
  // Max silence while a PARTIAL request line is pending (slowloris defense);
  // <= 0 disables. Idle connections between requests are never timed out.
  int read_timeout_ms = 10000;
  // Max stall while a response waits for the peer to drain; <= 0 disables.
  int write_timeout_ms = 10000;
  // Request-line byte cap -> E_REQ_TOO_LARGE + close.
  size_t max_request_bytes = 8u << 20;
  // --- Incremental sessions (open_session / update / close_session) ---
  // LRU cap on warm sessions; opening past the cap evicts the least
  // recently used one.
  size_t max_sessions = 8;
  // Idle GC: sessions untouched for this long are purged by the accept
  // loop's tick (and refused at access time); <= 0 disables.
  int session_idle_ms = 0;
};

class AnalysisServer {
 public:
  explicit AnalysisServer(ServerOptions options);
  ~AnalysisServer();

  AnalysisServer(const AnalysisServer&) = delete;
  AnalysisServer& operator=(const AnalysisServer&) = delete;

  // Binds the socket and starts the accept thread. False (with a reason in
  // `error`) when the path cannot be bound — e.g. a live daemon already owns
  // it. A dead socket file from a crashed run is detected (connect fails)
  // and replaced.
  bool start(std::string* error);

  // Blocks until stop() is called (by a shutdown request, a signal handler
  // via request_stop(), or another thread).
  void wait();

  // Idempotent: wakes the accept thread, joins every connection, flushes the
  // store, unlinks the socket.
  void stop();

  // Async-signal-safe stop trigger: writes one byte to the self-pipe. The
  // accept thread then runs the orderly stop() on its own stack. Safe to
  // call from a SIGTERM/SIGINT handler.
  void request_stop();

  bool running() const { return running_.load(); }
  // Total requests answered (all methods, including errors).
  uint64_t requests() const { return requests_.load(); }
  const std::string& socket_path() const { return options_.socket_path; }

  // Cumulative resilience counters for the daemon's lifetime (also reported
  // by the "stats" method). These are SERVER totals — the per-run values in
  // a report's stats.resilience stay deterministic and are not affected by
  // other clients' behavior.
  uint64_t shed() const { return shed_.load(); }
  uint64_t timed_out() const { return timed_out_.load(); }
  uint64_t recovered() const { return recovered_.load(); }

 private:
  // One live connection: the handler thread flags `done` and shuts the
  // socket down on exit but never closes the fd — the accept loop (or
  // stop()) joins the thread first and closes after, so the fd number can
  // not be reused while any code still refers to it.
  struct Connection {
    int fd = -1;
    std::thread thread;
    std::atomic<bool> done{false};
  };

  void accept_loop();
  void serve_connection(Connection* conn);
  // Joins and closes every finished connection; returns the live count.
  size_t reap_connections();
  // One request line -> one response line (no trailing newline). Sets
  // `shutdown` when the request asked the server to exit.
  std::string handle_line(const std::string& line, bool* shutdown);
  // The session-family handlers (split out of handle_line).
  std::string handle_open_session(const struct Request& request);
  std::string handle_update(const struct Request& request);
  std::string handle_close_session(const struct Request& request);
  bool send_with_timeout(int fd, std::string_view bytes);

  ServerOptions options_;
  int listen_fd_ = -1;
  int wake_pipe_[2] = {-1, -1};
  std::atomic<bool> running_{false};
  std::atomic<bool> stop_requested_{false};
  std::atomic<uint64_t> requests_{0};
  std::atomic<uint64_t> shed_{0};       // connections refused by the cap
  std::atomic<uint64_t> timed_out_{0};  // read timeouts + missed deadlines
  std::atomic<uint64_t> recovered_{0};  // analyze exceptions answered E_INTERNAL
  std::thread accept_thread_;
  std::mutex connections_mutex_;
  std::vector<std::unique_ptr<Connection>> connections_;
  std::mutex stop_mutex_;  // serializes stop() callers
  // Warm incremental sessions (open_session / update / close_session).
  std::unique_ptr<SessionManager> sessions_;
};

}  // namespace sspar::server
