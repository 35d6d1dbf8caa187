// In-memory span recorder for the traced run.
//
// Spans are recorded by the benchmark around calls into each layer's public
// API (a span never comes from inside the library). Each span has a name,
// start and end times, the span that caused it, and the id of the operation
// it belongs to. They stay in memory until the run ends, then go to a Chrome
// trace-event file. Single-threaded: only the benchmark's main thread
// records.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace sspbench {

double now_ms();  // steady clock, milliseconds

struct Span {
  std::string name;
  double start_ms = 0.0;
  double end_ms = 0.0;
  int parent = -1;  // index into the span list, -1 for a root
  int64_t op = -1;  // operation id shared by the spans of one operation
};

class Trace {
 public:
  explicit Trace(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }

  // Opens a span; returns its id, or -1 when tracing is off.
  int begin(const std::string& name, int parent = -1, int64_t op = -1);
  void end(int id);

  // RAII span.
  class Scope {
   public:
    Scope(Trace& trace, const std::string& name, int parent = -1, int64_t op = -1)
        : trace_(trace), id_(trace.begin(name, parent, op)) {}
    ~Scope() { trace_.end(id_); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    int id() const { return id_; }

   private:
    Trace& trace_;
    int id_;
  };

  const std::vector<Span>& spans() const { return spans_; }

  // Per span name: the total of (duration - the part of it covered by its
  // children) over every span of that name, and the number of such spans.
  struct SelfTime {
    double total_ms = 0.0;
    int count = 0;
    double mean_ms() const { return count > 0 ? total_ms / count : 0.0; }
  };
  using SelfTimes = std::map<std::string, SelfTime>;
  SelfTimes self_times() const;
  // Mean self time of the spans called `name` (0 when there are none).
  static double mean_self_ms(const SelfTimes& times, const std::string& name);

  // Chrome trace-event JSON ("X" events, microseconds). False on I/O error.
  bool write_chrome(const std::string& path) const;

 private:
  bool enabled_;
  std::vector<Span> spans_;
};

}  // namespace sspbench
