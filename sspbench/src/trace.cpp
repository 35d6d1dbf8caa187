#include "trace.h"

#include <algorithm>
#include <chrono>
#include <fstream>

#include "support/text.h"

namespace sspbench {

double now_ms() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

int Trace::begin(const std::string& name, int parent, int64_t op) {
  if (!enabled_) return -1;
  spans_.push_back(Span{name, now_ms(), 0.0, parent, op});
  return static_cast<int>(spans_.size()) - 1;
}

void Trace::end(int id) {
  if (id >= 0) spans_[id].end_ms = now_ms();
}

Trace::SelfTimes Trace::self_times() const {
  std::vector<std::vector<int>> children(spans_.size());
  for (size_t i = 0; i < spans_.size(); ++i) {
    if (spans_[i].parent >= 0) children[spans_[i].parent].push_back(static_cast<int>(i));
  }
  SelfTimes out;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    // Union of the children's intervals, clipped to this span.
    std::vector<std::pair<double, double>> iv;
    for (int c : children[i]) {
      iv.emplace_back(std::max(s.start_ms, spans_[c].start_ms),
                      std::min(s.end_ms, spans_[c].end_ms));
    }
    std::sort(iv.begin(), iv.end());
    double covered = 0.0, reach = s.start_ms;
    for (auto [lo, hi] : iv) {
      lo = std::max(lo, reach);
      if (hi > lo) {
        covered += hi - lo;
        reach = hi;
      }
    }
    SelfTime& t = out[s.name];
    t.total_ms += (s.end_ms - s.start_ms) - covered;
    ++t.count;
  }
  return out;
}

double Trace::mean_self_ms(const SelfTimes& times, const std::string& name) {
  auto it = times.find(name);
  return it == times.end() ? 0.0 : it->second.mean_ms();
}

bool Trace::write_chrome(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  const double origin = spans_.empty() ? 0.0 : spans_.front().start_ms;
  out << "{\"traceEvents\":[\n";
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << sspar::support::format(
        "{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,"
        "\"args\":{\"id\":%zu,\"parent\":%d,\"op\":%lld}}%s\n",
        s.name.c_str(), (s.start_ms - origin) * 1000.0, (s.end_ms - s.start_ms) * 1000.0, i,
        s.parent, static_cast<long long>(s.op), i + 1 < spans_.size() ? "," : "");
  }
  out << "]}\n";
  return static_cast<bool>(out);
}

}  // namespace sspbench
