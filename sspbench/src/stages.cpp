#include <algorithm>

#include "workloads.h"

namespace sspbench {

sspar::pipeline::EmitResult traced_stages(sspar::pipeline::Session& session, Trace& trace,
                                          int parent, int64_t op) {
  {
    Trace::Scope s(trace, "frontend.parse", parent, op);
    if (!session.parse()) return {};
  }
  {
    Trace::Scope s(trace, "core.analyze", parent, op);
    session.analyze();
  }
  {
    Trace::Scope s(trace, "core.parallelize", parent, op);
    session.parallelize();
  }
  {
    Trace::Scope s(trace, "transform.annotate", parent, op);
    session.annotate();
  }
  Trace::Scope s(trace, "transform.emit", parent, op);
  return session.emit();
}

void stage_metrics(const Trace::SelfTimes& self, double lines,
                   std::map<std::string, double>& m) {
  m["frontend.parse_ms"] = Trace::mean_self_ms(self, "frontend.parse");
  auto parse = self.find("frontend.parse");
  if (parse != self.end() && parse->second.total_ms > 0.0) {
    m["frontend.lines_per_s"] = lines / (parse->second.total_ms / 1000.0);
  }
  m["core.analyze_ms"] = Trace::mean_self_ms(self, "core.analyze");
  m["core.parallelize_ms"] = Trace::mean_self_ms(self, "core.parallelize");
  m["transform.annotate_ms"] = Trace::mean_self_ms(self, "transform.annotate");
  m["transform.emit_ms"] = Trace::mean_self_ms(self, "transform.emit");
}

double count_lines(const std::string& source) {
  return static_cast<double>(std::count(source.begin(), source.end(), '\n'));
}

}  // namespace sspbench
