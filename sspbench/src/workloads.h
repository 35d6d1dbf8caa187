// The three workloads. Each runs a closed loop with one client for
// `seconds` after its set-up, checks every operation outside the timed
// region, and fills a Result with the end-to-end metrics (untraced run) or
// the per-layer metrics (traced run).
#pragma once

#include <cstdint>
#include <map>
#include <string>

#include "pipeline/session.h"
#include "report.h"
#include "trace.h"

namespace sspbench {

struct RunConfig {
  uint64_t seed = 1;
  double seconds = 10.0;
  int lanes = 1;         // analysis threads / OpenMP threads: nproc
  std::string workdir;   // scratch files of this run (removed at exit)
};

// In a traced run every other operation is traced (the parity flips each
// (even) period, so traced and untraced operations see the same inputs); the
// difference of their medians is the tracing overhead.
inline bool traced_op(const Trace& trace, int64_t op, int64_t period) {
  return trace.enabled() && ((op / period) + op) % 2 == 0;
}

// Runs every Session stage (parse .. emit) with one span per stage call
// under `parent`; an empty result when the source does not parse.
sspar::pipeline::EmitResult traced_stages(sspar::pipeline::Session& session, Trace& trace,
                                          int parent, int64_t op);
// The frontend/core/transform per-layer metrics from those stage spans;
// `lines` is the number of source lines parsed under them.
void stage_metrics(const Trace::SelfTimes& self, double lines,
                   std::map<std::string, double>& metrics);
double count_lines(const std::string& source);

Result run_batch_cold(const RunConfig& config, Trace& trace);
Result run_edit_stream(const RunConfig& config, Trace& trace);
Result run_emitted_run(const RunConfig& config, Trace& trace);

}  // namespace sspbench
