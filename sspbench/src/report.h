// Statistics helpers, host context and the result line.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace sspbench {

// Outcome of one run.
struct Result {
  bool correct = true;   // every setup-time check passed
  int64_t attempted = 0;
  int64_t failed = 0;
  std::map<std::string, double> metrics;
  // Extra lines printed ahead of the result (per-kernel rows and the like).
  std::vector<std::string> notes;
};

// Linear-interpolation percentile (q in [0, 1]); 0 for an empty sample.
double percentile(std::vector<double> values, double q);
double median(std::vector<double> values);
double mean(const std::vector<double>& values);
// Mean of the values between the `cut` and 1-`cut` percentiles.
double trimmed_mean(std::vector<double> values, double cut);
double geomean(const std::vector<double>& values);

// Peak resident set of this process so far, in MiB.
double peak_rss_mb();

// Host and build facts recorded with every result.
struct HostContext {
  int nproc = 0;     // CPUs this process may run on
  int lanes = 0;     // analysis threads (batch) and OpenMP threads (kernels)
  std::string gcc;   // `gcc -dumpfullversion`
  uint64_t seed = 0;
  std::string workload;
  bool trace = false;
  bool ndebug = false;
  bool optimized = false;
  bool faultpoints = false;
};
HostContext detect_host();  // nproc and the build flags; the caller fills the rest
// Reasons this build should not be trusted for timing (empty when fine).
std::vector<std::string> host_flags(const HostContext& host);
std::string host_json(const HostContext& host);

// Prints notes, then the one-line JSON result, whose metrics map each name
// to its value. BENCHMARK.json holds the metric list and units; run.py
// checks the names against it and adds the units. Returns false (and prints
// nothing) when a value is not finite.
bool print_result(const Result& result);

// Runs a program (PATH lookup), waits for it, and returns its exit status;
// stdout+stderr go to `log_path`. -1 when it cannot be started.
int run_program(const std::vector<std::string>& argv, const std::string& log_path);

}  // namespace sspbench
