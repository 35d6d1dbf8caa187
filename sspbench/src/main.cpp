// sspbench: the sspar benchmark binary.
//
//   sspbench --workload batch-cold|edit-stream|emitted-run --seed N
//            --seconds S --trace 0|1 [--workdir DIR] [--trace-out FILE]
//
// Prints a context line (host, build flags, seed), any per-kernel rows, and
// as its last line one JSON object {correct, attempted, failed, metrics}
// whose metrics map names to values; run.py adds the units from
// BENCHMARK.json. With --trace 0 the metrics are the end-to-end ones, with
// --trace 1 the per-layer ones (and the spans go to --trace-out).
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>

#include "report.h"
#include "workloads.h"

using namespace sspbench;

namespace {

int usage(const char* why) {
  std::fprintf(stderr,
               "sspbench: %s\nusage: sspbench --workload batch-cold|edit-stream|emitted-run "
               "--seed N --seconds S --trace 0|1 [--workdir DIR] [--trace-out FILE]\n",
               why);
  return 2;
}

bool parse_uint(const char* text, uint64_t* out) {
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(text, &end, 10);
  if (errno != 0 || end == text || *end != '\0' || text[0] == '-') return false;
  *out = v;
  return true;
}

std::string gcc_version(const std::string& workdir) {
  const std::string log = workdir + "/gcc-version.txt";
  if (run_program({"gcc", "-dumpfullversion"}, log) != 0) return "unavailable";
  std::FILE* f = std::fopen(log.c_str(), "r");
  char buf[64] = {0};
  if (f != nullptr) {
    if (std::fgets(buf, sizeof buf, f) == nullptr) buf[0] = '\0';
    std::fclose(f);
  }
  std::string v(buf);
  while (!v.empty() && (v.back() == '\n' || v.back() == '\r')) v.pop_back();
  return v;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload, workdir, trace_out;
  uint64_t seed = 0, seconds = 0, trace_flag = 2;
  bool have_seed = false, have_seconds = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) return usage(("missing value for " + arg).c_str());
    const char* value = argv[++i];
    if (arg == "--workload") {
      workload = value;
    } else if (arg == "--seed") {
      have_seed = parse_uint(value, &seed);
      if (!have_seed) return usage("bad --seed");
    } else if (arg == "--seconds") {
      have_seconds = parse_uint(value, &seconds) && seconds > 0;
      if (!have_seconds) return usage("bad --seconds");
    } else if (arg == "--trace") {
      if (!parse_uint(value, &trace_flag) || trace_flag > 1) return usage("bad --trace");
    } else if (arg == "--workdir") {
      workdir = value;
    } else if (arg == "--trace-out") {
      trace_out = value;
    } else {
      return usage(("unknown argument " + arg).c_str());
    }
  }
  if (workload.empty() || !have_seed || !have_seconds || trace_flag > 1) {
    return usage("--workload, --seed, --seconds and --trace are required");
  }
  Result (*run)(const RunConfig&, Trace&) = nullptr;
  if (workload == "batch-cold") run = run_batch_cold;
  if (workload == "edit-stream") run = run_edit_stream;
  if (workload == "emitted-run") run = run_emitted_run;
  if (run == nullptr) return usage(("unknown workload " + workload).c_str());

  // One analysis lane and one OpenMP thread per CPU. A speedup measured with
  // more threads than CPUs says nothing about the code, so an inherited
  // OMP_NUM_THREADS above nproc is refused outright.
  HostContext host = detect_host();
  host.lanes = host.nproc;
  if (const char* omp = std::getenv("OMP_NUM_THREADS")) {
    uint64_t n = 0;
    if (parse_uint(omp, &n) && n > static_cast<uint64_t>(host.nproc)) {
      std::fprintf(stderr, "sspbench: OMP_NUM_THREADS=%s exceeds the %d available CPUs\n",
                   omp, host.nproc);
      return 2;
    }
  }
  // The emitted kernels' OpenMP runtime reads this when it is loaded.
  setenv("OMP_NUM_THREADS", std::to_string(host.lanes).c_str(), 1);

  RunConfig config;
  config.seed = seed;
  config.seconds = static_cast<double>(seconds);
  config.lanes = host.lanes;
  config.workdir = workdir.empty() ? ".bench_build/run-" + std::to_string(getpid()) : workdir;
  std::error_code ec;
  std::filesystem::create_directories(config.workdir, ec);
  if (ec) {
    std::fprintf(stderr, "sspbench: cannot create %s: %s\n", config.workdir.c_str(),
                 ec.message().c_str());
    return 1;
  }
  // gcc's temporary files stay inside the work directory too.
  setenv("TMPDIR", std::filesystem::absolute(config.workdir).c_str(), 1);

  host.gcc = gcc_version(config.workdir);
  host.seed = seed;
  host.workload = workload;
  host.trace = trace_flag == 1;
  for (const std::string& flag : host_flags(host)) {
    std::fprintf(stderr, "sspbench: warning: %s build; timings are not representative\n",
                 flag.c_str());
  }

  Trace trace(trace_flag == 1);
  Result result = run(config, trace);
  std::filesystem::remove_all(config.workdir, ec);
  if (trace.enabled() && !trace_out.empty() && !trace.write_chrome(trace_out)) {
    std::fprintf(stderr, "sspbench: cannot write %s\n", trace_out.c_str());
  }
  if (!result.correct || result.attempted == 0) {
    std::fprintf(stderr, "sspbench: %s did not complete correctly\n", workload.c_str());
    return 1;
  }
  std::printf("# context %s\n", host_json(host).c_str());
  if (!print_result(result)) return 1;
  return result.failed == 0 ? 0 : 1;
}
