#include "report.h"

#include <fcntl.h>
#include <sched.h>
#include <spawn.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <numeric>
#include <sstream>

extern char** environ;

namespace sspbench {

double percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (values[hi] - values[lo]) * (pos - static_cast<double>(lo));
}

double median(std::vector<double> values) { return percentile(std::move(values), 0.5); }

double mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  return std::accumulate(values.begin(), values.end(), 0.0) / static_cast<double>(values.size());
}

double trimmed_mean(std::vector<double> values, double cut) {
  std::sort(values.begin(), values.end());
  const size_t drop = static_cast<size_t>(cut * static_cast<double>(values.size()));
  return mean(std::vector<double>(values.begin() + static_cast<std::ptrdiff_t>(drop),
                                  values.end() - static_cast<std::ptrdiff_t>(drop)));
}

double geomean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double log_sum = 0.0;
  for (double v : values) log_sum += std::log(v);
  return std::exp(log_sum / static_cast<double>(values.size()));
}

double peak_rss_mb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

HostContext detect_host() {
  HostContext host;
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    host.nproc = CPU_COUNT(&set);
  } else {
    host.nproc = static_cast<int>(sysconf(_SC_NPROCESSORS_ONLN));
  }
#ifdef NDEBUG
  host.ndebug = true;
#endif
#ifdef __OPTIMIZE__
  host.optimized = true;
#endif
#ifdef SSPAR_FAULTPOINTS
  host.faultpoints = true;
#endif
  return host;
}

std::vector<std::string> host_flags(const HostContext& host) {
  std::vector<std::string> flags;
  if (host.faultpoints) flags.push_back("faultpoints-on");
  if (!host.optimized) flags.push_back("unoptimized");
  if (!host.ndebug) flags.push_back("asserts-on");
  return flags;
}

namespace {

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string json_number(double v) {
  char buf[64];
  auto [end, ec] = std::to_chars(buf, buf + sizeof(buf), v);
  return ec == std::errc() ? std::string(buf, end) : "0";
}

}  // namespace

std::string host_json(const HostContext& host) {
  std::ostringstream o;
  o << "{\"nproc\": " << host.nproc << ", \"lanes\": " << host.lanes
    << ", \"omp_threads\": " << host.lanes << ", \"gcc\": " << json_string(host.gcc)
    << ", \"seed\": " << host.seed << ", \"workload\": " << json_string(host.workload)
    << ", \"trace\": " << (host.trace ? "true" : "false")
    << ", \"NDEBUG\": " << (host.ndebug ? "true" : "false")
    << ", \"__OPTIMIZE__\": " << (host.optimized ? "true" : "false")
    << ", \"SSPAR_FAULTPOINTS\": " << (host.faultpoints ? "true" : "false")
    << ", \"flagged\": [";
  std::vector<std::string> flags = host_flags(host);
  for (size_t i = 0; i < flags.size(); ++i) o << (i ? ", " : "") << json_string(flags[i]);
  o << "]}";
  return o.str();
}

bool print_result(const Result& result) {
  std::string metrics;
  for (const auto& [name, value] : result.metrics) {
    if (!std::isfinite(value)) {
      std::fprintf(stderr, "sspbench: metric %s is not finite\n", name.c_str());
      return false;
    }
    if (!metrics.empty()) metrics += ", ";
    metrics += json_string(name) + ": " + json_number(value);
  }
  for (const std::string& note : result.notes) std::printf("%s\n", note.c_str());
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, \"metrics\": {%s}}\n",
              result.correct && result.failed == 0 ? "true" : "false",
              static_cast<long long>(result.attempted), static_cast<long long>(result.failed),
              metrics.c_str());
  std::fflush(stdout);
  return true;
}

int run_program(const std::vector<std::string>& argv, const std::string& log_path) {
  std::vector<char*> args;
  for (const std::string& a : argv) args.push_back(const_cast<char*>(a.c_str()));
  args.push_back(nullptr);
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_addopen(&actions, STDOUT_FILENO, log_path.c_str(),
                                   O_WRONLY | O_CREAT | O_APPEND, 0644);
  posix_spawn_file_actions_adddup2(&actions, STDOUT_FILENO, STDERR_FILENO);
  posix_spawn_file_actions_addopen(&actions, STDIN_FILENO, "/dev/null", O_RDONLY, 0);
  pid_t pid = -1;
  const int rc = posix_spawnp(&pid, args[0], &actions, nullptr, args.data(), environ);
  posix_spawn_file_actions_destroy(&actions);
  if (rc != 0) return -1;
  int status = 0;
  while (waitpid(pid, &status, 0) < 0) {
    if (errno != EINTR) return -1;
  }
  return WIFEXITED(status) ? WEXITSTATUS(status) : 128 + WTERMSIG(status);
}

}  // namespace sspbench
