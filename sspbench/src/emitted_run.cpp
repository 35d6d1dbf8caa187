// emitted-run: the product users run. Each kernel goes through Session ->
// emit, the emitted C is compiled twice with the system gcc (-O2 -fopenmp
// and -O2) into shared objects loaded into this process, and each timed
// operation is one f() call of the OpenMP build, interleaved with the
// serial build's. No analysis happens in the timed loop.
#include <dlfcn.h>

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>

#include "interp/interpreter.h"
#include "kernels.h"
#include "support/text.h"
#include "workloads.h"

namespace sspbench {

namespace {

namespace fs = std::filesystem;
using sspar::support::format;

// Size divisor of the interpreter cross-check.
constexpr int kReducedScale = 256;
// Set-ups per run; setup_s is their median. Each runs gcc twelve times
// (about 0.8 s), so a few slow ones do not move the median.
constexpr int kSetups = 9;

// One compiled build of one kernel, loaded into this process.
class Build {
 public:
  Build() = default;
  ~Build() {
    if (handle_ != nullptr) dlclose(handle_);
  }
  Build(const Build&) = delete;
  Build& operator=(const Build&) = delete;

  bool load(const std::string& path, const Kernel& kernel, std::string* error) {
    handle_ = dlopen(path.c_str(), RTLD_NOW | RTLD_LOCAL);
    if (handle_ == nullptr) return fail(error, dlerror());
    f_ = reinterpret_cast<void (*)()>(dlsym(handle_, "f"));
    if (f_ == nullptr) return fail(error, "no f() in " + path);
    for (const KernelArray& a : kernel.arrays) {
      void* p = dlsym(handle_, a.name.c_str());
      if (p == nullptr) return fail(error, "no array " + a.name + " in " + path);
      arrays_.push_back({p, a.length * (a.is_double ? sizeof(double) : sizeof(int32_t))});
    }
    for (const auto& [name, value] : kernel.scalars) {
      void* p = dlsym(handle_, name.c_str());
      if (p == nullptr) return fail(error, "no scalar " + name + " in " + path);
      const int32_t v = static_cast<int32_t>(value);
      std::memcpy(p, &v, sizeof v);
    }
    return true;
  }

  void set_inputs(const std::vector<ArrayData>& data) {
    for (size_t i = 0; i < arrays_.size(); ++i) {
      auto [dst, bytes] = arrays_[i];
      if (!data[i].ints.empty()) {
        std::memcpy(dst, data[i].ints.data(), bytes);
      } else if (!data[i].doubles.empty()) {
        std::memcpy(dst, data[i].doubles.data(), bytes);
      } else {
        std::memset(dst, 0, bytes);
      }
    }
  }

  void call() const { f_(); }

  // Byte-identical global arrays.
  bool same_arrays(const Build& other) const {
    for (size_t i = 0; i < arrays_.size(); ++i) {
      if (std::memcmp(arrays_[i].first, other.arrays_[i].first, arrays_[i].second) != 0) {
        return false;
      }
    }
    return true;
  }

  const void* array(size_t i) const { return arrays_[i].first; }

 private:
  static bool fail(std::string* error, const std::string& why) {
    *error = why;
    return false;
  }

  void* handle_ = nullptr;
  void (*f_)() = nullptr;
  std::vector<std::pair<void*, size_t>> arrays_;  // address, bytes
};

struct Loaded {
  Kernel kernel;
  Build serial;
  Build omp;
};

struct Setup {
  std::vector<std::unique_ptr<Loaded>> kernels;
  double compile_ms = 0.0;
  int loops = 0, static_parallel = 0, hybrid = 0, serial = 0, annotated = 0;
  double lines = 0.0;  // source lines parsed, reduced-size kernels included
};

// Session -> emit, with spans in a traced run. Rejects kernels that would
// need the runtime checks (hybrid loops are not measured yet).
bool emit_kernel(const Kernel& k, Trace& trace, Setup* setup, std::string* source,
                 std::string* error) {
  sspar::pipeline::Session session(k.source, k.assumptions);
  Trace::Scope root(trace, "setup.session");
  sspar::pipeline::EmitResult emitted = traced_stages(session, trace, root.id(), -1);
  if (!emitted.ok) {
    *error = k.name + " does not analyze";
    return false;
  }
  for (const auto& v : *session.parallelize()) {
    ++setup->loops;
    setup->static_parallel += v.parallel ? 1 : 0;
    setup->hybrid += !v.parallel && v.hybrid ? 1 : 0;
    setup->serial += !v.parallel && !v.hybrid ? 1 : 0;
  }
  if (setup->hybrid > 0) {
    *error = k.name + " has a hybrid loop";
    return false;
  }
  setup->annotated += emitted.annotated;
  setup->lines += count_lines(k.source);
  *source = std::move(emitted.output);
  return true;
}

bool compile(const std::string& c_path, const std::string& so_path, bool openmp, Trace& trace,
             Setup* setup, std::string* error) {
  std::vector<std::string> argv = {"gcc", "-O2"};
  if (openmp) argv.push_back("-fopenmp");
  for (const char* a : {"-fPIC", "-shared", "-Wl,-Bsymbolic", "-o"}) argv.push_back(a);
  argv.push_back(so_path);
  argv.push_back(c_path);
  Trace::Scope span(trace, "emitted.compile");
  const double t0 = now_ms();
  const int rc = run_program(argv, so_path + ".log");
  setup->compile_ms += now_ms() - t0;
  if (rc != 0) {
    *error = format("gcc exited with %d compiling %s (see %s.log)", rc, c_path.c_str(),
                    so_path.c_str());
    return false;
  }
  return true;
}

// The serial build of the reduced-size kernel must leave exactly the
// interpreter's final arrays (C int is 32-bit there, int64 in the oracle).
bool check_against_interpreter(const std::string& name, const std::string& dir, uint64_t seed,
                               Trace& trace, Setup* setup, std::string* error) {
  const Kernel k = make_kernel(name, kReducedScale);
  std::string source;
  Setup scratch;  // verdict counts of the reduced kernel are not reported
  if (!emit_kernel(k, trace, &scratch, &source, error)) return false;
  setup->lines += scratch.lines;
  const std::string c_path = dir + "/" + name + "_small.c";
  std::ofstream(c_path) << source;
  const std::string so_path = dir + "/" + name + "_small.so";
  if (!compile(c_path, so_path, false, trace, setup, error)) return false;
  Build build;
  if (!build.load(fs::absolute(so_path).string(), k, error)) return false;
  const std::vector<ArrayData> inputs = make_inputs(k, seed);
  build.set_inputs(inputs);
  build.call();

  sspar::pipeline::Session session(k.source, k.assumptions);
  session.parse();
  sspar::interp::Interpreter interp(*session.program());
  for (const auto& [n, v] : k.scalars) interp.set_scalar(n, v);
  for (size_t i = 0; i < k.arrays.size(); ++i) {
    const KernelArray& a = k.arrays[i];
    if (!a.input) continue;
    if (a.is_double) {
      interp.set_array_double(a.name, inputs[i].doubles);
    } else {
      interp.set_array_int(a.name,
                           std::vector<int64_t>(inputs[i].ints.begin(), inputs[i].ints.end()));
    }
  }
  interp.run("f");
  for (size_t i = 0; i < k.arrays.size(); ++i) {
    const KernelArray& a = k.arrays[i];
    bool same = true;
    if (a.is_double) {
      const std::vector<double>& want = interp.array_double(a.name);
      same = std::memcmp(want.data(), build.array(i), a.length * sizeof(double)) == 0;
    } else {
      const std::vector<int64_t>& want = interp.array_int(a.name);
      const auto* got = static_cast<const int32_t*>(build.array(i));
      for (size_t j = 0; j < a.length && same; ++j) same = want[j] == got[j];
    }
    if (!same) {
      *error = name + ": serial build disagrees with the interpreter on " + a.name;
      return false;
    }
  }
  return true;
}

std::unique_ptr<Setup> set_up(const RunConfig& config, int index, Trace& trace,
                              std::string* error) {
  auto setup = std::make_unique<Setup>();
  const std::string dir = config.workdir + "/emitted" + std::to_string(index);
  fs::create_directories(dir);
  for (const std::string& name : kernel_names()) {
    auto loaded = std::make_unique<Loaded>();
    loaded->kernel = make_kernel(name, 1);
    std::string source;
    if (!emit_kernel(loaded->kernel, trace, setup.get(), &source, error)) return nullptr;
    const std::string c_path = dir + "/" + name + ".c";
    std::ofstream(c_path) << source;
    const std::string serial_so = fs::absolute(dir + "/" + name + "_serial.so").string();
    const std::string omp_so = fs::absolute(dir + "/" + name + "_omp.so").string();
    if (!compile(c_path, serial_so, false, trace, setup.get(), error) ||
        !compile(c_path, omp_so, true, trace, setup.get(), error) ||
        !loaded->serial.load(serial_so, loaded->kernel, error) ||
        !loaded->omp.load(omp_so, loaded->kernel, error)) {
      return nullptr;
    }
    const std::vector<ArrayData> inputs = make_inputs(loaded->kernel, config.seed);
    loaded->serial.set_inputs(inputs);
    loaded->omp.set_inputs(inputs);
    // Warm the pages (and the OpenMP thread pool) before timing.
    loaded->serial.call();
    loaded->omp.call();
    if (!check_against_interpreter(name, dir, config.seed, trace, setup.get(), error)) {
      return nullptr;
    }
    setup->kernels.push_back(std::move(loaded));
  }
  return setup;
}

}  // namespace

Result run_emitted_run(const RunConfig& config, Trace& trace) {
  Result result;
  std::unique_ptr<Setup> setup;
  std::vector<double> setup_ms, compile_ms;
  double parsed_lines = 0.0;
  for (int s = 0; s < kSetups; ++s) {
    setup.reset();
    std::string error;
    const double t0 = now_ms();
    setup = set_up(config, s, trace, &error);
    setup_ms.push_back(now_ms() - t0);
    if (!setup) {
      std::fprintf(stderr, "sspbench: emitted-run set-up failed: %s\n", error.c_str());
      result.correct = false;
      return result;
    }
    compile_ms.push_back(setup->compile_ms);
    parsed_lines += setup->lines;
  }

  const size_t nk = setup->kernels.size();
  std::vector<std::vector<double>> serial_ms(nk), omp_ms(nk);
  std::vector<double> traced_ms, untraced_ms;
  const double start = now_ms();
  for (int64_t op = 0; now_ms() - start < config.seconds * 1000.0; ++op) {
    const size_t k = static_cast<size_t>(op % static_cast<int64_t>(nk));
    Loaded& l = *setup->kernels[k];
    const bool traced = traced_op(trace, op, static_cast<int64_t>(nk));
    const std::string& name = l.kernel.name;
    auto timed = [&](const Build& build, const char* kind) {
      const int span = traced ? trace.begin("emitted." + std::string(kind) + "." + name, -1, op)
                              : -1;
      const double t0 = now_ms();
      build.call();
      const double ms = now_ms() - t0;
      trace.end(span);
      return ms;
    };
    // Alternate which build runs first so neither always meets a warm cache.
    double s_ms = 0.0, o_ms = 0.0;
    if ((op / static_cast<int64_t>(nk)) % 2 == 0) {
      s_ms = timed(l.serial, "serial");
      o_ms = timed(l.omp, "omp");
    } else {
      o_ms = timed(l.omp, "omp");
      s_ms = timed(l.serial, "serial");
    }
    ++result.attempted;
    if (!l.omp.same_arrays(l.serial)) ++result.failed;
    serial_ms[k].push_back(s_ms);
    omp_ms[k].push_back(o_ms);
    (traced ? traced_ms : untraced_ms).push_back(o_ms);
  }

  auto& m = result.metrics;
  std::vector<double> p50, p90, speedups;
  for (size_t k = 0; k < nk; ++k) {
    const std::string& name = setup->kernels[k]->kernel.name;
    const double s = median(serial_ms[k]);
    const double o = median(omp_ms[k]);
    p50.push_back(o);
    p90.push_back(percentile(omp_ms[k], 0.9));
    speedups.push_back(s / o);
    result.notes.push_back(format(
        "# kernel %-8s calls=%zu serial_ms_p50=%.3f omp_ms_p50=%.3f omp_ms_p90=%.3f "
        "speedup=%.3f",
        name.c_str(), omp_ms[k].size(), s, o, p90.back(), s / o));
  }
  if (!trace.enabled()) {
    m["setup_s"] = median(setup_ms) / 1000.0;
    // One f() call of each kernel at its median time.
    double round_ms = 0.0;
    for (double ms : p50) round_ms += ms;
    m["throughput_per_s"] = static_cast<double>(nk) / (round_ms / 1000.0);
    m["latency_ms_p50"] = geomean(p50);
    m["latency_ms_p90"] = geomean(p90);
    m["speedup"] = geomean(speedups);
    m["static_parallel_share"] = static_cast<double>(setup->static_parallel) / setup->loops;
    m["peak_rss_mb"] = peak_rss_mb();
  } else {
    const Trace::SelfTimes self = trace.self_times();
    stage_metrics(self, parsed_lines, m);
    m["core.static_parallel"] = setup->static_parallel;
    m["core.hybrid"] = setup->hybrid;
    m["core.serial"] = setup->serial;
    m["transform.annotated_loops"] = setup->annotated;
    m["emitted.compile_s"] = median(compile_ms) / 1000.0;
    std::vector<double> serial_all, omp_all;
    for (size_t k = 0; k < nk; ++k) {
      const std::string& name = setup->kernels[k]->kernel.name;
      const double s = Trace::mean_self_ms(self, "emitted.serial." + name);
      const double o = Trace::mean_self_ms(self, "emitted.omp." + name);
      m["emitted.serial_ms." + name] = s;
      m["emitted.omp_ms." + name] = o;
      serial_all.push_back(s);
      omp_all.push_back(o);
    }
    m["emitted.serial_ms"] = geomean(serial_all);
    m["emitted.omp_ms"] = geomean(omp_all);
    m["trace.overhead_ms"] = median(traced_ms) - median(untraced_ms);
    m["trace.spans"] = static_cast<double>(trace.spans().size());
  }
  return result;
}

}  // namespace sspbench
