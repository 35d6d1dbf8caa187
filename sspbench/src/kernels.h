// The emitted-run kernels: mini-C programs whose subscripted-subscript loops
// sspar proves parallel statically, scaled to arrays in the millions.
//
// Every kernel's f() is a pure function of its input arrays: it fills its
// index arrays from the inputs, then runs the consumer loops, so repeated
// calls leave identical bytes and any two builds can be compared after any
// number of calls.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace sspbench {

struct KernelArray {
  std::string name;
  bool is_double = false;
  size_t length = 0;
  // Inputs are seeded: ints uniform in [lo, hi], doubles uniform in [0, 1).
  // Every other array starts zeroed.
  bool input = false;
  int64_t lo = 0;
  int64_t hi = 0;
};

struct Kernel {
  std::string name;
  std::string source;  // mini-C with entry function f()
  std::vector<std::pair<std::string, int64_t>> scalars;  // concrete values
  std::vector<std::pair<std::string, int64_t>> assumptions;
  std::vector<KernelArray> arrays;  // every global array
};

// The kernels, in run order (their per-kernel metrics are per-layer metrics
// named emitted.serial_ms.<kernel> / emitted.omp_ms.<kernel>).
const std::vector<std::string>& kernel_names();

// `scale` divides the problem size: 1 is the timed size, larger values give
// the reduced size the interpreter check runs at.
Kernel make_kernel(const std::string& name, int scale);

// Seeded contents of one array: one vector is filled for an input, neither
// for an array that starts zeroed.
struct ArrayData {
  std::vector<int32_t> ints;
  std::vector<double> doubles;
};
std::vector<ArrayData> make_inputs(const Kernel& kernel, uint64_t seed);

}  // namespace sspbench
