#include "kernels.h"

#include <stdexcept>

#include "gen.h"
#include "support/text.h"

namespace sspbench {

using sspar::support::format;

namespace {

// NPB CG: CSR row pointer filled by a prefix sum over bounded row lengths
// (8..32 from the seeded weights), the monotonic values fill, then an SpMV
// time-step loop whose row loop runs in parallel inside a serial time loop.
// The gathered vector (512 KiB) fits in a core's L2 cache: at the size of
// the cache, the serial time swung by a sixth from run to run with the
// physical pages the process happened to get.
Kernel cg(int scale) {
  const size_t n = 65536 / scale;
  Kernel k;
  k.name = "cg";
  k.scalars = {{"n", static_cast<int64_t>(n)}, {"niter", scale == 1 ? 4 : 2}};
  k.assumptions = {{"n", 1}, {"niter", 1}};
  k.arrays = {{"w", false, n, true, 0, 99},          {"rowlen", false, n},
              {"rowstr", false, n + 1},              {"colidx", false, 32 * n, true, 0,
                                                      static_cast<int64_t>(n) - 1},
              {"a", true, 32 * n},                    {"x", true, n},
              {"y", true, n}};
  k.source = format(R"(int n;
int niter;
int w[%zu];
int rowlen[%zu];
int rowstr[%zu];
int colidx[%zu];
double a[%zu];
double x[%zu];
double y[%zu];
void f(void) {
  for (int i = 0; i < n; i++) {
    rowlen[i] = 8 + (w[i] > 49 ? 8 : 0) + (w[i] > 89 ? 16 : 0);
  }
  rowstr[0] = 0;
  for (int i = 1; i < n + 1; i++) {
    rowstr[i] = rowstr[i-1] + rowlen[i-1];
  }
  for (int j = 0; j < n; j++) {
    for (int k = rowstr[j]; k < rowstr[j+1]; k++) {
      a[k] = 0.5 + (k - rowstr[j]) * 0.125;
    }
  }
  for (int i = 0; i < n; i++) {
    x[i] = 1.0;
  }
  for (int t = 0; t < niter; t++) {
    for (int j = 0; j < n; j++) {
      double s = 0.0;
      for (int k = rowstr[j]; k < rowstr[j+1]; k++) {
        s = s + a[k] * x[colidx[k]];
      }
      y[j] = s;
    }
    for (int j = 0; j < n; j++) {
      x[j] = y[j] * 0.125;
    }
  }
}
)",
                    n, n, n + 1, 32 * n, 32 * n, n, n);
  return k;
}

// Fig. 2 (UA): scatter through the inverse of a filled permutation.
Kernel perm(int scale) {
  const size_t n = 1048576 / scale;
  Kernel k;
  k.name = "perm";
  k.scalars = {{"n", static_cast<int64_t>(n)}};
  k.assumptions = {{"n", 1}};
  k.arrays = {{"mt_to_id", false, n}, {"id_to_mt", false, n}, {"src", true, n, true},
              {"dst", true, n}};
  k.source = format(R"(int n;
int mt_to_id[%zu];
int id_to_mt[%zu];
double src[%zu];
double dst[%zu];
void f(void) {
  for (int i = 0; i < n; i++) {
    mt_to_id[i] = n - 1 - i;
  }
  for (int miel = 0; miel < n; miel++) {
    int iel = mt_to_id[miel];
    id_to_mt[iel] = miel;
    dst[iel] = src[miel] * 2.0 + 1.0;
  }
}
)",
                    n, n, n, n);
  return k;
}

// Fig. 5 (CSparse): guarded scatter through a matching whose entries are 2*i
// for the seeded third of rows that match and -1 elsewhere.
Kernel match(int scale) {
  const size_t m = 1048576 / scale;
  Kernel k;
  k.name = "match";
  k.scalars = {{"m", static_cast<int64_t>(m)}};
  k.assumptions = {{"m", 1}};
  k.arrays = {{"w", false, m, true, 0, 99}, {"flag", false, m}, {"jmatch", false, m},
              {"imatch", false, 2 * m}};
  k.source = format(R"(int m;
int w[%zu];
int flag[%zu];
int jmatch[%zu];
int imatch[%zu];
void f(void) {
  for (int i = 0; i < m; i++) {
    flag[i] = w[i] > 66 ? 1 : 0;
  }
  for (int i = 0; i < m; i++) {
    if (flag[i] > 0) {
      jmatch[i] = 2 * i;
    } else {
      jmatch[i] = -1;
    }
  }
  for (int i = 0; i < m; i++) {
    if (jmatch[i] >= 0) {
      imatch[jmatch[i]] = i;
    }
  }
}
)",
                    m, m, m, 2 * m);
  return k;
}

// Figs. 7/9: variable-length segments (1 or 3 elements, seeded) laid out by
// a conditional prefix sum, then walked segment by segment.
Kernel segwalk(int scale) {
  const size_t n = 262144 / scale;
  Kernel k;
  k.name = "segwalk";
  k.scalars = {{"n", static_cast<int64_t>(n)}};
  k.assumptions = {{"n", 1}};
  k.arrays = {{"w", false, n, true, 0, 99}, {"sz", false, n},       {"ptr", false, n + 1},
              {"din", true, 3 * n, true},   {"dout", true, 3 * n}};
  k.source = format(R"(int n;
int w[%zu];
int sz[%zu];
int ptr[%zu];
double din[%zu];
double dout[%zu];
void f(void) {
  for (int i = 0; i < n; i++) {
    sz[i] = w[i] > 74 ? 3 : 1;
  }
  ptr[0] = 0;
  for (int i = 1; i < n + 1; i++) {
    ptr[i] = ptr[i-1] + (sz[i-1] > 1 ? sz[i-1] : 1);
  }
  for (int i = 0; i < n; i++) {
    for (int k = ptr[i]; k < ptr[i+1]; k++) {
      dout[k] = din[k] * 0.5 + i;
    }
  }
}
)",
                    n, n, n + 1, 3 * n, 3 * n);
  return k;
}

}  // namespace

const std::vector<std::string>& kernel_names() {
  static const std::vector<std::string> names = {"cg", "perm", "match", "segwalk"};
  return names;
}

Kernel make_kernel(const std::string& name, int scale) {
  if (name == "cg") return cg(scale);
  if (name == "perm") return perm(scale);
  if (name == "match") return match(scale);
  if (name == "segwalk") return segwalk(scale);
  throw std::invalid_argument("unknown kernel " + name);
}

std::vector<ArrayData> make_inputs(const Kernel& kernel, uint64_t seed) {
  Rng rng(seed);
  for (char c : kernel.name) rng = Rng(rng.next() ^ static_cast<uint64_t>(c));
  std::vector<ArrayData> data(kernel.arrays.size());
  for (size_t i = 0; i < kernel.arrays.size(); ++i) {
    const KernelArray& a = kernel.arrays[i];
    if (!a.input) continue;
    if (a.is_double) {
      data[i].doubles.resize(a.length);
      for (double& v : data[i].doubles) v = rng.unit();
    } else {
      data[i].ints.resize(a.length);
      const uint64_t span = static_cast<uint64_t>(a.hi - a.lo + 1);
      for (int32_t& v : data[i].ints) v = static_cast<int32_t>(a.lo + rng.next() % span);
    }
  }
  return data;
}

}  // namespace sspbench
