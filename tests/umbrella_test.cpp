// Compile-and-use smoke test for the umbrella header: the public API surface
// a downstream user sees.
#include "sspar.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

namespace {

TEST(Umbrella, FullPipelineThroughPublicApi) {
  sspar::pipeline::Session session(R"(
    int n;
    int nsz[100];
    int ptr[101];
    double data[1000];
    void f(void) {
      for (int i = 0; i < n; i++) {
        nsz[i] = (i % 2 == 0) ? 2 : 1;
      }
      ptr[0] = 0;
      for (int i = 1; i < n + 1; i++) {
        ptr[i] = ptr[i-1] + nsz[i-1];
      }
      for (int i = 0; i < n; i++) {
        for (int k = ptr[i]; k < ptr[i+1]; k++) {
          data[k] = data[k] * 0.5;
        }
      }
    }
  )",
                                   {{"n", 1}});
  ASSERT_TRUE(session.parse()) << session.diagnostics().dump();
  EXPECT_GE(session.annotate(), 1);
  EXPECT_TRUE(session.emit().ok);

  // Dynamic validation through the same public surface.
  sspar::interp::Interpreter interp(*session.program());
  interp.set_scalar("n", int64_t{40});
  for (const auto& v : *session.parallelize()) {
    if (!v.parallel) continue;
    auto report = interp.analyze_loop_dependences("f", v.loop);
    EXPECT_TRUE(report.dependence_free) << report.first_conflict;
  }

  // Runtime surface: the index-array checks behind hybrid verdicts.
  EXPECT_TRUE(sspar::rt::is_nondecreasing(std::vector<int64_t>{0, 2, 2, 5}));
  EXPECT_FALSE(sspar::rt::is_injective(std::vector<int64_t>{3, 1, 3}));
  EXPECT_FALSE(sspar::corpus::all_entries().empty());
}

}  // namespace
