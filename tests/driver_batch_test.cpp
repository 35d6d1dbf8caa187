// BatchAnalyzer unit tests: aggregate correctness, negative paths (malformed
// programs must not abort the batch), and option handling.
#include <gtest/gtest.h>

#include <chrono>
#include <mutex>
#include <set>
#include <stdexcept>
#include <thread>

#include "corpus/corpus.h"
#include "driver/batch_analyzer.h"

namespace sspar::driver {
namespace {

const char* kGoodSource = R"(
  int n;
  int perm[100];
  double a[100];
  void f(void) {
    for (int i = 0; i < n; i++) {
      perm[i] = i;
    }
    for (int i = 0; i < n; i++) {
      a[perm[i]] = a[perm[i]] * 2.0;
    }
  }
)";

ProgramInput good(const std::string& name) {
  return ProgramInput{name, kGoodSource, {{"n", 1}}};
}

TEST(BatchAnalyzer, EmptyBatchReturnsEmptyStats) {
  BatchAnalyzer analyzer;
  BatchReport report = analyzer.run({});
  EXPECT_TRUE(report.programs.empty());
  EXPECT_EQ(report.stats, BatchStats{});
}

TEST(BatchAnalyzer, AnalyzesASingleProgram) {
  BatchAnalyzer analyzer(BatchOptions{/*threads=*/2, {}});
  BatchReport report = analyzer.run({good("p0")});
  ASSERT_EQ(report.programs.size(), 1u);
  const ProgramReport& p = report.programs[0];
  EXPECT_TRUE(p.ok) << p.error;
  EXPECT_EQ(p.name, "p0");
  EXPECT_EQ(p.loops, 2);
  EXPECT_GE(p.parallel, 1);
  EXPECT_GE(p.subscripted, 1);
  EXPECT_EQ(report.stats.programs, 1);
  EXPECT_EQ(report.stats.failed, 0);
  EXPECT_EQ(report.stats.loops, 2);
}

TEST(BatchAnalyzer, MalformedSourceYieldsDiagnosticNotAbort) {
  BatchAnalyzer analyzer(BatchOptions{/*threads=*/4, {}});
  std::vector<ProgramInput> inputs = {
      good("ok-before"),
      ProgramInput{"bad-syntax", "void f( { this is not C }", {}},
      ProgramInput{"bad-sema", "void f(void) { undeclared[0] = 1; }", {}},
      good("ok-after"),
  };
  BatchReport report = analyzer.run(inputs);
  ASSERT_EQ(report.programs.size(), 4u);

  EXPECT_TRUE(report.programs[0].ok);
  EXPECT_FALSE(report.programs[1].ok);
  EXPECT_FALSE(report.programs[1].error.empty()) << "diagnostic must name the failure";
  EXPECT_FALSE(report.programs[2].ok);
  EXPECT_FALSE(report.programs[2].error.empty());
  EXPECT_TRUE(report.programs[3].ok) << "batch must continue past malformed entries";

  EXPECT_EQ(report.stats.programs, 4);
  EXPECT_EQ(report.stats.failed, 2);
  // Failed programs contribute nothing to loop counts.
  EXPECT_EQ(report.stats.loops, 4);
}

TEST(BatchAnalyzer, ReportsComeBackInInputOrder) {
  BatchAnalyzer analyzer(BatchOptions{/*threads=*/8, {}});
  std::vector<ProgramInput> inputs;
  for (int i = 0; i < 40; ++i) {
    inputs.push_back(good(std::string("p").append(std::to_string(i))));
  }
  BatchReport report = analyzer.run(inputs);
  ASSERT_EQ(report.programs.size(), inputs.size());
  for (size_t i = 0; i < inputs.size(); ++i) {
    EXPECT_EQ(report.programs[i].name, inputs[i].name);
  }
}

TEST(BatchAnalyzer, CorpusInputsCoverTheWholeCorpus) {
  auto inputs = BatchAnalyzer::corpus_inputs();
  ASSERT_EQ(inputs.size(), corpus::all_entries().size());
  for (size_t i = 0; i < inputs.size(); ++i) {
    EXPECT_EQ(inputs[i].name, corpus::all_entries()[i].name);
    EXPECT_FALSE(inputs[i].source.empty());
  }
}

TEST(BatchAnalyzer, ThreadClamping) {
  // 0 = hardware_concurrency() (one lane per logical core), falling back to
  // 2 when the hardware cannot be queried — the BatchOptions contract.
  const unsigned hw = std::thread::hardware_concurrency();
  EXPECT_EQ(BatchAnalyzer(BatchOptions{0, {}}).threads(), hw == 0 ? 2u : hw);
  // Explicit requests are honored as-is; no clamp.
  EXPECT_EQ(BatchAnalyzer(BatchOptions{1, {}}).threads(), 1u);
  EXPECT_EQ(BatchAnalyzer(BatchOptions{3, {}}).threads(), 3u);
}

TEST(BatchAnalyzer, SingleThreadRunsSeriallyOnCallingThread) {
  BatchAnalyzer analyzer(BatchOptions{/*threads=*/1, {}});
  std::vector<ProgramInput> inputs;
  for (int i = 0; i < 6; ++i) {
    inputs.push_back(good(std::string("p").append(std::to_string(i))));
  }

  const std::thread::id caller = std::this_thread::get_id();
  std::vector<std::string> streamed;
  std::vector<std::thread::id> callback_threads;
  BatchReport report = analyzer.run(inputs, [&](const ProgramReport& p) {
    streamed.push_back(p.name);
    callback_threads.push_back(std::this_thread::get_id());
  });

  // Serial mode: every report was produced on the calling thread, in input
  // order — no helper lanes were involved at all.
  ASSERT_EQ(streamed.size(), inputs.size());
  for (size_t i = 0; i < inputs.size(); ++i) {
    EXPECT_EQ(streamed[i], inputs[i].name);
    EXPECT_EQ(callback_threads[i], caller);
  }
  EXPECT_EQ(report.stats.failed, 0);
  // Serial and concurrent runs aggregate identically.
  EXPECT_EQ(report.stats, BatchAnalyzer(BatchOptions{4, {}}).run(inputs).stats);
}

TEST(BatchAnalyzer, StreamingCallbackSeesEveryReportOnceConcurrently) {
  BatchAnalyzer analyzer(BatchOptions{/*threads=*/4, {}});
  std::vector<ProgramInput> inputs;
  for (int i = 0; i < 24; ++i) {
    inputs.push_back(good(std::string("p").append(std::to_string(i))));
  }
  inputs.push_back(ProgramInput{"broken", "void f( {", {}});

  std::mutex seen_mutex;
  std::multiset<std::string> seen;
  BatchReport report = analyzer.run(inputs, [&](const ProgramReport& p) {
    // The analyzer serializes callback invocations, but guard anyway so the
    // test itself is clean under TSan-style analysis.
    std::lock_guard<std::mutex> lock(seen_mutex);
    seen.insert(p.name);
  });

  // Exactly one callback per input, regardless of completion order.
  ASSERT_EQ(seen.size(), inputs.size());
  for (const ProgramInput& input : inputs) {
    EXPECT_EQ(seen.count(input.name), 1u) << input.name;
  }
  // Aggregation stays input-ordered and complete.
  ASSERT_EQ(report.programs.size(), inputs.size());
  EXPECT_EQ(report.programs.back().name, "broken");
  EXPECT_EQ(report.stats.failed, 1);
}

TEST(BatchAnalyzer, FailedProgramsCarryStructuredDiagnostics) {
  BatchAnalyzer analyzer(BatchOptions{1, {}});
  BatchReport report = analyzer.run({ProgramInput{"bad", "void f() { y = 1; }", {}}});
  ASSERT_EQ(report.programs.size(), 1u);
  const ProgramReport& p = report.programs[0];
  EXPECT_FALSE(p.ok);
  ASSERT_FALSE(p.result.diags.empty());
  EXPECT_EQ(p.result.diags[0].code, sspar::support::DiagCode::SemaUndeclared);
  EXPECT_TRUE(p.result.diags[0].location.valid());
}

// Program `index` of a batch whose sizes rise with the index — the worst
// case for a static split into contiguous chunks, whose last lane would get
// all the large programs. Program k holds k + 1 kernels that all call one
// shared helper, so the cross-program summary cache is raced on too.
// Every fifth program also writes an undeclared array and fails with a
// diagnostic.
ProgramInput rising(int index) {
  std::string source =
      "int n;\nint perm[100];\ndouble a[100];\n"
      "void fill(void) {\n  for (int i = 0; i < n; i++) { perm[i] = i; }\n}\n";
  for (int k = 0; k <= index; ++k) {
    const std::string id = std::to_string(k);
    source += "void kernel" + id + "(void) {\n  fill();\n";
    source += "  for (int i = 0; i < n; i++) { a[perm[i]] = a[perm[i]] * " + id + ".0; }\n";
    source += "}\n";
  }
  if (index % 5 == 4) source += "void broken(void) { missing[0] = 1; }\n";
  return ProgramInput{"rising" + std::to_string(index), source, {{"n", 1}}};
}

TEST(BatchAnalyzer, DynamicDispatchMatchesTheSerialRunOnRisingSizes) {
  std::vector<ProgramInput> inputs;
  for (int i = 0; i < 12; ++i) inputs.push_back(rising(i));
  const BatchReport serial = BatchAnalyzer(BatchOptions{1, {}}).run(inputs);
  ASSERT_EQ(serial.programs.size(), inputs.size());
  EXPECT_GT(serial.stats.failed, 0);
  EXPECT_LT(serial.stats.failed, serial.stats.programs);
  EXPECT_GT(serial.stats.parallel_subscripted, 0);

  // 16 threads is more lanes than the 12 programs can use.
  for (unsigned threads : {2u, 4u, 8u, 16u}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    std::mutex seen_mutex;
    std::multiset<std::string> seen;
    BatchReport report =
        BatchAnalyzer(BatchOptions{threads, {}}).run(inputs, [&](const ProgramReport& p) {
          std::lock_guard<std::mutex> lock(seen_mutex);
          seen.insert(p.name);
        });
    ASSERT_EQ(seen.size(), inputs.size());
    ASSERT_EQ(report.programs.size(), inputs.size());
    for (size_t i = 0; i < inputs.size(); ++i) {
      EXPECT_EQ(seen.count(inputs[i].name), 1u) << inputs[i].name;
      EXPECT_EQ(report.programs[i].name, inputs[i].name);
      EXPECT_EQ(report.programs[i].ok, serial.programs[i].ok) << inputs[i].name;
      EXPECT_EQ(report.programs[i].result.output, serial.programs[i].result.output)
          << inputs[i].name;
      EXPECT_EQ(report.programs[i].result.diagnostics, serial.programs[i].result.diagnostics)
          << inputs[i].name;
    }
    EXPECT_EQ(report.stats, serial.stats);
  }
}

TEST(BatchAnalyzer, RepeatedConcurrentRunsJoinEveryLaneAndAnalyzeEachProgramOnce) {
  // Each run starts and joins its own lanes. A lane left running past the
  // end of run(), or one that analyzes a program twice, shows up here as a
  // report that differs from the serial run or as a missing or doubled
  // callback. Helper lanes linger in the callback before recording, so a
  // run that returned without joining them would miss their reports.
  const std::vector<ProgramInput> inputs = {rising(2), rising(0), rising(1)};
  const BatchReport serial = BatchAnalyzer(BatchOptions{1, {}}).run(inputs);
  const BatchAnalyzer analyzer(BatchOptions{4, {}});
  const std::thread::id caller = std::this_thread::get_id();
  for (int round = 0; round < 100; ++round) {
    SCOPED_TRACE("round " + std::to_string(round));
    std::multiset<std::string> seen;
    BatchReport report = analyzer.run(inputs, [&](const ProgramReport& p) {
      if (std::this_thread::get_id() != caller) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
      seen.insert(p.name);
    });
    ASSERT_EQ(seen.size(), inputs.size());
    ASSERT_EQ(report.programs.size(), inputs.size());
    for (size_t i = 0; i < inputs.size(); ++i) {
      ASSERT_EQ(seen.count(inputs[i].name), 1u) << inputs[i].name;
      ASSERT_EQ(report.programs[i].result.output, serial.programs[i].result.output)
          << inputs[i].name;
    }
    ASSERT_EQ(report.stats, serial.stats);
  }
}

TEST(BatchAnalyzer, ACallbackExceptionOnAnyLaneReachesTheCaller) {
  // Whichever lane analyzes "p3" (a helper or the calling thread), its
  // callback's exception must come out of run(), after the lanes joined.
  std::vector<ProgramInput> inputs;
  for (int i = 0; i < 8; ++i) inputs.push_back(good("p" + std::to_string(i)));
  for (unsigned threads : {1u, 4u}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    for (int round = 0; round < 20; ++round) {
      EXPECT_THROW(BatchAnalyzer(BatchOptions{threads, {}})
                       .run(inputs,
                            [](const ProgramReport& p) {
                              if (p.name == "p3") throw std::runtime_error("stop");
                            }),
                   std::runtime_error);
    }
  }
}

}  // namespace
}  // namespace sspar::driver
