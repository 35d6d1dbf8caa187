// Golden output over the benchmark corpus: every program's annotated source
// (the `--emit` text, including the `// sspar: schedule(...)` hints) and every
// loop's verdict fields, rendered as one text and compared byte for byte with
// tests/corpus_golden.txt. Runs at 1 and 8 threads; both must match the file.
//
// The verdict counts in corpus_test and the determinism test cannot see a
// changed schedule hint, blocker text or private clause; this test can. On a
// mismatch the actual text is written next to the test binary and its path is
// printed, so the difference can be inspected with diff.
#include <gtest/gtest.h>

#include <fstream>
#include <sstream>

#include "driver/batch_analyzer.h"

namespace sspar::driver {
namespace {

const char* schedule_name(core::LoopVerdict::ScheduleHint hint) {
  switch (hint) {
    case core::LoopVerdict::ScheduleHint::Static:
      return "static";
    case core::LoopVerdict::ScheduleHint::Dynamic:
      return "dynamic";
    case core::LoopVerdict::ScheduleHint::None:
      break;
  }
  return "none";
}

template <typename Range, typename Fn>
std::string join(const Range& items, Fn&& fn) {
  std::string out;
  for (const auto& item : items) {
    if (!out.empty()) out += ", ";
    out += fn(item);
  }
  return out;
}

// One "  name: value" line; an empty value leaves no trailing blank.
void field(std::ostream& os, const char* name, const std::string& value) {
  os << "  " << name << ":" << (value.empty() ? "" : " ") << value << "\n";
}

std::string render(const BatchReport& report) {
  std::ostringstream os;
  for (const ProgramReport& p : report.programs) {
    os << "== " << p.name << "\n";
    if (!p.ok) {
      field(os, "error", p.error);
      continue;
    }
    for (const core::LoopVerdict& v : p.result.verdicts) {
      os << "L" << v.loop_id << " line "
         << (v.loop && v.loop->location.valid() ? v.loop->location.line : 0)
         << " parallel=" << v.parallel << " hybrid=" << v.hybrid
         << " property=" << core::property_name(v.property) << " peeled=" << v.peeled << "\n";
      field(os, "reason", v.reason);
      for (const std::string& b : v.blockers) field(os, "blocker", b);
      field(os, "privates", join(v.privates, [](const ast::VarDecl* d) { return d->name; }));
      field(os, "schedule", v.schedule_reason.empty()
                                ? schedule_name(v.schedule)
                                : std::string(schedule_name(v.schedule)) + " (" +
                                      v.schedule_reason + ")");
      field(os, "via_summaries",
            join(v.summaries_used, [](const std::string& s) { return s; }));
    }
    os << "---- emit ----\n" << p.result.output << "\n";
  }
  return os.str();
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

// 1-based number of the first line where the two texts differ.
size_t first_differing_line(const std::string& a, const std::string& b) {
  size_t line = 1;
  for (size_t i = 0; i < a.size() && i < b.size() && a[i] == b[i]; ++i) {
    if (a[i] == '\n') ++line;
  }
  return line;
}

void expect_matches_golden(unsigned threads) {
  const std::string golden_path = std::string(SSPAR_TESTS_DIR) + "/corpus_golden.txt";
  const std::string expected = read_file(golden_path);
  ASSERT_FALSE(expected.empty()) << "cannot read " << golden_path;

  const std::string actual =
      render(BatchAnalyzer(BatchOptions{threads, {}}).run(BatchAnalyzer::corpus_inputs()));
  if (actual == expected) return;

  const std::string actual_path = std::string(SSPAR_TEST_OUTPUT_DIR) +
                                  "/corpus_golden.actual.threads" + std::to_string(threads) +
                                  ".txt";
  std::ofstream(actual_path, std::ios::binary) << actual;
  ADD_FAILURE() << "corpus output at " << threads << " thread(s) differs from " << golden_path
                << " from line " << first_differing_line(expected, actual)
                << "; actual text written to " << actual_path;
}

TEST(CorpusGolden, OneThreadMatchesTheCheckedInText) { expect_matches_golden(1); }

TEST(CorpusGolden, EightThreadsMatchTheCheckedInText) { expect_matches_golden(8); }

}  // namespace
}  // namespace sspar::driver
