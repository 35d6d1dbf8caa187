#include <gtest/gtest.h>

#include "frontend/printer.h"
#include "frontend/sema.h"
#include "pipeline/session.h"
#include "support/diagnostics.h"
#include "support/text.h"
#include "transform/omp_emitter.h"

namespace sspar::transform {
namespace {

TEST(Transform, AnnotatesParallelLoopWithPragma) {
  pipeline::Session session(R"(
    int n;
    int a[100];
    int b[100];
    void f(void) {
      for (int i = 0; i < n; i++) {
        a[i] = b[i] + 1;
      }
    }
  )");
  ASSERT_TRUE(session.parse()) << session.diagnostics().dump();
  const int annotated = session.annotate();
  const std::string output = session.emit().output;
  EXPECT_EQ(annotated, 1);
  EXPECT_TRUE(support::contains(output, "#pragma omp parallel for"));
}

TEST(Transform, PrivateClauseListsScalars) {
  pipeline::Session session(R"(
    int n;
    int t;
    int a[100];
    int b[100];
    void f(void) {
      for (int i = 0; i < n; i++) {
        t = b[i] * 2;
        a[i] = t;
      }
    }
  )");
  ASSERT_TRUE(session.parse()) << session.diagnostics().dump();
  session.annotate();
  const std::string output = session.emit().output;
  EXPECT_TRUE(support::contains(output, "private(t)")) << output;
}

TEST(Transform, SequentialLoopNotAnnotated) {
  pipeline::Session session(R"(
    int n;
    int a[100];
    void f(void) {
      for (int i = 1; i < n; i++) {
        a[i] = a[i-1] + 1;
      }
    }
  )");
  ASSERT_TRUE(session.parse()) << session.diagnostics().dump();
  const int annotated = session.annotate();
  const std::string output = session.emit().output;
  EXPECT_EQ(annotated, 0);
  EXPECT_FALSE(support::contains(output, "#pragma"));
}

TEST(Transform, OnlyOutermostParallelLoopAnnotated) {
  pipeline::Session session(R"(
    int n;
    int a[100][100];
    double c[100];
    double d[100];
    void f(void) {
      for (int i = 0; i < n; i++) {
        c[i] = d[i] * 2.0;
        for (int j = 0; j < n; j++) {
          d[j] = 0.0;
        }
      }
    }
  )");
  ASSERT_TRUE(session.parse()) << session.diagnostics().dump();
  session.annotate();
  const std::string output = session.emit().output;
  // The outer loop is NOT parallel (all iterations write d[0..n-1]); the
  // inner one is, and it should carry the pragma.
  size_t count = 0;
  size_t pos = 0;
  while ((pos = output.find("#pragma omp parallel for", pos)) != std::string::npos) {
    ++count;
    ++pos;
  }
  EXPECT_EQ(count, 1u);
}

TEST(Transform, DuplicateVerdictsResolveDeterministically) {
  // Two verdicts for the same loop used to resolve last-writer-wins; the
  // annotation choice must not depend on verdict order: parallel beats
  // hybrid beats serial.
  support::DiagnosticEngine diags;
  auto parsed = ast::parse_and_resolve(R"(
    int n;
    int a[100];
    int b[100];
    void f(void) {
      for (int i = 0; i < n; i++) {
        a[i] = b[i] + 1;
      }
    }
  )",
                                       diags);
  ASSERT_TRUE(parsed.ok) << diags.dump();
  auto loops = ast::collect_loops(parsed.program->functions[0]->body.get());
  ASSERT_EQ(loops.size(), 1u);

  core::LoopVerdict serial;
  serial.loop = loops[0];
  serial.blockers.push_back("synthetic blocker");
  core::LoopVerdict parallel;
  parallel.loop = loops[0];
  parallel.parallel = true;
  parallel.reason = "affine disjoint accesses";
  core::LoopVerdict hybrid;
  hybrid.loop = loops[0];
  hybrid.hybrid = true;
  hybrid.hybrid_property = core::EnablingProperty::Injective;
  hybrid.hybrid_index_array = "b";
  hybrid.hybrid_check_lo = std::string("0");
  hybrid.hybrid_check_hi = std::string("n - 1");

  for (bool parallel_first : {false, true}) {
    std::vector<core::LoopVerdict> verdicts =
        parallel_first ? std::vector<core::LoopVerdict>{parallel, serial, hybrid}
                       : std::vector<core::LoopVerdict>{serial, hybrid, parallel};
    clear_annotations(*parsed.program);
    EXPECT_EQ(annotate_parallel_loops(*parsed.program, verdicts), 1);
    std::string out = ast::print_program(*parsed.program);
    EXPECT_TRUE(support::contains(out, "#pragma omp parallel for")) << out;
    EXPECT_FALSE(support::contains(out, "sspar_check_")) << out;
  }
  for (bool hybrid_first : {false, true}) {
    std::vector<core::LoopVerdict> verdicts =
        hybrid_first ? std::vector<core::LoopVerdict>{hybrid, serial}
                     : std::vector<core::LoopVerdict>{serial, hybrid};
    clear_annotations(*parsed.program);
    EXPECT_EQ(annotate_parallel_loops(*parsed.program, verdicts), 0);
    std::string out = ast::print_program(*parsed.program);
    EXPECT_TRUE(support::contains(out, "if (sspar_check_injective(b, 0, n - 1)) {")) << out;
  }
}

TEST(Transform, Fig9EndToEnd) {
  // The headline transformation: the paper's Fig. 9 product loop gets the
  // pragma with j1 privatized; the fill loops stay sequential.
  pipeline::Session session(R"(
    int ROWLEN;
    int COLUMNLEN;
    int ind;
    int index;
    int j1;
    int a[100][100];
    int column_number[10000];
    double value[10000];
    double vector[10000];
    double product_array[10000];
    int rowsize[100];
    int rowptr[101];
    void f(void) {
      for (int i = 0; i < ROWLEN; i++) {
        int count = 0;
        for (int j = 0; j < COLUMNLEN; j++) {
          if (a[i][j] != 0) {
            count++;
            column_number[index++] = j;
            value[ind++] = a[i][j];
          }
        }
        rowsize[i] = count;
      }
      rowptr[0] = 0;
      for (int i = 1; i < ROWLEN + 1; i++) {
        rowptr[i] = rowptr[i-1] + rowsize[i-1];
      }
      for (int i = 0; i < ROWLEN + 1; i++) {
        if (i == 0) {
          j1 = i;
        } else {
          j1 = rowptr[i-1];
        }
        for (int j = j1; j < rowptr[i]; j++) {
          product_array[j] = value[j] * vector[j];
        }
      }
    }
  )",
                            {{"ROWLEN", 1}, {"COLUMNLEN", 1}});
  ASSERT_TRUE(session.parse()) << session.diagnostics().dump();
  const int annotated = session.annotate();
  const std::string output = session.emit().output;
  EXPECT_EQ(annotated, 1);
  EXPECT_TRUE(support::contains(output, "private(j1)")) << output;
  // The pragma must be attached to the product loop (after rowptr[0] = 0).
  size_t pragma_pos = output.find("#pragma omp parallel for");
  size_t rowptr0_pos = output.find("rowptr[0] = 0");
  ASSERT_NE(pragma_pos, std::string::npos);
  ASSERT_NE(rowptr0_pos, std::string::npos);
  EXPECT_GT(pragma_pos, rowptr0_pos);
  // The transformed source must still parse.
  support::DiagnosticEngine diags;
  auto reparsed = ast::parse_and_resolve(output, diags);
  EXPECT_TRUE(reparsed.ok) << diags.dump();
}

}  // namespace
}  // namespace sspar::transform
