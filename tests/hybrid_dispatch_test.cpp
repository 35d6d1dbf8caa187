// Hybrid static/dynamic inspector–executor dispatch: loops whose static
// verdict is blocked by exactly one unproven index-array property become
// dual-version loops guarded by the matching sspar::rt runtime check. The
// differential half of the suite executes the emitted dual-version semantics
// against the interpreter oracle on both property-satisfying and
// property-violating inputs.
#include <gtest/gtest.h>

#include <functional>

#include "core/parallelizer.h"
#include "frontend/sema.h"
#include "interp/interpreter.h"
#include "pipeline/session.h"
#include "support/diagnostics.h"
#include "support/text.h"
#include "transform/omp_emitter.h"

namespace sspar::transform {
namespace {

constexpr const char* kPermSource = R"(
    int n;
    int perm[2048];
    int inv[2048];
    void f(void) {
      for (int i = 0; i < n; i++) {
        inv[perm[i]] = i;
      }
    }
  )";

constexpr const char* kScatterSource = R"(
    int n;
    int match[2048];
    int out[8192];
    void f(void) {
      for (int i = 0; i < n; i++) {
        if (match[i] >= 0) {
          out[match[i]] = i;
        }
      }
    }
  )";

constexpr const char* kCsrSource = R"(
    int n;
    int rowcnt[128];
    int rowptr[129];
    double value[16384];
    double vector[16384];
    double product_array[16384];
    void build_rowptr(void) {
      rowptr[0] = 0;
      for (int i = 1; i < n + 1; i++) {
        rowptr[i] = rowptr[i-1] + rowcnt[i-1];
      }
    }
    void f(void) {
      build_rowptr();
      for (int i = 0; i < n; i++) {
        for (int j = rowptr[i]; j < rowptr[i+1]; j++) {
          product_array[j] = value[j] * vector[j];
        }
      }
    }
  )";

TEST(HybridDispatch, PermutationScatterBecomesInjectiveHybrid) {
  pipeline::Session session(kPermSource);
  ASSERT_TRUE(session.parse()) << session.diagnostics().dump();
  const std::vector<core::LoopVerdict>& verdicts = *session.parallelize();
  ASSERT_EQ(verdicts.size(), 1u);
  const core::LoopVerdict& v = verdicts[0];
  EXPECT_FALSE(v.parallel);
  ASSERT_TRUE(v.hybrid) << support::join(v.blockers, "; ");
  EXPECT_EQ(v.hybrid_property, core::EnablingProperty::Injective);
  EXPECT_EQ(v.hybrid_index_array, "perm");
  EXPECT_EQ(v.hybrid_check_lo, "0");
  EXPECT_EQ(v.hybrid_check_hi, "n - 1");
}

TEST(HybridDispatch, GuardedScatterBecomesSubsetInjectiveHybrid) {
  pipeline::Session session(kScatterSource);
  ASSERT_TRUE(session.parse()) << session.diagnostics().dump();
  const std::vector<core::LoopVerdict>& verdicts = *session.parallelize();
  ASSERT_EQ(verdicts.size(), 1u);
  const core::LoopVerdict& v = verdicts[0];
  EXPECT_FALSE(v.parallel);
  ASSERT_TRUE(v.hybrid) << support::join(v.blockers, "; ");
  EXPECT_EQ(v.hybrid_property, core::EnablingProperty::SubsetInjective);
  EXPECT_EQ(v.hybrid_index_array, "match");
  EXPECT_EQ(v.hybrid_min_value, 0);
}

TEST(HybridDispatch, DataDependentCsrBecomesMonotonicHybrid) {
  // rowptr is built from an input count array, so its Monotonic property is
  // out of static reach; the product loop becomes a Monotonic hybrid.
  pipeline::Session session(kCsrSource);
  ASSERT_TRUE(session.parse()) << session.diagnostics().dump();
  const std::vector<core::LoopVerdict>& verdicts = *session.parallelize();
  const core::LoopVerdict* outer = nullptr;
  for (const auto& v : verdicts) {
    if (v.hybrid) {
      ASSERT_EQ(outer, nullptr) << "expected exactly one hybrid verdict";
      outer = &v;
    }
  }
  ASSERT_NE(outer, nullptr);
  EXPECT_FALSE(outer->parallel);
  EXPECT_EQ(outer->hybrid_property, core::EnablingProperty::Monotonic);
  EXPECT_EQ(outer->hybrid_index_array, "rowptr");
  EXPECT_EQ(outer->hybrid_check_lo, "0");
  EXPECT_EQ(outer->hybrid_check_hi, "n");
}

TEST(HybridDispatch, TrueDependenceIsNotAHybridCandidate) {
  // a[i] = a[i-1] + 1 has a real loop-carried dependence; no index-array
  // property can unlock it, so no hybrid candidacy.
  pipeline::Session session(R"(
    int n;
    int idx[100];
    int a[100];
    void f(void) {
      for (int i = 1; i < n; i++) {
        a[idx[i]] = a[idx[i-1]] + 1;
      }
    }
  )");
  ASSERT_TRUE(session.parse()) << session.diagnostics().dump();
  const std::vector<core::LoopVerdict>& verdicts = *session.parallelize();
  for (const auto& v : verdicts) {
    EXPECT_FALSE(v.parallel);
    EXPECT_FALSE(v.hybrid) << "loop " << v.loop_id;
  }
}

TEST(HybridDispatch, EmitsGuardedDualVersionLoop) {
  pipeline::Session session(kPermSource);
  ASSERT_TRUE(session.parse()) << session.diagnostics().dump();
  const int annotated = session.annotate();
  const std::string output = session.emit().output;
  EXPECT_EQ(annotated, 0);  // hybrid is not a static parallelization
  EXPECT_TRUE(support::contains(output, "if (sspar_check_injective(perm, 0, n - 1)) {"))
      << output;
  EXPECT_TRUE(support::contains(output, "#pragma omp parallel for")) << output;
  EXPECT_TRUE(support::contains(output, "} else {")) << output;
  EXPECT_TRUE(support::contains(output,
                                "// sspar: hybrid — injective of 'perm' verified at runtime"))
      << output;
  // The loop body appears twice: once parallel, once serial.
  size_t count = 0;
  for (size_t pos = 0; (pos = output.find("inv[perm[i]] = i;", pos)) != std::string::npos;
       ++pos) {
    ++count;
  }
  EXPECT_EQ(count, 2u) << output;
  // The transformed source must still parse.
  support::DiagnosticEngine diags;
  auto reparsed = ast::parse_and_resolve(output, diags);
  EXPECT_TRUE(reparsed.ok) << diags.dump() << output;
}

TEST(HybridDispatch, MonotonicAndSubsetChecksUseTheMatchingInspector) {
  pipeline::Session csr(kCsrSource);
  ASSERT_TRUE(csr.parse()) << csr.diagnostics().dump();
  csr.annotate();
  const std::string csr_output = csr.emit().output;
  EXPECT_TRUE(support::contains(csr_output, "if (sspar_check_nondecreasing(rowptr, 0, n)) {"))
      << csr_output;
  pipeline::Session scatter(kScatterSource);
  ASSERT_TRUE(scatter.parse()) << scatter.diagnostics().dump();
  scatter.annotate();
  const std::string scatter_output = scatter.emit().output;
  EXPECT_TRUE(support::contains(scatter_output,
                                "if (sspar_check_subset_injective(match, 0, n - 1, 0)) {"))
      << scatter_output;
}

// ---- Differential execution of the dual-version semantics -------------------

struct DualVersion {
  const ast::For* guarded = nullptr;  // loop behind the runtime check
  const ast::For* serial = nullptr;   // else-branch fallback loop
};

// Locates the emitted `if (sspar_check_*(...)) { ... } else { ... }` dispatch
// in the re-parsed output.
DualVersion find_dual_version(const ast::Program& program) {
  DualVersion dual;
  for (const auto& fn : program.functions) {
    ast::walk_stmts(static_cast<const ast::Stmt*>(fn->body.get()), [&](const ast::Stmt* s) {
      const auto* iff = s->as<ast::If>();
      if (!iff || !iff->else_branch) return true;
      const auto* call = iff->cond->as<ast::Call>();
      if (!call || call->callee.rfind("sspar_check_", 0) != 0) return true;
      auto thens = ast::collect_loops(iff->then_branch.get());
      auto elses = ast::collect_loops(iff->else_branch.get());
      if (!thens.empty() && !elses.empty()) {
        dual.guarded = thens.front();
        dual.serial = elses.front();
      }
      return true;
    });
  }
  return dual;
}

using Seeder = std::function<void(interp::Interpreter&)>;

// Runs the emitted dual-version program against the interpreter oracle:
// with a property-satisfying input the guarded (parallel) version must
// execute, be dependence-free, permutation-safe, and byte-identical to the
// original serial program; with a violating input the dispatch must fall
// back to the serial version, still matching the original.
void check_dual_version_semantics(const char* source, const Seeder& seed_satisfying,
                                  const Seeder& seed_violating) {
  pipeline::Session session(source);
  ASSERT_TRUE(session.parse()) << session.diagnostics().dump();
  session.annotate();
  const std::string output = session.emit().output;
  support::DiagnosticEngine diags;
  auto reparsed = ast::parse_and_resolve(output, diags);
  ASSERT_TRUE(reparsed.ok) << diags.dump() << output;
  DualVersion dual = find_dual_version(*reparsed.program);
  ASSERT_NE(dual.guarded, nullptr) << output;
  ASSERT_NE(dual.serial, nullptr) << output;

  auto reference_state = [&](const Seeder& seed) {
    interp::Interpreter original(*session.program());
    seed(original);
    original.run("f");
    return original.snapshot();
  };

  {  // Satisfying input: the parallel version runs and is actually parallel.
    interp::Interpreter emitted(*reparsed.program);
    seed_satisfying(emitted);
    auto oracle = emitted.analyze_loop_dependences("f", dual.guarded);
    EXPECT_TRUE(oracle.executed);
    EXPECT_TRUE(oracle.dependence_free) << oracle.first_conflict;

    interp::Interpreter fallback(*reparsed.program);
    seed_satisfying(fallback);
    EXPECT_FALSE(fallback.analyze_loop_dependences("f", dual.serial).executed);

    auto expected = reference_state(seed_satisfying);
    interp::Interpreter transformed(*reparsed.program);
    seed_satisfying(transformed);
    transformed.run("f");
    std::string diff;
    EXPECT_TRUE(interp::Interpreter::equal_state(*expected, *transformed.snapshot(), {}, &diff))
        << diff;

    interp::Interpreter permuted(*reparsed.program);
    seed_satisfying(permuted);
    permuted.run_permuted("f", dual.guarded, /*seed=*/12345);
    EXPECT_TRUE(interp::Interpreter::equal_state(*expected, *permuted.snapshot(), {}, &diff))
        << diff;
  }

  {  // Violating input: dispatch takes the serial fallback.
    interp::Interpreter emitted(*reparsed.program);
    seed_violating(emitted);
    EXPECT_FALSE(emitted.analyze_loop_dependences("f", dual.guarded).executed);

    interp::Interpreter fallback(*reparsed.program);
    seed_violating(fallback);
    EXPECT_TRUE(fallback.analyze_loop_dependences("f", dual.serial).executed);

    auto expected = reference_state(seed_violating);
    interp::Interpreter transformed(*reparsed.program);
    seed_violating(transformed);
    transformed.run("f");
    std::string diff;
    EXPECT_TRUE(interp::Interpreter::equal_state(*expected, *transformed.snapshot(), {}, &diff))
        << diff;
  }
}

TEST(HybridDispatch, DifferentialPermutation) {
  auto seed = [](bool satisfying) {
    return [satisfying](interp::Interpreter& interp) {
      interp.set_scalar("n", int64_t{64});
      std::vector<int64_t> perm(2048, 0);
      for (size_t i = 0; i < perm.size(); ++i) {
        perm[i] = static_cast<int64_t>((i * 7) % 2048);  // injective
      }
      if (!satisfying) perm[3] = perm[5];  // duplicate target
      interp.set_array_int("perm", std::move(perm));
    };
  };
  check_dual_version_semantics(kPermSource, seed(true), seed(false));
}

TEST(HybridDispatch, DifferentialGuardedScatter) {
  auto seed = [](bool satisfying) {
    return [satisfying](interp::Interpreter& interp) {
      interp.set_scalar("n", int64_t{64});
      std::vector<int64_t> match(2048, -1);
      for (size_t i = 0; i < match.size(); i += 3) {
        match[i] = static_cast<int64_t>(2 * i);  // sparse injective targets
      }
      if (!satisfying) match[0] = match[6];  // two rows hit the same slot
      interp.set_array_int("match", std::move(match));
    };
  };
  check_dual_version_semantics(kScatterSource, seed(true), seed(false));
}

TEST(HybridDispatch, DifferentialDataDependentCsr) {
  auto seed = [](bool satisfying) {
    return [satisfying](interp::Interpreter& interp) {
      interp.set_scalar("n", int64_t{32});
      std::vector<int64_t> rowcnt(128, 0);
      for (size_t i = 0; i < rowcnt.size(); ++i) rowcnt[i] = static_cast<int64_t>(i % 4);
      if (!satisfying) rowcnt[5] = -3;  // rowptr dips: non-monotonic
      interp.set_array_int("rowcnt", std::move(rowcnt));
      std::vector<double> value(16384), vec(16384);
      for (size_t i = 0; i < value.size(); ++i) {
        value[i] = 0.5 * static_cast<double>(i % 17);
        vec[i] = 1.0 + static_cast<double>(i % 5);
      }
      interp.set_array_double("value", std::move(value));
      interp.set_array_double("vector", std::move(vec));
    };
  };
  check_dual_version_semantics(kCsrSource, seed(true), seed(false));
}

}  // namespace
}  // namespace sspar::transform
