// Interprocedural summary engine tests.
//
// The core contract is differential: a program whose index arrays are built
// inside helper functions must get the SAME verdicts and OpenMP annotations
// as its hand-inlined twin — the summary application is semantically
// inlining. On top of that: call-graph structure, summary caching across
// re-analysis, W03xx degradation diagnostics, conservative havoc for
// unsummarizable calls (soundness), and batch determinism with the
// session-owned SummaryDB.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>

#include "corpus/analysis.h"
#include "corpus/corpus.h"
#include "driver/batch_analyzer.h"
#include "driver/json_report.h"
#include "interp/interpreter.h"
#include "ipa/call_graph.h"
#include "ipa/cross_cache.h"
#include "ipa/summary.h"
#include "pipeline/session.h"
#include "store/summary_store.h"
#include "support/text.h"
#include "symbolic/arena.h"

namespace sspar {
namespace {

// One comparable line per verdict, excluding loop ids and line numbers
// (helper extraction moves loops between functions, renumbering them).
std::string verdict_key(const core::LoopVerdict& v) {
  std::string out;
  out += v.canonical ? "canonical " : "non-canonical ";
  out += v.parallel ? "parallel " : "serial ";
  out += v.uses_subscripted_subscripts ? "subscripted " : "plain ";
  out += core::property_name(v.property);
  out += v.peeled ? " peeled" : "";
  out += " reason='" + v.reason + "'";
  out += " blockers=[";
  for (const auto& b : v.blockers) out += b + ";";
  out += "] privates=[";
  for (const auto* p : v.privates) out += p->name + ";";
  out += "]";
  return out;
}

std::vector<std::string> verdict_keys(pipeline::Session& session) {
  const auto* verdicts = session.parallelize();
  std::vector<std::string> keys;
  if (!verdicts) return keys;
  for (const auto& v : *verdicts) keys.push_back(verdict_key(v));
  return keys;
}

std::vector<std::string> pragma_lines(const std::string& source) {
  std::vector<std::string> out;
  size_t pos = 0;
  while ((pos = source.find("#pragma", pos)) != std::string::npos) {
    size_t end = source.find('\n', pos);
    out.push_back(source.substr(pos, end - pos));
    pos = end;
  }
  return out;
}

struct Twin {
  const char* name;
  std::string helper_source;
  std::string inlined_source;
  pipeline::Assumptions assumptions;
};

// The interprocedural corpus entries and their hand-inlined twins.
std::vector<Twin> twin_programs() {
  std::vector<Twin> twins;
  auto assume = [](const corpus::Entry& e) { return corpus::analyzer_assumptions(e); };
  const corpus::Entry* cg = corpus::find_entry("ipa_cg");
  const corpus::Entry* csr = corpus::find_entry("ipa_csr");
  const corpus::Entry* scatter = corpus::find_entry("ipa_scatter");
  const corpus::Entry* cg_chain = corpus::find_entry("ipa_cg_chain");
  const corpus::Entry* spmv_chain = corpus::find_entry("ipa_spmv_chain");
  const corpus::Entry* csr_chain = corpus::find_entry("ipa_csr_chain");
  EXPECT_NE(cg, nullptr);
  EXPECT_NE(csr, nullptr);
  EXPECT_NE(scatter, nullptr);
  EXPECT_NE(cg_chain, nullptr);
  EXPECT_NE(spmv_chain, nullptr);
  EXPECT_NE(csr_chain, nullptr);

  twins.push_back(Twin{"ipa_cg", cg->source,
                       R"(int nrows;
int firstcol;
int cols[512];
int nzz[512];
int rowstr[513];
int colidx[8192];
void f() {
  for (int i = 0; i < nrows; i++) {
    nzz[i] = cols[i] > 0 ? 1 : 0;
  }
  rowstr[0] = 0;
  for (int i = 1; i < nrows + 1; i++) {
    rowstr[i] = rowstr[i-1] + nzz[i-1];
  }
  for (int j = 0; j < nrows; j++) {
    for (int k = rowstr[j]; k < rowstr[j+1]; k++) {
      colidx[k] = colidx[k] - firstcol;
    }
  }
}
)",
                       assume(*cg)});

  twins.push_back(Twin{"ipa_csr", csr->source,
                       R"(int ROWLEN;
int COLUMNLEN;
int ind;
int index;
int j1;
int a[128][128];
int column_number[16384];
double value[16384];
double vector[16384];
double product_array[16384];
int rowsize[128];
int rowptr[129];
void f() {
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
                       assume(*csr)});

  twins.push_back(Twin{"ipa_scatter", scatter->source,
                       R"(int nelt;
int mt_to_id[4096];
int id_to_mt[4096];
void f() {
  for (int i = 0; i < nelt; i++) {
    mt_to_id[i] = nelt - 1 - i;
  }
  for (int miel = 0; miel < nelt; miel++) {
    id_to_mt[mt_to_id[miel]] = miel;
  }
}
)",
                       assume(*scatter)});

  // The context-sensitive chains: the fact chain (nzz filled by helper A,
  // rowstr built from it by helper B) only survives helper extraction when
  // B is re-summarized under the caller facts A established. Their inlined
  // twins are the same programs with both helpers hand-inlined into f().
  twins.push_back(Twin{"ipa_cg_chain", cg_chain->source,
                       R"(int nrows;
int firstcol;
int cols[512];
int nzz[512];
int rowstr[513];
int colidx[8192];
void f() {
  for (int i = 0; i < nrows; i++) {
    nzz[i] = cols[i] > 0 ? 1 : 0;
  }
  rowstr[0] = 0;
  for (int i = 1; i < nrows + 1; i++) {
    rowstr[i] = rowstr[i-1] + nzz[i-1];
  }
  for (int j = 0; j < nrows; j++) {
    for (int k = rowstr[j]; k < rowstr[j+1]; k++) {
      colidx[k] = colidx[k] - firstcol;
    }
  }
}
)",
                       assume(*cg_chain)});

  twins.push_back(Twin{"ipa_spmv_chain", spmv_chain->source,
                       R"(int nrows;
int cols[512];
int nzz[512];
int rowstr[513];
double aval[8192];
double p[513];
double q[513];
void f() {
  for (int i = 0; i < nrows; i++) {
    nzz[i] = cols[i] > 0 ? 1 : 0;
  }
  rowstr[0] = 0;
  for (int i = 1; i < nrows + 1; i++) {
    rowstr[i] = rowstr[i-1] + nzz[i-1];
  }
  for (int j = 0; j < nrows; j++) {
    double sum = 0.0;
    for (int k = rowstr[j]; k < rowstr[j+1]; k++) {
      sum = sum + aval[k];
    }
    q[j] = sum * p[j];
  }
}
)",
                       assume(*spmv_chain)});

  twins.push_back(Twin{"ipa_csr_chain", csr_chain->source,
                       R"(int ROWLEN;
int COLUMNLEN;
int ind;
int index;
int j1;
int a[128][128];
int column_number[16384];
double value[16384];
double vector[16384];
double product_array[16384];
int rowsize[128];
int rowptr[129];
void f() {
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
                       assume(*csr_chain)});
  return twins;
}

// --------------------------------------------------------------------------
// Differential: helper version == hand-inlined twin
// --------------------------------------------------------------------------

TEST(IpaDifferential, VerdictsAreByteIdenticalToHandInlinedTwin) {
  for (const Twin& twin : twin_programs()) {
    pipeline::Session helper(twin.helper_source, twin.assumptions);
    pipeline::Session inlined(twin.inlined_source, twin.assumptions);
    std::vector<std::string> helper_keys = verdict_keys(helper);
    std::vector<std::string> inlined_keys = verdict_keys(inlined);
    ASSERT_FALSE(helper_keys.empty()) << twin.name << helper.diagnostics().dump();
    ASSERT_FALSE(inlined_keys.empty()) << twin.name << inlined.diagnostics().dump();
    // Extracting a helper permutes loop order (function decls come first), so
    // compare the verdict multisets: every loop must get the byte-identical
    // verdict it gets in the inlined program.
    std::sort(helper_keys.begin(), helper_keys.end());
    std::sort(inlined_keys.begin(), inlined_keys.end());
    EXPECT_EQ(helper_keys, inlined_keys) << twin.name;
  }
}

TEST(IpaDifferential, EmittedAnnotationsAreByteIdenticalToHandInlinedTwin) {
  for (const Twin& twin : twin_programs()) {
    pipeline::Session helper(twin.helper_source, twin.assumptions);
    pipeline::Session inlined(twin.inlined_source, twin.assumptions);
    ASSERT_GT(helper.annotate(), 0) << twin.name;
    ASSERT_GT(inlined.annotate(), 0) << twin.name;
    EXPECT_EQ(pragma_lines(helper.emit().output), pragma_lines(inlined.emit().output))
        << twin.name;
  }
}

TEST(IpaDifferential, HelperBuiltRowstrProvesMonotonicAndParallelizesTheCgLoop) {
  const corpus::Entry* cg = corpus::find_entry("ipa_cg");
  ASSERT_NE(cg, nullptr);
  pipeline::Session session(cg->source, corpus::analyzer_assumptions(*cg));
  const auto* verdicts = session.parallelize();
  ASSERT_NE(verdicts, nullptr) << session.diagnostics().dump();
  // The CG adjustment loop (over rowstr windows) must be proven parallel via
  // the Monotonic property, with provenance naming the helper.
  bool found = false;
  for (const auto& v : *verdicts) {
    if (v.property != core::EnablingProperty::Monotonic) continue;
    found = true;
    EXPECT_TRUE(v.parallel);
    EXPECT_TRUE(v.uses_subscripted_subscripts);
    EXPECT_EQ(v.summaries_used, std::vector<std::string>{"build_rowstr"});
  }
  EXPECT_TRUE(found) << "no Monotonic verdict in ipa_cg";
  // And the summary derives a Monotonic_inc (non-negative step) fact for
  // rowstr: inspect the cached summary directly.
  const ast::FuncDecl* helper = session.program()->find_function("build_rowstr");
  ASSERT_NE(helper, nullptr);
  const ipa::FunctionSummary* summary =
      session.summaries().find(helper, core::AnalyzerOptions{});
  ASSERT_NE(summary, nullptr);
  ASSERT_TRUE(summary->analyzable) << summary->failure;
  const ast::VarDecl* rowstr = session.program()->find_global("rowstr");
  ASSERT_NE(rowstr, nullptr);
  const core::ArrayFacts* facts = summary->end_facts.find(rowstr->symbol);
  ASSERT_NE(facts, nullptr);
  ASSERT_FALSE(facts->steps.empty());
  bool monotonic_inc = false;
  for (const auto& step : facts->steps) {
    auto lo = sym::const_value(step.step.lo());
    if (lo && *lo >= 0) monotonic_inc = true;
  }
  EXPECT_TRUE(monotonic_inc) << "rowstr step fact is not Monotonic_inc";
}

// No false positives: every statically parallel loop of the interprocedural
// corpus entries is dependence-free under the dynamic oracle.
TEST(IpaDifferential, NoFalsePositivesAgainstTheDynamicOracle) {
  for (const char* name : {"ipa_cg", "ipa_csr", "ipa_scatter", "ipa_cg_chain",
                           "ipa_spmv_chain", "ipa_csr_chain"}) {
    const corpus::Entry* entry = corpus::find_entry(name);
    ASSERT_NE(entry, nullptr);
    corpus::EntryAnalysis analysis = corpus::analyze_entry(*entry);
    ASSERT_TRUE(analysis.ok) << analysis.diagnostics;
    EXPECT_GT(analysis.parallel, 0) << name;
    for (const auto& v : analysis.verdicts) {
      if (!v.parallel) continue;
      interp::Interpreter interp(*analysis.parsed.program);
      corpus::seed_interpreter_inputs(*entry, interp);
      auto oracle = interp.analyze_loop_dependences("f", v.loop);
      EXPECT_TRUE(oracle.executed) << name << " loop " << v.loop_id;
      EXPECT_TRUE(oracle.dependence_free)
          << name << " loop " << v.loop_id << " FALSE POSITIVE: " << oracle.first_conflict;
    }
  }
}

// --------------------------------------------------------------------------
// Call graph
// --------------------------------------------------------------------------

TEST(CallGraph, BottomUpOrderPutsCalleesFirst) {
  pipeline::Session session(R"(
    int x;
    void c() { x = x + 1; }
    void b() { c(); }
    void a() { b(); c(); }
  )");
  ASSERT_TRUE(session.parse());
  ipa::CallGraph graph(*session.program());
  const auto& order = graph.bottom_up();
  ASSERT_EQ(order.size(), 3u);
  auto pos = [&](const char* name) {
    for (size_t i = 0; i < order.size(); ++i) {
      if (order[i]->name == name) return i;
    }
    return order.size();
  };
  EXPECT_LT(pos("c"), pos("b"));
  EXPECT_LT(pos("b"), pos("a"));
  EXPECT_FALSE(graph.is_recursive(session.program()->find_function("a")));
  const auto* node_a = graph.node(session.program()->find_function("a"));
  ASSERT_NE(node_a, nullptr);
  EXPECT_EQ(node_a->callees.size(), 2u);
  EXPECT_TRUE(node_a->called == false);
  EXPECT_TRUE(graph.node(session.program()->find_function("c"))->called);
}

TEST(CallGraph, DetectsRecursionAndUnknownCallees) {
  // Sema resolves calls against the whole program, so even/odd may call each
  // other without prototypes (the grammar has none).
  pipeline::Session s(R"(
    int x;
    void even(int n) { odd(n - 1); }
    void odd(int n) { even(n - 1); }
    void self() { self(); }
    void unknown_caller() { mystery(); }
  )");
  ASSERT_TRUE(s.parse()) << s.diagnostics().dump();
  ipa::CallGraph graph(*s.program());
  EXPECT_TRUE(graph.is_recursive(s.program()->find_function("even")));
  EXPECT_TRUE(graph.is_recursive(s.program()->find_function("odd")));
  EXPECT_TRUE(graph.is_recursive(s.program()->find_function("self")));
  EXPECT_FALSE(graph.is_recursive(s.program()->find_function("unknown_caller")));
  EXPECT_TRUE(graph.has_unknown_callee(s.program()->find_function("unknown_caller")));
}

// --------------------------------------------------------------------------
// Summary cache
// --------------------------------------------------------------------------

TEST(SummaryDB, ReanalysisUnderKnownOptionsHitsTheCache) {
  const corpus::Entry* entry = corpus::find_entry("ipa_cg");
  ASSERT_NE(entry, nullptr);
  pipeline::Session session(entry->source, corpus::analyzer_assumptions(*entry));
  core::AnalyzerOptions defaults;
  core::AnalyzerOptions no_recurrence;
  no_recurrence.enable_recurrence_rule = false;

  ASSERT_NE(session.analyze(defaults), nullptr);
  const auto after_first = session.summaries().stats();
  EXPECT_EQ(after_first.computed, 1u);
  EXPECT_EQ(after_first.hits, 0u);

  // Different options: a fresh summary is computed under its own key.
  ASSERT_NE(session.analyze(no_recurrence), nullptr);
  const auto after_second = session.summaries().stats();
  EXPECT_EQ(after_second.computed, 2u);
  EXPECT_EQ(after_second.hits, 0u);

  // Back to the first configuration: served from the cache.
  ASSERT_NE(session.analyze(defaults), nullptr);
  const auto after_third = session.summaries().stats();
  EXPECT_EQ(after_third.computed, 2u);
  EXPECT_EQ(after_third.hits, 1u);

  // The ablated summary really is different: without the recurrence rule the
  // helper cannot prove the rowstr step fact.
  const ast::FuncDecl* helper = session.program()->find_function("build_rowstr");
  const ipa::FunctionSummary* ablated = session.summaries().find(helper, no_recurrence);
  ASSERT_NE(ablated, nullptr);
  const ast::VarDecl* rowstr = session.program()->find_global("rowstr");
  const core::ArrayFacts* facts = ablated->end_facts.find(rowstr->symbol);
  EXPECT_TRUE(!facts || facts->steps.empty());
}

TEST(SummaryDB, TakeParseClearsSummaries) {
  const corpus::Entry* entry = corpus::find_entry("ipa_cg");
  pipeline::Session session(entry->source, corpus::analyzer_assumptions(*entry));
  ASSERT_NE(session.analyze(), nullptr);
  EXPECT_GT(session.summaries().size(), 0u);
  auto parsed = session.take_parse();
  EXPECT_EQ(session.summaries().size(), 0u);
}

// --------------------------------------------------------------------------
// W03xx degradation diagnostics
// --------------------------------------------------------------------------

bool has_diag(const pipeline::Session& session, support::DiagCode code,
              const std::string& substring) {
  for (const auto& d : session.diagnostics().diagnostics()) {
    if (d.code == code && d.severity == support::Severity::Warning &&
        d.message.find(substring) != std::string::npos) {
      return true;
    }
  }
  return false;
}

TEST(Diagnostics, LoopWithRecursiveCallEmitsW0301WithCalleeName) {
  pipeline::Session session(R"(
    int n;
    int acc;
    int tri(int k) {
      if (k > 0) {
        acc = acc + k;
        tri(k - 1);
      }
      return acc;
    }
    void f() {
      for (int i = 0; i < n; i++) {
        tri(i);
      }
    }
  )",
                            {{"n", 1}});
  const auto* verdicts = session.parallelize();
  ASSERT_NE(verdicts, nullptr) << session.diagnostics().dump();
  EXPECT_TRUE(has_diag(session, support::DiagCode::AnalysisLoopCall, "tri"))
      << session.diagnostics().dump();
  EXPECT_EQ(support::diag_code_name(support::DiagCode::AnalysisLoopCall), "W0301");
  // The loop is degraded, not mis-analyzed.
  for (const auto& v : *verdicts) EXPECT_FALSE(v.parallel);
}

TEST(Diagnostics, WhileAndBreakEmitW0302AndW0303) {
  pipeline::Session session(R"(
    int n;
    int a[1024];
    void f() {
      for (int i = 0; i < n; i++) {
        int k = 0;
        while (k < i) {
          k = k + 1;
        }
        a[i] = k;
      }
      for (int i = 0; i < n; i++) {
        if (a[i] > 100) {
          break;
        }
        a[i] = a[i] + 1;
      }
    }
  )",
                            {{"n", 1}});
  ASSERT_NE(session.parallelize(), nullptr);
  EXPECT_TRUE(has_diag(session, support::DiagCode::AnalysisLoopWhile, "while"))
      << session.diagnostics().dump();
  EXPECT_TRUE(has_diag(session, support::DiagCode::AnalysisLoopAbruptExit, "break"))
      << session.diagnostics().dump();
  EXPECT_EQ(support::diag_code_name(support::DiagCode::AnalysisLoopWhile), "W0302");
  EXPECT_EQ(support::diag_code_name(support::DiagCode::AnalysisLoopAbruptExit), "W0303");
}

TEST(Diagnostics, WarningsSurfaceInTheJsonReport) {
  driver::BatchAnalyzer analyzer(driver::BatchOptions{1, {}});
  driver::ProgramInput input;
  input.name = "warny";
  input.source = R"(
    int n;
    int total;
    void f() {
      for (int i = 0; i < n; i++) {
        int k = 0;
        while (k < i) { k = k + 1; }
        total = total + k;
      }
    }
  )";
  input.assumptions = pipeline::Assumptions{{"n", 1}};
  driver::BatchReport report = analyzer.run({input});
  ASSERT_EQ(report.programs.size(), 1u);
  support::json::Value doc = driver::program_report_to_json(report.programs[0], false);
  std::string text = doc.dump();
  EXPECT_NE(text.find("W0302"), std::string::npos) << text;
}

// --------------------------------------------------------------------------
// Soundness: unsummarizable calls degrade conservatively
// --------------------------------------------------------------------------

TEST(IpaSoundness, OpaqueCallHavocsFactsAboutEveryGlobal) {
  // g() is not summarizable (calls an unknown function) and writes perm; the
  // facts proven about perm before the call must not survive it.
  pipeline::Session session(R"(
    int n;
    int perm[2048];
    int out[2048];
    void g() {
      mystery();
    }
    void f() {
      for (int i = 0; i < n; i++) {
        perm[i] = n - 1 - i;
      }
      g();
      for (int i = 0; i < n; i++) {
        out[perm[i]] = i;
      }
    }
  )",
                            {{"n", 1}});
  const auto* verdicts = session.parallelize();
  ASSERT_NE(verdicts, nullptr) << session.diagnostics().dump();
  // The scatter loop must NOT be proven parallel: g() may have scrambled perm.
  bool scatter_seen = false;
  for (const auto& v : *verdicts) {
    if (!v.uses_subscripted_subscripts) continue;
    scatter_seen = true;
    EXPECT_FALSE(v.parallel) << v.reason;
  }
  EXPECT_TRUE(scatter_seen);
}

TEST(IpaSoundness, SummarizedCallKillsOverlappingCallerFacts) {
  // reset() rewrites a prefix of perm with a non-injective constant; the
  // injectivity proven by the fill loop must die at the call.
  pipeline::Session session(R"(
    int n;
    int perm[2048];
    int out[2048];
    void reset() {
      for (int i = 0; i < n; i++) {
        perm[i] = 0;
      }
    }
    void f() {
      for (int i = 0; i < n; i++) {
        perm[i] = n - 1 - i;
      }
      reset();
      for (int i = 0; i < n; i++) {
        out[perm[i]] = i;
      }
    }
  )",
                            {{"n", 1}});
  const auto* verdicts = session.parallelize();
  ASSERT_NE(verdicts, nullptr) << session.diagnostics().dump();
  bool scatter_seen = false;
  for (const auto& v : *verdicts) {
    if (!v.uses_subscripted_subscripts) continue;
    scatter_seen = true;
    EXPECT_FALSE(v.parallel) << v.reason;
  }
  EXPECT_TRUE(scatter_seen);
}

TEST(IpaSoundness, ConditionallyWrittenCalleeGlobalCarriesLambdaDependence) {
  // mark() assigns the global s only on some paths; in a caller loop the
  // skip-path keeps the previous iteration's value — a loop-carried scalar
  // dependence, exactly as if the conditional assignment were inlined.
  pipeline::Session session(R"(
    int n;
    int s;
    int flag[1024];
    int out[1024];
    void mark(int i) {
      if (flag[i] > 0) {
        s = i;
      }
    }
    void f() {
      for (int i = 0; i < n; i++) {
        mark(i);
        out[i] = s;
      }
    }
  )",
                            {{"n", 1}});
  const auto* verdicts = session.parallelize();
  ASSERT_NE(verdicts, nullptr) << session.diagnostics().dump();
  ASSERT_EQ(verdicts->size(), 1u);
  const auto& v = (*verdicts)[0];
  EXPECT_FALSE(v.parallel);
  bool lambda_blocker = false;
  for (const auto& b : v.blockers) {
    if (b.find("loop-carried scalar dependence on 's'") != std::string::npos) {
      lambda_blocker = true;
    }
  }
  EXPECT_TRUE(lambda_blocker) << support::join(v.blockers, "; ");
}

TEST(IpaSoundness, OpaqueCallKillsFactsAboutLocalArraysToo) {
  // tmp is function-local; mystery(tmp) may rewrite it, so the identity fact
  // from the fill loop must not survive into the scatter loop.
  pipeline::Session session(R"(
    int n;
    int out[64];
    void f() {
      int tmp[64];
      for (int i = 0; i < n; i++) {
        tmp[i] = i;
      }
      mystery(tmp);
      for (int i = 0; i < n; i++) {
        out[tmp[i]] = i;
      }
    }
  )",
                            {{"n", 1}});
  const auto* verdicts = session.parallelize();
  ASSERT_NE(verdicts, nullptr) << session.diagnostics().dump();
  bool scatter_seen = false;
  for (const auto& v : *verdicts) {
    if (!v.uses_subscripted_subscripts) continue;
    scatter_seen = true;
    EXPECT_FALSE(v.parallel) << v.reason;
  }
  EXPECT_TRUE(scatter_seen);
}

TEST(IpaDifferential, NestedHelperIndirectionCountsAsSubscripted) {
  // lookup2 forwards to lookup; the indirection is one call deeper but the
  // subscripted-subscript classification must still see it.
  pipeline::Session session(R"(
    int nelt;
    int mt_to_id[4096];
    int id_to_mt[4096];
    int lookup(int m) {
      return mt_to_id[m];
    }
    int lookup2(int m) {
      return lookup(m);
    }
    void f() {
      for (int i = 0; i < nelt; i++) {
        mt_to_id[i] = nelt - 1 - i;
      }
      for (int miel = 0; miel < nelt; miel++) {
        id_to_mt[lookup2(miel)] = miel;
      }
    }
  )",
                            {{"nelt", 1}});
  const auto* verdicts = session.parallelize();
  ASSERT_NE(verdicts, nullptr) << session.diagnostics().dump();
  bool scatter_seen = false;
  for (const auto& v : *verdicts) {
    if (!v.uses_subscripted_subscripts) continue;
    scatter_seen = true;
    EXPECT_TRUE(v.parallel) << support::join(v.blockers, "; ");
  }
  EXPECT_TRUE(scatter_seen);
}

TEST(IpaSoundness, ArityMismatchedCallInReturnExpressionIsNotSummarizable) {
  // g2 writes out[0]; h calls it with the wrong arity from its return
  // expression. The summary of h must be rejected (not silently analyzable
  // with g2's write effects dropped).
  pipeline::Session session(R"(
    int n;
    int out[64];
    int g2(int a) {
      out[0] = 1;
      return a;
    }
    int h() {
      return g2();
    }
    void f() {
      out[0] = 7;
      for (int i = 0; i < n; i++) {
        out[i] = h();
      }
    }
  )",
                            {{"n", 1}});
  ASSERT_TRUE(session.parse()) << session.diagnostics().dump();
  ASSERT_NE(session.analyze(), nullptr);
  const ast::FuncDecl* h = session.program()->find_function("h");
  const ipa::FunctionSummary* summary = session.summaries().find(h, core::AnalyzerOptions{});
  ASSERT_NE(summary, nullptr);
  EXPECT_FALSE(summary->analyzable) << "arity mismatch must not summarize";
  EXPECT_TRUE(has_diag(session, support::DiagCode::AnalysisLoopCall, "h"))
      << session.diagnostics().dump();
}

TEST(IpaInterpreter, FallingOffTheEndReturnsZeroNotAStaleNestedValue) {
  support::DiagnosticEngine diags;
  auto parsed = ast::parse_and_resolve(R"(
    int x;
    int g() {
      return 5;
    }
    int h() {
      g();
    }
    void f() {
      x = h();
    }
  )",
                                       diags);
  ASSERT_TRUE(parsed.ok) << diags.dump();
  interp::Interpreter interp(*parsed.program);
  interp.run("f");
  EXPECT_EQ(interp.scalar_int("x"), 0);
}

TEST(IpaPrecision, CalleeScalarAssignedBeforeReadIsNotExposed) {
  // compute() assigns the global temporary t before every read of it, so t's
  // entry value never flows into the callee: the call site must not treat t
  // as a loop-carried λ-read. The loop parallelizes with t privatized,
  // byte-identically to its hand-inlined twin.
  static const char* kHelper = R"(
    int n;
    int t;
    int a[1024];
    int b[1024];
    void compute(int i) {
      t = b[i] * 2;
      a[i] = t;
    }
    void f() {
      for (int i = 0; i < n; i++) {
        compute(i);
      }
    }
  )";
  static const char* kInlined = R"(
    int n;
    int t;
    int a[1024];
    int b[1024];
    void f() {
      for (int i = 0; i < n; i++) {
        t = b[i] * 2;
        a[i] = t;
      }
    }
  )";
  pipeline::Session helper(kHelper, {{"n", 1}});
  pipeline::Session inlined(kInlined, {{"n", 1}});
  const auto* hv = helper.parallelize();
  const auto* iv = inlined.parallelize();
  ASSERT_NE(hv, nullptr) << helper.diagnostics().dump();
  ASSERT_NE(iv, nullptr) << inlined.diagnostics().dump();
  ASSERT_EQ(hv->size(), 1u);
  ASSERT_EQ(iv->size(), 1u);
  EXPECT_TRUE((*iv)[0].parallel) << support::join((*iv)[0].blockers, "; ");
  EXPECT_TRUE((*hv)[0].parallel) << support::join((*hv)[0].blockers, "; ");
  EXPECT_EQ(verdict_key((*hv)[0]), verdict_key((*iv)[0]));
  EXPECT_EQ(helper.annotate(), 1);
  EXPECT_TRUE(support::contains(helper.emit().output, "private(t)"))
      << helper.emit().output;

  // Dynamic differential: the flipped verdict must survive the permutation
  // oracle (excluding the privatized t, whose final value is unspecified).
  support::DiagnosticEngine diags;
  auto parsed = ast::parse_and_resolve(kHelper, diags);
  ASSERT_TRUE(parsed.ok) << diags.dump();
  auto seed = [](interp::Interpreter& interp) {
    interp.set_scalar("n", int64_t{512});
    std::vector<int64_t> b(1024);
    for (size_t i = 0; i < b.size(); ++i) b[i] = static_cast<int64_t>(i % 37);
    interp.set_array_int("b", std::move(b));
  };
  interp::Interpreter sequential(*parsed.program);
  seed(sequential);
  sequential.run("f");
  auto expected = sequential.snapshot();
  auto loops = ast::collect_loops(parsed.program->find_function("f")->body.get());
  ASSERT_EQ(loops.size(), 1u);
  interp::Interpreter permuted(*parsed.program);
  seed(permuted);
  permuted.run_permuted("f", loops[0], 99);
  std::string diff;
  EXPECT_TRUE(
      interp::Interpreter::equal_state(*expected, *permuted.snapshot(), {"t"}, &diff))
      << diff;
}

TEST(IpaPrecision, ReadBeforeAssignmentStaysExposed) {
  // The mirror case: accumulate() reads s before writing it, so s IS exposed
  // and the caller loop keeps its loop-carried scalar dependence.
  pipeline::Session session(R"(
    int n;
    int s;
    int b[1024];
    void accumulate(int i) {
      s = s + b[i];
    }
    void f() {
      for (int i = 0; i < n; i++) {
        accumulate(i);
      }
    }
  )",
                            {{"n", 1}});
  const auto* verdicts = session.parallelize();
  ASSERT_NE(verdicts, nullptr) << session.diagnostics().dump();
  ASSERT_EQ(verdicts->size(), 1u);
  EXPECT_FALSE((*verdicts)[0].parallel);
  bool lambda_blocker = false;
  for (const auto& b : (*verdicts)[0].blockers) {
    if (b.find("loop-carried scalar dependence on 's'") != std::string::npos) {
      lambda_blocker = true;
    }
  }
  EXPECT_TRUE(lambda_blocker) << support::join((*verdicts)[0].blockers, "; ");
}

TEST(Diagnostics, ReanalysisDoesNotDuplicateWarnings) {
  pipeline::Session session(R"(
    int n;
    int total;
    void f() {
      for (int i = 0; i < n; i++) {
        int k = 0;
        while (k < i) { k = k + 1; }
        total = total + k;
      }
    }
  )",
                            {{"n", 1}});
  core::AnalyzerOptions ablated;
  ablated.enable_recurrence_rule = false;
  session.analyze(core::AnalyzerOptions{});
  session.analyze(ablated);
  session.analyze(core::AnalyzerOptions{});
  int w0302 = 0;
  for (const auto& d : session.diagnostics().diagnostics()) {
    if (d.code == support::DiagCode::AnalysisLoopWhile) ++w0302;
  }
  EXPECT_EQ(w0302, 1) << session.diagnostics().dump();
}

// --------------------------------------------------------------------------
// Context sensitivity: summaries specialized to caller entry facts
// --------------------------------------------------------------------------

TEST(ContextSensitivity, BaseSummaryLosesTheChainButContextSummaryKeepsIt) {
  const corpus::Entry* entry = corpus::find_entry("ipa_cg_chain");
  ASSERT_NE(entry, nullptr);
  pipeline::Session session(entry->source, corpus::analyzer_assumptions(*entry));
  const auto* verdicts = session.parallelize();
  ASSERT_NE(verdicts, nullptr) << session.diagnostics().dump();

  // The CG adjustment loop is proven Monotonic, with provenance naming the
  // helper that finished the chain.
  bool monotonic = false;
  for (const auto& v : *verdicts) {
    if (v.property != core::EnablingProperty::Monotonic) continue;
    monotonic = true;
    EXPECT_TRUE(v.parallel);
    EXPECT_EQ(v.summaries_used, std::vector<std::string>{"build_rowstr"});
  }
  EXPECT_TRUE(monotonic) << "no Monotonic verdict in ipa_cg_chain";

  // The BASE summary of build_rowstr (empty entry facts) cannot bound
  // nzz[i-1], so it has no rowstr step fact — the property exists only in
  // the context-sensitive re-summary.
  const ast::FuncDecl* helper = session.program()->find_function("build_rowstr");
  ASSERT_NE(helper, nullptr);
  const ipa::FunctionSummary* base =
      session.summaries().find(helper, core::AnalyzerOptions{});
  ASSERT_NE(base, nullptr);
  ASSERT_TRUE(base->analyzable) << base->failure;
  EXPECT_EQ(base->entry_fingerprint, 0u);
  const ast::VarDecl* rowstr = session.program()->find_global("rowstr");
  ASSERT_NE(rowstr, nullptr);
  const core::ArrayFacts* base_facts = base->end_facts.find(rowstr->symbol);
  bool base_monotonic = false;
  if (base_facts) {
    for (const auto& step : base_facts->steps) {
      auto lo = sym::const_value(step.step.lo());
      if (lo && *lo >= 0) base_monotonic = true;
    }
  }
  EXPECT_FALSE(base_monotonic) << "base summary should not know nzz >= 0";
  EXPECT_GE(session.summaries().stats().context_computed, 1u);
}

TEST(ContextSensitivity, RepeatedCallSitesHitTheFingerprintedCacheSlot) {
  // f and g run the identical chain, so g's build_rowstr call site projects
  // the same entry facts as f's: its context summary is served from the
  // fingerprinted cache slot, not recomputed.
  pipeline::Session session(R"(
    int nrows;
    int cols[512];
    int nzz[512];
    int rowstr[513];
    void fill_nzz() {
      for (int i = 0; i < nrows; i++) {
        nzz[i] = cols[i] > 0 ? 1 : 0;
      }
    }
    void build_rowstr() {
      rowstr[0] = 0;
      for (int i = 1; i < nrows + 1; i++) {
        rowstr[i] = rowstr[i-1] + nzz[i-1];
      }
    }
    void f() {
      fill_nzz();
      build_rowstr();
    }
    void g() {
      fill_nzz();
      build_rowstr();
    }
  )",
                            {{"nrows", 1}});
  ASSERT_NE(session.analyze(), nullptr) << session.diagnostics().dump();
  const auto stats = session.summaries().stats();
  EXPECT_EQ(stats.context_computed, 1u) << "g's call site must reuse f's entry";
  EXPECT_GE(stats.hits, 1u);
}

TEST(ContextSensitivity, StaleCallerFactsAreNotProjected) {
  // The caller scrambles nzz between fill_nzz() and build_rowstr(): the
  // nzz facts at statement entry no longer hold at the call, so the context
  // summary must not claim Monotonic_inc for rowstr (soundness).
  pipeline::Session session(R"(
    int nrows;
    int cols[512];
    int nzz[512];
    int rowstr[513];
    int out[8192];
    void fill_nzz() {
      for (int i = 0; i < nrows; i++) {
        nzz[i] = cols[i] > 0 ? 1 : 0;
      }
    }
    void build_rowstr() {
      rowstr[0] = 0;
      for (int i = 1; i < nrows + 1; i++) {
        rowstr[i] = rowstr[i-1] + nzz[i-1];
      }
    }
    void f() {
      fill_nzz();
      nzz[0] = 0 - 5;
      build_rowstr();
      for (int j = 0; j < nrows; j++) {
        for (int k = rowstr[j]; k < rowstr[j+1]; k++) {
          out[k] = out[k] + 1;
        }
      }
    }
  )",
                            {{"nrows", 1}});
  const auto* verdicts = session.parallelize();
  ASSERT_NE(verdicts, nullptr) << session.diagnostics().dump();
  for (const auto& v : *verdicts) {
    EXPECT_NE(v.property, core::EnablingProperty::Monotonic)
        << "scrambled nzz must not yield a Monotonic rowstr";
  }
}

TEST(ContextSensitivity, ScalarModifiedBetweenCallsInvalidatesTheProjection) {
  // n grows between fill_nzz() and build_rowstr(): the nzz fact, expressed
  // in caller-entry terms over [0 : n-1], would be reinterpreted over the
  // grown range inside the callee — the tail of nzz is unconstrained, so
  // Monotonic must NOT be proven (soundness).
  pipeline::Session session(R"(
    int n;
    int cols[512];
    int nzz[512];
    int rowstr[513];
    int colidx[8192];
    void fill_nzz() {
      for (int i = 0; i < n; i++) {
        nzz[i] = cols[i] > 0 ? 1 : 0;
      }
    }
    void build_rowstr() {
      rowstr[0] = 0;
      for (int i = 1; i < n + 1; i++) {
        rowstr[i] = rowstr[i-1] + nzz[i-1];
      }
    }
    void f() {
      fill_nzz();
      n = n + 50;
      build_rowstr();
      for (int j = 0; j < n; j++) {
        for (int k = rowstr[j]; k < rowstr[j+1]; k++) {
          colidx[k] = colidx[k] + 1;
        }
      }
    }
  )",
                            {{"n", 1}});
  const auto* verdicts = session.parallelize();
  ASSERT_NE(verdicts, nullptr) << session.diagnostics().dump();
  for (const auto& v : *verdicts) {
    EXPECT_NE(v.property, core::EnablingProperty::Monotonic)
        << "nzz facts over the old n must not survive the n = n + 50";
  }
}

TEST(ContextSensitivity, NegativeInjectiveThresholdGetsItsOwnFingerprint) {
  // min_value == -1 must not alias the "no threshold" encoding: the two
  // projections would otherwise share a SummaryDB slot and a cross-program
  // cache key, serving a summary proven under the stronger fact.
  sym::SymbolTable symbols;
  sym::SymbolId array = symbols.intern("perm");
  core::FactDB with_threshold;
  core::FactDB without_threshold;
  core::InjectiveFact fact;
  fact.lo = sym::make_const(0);
  fact.hi = sym::make_const(7);
  fact.min_value = -1;
  with_threshold.add_injective(array, fact);
  fact.min_value.reset();
  without_threshold.add_injective(array, fact);
  EXPECT_NE(ipa::fingerprint_facts(with_threshold, symbols),
            ipa::fingerprint_facts(without_threshold, symbols));
}

// --------------------------------------------------------------------------
// Cross-program summary cache
// --------------------------------------------------------------------------

TEST(CrossCache, SecondSessionRehydratesEverySummaryByteIdentically) {
  const corpus::Entry* entry = corpus::find_entry("ipa_cg_chain");
  ASSERT_NE(entry, nullptr);
  ipa::CrossProgramCache cache;

  pipeline::Session cold(entry->source, corpus::analyzer_assumptions(*entry));
  cold.share_summaries(&cache);
  std::vector<std::string> cold_keys = verdict_keys(cold);
  ASSERT_FALSE(cold_keys.empty()) << cold.diagnostics().dump();
  const auto cold_stats = cold.summaries().stats();
  EXPECT_GT(cold_stats.computed, 0u);
  EXPECT_EQ(cold_stats.shared_hits, 0u);
  EXPECT_GT(cache.size(), 0u);

  pipeline::Session warm(entry->source, corpus::analyzer_assumptions(*entry));
  warm.share_summaries(&cache);
  std::vector<std::string> warm_keys = verdict_keys(warm);
  const auto warm_stats = warm.summaries().stats();
  EXPECT_EQ(warm_stats.computed, 0u) << "every summary should rehydrate";
  EXPECT_EQ(warm_stats.shared_hits, cold_stats.computed);
  EXPECT_EQ(warm_keys, cold_keys);

  // And against a session that never saw the cache: byte-identical verdicts.
  pipeline::Session solo(entry->source, corpus::analyzer_assumptions(*entry));
  EXPECT_EQ(verdict_keys(solo), cold_keys);
  EXPECT_EQ(solo.emit().output, warm.emit().output);
}

TEST(CrossCache, ByteIdenticalHelpersShareAcrossDifferentPrograms) {
  // ipa_cg_chain and ipa_spmv_chain carry byte-identical helpers over
  // byte-identical globals; analyzing them through one cache rehydrates the
  // second program's helper summaries from the first's.
  const corpus::Entry* a = corpus::find_entry("ipa_cg_chain");
  const corpus::Entry* b = corpus::find_entry("ipa_spmv_chain");
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  ipa::CrossProgramCache cache;
  pipeline::Session first(a->source, corpus::analyzer_assumptions(*a));
  first.share_summaries(&cache);
  ASSERT_NE(first.parallelize(), nullptr);
  pipeline::Session second(b->source, corpus::analyzer_assumptions(*b));
  second.share_summaries(&cache);
  ASSERT_NE(second.parallelize(), nullptr);
  EXPECT_GT(second.summaries().stats().shared_hits, 0u)
      << "identical helpers in a different program must rehydrate";
  // Sharing never changes verdicts.
  pipeline::Session solo(b->source, corpus::analyzer_assumptions(*b));
  EXPECT_EQ(verdict_keys(solo), verdict_keys(second));
}

TEST(CrossCache, DifferentAssumptionsDoNotShare) {
  // Same source, different analyzer assumptions about a referenced global:
  // the content address must differ (the summary's trip-count proofs depend
  // on the assumption).
  const corpus::Entry* entry = corpus::find_entry("ipa_cg_chain");
  ASSERT_NE(entry, nullptr);
  ipa::CrossProgramCache cache;
  pipeline::Session low(entry->source, pipeline::Assumptions{{"nrows", 1}});
  low.share_summaries(&cache);
  ASSERT_NE(low.analyze(), nullptr);
  pipeline::Session high(entry->source, pipeline::Assumptions{{"nrows", 64}});
  high.share_summaries(&cache);
  ASSERT_NE(high.analyze(), nullptr);
  EXPECT_EQ(high.summaries().stats().shared_hits, 0u)
      << "nrows >= 1 and nrows >= 64 must not share summaries";
}

// One batch run whose sessions share a fresh cross-program cache.
driver::BatchReport run_shared(unsigned threads, const std::vector<driver::ProgramInput>& inputs) {
  ipa::CrossProgramCache cache;
  return driver::BatchAnalyzer(driver::BatchOptions{threads, {}, &cache}).run(inputs);
}

TEST(CrossCache, BatchWithAndWithoutSharingAgreeEverywhere) {
  auto inputs = driver::BatchAnalyzer::corpus_inputs();
  driver::BatchReport shared = run_shared(1, inputs);
  // The isolated reference: one single-input run per program, whose fresh
  // cache cannot share across programs.
  std::vector<driver::ProgramReport> isolated;
  uint64_t isolated_hits = 0;
  for (const driver::ProgramInput& input : inputs) {
    driver::BatchReport one = run_shared(1, {input});
    isolated_hits += one.shared_cache.hits;
    isolated.push_back(std::move(one.programs.front()));
  }
  ASSERT_EQ(shared.programs.size(), isolated.size());
  for (size_t i = 0; i < shared.programs.size(); ++i) {
    EXPECT_EQ(shared.programs[i].result.output, isolated[i].result.output)
        << shared.programs[i].name;
  }
  const driver::BatchStats isolated_stats = driver::BatchAnalyzer::aggregate(isolated);
  EXPECT_EQ(shared.stats.loops, isolated_stats.loops);
  EXPECT_EQ(shared.stats.parallel, isolated_stats.parallel);
  EXPECT_EQ(shared.stats.parallel_subscripted, isolated_stats.parallel_subscripted);
  EXPECT_EQ(shared.stats.property_counts, isolated_stats.property_counts);
  EXPECT_EQ(shared.stats.summaries_computed, isolated_stats.summaries_computed);
  // The shared run actually shared something...
  EXPECT_GT(shared.shared_cache.hits, 0u);
  EXPECT_GT(shared.stats.cross_summary_requests, 0);
  EXPECT_GT(shared.stats.cross_summary_entries, 0);
  // ...and the per-program runs shared nothing.
  EXPECT_EQ(isolated_hits, 0u);
}

TEST(CrossCache, SessionWithoutACacheComputesNoContentKeys) {
  // Content keys address only the shared cache, so a session without one
  // (every batch run without BatchOptions::share_with) prints and hashes
  // none of its functions.
  const corpus::Entry* entry = corpus::find_entry("ipa_cg_chain");
  ASSERT_NE(entry, nullptr);
  pipeline::Session alone(entry->source, corpus::analyzer_assumptions(*entry));
  ASSERT_NE(alone.parallelize(), nullptr);
  ASSERT_GT(alone.summaries().stats().materialized(), 0u);
  for (const auto& function : alone.program()->functions) {
    EXPECT_EQ(alone.analyzer()->content_key(function.get()), nullptr) << function->name;
  }
  // The same program with a cache attached keys the functions it calls.
  ipa::CrossProgramCache cache;
  pipeline::Session shared(entry->source, corpus::analyzer_assumptions(*entry));
  shared.share_summaries(&cache);
  ASSERT_NE(shared.parallelize(), nullptr);
  int keyed = 0;
  for (const auto& function : shared.program()->functions) {
    if (shared.analyzer()->content_key(function.get()) != nullptr) ++keyed;
  }
  EXPECT_GT(keyed, 0);
}

// --------------------------------------------------------------------------
// ProgramScope: the per-program name index against the per-call maps
// --------------------------------------------------------------------------

// The namespaces conversion used to build per call. to_portable's: globals
// then parameters by symbol, where any name shared by two symbols makes the
// summary non-portable. rehydrate's: globals then parameters by name, later
// declarations winning. Conversion consults names only through these
// lookups (plus the function lookup), so a ProgramScope that answers every
// one of them identically converts identically.
struct PerCallMaps {
  PerCallMaps(const ast::Program& program, const ast::FuncDecl& function) {
    auto add = [this](const ast::VarDecl* decl) {
      if (!ok) return;
      if (!by_symbol.emplace(decl->symbol, decl->name).second) return;
      auto [it, fresh] = symbol_by_name.emplace(decl->name, decl->symbol);
      if (!fresh && it->second != decl->symbol) ok = false;
    };
    for (const auto& g : program.globals) add(g.get());
    for (const auto& p : function.params) add(p.get());
    for (const auto& g : program.globals) by_name[g->name] = g.get();
    for (const auto& p : function.params) by_name[p->name] = p.get();
  }
  bool ok = true;
  std::map<sym::SymbolId, std::string> by_symbol;
  std::map<std::string, sym::SymbolId> symbol_by_name;
  std::map<std::string, const ast::VarDecl*> by_name;
};

// Every symbol and every declared name (globals, functions, parameters,
// locals, plus one undeclared name) through both lookups, for every function.
void expect_scope_matches_per_call_maps(const ast::Program& program,
                                        const sym::SymbolTable& symbols,
                                        const ipa::ProgramScope& scope) {
  std::set<std::string> names = {"no_such_name"};
  for (const auto& g : program.globals) names.insert(g->name);
  for (const auto& f : program.functions) {
    names.insert(f->name);
    for (const auto& p : f->params) names.insert(p->name);
    ast::walk_stmts(static_cast<const ast::Stmt*>(f->body.get()), [&](const ast::Stmt* stmt) {
      if (const auto* decls = stmt->as<ast::DeclStmt>()) {
        for (const auto& d : decls->decls) names.insert(d->name);
      }
      return true;
    });
  }
  for (const auto& f : program.functions) {
    SCOPED_TRACE(f->name);
    const PerCallMaps old(program, *f);
    ASSERT_EQ(scope.names_distinct(*f), old.ok);
    if (old.ok) {
      for (sym::SymbolId id = 0; id < symbols.size(); ++id) {
        auto it = old.by_symbol.find(id);
        const std::string* name = scope.name_of(*f, id);
        if (it == old.by_symbol.end()) {
          EXPECT_EQ(name, nullptr) << symbols.name(id);
        } else {
          ASSERT_NE(name, nullptr) << symbols.name(id);
          EXPECT_EQ(*name, it->second);
        }
      }
    }
    for (const std::string& name : names) {
      auto it = old.by_name.find(name);
      EXPECT_EQ(scope.resolve(*f, name), it == old.by_name.end() ? nullptr : it->second)
          << name;
    }
  }
  for (const std::string& name : names) {
    EXPECT_EQ(scope.find_function(name), program.find_function(name)) << name;
  }
}

TEST(ProgramScope, MatchesThePerCallMapsOnEveryCorpusProgram) {
  size_t converted = 0;
  for (const corpus::Entry& entry : corpus::all_entries()) {
    SCOPED_TRACE(entry.name);
    ipa::CrossProgramCache cache;
    pipeline::Session session(entry.source, corpus::analyzer_assumptions(entry));
    session.share_summaries(&cache);
    ASSERT_NE(session.parallelize(), nullptr) << session.diagnostics().dump();
    const ast::Program& program = *session.program();
    const ipa::ProgramScope scope(program);
    expect_scope_matches_per_call_maps(program, *session.symbols(), scope);

    // One scope serving every function of the program converts exactly as a
    // scope built for the single call, and a rehydrated summary converts
    // back to the same bytes.
    sym::ExprArena arena;
    sym::ArenaScope arena_scope(arena);
    for (const auto& f : program.functions) {
      const ipa::FunctionSummary* summary =
          session.summaries().find(f.get(), core::AnalyzerOptions{});
      if (summary == nullptr) continue;
      SCOPED_TRACE(f->name);
      auto portable = ipa::to_portable(*summary, scope, /*allow_unanalyzable=*/true);
      auto per_call =
          ipa::to_portable(*summary, ipa::ProgramScope(program), /*allow_unanalyzable=*/true);
      ASSERT_EQ(portable.has_value(), per_call.has_value());
      if (!portable) continue;
      const std::string bytes = store::serialize_summary(*portable);
      EXPECT_EQ(bytes, store::serialize_summary(*per_call));
      auto rehydrated = ipa::rehydrate(*portable, scope);
      ASSERT_TRUE(rehydrated.has_value());
      EXPECT_EQ(rehydrated->function, f.get());
      EXPECT_EQ(rehydrated->may_write_scalars, summary->may_write_scalars);
      EXPECT_EQ(rehydrated->may_write_arrays, summary->may_write_arrays);
      EXPECT_EQ(rehydrated->exposed_scalar_reads, summary->exposed_scalar_reads);
      auto again = ipa::to_portable(*rehydrated, scope, /*allow_unanalyzable=*/true);
      ASSERT_TRUE(again.has_value());
      EXPECT_EQ(store::serialize_summary(*again), bytes);
      ++converted;
    }
  }
  EXPECT_GT(converted, 10u);
}

TEST(ProgramScope, ShadowingParameterIsNotPortable) {
  pipeline::Session session(R"(
    int n;
    int a[100];
    void f(int n) {
      for (int i = 0; i < n; i++) {
        a[i] = i;
      }
    }
    void g() {
      f(n);
    }
  )",
                            {{"n", 1}});
  ASSERT_NE(session.parallelize(), nullptr) << session.diagnostics().dump();
  const ast::Program& program = *session.program();
  const ipa::ProgramScope scope(program);
  expect_scope_matches_per_call_maps(program, *session.symbols(), scope);
  const ast::FuncDecl* f = program.find_function("f");
  EXPECT_FALSE(scope.names_distinct(*f));
  EXPECT_EQ(scope.resolve(*f, "n"), f->params[0].get());
  EXPECT_EQ(scope.resolve(*program.find_function("g"), "n"), program.find_global("n"));
  const ipa::FunctionSummary* summary = session.summaries().find(f, core::AnalyzerOptions{});
  ASSERT_NE(summary, nullptr);
  EXPECT_FALSE(ipa::to_portable(*summary, scope, /*allow_unanalyzable=*/true).has_value());
}

TEST(ProgramScope, ParameterWinsOverSameNamedGlobalOnRehydrate) {
  // g's summary is made where no global is named k; the target program adds
  // a global k, which g's parameter k must shadow on rehydration.
  pipeline::Session source(R"(
    int m;
    int a[100];
    void g(int k) {
      a[k] = m;
    }
    void h() {
      g(m);
    }
  )");
  ASSERT_NE(source.parallelize(), nullptr) << source.diagnostics().dump();
  const ast::Program& from = *source.program();
  const ipa::FunctionSummary* summary =
      source.summaries().find(from.find_function("g"), core::AnalyzerOptions{});
  ASSERT_NE(summary, nullptr);
  auto portable = ipa::to_portable(*summary, ipa::ProgramScope(from));
  ASSERT_TRUE(portable.has_value());
  ASSERT_EQ(portable->writes.size(), 1u);

  pipeline::Session target(R"(
    int k;
    int m;
    int a[100];
    void g(int k) {
      a[k] = m;
    }
  )");
  ASSERT_TRUE(target.parse()) << target.diagnostics().dump();
  const ast::Program& to = *target.program();
  const ipa::ProgramScope scope(to);
  expect_scope_matches_per_call_maps(to, *target.symbols(), scope);
  const ast::FuncDecl* g = to.find_function("g");
  const ast::VarDecl* param = g->params[0].get();
  const ast::VarDecl* global = to.find_global("k");
  sym::ExprArena arena;
  sym::ArenaScope arena_scope(arena);
  auto rehydrated = ipa::rehydrate(*portable, scope);
  ASSERT_TRUE(rehydrated.has_value());
  ASSERT_EQ(rehydrated->writes.size(), 1u);
  const core::ArrayWriteEffect& write = rehydrated->writes[0];
  EXPECT_EQ(write.array, to.find_global("a"));
  auto mentions = [&write](sym::SymbolId id) {
    return sym::any_of(write.index, [id](const sym::Expr& e) {
      return e.kind == sym::ExprKind::Sym && e.symbol == id;
    });
  };
  ASSERT_NE(write.index, nullptr);
  EXPECT_TRUE(mentions(param->symbol));
  EXPECT_FALSE(mentions(global->symbol));
}

// --------------------------------------------------------------------------
// W0301 per-callee dedup
// --------------------------------------------------------------------------

TEST(Diagnostics, TwoDifferentAbandonedCallsInOneLoopBothSurface) {
  // Both helpers are unsummarizable (recursive / undefined); the loop must
  // emit one W0301 naming each callee instead of collapsing onto the first.
  pipeline::Session session(R"(
    int n;
    int acc;
    int rec(int k) {
      if (k > 0) {
        acc = acc + rec(k - 1);
      }
      return acc;
    }
    void f() {
      for (int i = 0; i < n; i++) {
        rec(i);
        mystery(i);
      }
    }
  )",
                            {{"n", 1}});
  ASSERT_NE(session.parallelize(), nullptr);
  int w0301_rec = 0, w0301_mystery = 0;
  for (const auto& d : session.diagnostics().diagnostics()) {
    if (d.code != support::DiagCode::AnalysisLoopCall) continue;
    if (d.message.find("'rec'") != std::string::npos) ++w0301_rec;
    if (d.message.find("'mystery'") != std::string::npos) ++w0301_mystery;
  }
  EXPECT_EQ(w0301_rec, 1) << session.diagnostics().dump();
  EXPECT_EQ(w0301_mystery, 1) << session.diagnostics().dump();
}

// --------------------------------------------------------------------------
// Batch determinism with the shared SummaryDB
// --------------------------------------------------------------------------

TEST(IpaBatch, OneVsEightThreadRunsAreIdenticalOverTheCorpus) {
  auto inputs = driver::BatchAnalyzer::corpus_inputs();
  driver::BatchReport serial = run_shared(1, inputs);
  driver::BatchReport wide = run_shared(8, inputs);
  EXPECT_EQ(serial.stats, wide.stats);
  ASSERT_EQ(serial.programs.size(), wide.programs.size());
  for (size_t i = 0; i < serial.programs.size(); ++i) {
    EXPECT_EQ(serial.programs[i].result.output, wide.programs[i].result.output)
        << serial.programs[i].name;
  }
  // The interprocedural entries actually exercised the summary machinery.
  EXPECT_GE(serial.stats.summaries_computed, 4);
  EXPECT_GE(serial.stats.summary_applications, 4);
  // The shared cache's deterministic counters (lookups performed, unique
  // content keys, context summaries materialized) must not depend on the
  // thread count — only the hit/miss split may (it lives outside BatchStats
  // equality).
  EXPECT_GT(serial.stats.cross_summary_requests, 0);
  EXPECT_GT(serial.stats.cross_summary_entries, 0);
  EXPECT_GT(serial.stats.summary_context_computed, 0);
  EXPECT_EQ(serial.stats.cross_summary_requests, wide.stats.cross_summary_requests);
  EXPECT_EQ(serial.stats.cross_summary_entries, wide.stats.cross_summary_entries);
  EXPECT_EQ(serial.stats.summary_context_computed, wide.stats.summary_context_computed);
}

}  // namespace
}  // namespace sspar
