// Tests for the staged pipeline::Session API, the structured diagnostics it
// reports, the Assumptions helper, and the JSON report round-trip.
#include <gtest/gtest.h>

#include "corpus/analysis.h"
#include "driver/batch_analyzer.h"
#include "driver/json_report.h"
#include "interp/interpreter.h"
#include "pipeline/session.h"
#include "support/json.h"
#include "transform/omp_emitter.h"

namespace sspar::pipeline {
namespace {

// An identity-permutation kernel: the second loop is parallel only while
// the identity rule derives facts about perm, which makes analysis results
// observably depend on AnalyzerOptions (for the re-analysis tests).
const char* kPermSource = R"(
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

int parallel_count(const std::vector<core::LoopVerdict>& verdicts) {
  int count = 0;
  for (const auto& v : verdicts) count += v.parallel ? 1 : 0;
  return count;
}

// ---------------------------------------------------------------------------
// Session staging & caching
// ---------------------------------------------------------------------------

TEST(Session, StagesRunInOrderAndImplyPredecessors) {
  Session session(kPermSource, {{"n", 1}});
  // parallelize() alone runs parse + analyze + parallelize.
  const auto* verdicts = session.parallelize();
  ASSERT_NE(verdicts, nullptr);
  EXPECT_EQ(verdicts->size(), 2u);
  EXPECT_EQ(session.stats().parse.runs, 1);
  EXPECT_EQ(session.stats().analyze.runs, 1);
  EXPECT_EQ(session.stats().parallelize.runs, 1);
  EXPECT_EQ(parallel_count(*verdicts), 2);
}

TEST(Session, ReanalyzeWithDifferentOptionsReusesCachedParse) {
  Session session(kPermSource, {{"n", 1}});
  const AnalysisResult* first = session.analyze();
  ASSERT_NE(first, nullptr);
  const ast::Program* program_before = session.program();
  const auto* verdicts_all = session.parallelize();
  ASSERT_NE(verdicts_all, nullptr);
  int with_rule = parallel_count(*verdicts_all);

  // perm[i] = i is derivable through either the identity rule or the affine
  // value rule; only disabling both removes all facts about perm.
  core::AnalyzerOptions no_identity;
  no_identity.enable_identity_rule = false;
  no_identity.enable_affine_value_rule = false;
  const AnalysisResult* second = session.analyze(no_identity);
  ASSERT_NE(second, nullptr);
  const auto* verdicts_ablated = session.parallelize();
  ASSERT_NE(verdicts_ablated, nullptr);

  // (a) the parse ran exactly once and the AST is the same object...
  EXPECT_EQ(session.stats().parse.runs, 1);
  EXPECT_EQ(session.program(), program_before);
  // ...while the analysis genuinely re-ran and produced different verdicts.
  EXPECT_EQ(session.stats().analyze.runs, 2);
  EXPECT_LT(parallel_count(*verdicts_ablated), with_rule);
}

TEST(Session, AnalyzeWithEqualOptionsHitsTheCache) {
  Session session(kPermSource, {{"n", 1}});
  const AnalysisResult* first = session.analyze();
  ASSERT_NE(first, nullptr);
  const AnalysisResult* again = session.analyze(core::AnalyzerOptions{});
  EXPECT_EQ(first, again);
  EXPECT_EQ(session.stats().analyze.runs, 1);
  // The cached analysis also preserves the verdict cache.
  const auto* v1 = session.parallelize();
  const auto* v2 = session.parallelize();
  EXPECT_EQ(v1, v2);
  EXPECT_EQ(session.stats().parallelize.runs, 1);
}

TEST(Session, AnnotateIsReentrantAcrossReanalysis) {
  Session session(kPermSource, {{"n", 1}});
  EXPECT_EQ(session.annotate(), 2);
  std::string annotated_once = session.emit().output;

  // Disable the enabling rules: fewer pragmas, and the old ones must be gone.
  core::AnalyzerOptions no_identity;
  no_identity.enable_identity_rule = false;
  no_identity.enable_affine_value_rule = false;
  session.analyze(no_identity);
  int annotated = session.annotate();
  EXPECT_LT(annotated, 2);
  std::string annotated_again = session.emit().output;
  EXPECT_NE(annotated_once, annotated_again);

  // Re-enabling reproduces the original output exactly (no stale pragmas,
  // no duplicates).
  session.analyze(core::AnalyzerOptions{});
  EXPECT_EQ(session.annotate(), 2);
  EXPECT_EQ(session.emit().output, annotated_once);
}

TEST(Session, TakeParseDropsDerivedCaches) {
  Session session(kPermSource, {{"n", 1}});
  ASSERT_NE(session.analyze(), nullptr);
  {
    ast::ParseResult owned = session.take_parse();
    ASSERT_TRUE(owned.ok);
  }  // moved-out AST destroyed here
  // analyze() with the same options must not serve the stale cached
  // analysis (its analyzer referenced the destroyed AST); the session
  // re-parses from source and re-analyzes.
  const AnalysisResult* fresh = session.analyze();
  ASSERT_NE(fresh, nullptr);
  EXPECT_EQ(session.stats().parse.runs, 2);
  EXPECT_EQ(session.stats().analyze.runs, 2);
  const auto* verdicts = session.parallelize();
  ASSERT_NE(verdicts, nullptr);
  EXPECT_EQ(parallel_count(*verdicts), 2);
}

TEST(Session, EmitWithoutAnnotateEmitsPlainSource) {
  Session session(kPermSource, {{"n", 1}});
  EmitResult emitted = session.emit();
  ASSERT_TRUE(emitted.ok);
  EXPECT_EQ(emitted.annotated, 0);
  EXPECT_EQ(emitted.output.find("#pragma"), std::string::npos);
}

TEST(Session, ParseFailureMakesDownstreamStagesNull) {
  Session session("void f( { nope");
  EXPECT_FALSE(session.parse());
  EXPECT_EQ(session.analyze(), nullptr);
  EXPECT_EQ(session.parallelize(), nullptr);
  EXPECT_EQ(session.annotate(), -1);
  EXPECT_FALSE(session.emit().ok);
  EXPECT_TRUE(session.diagnostics().has_errors());
  // Only one parse attempt despite five stage calls.
  EXPECT_EQ(session.stats().parse.runs, 1);
}

// ---------------------------------------------------------------------------
// Structured diagnostics (stable codes + locations)
// ---------------------------------------------------------------------------

TEST(Diagnostics, FrontendErrorsCarryStableCodesAndLocations) {
  struct Case {
    const char* source;
    support::DiagCode code;
  };
  const Case cases[] = {
      {"void f() { y = 1; }", support::DiagCode::SemaUndeclared},
      {"void f() { int x; int x; }", support::DiagCode::SemaRedeclaration},
      {"void f(int x) { x[0] = 1; }", support::DiagCode::SemaNotAnArray},
      {"void f() { int x = ; }", support::DiagCode::ParseExpectedExpr},
      {"void f() { int x = 1 @ 2; }", support::DiagCode::LexUnexpectedChar},
  };
  for (const Case& c : cases) {
    Session session(c.source);
    EXPECT_FALSE(session.parse()) << c.source;
    const auto& diags = session.diagnostics().diagnostics();
    ASSERT_FALSE(diags.empty()) << c.source;
    bool found = false;
    for (const auto& d : diags) {
      if (d.code == c.code) {
        found = true;
        EXPECT_TRUE(d.location.valid()) << c.source;
        EXPECT_EQ(d.severity, support::Severity::Error);
        // The stable spelling is embedded in the rendered form.
        EXPECT_NE(d.to_string().find(support::diag_code_name(c.code)), std::string::npos);
      }
    }
    EXPECT_TRUE(found) << c.source << "\n" << session.diagnostics().dump();
  }
}

// ---------------------------------------------------------------------------
// EnablingProperty enum
// ---------------------------------------------------------------------------

TEST(EnablingProperty, ParallelVerdictsAndOnlyThoseCarryAProperty) {
  Session session(kPermSource, {{"n", 1}});
  const auto* verdicts = session.parallelize();
  ASSERT_NE(verdicts, nullptr);
  for (const auto& v : *verdicts) {
    if (!v.parallel) {
      EXPECT_EQ(v.property, core::EnablingProperty::None);
      continue;
    }
    EXPECT_NE(v.property, core::EnablingProperty::None);
  }
  // The a[perm[i]] loop needs an index-array property (not plain affine
  // reasoning) — the identity fill makes perm's ranges/injectivity provable.
  bool saw_indirection_property = false;
  for (const auto& v : *verdicts) {
    if (v.parallel && v.uses_subscripted_subscripts) {
      EXPECT_TRUE(v.property == core::EnablingProperty::Monotonic ||
                  v.property == core::EnablingProperty::Injective)
          << core::property_name(v.property);
      saw_indirection_property = true;
    }
  }
  EXPECT_TRUE(saw_indirection_property);
}

// ---------------------------------------------------------------------------
// Assumptions (one encoding for analyzer bounds and interpreter inputs)
// ---------------------------------------------------------------------------

TEST(Assumptions, SpecParsingAcceptsValidRejectsMalformed) {
  Assumptions assumptions;
  EXPECT_TRUE(assumptions.add_spec("n=4"));
  EXPECT_TRUE(assumptions.add_spec("m=-2"));
  EXPECT_FALSE(assumptions.add_spec("noequals"));
  EXPECT_FALSE(assumptions.add_spec("=5"));
  EXPECT_FALSE(assumptions.add_spec("n=abc"));
  EXPECT_FALSE(assumptions.add_spec("n=4x"));
  ASSERT_EQ(assumptions.size(), 2u);
  EXPECT_EQ(assumptions.items()[0].name, "n");
  EXPECT_EQ(assumptions.items()[0].value, 4);
  EXPECT_EQ(assumptions.items()[1].value, -2);
}

TEST(Assumptions, SeedsInterpreterScalars) {
  Assumptions assumptions{{"n", 7}};
  support::DiagnosticEngine diags;
  auto parsed = ast::parse_and_resolve("int n; void f(void) { n = n; }", diags);
  ASSERT_TRUE(parsed.ok);
  interp::Interpreter interp(*parsed.program);
  assumptions.seed_interpreter(interp);
  EXPECT_EQ(interp.scalar_int("n"), 7);
}

TEST(Assumptions, CorpusHelpersSplitAnalyzerAndInterpreterViews) {
  const corpus::Entry* entry = corpus::find_entry("CG");
  ASSERT_NE(entry, nullptr);
  ASSERT_FALSE(entry->params.empty());
  Assumptions analyzer_view = corpus::analyzer_assumptions(*entry);
  Assumptions interp_view = corpus::interpreter_params(*entry);
  ASSERT_EQ(analyzer_view.size(), entry->params.size());
  ASSERT_EQ(interp_view.size(), entry->params.size());
  for (size_t i = 0; i < entry->params.size(); ++i) {
    EXPECT_EQ(analyzer_view.items()[i].name, entry->params[i].name);
    EXPECT_EQ(analyzer_view.items()[i].value, entry->params[i].assume_min);
    EXPECT_EQ(interp_view.items()[i].value, entry->params[i].interp_value);
  }
}

// ---------------------------------------------------------------------------
// JSON report round-trip (the --json contract)
// ---------------------------------------------------------------------------

TEST(JsonReport, BatchStatsRoundTripThroughParser) {
  // The exact document sspar-analyze --json prints for these inputs.
  driver::BatchAnalyzer analyzer(driver::BatchOptions{2, {}});
  std::vector<driver::ProgramInput> inputs = {
      driver::ProgramInput{"perm", kPermSource, {{"n", 1}}},
      driver::ProgramInput{"bad", "void f( {", {}},
  };
  driver::BatchReport report = analyzer.run(inputs);
  ASSERT_EQ(report.stats.programs, 2);
  ASSERT_EQ(report.stats.failed, 1);
  ASSERT_FALSE(report.stats.property_counts.empty());

  std::string text = driver::batch_report_to_json(report, analyzer.threads()).dump(2);
  std::string error;
  auto parsed = support::json::parse(text, &error);
  ASSERT_TRUE(parsed.has_value()) << error;

  const support::json::Value* stats = parsed->find("stats");
  ASSERT_NE(stats, nullptr);
  driver::BatchStats round_trip = driver::stats_from_json(*stats);
  EXPECT_EQ(round_trip, report.stats);
  // Reported, but outside operator== (they depend on scheduling).
  EXPECT_EQ(round_trip.summary_cache_hits, report.stats.summary_cache_hits);
  EXPECT_EQ(round_trip.summary_applications, report.stats.summary_applications);

  // Per-program structure survives too.
  const support::json::Value* programs = parsed->find("programs");
  ASSERT_NE(programs, nullptr);
  ASSERT_EQ(programs->as_array().size(), 2u);
  const support::json::Value& bad = programs->as_array()[1];
  EXPECT_FALSE(bad.find("ok")->as_bool());
  const support::json::Value* diags = bad.find("diagnostics");
  ASSERT_NE(diags, nullptr);
  ASSERT_FALSE(diags->as_array().empty());
  EXPECT_FALSE(diags->as_array()[0].find("code")->as_string().empty());
}

TEST(JsonReport, CorpusStatsRoundTripExactly) {
  driver::BatchAnalyzer analyzer;
  driver::BatchReport report = analyzer.run(driver::BatchAnalyzer::corpus_inputs());
  std::string text = driver::batch_report_to_json(report, analyzer.threads()).dump();
  auto parsed = support::json::parse(text);
  ASSERT_TRUE(parsed.has_value());
  driver::BatchStats round_trip = driver::stats_from_json(*parsed->find("stats"));
  EXPECT_EQ(round_trip, report.stats);
  EXPECT_EQ(round_trip.summary_cache_hits, report.stats.summary_cache_hits);
  EXPECT_EQ(round_trip.summary_applications, report.stats.summary_applications);
}

TEST(JsonReport, FactsSerializeByArrayName) {
  Session session(R"(
    int n;
    int ptr[101];
    void f(void) {
      ptr[0] = 0;
      for (int i = 1; i < n + 1; i++) {
        ptr[i] = ptr[i-1] + 1;
      }
    }
  )",
                  {{"n", 1}});
  ASSERT_NE(session.parallelize(), nullptr);
  const core::Analyzer* analyzer = session.analyzer();
  ASSERT_NE(analyzer, nullptr);
  const ast::FuncDecl* f = session.program()->find_function("f");
  const core::FactDB* facts = analyzer->facts_at_end(f);
  ASSERT_NE(facts, nullptr);
  auto json = driver::facts_to_json(*facts, *session.symbols());
  const support::json::Value* ptr_facts = json.find("ptr");
  ASSERT_NE(ptr_facts, nullptr);
  // The prefix-sum loop derives a step fact for ptr.
  EXPECT_FALSE(ptr_facts->find("steps")->as_array().empty());
  // And the document is valid JSON.
  EXPECT_TRUE(support::json::parse(json.dump(2)).has_value());
}

// ---------------------------------------------------------------------------
// JSON value model basics
// ---------------------------------------------------------------------------

TEST(Json, ParseRejectsMalformedDocuments) {
  EXPECT_FALSE(support::json::parse("{").has_value());
  EXPECT_FALSE(support::json::parse("[1,]").has_value());
  EXPECT_FALSE(support::json::parse("{\"a\":1} trailing").has_value());
  EXPECT_FALSE(support::json::parse("nul").has_value());
  // Malformed numbers: partial-prefix parses must not be accepted.
  EXPECT_FALSE(support::json::parse("1.2.3").has_value());
  EXPECT_FALSE(support::json::parse("1e+").has_value());
  EXPECT_FALSE(support::json::parse("+5").has_value());
  EXPECT_FALSE(support::json::parse(".5").has_value());
  std::string error;
  EXPECT_FALSE(support::json::parse("", &error).has_value());
  EXPECT_FALSE(error.empty());
}

TEST(Json, EscapesRoundTrip) {
  support::json::Object o;
  o.emplace("k\"ey", support::json::Value("line1\nline2\ttab \\slash"));
  std::string text = support::json::Value(std::move(o)).dump();
  auto parsed = support::json::parse(text);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->find("k\"ey")->as_string(), "line1\nline2\ttab \\slash");
}

TEST(Json, NumbersRoundTrip) {
  auto parsed = support::json::parse("{\"i\":-42,\"d\":2.5,\"big\":123456789012345}");
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->int_or("i", 0), -42);
  EXPECT_EQ(parsed->find("d")->as_double(), 2.5);
  EXPECT_EQ(parsed->int_or("big", 0), 123456789012345);
  EXPECT_EQ(parsed->int_or("absent", 9), 9);
}

}  // namespace
}  // namespace sspar::pipeline
