// Incremental re-analysis engine: the correctness contract is that after ANY
// update sequence the verdicts, annotated output, and canonical diagnostics
// are byte-identical to a cold full analysis of the final source — at any
// thread count of the cold reference (the engine itself is single-threaded).
// The mutation matrix below drives every edit class through one engine and
// checks that contract plus the dirty-cone accounting after each step.
#include <gtest/gtest.h>

#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "corpus/corpus.h"
#include "driver/batch_analyzer.h"
#include "frontend/sema.h"
#include "frontend/printer.h"
#include "incremental/chunks.h"
#include "incremental/incremental_engine.h"
#include "store/summary_store.h"
#include "support/diagnostics.h"
#include "support/faultpoint.h"

namespace sspar::incremental {
namespace {

// Stable, pointer-free projection of a verdict so engine verdicts compare
// against a cold run's (the `loop` pointers necessarily differ).
std::vector<std::string> verdict_lines(const std::vector<core::LoopVerdict>& verdicts) {
  std::vector<std::string> out;
  for (const core::LoopVerdict& v : verdicts) {
    std::string line = std::to_string(v.loop != nullptr ? v.loop->location.line : 0);
    line += v.parallel ? " parallel" : " serial";
    if (v.hybrid) line += " hybrid:" + v.hybrid_index_array;
    line += " [" + v.reason + "]";
    for (const std::string& s : v.summaries_used) line += " via:" + s;
    for (const std::string& b : v.blockers) line += " blocked:" + b;
    for (const ast::VarDecl* p : v.privates) line += " private:" + p->name;
    out.push_back(std::move(line));
  }
  return out;
}

// Cold full analysis of `source` through the batch driver at the given
// thread count — the reference every incremental update must match.
driver::ProgramReport cold_reference(const std::string& source,
                                     const pipeline::Assumptions& assumptions,
                                     unsigned threads) {
  driver::BatchOptions options;
  options.threads = threads;
  driver::BatchAnalyzer batch(options);
  driver::BatchReport report = batch.run({{"prog", source, assumptions}});
  return std::move(report.programs.at(0));
}

// Asserts the update is byte-identical to cold analysis of the same source
// at 1 and 8 threads (verdicts, output, annotation count, canonical diags).
void expect_matches_cold(const UpdateResult& update, const std::string& source,
                         const pipeline::Assumptions& assumptions,
                         const std::string& label) {
  ASSERT_TRUE(update.ok) << label << ": " << update.error;
  for (unsigned threads : {1u, 8u}) {
    SCOPED_TRACE(label + " vs cold@" + std::to_string(threads) + " threads");
    driver::ProgramReport cold = cold_reference(source, assumptions, threads);
    ASSERT_TRUE(cold.ok) << cold.error;
    EXPECT_EQ(update.output, cold.result.output);
    EXPECT_EQ(verdict_lines(update.verdicts), verdict_lines(cold.result.verdicts));
    EXPECT_EQ(update.annotated, cold.result.parallelized);
    std::vector<support::Diagnostic> diags = cold.result.diags;
    support::canonicalize_diagnostics(diags);
    EXPECT_EQ(update.diagnostics, diags);
  }
}

// --------------------------------------------------------------------------
// Mutation matrix: every edit class, one engine, cold byte-identity after
// each step plus exact dirty-cone accounting.
// --------------------------------------------------------------------------

TEST(IncrementalEngine, MutationMatrixStaysByteIdenticalToColdAnalysis) {
  const pipeline::Assumptions assume = {{"n", 1}};
  const std::string base = R"(int n;
int a[100];
int b[100];
int idx[100];
int clamp(int v) {
  if (v < 0) { v = 0; }
  return v;
}
void fill(void) {
  for (int i = 0; i < n; i++) {
    idx[i] = i + 1;
  }
}
void scale(void) {
  for (int i = 0; i < n; i++) {
    a[idx[i]] = clamp(b[i]);
  }
}
void driver(void) {
  fill();
  scale();
}
)";

  EngineOptions options;
  options.assumptions = assume;
  IncrementalEngine engine(options);

  UpdateResult r = engine.update(base);
  expect_matches_cold(r, base, assume, "base");
  EXPECT_EQ(r.stats.functions_total, 4);
  EXPECT_EQ(r.stats.dirty, 4) << "first update analyzes everything";

  // Body edit: only the edited function and its (transitive) callers dirty.
  std::string body_edit = base;
  body_edit.replace(body_edit.find("clamp(b[i])"), 11, "clamp(b[i] + 1)");
  r = engine.update(body_edit);
  expect_matches_cold(r, body_edit, assume, "body edit");
  EXPECT_EQ(r.stats.dirty, 2) << "scale + driver";
  EXPECT_EQ(r.stats.reanalyzed, 2) << "line counts unchanged: nothing relocated";
  EXPECT_GT(r.stats.reused_verdicts, 0);

  // Helper edit: callers are dirty via callee-key folding.
  std::string helper_edit = body_edit;
  helper_edit.replace(helper_edit.find("{ v = 0; }"), 10, "{ v = 1; }");
  r = engine.update(helper_edit);
  expect_matches_cold(r, helper_edit, assume, "helper edit");
  EXPECT_EQ(r.stats.dirty, 3) << "clamp + scale + driver";

  // Signature change (arity): the callee AND the call site change.
  std::string sig_change = helper_edit;
  sig_change.replace(sig_change.find("int clamp(int v)"), 16, "int clamp(int v, int lo)");
  sig_change.replace(sig_change.find("{ v = 1; }"), 10, "{ v = lo; }");
  sig_change.replace(sig_change.find("clamp(b[i] + 1)"), 15, "clamp(b[i] + 1, 1)");
  r = engine.update(sig_change);
  expect_matches_cold(r, sig_change, assume, "signature change");
  EXPECT_EQ(r.stats.dirty, 3) << "clamp + scale + driver";

  // Added function (called from driver): new + driver dirty, others reuse.
  std::string added = sig_change;
  added += R"(void extra(void) {
  for (int i = 0; i < n; i++) {
    b[i] = i;
  }
}
)";
  added.replace(added.find("  scale();"), 10, "  scale();\n  extra();");
  r = engine.update(added);
  expect_matches_cold(r, added, assume, "added function");
  EXPECT_EQ(r.stats.functions_total, 5);
  EXPECT_EQ(r.stats.dirty, 2) << "extra (new) + driver";

  // Removed function: only the caller that lost the call is dirty.
  r = engine.update(sig_change);
  expect_matches_cold(r, sig_change, assume, "removed function");
  EXPECT_EQ(r.stats.functions_total, 4);
  EXPECT_EQ(r.stats.dirty, 1) << "driver";

  // Renamed function (definition + call site).
  std::string renamed = sig_change;
  renamed.replace(renamed.find("int clamp(int v, int lo)"), 24, "int bound(int v, int lo)");
  renamed.replace(renamed.find("clamp(b[i] + 1, 1)"), 18, "bound(b[i] + 1, 1)");
  r = engine.update(renamed);
  expect_matches_cold(r, renamed, assume, "renamed function");
  EXPECT_EQ(r.stats.dirty, 3) << "bound (new name) + scale + driver";

  // Comment-only edit (appended, so no location shifts): nothing re-runs.
  std::string comment_only = renamed + "// trailing note\n";
  r = engine.update(comment_only);
  expect_matches_cold(r, comment_only, assume, "comment-only edit");
  EXPECT_EQ(r.stats.dirty, 0);
  EXPECT_EQ(r.stats.reanalyzed, 0);
  EXPECT_EQ(static_cast<size_t>(r.stats.reused_verdicts), r.verdicts.size())
      << "every verdict rebinds from cache";
  EXPECT_EQ(r.delta.added.size(), 0u);
  EXPECT_EQ(r.delta.removed.size(), 0u);
}

// --------------------------------------------------------------------------
// Line shifts: a function that moved with its content key and its relative
// layout intact stays clean; its cached diagnostics are rebased.
// --------------------------------------------------------------------------

// Canonical diagnostics down to the byte offset (Diagnostic::operator==
// leaves the offset out, and rebasing shifts it too).
std::vector<std::string> diag_lines(const std::vector<support::Diagnostic>& diags) {
  std::vector<std::string> out;
  for (const support::Diagnostic& d : diags) {
    out.push_back(d.to_string() + " @" + std::to_string(d.location.offset));
  }
  return out;
}

void expect_diags_match_cold(const UpdateResult& update, const std::string& source,
                             const pipeline::Assumptions& assumptions) {
  driver::ProgramReport cold = cold_reference(source, assumptions, 1);
  std::vector<support::Diagnostic> diags = cold.result.diags;
  support::canonicalize_diagnostics(diags);
  EXPECT_EQ(diag_lines(update.diagnostics), diag_lines(diags));
}

TEST(IncrementalEngine, LineShiftReusesMovedFunctionsAndRebasesTheirDiagnostics) {
  const pipeline::Assumptions assume = {{"n", 1}};
  const std::string base = R"(int n;
int a[100];
int b[100];
int idx[100];
void fill(void) {
  for (int i = 0; i < n; i++) {
    idx[i] = i + 1;
  }
}
void probe(void) {
  for (int i = 0; i < n; i++) {
    a[i] = mystery(i);
  }
}
void scale(void) {
  int t;
  for (int i = 0; i < n; i++) {
    t = b[i];
    a[idx[i]] = t * 2;
  }
}
void driver(void) {
  fill();
  probe();
  scale();
}
)";
  EngineOptions options;
  options.assumptions = assume;
  IncrementalEngine engine(options);
  UpdateResult r = engine.update(base);
  expect_matches_cold(r, base, assume, "base");
  expect_diags_match_cold(r, base, assume);
  ASSERT_EQ(r.diagnostics.size(), 1u) << "probe's loop calls an undefined function";
  EXPECT_EQ(r.diagnostics[0].code, support::DiagCode::AnalysisLoopCall);
  EXPECT_EQ(r.diagnostics[0].location.line, 12u);
  EXPECT_EQ(r.diagnostics[0].message.rfind("loop at line 11 ", 0), 0u)
      << r.diagnostics[0].message;
  const size_t loops = r.verdicts.size();

  // A comment line above the warning function: probe, scale and driver move
  // down one line, yet nothing re-runs and the warning follows its loop.
  std::string above_warning = base;
  above_warning.insert(above_warning.find("void probe"), "// probe the helper\n");
  r = engine.update(above_warning);
  expect_matches_cold(r, above_warning, assume, "comment above the warning function");
  expect_diags_match_cold(r, above_warning, assume);
  EXPECT_EQ(r.stats.dirty, 0);
  EXPECT_EQ(r.stats.reanalyzed, 0);
  EXPECT_EQ(static_cast<size_t>(r.stats.reused_verdicts), loops);
  ASSERT_EQ(r.diagnostics.size(), 1u);
  EXPECT_EQ(r.diagnostics[0].location.line, 13u);
  EXPECT_EQ(r.diagnostics[0].message.rfind("loop at line 12 ", 0), 0u)
      << r.diagnostics[0].message;
  EXPECT_EQ(r.delta.added.size(), 1u) << "the moved warning is a new position";
  EXPECT_EQ(r.delta.removed.size(), 1u);

  // Three lines of differing lengths above the parallel fill: every function
  // moves, by a different byte delta than line delta.
  std::string above_parallel = above_warning;
  above_parallel.insert(above_parallel.find("void fill"), "/* fill\n   the index\n */\n");
  r = engine.update(above_parallel);
  expect_matches_cold(r, above_parallel, assume, "comment above the parallel function");
  expect_diags_match_cold(r, above_parallel, assume);
  EXPECT_EQ(r.stats.dirty, 0);
  EXPECT_EQ(r.stats.reanalyzed, 0);
  EXPECT_EQ(static_cast<size_t>(r.stats.reused_verdicts), loops);
  size_t parallel = 0;
  for (const core::LoopVerdict& v : r.verdicts) parallel += v.parallel ? 1 : 0;
  EXPECT_GE(parallel, 1u) << "fill's loop stays parallel after the move";

  // Removing the comments moves everything back up.
  r = engine.update(base);
  expect_matches_cold(r, base, assume, "comments removed");
  expect_diags_match_cold(r, base, assume);
  EXPECT_EQ(r.stats.reanalyzed, 0);

  // A reformat inside probe keeps its content key but not its relative
  // layout: probe alone re-runs; the functions below it only move.
  std::string reformatted = base;
  reformatted.replace(reformatted.find("    a[i] = mystery(i);"), 22, "\n      a[i] = mystery(i);");
  r = engine.update(reformatted);
  expect_matches_cold(r, reformatted, assume, "reformat inside probe");
  expect_diags_match_cold(r, reformatted, assume);
  EXPECT_EQ(r.stats.dirty, 0);
  EXPECT_EQ(r.stats.reanalyzed, 1) << "probe";
}

TEST(IncrementalEngine, FailedParseKeepsTheSessionIncremental) {
  const pipeline::Assumptions assume = {{"n", 1}};
  const std::string base = R"(int n;
int a[100];
void fill(void) {
  for (int i = 0; i < n; i++) {
    a[i] = i;
  }
}
void driver(void) {
  fill();
}
)";
  EngineOptions options;
  options.assumptions = assume;
  IncrementalEngine engine(options);
  ASSERT_TRUE(engine.update(base).ok);
  const ast::Program* good = engine.program();
  ASSERT_NE(good, nullptr);
  const std::string good_text = ast::print_program(*good);

  // A syntax error mid-edit: the update fails with diagnostics, and the last
  // good version stays the engine's program (the next update reuses it)...
  UpdateResult bad = engine.update("void broken( {");
  EXPECT_FALSE(bad.ok);
  EXPECT_FALSE(bad.error.empty());
  EXPECT_FALSE(bad.diagnostics.empty());
  EXPECT_EQ(engine.program(), good);
  EXPECT_EQ(ast::print_program(*engine.program()), good_text);

  // ...but the incremental state survives: the next good update only
  // re-analyzes the edited cone, not the whole program.
  std::string edited = base;
  edited.replace(edited.find("a[i] = i;"), 9, "a[i] = i + 2;");
  UpdateResult r = engine.update(edited);
  expect_matches_cold(r, edited, assume, "update after failed parse");
  EXPECT_EQ(r.stats.dirty, 2) << "fill + driver; the syntax error cost nothing";
  EXPECT_NE(engine.program(), nullptr);
}

TEST(IncrementalEngine, OutOfRangeLiteralIsAnOrdinaryParseError) {
  const pipeline::Assumptions assume = {{"n", 1}};
  const std::string base = R"(int n;
int a[100];
void fill(void) {
  for (int i = 0; i < n; i++) {
    a[i] = i;
  }
}
void other(void) {
  for (int i = 0; i < n; i++) {
    a[i] = 2 * i;
  }
}
void driver(void) {
  fill();
}
)";
  EngineOptions options;
  options.assumptions = assume;
  IncrementalEngine engine(options);
  ASSERT_TRUE(engine.update(base).ok);
  const ast::Program* good = engine.program();
  const std::string good_text = ast::print_program(*good);

  for (const char* literal : {"99999999999999999999", "1e999"}) {
    std::string bad_source = base;
    bad_source.replace(bad_source.find("a[i] = i;"), 9, std::string("a[i] = ") + literal + ";");
    UpdateResult bad = engine.update(bad_source);
    EXPECT_FALSE(bad.ok) << literal;
    ASSERT_EQ(bad.diagnostics.size(), 1u) << bad.error;
    EXPECT_EQ(bad.diagnostics[0].code, support::DiagCode::LexLiteralOutOfRange);
    EXPECT_EQ(bad.diagnostics[0].location.line, 5u);
    EXPECT_EQ(engine.program(), good);
    EXPECT_EQ(ast::print_program(*engine.program()), good_text);
  }

  // The session stayed incremental: no exception dropped its reuse state, so
  // `other` keeps its verdict.
  std::string edited = base;
  edited.replace(edited.find("a[i] = i;"), 9, "a[i] = i + 2;");
  UpdateResult r = engine.update(edited);
  expect_matches_cold(r, edited, assume, "update after an out-of-range literal");
  EXPECT_EQ(r.stats.dirty, 2) << "fill + driver, not other";
  EXPECT_EQ(r.stats.reused_verdicts, 1);
}

// --------------------------------------------------------------------------
// Edge cases from the dirty-cone design
// --------------------------------------------------------------------------

TEST(IncrementalEngine, EditingOneSccMemberDirtiesTheWholeScc) {
  const pipeline::Assumptions assume = {{"n", 1}};
  const std::string base = R"(int n;
int a[100];
void even(int v) {
  if (v > 0) { odd(v - 1); }
}
void odd(int v) {
  if (v > 0) { even(v - 1); }
}
void work(void) {
  for (int i = 0; i < n; i++) {
    a[i] = i;
  }
  even(n);
}
)";
  EngineOptions options;
  options.assumptions = assume;
  IncrementalEngine engine(options);
  ASSERT_TRUE(engine.update(base).ok);

  // Editing `odd` must dirty `even` too (the SCC is keyed as a group) and
  // `work` (caller of the SCC) — the entire program here.
  std::string edited = base;
  edited.replace(edited.find("even(v - 1)"), 11, "even(v - 2)");
  UpdateResult r = engine.update(edited);
  expect_matches_cold(r, edited, assume, "SCC member edit");
  EXPECT_EQ(r.stats.functions_total, 3);
  EXPECT_EQ(r.stats.dirty, 3) << "odd + even (same SCC) + work (caller)";
}

TEST(IncrementalEngine, DirtyCallerInvalidatesContextFingerprintedSummaries) {
  // `build_rowstr` is only provably monotonic under the entry facts the
  // caller projects into it (nzz >= 0 from fill_nzz); that proof lives in a
  // context-fingerprinted cache slot. Editing fill_nzz leaves build_rowstr's
  // content key UNCHANGED, but the caller's new entry facts hash to a new
  // fingerprint — so the stale specialized summary must not be served.
  const pipeline::Assumptions assume = {{"nrows", 1}};
  const std::string base = R"(int nrows;
int cols[512];
int nzz[512];
int rowstr[513];
double data[8192];
void fill_nzz(void) {
  for (int i = 0; i < nrows; i++) {
    nzz[i] = cols[i] > 0 ? 1 : 0;
  }
}
void build_rowstr(void) {
  rowstr[0] = 0;
  for (int i = 1; i < nrows + 1; i++) {
    rowstr[i] = rowstr[i-1] + nzz[i-1];
  }
}
void consume(void) {
  fill_nzz();
  build_rowstr();
  for (int i = 0; i < nrows; i++) {
    for (int k = rowstr[i]; k < rowstr[i+1]; k++) {
      data[k] = data[k] * 0.5;
    }
  }
}
)";
  EngineOptions options;
  options.assumptions = assume;
  IncrementalEngine engine(options);
  UpdateResult before = engine.update(base);
  ASSERT_TRUE(before.ok) << before.error;
  const std::vector<std::string> before_verdicts = verdict_lines(before.verdicts);

  // nzz entries may now be negative: the projected facts change, the rowstr
  // monotonicity proof must be re-derived (and fail), and the consume loop's
  // verdict must match a cold analysis — a stale fingerprint slot would
  // keep the old (now unsound) parallel verdict.
  std::string edited = base;
  edited.replace(edited.find("cols[i] > 0 ? 1 : 0"), 19, "cols[i] - 5        ");
  UpdateResult after = engine.update(edited);
  expect_matches_cold(after, edited, assume, "dirty caller, clean callee");
  EXPECT_EQ(after.stats.dirty, 2) << "fill_nzz + consume; build_rowstr stays clean";
  EXPECT_NE(verdict_lines(after.verdicts), before_verdicts)
      << "the edit must actually change an analysis result, or this test "
         "proves nothing about fingerprint invalidation";
}

TEST(IncrementalEngine, StorePreloadedSummariesServeAndSurviveUpdates) {
  const pipeline::Assumptions assume = {{"n", 1}};
  const std::string base = R"(int n;
int idx[100];
int a[100];
void fill(void) {
  for (int i = 0; i < n; i++) {
    idx[i] = i + 1;
  }
}
void scale(void) {
  fill();
  for (int i = 0; i < n; i++) {
    a[idx[i]] = i;
  }
}
void driver(void) {
  scale();
}
)";
  const std::string store_path = testing::TempDir() + "sspar_incremental_store.bin";
  std::remove(store_path.c_str());

  // First engine warms the persistent store with fill's summary.
  {
    store::SummaryStore store(store_path);
    ASSERT_TRUE(store.open());
    EngineOptions options;
    options.assumptions = assume;
    options.store = &store;
    IncrementalEngine warmup(options);
    ASSERT_TRUE(warmup.update(base).ok);
    warmup.flush_store();
  }

  // A fresh engine preloads the store at construction: even its FIRST update
  // (everything dirty) rehydrates fill's summary instead of recomputing it.
  store::SummaryStore store(store_path);
  ASSERT_TRUE(store.open());
  EngineOptions options;
  options.assumptions = assume;
  options.store = &store;
  IncrementalEngine engine(options);
  UpdateResult r = engine.update(base);
  expect_matches_cold(r, base, assume, "store-preloaded first update");
  EXPECT_GT(r.stats.reused_summaries, 0) << "fill's summary must come from the store";

  // The preloaded entry survives updates: editing scale re-analyzes it, and
  // its fill() call is answered by the same cached summary again.
  std::string edited = base;
  edited.replace(edited.find("a[idx[i]] = i;"), 14, "a[idx[i]] = i + 1;");
  r = engine.update(edited);
  expect_matches_cold(r, edited, assume, "edit against preloaded store");
  EXPECT_EQ(r.stats.dirty, 2) << "scale + driver";
  EXPECT_GT(r.stats.reused_summaries, 0)
      << "dirty scale consults fill's summary, which must still be cached";
  std::remove(store_path.c_str());
}

// --------------------------------------------------------------------------
// Diagnostics: canonical order, dedup, and the delta
// --------------------------------------------------------------------------

TEST(IncrementalEngine, DiagnosticsStayCanonicalWhenCachedAndFreshMerge) {
  // zz_noisy comes FIRST in the source but LAST in name order; after editing
  // only aa_noisy, its cached diagnostics must interleave with aa_noisy's
  // fresh ones in (line, column, code) order — not in map/name order and not
  // cached-then-fresh.
  const pipeline::Assumptions assume = {{"n", 1}};
  const std::string base = R"(int n;
int a[100];
void zz_noisy(void) {
  for (int i = 0; i < n; i++) {
    while (a[i] > 0) { a[i] = a[i] - 1; }
  }
}
void aa_noisy(void) {
  for (int i = 0; i < n; i++) {
    while (a[i] > 1) { a[i] = a[i] - 2; }
  }
}
)";
  EngineOptions options;
  options.assumptions = assume;
  IncrementalEngine engine(options);
  UpdateResult r = engine.update(base);
  expect_matches_cold(r, base, assume, "two-warning base");
  ASSERT_GE(r.diagnostics.size(), 2u) << "both while loops must warn";
  for (size_t i = 1; i < r.diagnostics.size(); ++i) {
    EXPECT_LE(r.diagnostics[i - 1].location.line, r.diagnostics[i].location.line)
        << "diagnostics out of canonical order at index " << i;
  }

  // Edit only aa_noisy: zz_noisy's warning is cached, aa_noisy's is fresh.
  std::string edited = base;
  edited.replace(edited.find("a[i] - 2"), 8, "a[i] - 3");
  r = engine.update(edited);
  expect_matches_cold(r, edited, assume, "cached + fresh diagnostics");
  EXPECT_EQ(r.delta.added.size(), 0u);
  EXPECT_EQ(r.delta.removed.size(), 0u);
  EXPECT_EQ(r.delta.unchanged, static_cast<int>(r.diagnostics.size()));

  // Removing zz_noisy's while loop shows up as a removed diagnostic.
  std::string calmed = edited;
  calmed.replace(calmed.find("while (a[i] > 0) { a[i] = a[i] - 1; }"), 37,
                 "a[i] = 0;                            ");
  r = engine.update(calmed);
  expect_matches_cold(r, calmed, assume, "warning removed");
  EXPECT_EQ(r.delta.removed.size(), 1u);
  EXPECT_EQ(r.delta.added.size(), 0u);
}

// --------------------------------------------------------------------------
// Chunk reuse: unchanged top-level declarations keep their parsed objects
// --------------------------------------------------------------------------

// Every function of the engine's program by name.
std::map<std::string, const ast::FuncDecl*> functions_of(const IncrementalEngine& engine) {
  std::map<std::string, const ast::FuncDecl*> out;
  for (const auto& f : engine.program()->functions) out[f->name] = f.get();
  return out;
}

// The canonical diagnostics of a cold parse of `source` (for updates that
// fail: their diagnostics must be exactly these, offsets included).
std::vector<std::string> cold_parse_diag_lines(const std::string& source) {
  support::DiagnosticEngine diags;
  const ast::ParseResult parsed = ast::parse_and_resolve(source, diags);
  EXPECT_FALSE(parsed.ok);
  std::vector<support::Diagnostic> list = diags.diagnostics();
  support::canonicalize_diagnostics(list);
  return diag_lines(list);
}

TEST(IncrementalChunks, SplitterFollowsTheLexersTrivia) {
  std::vector<SourceChunk> chunks;
  const std::string source =
      "int n; // {\n# define X {\n/* } { */ void f(void) {\n  n = 1; /* } */\n}\n  int a[3], b;\n";
  ASSERT_TRUE(split_chunks(source, chunks));
  ASSERT_EQ(chunks.size(), 3u);
  EXPECT_EQ(source.substr(chunks[0].begin, chunks[0].end - chunks[0].begin), "int n;");
  EXPECT_EQ(source.substr(chunks[1].begin, 4), "void");
  EXPECT_EQ(source[chunks[1].end - 1], '}');
  EXPECT_EQ(chunks[1].start.line, 3u);
  EXPECT_EQ(chunks[1].start.column, 11u);
  EXPECT_EQ(chunks[2].start.line, 6u);
  EXPECT_EQ(chunks[2].start.column, 3u);
  EXPECT_EQ(chunks[2].start.offset, source.find("int a[3]"));

  EXPECT_FALSE(split_chunks("void f(void) { }\n}\n", chunks)) << "stray '}'";
  EXPECT_FALSE(split_chunks("int n;\n/* open", chunks)) << "unterminated comment";
  EXPECT_FALSE(split_chunks("int n;\nint m", chunks)) << "no terminator";
  EXPECT_TRUE(split_chunks("  // nothing but trivia\n", chunks));
  EXPECT_TRUE(chunks.empty());
}

TEST(IncrementalChunks, LeafEditReparsesOnlyTheEditedFunction) {
  const pipeline::Assumptions assume = {{"n", 1}};
  const std::string base = R"(int n;
int a[100];
int idx[100];
void fill(void) {
  for (int i = 0; i < n; i++) {
    idx[i] = i + 1;
  }
}
void leaf(void) {
  for (int i = 0; i < n; i++) {
    a[i] = i;
  }
}
void scale(void) {
  for (int i = 0; i < n; i++) {
    a[idx[i]] = 2;
  }
}
void driver(void) {
  fill();
  scale();
}
)";
  EngineOptions options;
  options.assumptions = assume;
  IncrementalEngine engine(options);
  ASSERT_TRUE(engine.update(base).ok);
  const auto before = functions_of(engine);

  std::string edited = base;
  edited.replace(edited.find("a[i] = i;"), 9, "a[i] = i + 7;");
  UpdateResult r = engine.update(edited);
  expect_matches_cold(r, edited, assume, "leaf edit");
  EXPECT_EQ(r.stats.dirty, 1);
  EXPECT_EQ(r.stats.reanalyzed, 1);
  const auto after = functions_of(engine);
  EXPECT_NE(after.at("leaf"), before.at("leaf")) << "the edited chunk is parsed anew";
  for (const char* name : {"fill", "scale", "driver"}) {
    EXPECT_EQ(after.at(name), before.at(name)) << name << " must keep its parsed object";
  }
  // Reused loops carry their verdicts; each verdict points into the
  // current program.
  std::vector<const ast::For*> loops;
  for (const auto& f : engine.program()->functions) {
    for (const ast::For* loop : ast::collect_loops(static_cast<const ast::Stmt*>(f->body.get()))) {
      loops.push_back(loop);
    }
  }
  ASSERT_EQ(r.verdicts.size(), loops.size());
  for (size_t i = 0; i < loops.size(); ++i) EXPECT_EQ(r.verdicts[i].loop, loops[i]);
}

TEST(IncrementalChunks, LineShiftsAboveAWarningAndAnSccMatchColdToTheByte) {
  const pipeline::Assumptions assume = {{"n", 1}};
  const std::string base = R"(int n;
int a[100];
void probe(void) {
  for (int i = 0; i < n; i++) {
    a[i] = mystery(i);
  }
}
void even(int v) {
  if (v > 0) { odd(v - 1); }
}
void odd(int v) {
  if (v > 0) { even(v - 1); }
}
void work(void) {
  for (int i = 0; i < n; i++) {
    a[i] = i;
    even(i);
  }
}
)";
  EngineOptions options;
  options.assumptions = assume;
  IncrementalEngine engine(options);
  UpdateResult r = engine.update(base);
  expect_matches_cold(r, base, assume, "base");
  ASSERT_FALSE(r.diagnostics.empty());
  EXPECT_EQ(r.diagnostics[0].code, support::DiagCode::AnalysisLoopCall);

  std::string shifted = base;
  shifted.insert(shifted.find("void probe"), "// probe\n/* a block\n   comment */\n");
  r = engine.update(shifted);
  expect_matches_cold(r, shifted, assume, "shift above the W0301 function");
  expect_diags_match_cold(r, shifted, assume);
  EXPECT_EQ(r.stats.reanalyzed, 3) << "even + odd key their locations, and work calls them";

  const auto before = functions_of(engine);
  shifted.insert(shifted.find("void even"), "\n\n  \n");
  r = engine.update(shifted);
  expect_matches_cold(r, shifted, assume, "shift above the SCC");
  expect_diags_match_cold(r, shifted, assume);
  EXPECT_EQ(r.stats.reanalyzed, 3);
  EXPECT_EQ(functions_of(engine), before) << "moved chunks keep their objects";
}

TEST(IncrementalChunks, GlobalEditsRebindReusedFunctionsAndGlobalPrivates) {
  const pipeline::Assumptions assume = {{"n", 1}};
  const std::string base = R"(int n;
int t;
int a[100];
int b[100];
int c[10];
void scale(void) {
  for (int i = 0; i < n; i++) {
    t = b[i];
    a[i] = t * 2;
  }
}
void other(void) {
  for (int i = 0; i < n; i++) {
    c[i] = i;
  }
}
)";
  EngineOptions options;
  options.assumptions = assume;
  IncrementalEngine engine(options);
  UpdateResult r = engine.update(base);
  expect_matches_cold(r, base, assume, "base");
  ASSERT_EQ(r.verdicts.size(), 2u);
  ASSERT_EQ(r.verdicts[0].privates.size(), 1u) << "t is privatized";
  const auto before = functions_of(engine);
  const ast::VarDecl* old_t = engine.program()->find_global("t");

  // Init-only change of t: no key changes, but t is a new object; scale's
  // cached verdict must name it.
  std::string init_only = base;
  init_only.replace(init_only.find("int t;"), 6, "int t = 3;");
  r = engine.update(init_only);
  expect_matches_cold(r, init_only, assume, "init-only global edit");
  EXPECT_EQ(r.stats.dirty, 0);
  EXPECT_EQ(r.stats.reanalyzed, 0);
  EXPECT_EQ(functions_of(engine), before);
  const ast::VarDecl* new_t = engine.program()->find_global("t");
  EXPECT_NE(new_t, old_t);
  ASSERT_EQ(r.verdicts[0].privates.size(), 1u);
  EXPECT_EQ(r.verdicts[0].privates[0], new_t);

  // Shape change of c: other re-runs on its reused object, scale stays
  // clean and its private still names the current t.
  std::string shape = init_only;
  shape.replace(shape.find("int c[10];"), 10, "int c[20];");
  r = engine.update(shape);
  expect_matches_cold(r, shape, assume, "shape global edit");
  EXPECT_EQ(r.stats.dirty, 1) << "other";
  EXPECT_EQ(functions_of(engine), before);
  EXPECT_EQ(r.verdicts[0].privates.at(0), engine.program()->find_global("t"));

  // A new global above everything moves every chunk and renumbers symbols.
  std::string added = "int zz[4];\n" + shape;
  r = engine.update(added);
  expect_matches_cold(r, added, assume, "global added on top");
  expect_diags_match_cold(r, added, assume);
  EXPECT_EQ(r.stats.dirty, 0);
  EXPECT_EQ(r.verdicts[0].privates.at(0), engine.program()->find_global("t"));
}

TEST(IncrementalChunks, FallbackInputsMatchColdAndKeepTheSession) {
  const pipeline::Assumptions assume = {{"n", 1}};
  const std::string base = R"(int n;
int a[100];
void f(int m) {
  for (int i = 0; i < n; i++) {
    a[i] = i;
  }
}
void g(int m) {
  for (int i = 0; i < n; i++) {
    a[i] = a[i] + m;
  }
}
)";
  EngineOptions options;
  options.assumptions = assume;
  IncrementalEngine engine(options);
  ASSERT_TRUE(engine.update(base).ok);
  const ast::Program* good = engine.program();

  // A half-typed statement between two functions: a stray '}' at top level
  // (this once sent the parser into unbounded allocation).
  std::string dos = base;
  dos.insert(dos.find("void g"), "for (int z = 0; z <\n");
  // An unterminated block comment; a sema error (the rollback path).
  const std::string open_comment = base + "/* \n";
  std::string undeclared = base;
  undeclared.replace(undeclared.find("a[i] + m"), 8, "a[i] + q");
  for (const std::string& bad : {dos, open_comment, undeclared}) {
    UpdateResult r = engine.update(bad);
    EXPECT_FALSE(r.ok);
    EXPECT_EQ(diag_lines(r.diagnostics), cold_parse_diag_lines(bad));
    EXPECT_EQ(engine.program(), good) << "the last good version stays";
  }
  const std::string dos_back = base;
  UpdateResult r = engine.update(dos_back);
  expect_matches_cold(r, dos_back, assume, "back to the good version");
  EXPECT_EQ(r.stats.reanalyzed, 0) << "the failures cost no reuse";

  // Braces inside a #-line and inside comments are trivia, not chunks.
  std::string trivia_braces = base;
  trivia_braces.insert(trivia_braces.find("void g"), "# define OPEN {\n// }\n/* { */\n");
  trivia_braces.insert(trivia_braces.find("a[i] = i;"), "/* } */ ");
  r = engine.update(trivia_braces);
  expect_matches_cold(r, trivia_braces, assume, "braces in trivia");
  expect_diags_match_cold(r, trivia_braces, assume);
  EXPECT_EQ(r.stats.reanalyzed, 1) << "f's chunk changed; g only moved";
}

TEST(IncrementalChunks, FunctionsSharingALineKeepTheirOwnDiagnostics) {
  // Two warning functions on one line: cached diagnostics belong to the
  // function whose bytes hold them, so re-running one never drops the
  // other's warning.
  const pipeline::Assumptions assume = {{"n", 1}};
  const std::string base =
      "int n;\nint a[100];\n"
      "void p(void) { for (int i = 0; i < n; i++) { a[i] = mystery(i); } } "
      "void q(void) { for (int i = 0; i < n; i++) { a[i] = enigma(i); } }\n";
  EngineOptions options;
  options.assumptions = assume;
  IncrementalEngine engine(options);
  UpdateResult r = engine.update(base);
  expect_matches_cold(r, base, assume, "base");
  ASSERT_EQ(r.diagnostics.size(), 2u);

  std::string edited = base;
  edited.replace(edited.find("enigma(i)"), 9, "enigma(i + 1)");
  r = engine.update(edited);
  expect_matches_cold(r, edited, assume, "q edited");
  expect_diags_match_cold(r, edited, assume);
  EXPECT_EQ(r.stats.reanalyzed, 1);
  std::string again = edited;
  again.replace(again.find("mystery(i)"), 10, "mystery(i + 1)");
  r = engine.update(again);
  expect_matches_cold(r, again, assume, "p edited");
  expect_diags_match_cold(r, again, assume);
  EXPECT_EQ(r.stats.reanalyzed, 2) << "q moved along its line: a new start column";
}

TEST(IncrementalChunks, AnExceptionMidUpdateLeavesTheNextUpdateExact) {
  if (!support::faultpoint::compiled_in()) GTEST_SKIP() << "faultpoints off";
  const pipeline::Assumptions assume = {{"n", 1}};
  const std::string base = R"(int n;
int a[100];
void f(void) {
  for (int i = 0; i < n; i++) {
    a[i] = i;
  }
}
void g(void) {
  f();
}
)";
  EngineOptions options;
  options.assumptions = assume;
  IncrementalEngine engine(options);
  ASSERT_TRUE(engine.update(base).ok);

  // The throw strikes after the splice moved g's reused declaration into
  // the new program: neither program is whole, so the engine drops both.
  std::string edited = "// moved\n" + base;
  edited.replace(edited.find("a[i] = i;"), 9, "a[i] = i + 1;");
  support::faultpoint::arm("incremental.update.post_parse", "throw");
  EXPECT_THROW(engine.update(edited), support::faultpoint::FaultInjected);
  support::faultpoint::disarm_all();
  EXPECT_EQ(engine.program(), nullptr);

  UpdateResult r = engine.update(edited);
  expect_matches_cold(r, edited, assume, "update after an exception");
  expect_diags_match_cold(r, edited, assume);
  EXPECT_EQ(r.stats.reanalyzed, 2) << "analyzed like the first update";
  std::string again = edited;
  again.replace(again.find("a[i] = i + 1;"), 13, "a[i] = i + 2;");
  r = engine.update(again);
  expect_matches_cold(r, again, assume, "incremental again");
  EXPECT_EQ(r.stats.reanalyzed, 2) << "f + its caller g";
  EXPECT_EQ(r.stats.reused_verdicts, 0);
}

// Splice differential: seeded random edits of corpus programs through one
// engine each — line inserts, deletes and swaps, comment inserts, and whole
// chunk deletes, duplicates and swaps. Every update must equal a cold
// analysis: output, verdicts and canonical diagnostics with byte offsets
// when it parses, the cold parse's diagnostics when it does not.
TEST(IncrementalChunks, SeededSpliceDifferentialOverCorpusMatchesCold) {
  uint64_t state = 0x9e3779b97f4a7c15ull;
  auto rand_below = [&state](size_t bound) {
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
    return bound == 0 ? size_t{0} : static_cast<size_t>(state % bound);
  };
  auto split_lines = [](const std::string& text) {
    std::vector<std::string> lines;
    size_t begin = 0;
    while (begin < text.size()) {
      size_t end = text.find('\n', begin);
      if (end == std::string::npos) end = text.size();
      lines.push_back(text.substr(begin, end - begin));
      begin = end + 1;
    }
    return lines;
  };
  auto join_lines = [](const std::vector<std::string>& lines) {
    std::string text;
    for (const std::string& line : lines) text += line + "\n";
    return text;
  };

  int updates = 0, failed = 0, spliced_chunks = 0;
  for (const corpus::Entry& entry : corpus::all_entries()) {
    SCOPED_TRACE(entry.name);
    pipeline::Assumptions assume;
    for (const auto& p : entry.params) assume.add(p.name, p.assume_min);
    EngineOptions options;
    options.assumptions = assume;
    IncrementalEngine engine(options);
    std::string good = entry.source;
    ASSERT_TRUE(engine.update(good).ok);
    std::string text = good;
    for (int step = 0; step < 40; ++step) {
      std::vector<std::string> lines = split_lines(text);
      std::vector<SourceChunk> chunks;
      const bool split = split_chunks(text, chunks);
      switch (rand_below(7)) {
        case 0:
          lines.insert(lines.begin() + rand_below(lines.size() + 1),
                       "// note " + std::to_string(step));
          break;
        case 1:
          lines.insert(lines.begin() + rand_below(lines.size() + 1), "");
          break;
        case 2:
          if (!lines.empty()) lines.erase(lines.begin() + rand_below(lines.size()));
          break;
        case 3:
          if (lines.size() > 1) {
            const size_t i = rand_below(lines.size() - 1);
            std::swap(lines[i], lines[i + 1]);
          }
          break;
        case 4:  // delete a chunk
        case 5:  // duplicate a chunk (a redeclaration, or a second definition)
        case 6:  // swap two chunks
          if (split && chunks.size() > 1) {
            const SourceChunk a = chunks[rand_below(chunks.size())];
            const SourceChunk b = chunks[rand_below(chunks.size())];
            const std::string a_text = text.substr(a.begin, a.end - a.begin);
            const std::string b_text = text.substr(b.begin, b.end - b.begin);
            std::string edited = text;
            if (a.begin == b.begin || b.begin < a.begin) {
              edited.erase(a.begin, a.end - a.begin);
            } else {  // a before b: swap them, or duplicate a after b
              edited.replace(b.begin, b.end - b.begin, a_text);
              if (rand_below(2) == 0) edited.replace(a.begin, a.end - a.begin, b_text);
            }
            lines = split_lines(edited);
            ++spliced_chunks;
          }
          break;
      }
      text = join_lines(lines);
      UpdateResult r = engine.update(text);
      ++updates;
      const std::string label = entry.name + " step " + std::to_string(step);
      if (r.ok) {
        expect_matches_cold(r, text, assume, label);
        expect_diags_match_cold(r, text, assume);
        good = text;
      } else {
        ++failed;
        EXPECT_EQ(diag_lines(r.diagnostics), cold_parse_diag_lines(text)) << label;
        if (rand_below(2) == 0) text = good;  // the editor undoes, or types on
      }
      if (testing::Test::HasFailure()) return;
    }
  }
  EXPECT_GT(updates - failed, updates / 3) << "most updates should still parse";
  EXPECT_GT(spliced_chunks, 0);
}

}  // namespace
}  // namespace sspar::incremental
