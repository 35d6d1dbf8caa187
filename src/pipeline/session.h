// Staged, re-entrant compilation session — the library's primary API.
//
// A Session owns one program (source text, AST, symbol table, diagnostics)
// and exposes the paper's pipeline as explicit, independently re-runnable
// stages:
//
//   Session session(source, {{"N", 1}});
//   session.parse();                 // lex + parse + sema (cached)
//   session.analyze(options);        // index-array property analysis
//   session.parallelize();           // extended Range Test per loop
//   session.annotate();              // #pragma omp onto the AST
//   auto emitted = session.emit();   // re-emit annotated source
//
// Each stage implies the ones before it, so `session.parallelize()` alone
// runs the whole front half. Results are cached on the session:
//
//   * parse() runs at most once per source; re-analyzing under different
//     AnalyzerOptions (the ablation loop) NEVER re-parses.
//   * analyze(options) reuses the previous analysis when `options` compare
//     equal, otherwise re-runs analysis only (invalidating the downstream
//     verdict/annotation caches).
//   * parallelize() caches verdicts until the analysis changes.
//   * annotate() is idempotent: it strips any annotations from a previous
//     run before re-annotating, so emit() never sees stale pragmas.
//
// Per-stage wall-clock timings and run counts are recorded in stats() for
// the benches (parse vs analyze vs parallelize cost split).
//
// Errors are reported through the session's DiagnosticEngine as structured
// support::Diagnostic records (stable code + source location), not strings.
// A failed parse makes every downstream stage return null/empty; the
// session stays usable (e.g. for diagnostics inspection).
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/analyzer.h"
#include "core/parallelizer.h"
#include "frontend/sema.h"
#include "ipa/summary.h"
#include "pipeline/assumptions.h"
#include "support/diagnostics.h"
#include "symbolic/arena.h"

namespace sspar::pipeline {

// Wall-clock accounting for one stage.
struct StageStats {
  int runs = 0;         // times the stage actually executed (cache hits excluded)
  double last_ms = 0.0;
  double total_ms = 0.0;
};

struct SessionStats {
  StageStats parse;
  StageStats analyze;
  StageStats parallelize;
  StageStats annotate;
  StageStats emit;
};

// Output of analyze(): the analyzer (owned by the session, valid until the
// next analyze() with different options) plus the options it ran under.
struct AnalysisResult {
  const core::Analyzer* analyzer = nullptr;
  core::AnalyzerOptions options;
};

// Output of emit().
struct EmitResult {
  bool ok = false;
  std::string output;  // the program source (annotated if annotate() ran)
  int annotated = 0;   // loops carrying a pragma at emission time
};

class Session {
 public:
  explicit Session(std::string source, Assumptions assumptions = {});

  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;
  Session(Session&&) = default;
  Session& operator=(Session&&) = default;

  // --- Stages (each implies its predecessors) ------------------------------

  // Lex + parse + resolve. Cached: only the first call does work. Returns
  // false (and records diagnostics) on frontend errors.
  bool parse();

  // Index-array property analysis under `options`. Reuses the cached
  // analysis when `options` equal the previous run's. Null on parse failure.
  const AnalysisResult* analyze(const core::AnalyzerOptions& options = {});

  // Extended Range Test over every loop of every function, in pre-order.
  // Runs analyze({}) first if no analysis exists. Null on parse failure.
  const std::vector<core::LoopVerdict>* parallelize();

  // Annotates outermost parallel loops with OpenMP pragmas (replacing any
  // previous annotation pass). Returns the number of loops annotated, or -1
  // on parse failure.
  int annotate();

  // Prints the program in its current state.
  EmitResult emit();

  // --- Accessors -----------------------------------------------------------

  bool parsed() const { return parse_done_; }
  const ast::Program* program() const { return parsed_.program.get(); }
  const sym::SymbolTable* symbols() const { return parsed_.symbols.get(); }
  const support::DiagnosticEngine& diagnostics() const { return *diags_; }

  // The session's interprocedural summary cache: function summaries computed
  // by analyze()/parallelize() stay here across stages and across re-analysis
  // under different AnalyzerOptions (the ablation loop re-hits them). Cleared
  // by take_parse() (summaries point into the released AST).
  const ipa::SummaryDB& summaries() const { return *summaries_; }

  // Attaches a content-addressed cross-program summary cache (thread-safe;
  // see ipa/cross_cache.h): this session's summary misses then rehydrate
  // byte-identical helper summaries computed by OTHER sessions, and publish
  // their own. Call before the first analyze(); `cache` must outlive the
  // session's analysis stages. Without a cache the session computes no
  // content keys. The batch driver attaches the cache passed in
  // BatchOptions::share_with, if any.
  void share_summaries(ipa::CrossProgramCache* cache) { summaries_->attach_shared(cache); }
  const Assumptions& assumptions() const { return assumptions_; }
  const std::string& source() const { return source_; }

  // The current analyzer (null before analyze()/parallelize()). Useful for
  // fact inspection (facts_at_end, snapshots).
  const core::Analyzer* analyzer() const { return analyzer_.get(); }

  const SessionStats& stats() const { return stats_; }

  // Moves AST + symbol-table ownership out (used by callers whose result
  // type owns the parse, e.g. corpus::analyze_entry). Verdicts
  // copied out earlier stay valid — they point into the moved-out Program,
  // whose nodes do not relocate. The session resets to its unparsed state:
  // every derived cache (analysis, verdicts, annotations) is dropped, and a
  // later stage call re-parses from the retained source.
  ast::ParseResult take_parse();

 private:
  void invalidate_analysis_downstream();

  std::string source_;
  Assumptions assumptions_;
  // unique_ptr: the Analyzer holds a pointer to the engine; Session moves
  // must not relocate it.
  std::unique_ptr<support::DiagnosticEngine> diags_;

  // Declared before the analysis caches: every sym::Expr they reference is
  // owned by this arena. unique_ptr keeps nodes' addresses stable across
  // Session moves.
  std::unique_ptr<sym::ExprArena> arena_;
  // Interprocedural summary cache (address-stable for the same reason);
  // declared right after the arena, which owns every expression it interns.
  std::unique_ptr<ipa::SummaryDB> summaries_;

  ast::ParseResult parsed_;
  bool parse_done_ = false;

  std::unique_ptr<core::Analyzer> analyzer_;
  std::optional<AnalysisResult> analysis_;
  // W03xx warnings are options-independent; emit them from the first
  // analysis only (re-analysis would duplicate them in diags_).
  bool analysis_diags_emitted_ = false;

  std::optional<std::vector<core::LoopVerdict>> verdicts_;
  int annotated_ = 0;
  bool annotate_done_ = false;

  SessionStats stats_;
};

}  // namespace sspar::pipeline
