// Incremental re-analysis engine: dirty-cone invalidation over the
// content-addressed summary machinery (ROADMAP item 2).
//
// An IncrementalEngine owns persistent analysis state across a sequence of
// source versions and exposes update(new_source) -> UpdateResult. Each
// update:
//
//   1. re-parses the new source and re-keys EVERY function with the PR 5/7
//      cross-program content keys (printed body + signature, referenced
//      globals + assumption bounds, transitive callee keys, SCCs keyed as a
//      group with member locations folded in),
//   2. computes the dirty cone: functions whose key changed or that are new.
//      Transitive callers are dirty automatically — a caller's key folds its
//      callees' keys in, so editing a helper flips every caller up the call
//      graph. Context-sensitive summary slots are invalidated the same way:
//      their cache address includes the entry-fact fingerprint projected
//      from the caller, so a dirty caller stops hitting the old slot even
//      when the callee body is unchanged,
//   3. additionally marks functions whose content key is unchanged but whose
//      layout RELATIVE to their own start changed (a reformat inside the
//      body): their cached positions cannot be shifted into place, so they
//      re-run too (their summaries still reuse). A function that merely
//      moved — same key, same relative layout — stays clean: verdict text
//      carries no positions, and its cached diagnostics are rebased by the
//      function's line and byte delta (position plus the "loop at line N"
//      text of W03xx messages),
//   4. re-summarizes/re-analyzes only dirty + re-laid-out functions; every
//      clean function reuses its cached summaries (via the engine's
//      persistent ipa::CrossProgramCache), loop verdicts, and diagnostics,
//   5. re-annotates and re-emits, and reports diagnostics as a delta
//      (added/removed/unchanged) against the previous update in canonical
//      (line, column, code) order.
//
// Correctness contract: for ANY update sequence, the final verdicts,
// annotated output, and canonical diagnostics are byte-identical to a cold
// full analysis of the final source (modulo timings). The engine is
// single-threaded; a server wraps one engine per session.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/analyzer.h"
#include "core/parallelizer.h"
#include "incremental/update_stats.h"
#include "ipa/cross_cache.h"
#include "pipeline/assumptions.h"
#include "support/diagnostics.h"

namespace sspar::store {
class SummaryStore;
}

namespace sspar::incremental {

struct EngineOptions {
  core::AnalyzerOptions analyzer;
  pipeline::Assumptions assumptions;
  // Optional persistent store: preloaded into the engine's cross-program
  // cache at construction (store-preloaded summaries then survive updates
  // untouched), written back by flush_store(). Not owned; must outlive the
  // engine.
  store::SummaryStore* store = nullptr;
};

// Result of one update. `verdicts` point into the engine's current AST and
// stay valid until the next update() or engine destruction.
struct UpdateResult {
  bool ok = false;
  std::string error;  // frontend diagnostics text when !ok
  std::vector<core::LoopVerdict> verdicts;  // program order (pre-order per function)
  std::string output;                        // annotated source
  int annotated = 0;
  std::vector<support::Diagnostic> diagnostics;  // canonical order, deduplicated
  DiagDelta delta;  // vs. the previous successful update
  UpdateStats stats;
};

class IncrementalEngine {
 public:
  explicit IncrementalEngine(EngineOptions options = {});
  ~IncrementalEngine();

  IncrementalEngine(const IncrementalEngine&) = delete;
  IncrementalEngine& operator=(const IncrementalEngine&) = delete;

  // Applies one source version. A failed parse leaves the engine's
  // incremental state (function keys, cached verdicts and diagnostics, the
  // summary cache) untouched — the session survives a syntax error mid-edit
  // and the next successful update is still incremental — but the previous
  // AST snapshot is released, so program() returns null until then.
  UpdateResult update(const std::string& source);

  const EngineTotals& totals() const { return totals_; }
  const ipa::CrossProgramCache& cache() const { return cache_; }
  // Number of successful updates applied.
  int64_t updates() const { return totals_.updates; }

  // Writes the cross-program cache back to options_.store (absorb + commit);
  // no-op without a store.
  void flush_store();

  // The current AST snapshot (null before the first successful update).
  const ast::Program* program() const;

 private:
  // A cached verdict with every AST pointer replaced by rebind info, so it
  // survives re-parses: the loop by pre-order ordinal, each private variable
  // by global name or by ordinal in the function's declaration order
  // (params, then DeclStmts in pre-order). A clean function's printed body
  // is identical, so both enumerations are stable.
  struct PrivateRef {
    bool global = false;
    std::string name;     // global name (global == true)
    size_t ordinal = 0;   // local declaration ordinal (global == false)
  };
  struct CachedVerdict {
    core::LoopVerdict verdict;  // loop = nullptr, privates empty
    size_t loop_ordinal = 0;
    std::vector<PrivateRef> privates;
  };
  // Everything remembered about one function between updates. Keyed by
  // function name; no pointers into any AST.
  struct FuncState {
    std::pair<uint64_t, uint64_t> content_key;
    // Hash of every node kind + source position in the function (plus the
    // signature), relative to `anchor`: unchanged layout means every cached
    // position is accurate once shifted by the anchor's move.
    std::pair<uint64_t, uint64_t> layout;
    support::SourceLocation anchor;  // the function's name token
    // Immutable once built; clean functions share one vector across updates
    // instead of deep-copying hundreds of verdicts per keystroke.
    std::shared_ptr<const std::vector<CachedVerdict>> verdicts;
    // Diagnostics attributed to this function by source-line span, at the
    // positions of `anchor`.
    std::vector<support::Diagnostic> diags;
  };
  struct ProgramState;  // arena + summaries + parse + analyzer (in member order)

  EngineOptions options_;
  // Persistent content-addressed summary cache: survives across updates, so
  // clean functions' summaries rehydrate instead of recomputing.
  ipa::CrossProgramCache cache_;
  std::map<std::string, FuncState> func_states_;
  std::vector<support::Diagnostic> last_diags_;
  std::unique_ptr<ProgramState> state_;  // last successful update's program
  EngineTotals totals_;
};

}  // namespace sspar::incremental
