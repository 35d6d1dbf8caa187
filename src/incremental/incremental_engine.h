// Incremental re-analysis engine: dirty-cone invalidation over the
// content-addressed summary machinery (ROADMAP item 2).
//
// An IncrementalEngine owns persistent analysis state across a sequence of
// source versions and exposes update(new_source) -> UpdateResult. Each
// update:
//
//   1. splits the new source into top-level chunks (see chunks.h). A chunk
//      whose bytes and start column equal a chunk of the previous good
//      version keeps its parsed declarations: they move into the new program
//      and, if the chunk moved, get one walk that shifts their positions.
//      Only the other chunks are parsed, each alone at its absolute
//      position; sema then resolves the whole spliced program with a fresh
//      symbol table, so it is the program a cold parse builds. Any parse or
//      sema error, a source the splitter cannot settle, the first update and
//      the update after an exception parse the whole file instead,
//   2. keys every function with the cross-program content keys
//      (printed body + signature, referenced globals + assumption bounds,
//      transitive callee keys, SCCs keyed as a group with member locations
//      folded in). A reused function keeps its identity hash unless a
//      global chunk changed, so only re-parsed functions print their body,
//   3. computes the dirty cone: functions whose key changed or that are new.
//      Transitive callers are dirty automatically — a caller's key folds its
//      callees' keys in, so editing a helper flips every caller up the call
//      graph. Context-sensitive summary slots are invalidated the same way:
//      their cache address includes the entry-fact fingerprint projected
//      from the caller, so a dirty caller stops hitting the old slot even
//      when the callee body is unchanged,
//   4. additionally re-runs every re-parsed function: its nodes are new, and
//      so is their layout relative to the function's start whenever the
//      chunk changed inside. A reused function that merely moved — same
//      key — stays clean: verdict text carries no positions, and its cached
//      diagnostics are rebased by the function's line and byte delta
//      (position plus the "loop at line N" text of W03xx messages),
//   5. re-summarizes/re-analyzes only that cone; every clean function reuses
//      its cached summaries (via the engine's persistent
//      ipa::CrossProgramCache), its loop verdicts (which point into its
//      reused nodes), and its diagnostics,
//   6. re-annotates and re-prints only the cone — clean functions splice
//      their cached text into the output — and reports diagnostics as a
//      delta (added/removed/unchanged) against the previous update in
//      canonical (line, column, code) order.
//
// Correctness contract: for ANY update sequence, the final verdicts,
// annotated output, and canonical diagnostics are byte-identical to a cold
// full analysis of the final source (modulo timings). The engine is
// single-threaded; a server wraps one engine per session.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/analyzer.h"
#include "core/parallelizer.h"
#include "incremental/chunks.h"
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

  // Applies one source version. A failed parse leaves the engine's state
  // untouched — the session survives a syntax error mid-edit, program()
  // still returns the last good version, and the next successful update is
  // still incremental against it. An exception drops the reuse state: the
  // next update is then analyzed like the first.
  UpdateResult update(const std::string& source);

  const EngineTotals& totals() const { return totals_; }
  const ipa::CrossProgramCache& cache() const { return cache_; }
  // Number of successful updates applied.
  int64_t updates() const { return totals_.updates; }

  // Writes the cross-program cache back to options_.store (absorb + commit);
  // no-op without a store.
  void flush_store();

  // The last good version's AST (null before the first successful update).
  const ast::Program* program() const;

 private:
  // Everything remembered about one function between updates, aligned with
  // program()->functions.
  struct FuncState {
    std::string name;
    std::pair<uint64_t, uint64_t> content_key;
    // core::Analyzer's identity hash: valid for the next version while the
    // function's chunk and every global chunk stay the same.
    std::pair<uint64_t, uint64_t> identity;
    // Hash of every node kind + source position in the function (plus the
    // signature), relative to `anchor`. A reused chunk keeps it as is.
    std::pair<uint64_t, uint64_t> layout;
    support::SourceLocation anchor;  // the function's name token
    // Immutable once built; a clean function shares one vector across
    // updates. The verdicts point into the function's own nodes, which a
    // clean function keeps, and at globals, which rebind by name when a
    // global chunk changes.
    std::shared_ptr<const std::vector<core::LoopVerdict>> verdicts;
    // Diagnostics attributed to this function by source-line span, at the
    // positions of `anchor`.
    std::vector<support::Diagnostic> diags;
    std::string text;   // ast::print_function output, annotations included
    int annotated = 0;  // loops annotated in `text`
  };
  // One chunk of the last good version and the declarations parsed from it:
  // functions[first] or globals[first, first + count) of program().
  struct Chunk {
    SourceChunk span;
    bool function = false;
    size_t first = 0;
    size_t count = 0;
  };
  struct ProgramState;  // arena + summaries + parse + analyzer (in member order)
  struct Splice;        // which declarations of a new version come from where

  UpdateResult apply(const std::string& source);
  // Builds the new version's program from reused and re-parsed chunks into
  // `state`; false (old program intact) when it must be parsed whole.
  bool splice_program(const std::string& source, const std::vector<SourceChunk>& spans,
                      ProgramState& state, Splice& splice);
  // Chunks of a whole-file parse (empty when they do not map onto it).
  static std::vector<Chunk> map_chunks(const ast::Program& program,
                                       const std::vector<SourceChunk>& spans);

  EngineOptions options_;
  // Persistent content-addressed summary cache: survives across updates, so
  // clean functions' summaries rehydrate instead of recomputing.
  ipa::CrossProgramCache cache_;
  // The last good version: its source, chunks, per-function state and the
  // printed globals block (ast::print_globals).
  std::string source_;
  std::vector<Chunk> chunks_;
  std::vector<FuncState> funcs_;
  std::string globals_text_;
  std::vector<support::Diagnostic> last_diags_;
  std::unique_ptr<ProgramState> state_;  // last successful update's program
  EngineTotals totals_;
};

}  // namespace sspar::incremental
