// Function effect summaries (interprocedural analysis, step 2).
//
// A FunctionSummary is the aggregate effect of calling a function once,
// expressed in *function-entry terms*: formal integer parameters and the
// global scalars the callee reads appear as their own sym atoms, so a call
// site can instantiate the summary by substituting the actuals (and the
// caller's current values of the globals) for those atoms via the arena's
// memoized subst machinery. The summary carries:
//
//   * scalar_finals — end-of-call value of every global integer scalar the
//     function may write (λ-style: entry-relative, so `head = head + d`
//     summarizes as final(head) = sym(head) + ...),
//   * writes/reads — the function's array access effects, aggregated across
//     its loops exactly as core::Analyzer aggregates a loop body (a call
//     site replays them as if the statements were inlined),
//   * end_facts — the index-array property facts (Value/Step/Injective/
//     Identity) provable at function exit. The BASE summary (entry-fact
//     fingerprint 0) is computed from an EMPTY entry fact database: facts
//     that would need caller context do not appear (sound — fewer facts,
//     never wrong facts). When a call site's caller holds facts about
//     arrays the callee reads, the analyzer re-summarizes the callee under
//     a projection of those facts (context sensitivity); such summaries
//     carry the projection's fingerprint and their end_facts may include
//     properties only provable in that context (e.g. Monotonic_inc of
//     rowstr when a different helper established nzz >= 0),
//   * return_value — the returned range for int functions,
//   * may_write sets — a conservative write set (transitive over callees)
//     that stays valid even for unanalyzable functions; the analyzer's havoc
//     paths use it so an opaque call degrades soundly instead of silently
//     under-killing.
//
// Summaries are computed bottom-up over the CallGraph's reverse topological
// order and cached in a SummaryDB keyed on (function, AnalyzerOptions,
// entry-fact fingerprint). The DB is owned by pipeline::Session, so
// re-analysis under options the session has already run — the ablation
// loop, parallelize-after-analyze, repeated stage calls, repeated call
// sites under the same caller facts — reuses summaries instead of
// recomputing them. A SummaryDB may additionally be attached to a
// CrossProgramCache (ipa/cross_cache.h): per-session misses then consult
// the content-addressed shared cache before computing, which lets the batch
// driver reuse summaries of byte-identical helpers across corpus entries.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "core/analyzer.h"
#include "support/source_location.h"

namespace sspar::ipa {

struct FunctionSummary {
  const ast::FuncDecl* function = nullptr;

  // --- Conservative may-write sets: valid even when !analyzable -------------
  std::set<const ast::VarDecl*> may_write_scalars;  // global scalars, any type
  std::set<const ast::VarDecl*> may_write_arrays;   // global arrays
  bool writes_array_params = false;  // stores through a formal array parameter
  // Unknown callee somewhere in the transitive call tree: effects unbounded.
  bool opaque = false;

  // --- Analyzability ---------------------------------------------------------
  bool analyzable = false;
  std::string failure;  // why not (human-readable; used in W0301 and blockers)
  support::SourceLocation failure_location;

  // --- Effects, in function-entry terms (valid when analyzable) --------------
  std::map<const ast::VarDecl*, sym::Range> scalar_finals;  // global int scalars
  // Global scalars assigned on EVERY path through the function (syntactic,
  // conservative). A call site must join the final of any scalar NOT in this
  // set with the pre-call value — on skip paths the old value survives, which
  // in a caller loop is a λ-dependence exactly like a conditionally assigned
  // inlined scalar.
  std::set<const ast::VarDecl*> definite_scalar_writes;
  std::vector<core::ArrayWriteEffect> writes;
  std::vector<core::ArrayWriteEffect> reads;
  core::FactDB end_facts;
  std::optional<sym::Range> return_value;  // int-returning functions only
  // Global scalars the function may read before writing them (conservative
  // superset); call sites read these for λ-tracking and value binding.
  std::set<const ast::VarDecl*> exposed_scalar_reads;
  // Fingerprint of the entry-fact projection this summary was computed
  // under; 0 = base (empty entry fact database). See cross_cache.h's
  // fingerprint_facts for the encoding.
  uint64_t entry_fingerprint = 0;
};

class CrossProgramCache;
class ProgramScope;

// Per-session cache of function summaries keyed on (function, options,
// entry-fact fingerprint). Entries intern expressions in the session's
// arena, so they stay valid for the session's lifetime and across
// re-analysis with different options.
class SummaryDB {
 public:
  // Out of line: ProgramScope is incomplete here.
  SummaryDB();
  ~SummaryDB();

  struct Stats {
    size_t computed = 0;      // summaries built from scratch in this session
    size_t hits = 0;          // compute-time requests served from this cache
    size_t applications = 0;  // call sites where a summary was applied
    // Context-sensitive summaries (entry-fact fingerprint != 0) entered into
    // this session's DB, whether computed locally or rehydrated from the
    // shared cache (so the count is scheduling-independent).
    size_t context_computed = 0;
    // Interactions with an attached CrossProgramCache: summaries rehydrated
    // from it vs. shared lookups that had to compute locally. hits + misses
    // is deterministic per program; the split can depend on batch
    // scheduling (see CrossProgramCache::Stats).
    size_t shared_hits = 0;
    size_t shared_misses = 0;
    // Subset of shared_hits served by a PRELOADED cache entry, i.e. one a
    // persistent SummaryStore loaded from disk. Deterministic even with
    // batch scheduling: preloaded keys are present before any session runs,
    // so every lookup of one hits.
    size_t store_hits = 0;
    // Summaries of call-graph SCC members (recursive functions) entered into
    // this session's DB — computed locally or rehydrated under their
    // combined SCC content key. Deterministic.
    size_t scc_summaries = 0;
    size_t requests() const { return computed + hits + shared_hits; }
    size_t shared_requests() const { return shared_hits + shared_misses; }
    // Shared lookups the persistent store could not serve (key not on disk).
    size_t store_misses() const { return shared_requests() - store_hits; }
    // Summaries entered into this session's DB (locally computed plus
    // rehydrated); deterministic regardless of batch scheduling.
    size_t materialized() const { return computed + shared_hits; }
  };

  // Plain lookup (no stats); null on miss. Pointers stay valid until
  // clear(). The two-argument form is the base summary (fingerprint 0).
  const FunctionSummary* find(const ast::FuncDecl* function,
                              const core::AnalyzerOptions& options,
                              uint64_t fingerprint = 0) const;
  // Compute-time lookup: counts a hit when present.
  const FunctionSummary* lookup(const ast::FuncDecl* function,
                                const core::AnalyzerOptions& options,
                                uint64_t fingerprint = 0);
  // Counts a local compute (or a shared-cache rehydration when
  // `from_shared`; additionally a persistent-store hit when `from_store`);
  // overwrites any existing entry.
  const FunctionSummary& insert(const ast::FuncDecl* function,
                                const core::AnalyzerOptions& options,
                                uint64_t fingerprint, FunctionSummary summary,
                                bool from_shared = false, bool from_store = false);

  void note_application() { ++stats_.applications; }
  void note_shared_miss() { ++stats_.shared_misses; }
  void note_scc_summary() { ++stats_.scc_summaries; }

  // Optional content-addressed cache shared across sessions (programs).
  // Attach before any analysis; the owner must outlive this DB's use.
  void attach_shared(CrossProgramCache* shared) { shared_ = shared; }
  CrossProgramCache* shared() const { return shared_; }
  // The global-scope name index the shared cache's conversions resolve
  // against, built on first use and kept until clear() (a DB serves one
  // program at a time).
  const ProgramScope& scope(const ast::Program& program);

  const Stats& stats() const { return stats_; }
  size_t size() const { return entries_.size(); }

  // AnalyzerOptions is a struct of independent feature bits; encode them into
  // an integer key. Every new option must be added here (a missed bit would
  // alias two configurations onto one cache slot). Public: the analyzer also
  // folds these bits into cross-program content addresses.
  static uint32_t encode(const core::AnalyzerOptions& options);

  // Drops every summary (they reference AST nodes and arena expressions the
  // owner is about to release), the name index, and the stats. The attached
  // shared cache (if any) is left untouched: its entries are
  // session-independent.
  void clear();

 private:
  using Key = std::tuple<const ast::FuncDecl*, uint32_t, uint64_t>;
  std::map<Key, FunctionSummary> entries_;
  Stats stats_;
  CrossProgramCache* shared_ = nullptr;
  std::unique_ptr<const ProgramScope> scope_;
};

// Instantiates summary expressions at one call site: substitutes actuals for
// formal scalar atoms, the caller's current values for the callee's exposed
// global reads, and remaps formal array parameters onto the actual arrays.
// Exact substitution only — apply() returns null whenever the result would
// need a non-exact binding (the caller then degrades that bound to unbounded,
// which is sound). Reads of arrays marked stale (already written by the
// caller's current loop body) degrade the same way.
class SummaryApplier {
 public:
  // Binds sym(id) (formal int param or exposed global) to the caller value.
  void bind(sym::SymbolId id, sym::Range value);
  // Maps a formal array parameter onto the actual array at the call site.
  void bind_array(const ast::VarDecl* formal, const ast::VarDecl* actual);
  // Marks an array (post-remap symbol) whose elements are stale in summary
  // expressions because the caller's body already wrote it.
  void mark_stale(sym::SymbolId array);

  // Exact instantiation; null if any required binding is missing, non-exact,
  // or reads a stale array element.
  sym::ExprPtr apply(const sym::ExprPtr& e) const;
  // Per-bound instantiation: a failed bound becomes unbounded (null).
  sym::Range apply(const sym::Range& r) const;

  const ast::VarDecl* remap_array(const ast::VarDecl* array) const;
  sym::SymbolId remap_array_symbol(sym::SymbolId array) const;

 private:
  std::map<sym::SymbolId, sym::Range> bindings_;
  std::map<const ast::VarDecl*, const ast::VarDecl*> array_map_;
  std::map<sym::SymbolId, sym::SymbolId> array_symbol_map_;
  std::set<sym::SymbolId> stale_arrays_;
};

}  // namespace sspar::ipa
