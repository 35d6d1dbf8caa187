// The paper's compile-time index-array analysis (Section 3).
//
// The Analyzer walks each function in program order. For every canonical
// loop it runs:
//
//   Phase 1 (BodyInterp): abstract interpretation of one iteration of the
//   loop body with symbolic range propagation. Scalars written in the body
//   start at λ(x) (IterStart); the loop index is the symbol i; reads of
//   loop-invariant scalars use their entry values. The phase produces
//   (a) the end-of-body value range of every written scalar as a function of
//   λ and i, and (b) the list of array-write effects with symbolic subscripts.
//
//   Phase 2 (aggregate): extends the one-iteration effect across the whole
//   iteration space [lb : ub-1] with trip count n:
//     * scalar λ+k effects become entry + n*k (ranges component-wise),
//     * scalar λ+g(i) effects use the closed-form sum Σ g(i),
//     * array writes a[i+k] = v expand the subscript across the loop range
//       and produce Value/Step/Injective/Identity facts; in particular the
//       recurrence a[i] = a[i-1] + (value with provably non-negative range)
//       yields the Monotonic_inc step fact that drives the CG pattern,
//     * everything else degrades soundly (facts killed, values unbounded).
//
// After Phase 2 the loop is *collapsed*: the caller's scalar environment and
// fact database are updated with the loop's aggregate effect and analysis
// proceeds with the next statement (the paper's program-order, inside-out
// traversal falls out of the recursion).
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <utility>
#include <memory>
#include <optional>
#include <set>
#include <unordered_map>
#include <vector>

#include "core/facts.h"
#include "core/loop_info.h"
#include "frontend/ast.h"
#include "symbolic/context.h"

namespace sspar::support {
class DiagnosticEngine;
}
namespace sspar::ipa {
class CallGraph;
class ContentHasher;
class SummaryDB;
struct FunctionSummary;
}

namespace sspar::core {

// May-range values of integer scalars at a program point.
struct ScalarEnv {
  std::map<const ast::VarDecl*, sym::Range> values;

  const sym::Range* find(const ast::VarDecl* decl) const {
    auto it = values.find(decl);
    return it == values.end() ? nullptr : &it->second;
  }
  void set(const ast::VarDecl* decl, sym::Range r) { values[decl] = std::move(r); }
};

// A guard `array[index] >= min` enclosing an access (paper Fig. 5: the
// access pattern references only the injective subset).
struct AccessGuard {
  const ast::VarDecl* array = nullptr;
  sym::ExprPtr index = nullptr;
  int64_t min = 0;
};

// One array access as observed by Phase 1 (per-iteration view) or aggregated
// by Phase 2 (whole-loop view; subscripts then no longer mention the index).
struct ArrayWriteEffect {
  const ast::VarDecl* array = nullptr;
  size_t dims = 1;              // number of subscripts at the access site
  sym::ExprPtr index = nullptr;  // exact symbolic subscript (innermost), may be null
  sym::Range index_range;       // may-range of the subscript (for kills)
  sym::Range value;             // may-range of the stored value (writes only)
  bool conditional = false;     // access may not execute every iteration
  bool from_inner = false;      // aggregated from a nested loop
  std::vector<AccessGuard> guards;  // enclosing array-value guards
  // Indirection structure a[b[t]] preserved through aggregation: the access
  // touches positions {b[t] : t ∈ via_domain}. When b is injective, position
  // disjointness reduces to domain disjointness (Fig. 6: Blk[p[k]] with
  // k ∈ [r[b] : r[b+1]-1]).
  const ast::VarDecl* via_array = nullptr;
  sym::Range via_domain;
  // Subscript was literally `x++` on an integer scalar (dense-prefix pattern,
  // paper Fig. 9 line 6; aggregation rule is an extension of Section 3.4).
  const ast::VarDecl* post_inc_subscript = nullptr;
  // Non-null when this effect was instantiated from a callee's function
  // summary at a call site (provenance for verdicts and fact tracking).
  const ast::FuncDecl* summary_origin = nullptr;
};

// Aggregate effect of one loop, expressed in terms of values at loop entry.
struct LoopEffect {
  // Final value of every scalar the loop may modify (loop index included when
  // it outlives the loop).
  std::map<const ast::VarDecl*, sym::Range> scalar_finals;
  // All array writes/reads, aggregated across the iteration space.
  std::vector<ArrayWriteEffect> writes;
  std::vector<ArrayWriteEffect> reads;
  // Facts established by this loop (applied by the caller after kills).
  struct ProducedFact {
    sym::SymbolId array;
    std::optional<ValueFact> value;
    std::optional<StepFact> step;
    std::optional<InjectiveFact> injective;
    std::optional<IdentityFact> identity;
  };
  std::vector<ProducedFact> facts;
  bool analyzable = true;  // false => caller must havoc conservatively
};

// Result snapshots keyed by For::loop_id, for consumption by the
// parallelizer / dependence test.
struct LoopSnapshot {
  const ast::For* loop = nullptr;
  std::optional<LoopInfo> info;
  FactDB facts_at_entry;
  ScalarEnv scalars_at_entry;
  // For each array with facts at loop entry that were produced by applying a
  // callee's summary: the (sorted) names of the summarized functions. Feeds
  // LoopVerdict::summaries_used ("property proven via summary of f").
  std::map<sym::SymbolId, std::vector<std::string>> fact_provenance;
};

// Per-function identity hashes ((hi, lo) halves of ipa::CacheKey) that a
// caller keeps across analyzers of successive versions of one program.
using IdentityHashes =
    std::unordered_map<const ast::FuncDecl*, std::pair<uint64_t, uint64_t>>;

struct AnalyzerOptions {
  // Extension rules (paper Section 3.4 "forthcoming aggregation algebra");
  // individually toggleable for the ablation bench.
  bool enable_identity_rule = true;       // x[i] = i  =>  Identity
  bool enable_affine_value_rule = true;   // x[i] = p*i+q => strict monotone
  bool enable_recurrence_rule = true;     // x[i] = x[i-1] + nonneg => Monotonic
  bool enable_inverse_perm_rule = true;   // a[b[i]] = i, b bijective => injective
  bool enable_dense_prefix_rule = true;   // a[x++] = v gather loops
  bool enable_branch_rules = true;        // subset-injective / disjoint strided
  bool enable_copy_rule = true;           // a[i] = b[i] propagates facts
  bool enable_lambda_sum_rule = true;     // λ+g(i) closed-form aggregation
  bool enable_chain_injectivity_rule = true;  // x[i] = m*i+q, m != 0 => injective

  // Equality lets pipeline::Session reuse a cached analysis when asked to
  // re-analyze under options it has already run.
  bool operator==(const AnalyzerOptions&) const = default;
};

class Analyzer {
 public:
  // `summaries` (optional) enables interprocedural analysis: before the
  // per-function walk, every called function is summarized bottom-up over the
  // call graph and cached there, and call sites apply the summaries instead
  // of rejecting the enclosing body. Without it the analysis is strictly
  // intraprocedural (calls degrade conservatively, as in the paper).
  // `diags` (optional) receives W03xx warnings when a loop is abandoned as
  // unanalyzable (see support::DiagCode).
  Analyzer(const ast::Program& program, sym::SymbolTable& symbols,
           AnalyzerOptions options = {}, ipa::SummaryDB* summaries = nullptr,
           support::DiagnosticEngine* diags = nullptr);

  // Declares an assumption about a global/parameter symbol (e.g. N >= 1).
  void assume(const ast::VarDecl* decl, sym::Range range);
  void assume_ge(const ast::VarDecl* decl, int64_t lo);

  // Analyzes every function in the program.
  void run();
  // Restricted run for incremental re-analysis: only functions in `only` get
  // per-loop snapshots, and summaries are materialized only for their callee
  // closure (everything a restricted analysis can request). nullptr = "all".
  // `graph`, when given, is the program's call graph the caller already
  // built; otherwise run() builds its own.
  void run(const std::set<const ast::FuncDecl*>* only,
           const ipa::CallGraph* graph = nullptr);

  // Computes the cross-program content key of every function (bottom-up, so
  // callee keys exist before their callers fold them in). Idempotent; call
  // after assumptions are declared — keys mix assumption bounds.
  // `identities`, when given, carries identity hashes (see
  // mix_function_identity) across calls: a function found there is keyed
  // without printing its body again, and every other function's hash is
  // added. Only a caller that knows a function's body and the program's
  // globals are unchanged may pass a hash in.
  void key_all_functions(const ipa::CallGraph& graph, IdentityHashes* identities = nullptr);
  // The (hi, lo) content key of `function`, or null if not yet keyed.
  const std::pair<uint64_t, uint64_t>* content_key(const ast::FuncDecl* function) const;

  // Snapshot of the analysis state at the entry of `loop` (after run()).
  const LoopSnapshot* snapshot(const ast::For* loop) const;

  // Facts at the end of `function` (after run()).
  const FactDB* facts_at_end(const ast::FuncDecl* function) const;

  const sym::AssumptionContext& base_context() const { return base_ctx_; }
  sym::SymbolTable& symbols() const { return symbols_; }
  const AnalyzerOptions& options() const { return options_; }

  // True for declarations from the program's global scope.
  bool is_global(const ast::VarDecl* decl) const { return global_decls_.count(decl) > 0; }

 private:
  friend class BodyInterp;

  void analyze_function(const ast::FuncDecl& function);
  // Interprets a statement sequence at "top level" (not inside a loop being
  // summarized), updating env/facts in flow order and snapshotting loops.
  void flow_stmt(const ast::Stmt& stmt, ScalarEnv& env, FactDB& facts);

  // --- Interprocedural analysis (active when summaries_ is set) -------------
  // Summarizes every called function bottom-up over the call graph; with
  // `roots`, only their callee closure.
  void compute_summaries(const ipa::CallGraph& graph);
  void compute_summaries(const ipa::CallGraph& graph,
                         const std::set<const ast::FuncDecl*>* roots);
  // True when the shared cross-program cache holds a rehydratable base
  // summary for `function` (probed at its fingerprint-0 cache address).
  bool shared_summary_available(const ast::FuncDecl* function) const;
  ipa::FunctionSummary summarize_function(const ast::FuncDecl& function,
                                          const ipa::CallGraph& graph);
  // The effect-computation half of summarization: flows the body in
  // function-entry terms, seeded with `entry_facts` when given (context-
  // sensitive re-summaries) or an empty database (base summaries).
  void summarize_effects(const ast::FuncDecl& function, ipa::FunctionSummary& summary,
                         const FactDB* entry_facts);
  // Context-sensitive re-summary: re-runs the effect computation of an
  // analyzable base summary under the given entry facts (the gates and
  // conservative may-write sets carry over unchanged).
  ipa::FunctionSummary resummarize_with_context(const ipa::FunctionSummary& base,
                                                const FactDB& entry_facts);
  // Cache-through summary acquisition: session SummaryDB first, then the
  // attached cross-program cache (rehydrating on a content hit), computing
  // and publishing on miss. `graph` is required for base summaries
  // (fingerprint 0); `entry_facts` for context-sensitive ones.
  const ipa::FunctionSummary* obtain_summary(const ast::FuncDecl* function,
                                             const FactDB* entry_facts,
                                             uint64_t fingerprint,
                                             const ipa::CallGraph* graph);
  // Call-site summary selection: when the caller's fact database holds
  // entry-visible facts about arrays the callee reads, returns (computing if
  // needed) the summary specialized to the projection of those facts;
  // otherwise the base summary. `stale_arrays` excludes arrays already
  // written earlier in the interpreted body (their caller facts no longer
  // describe the state the callee observes); `scalar_unchanged` must return
  // true only for global scalars whose call-site value provably still equals
  // their caller-entry symbol (facts are expressed in caller-entry terms,
  // but the callee reinterprets the same symbols as call-time values — a
  // scalar modified in between would silently rescale every fact section).
  const ipa::FunctionSummary* context_summary(
      const ast::Call& call, const FactDB& caller_facts,
      const std::set<sym::SymbolId>& stale_arrays,
      const std::function<bool(sym::SymbolId)>& scalar_unchanged);
  // The caller-fact projection context_summary keys its cache on: facts
  // about global arrays the callee reads, restricted to expressions whose
  // meaning is frame-independent — global scalars unchanged since caller
  // entry, no array-element atoms (contents may have changed since the fact
  // was recorded), no λ/Λ/⊥, nothing caller-local.
  FactDB project_entry_facts(
      const ipa::FunctionSummary& base, const FactDB& caller_facts,
      const std::set<sym::SymbolId>& stale_arrays,
      const std::function<bool(sym::SymbolId)>& scalar_unchanged) const;
  // True if `e` keeps its meaning across the call boundary (see above).
  bool entry_visible(const sym::ExprPtr& e,
                     const std::function<bool(sym::SymbolId)>& scalar_unchanged) const;
  // The global declaration behind a symbol (null for non-globals).
  const ast::VarDecl* global_by_symbol(sym::SymbolId id) const {
    auto it = global_by_symbol_.find(id);
    return it == global_by_symbol_.end() ? nullptr : it->second;
  }
  // Content address for the cross-program cache: printed function source,
  // referenced-global declarations + assumptions, callee keys (transitive
  // closure). Stored in content_keys_; requires callees to be keyed first
  // (bottom-up order). Members of a recursive SCC are keyed as a group via
  // compute_scc_content_keys.
  void compute_content_key(const ast::FuncDecl& function, const ipa::CallGraph& graph,
                           IdentityHashes* identities = nullptr);
  // Combined content key for a whole recursive SCC: every member's printed
  // source, referenced globals, external callee keys AND source location
  // (recursive summaries carry a failure location; folding locations into
  // the key keeps cross-program reuse of those locations sound). Each member
  // is then addressed as H(combined, member name).
  void compute_scc_content_keys(const ast::FuncDecl& member, const ipa::CallGraph& graph,
                                IdentityHashes* identities);
  // Mixes one function's identity hash (signature, printed body, referenced
  // globals + assumptions) into `h` — shared by both key paths. Taken from
  // `identities` when present there, else computed (and recorded there).
  void mix_function_identity(const ast::FuncDecl& function, ipa::ContentHasher& h,
                             IdentityHashes* identities) const;
  // The cached summary for a call site's callee (null without a DB, for
  // unknown callees, or before compute_summaries ran).
  const ipa::FunctionSummary* call_summary(const ast::Call& call) const;
  // Conservative degradation of a statement that could not be analyzed:
  // havocs its syntactic writes plus everything its calls may write (an
  // opaque call havocs every global).
  void havoc_stmt(const ast::Stmt& stmt, ScalarEnv& env, FactDB& facts);
  // Merges a successful straight-line interpretation into env/facts (scalar
  // finals, fact kills, point facts, call-produced facts).
  void apply_straight_line(class BodyInterp& interp, ScalarEnv& env, FactDB& facts,
                           bool track_provenance);
  // W03xx: records why `loop` degraded to unanalyzable (once per loop).
  void warn_unanalyzable(const ast::For& loop, const class BodyInterp& body);

  // Phase 1 + Phase 2 for one loop. Returns the collapsed effect relative to
  // `entry_env`; `entry_facts` supplies array facts for in-loop proofs.
  LoopEffect analyze_loop(const ast::For& loop, const ScalarEnv& entry_env,
                          const FactDB& entry_facts);

  // Applies a loop effect (or a havoc if !analyzable) at a flow point.
  void apply_effect(const ast::For& loop, const LoopEffect& effect, ScalarEnv& env,
                    FactDB& facts);

  // Phase 2 helpers (implemented in aggregate.cpp).
  LoopEffect aggregate(const ast::For& loop, const LoopInfo& info, const ScalarEnv& entry_env,
                       const FactDB& entry_facts, class BodyInterp& body);

  const ast::Program& program_;
  sym::SymbolTable& symbols_;
  AnalyzerOptions options_;
  ipa::SummaryDB* summaries_ = nullptr;
  support::DiagnosticEngine* diags_ = nullptr;
  sym::AssumptionContext base_ctx_;
  std::map<int, LoopSnapshot> snapshots_;  // keyed by loop_id per function
  std::map<const ast::For*, int> loop_keys_;
  std::map<const ast::FuncDecl*, FactDB> end_facts_;
  int next_key_ = 0;
  // Summary computation re-flows callee bodies; it must not pollute the
  // per-loop snapshots the parallelizer consumes.
  bool summary_mode_ = false;
  // One-time scan: call-free programs (the common case) skip every
  // interprocedural code path, including the per-body call prescans.
  bool program_has_calls_ = false;
  // One W03xx per (loop, callee): two different abandoned calls in one loop
  // each get their own W0301; non-call failures use an empty callee key.
  std::set<std::pair<const ast::For*, std::string>> warned_loops_;
  std::set<const ast::VarDecl*> global_decls_;
  std::map<sym::SymbolId, const ast::VarDecl*> global_by_symbol_;
  // Cross-program content addresses ((hi, lo) halves of ipa::CacheKey),
  // computed bottom-up when a shared cache is attached.
  std::map<const ast::FuncDecl*, std::pair<uint64_t, uint64_t>> content_keys_;
  // Functions keyed as members of a recursive SCC: their (unanalyzable)
  // summaries are still published to the shared cache, and their
  // materializations are counted in SummaryDB::Stats::scc_summaries.
  std::set<const ast::FuncDecl*> scc_functions_;
  // Flow state of the function being analyzed: which summaries produced the
  // facts currently held for each array (cleared when locally re-derived).
  std::map<sym::SymbolId, std::set<std::string>> fact_provenance_;
};

// Evaluates an AST expression to a symbolic may-range under `env`.
// Pure (no side effects); assignment/increment sub-expressions make the
// result bottom. Used by the parallelizer for loop bounds and subscripts.
sym::Range eval_pure(const ast::Expr& expr, const ScalarEnv& env,
                     const std::set<const ast::VarDecl*>* lambda_vars = nullptr);

}  // namespace sspar::core
