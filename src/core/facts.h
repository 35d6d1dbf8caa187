// Array-property facts (paper Sections 2 and 3.2).
//
// The analyzer derives facts about index arrays from the code that fills
// them; the dependence test consumes the facts through an AssumptionContext.
// Fact kinds mirror the paper's property catalogue:
//
//  * ValueFact      — all elements in [lo:hi] have a value in `value`
//                     (the paper's "y : [sl:su], [vl:vu]" form).
//  * StepFact       — for every idx in [lo:hi], a[idx] - a[idx-1] ∈ step.
//                     step >= 0 is Monotonic_inc, step >= 1 is strictly
//                     increasing (hence injective); dually for decreasing.
//                     Carrying the whole step *range* (not just a direction)
//                     lets the Range Test scale differences with distance and
//                     prove the monotonic-difference pattern of Fig. 4.
//  * InjectiveFact  — elements in [lo:hi] are pairwise distinct; if
//                     `min_value` is set, only elements with value >=
//                     min_value participate (Fig. 5's injective subset, where
//                     negative entries are sentinels).
//  * IdentityFact   — a[idx] == idx on [lo:hi] (adds Value/Step/Injective).
//
// Sections are inclusive symbolic index ranges.
#pragma once

#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "symbolic/context.h"
#include "symbolic/range.h"

namespace sspar::core {

struct ValueFact {
  sym::ExprPtr lo = nullptr, hi = nullptr;
  sym::Range value;
};

struct StepFact {
  sym::ExprPtr lo = nullptr, hi = nullptr;  // link indices: constrains pairs (idx-1, idx)
  sym::Range step;
};

struct InjectiveFact {
  sym::ExprPtr lo = nullptr, hi = nullptr;
  std::optional<int64_t> min_value;  // subset injectivity threshold
  // Derived by the chain-injectivity rule (a provably nonzero symbolic
  // stride); proofs discharged through such a fact report the
  // "affine-injective" enabling property instead of plain "injective".
  bool from_chain = false;
};

struct IdentityFact {
  sym::ExprPtr lo = nullptr, hi = nullptr;
};

struct ArrayFacts {
  std::vector<ValueFact> values;
  std::vector<StepFact> steps;
  std::vector<InjectiveFact> injectives;
  std::vector<IdentityFact> identities;

  bool empty() const {
    return values.empty() && steps.empty() && injectives.empty() && identities.empty();
  }
};

// Flow-sensitive fact database for one program point.
//
// Copy-on-write: copying a FactDB shares the per-array fact sets and only
// clones an array's set when a mutation actually lands on it. The analyzer
// snapshots the whole database at every loop entry (LoopSnapshot), which made
// database copies the superlinear term of large-program analysis; under COW a
// snapshot is a map of pointers. Not thread-safe (one FactDB per session).
class FactDB {
 public:
  void add_value(sym::SymbolId array, ValueFact fact);
  void add_step(sym::SymbolId array, StepFact fact);
  void add_injective(sym::SymbolId array, InjectiveFact fact);
  // Adds the identity fact plus its derived Value/Step/Injective facts.
  void add_identity(sym::SymbolId array, IdentityFact fact);

  const ArrayFacts* find(sym::SymbolId array) const;

  // Installs an already-derived fact set for `array` verbatim, replacing any
  // existing facts. Used by the entry-fact projection and by cross-program
  // cache rehydration, which transfer complete fact vectors: replaying them
  // through add_identity would re-derive (and duplicate) the implied
  // Value/Step/Injective facts.
  void restore(sym::SymbolId array, ArrayFacts facts);

  // Invalidates facts of `array` that may overlap the written index section
  // [lo:hi] (null bounds = unbounded). Facts provably disjoint from the write
  // survive. `ctx` supplies symbol bounds for the disjointness proofs.
  void kill_overlapping(sym::SymbolId array, const sym::ExprPtr& lo, const sym::ExprPtr& hi,
                        const sym::AssumptionContext& ctx);
  // Drops every fact about `array`.
  void kill_all(sym::SymbolId array);

  // --- Queries (all proofs use `ctx` for symbol bounds only) ---------------

  // Range of a[hi_idx] - a[lo_idx] from step facts; handles negative and zero
  // constant distances. Nullopt if no covering fact.
  std::optional<sym::Range> elem_diff(sym::SymbolId array, const sym::ExprPtr& hi_idx,
                                      const sym::ExprPtr& lo_idx,
                                      const sym::AssumptionContext& ctx) const;

  // Value range of a[idx] from value facts covering idx.
  std::optional<sym::Range> elem_value(sym::SymbolId array, const sym::ExprPtr& idx,
                                       const sym::AssumptionContext& ctx) const;

  // True if an injectivity fact (possibly subset-restricted) covers [lo:hi].
  // When the covering fact is subset-restricted, `min_value_out` receives the
  // threshold; `from_chain_out` (if given) reports whether the discharging
  // fact came from the chain-injectivity rule.
  bool injective_over(sym::SymbolId array, const sym::ExprPtr& lo, const sym::ExprPtr& hi,
                      const sym::AssumptionContext& ctx,
                      std::optional<int64_t>* min_value_out = nullptr,
                      bool* from_chain_out = nullptr) const;

  bool identity_over(sym::SymbolId array, const sym::ExprPtr& lo, const sym::ExprPtr& hi,
                     const sym::AssumptionContext& ctx) const;

  // Extends `base` (symbol bounds) with elem_diff / elem_value callbacks
  // backed by this database. The returned context references *this; it must
  // not outlive the FactDB.
  sym::AssumptionContext with_facts(const sym::AssumptionContext& base) const;

  std::string to_string(const sym::SymbolTable& syms) const;

  using FactsPtr = std::shared_ptr<const ArrayFacts>;
  const std::map<sym::SymbolId, FactsPtr>& all() const { return facts_; }

 private:
  // Clone-on-write access for mutations; creates the entry if absent.
  ArrayFacts& mutate(sym::SymbolId array);

  std::map<sym::SymbolId, FactsPtr> facts_;
};

}  // namespace sspar::core
