#include "core/facts.h"

#include <algorithm>

#include "support/text.h"

namespace sspar::core {

using sym::AssumptionContext;
using sym::ExprPtr;
using sym::Range;
using sym::Truth;

namespace {

// fact section [flo:fhi] covers query section [qlo:qhi]?
bool covers(const ExprPtr& flo, const ExprPtr& fhi, const ExprPtr& qlo, const ExprPtr& qhi,
            const AssumptionContext& ctx) {
  if (!flo || !fhi || !qlo || !qhi) return false;
  return prove_le(flo, qlo, ctx) == Truth::True && prove_le(qhi, fhi, ctx) == Truth::True;
}

// Sections [alo:ahi] and [blo:bhi] provably disjoint?
bool provably_disjoint(const ExprPtr& alo, const ExprPtr& ahi, const ExprPtr& blo,
                       const ExprPtr& bhi, const AssumptionContext& ctx) {
  if (ahi && blo && prove_lt(ahi, blo, ctx) == Truth::True) return true;
  if (bhi && alo && prove_lt(bhi, alo, ctx) == Truth::True) return true;
  return false;
}

}  // namespace

ArrayFacts& FactDB::mutate(sym::SymbolId array) {
  FactsPtr& slot = facts_[array];
  if (!slot) {
    slot = std::make_shared<ArrayFacts>();
  } else if (slot.use_count() > 1) {
    slot = std::make_shared<ArrayFacts>(*slot);
  }
  // The set is uniquely owned here, so dropping const is safe.
  return const_cast<ArrayFacts&>(*slot);
}

void FactDB::add_value(sym::SymbolId array, ValueFact fact) {
  if (!fact.lo || !fact.hi || fact.value.is_bottom()) return;
  // Exact duplicates arise when a callee's exit facts re-state entry facts
  // the caller still holds; admitting them would bloat the database and
  // perturb entry-fact fingerprints. Checked before mutate(): a duplicate
  // must not trigger a copy-on-write clone.
  if (const ArrayFacts* existing = find(array)) {
    for (const ValueFact& f : existing->values) {
      if (sym::equal(f.lo, fact.lo) && sym::equal(f.hi, fact.hi) && f.value == fact.value) {
        return;
      }
    }
  }
  mutate(array).values.push_back(std::move(fact));
}

void FactDB::add_step(sym::SymbolId array, StepFact fact) {
  if (!fact.lo || !fact.hi || fact.step.is_bottom()) return;
  if (const ArrayFacts* existing = find(array)) {
    for (const StepFact& f : existing->steps) {
      if (sym::equal(f.lo, fact.lo) && sym::equal(f.hi, fact.hi) && f.step == fact.step) {
        return;
      }
    }
  }
  mutate(array).steps.push_back(std::move(fact));
}

void FactDB::add_injective(sym::SymbolId array, InjectiveFact fact) {
  if (!fact.lo || !fact.hi) return;
  // Dedup ignores from_chain: the first-added fact wins, deterministically.
  if (const ArrayFacts* existing = find(array)) {
    for (const InjectiveFact& f : existing->injectives) {
      if (sym::equal(f.lo, fact.lo) && sym::equal(f.hi, fact.hi) &&
          f.min_value == fact.min_value) {
        return;
      }
    }
  }
  mutate(array).injectives.push_back(std::move(fact));
}

void FactDB::add_identity(sym::SymbolId array, IdentityFact fact) {
  if (!fact.lo || !fact.hi) return;
  if (const ArrayFacts* existing = find(array)) {
    for (const IdentityFact& f : existing->identities) {
      if (sym::equal(f.lo, fact.lo) && sym::equal(f.hi, fact.hi)) return;
    }
  }
  // Identity implies value == index, unit step, and injectivity.
  add_value(array, ValueFact{fact.lo, fact.hi, Range::of(fact.lo, fact.hi)});
  add_step(array, StepFact{sym::add(fact.lo, sym::make_const(1)), fact.hi,
                           Range::of_consts(1, 1)});
  add_injective(array, InjectiveFact{fact.lo, fact.hi, std::nullopt});
  mutate(array).identities.push_back(std::move(fact));
}

void FactDB::restore(sym::SymbolId array, ArrayFacts facts) {
  if (facts.empty()) {
    facts_.erase(array);
    return;
  }
  facts_[array] = std::make_shared<ArrayFacts>(std::move(facts));
}

const ArrayFacts* FactDB::find(sym::SymbolId array) const {
  auto it = facts_.find(array);
  return it == facts_.end() ? nullptr : it->second.get();
}

void FactDB::kill_overlapping(sym::SymbolId array, const ExprPtr& lo, const ExprPtr& hi,
                              const AssumptionContext& ctx) {
  auto it = facts_.find(array);
  if (it == facts_.end()) return;
  const ArrayFacts& facts = *it->second;
  auto survives = [&](const ExprPtr& flo, const ExprPtr& fhi) {
    return provably_disjoint(flo, fhi, lo, hi, ctx);
  };
  auto step_survives = [&](const StepFact& f) {
    // A step fact about links [lo:hi] reads elements [lo-1:hi].
    return survives(sym::sub(f.lo, sym::make_const(1)), f.hi);
  };
  bool any_killed =
      std::any_of(facts.values.begin(), facts.values.end(),
                  [&](const ValueFact& f) { return !survives(f.lo, f.hi); }) ||
      std::any_of(facts.steps.begin(), facts.steps.end(),
                  [&](const StepFact& f) { return !step_survives(f); }) ||
      std::any_of(facts.injectives.begin(), facts.injectives.end(),
                  [&](const InjectiveFact& f) { return !survives(f.lo, f.hi); }) ||
      std::any_of(facts.identities.begin(), facts.identities.end(),
                  [&](const IdentityFact& f) { return !survives(f.lo, f.hi); });
  if (!any_killed) return;  // no clone when every fact survives
  ArrayFacts& own = mutate(array);
  std::erase_if(own.values, [&](const ValueFact& f) { return !survives(f.lo, f.hi); });
  std::erase_if(own.steps, [&](const StepFact& f) { return !step_survives(f); });
  std::erase_if(own.injectives, [&](const InjectiveFact& f) { return !survives(f.lo, f.hi); });
  std::erase_if(own.identities, [&](const IdentityFact& f) { return !survives(f.lo, f.hi); });
}

void FactDB::kill_all(sym::SymbolId array) { facts_.erase(array); }

std::optional<Range> FactDB::elem_diff(sym::SymbolId array, const ExprPtr& hi_idx,
                                       const ExprPtr& lo_idx,
                                       const AssumptionContext& ctx) const {
  auto d = sym::const_value(sym::sub(hi_idx, lo_idx));
  if (!d) return std::nullopt;
  if (*d == 0) return Range::of_consts(0, 0);
  if (*d < 0) {
    auto r = elem_diff(array, lo_idx, hi_idx, ctx);
    if (!r) return std::nullopt;
    return sym::range_negate(*r);
  }
  const ArrayFacts* facts = find(array);
  if (!facts) return std::nullopt;
  // a[hi] - a[lo] = Σ_{idx=lo+1}^{hi} (a[idx] - a[idx-1]); a covering step
  // fact bounds every term, so the sum lies in d * step.
  ExprPtr link_lo = sym::add(lo_idx, sym::make_const(1));
  for (const StepFact& f : facts->steps) {
    if (covers(f.lo, f.hi, link_lo, hi_idx, ctx)) {
      return sym::range_mul_const(f.step, *d);
    }
  }
  return std::nullopt;
}

std::optional<Range> FactDB::elem_value(sym::SymbolId array, const ExprPtr& idx,
                                        const AssumptionContext& ctx) const {
  const ArrayFacts* facts = find(array);
  if (!facts) return std::nullopt;
  for (const IdentityFact& f : facts->identities) {
    if (covers(f.lo, f.hi, idx, idx, ctx)) return Range::exact(idx);
  }
  for (const ValueFact& f : facts->values) {
    if (covers(f.lo, f.hi, idx, idx, ctx)) return f.value;
  }
  // Anchored derivation: a point value fact a[p] plus a step fact covering the
  // links (p, idx] bounds a[idx] by a[p] + (idx - p) * step (e.g. the prefix
  // sum r[0] = 0 with step in [0 : 2] gives r[b] ∈ [0 : 2b]).
  for (const ValueFact& anchor : facts->values) {
    if (!sym::equal(anchor.lo, anchor.hi)) continue;
    const ExprPtr& p = anchor.lo;
    if (prove_ge(idx, p, ctx) != Truth::True) continue;
    ExprPtr link_lo = sym::add(p, sym::make_const(1));
    for (const StepFact& f : facts->steps) {
      if (!covers(f.lo, f.hi, link_lo, idx, ctx)) continue;
      ExprPtr dist = sym::sub(idx, p);
      Range walk = sym::range_mul_nonneg(f.step, dist);
      // Only meaningful when the step has a definite sign; otherwise the
      // product bound above is not valid for a symbolic distance.
      bool nonneg = sym::prove_nonneg(f.step, ctx) == Truth::True;
      bool nonpos = f.step.hi() &&
                    prove_ge(sym::make_const(0), f.step.hi(), ctx) == Truth::True;
      if (nonneg) {
        // Values rise from the anchor: lo = anchor.lo, hi = anchor.hi + d*step.hi.
        ExprPtr hi = (anchor.value.hi() && walk.hi()) ? sym::add(anchor.value.hi(), walk.hi())
                                                      : nullptr;
        return Range::of(anchor.value.lo(), hi);
      }
      if (nonpos) {
        ExprPtr lo = (anchor.value.lo() && walk.lo()) ? sym::add(anchor.value.lo(), walk.lo())
                                                      : nullptr;
        return Range::of(lo, anchor.value.hi());
      }
    }
  }
  return std::nullopt;
}

bool FactDB::injective_over(sym::SymbolId array, const ExprPtr& lo, const ExprPtr& hi,
                            const AssumptionContext& ctx,
                            std::optional<int64_t>* min_value_out,
                            bool* from_chain_out) const {
  const ArrayFacts* facts = find(array);
  if (!facts) return false;
  for (const InjectiveFact& f : facts->injectives) {
    if (covers(f.lo, f.hi, lo, hi, ctx)) {
      if (min_value_out) *min_value_out = f.min_value;
      if (from_chain_out) *from_chain_out = f.from_chain;
      return true;
    }
  }
  // Strict monotonicity over the whole section implies injectivity.
  for (const StepFact& f : facts->steps) {
    if (!covers(f.lo, f.hi, sym::add(lo, sym::make_const(1)), hi, ctx)) continue;
    bool strict_inc = sym::prove_pos(f.step, ctx) == Truth::True;
    bool strict_dec =
        f.step.hi() && sym::prove_le(f.step.hi(), sym::make_const(-1), ctx) == Truth::True;
    if (strict_inc || strict_dec) {
      if (min_value_out) *min_value_out = std::nullopt;
      if (from_chain_out) *from_chain_out = false;
      return true;
    }
  }
  return false;
}

bool FactDB::identity_over(sym::SymbolId array, const ExprPtr& lo, const ExprPtr& hi,
                           const AssumptionContext& ctx) const {
  const ArrayFacts* facts = find(array);
  if (!facts) return false;
  for (const IdentityFact& f : facts->identities) {
    if (covers(f.lo, f.hi, lo, hi, ctx)) return true;
  }
  return false;
}

AssumptionContext FactDB::with_facts(const AssumptionContext& base) const {
  AssumptionContext ctx = base;
  // Coverage proofs inside the callbacks use `base` (symbol bounds only), so
  // the callbacks cannot recurse into themselves.
  ctx.set_elem_diff([this, &base](sym::SymbolId array, const ExprPtr& hi_idx,
                                  const ExprPtr& lo_idx) { return elem_diff(array, hi_idx, lo_idx, base); });
  ctx.set_elem_value([this, &base](sym::SymbolId array, const ExprPtr& idx) {
    return elem_value(array, idx, base);
  });
  return ctx;
}

std::string FactDB::to_string(const sym::SymbolTable& syms) const {
  std::string out;
  auto section = [&syms](const ExprPtr& lo, const ExprPtr& hi) {
    std::string s = "[";
    s += sym::to_string(lo, syms);
    s += " : ";
    s += sym::to_string(hi, syms);
    s += "]";
    return s;
  };
  for (const auto& [array, facts_ptr] : facts_) {
    const ArrayFacts& facts = *facts_ptr;
    const std::string& name = syms.name(array);
    for (const auto& f : facts.identities) {
      out += name + ": " + section(f.lo, f.hi) + ", Identity\n";
    }
    for (const auto& f : facts.values) {
      out += name + ": " + section(f.lo, f.hi) + ", value " + f.value.to_string(syms) + "\n";
    }
    for (const auto& f : facts.steps) {
      out += name + ": links " + section(f.lo, f.hi) + ", step " + f.step.to_string(syms) + "\n";
    }
    for (const auto& f : facts.injectives) {
      out += name + ": " + section(f.lo, f.hi) + ", Injective";
      if (f.min_value) out += support::format(" (values >= %lld)", (long long)*f.min_value);
      out += "\n";
    }
  }
  return out;
}

}  // namespace sspar::core
