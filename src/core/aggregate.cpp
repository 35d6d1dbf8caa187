// Phase 2: aggregation of one-iteration effects across the iteration space
// (paper Section 3.4, including the "forthcoming algebra" extensions).
#include "core/body_interp.h"

namespace sspar::core {

using sym::ExprPtr;
using sym::Range;
using sym::Truth;

namespace {

// Does the expression mention any IterStart (λ) symbol other than `except`?
bool has_foreign_lambda(const ExprPtr& e, sym::SymbolId except) {
  return sym::any_of(e, [except](const sym::Expr& n) {
    return n.kind == sym::ExprKind::IterStart && n.symbol != except;
  });
}

bool has_any_lambda(const ExprPtr& e) {
  return sym::contains_kind(e, sym::ExprKind::IterStart);
}

// Closed-form Σ_{i=lb}^{ub-1} (p*i + q) = p * (lb + ub - 1) * n / 2 + q * n.
ExprPtr affine_sum(int64_t p, const ExprPtr& q, const ExprPtr& lb, const ExprPtr& ub,
                   const ExprPtr& n) {
  ExprPtr total = sym::mul(n, q);
  if (p != 0) {
    ExprPtr twice_mean = sym::add(lb, sym::sub(ub, sym::make_const(1)));
    ExprPtr sum_i = sym::div_floor(sym::mul(twice_mean, n), sym::make_const(2));
    total = sym::add(total, sym::mul_const(sum_i, p));
  }
  return total;
}

}  // namespace

LoopEffect Analyzer::aggregate(const ast::For& loop, const LoopInfo& info,
                               const ScalarEnv& entry_env, const FactDB& entry_facts,
                               BodyInterp& body) {
  LoopEffect effect;
  const sym::SymbolId index_sym = info.index->symbol;

  // --- Loop bounds and trip count ------------------------------------------
  Range lb_r = eval_pure(*info.lb_expr, entry_env);
  Range ub_r = eval_pure(*info.ub_expr, entry_env);
  if (!lb_r.is_exact() || !ub_r.is_exact()) {
    effect.analyzable = false;
    return effect;
  }
  ExprPtr lb = lb_r.exact_value();
  ExprPtr ub = ub_r.exact_value();
  if (info.ub_inclusive) ub = sym::add(ub, sym::make_const(1));

  ExprPtr n = sym::sub(ub, lb);
  const bool trip_nonneg = prove_ge(n, sym::make_const(0), base_ctx_) == Truth::True;
  const bool trip_pos = prove_ge(n, sym::make_const(1), base_ctx_) == Truth::True;
  ExprPtr n_use = trip_nonneg ? n : sym::smax(n, sym::make_const(0));

  // Context for in-loop proofs: base assumptions + the index range + entry
  // facts (masked for arrays this loop writes, whose facts may be stale).
  sym::AssumptionContext ctx_i = base_ctx_;
  ctx_i.assume(index_sym, Range::of(lb, sym::sub(ub, sym::make_const(1))));
  FactDB masked_facts = entry_facts;
  for (const auto& w : body.writes) {
    if (w.array) masked_facts.kill_all(w.array->symbol);
  }
  sym::AssumptionContext ctx_facts = masked_facts.with_facts(ctx_i);

  // --- Scalars ---------------------------------------------------------------
  auto entry_value = [&](const ast::VarDecl* decl) -> Range {
    if (const Range* e = entry_env.find(decl)) return *e;
    return Range::exact(sym::make_sym(decl->symbol));
  };

  // λ evolution bounds for monotonically evolving scalars: if x advances by a
  // non-negative delta every iteration, its start-of-iteration value λ(x)
  // lies in [entry.lo : entry.hi + (n-1)*delta_hi]. Used to bound subscripts
  // and values that still mention λ when widening over the loop.
  sym::RangeEnv loop_env;
  loop_env.entries.emplace_back(index_sym, Range::of(lb, sym::sub(ub, sym::make_const(1))));

  for (const ast::VarDecl* decl : body.written) {
    if (body.body_locals.count(decl)) continue;
    const Range* end = body.env.find(decl);
    Range f = end ? *end : Range::bottom();
    Range entry = entry_value(decl);
    Range final = Range::bottom();

    const sym::SymbolId lam = decl->symbol;
    auto foreign = [&](const ExprPtr& e) { return e && has_foreign_lambda(e, lam); };
    if (!f.is_bottom() && !foreign(f.lo()) && !foreign(f.hi())) {
      bool lo_has = f.lo() && sym::contains_kind(f.lo(), sym::ExprKind::IterStart);
      bool hi_has = f.hi() && sym::contains_kind(f.hi(), sym::ExprKind::IterStart);
      if (!lo_has && !hi_has) {
        // Case (b): the body overwrites the value; aggregate over the index.
        Range over =
            Range::of(f.lo() ? eval_range(f.lo(), loop_env).lo() : nullptr,
                      f.hi() ? eval_range(f.hi(), loop_env).hi() : nullptr);
        if (body.definitely_written.count(decl) && trip_pos) {
          final = over;
        } else {
          final = range_join(over, entry);
        }
      } else if (lo_has && hi_has) {
        // Case (a): λ-relative recurrence; per-iteration delta in
        // [f.lo - λ : f.hi - λ].
        ExprPtr delta_lo_expr = nullptr, delta_hi_expr = nullptr;  // deltas as functions of i
        auto aggregate_bound = [&](const ExprPtr& bound, bool lower) -> ExprPtr {
          sym::LinearForm lf = sym::to_linear(bound);
          int64_t lam_coeff = 0;
          for (const auto& [atom, c] : lf.terms) {
            if (atom->kind == sym::ExprKind::IterStart && atom->symbol == lam) lam_coeff = c;
          }
          if (lam_coeff != 1) return nullptr;
          ExprPtr delta = sym::sub(bound, sym::make_iter_start(lam));
          (lower ? delta_lo_expr : delta_hi_expr) = delta;
          auto split = sym::affine_in(delta, index_sym);
          auto p = sym::const_stride(split);
          if (!p) return nullptr;
          if (*p != 0 && (!options_.enable_lambda_sum_rule || !trip_nonneg)) return nullptr;
          ExprPtr total = *p == 0 ? sym::mul(n_use, split->rest)
                                  : affine_sum(*p, split->rest, lb, ub, n);
          ExprPtr base = lower ? entry.lo() : entry.hi();
          if (!base) return nullptr;
          return sym::add(base, total);
        };
        final = Range::of(aggregate_bound(f.lo(), true), aggregate_bound(f.hi(), false));
        if (!trip_nonneg) final = range_join(final, entry);

        // λ evolution bound for the widening environment.
        if (delta_lo_expr && delta_hi_expr && trip_nonneg) {
          Range dlo = eval_range(delta_lo_expr, loop_env);
          Range dhi = eval_range(delta_hi_expr, loop_env);
          if (!dlo.is_bottom() && !dhi.is_bottom()) {
            ExprPtr n_minus_1 = sym::sub(n, sym::make_const(1));
            if (dlo.lo() && prove_ge(dlo.lo(), sym::make_const(0), ctx_i) == Truth::True) {
              // Non-decreasing: λ ∈ [entry.lo : entry.hi + (n-1)*delta_hi].
              ExprPtr hi = (entry.hi() && dhi.hi()) ? sym::add(entry.hi(), sym::mul(n_minus_1, dhi.hi()))
                                                    : nullptr;
              loop_env.lambda_entries.emplace_back(lam, Range::of(entry.lo(), hi));
            } else if (dhi.hi() &&
                       prove_ge(sym::make_const(0), dhi.hi(), ctx_i) == Truth::True) {
              // Non-increasing: λ ∈ [entry.lo + (n-1)*delta_lo : entry.hi].
              ExprPtr lo = (entry.lo() && dlo.lo()) ? sym::add(entry.lo(), sym::mul(n_minus_1, dlo.lo()))
                                                    : nullptr;
              loop_env.lambda_entries.emplace_back(lam, Range::of(lo, entry.hi()));
            }
          }
        }
      }
      // Mixed λ / non-λ bounds: leave bottom.
    }
    effect.scalar_finals[decl] = final;
  }

  // The loop index itself survives the loop unless declared in the for-init.
  if (loop.init->kind != ast::StmtNodeKind::DeclStmt) {
    effect.scalar_finals[info.index] = Range::exact(sym::smax(lb, ub));
  }

  // Widens a per-iteration range to a whole-loop may-range using the loop
  // environment (index range + λ evolution bounds).
  auto widen = [&](const Range& r) -> Range {
    auto widen_bound = [&](const ExprPtr& bound, bool lower) -> ExprPtr {
      if (!bound) return nullptr;
      Range evaluated = eval_range(bound, loop_env);
      return lower ? evaluated.lo() : evaluated.hi();
    };
    return Range::of(widen_bound(r.lo(), true), widen_bound(r.hi(), false));
  };

  // --- Array accesses: aggregated ranges (kills + dependence info) -----------
  auto widen_access = [&](const ArrayWriteEffect& w) {
    ArrayWriteEffect agg = w;
    agg.index_range = widen(w.index_range);
    agg.value = widen(w.value);
    agg.index = nullptr;
    agg.conditional = agg.conditional || !trip_pos;
    if (w.via_array) agg.via_domain = widen(w.via_domain);
    return agg;
  };
  for (const auto& w : body.writes) effect.writes.push_back(widen_access(w));
  for (const auto& r : body.reads) effect.reads.push_back(widen_access(r));

  // --- Array writes: produced facts -----------------------------------------
  // Only direct (non-inner) 1-D writes with exact subscripts generate facts.
  auto push_fact = [&](LoopEffect::ProducedFact fact) { effect.facts.push_back(std::move(fact)); };

  std::map<const ast::VarDecl*, int> direct_writes;
  for (const auto& w : body.writes) {
    if (!w.from_inner && w.array) direct_writes[w.array]++;
  }

  for (const auto& w : body.writes) {
    if (w.from_inner || !w.array || w.dims != 1 || !w.index) continue;
    const sym::SymbolId array_sym = w.array->symbol;

    // Dense-prefix gather: a[x++] = v.
    if (w.post_inc_subscript) {
      if (!options_.enable_dense_prefix_rule) continue;
      const ast::VarDecl* x = w.post_inc_subscript;
      const Range* x_end = body.env.find(x);
      Range x_entry = entry_value(x);
      bool unit_step = x_end && x_end->is_exact() &&
                       sym::equal(x_end->exact_value(),
                                  sym::add(sym::make_iter_start(x->symbol), sym::make_const(1)));
      if (!unit_step || w.conditional || !trip_nonneg || !x_entry.is_exact() ||
          direct_writes[w.array] != 1) {
        continue;
      }
      ExprPtr sec_lo = x_entry.exact_value();
      ExprPtr sec_hi = sym::add(sec_lo, sym::sub(n, sym::make_const(1)));
      LoopEffect::ProducedFact fact;
      fact.array = array_sym;
      if (w.value.is_exact()) {
        if (auto p = sym::const_stride(sym::affine_in(w.value.exact_value(), index_sym))) {
          fact.step = StepFact{sym::add(sec_lo, sym::make_const(1)), sec_hi,
                               Range::of_consts(*p, *p)};
          if (*p != 0) fact.injective = InjectiveFact{sec_lo, sec_hi, std::nullopt};
        }
      }
      Range vals = widen(w.value);
      if (!vals.is_bottom()) fact.value = ValueFact{sec_lo, sec_hi, vals};
      if (fact.value || fact.step || fact.injective) push_fact(std::move(fact));
      continue;
    }

    auto aff_idx = sym::affine_in(w.index, index_sym);
    auto c_idx = sym::const_stride(aff_idx);
    bool idx_clean = c_idx && !sym::contains_kind(aff_idx->rest, sym::ExprKind::ArrayElem);
    if (!idx_clean || *c_idx == 0) {
      // Subscripted-subscript write a[b[i+m]] = i: inverse permutation rule.
      if (options_.enable_inverse_perm_rule && !w.conditional && trip_pos &&
          w.index->kind == sym::ExprKind::ArrayElem) {
        const sym::SymbolId b_sym = w.index->symbol;
        auto b_aff = sym::affine_in(w.index->operands[0], index_sym);
        if (sym::const_stride(b_aff) == 1 && w.value.is_exact() &&
            sym::equal(w.value.exact_value(), sym::make_sym(index_sym))) {
          ExprPtr read_lo = sym::add(lb, b_aff->rest);
          ExprPtr read_hi = sym::add(sym::sub(ub, sym::make_const(1)), b_aff->rest);
          if (masked_facts.injective_over(b_sym, read_lo, read_hi, ctx_i)) {
            if (auto b_vals = masked_facts.elem_value(b_sym, w.index->operands[0], ctx_i)) {
              Range section = widen(*b_vals);
              if (section.lo_bounded() && section.hi_bounded()) {
                ExprPtr width =
                    sym::add(sym::sub(section.hi(), section.lo()), sym::make_const(1));
                if (prove_eq(width, n, base_ctx_) == Truth::True) {
                  LoopEffect::ProducedFact fact;
                  fact.array = array_sym;
                  fact.value = ValueFact{section.lo(), section.hi(),
                                         Range::of(lb, sym::sub(ub, sym::make_const(1)))};
                  fact.injective = InjectiveFact{section.lo(), section.hi(), std::nullopt};
                  push_fact(std::move(fact));
                }
              }
            }
          }
        }
      }
      // Loop-invariant subscript a[k] = v every iteration.
      if (idx_clean && *c_idx == 0 && !w.conditional && trip_pos) {
        Range vals = widen(w.value);
        if (!vals.is_bottom()) {
          LoopEffect::ProducedFact fact;
          fact.array = array_sym;
          fact.value = ValueFact{w.index, w.index, vals};
          push_fact(std::move(fact));
        }
      }
      continue;
    }

    const int64_t c = *c_idx;
    const ExprPtr k = aff_idx->rest;
    ExprPtr pos_at_lb = sym::add(sym::mul_const(lb, c), k);
    ExprPtr pos_at_last = sym::add(sym::mul_const(sym::sub(ub, sym::make_const(1)), c), k);
    ExprPtr sec_lo = c > 0 ? pos_at_lb : pos_at_last;
    ExprPtr sec_hi = c > 0 ? pos_at_last : pos_at_lb;

    if (c != 1 && c != -1) continue;  // strided writes: kill-only

    LoopEffect::ProducedFact fact;
    fact.array = array_sym;
    bool matched = false;

    // Identity: a[s] = s.
    if (options_.enable_identity_rule && !w.conditional && trip_nonneg && w.value.is_exact() &&
        sym::equal(w.value.exact_value(), w.index)) {
      fact.identity = IdentityFact{sec_lo, sec_hi};
      matched = true;
    }

    // Recurrence a[s] = a[s-1] + rest (c == 1 only). Handles range-valued
    // rest, e.g. rowstr[i] = rowstr[i-1] + 3 + (w > 0 ? 2 : 0).
    if (!matched && options_.enable_recurrence_rule && c == 1 && !w.conditional &&
        trip_nonneg && !w.value.is_bottom()) {
      auto strip = [&](const ExprPtr& bound) -> ExprPtr {
        if (!bound) return nullptr;
        auto elems = sym::collect_array_elems(bound, array_sym);
        if (elems.size() != 1) return nullptr;
        if (!sym::equal(elems[0]->operands[0], sym::sub(w.index, sym::make_const(1)))) {
          return nullptr;
        }
        if (sym::to_linear(bound).coeff_of(elems[0]) != 1) return nullptr;
        return sym::sub(bound, elems[0]);
      };
      ExprPtr rest_lo = strip(w.value.lo());
      ExprPtr rest_hi = strip(w.value.hi());
      if (rest_lo && rest_hi && !has_any_lambda(rest_lo) && !has_any_lambda(rest_hi)) {
        Range step = Range::of(sym::bound_range(rest_lo, ctx_facts).lo(),
                               sym::bound_range(rest_hi, ctx_facts).hi());
        step = widen(step);
        if (!step.is_bottom()) {
          fact.step = StepFact{sec_lo, sec_hi, step};
          matched = true;
        }
      }
    }

    // Affine value: a[s] = p*i + rest (rest loop-invariant).
    if (!matched && options_.enable_affine_value_rule && !w.conditional && trip_nonneg &&
        w.value.is_exact()) {
      const ExprPtr v = w.value.exact_value();
      auto split = sym::affine_in(v, index_sym);
      auto p = sym::const_stride(split);
      if (p && !sym::contains_kind(split->rest, sym::ExprKind::ArrayElem)) {
        Range vals = widen(w.value);
        if (!vals.is_bottom()) fact.value = ValueFact{sec_lo, sec_hi, vals};
        if (*p != 0) {
          int64_t step = *p * c;  // value step per +1 position
          fact.step = StepFact{sym::add(sec_lo, sym::make_const(1)), sec_hi,
                               Range::of_consts(step, step)};
          fact.injective = InjectiveFact{sec_lo, sec_hi, std::nullopt};
        }
        matched = true;
      }
    }

    // Chain injectivity: a[s] = v where v advances over i by a provably
    // nonzero *symbolic* stride, e.g. idx[i] = m*i + q with m >= 1. The
    // affine-value rule above needs a compile-time stride; here the stride
    // stays an expression and the prover discharges its sign.
    if (!matched && options_.enable_chain_injectivity_rule && !w.conditional && trip_nonneg &&
        w.value.is_exact()) {
      auto aff = sym::affine_in(w.value.exact_value(), index_sym);
      if (aff && !sym::is_const(aff->stride) &&
          !sym::contains_kind(aff->stride, sym::ExprKind::ArrayElem)) {
        // Value step per +1 array position (subscript advances by c per
        // iteration, c is ±1 here).
        ExprPtr pos_step = sym::mul_const(aff->stride, c);
        bool inc = prove_ge(pos_step, sym::make_const(1), ctx_i) == Truth::True;
        bool dec =
            !inc && prove_le(pos_step, sym::make_const(-1), ctx_i) == Truth::True;
        if (inc || dec) {
          Range vals = widen(w.value);
          if (!vals.is_bottom()) fact.value = ValueFact{sec_lo, sec_hi, vals};
          // Injectivity is the stride's claim; deliberately no Monotonic step
          // fact here — ordering proofs stay with the paper's per-element
          // catalogue, so verdicts credit the layer that actually proved them.
          fact.injective =
              InjectiveFact{sec_lo, sec_hi, std::nullopt, /*from_chain=*/true};
          matched = true;
        }
      }
    }

    // Copy: a[s] = b[i+m] propagates value and injectivity facts.
    if (!matched && options_.enable_copy_rule && !w.conditional && trip_nonneg &&
        w.value.is_exact() && w.value.exact_value()->kind == sym::ExprKind::ArrayElem) {
      const ExprPtr v = w.value.exact_value();
      auto src_aff = sym::affine_in(v->operands[0], index_sym);
      if (sym::const_stride(src_aff) == 1) {
        ExprPtr src_lo = sym::add(lb, src_aff->rest);
        ExprPtr src_hi = sym::add(sym::sub(ub, sym::make_const(1)), src_aff->rest);
        if (auto src_vals = masked_facts.elem_value(v->symbol, v->operands[0], ctx_i)) {
          Range vals = widen(*src_vals);
          if (!vals.is_bottom()) {
            fact.value = ValueFact{sec_lo, sec_hi, vals};
            matched = true;
          }
        }
        if (c == 1 && masked_facts.injective_over(v->symbol, src_lo, src_hi, ctx_i)) {
          fact.injective = InjectiveFact{sec_lo, sec_hi, std::nullopt};
          matched = true;
        }
      }
    }

    // Fallback: any known value range on an unconditional dense write. Array
    // elements in the value (e.g. reads of other indexed arrays) are bounded
    // through the entry facts first.
    if (!matched && !w.conditional && trip_nonneg) {
      Range per = w.value;
      auto bound_side = [&](const ExprPtr& side, bool lower) -> ExprPtr {
        if (!side) return nullptr;
        if (!sym::contains_kind(side, sym::ExprKind::ArrayElem)) return side;
        Range b = sym::bound_range(side, ctx_facts);
        return lower ? b.lo() : b.hi();
      };
      per = Range::of(bound_side(per.lo(), true), bound_side(per.hi(), false));
      Range vals = widen(per);
      if (!vals.is_bottom()) {
        fact.value = ValueFact{sec_lo, sec_hi, vals};
        matched = true;
      }
    }
    if (matched) push_fact(std::move(fact));
  }

  // --- Branch-pair rules (subset-injective and disjoint-strided) -------------
  if (options_.enable_branch_rules && trip_nonneg) {
    for (const auto& pair : body.branch_pairs) {
      auto aff_idx = sym::affine_in(pair.index, index_sym);
      auto c_idx = sym::const_stride(aff_idx);
      if (c_idx != 1 && c_idx != -1) continue;
      if (sym::contains_kind(aff_idx->rest, sym::ExprKind::ArrayElem)) continue;
      const int64_t c = *c_idx;
      ExprPtr pos_at_lb = sym::add(sym::mul_const(lb, c), aff_idx->rest);
      ExprPtr pos_at_last =
          sym::add(sym::mul_const(sym::sub(ub, sym::make_const(1)), c), aff_idx->rest);
      ExprPtr sec_lo = c > 0 ? pos_at_lb : pos_at_last;
      ExprPtr sec_hi = c > 0 ? pos_at_last : pos_at_lb;
      if (!pair.then_value || !pair.else_value) continue;
      auto v1 = sym::affine_in(pair.then_value, index_sym);
      auto v2 = sym::affine_in(pair.else_value, index_sym);
      auto p1 = sym::const_stride(v1), p2 = sym::const_stride(v2);
      if (!p1 || !p2) continue;
      auto try_subset = [&](int64_t moving_stride, int64_t fixed_stride, const ExprPtr& fixed_rest,
                            const ExprPtr& moving_expr) -> bool {
        // Subset-injective: moving branch strictly monotone with values >= 0,
        // fixed branch a negative constant sentinel.
        auto sentinel = sym::const_value(fixed_rest);
        if (moving_stride == 0 || fixed_stride != 0 || !sentinel || *sentinel >= 0) return false;
        Range values = eval_range(moving_expr, loop_env);
        if (prove_nonneg(values, base_ctx_) != Truth::True) return false;
        LoopEffect::ProducedFact fact;
        fact.array = pair.array->symbol;
        fact.injective = InjectiveFact{sec_lo, sec_hi, 0};
        push_fact(std::move(fact));
        return true;
      };
      if (try_subset(*p1, *p2, v2->rest, pair.then_value) ||
          try_subset(*p2, *p1, v1->rest, pair.else_value)) {
        continue;
      }
      // Disjoint strided expressions (paper Fig. 8): same slope p, offsets in
      // different residue classes mod p -> the two value sets never collide.
      if (*p1 == *p2 && *p1 != 0) {
        auto offset_diff = sym::const_value(sym::sub(v1->rest, v2->rest));
        if (offset_diff && (*offset_diff % *p1) != 0) {
          LoopEffect::ProducedFact fact;
          fact.array = pair.array->symbol;
          fact.injective = InjectiveFact{sec_lo, sec_hi, std::nullopt};
          push_fact(std::move(fact));
        }
      }
    }
  }

  return effect;
}

}  // namespace sspar::core
