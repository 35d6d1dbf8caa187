#include "core/parallelizer.h"

#include <algorithm>
#include <map>

#include "core/body_interp.h"
#include "support/text.h"

namespace sspar::core {

using sym::ExprPtr;
using sym::Range;
using sym::Truth;

namespace {

// First-iteration peel detection: top-level `if` statements whose condition
// distinguishes exactly the first iteration (i == lb or i > lb).
struct PeelPlan {
  std::map<const ast::If*, bool> general;  // branch taken for i >= lb+1
  std::map<const ast::If*, bool> first;    // branch taken for i == lb
  bool empty() const { return general.empty(); }
};

PeelPlan find_peelable_ifs(const ast::Stmt& body, const ast::VarDecl* index,
                           const ExprPtr& lb, const ScalarEnv& env) {
  PeelPlan plan;
  const auto* compound = body.as<ast::Compound>();
  if (!compound) return plan;
  for (const auto& stmt : compound->body) {
    const auto* s = stmt->as<ast::If>();
    if (!s || !s->else_branch) continue;
    const auto* cond = s->cond->as<ast::Binary>();
    if (!cond) continue;
    const auto* var = cond->lhs->as<ast::VarRef>();
    if (!var || var->decl != index) continue;
    Range rhs = eval_pure(*cond->rhs, env);
    if (!rhs.is_exact()) continue;
    if (cond->op == ast::BinaryOp::Eq && sym::equal(rhs.exact_value(), lb)) {
      plan.general[s] = false;  // i != lb in the steady state
      plan.first[s] = true;
    } else if (cond->op == ast::BinaryOp::Gt && sym::equal(rhs.exact_value(), lb)) {
      plan.general[s] = true;  // i > lb in the steady state
      plan.first[s] = false;
    } else if (cond->op == ast::BinaryOp::Ge &&
               sym::equal(rhs.exact_value(), sym::add(lb, sym::make_const(1)))) {
      plan.general[s] = true;
      plan.first[s] = false;
    }
  }
  return plan;
}

struct ArrayAccessSet {
  const ast::VarDecl* array = nullptr;
  std::vector<const ArrayWriteEffect*> writes;
  std::vector<const ArrayWriteEffect*> reads;
};

// Verdict text (blockers, private lists) is produced by iterating decl-keyed
// containers; ordering them by raw AST pointer would make the output depend
// on heap layout and differ run to run. Symbol ids are assigned in sema
// (source) order, so they give a stable, meaningful iteration order.
struct DeclOrder {
  bool operator()(const ast::VarDecl* a, const ast::VarDecl* b) const {
    if (a->symbol != b->symbol) return a->symbol < b->symbol;
    if (a->location.offset != b->location.offset) return a->location.offset < b->location.offset;
    return a->name < b->name;
  }
};

using AccessGroups = std::map<const ast::VarDecl*, ArrayAccessSet, DeclOrder>;

std::vector<const ast::VarDecl*> sorted_decls(const std::set<const ast::VarDecl*>& decls) {
  std::vector<const ast::VarDecl*> out(decls.begin(), decls.end());
  std::sort(out.begin(), out.end(), DeclOrder{});
  return out;
}

AccessGroups group_accesses(const BodyInterp& interp) {
  AccessGroups groups;
  for (const auto& w : interp.writes) {
    auto& g = groups[w.array];
    g.array = w.array;
    g.writes.push_back(&w);
  }
  for (const auto& r : interp.reads) {
    auto& g = groups[r.array];
    g.array = r.array;
    g.reads.push_back(&r);
  }
  return groups;
}

// Combined per-iteration access range of an array (join over all accesses).
// Bottom if any access has an unknown subscript.
Range combined_range(const ArrayAccessSet& set) {
  Range acc;
  bool started = false;
  auto fold = [&](const ArrayWriteEffect* e) {
    if (!started) {
      acc = e->index_range;
      started = true;
    } else {
      acc = range_join(acc, e->index_range);
    }
  };
  for (const auto* w : set.writes) fold(w);
  for (const auto* r : set.reads) fold(r);
  return acc;
}

ExprPtr shift_index(const ExprPtr& e, sym::SymbolId index_sym, int64_t delta) {
  if (!e) return nullptr;
  return sym::subst_sym(e, index_sym, sym::add(sym::make_sym(index_sym), sym::make_const(delta)));
}

// Blocker text for a body BodyInterp::run() rejected, specialized by cause.
std::string unanalyzable_blocker(const BodyInterp& interp) {
  if (interp.failure) {
    switch (interp.failure->code) {
      case support::DiagCode::AnalysisLoopCall:
        return support::format("loop body is not analyzable (%s)",
                               interp.failure->message.c_str());
      case support::DiagCode::AnalysisLoopWhile:
        return "loop body is not analyzable (inner while loop)";
      case support::DiagCode::AnalysisLoopAbruptExit:
        return "loop body is not analyzable (break/continue/return)";
      default:
        break;
    }
  }
  return "loop body is not analyzable (call/while/branch-out)";
}

}  // namespace

// A hypothesized (statically unproven) enabling property of one index array,
// granted to the dependence tests to decide whether it alone unlocks the
// loop. If it does, the loop is a hybrid inspector–executor candidate and the
// property is verified at run time instead.
struct Parallelizer::Hypothesis {
  sym::SymbolId array = sym::kInvalidSymbol;
  EnablingProperty property = EnablingProperty::None;
  std::optional<int64_t> min_value;  // SubsetInjective participation threshold
};

// Candidate index arrays collected while the base analysis fails the
// independence test: every array subscripting the failing group's access
// ranges, with the joined subscript domain (the section the runtime check
// must cover) and the smallest guard threshold seen (for SubsetInjective
// trials). std::map keyed by symbol id keeps enumeration deterministic.
struct Parallelizer::HybridScan {
  int independence_blockers = 0;
  std::map<sym::SymbolId, Range> candidate_domain;
  std::map<sym::SymbolId, int64_t> guard_min;
};

bool uses_subscripted_subscripts(const ast::For& loop) {
  bool found = false;
  // An expression "reads an array" if it subscripts one directly, or calls a
  // function whose body does, transitively (the helper-function form of the
  // same indirection, e.g. id_to_mt[lookup(miel)] with lookup reading
  // mt_to_id). Per-function answers are memoized; the visited set bounds
  // recursion.
  std::map<const ast::FuncDecl*, bool> function_reads_array;
  auto expr_reads_array = [&function_reads_array](const ast::Expr* e) {
    std::set<const ast::FuncDecl*> visiting;
    std::function<bool(const ast::Expr*)> scan_expr;
    std::function<bool(const ast::FuncDecl*)> scan_function =
        [&](const ast::FuncDecl* f) -> bool {
      auto memo = function_reads_array.find(f);
      if (memo != function_reads_array.end()) return memo->second;
      if (!f->body || !visiting.insert(f).second) return false;
      bool reads = false;
      ast::walk_exprs(f->body.get(), [&](const ast::Expr* inner) {
        if (inner->kind == ast::ExprNodeKind::ArrayRef) reads = true;
        if (const auto* call = inner->as<ast::Call>()) {
          if (!reads && call->decl) reads = scan_function(call->decl);
        }
      });
      visiting.erase(f);
      function_reads_array[f] = reads;
      return reads;
    };
    bool reads = false;
    ast::walk_subexprs(e, [&](const ast::Expr* sub) {
      if (sub->kind == ast::ExprNodeKind::ArrayRef) reads = true;
      if (const auto* call = sub->as<ast::Call>()) {
        if (!reads && call->decl) reads = scan_function(call->decl);
      }
    });
    return reads;
  };
  // Scalars assigned (anywhere in the loop) from an expression that reads an
  // array; a subscript through such a scalar is an indirection too
  // (Fig. 2: iel = mt_to_id[miel]; id_to_mt[iel] = miel).
  std::set<const ast::VarDecl*> indirection_scalars;
  ast::walk_exprs(&loop, [&indirection_scalars, &expr_reads_array](const ast::Expr* e) {
    const ast::Expr* target = nullptr;
    const ast::Expr* value = nullptr;
    if (const auto* assign = e->as<ast::Assign>()) {
      target = assign->target.get();
      value = assign->value.get();
    }
    if (!target || !value) return;
    const auto* var = target->as<ast::VarRef>();
    if (!var || !var->decl) return;
    if (expr_reads_array(value)) indirection_scalars.insert(var->decl);
  });
  // DeclStmt initializers count as well (int iel = mt_to_id[miel]).
  ast::walk_stmts(static_cast<const ast::Stmt*>(&loop), [&](const ast::Stmt* s) {
    if (const auto* ds = s->as<ast::DeclStmt>()) {
      for (const auto& d : ds->decls) {
        if (d->init && expr_reads_array(d->init.get())) indirection_scalars.insert(d.get());
      }
    }
    return true;
  });
  // Direct nesting or indirection-scalar subscripts.
  ast::walk_exprs(&loop, [&](const ast::Expr* e) {
    if (const auto* arr = e->as<ast::ArrayRef>()) {
      if (expr_reads_array(arr->index.get())) found = true;
      ast::walk_subexprs(arr->index.get(), [&](const ast::Expr* sub) {
        if (const auto* var = sub->as<ast::VarRef>()) {
          if (var->decl && indirection_scalars.count(var->decl)) found = true;
        }
      });
    }
  });
  if (found) return true;
  // Inner loop bounds taken from an index array (Fig. 3 / Fig. 9 pattern).
  for (const ast::For* inner : ast::collect_loops(loop.body.get())) {
    auto scan = [&found](const ast::Expr* e) {
      if (!e) return;
      ast::walk_subexprs(e, [&found](const ast::Expr* sub) {
        if (sub->kind == ast::ExprNodeKind::ArrayRef) found = true;
      });
    };
    if (const auto* es = inner->init->as<ast::ExprStmt>()) scan(es->expr.get());
    if (const auto* ds = inner->init->as<ast::DeclStmt>()) {
      for (const auto& d : ds->decls) {
        if (d->init) scan(d->init.get());
      }
    }
    scan(inner->cond.get());
  }
  return found;
}

LoopVerdict Parallelizer::analyze_impl(const ast::For& loop, const Hypothesis* hypothesis,
                                       HybridScan* scan) {
  LoopVerdict verdict;
  verdict.loop = &loop;
  verdict.loop_id = loop.loop_id;
  verdict.uses_subscripted_subscripts = uses_subscripted_subscripts(loop);

  const LoopSnapshot* snap = analyzer_.snapshot(&loop);
  if (!snap || !snap->info) {
    verdict.blockers.push_back("loop is not in canonical form (i = lb; i < ub; i++)");
    return verdict;
  }
  verdict.canonical = true;
  const LoopInfo& info = *snap->info;
  const sym::SymbolId index_sym = info.index->symbol;

  Range lb_r = eval_pure(*info.lb_expr, snap->scalars_at_entry);
  Range ub_r = eval_pure(*info.ub_expr, snap->scalars_at_entry);
  if (!lb_r.is_exact() || !ub_r.is_exact()) {
    verdict.blockers.push_back("loop bounds are not symbolically exact");
    return verdict;
  }
  ExprPtr lb = lb_r.exact_value();
  ExprPtr ub = ub_r.exact_value();
  if (info.ub_inclusive) ub = sym::add(ub, sym::make_const(1));

  // --- Interpret the body (general variant; optionally a peeled variant) ----
  PeelPlan peel = find_peelable_ifs(*loop.body, info.index, lb, snap->scalars_at_entry);

  BodyInterp general(analyzer_, *loop.body, info.index, snap->scalars_at_entry,
                     snap->facts_at_entry);
  if (!peel.empty()) general.force_branches(&peel.general);
  if (!general.run()) {
    verdict.blockers.push_back(unanalyzable_blocker(general));
    return verdict;
  }
  std::unique_ptr<BodyInterp> first;
  if (!peel.empty()) {
    first = std::make_unique<BodyInterp>(analyzer_, *loop.body, info.index,
                                         snap->scalars_at_entry, snap->facts_at_entry);
    first->force_branches(&peel.first);
    if (!first->run()) {
      verdict.blockers.push_back("peeled first iteration is not analyzable");
      return verdict;
    }
  }

  // --- Scalar dependences -----------------------------------------------------
  // Declarations anywhere inside the loop (including inner for-inits) are
  // iteration-local storage: never loop-carried and never privatized.
  std::set<const ast::VarDecl*> declared_inside;
  ast::walk_stmts(static_cast<const ast::Stmt*>(&loop), [&](const ast::Stmt* s) {
    if (const auto* ds = s->as<ast::DeclStmt>()) {
      for (const auto& d : ds->decls) declared_inside.insert(d.get());
    }
    if (const auto* f = s->as<ast::For>()) {
      if (const auto* ds = f->init->as<ast::DeclStmt>()) {
        for (const auto& d : ds->decls) declared_inside.insert(d.get());
      }
    }
    return true;
  });
  auto check_scalars = [&](const BodyInterp& interp) {
    for (const ast::VarDecl* decl : sorted_decls(interp.written)) {
      if (decl == info.index) {
        verdict.blockers.push_back("loop index is assigned inside the body");
        continue;
      }
      if (interp.body_locals.count(decl) || declared_inside.count(decl)) continue;
      if (interp.lambda_reads.count(decl)) {
        verdict.blockers.push_back(
            support::format("loop-carried scalar dependence on '%s'", decl->name.c_str()));
        continue;
      }
      if (std::find(verdict.privates.begin(), verdict.privates.end(), decl) ==
          verdict.privates.end()) {
        verdict.privates.push_back(decl);
      }
    }
  };
  check_scalars(general);
  if (first) check_scalars(*first);

  // --- Array dependences --------------------------------------------------------
  // The general variant covers iterations from lb (no peel) or lb+1 (peeled).
  ExprPtr general_lb = peel.empty() ? lb : sym::add(lb, sym::make_const(1));

  sym::AssumptionContext ctx_pair = analyzer_.base_context();
  // Both i and i+1 must be valid iterations for the adjacent test.
  ctx_pair.assume(index_sym, Range::of(general_lb, sym::sub(ub, sym::make_const(2))));
  sym::AssumptionContext ctx_facts = snap->facts_at_entry.with_facts(ctx_pair);

  sym::AssumptionContext ctx_any = analyzer_.base_context();
  ctx_any.assume(index_sym, Range::of(general_lb, sym::sub(ub, sym::make_const(1))));
  sym::AssumptionContext ctx_facts_any = snap->facts_at_entry.with_facts(ctx_any);

  // For the peeled check, i ranges over the steady-state iterations.
  sym::AssumptionContext ctx_steady = analyzer_.base_context();
  ctx_steady.assume(index_sym,
                    Range::of(sym::add(lb, sym::make_const(1)), sym::sub(ub, sym::make_const(1))));
  sym::AssumptionContext ctx_facts_steady = snap->facts_at_entry.with_facts(ctx_steady);

  // Under a Monotonic hypothesis the hypothesized array behaves as if a
  // nondecreasing step fact covered its whole extent: constant index
  // distances give signed element-difference ranges. Real facts are
  // consulted first so they keep their (possibly tighter) precision.
  if (hypothesis && hypothesis->property == EnablingProperty::Monotonic) {
    auto grant = [hyp_array = hypothesis->array](sym::AssumptionContext& ctx) {
      sym::AssumptionContext::ElemDiffFn prev = ctx.elem_diff();
      ctx.set_elem_diff([prev, hyp_array](sym::SymbolId array, const ExprPtr& hi_idx,
                                          const ExprPtr& lo_idx) -> std::optional<Range> {
        if (prev) {
          if (auto r = prev(array, hi_idx, lo_idx)) return r;
        }
        if (array != hyp_array) return std::nullopt;
        auto d = sym::const_value(sym::sub(hi_idx, lo_idx));
        if (!d) return std::nullopt;
        if (*d >= 0) return Range::of(sym::make_const(0), nullptr);
        return Range::of(nullptr, sym::make_const(0));
      });
    };
    grant(ctx_facts);
    grant(ctx_facts_any);
    grant(ctx_facts_steady);
  }

  // Injectivity queries go through this wrapper so an Injective /
  // SubsetInjective hypothesis can vouch for the hypothesized array.
  auto injective_over = [&](sym::SymbolId array, const ExprPtr& qlo, const ExprPtr& qhi,
                            const sym::AssumptionContext& ctx,
                            std::optional<int64_t>* min_value,
                            bool* from_chain = nullptr) -> bool {
    if (hypothesis && array == hypothesis->array &&
        (hypothesis->property == EnablingProperty::Injective ||
         hypothesis->property == EnablingProperty::SubsetInjective)) {
      if (min_value) *min_value = hypothesis->min_value;
      if (from_chain) *from_chain = false;
      return true;
    }
    return snap->facts_at_entry.injective_over(array, qlo, qhi, ctx, min_value, from_chain);
  };

  bool used_monotonic_facts = false;
  bool used_injectivity = false;
  bool used_chain_injectivity = false;
  bool used_subset = false;
  bool used_peel = !peel.empty();
  // Index arrays whose facts discharged a passing test (for provenance).
  std::set<sym::SymbolId> fact_arrays_used;

  auto range_mentions_elem = [](const Range& r) {
    return (r.lo() && sym::contains_kind(r.lo(), sym::ExprKind::ArrayElem)) ||
           (r.hi() && sym::contains_kind(r.hi(), sym::ExprKind::ArrayElem));
  };
  auto note_fact_arrays = [&fact_arrays_used](const Range& r) {
    for (const ExprPtr& bound : {r.lo(), r.hi()}) {
      if (!bound) continue;
      for (const ExprPtr& elem : sym::collect_array_elems(bound)) {
        fact_arrays_used.insert(elem->symbol);
      }
    }
  };

  // The adjacent Range Test over a combined access range U(i).
  auto range_test = [&](const Range& u) -> bool {
    if (u.is_bottom() || !u.lo_bounded() || !u.hi_bounded()) return false;
    ExprPtr lo_i = u.lo(), hi_i = u.hi();
    // Affine fast path: when both bounds advance over i by a compile-time
    // stride and the range width folds to a constant, the adjacent
    // comparisons below reduce to constant tests — the canonical affine form
    // makes both differences Const nodes, on which the prover is exact, so
    // the outcome here is definitive in both directions and the subst +
    // prover machinery is skipped entirely.
    if (auto slo = sym::const_stride(sym::affine_in(lo_i, index_sym))) {
      if (auto shi = sym::const_stride(sym::affine_in(hi_i, index_sym))) {
        if (auto width = sym::const_value(sym::sub(hi_i, lo_i))) {
          // Forward: hi(i) < lo(i+1) && lo(i+1) >= lo(i); backward mirrored.
          bool forward = *width < *slo && *slo >= 0;
          bool backward = *width + *shi < 0 && *slo <= 0;
          if (!forward && !backward) return false;
          if (range_mentions_elem(u)) {
            used_monotonic_facts = true;
            note_fact_arrays(u);
          }
          return true;
        }
      }
    }
    ExprPtr lo_next = shift_index(lo_i, index_sym, 1);
    ExprPtr hi_next = shift_index(hi_i, index_sym, 1);
    // Forward: ranges advance with i.
    if (prove_lt(hi_i, lo_next, ctx_facts) == Truth::True &&
        prove_ge(lo_next, lo_i, ctx_facts) == Truth::True) {
      if (range_mentions_elem(u)) {
        used_monotonic_facts = true;
        note_fact_arrays(u);
      }
      return true;
    }
    // Backward: ranges retreat with i.
    if (prove_lt(hi_next, lo_i, ctx_facts) == Truth::True &&
        prove_le(lo_next, lo_i, ctx_facts) == Truth::True) {
      if (range_mentions_elem(u)) {
        used_monotonic_facts = true;
        note_fact_arrays(u);
      }
      return true;
    }
    return false;
  };

  // Indirection route: every access goes through the same injective array b
  // (a[b[t]]) and the domains of t are disjoint across iterations (Fig. 6).
  auto via_test = [&](const ArrayAccessSet& set) -> bool {
    const ast::VarDecl* via = nullptr;
    Range domain;
    bool started = false;
    auto fold = [&](const ArrayWriteEffect* e) -> bool {
      if (!e->via_array || e->dims != 1) return false;
      if (via && e->via_array != via) return false;
      via = e->via_array;
      domain = started ? range_join(domain, e->via_domain) : e->via_domain;
      started = true;
      return true;
    };
    for (const auto* w : set.writes) {
      if (!fold(w)) return false;
    }
    for (const auto* r : set.reads) {
      if (!fold(r)) return false;
    }
    if (!via || domain.is_bottom()) return false;
    // Injectivity must cover the whole domain span across all iterations.
    ExprPtr span_lo = domain.lo() ? sym::bound_range(domain.lo(), ctx_facts_any).lo() : nullptr;
    ExprPtr span_hi = domain.hi() ? sym::bound_range(domain.hi(), ctx_facts_any).hi() : nullptr;
    if (!span_lo || !span_hi) return false;
    std::optional<int64_t> min_value;
    bool from_chain = false;
    if (!injective_over(via->symbol, span_lo, span_hi, ctx_facts_any, &min_value,
                        &from_chain) ||
        min_value) {
      // Subset injectivity needs guard matching; handled by injectivity_test.
      return false;
    }
    if (!range_test(domain)) return false;
    used_injectivity = true;
    used_chain_injectivity = used_chain_injectivity || from_chain;
    fact_arrays_used.insert(via->symbol);
    return true;
  };

  // Injectivity route: every access must target the same exact subscript s(i).
  auto injectivity_test = [&](const ArrayAccessSet& set) -> bool {
    ExprPtr s = nullptr;
    std::vector<const ArrayWriteEffect*> all;
    for (const auto* w : set.writes) all.push_back(w);
    for (const auto* r : set.reads) all.push_back(r);
    for (const auto* e : all) {
      if (e->dims != 1 || !e->index) return false;
      if (!s) {
        s = e->index;
      } else if (!sym::equal(s, e->index)) {
        return false;
      }
    }
    if (!s || s->kind != sym::ExprKind::ArrayElem) return false;
    const sym::SymbolId b_sym = s->symbol;
    // The inner subscript must be ±i + constant.
    auto aff = sym::affine_in(s->operands[0], index_sym);
    auto c = sym::const_stride(aff);
    if ((c != 1 && c != -1) || !sym::is_const(aff->rest)) return false;
    // Domain of the inner subscript over the iteration space.
    sym::RangeEnv env;
    env.entries.emplace_back(index_sym, Range::of(lb, sym::sub(ub, sym::make_const(1))));
    Range domain = eval_range(s->operands[0], env);
    if (!domain.lo_bounded() || !domain.hi_bounded()) return false;
    std::optional<int64_t> min_value;
    bool from_chain = false;
    if (!injective_over(b_sym, domain.lo(), domain.hi(), ctx_facts_any, &min_value,
                        &from_chain)) {
      return false;
    }
    if (!min_value) {
      used_injectivity = true;
      used_chain_injectivity = used_chain_injectivity || from_chain;
      fact_arrays_used.insert(b_sym);
      return true;
    }
    // Subset injectivity: every access must be guarded by b[t] >= min.
    for (const auto* e : all) {
      bool guarded = false;
      for (const auto& g : e->guards) {
        if (g.array && g.array->symbol == b_sym && g.index &&
            sym::equal(g.index, s->operands[0]) && g.min >= *min_value) {
          guarded = true;
        }
      }
      if (!guarded) return false;
    }
    used_subset = true;
    fact_arrays_used.insert(b_sym);
    return true;
  };

  auto groups = group_accesses(general);
  std::set<const ast::VarDecl*> passed_by_range_test;
  for (auto& [array, set] : groups) {
    if (set.writes.empty()) continue;  // read-only arrays carry no dependence
    bool multi_dim = false;
    for (const auto* w : set.writes) multi_dim = multi_dim || w->dims != 1;
    if (multi_dim) {
      verdict.blockers.push_back(
          support::format("multi-dimensional write to '%s'", array->name.c_str()));
      continue;
    }
    Range u = combined_range(set);
    if (range_test(u)) {
      passed_by_range_test.insert(array);
      continue;
    }
    if (via_test(set)) continue;
    if (injectivity_test(set)) continue;
    if (scan) {
      // Collect hybrid candidates: the arrays subscripting this group's
      // access ranges, each with the subscript domain a runtime check would
      // have to cover, and guard thresholds for SubsetInjective trials.
      ++scan->independence_blockers;
      sym::RangeEnv env;
      env.entries.emplace_back(index_sym, Range::of(lb, sym::sub(ub, sym::make_const(1))));
      auto note = [&](const ExprPtr& bound) {
        if (!bound) return;
        for (const ExprPtr& elem : sym::collect_array_elems(bound)) {
          Range d = eval_range(elem->operands[0], env);
          if (!d.lo_bounded() || !d.hi_bounded()) continue;
          auto [it, inserted] = scan->candidate_domain.emplace(elem->symbol, d);
          if (!inserted) it->second = range_join(it->second, d);
        }
      };
      note(u.lo());
      note(u.hi());
      auto note_access = [&](const ArrayWriteEffect* e) {
        note(e->index);
        note(e->via_domain.lo());
        note(e->via_domain.hi());
        for (const auto& g : e->guards) {
          if (!g.array) continue;
          auto [it, inserted] = scan->guard_min.emplace(g.array->symbol, g.min);
          if (!inserted) it->second = std::min(it->second, g.min);
        }
      };
      for (const auto* w : set.writes) note_access(w);
      for (const auto* r : set.reads) note_access(r);
    }
    verdict.blockers.push_back(support::format(
        "cannot prove independence of accesses to '%s'", array->name.c_str()));
  }

  // --- Peeled first iteration vs the steady state ---------------------------
  if (first && verdict.blockers.empty()) {
    auto first_groups = group_accesses(*first);
    for (auto& [array, fset] : first_groups) {
      auto git = groups.find(array);
      bool general_writes = git != groups.end() && !git->second.writes.empty();
      if (fset.writes.empty() && !general_writes) continue;
      // Access range of iteration lb under the first-variant bindings.
      Range uf = combined_range(fset);
      ExprPtr lo_f = uf.lo() ? sym::subst_sym(uf.lo(), index_sym, lb) : nullptr;
      ExprPtr hi_f = uf.hi() ? sym::subst_sym(uf.hi(), index_sym, lb) : nullptr;
      if (!lo_f || !hi_f) {
        verdict.blockers.push_back(support::format(
            "peeled iteration has unknown access range for '%s'", array->name.c_str()));
        continue;
      }
      // Empty first-iteration range: trivially independent.
      if (prove_lt(hi_f, lo_f, ctx_facts_any) == Truth::True) continue;
      if (git == groups.end()) continue;
      Range ug = combined_range(git->second);
      if (!ug.lo_bounded()) {
        verdict.blockers.push_back(support::format(
            "steady-state access range unknown for '%s'", array->name.c_str()));
        continue;
      }
      // hi_first < lo_general(i) for every steady-state iteration i.
      if (prove_lt(hi_f, ug.lo(), ctx_facts_steady) == Truth::True) continue;
      // Monotone-chain argument: the adjacent Range Test already proved
      // lo_general non-decreasing, so comparing against the first steady
      // iteration (i = lb+1) suffices.
      if (passed_by_range_test.count(array)) {
        ExprPtr lo_at_first =
            sym::subst_sym(ug.lo(), index_sym, sym::add(lb, sym::make_const(1)));
        if (prove_lt(hi_f, lo_at_first, ctx_facts_any) == Truth::True) continue;
      }
      verdict.blockers.push_back(support::format(
          "cannot prove peeled first iteration independent for '%s'", array->name.c_str()));
    }
  }

  verdict.parallel = verdict.blockers.empty();
  if (verdict.parallel) {
    // Interprocedural provenance: map the index arrays whose facts fed the
    // proof back to the summaries that produced those facts at loop entry.
    std::set<std::string> via;
    for (sym::SymbolId array : fact_arrays_used) {
      auto it = snap->fact_provenance.find(array);
      if (it == snap->fact_provenance.end()) continue;
      via.insert(it->second.begin(), it->second.end());
    }
    verdict.summaries_used.assign(via.begin(), via.end());
    std::string reason;
    if (used_subset) {
      verdict.property = EnablingProperty::SubsetInjective;
      reason = "subset-injective index array with matching guard";
    } else if (used_chain_injectivity) {
      verdict.property = EnablingProperty::AffineInjective;
      reason = "affine-injective index array (provably nonzero chain stride)";
    } else if (used_injectivity) {
      verdict.property = EnablingProperty::Injective;
      reason = "injective index array subscript";
    } else if (used_monotonic_facts) {
      verdict.property = EnablingProperty::Monotonic;
      reason = "monotonic index array ranges (extended Range Test)";
    } else {
      verdict.property = EnablingProperty::Affine;
      reason = "affine disjoint accesses";
    }
    verdict.peeled = used_peel;
    if (used_peel) reason += " + peeled first iteration";
    verdict.reason = reason;

    // Schedule hint from the access ranges: per-iteration work is uniform
    // (static) when every access range advances by a compile-time constant
    // stride; it varies (dynamic) as soon as a range bound depends on
    // index-array contents — rowstr[i]..rowstr[i+1] style inner trip counts
    // are exactly the imbalanced case the paper's CSR kernels hit.
    {
      bool variable_work = false;
      bool all_const_stride = !groups.empty();
      for (auto& [array, set] : groups) {
        Range u = combined_range(set);
        if (u.is_bottom() || !u.lo_bounded() || !u.hi_bounded()) {
          all_const_stride = false;
          continue;
        }
        if (range_mentions_elem(u)) {
          variable_work = true;
          break;
        }
        if (!sym::const_stride(sym::affine_in(u.lo(), index_sym)) ||
            !sym::const_stride(sym::affine_in(u.hi(), index_sym))) {
          all_const_stride = false;
        }
      }
      if (variable_work) {
        verdict.schedule = LoopVerdict::ScheduleHint::Dynamic;
        verdict.schedule_reason = "variable per-iteration work from index-array-dependent ranges";
      } else if (all_const_stride) {
        verdict.schedule = LoopVerdict::ScheduleHint::Static;
        verdict.schedule_reason = "constant-stride access chains, uniform per-iteration work";
      }
    }
  }
  return verdict;
}

LoopVerdict Parallelizer::analyze(const ast::For& loop) {
  HybridScan scan;
  LoopVerdict verdict = analyze_impl(loop, nullptr, &scan);
  if (verdict.parallel || !verdict.canonical || !verdict.uses_subscripted_subscripts) {
    return verdict;
  }
  // Hybrid candidacy (paper Section 4's inspector–executor alternative):
  // exactly one blocker, and it is the array-independence one. Re-run the
  // dependence tests granting one unproven property of one index array at a
  // time; the first hypothesis that clears every blocker is checkable at run
  // time, so the emitter can dispatch between a parallel and a serial version.
  if (verdict.blockers.size() != 1 || scan.independence_blockers != 1) return verdict;

  const sym::SymbolTable& syms = analyzer_.symbols();
  auto renderable = [](const std::string& s) {
    // The check domain is spliced into emitted C source; reject bounds whose
    // rendering uses non-C constructs (div/mod/min/max nodes, λ markers,
    // nested array elements, bottom).
    for (const char* bad : {"div(", "mod(", "min(", "max(", "lam.", "LAM.", "_|_", "["}) {
      if (s.find(bad) != std::string::npos) return false;
    }
    return true;
  };
  for (const auto& [array, domain] : scan.candidate_domain) {
    std::string lo = sym::to_string(domain.lo(), syms);
    std::string hi = sym::to_string(domain.hi(), syms);
    if (!renderable(lo) || !renderable(hi)) continue;
    // Monotonic is the cheapest check, so try it first; SubsetInjective
    // before Injective so guarded scatters get a check their sentinel-laden
    // data can actually satisfy.
    std::vector<Hypothesis> trials;
    trials.push_back({array, EnablingProperty::Monotonic, std::nullopt});
    auto gm = scan.guard_min.find(array);
    if (gm != scan.guard_min.end()) {
      trials.push_back({array, EnablingProperty::SubsetInjective, gm->second});
    }
    trials.push_back({array, EnablingProperty::Injective, std::nullopt});
    for (const Hypothesis& hyp : trials) {
      LoopVerdict trial = analyze_impl(loop, &hyp, nullptr);
      if (!trial.parallel) continue;
      verdict.hybrid = true;
      verdict.hybrid_property = hyp.property;
      verdict.hybrid_index_array = syms.name(array);
      verdict.hybrid_min_value = hyp.min_value.value_or(0);
      verdict.hybrid_check_lo = lo;
      verdict.hybrid_check_hi = hi;
      // The parallel version of the dual loop needs the hypothetical run's
      // privatization (and peel) decisions; the serial version ignores them.
      verdict.privates = trial.privates;
      verdict.peeled = trial.peeled;
      verdict.summaries_used = trial.summaries_used;
      return verdict;
    }
  }
  return verdict;
}

const char* property_name(EnablingProperty property) {
  switch (property) {
    case EnablingProperty::None:
      return "";
    case EnablingProperty::Affine:
      return "affine";
    case EnablingProperty::Monotonic:
      return "monotonic";
    case EnablingProperty::Injective:
      return "injective";
    case EnablingProperty::SubsetInjective:
      return "subset-injective";
    case EnablingProperty::AffineInjective:
      return "affine-injective";
  }
  return "";
}

std::vector<LoopVerdict> Parallelizer::analyze_all(const ast::FuncDecl& function) {
  std::vector<LoopVerdict> verdicts;
  for (const ast::For* loop : ast::collect_loops(function.body.get())) {
    verdicts.push_back(analyze(*loop));
  }
  return verdicts;
}

}  // namespace sspar::core
