#include "core/analyzer.h"

#include <algorithm>
#include <optional>

#include "core/body_interp.h"
#include "frontend/printer.h"
#include "ipa/call_graph.h"
#include "ipa/cross_cache.h"
#include "ipa/summary.h"
#include "support/diagnostics.h"
#include "support/text.h"

namespace sspar::core {

using sym::ExprPtr;
using sym::Range;

// ---------------------------------------------------------------------------
// eval_pure
// ---------------------------------------------------------------------------

Range eval_pure(const ast::Expr& expr, const ScalarEnv& env,
                const std::set<const ast::VarDecl*>* lambda_vars) {
  switch (expr.kind) {
    case ast::ExprNodeKind::IntLit:
      return Range::exact(sym::make_const(expr.as<ast::IntLit>()->value));
    case ast::ExprNodeKind::VarRef: {
      const auto* decl = expr.as<ast::VarRef>()->decl;
      if (!decl || decl->is_array() || decl->elem_type != ast::TypeKind::Int) {
        return Range::bottom();
      }
      if (lambda_vars && lambda_vars->count(decl)) {
        return Range::exact(sym::make_iter_start(decl->symbol));
      }
      if (const Range* r = env.find(decl)) return *r;
      return Range::exact(sym::make_sym(decl->symbol));
    }
    case ast::ExprNodeKind::ArrayRef: {
      const auto* a = expr.as<ast::ArrayRef>();
      auto subs = a->subscripts();
      const ast::VarRef* root = a->root();
      if (!root || !root->decl || subs.size() != 1 ||
          root->decl->elem_type != ast::TypeKind::Int) {
        return Range::bottom();
      }
      Range idx = eval_pure(*subs[0], env, lambda_vars);
      if (!idx.is_exact()) return Range::bottom();
      return Range::exact(sym::make_array_elem(root->decl->symbol, idx.exact_value()));
    }
    case ast::ExprNodeKind::Binary: {
      const auto* b = expr.as<ast::Binary>();
      Range lhs = eval_pure(*b->lhs, env, lambda_vars);
      Range rhs = eval_pure(*b->rhs, env, lambda_vars);
      switch (b->op) {
        case ast::BinaryOp::Add:
          return range_add(lhs, rhs);
        case ast::BinaryOp::Sub:
          return range_sub(lhs, rhs);
        case ast::BinaryOp::Mul:
          if (lhs.is_exact() && rhs.is_exact()) {
            return Range::exact(sym::mul(lhs.exact_value(), rhs.exact_value()));
          }
          if (rhs.is_exact()) {
            if (auto c = sym::const_value(rhs.exact_value())) return range_mul_const(lhs, *c);
          }
          if (lhs.is_exact()) {
            if (auto c = sym::const_value(lhs.exact_value())) return range_mul_const(rhs, *c);
          }
          return Range::bottom();
        case ast::BinaryOp::Div:
          if (lhs.is_exact() && rhs.is_exact()) {
            return Range::exact(sym::div_floor(lhs.exact_value(), rhs.exact_value()));
          }
          return Range::bottom();
        case ast::BinaryOp::Rem:
          if (lhs.is_exact() && rhs.is_exact()) {
            return Range::exact(sym::mod(lhs.exact_value(), rhs.exact_value()));
          }
          return Range::bottom();
        default:
          return Range::of_consts(0, 1);
      }
    }
    case ast::ExprNodeKind::Unary: {
      const auto* u = expr.as<ast::Unary>();
      if (u->op == ast::UnaryOp::Neg) {
        return range_negate(eval_pure(*u->operand, env, lambda_vars));
      }
      return Range::of_consts(0, 1);
    }
    case ast::ExprNodeKind::Conditional: {
      const auto* c = expr.as<ast::Conditional>();
      return range_join(eval_pure(*c->then_expr, env, lambda_vars),
                        eval_pure(*c->else_expr, env, lambda_vars));
    }
    default:
      return Range::bottom();  // assignments / increments / calls are impure
  }
}

// ---------------------------------------------------------------------------
// Analyzer
// ---------------------------------------------------------------------------

Analyzer::Analyzer(const ast::Program& program, sym::SymbolTable& symbols,
                   AnalyzerOptions options, ipa::SummaryDB* summaries,
                   support::DiagnosticEngine* diags)
    : program_(program), symbols_(symbols), options_(options), summaries_(summaries),
      diags_(diags) {
  for (const auto& g : program.globals) {
    global_decls_.insert(g.get());
    global_by_symbol_[g->symbol] = g.get();
  }
  for (const auto& function : program.functions) {
    if (program_has_calls_) break;
    ast::walk_exprs(function->body.get(), [this](const ast::Expr* e) {
      if (e->kind == ast::ExprNodeKind::Call) program_has_calls_ = true;
    });
  }
}

void Analyzer::assume(const ast::VarDecl* decl, Range range) {
  base_ctx_.assume(decl->symbol, std::move(range));
}

void Analyzer::assume_ge(const ast::VarDecl* decl, int64_t lo) {
  base_ctx_.assume_ge(decl->symbol, lo);
}

void Analyzer::run() { run(nullptr); }

void Analyzer::run(const std::set<const ast::FuncDecl*>* only, const ipa::CallGraph* graph) {
  if (summaries_ && program_has_calls_) {
    std::optional<ipa::CallGraph> own;
    if (graph == nullptr) graph = &own.emplace(program_);
    // The restricted path probes the shared cache by content key, so every
    // function must be keyed up front (idempotent; a no-op when the caller
    // already keyed the program).
    if (only != nullptr && summaries_->shared()) key_all_functions(*graph);
    compute_summaries(*graph, only);
  }
  for (const auto& function : program_.functions) {
    if (only != nullptr && only->count(function.get()) == 0) continue;
    analyze_function(*function);
  }
}

void Analyzer::key_all_functions(const ipa::CallGraph& graph, IdentityHashes* identities) {
  for (const ast::FuncDecl* function : graph.bottom_up()) {
    compute_content_key(*function, graph, identities);
  }
}

const std::pair<uint64_t, uint64_t>* Analyzer::content_key(const ast::FuncDecl* function) const {
  auto it = content_keys_.find(function);
  return it == content_keys_.end() ? nullptr : &it->second;
}

void Analyzer::analyze_function(const ast::FuncDecl& function) {
  fact_provenance_.clear();
  ScalarEnv env;
  // Globals with constant initializers have a known entry value; everything
  // else starts as its own symbol.
  for (const auto& g : program_.globals) {
    if (g->is_array() || g->elem_type != ast::TypeKind::Int) continue;
    if (g->init) {
      if (const auto* lit = g->init->as<ast::IntLit>()) {
        env.set(g.get(), Range::exact(sym::make_const(lit->value)));
      }
    }
  }
  FactDB facts;
  flow_stmt(*function.body, env, facts);
  end_facts_[&function] = std::move(facts);
}

void Analyzer::flow_stmt(const ast::Stmt& stmt, ScalarEnv& env, FactDB& facts) {
  switch (stmt.kind) {
    case ast::StmtNodeKind::Compound:
      for (const auto& s : stmt.as<ast::Compound>()->body) flow_stmt(*s, env, facts);
      return;
    case ast::StmtNodeKind::For: {
      const auto& loop = *stmt.as<ast::For>();
      // Snapshot the state at loop entry for the parallelizer.
      LoopSnapshot snap;
      snap.loop = &loop;
      snap.info = recognize_loop(loop);
      snap.facts_at_entry = facts;
      snap.scalars_at_entry = env;
      for (const auto& [array, origins] : fact_provenance_) {
        snap.fact_provenance[array].assign(origins.begin(), origins.end());
      }
      int key = next_key_++;
      loop_keys_[&loop] = key;
      snapshots_[key] = std::move(snap);
      // Also snapshot nested loops (entry state approximated by the outer
      // loop's entry state; sound for facts because inner snapshots are only
      // used for reporting and their own dependence tests re-derive bounds).
      for (const ast::For* inner : ast::collect_loops(loop.body.get())) {
        if (!loop_keys_.count(inner)) {
          LoopSnapshot inner_snap;
          inner_snap.loop = inner;
          inner_snap.info = recognize_loop(*inner);
          inner_snap.facts_at_entry = facts;
          inner_snap.scalars_at_entry = env;
          for (const auto& [array, origins] : fact_provenance_) {
            inner_snap.fact_provenance[array].assign(origins.begin(), origins.end());
          }
          int inner_key = next_key_++;
          loop_keys_[inner] = inner_key;
          snapshots_[inner_key] = std::move(inner_snap);
        }
      }
      LoopEffect effect = analyze_loop(loop, env, facts);
      apply_effect(loop, effect, env, facts);
      return;
    }
    case ast::StmtNodeKind::While:
      // Conservative: havoc everything the while loop (or its calls) writes.
      havoc_stmt(stmt, env, facts);
      return;
    case ast::StmtNodeKind::If:
    case ast::StmtNodeKind::ExprStmt:
    case ast::StmtNodeKind::DeclStmt: {
      // Straight-line interpretation (single-trip "loop").
      BodyInterp interp(*this, stmt, /*index=*/nullptr, env, facts);
      if (!interp.run()) {
        havoc_stmt(stmt, env, facts);
        return;
      }
      apply_straight_line(interp, env, facts, /*track_provenance=*/!summary_mode_);
      return;
    }
    default:
      return;  // Break/Continue/Return/Empty at top level: no effect to model
  }
}

void Analyzer::apply_straight_line(BodyInterp& interp, ScalarEnv& env, FactDB& facts,
                                   bool track_provenance) {
  for (const auto& [decl, value] : interp.env.values) env.set(decl, value);
  for (const auto& w : interp.writes) {
    if (!w.array) continue;
    if (w.index_range.is_bottom() || w.dims != 1) {
      facts.kill_all(w.array->symbol);
    } else {
      facts.kill_overlapping(w.array->symbol, w.index_range.lo(), w.index_range.hi(),
                             base_ctx_);
    }
    // Single unconditional write with known value: point fact (e.g.
    // rowptr[0] = 0 in Fig. 9). Summary-applied writes are skipped: the
    // callee's exit facts below already carry everything provable.
    if (!w.conditional && w.index && !w.value.is_bottom() && w.dims == 1 &&
        !w.summary_origin) {
      facts.add_value(w.array->symbol, ValueFact{w.index, w.index, w.value});
    }
    if (track_provenance && !w.summary_origin) fact_provenance_.erase(w.array->symbol);
  }
  // Callee exit facts from unconditional calls, after the kills.
  for (const auto& pf : interp.pending_facts) {
    // A write later in the same statement clobbers the callee's exit state.
    bool clobbered = false;
    for (size_t j = pf.writes_at_record; j < interp.writes.size(); ++j) {
      const auto& w = interp.writes[j];
      if (w.array && w.array->symbol == pf.fact.array) {
        clobbered = true;
        break;
      }
    }
    if (clobbered) continue;
    if (pf.fact.identity) facts.add_identity(pf.fact.array, *pf.fact.identity);
    if (pf.fact.value) facts.add_value(pf.fact.array, *pf.fact.value);
    if (pf.fact.step) facts.add_step(pf.fact.array, *pf.fact.step);
    if (pf.fact.injective) facts.add_injective(pf.fact.array, *pf.fact.injective);
    if (track_provenance && pf.origin) {
      fact_provenance_[pf.fact.array].insert(pf.origin->name);
    }
  }
}

void Analyzer::havoc_stmt(const ast::Stmt& stmt, ScalarEnv& env, FactDB& facts) {
  for (const ast::VarDecl* decl : written_scalars(stmt)) env.set(decl, Range::bottom());
  for (const ast::VarDecl* arr : written_arrays(stmt)) {
    facts.kill_all(arr->symbol);
    fact_provenance_.erase(arr->symbol);
  }
  // Calls may write state that is invisible syntactically; havoc their
  // may-write sets (or everything, when the callee is opaque or unknown).
  bool havoc_world = false;
  ast::walk_exprs(&stmt, [this, &havoc_world, &env, &facts](const ast::Expr* e) {
    const auto* call = e->as<ast::Call>();
    if (!call || havoc_world) return;
    const ipa::FunctionSummary* s = call_summary(*call);
    if (!s || s->opaque) {
      havoc_world = true;
      return;
    }
    for (const ast::VarDecl* decl : s->may_write_scalars) env.set(decl, Range::bottom());
    for (const ast::VarDecl* arr : s->may_write_arrays) {
      facts.kill_all(arr->symbol);
      fact_provenance_.erase(arr->symbol);
    }
    if (s->writes_array_params) {
      // The callee stores through its array parameters: the actuals at this
      // site may be written. Array actuals are plain variables by grammar.
      for (const auto& arg : call->args) {
        if (const auto* var = arg->as<ast::VarRef>()) {
          if (var->decl && var->decl->is_array()) {
            facts.kill_all(var->decl->symbol);
            fact_provenance_.erase(var->decl->symbol);
          }
        }
      }
    }
  });
  if (havoc_world) {
    for (const auto& g : program_.globals) {
      if (!g->is_array()) env.set(g.get(), Range::bottom());
    }
    // Kill every array fact at this point, not just the globals': a local
    // array passed as an argument is writable by the opaque callee too.
    std::vector<sym::SymbolId> known;
    known.reserve(facts.all().size());
    for (const auto& [array, unused] : facts.all()) known.push_back(array);
    for (sym::SymbolId array : known) facts.kill_all(array);
    fact_provenance_.clear();
  }
}

const ipa::FunctionSummary* Analyzer::call_summary(const ast::Call& call) const {
  if (!summaries_ || !call.decl) return nullptr;
  return summaries_->find(call.decl, options_);
}

void Analyzer::warn_unanalyzable(const ast::For& loop, const BodyInterp& body) {
  if (!diags_) return;
  // Dedup on (loop, callee): a loop that abandons on calls to two different
  // unsummarizable functions surfaces one W0301 per callee instead of
  // collapsing them onto the first.
  auto emit = [this, &loop](const BodyInterp::Failure& f) {
    if (!warned_loops_.insert({&loop, f.callee}).second) return;
    diags_->report(support::Severity::Warning, f.code, f.location,
                   support::format("loop at line %u abandoned as unanalyzable: %s",
                                   loop.location.line, f.message.c_str()));
  };
  for (const BodyInterp::Failure& f : body.failures) emit(f);
  if (body.failures.empty() && body.failure) emit(*body.failure);
}

LoopEffect Analyzer::analyze_loop(const ast::For& loop, const ScalarEnv& entry_env,
                                  const FactDB& entry_facts) {
  auto info = recognize_loop(loop);
  if (!info) {
    LoopEffect effect;
    effect.analyzable = false;
    return effect;
  }
  BodyInterp body(*this, *loop.body, info->index, entry_env, entry_facts);
  if (!body.run()) {
    warn_unanalyzable(loop, body);
    LoopEffect effect;
    effect.analyzable = false;
    return effect;
  }
  return aggregate(loop, *info, entry_env, entry_facts, body);
}

void Analyzer::apply_effect(const ast::For& loop, const LoopEffect& effect, ScalarEnv& env,
                            FactDB& facts) {
  if (!effect.analyzable) {
    // Havoc everything the loop (including its calls) could touch.
    havoc_stmt(loop, env, facts);
    if (auto info = recognize_loop(loop)) env.set(info->index, Range::bottom());
    return;
  }
  for (const auto& [decl, final] : effect.scalar_finals) env.set(decl, final);
  // Kills first...
  for (const auto& w : effect.writes) {
    if (!w.array) continue;
    if (w.dims != 1 || w.index_range.is_bottom() ||
        (!w.index_range.lo_bounded() && !w.index_range.hi_bounded())) {
      facts.kill_all(w.array->symbol);
    } else {
      facts.kill_overlapping(w.array->symbol, w.index_range.lo(), w.index_range.hi(),
                             base_ctx_);
    }
  }
  // ...then the produced facts.
  // Provenance: a fact whose underlying writes came (at least partly) from a
  // callee's summary is attributed to that callee; locally re-derived facts
  // clear the attribution.
  std::map<sym::SymbolId, std::set<std::string>> write_origins;
  for (const auto& w : effect.writes) {
    if (!w.array) continue;
    auto& origins = write_origins[w.array->symbol];
    if (w.summary_origin) origins.insert(w.summary_origin->name);
  }
  for (const auto& f : effect.facts) {
    if (f.identity) facts.add_identity(f.array, *f.identity);
    if (f.value) facts.add_value(f.array, *f.value);
    if (f.step) facts.add_step(f.array, *f.step);
    if (f.injective) facts.add_injective(f.array, *f.injective);
    if (summary_mode_) continue;
    auto it = write_origins.find(f.array);
    if (it != write_origins.end() && !it->second.empty()) {
      fact_provenance_[f.array].insert(it->second.begin(), it->second.end());
    } else {
      fact_provenance_.erase(f.array);
    }
  }
}

// ---------------------------------------------------------------------------
// Interprocedural summaries
// ---------------------------------------------------------------------------

namespace {

// Global scalars read anywhere in `e`. A VarRef that is the target of a
// plain assignment is a write, not a read; compound assignments and
// increments read first.
void collect_expr_scalar_reads(const ast::Expr* e,
                               const std::function<bool(const ast::VarDecl*)>& is_global,
                               std::set<const ast::VarDecl*>& out) {
  if (!e) return;
  auto scan = [&](const ast::Expr* child) { collect_expr_scalar_reads(child, is_global, out); };
  switch (e->kind) {
    case ast::ExprNodeKind::VarRef: {
      const auto* var = e->as<ast::VarRef>();
      if (var->decl && !var->decl->is_array() && is_global(var->decl)) {
        out.insert(var->decl);
      }
      return;
    }
    case ast::ExprNodeKind::Assign: {
      const auto* a = e->as<ast::Assign>();
      // Plain assignment: the target VarRef is not a read. Compound
      // assignment reads the target. Array targets: subscripts are reads.
      if (a->op == ast::AssignOp::Assign &&
          a->target->kind == ast::ExprNodeKind::VarRef) {
        // skip target
      } else {
        scan(a->target.get());
      }
      scan(a->value.get());
      return;
    }
    case ast::ExprNodeKind::ArrayRef: {
      const auto* ar = e->as<ast::ArrayRef>();
      scan(ar->base.get());
      scan(ar->index.get());
      return;
    }
    case ast::ExprNodeKind::Binary: {
      const auto* b = e->as<ast::Binary>();
      scan(b->lhs.get());
      scan(b->rhs.get());
      return;
    }
    case ast::ExprNodeKind::Unary:
      scan(e->as<ast::Unary>()->operand.get());
      return;
    case ast::ExprNodeKind::IncDec:
      scan(e->as<ast::IncDec>()->target.get());
      return;
    case ast::ExprNodeKind::Conditional: {
      const auto* c = e->as<ast::Conditional>();
      scan(c->cond.get());
      scan(c->then_expr.get());
      scan(c->else_expr.get());
      return;
    }
    case ast::ExprNodeKind::Call:
      for (const auto& a : e->as<ast::Call>()->args) scan(a.get());
      return;
    default:
      return;
  }
}

// Every Call node inside `e`, including nested ones in arguments.
void collect_calls(const ast::Expr* e, std::vector<const ast::Call*>& out) {
  if (!e) return;
  switch (e->kind) {
    case ast::ExprNodeKind::Call:
      out.push_back(e->as<ast::Call>());
      for (const auto& a : e->as<ast::Call>()->args) collect_calls(a.get(), out);
      return;
    case ast::ExprNodeKind::Assign:
      collect_calls(e->as<ast::Assign>()->target.get(), out);
      collect_calls(e->as<ast::Assign>()->value.get(), out);
      return;
    case ast::ExprNodeKind::ArrayRef:
      collect_calls(e->as<ast::ArrayRef>()->base.get(), out);
      collect_calls(e->as<ast::ArrayRef>()->index.get(), out);
      return;
    case ast::ExprNodeKind::Binary:
      collect_calls(e->as<ast::Binary>()->lhs.get(), out);
      collect_calls(e->as<ast::Binary>()->rhs.get(), out);
      return;
    case ast::ExprNodeKind::Unary:
      collect_calls(e->as<ast::Unary>()->operand.get(), out);
      return;
    case ast::ExprNodeKind::IncDec:
      collect_calls(e->as<ast::IncDec>()->target.get(), out);
      return;
    case ast::ExprNodeKind::Conditional:
      collect_calls(e->as<ast::Conditional>()->cond.get(), out);
      collect_calls(e->as<ast::Conditional>()->then_expr.get(), out);
      collect_calls(e->as<ast::Conditional>()->else_expr.get(), out);
      return;
    default:
      return;
  }
}

// Position-sensitive exposed (read-before-definite-write) global scalar set.
// Walks the body in execution order tracking which globals are DEFINITELY
// assigned on every path reaching the current statement; a read — from the
// statement's own expressions or a callee's exposed set — only counts when
// it can still observe the caller-entry value. Plain call statements credit
// the callee's definite scalar writes, so a helper temporary pattern like
// { t = b[i]*2; a[i] = t; } never leaks t to its call sites. Anything this
// pass cannot order (loop bodies that may run zero times, one-armed ifs) is
// treated as conditional, which only widens the exposed set — the result is
// always a subset of the whole-body read set and a superset of the true
// exposed set.
class ExposedScalarReads {
 public:
  ExposedScalarReads(
      const std::function<bool(const ast::VarDecl*)>& is_global,
      const std::function<const ipa::FunctionSummary*(const ast::Call&)>& summary_of)
      : is_global_(is_global), summary_of_(summary_of) {}

  std::set<const ast::VarDecl*> run(const ast::FuncDecl& function) {
    for (const ast::VarDecl* decl : written_scalars(*function.body)) {
      if (!decl->is_array() && is_global_(decl)) candidates_.insert(decl);
    }
    std::set<const ast::VarDecl*> assigned;
    visit(function.body.get(), assigned);
    return std::move(exposed_);
  }

 private:
  using DeclSet = std::set<const ast::VarDecl*>;

  void note_expr(const ast::Expr* e, const DeclSet& assigned) {
    if (!e) return;
    DeclSet reads;
    collect_expr_scalar_reads(e, is_global_, reads);
    for (const ast::VarDecl* d : reads) {
      if (!assigned.count(d)) exposed_.insert(d);
    }
    // Call sites surface their callee's exposed reads at call position.
    std::vector<const ast::Call*> calls;
    collect_calls(e, calls);
    for (const ast::Call* call : calls) {
      if (const ipa::FunctionSummary* cs = summary_of_(*call)) {
        for (const ast::VarDecl* d : cs->exposed_scalar_reads) {
          if (!assigned.count(d)) exposed_.insert(d);
        }
      }
    }
  }

  void mark_assigned(const ast::Stmt& s, DeclSet& assigned) {
    for (const ast::VarDecl* d : candidates_) {
      if (!assigned.count(d) && definitely_assigns(s, d)) assigned.insert(d);
    }
  }

  void visit(const ast::Stmt* s, DeclSet& assigned) {
    if (!s) return;
    switch (s->kind) {
      case ast::StmtNodeKind::Compound:
        for (const auto& child : s->as<ast::Compound>()->body) {
          visit(child.get(), assigned);
        }
        return;
      case ast::StmtNodeKind::ExprStmt: {
        const ast::Expr* e = s->as<ast::ExprStmt>()->expr.get();
        note_expr(e, assigned);
        mark_assigned(*s, assigned);
        // A plain call statement runs unconditionally: the callee's definite
        // scalar writes are definite here too.
        if (e && e->kind == ast::ExprNodeKind::Call) {
          if (const ipa::FunctionSummary* cs = summary_of_(*e->as<ast::Call>())) {
            assigned.insert(cs->definite_scalar_writes.begin(),
                            cs->definite_scalar_writes.end());
          }
        }
        return;
      }
      case ast::StmtNodeKind::DeclStmt:
        // Declares locals only; the initializers read against current state.
        for (const auto& d : s->as<ast::DeclStmt>()->decls) {
          if (d->init) note_expr(d->init.get(), assigned);
          for (const auto& dim : d->dims) note_expr(dim.get(), assigned);
        }
        return;
      case ast::StmtNodeKind::If: {
        const auto* i = s->as<ast::If>();
        note_expr(i->cond.get(), assigned);
        DeclSet then_assigned = assigned;
        visit(i->then_branch.get(), then_assigned);
        if (i->else_branch) {
          DeclSet else_assigned = assigned;
          visit(i->else_branch.get(), else_assigned);
          // Only assignments made on BOTH paths survive the join.
          for (const ast::VarDecl* d : then_assigned) {
            if (else_assigned.count(d)) assigned.insert(d);
          }
        }
        mark_assigned(*s, assigned);  // assignments inside the condition
        return;
      }
      case ast::StmtNodeKind::For: {
        const auto* f = s->as<ast::For>();
        visit(f->init.get(), assigned);  // only the init runs unconditionally
        note_expr(f->cond.get(), assigned);
        // Body and step may run zero times: reads inside still respect the
        // in-body order, but nothing they assign is definite afterwards.
        DeclSet body_assigned = assigned;
        visit(f->body.get(), body_assigned);
        note_expr(f->step.get(), body_assigned);
        return;
      }
      case ast::StmtNodeKind::While: {
        const auto* w = s->as<ast::While>();
        note_expr(w->cond.get(), assigned);
        DeclSet body_assigned = assigned;
        visit(w->body.get(), body_assigned);
        return;
      }
      case ast::StmtNodeKind::Return:
        note_expr(s->as<ast::Return>()->value.get(), assigned);
        return;
      default:
        return;  // Break / Continue / Empty
    }
  }

  const std::function<bool(const ast::VarDecl*)>& is_global_;
  const std::function<const ipa::FunctionSummary*(const ast::Call&)>& summary_of_;
  DeclSet candidates_;
  DeclSet exposed_;
};

}  // namespace

void Analyzer::compute_summaries(const ipa::CallGraph& graph) {
  compute_summaries(graph, /*roots=*/nullptr);
}

void Analyzer::compute_summaries(const ipa::CallGraph& graph,
                                 const std::set<const ast::FuncDecl*>* roots) {
  // With `roots`, only the summaries a restricted analysis can actually
  // consult are materialized. Analyzing (or re-summarizing) a function
  // consults its DIRECT callees' summaries — a summary already encapsulates
  // its own callees' transitive effects. The expansion therefore recurses
  // into a callee's callees only when that callee's summary will be
  // COMPUTED rather than rehydrated from the shared cache (shared-cache
  // probe miss): computing replays the cold bottom-up path and needs the
  // next level down, a rehydration is self-contained. For the incremental
  // engine this means a dirty leaf costs its callers plus one rehydrated
  // ring around the cone, not the whole program.
  std::set<const ast::FuncDecl*> needed;
  if (roots != nullptr) {
    std::vector<const ast::FuncDecl*> work;
    auto push_callees = [&](const ast::FuncDecl* f) {
      if (const ipa::CallGraph::Node* node = graph.node(f)) {
        for (const ast::FuncDecl* callee : node->callees) work.push_back(callee);
      }
    };
    // A root needs its direct callees' summaries only if it is summarized
    // itself (called: aggregation folds callee effects in) or its body has a
    // loop (any For/While makes the flow analysis consult call summaries —
    // straight-line call handling feeds loop entry state). A loop-free,
    // uncalled root (a pure dispatcher like main) is analyzed without ever
    // reading a summary, so its callees need none materialized.
    auto has_loop = [](const ast::FuncDecl* f) {
      bool found = false;
      ast::walk_stmts(static_cast<const ast::Stmt*>(f->body.get()),
                      [&found](const ast::Stmt* s) {
                        if (s->kind == ast::StmtNodeKind::For ||
                            s->kind == ast::StmtNodeKind::While) {
                          found = true;
                        }
                        return !found;
                      });
      return found;
    };
    for (const ast::FuncDecl* f : *roots) {
      const ipa::CallGraph::Node* node = graph.node(f);
      if ((node && node->called) || has_loop(f)) push_callees(f);
    }
    while (!work.empty()) {
      const ast::FuncDecl* f = work.back();
      work.pop_back();
      if (!needed.insert(f).second) continue;
      if (!shared_summary_available(f)) push_callees(f);
    }
  }
  for (const ast::FuncDecl* function : graph.bottom_up()) {
    const ipa::CallGraph::Node* node = graph.node(function);
    if (!node || !node->called) continue;  // only functions something calls
    if (roots != nullptr && needed.count(function) == 0 && roots->count(function) == 0) {
      continue;
    }
    // Bottom-up order keys callees before their callers, which is exactly
    // what the content address's transitive-closure composition needs.
    if (summaries_->shared()) compute_content_key(*function, graph);
    obtain_summary(function, /*entry_facts=*/nullptr, /*fingerprint=*/0, &graph);
  }
}

bool Analyzer::shared_summary_available(const ast::FuncDecl* function) const {
  ipa::CrossProgramCache* shared = summaries_ ? summaries_->shared() : nullptr;
  if (shared == nullptr) return false;
  auto it = content_keys_.find(function);
  if (it == content_keys_.end()) return false;
  // Must mirror obtain_summary's base-summary cache address exactly
  // (content key + encoded options + fingerprint 0, no entry facts).
  ipa::ContentHasher h;
  h.mix(it->second.first);
  h.mix(it->second.second);
  h.mix(static_cast<uint64_t>(ipa::SummaryDB::encode(options_)));
  h.mix(uint64_t{0});
  bool from_store = false;
  return shared->find(h.key(), &from_store) != nullptr;
}

void Analyzer::mix_function_identity(const ast::FuncDecl& function, ipa::ContentHasher& out,
                                     IdentityHashes* identities) const {
  if (identities != nullptr) {
    if (auto it = identities->find(&function); it != identities->end()) {
      out.mix(it->second.first);
      out.mix(it->second.second);
      return;
    }
  }
  ipa::ContentHasher h;
  // Signature + printed body: textual identity of the function itself. The
  // body prints without loop annotations: an annotated AST (one kept from an
  // earlier analysis) must key like a fresh parse of the same source.
  h.mix(function.name);
  h.mix(static_cast<uint64_t>(function.return_type));
  auto mix_decl_shape = [&h](const ast::VarDecl& decl) {
    h.mix(decl.name);
    h.mix(static_cast<uint64_t>(decl.elem_type));
    h.mix(static_cast<uint64_t>(decl.dims.size()));
    for (const auto& dim : decl.dims) {
      h.mix(dim ? ast::print_expr(*dim) : std::string("[]"));
    }
  };
  for (const auto& p : function.params) mix_decl_shape(*p);
  h.mix(ast::print_stmt(*function.body, 0, /*annotations=*/false));
  // Declaration shape + analysis assumptions of every referenced global: two
  // textually identical helpers over differently-sized (or differently
  // assumed) globals must not share a summary. Mixed in declaration (symbol)
  // order, because verdict text follows it: blockers and private clauses
  // list variables in that order.
  std::map<sym::SymbolId, const ast::VarDecl*> referenced;
  ast::walk_exprs(function.body.get(), [&](const ast::Expr* e) {
    const auto* var = e->as<ast::VarRef>();
    if (var && var->decl && is_global(var->decl)) referenced[var->decl->symbol] = var->decl;
  });
  for (const auto& [symbol, decl] : referenced) {
    mix_decl_shape(*decl);
    const sym::Range* bound = base_ctx_.bound(decl->symbol);
    h.mix(bound ? bound->to_string(symbols_) : std::string("-"));
  }
  const ipa::CacheKey identity = h.key();
  if (identities != nullptr) identities->emplace(&function, std::pair{identity.hi, identity.lo});
  out.mix(identity.hi);
  out.mix(identity.lo);
}

void Analyzer::compute_content_key(const ast::FuncDecl& function,
                                   const ipa::CallGraph& graph, IdentityHashes* identities) {
  if (content_keys_.count(&function)) return;
  const ipa::CallGraph::Node* node = graph.node(&function);
  if (node && node->recursive) {
    // Recursive functions are keyed as a whole SCC: a caller's key must
    // reflect the SCC's *content* (its may-write sets feed the caller's
    // summary), and a per-member marker could not do that.
    compute_scc_content_keys(function, graph, identities);
    return;
  }
  ipa::ContentHasher h;
  h.mix("sspar-summary-v1");
  mix_function_identity(function, h, identities);
  // Callee content keys: the summary folds callee effects in, so the address
  // must cover the transitive closure. Bottom-up order (with SCCs keyed as a
  // group) keys every defined callee before its callers; the fallback marker
  // only covers callees outside the traversal.
  if (node) {
    for (const ast::FuncDecl* callee : node->callees) {
      auto it = content_keys_.find(callee);
      if (it != content_keys_.end()) {
        h.mix(it->second.first);
        h.mix(it->second.second);
      } else {
        h.mix("unkeyed-callee");
        h.mix(callee->name);
      }
    }
    if (node->has_unknown_callee) h.mix("unknown-callee");
  }
  ipa::CacheKey key = h.key();
  content_keys_[&function] = {key.hi, key.lo};
}

void Analyzer::compute_scc_content_keys(const ast::FuncDecl& member,
                                        const ipa::CallGraph& graph,
                                        IdentityHashes* identities) {
  const ipa::CallGraph::Node* node = graph.node(&member);
  if (!node) return;
  std::vector<const ast::FuncDecl*> members = graph.scc_members(node->scc);
  if (members.empty()) members.push_back(&member);
  // Hash in name order so the combined key does not depend on discovery
  // order (names are unique per program).
  std::sort(members.begin(), members.end(),
            [](const ast::FuncDecl* a, const ast::FuncDecl* b) { return a->name < b->name; });
  ipa::ContentHasher h;
  h.mix("sspar-scc-v1");
  for (const ast::FuncDecl* f : members) {
    mix_function_identity(*f, h, identities);
    // Recursive summaries carry a failure location (W030x provenance); the
    // key must pin it so a cross-program hit never mis-attributes lines.
    h.mix(static_cast<uint64_t>(f->location.line));
    h.mix(static_cast<uint64_t>(f->location.column));
    const ipa::CallGraph::Node* n = graph.node(f);
    if (!n) continue;
    for (const ast::FuncDecl* callee : n->callees) {
      if (const ipa::CallGraph::Node* cn = graph.node(callee);
          cn && cn->scc == node->scc) {
        h.mix("scc-sibling");
        h.mix(callee->name);
        continue;
      }
      auto it = content_keys_.find(callee);  // bottom-up: externals keyed first
      if (it != content_keys_.end()) {
        h.mix(it->second.first);
        h.mix(it->second.second);
      } else {
        h.mix("unkeyed-callee");
        h.mix(callee->name);
      }
    }
    if (n->has_unknown_callee) h.mix("unknown-callee");
  }
  ipa::CacheKey combined = h.key();
  for (const ast::FuncDecl* f : members) {
    ipa::ContentHasher m;
    m.mix("sspar-scc-member-v1");
    m.mix(combined.hi);
    m.mix(combined.lo);
    m.mix(f->name);
    ipa::CacheKey key = m.key();
    content_keys_[f] = {key.hi, key.lo};
    scc_functions_.insert(f);
  }
}

const ipa::FunctionSummary* Analyzer::obtain_summary(const ast::FuncDecl* function,
                                                     const FactDB* entry_facts,
                                                     uint64_t fingerprint,
                                                     const ipa::CallGraph* graph) {
  if (const ipa::FunctionSummary* cached =
          summaries_->lookup(function, options_, fingerprint)) {
    return cached;
  }
  // Session miss: consult the cross-program cache before computing.
  ipa::CrossProgramCache* shared = summaries_->shared();
  ipa::CacheKey key;
  if (shared) {
    auto it = content_keys_.find(function);
    if (it != content_keys_.end()) {
      ipa::ContentHasher h;
      h.mix(it->second.first);
      h.mix(it->second.second);
      h.mix(static_cast<uint64_t>(ipa::SummaryDB::encode(options_)));
      h.mix(fingerprint);
      if (entry_facts) {
        // The fingerprint covers the facts' text; proofs made under them may
        // additionally depend on assumptions about scalars those facts
        // mention (e.g. a size symbol bounding another helper's values), so
        // fold those bounds into the address too.
        std::set<sym::SymbolId> mentioned = ipa::collect_fact_scalar_symbols(*entry_facts);
        std::vector<std::string> names;
        names.reserve(mentioned.size());
        for (sym::SymbolId id : mentioned) names.push_back(symbols_.name(id));
        std::sort(names.begin(), names.end());
        for (const std::string& name : names) {
          h.mix(name);
          const Range* bound = base_ctx_.bound(symbols_.lookup(name));
          h.mix(bound ? bound->to_string(symbols_) : std::string("-"));
        }
      }
      key = h.key();
      bool from_store = false;
      if (auto portable = shared->find(key, &from_store)) {
        if (auto summary = ipa::rehydrate(*portable, summaries_->scope(program_))) {
          if (scc_functions_.count(function)) summaries_->note_scc_summary();
          return &summaries_->insert(function, options_, fingerprint,
                                     std::move(*summary), /*from_shared=*/true,
                                     from_store);
        }
      }
      summaries_->note_shared_miss();
    }
  }
  ipa::FunctionSummary computed;
  if (fingerprint == 0) {
    computed = summarize_function(*function, *graph);
  } else {
    // context_summary guarantees an analyzable base exists.
    const ipa::FunctionSummary* base = summaries_->find(function, options_);
    computed = resummarize_with_context(*base, *entry_facts);
  }
  if (fingerprint == 0 && scc_functions_.count(function)) summaries_->note_scc_summary();
  const ipa::FunctionSummary& stored =
      summaries_->insert(function, options_, fingerprint, std::move(computed));
  // Analyzable summaries are always publishable; unanalyzable ones only for
  // SCC members, whose combined key pins the failure location (see
  // compute_scc_content_keys).
  const bool publishable = stored.analyzable || scc_functions_.count(function);
  if (shared && key && publishable) {
    if (auto portable = ipa::to_portable(stored, summaries_->scope(program_),
                                         /*allow_unanalyzable=*/true)) {
      shared->insert(key, std::move(*portable));
    }
  }
  return &stored;
}

const ipa::FunctionSummary* Analyzer::context_summary(
    const ast::Call& call, const FactDB& caller_facts,
    const std::set<sym::SymbolId>& stale_arrays,
    const std::function<bool(sym::SymbolId)>& scalar_unchanged) {
  const ipa::FunctionSummary* base = call_summary(call);
  if (!base || !base->analyzable || caller_facts.all().empty()) return base;
  FactDB projected =
      project_entry_facts(*base, caller_facts, stale_arrays, scalar_unchanged);
  if (projected.all().empty()) return base;
  uint64_t fingerprint = ipa::fingerprint_facts(projected, symbols_);
  const ipa::FunctionSummary* specialized =
      obtain_summary(call.decl, &projected, fingerprint, /*graph=*/nullptr);
  // Facts never make a body unanalyzable, but degrade soundly regardless.
  return (specialized && specialized->analyzable) ? specialized : base;
}

FactDB Analyzer::project_entry_facts(
    const ipa::FunctionSummary& base, const FactDB& caller_facts,
    const std::set<sym::SymbolId>& stale_arrays,
    const std::function<bool(sym::SymbolId)>& scalar_unchanged) const {
  // Arrays whose entry content the callee observes (transitively: reads of
  // analyzable callees are folded into `base.reads`).
  std::set<sym::SymbolId> read_arrays;
  for (const ArrayWriteEffect& r : base.reads) {
    if (r.array && is_global(r.array)) read_arrays.insert(r.array->symbol);
  }
  FactDB projected;
  if (read_arrays.empty()) return projected;
  auto visible = [&](const sym::ExprPtr& e) { return entry_visible(e, scalar_unchanged); };
  auto visible_range = [&](const sym::Range& r) {
    return (!r.lo() || visible(r.lo())) && (!r.hi() || visible(r.hi()));
  };
  for (const auto& [array, facts] : caller_facts.all()) {
    if (!read_arrays.count(array) || stale_arrays.count(array)) continue;
    ArrayFacts kept;
    for (const ValueFact& f : facts->values) {
      if (visible(f.lo) && visible(f.hi) && visible_range(f.value)) {
        kept.values.push_back(f);
      }
    }
    for (const StepFact& f : facts->steps) {
      if (visible(f.lo) && visible(f.hi) && visible_range(f.step)) {
        kept.steps.push_back(f);
      }
    }
    for (const InjectiveFact& f : facts->injectives) {
      if (visible(f.lo) && visible(f.hi)) kept.injectives.push_back(f);
    }
    for (const IdentityFact& f : facts->identities) {
      if (visible(f.lo) && visible(f.hi)) kept.identities.push_back(f);
    }
    if (!kept.empty()) projected.restore(array, std::move(kept));
  }
  return projected;
}

bool Analyzer::entry_visible(
    const sym::ExprPtr& e,
    const std::function<bool(sym::SymbolId)>& scalar_unchanged) const {
  if (!e) return false;
  return !sym::any_of(e, [&](const sym::Expr& n) {
    switch (n.kind) {
      case sym::ExprKind::IterStart:
      case sym::ExprKind::LoopStart:
      case sym::ExprKind::Bottom:
        return true;  // caller-flow state: meaningless at the callee's entry
      case sym::ExprKind::Sym:
        // Facts are in caller-entry terms; the callee reads the same symbol
        // as its call-time value. Only scalars provably unmodified since
        // caller entry mean the same thing in both frames.
        return global_by_symbol_.count(n.symbol) == 0 || !scalar_unchanged(n.symbol);
      case sym::ExprKind::ArrayElem:
        // Array contents may have changed between the fact's derivation and
        // the call; without element versioning (ROADMAP) the two frames
        // cannot be reconciled.
        return true;
      default:
        return false;
    }
  });
}

ipa::FunctionSummary Analyzer::resummarize_with_context(const ipa::FunctionSummary& base,
                                                        const FactDB& entry_facts) {
  ipa::FunctionSummary summary = base;  // gates + conservative sets carry over
  summary.scalar_finals.clear();
  summary.writes.clear();
  summary.reads.clear();
  summary.end_facts = FactDB{};
  summary.return_value.reset();
  summary.analyzable = false;
  summary.failure.clear();
  summarize_effects(*base.function, summary, &entry_facts);
  return summary;
}

ipa::FunctionSummary Analyzer::summarize_function(const ast::FuncDecl& function,
                                                  const ipa::CallGraph& graph) {
  ipa::FunctionSummary summary;
  summary.function = &function;

  // --- Conservative may-write sets (valid regardless of analyzability) ------
  for (const ast::VarDecl* decl : written_scalars(*function.body)) {
    if (!is_global(decl)) continue;
    summary.may_write_scalars.insert(decl);
    if (definitely_assigns(*function.body, decl)) {
      summary.definite_scalar_writes.insert(decl);
    }
  }
  for (const ast::VarDecl* arr : written_arrays(*function.body)) {
    if (is_global(arr)) {
      summary.may_write_arrays.insert(arr);
    } else if (arr->is_param) {
      summary.writes_array_params = true;
    }
  }
  const ipa::CallGraph::Node* node = graph.node(&function);
  if (node) {
    if (node->has_unknown_callee) summary.opaque = true;
    for (const ast::FuncDecl* callee : node->callees) {
      if (callee == &function) continue;
      const ipa::FunctionSummary* cs = summaries_->find(callee, options_);
      if (!cs) {
        // SCC sibling not summarized yet (mutual recursion): opaque.
        summary.opaque = true;
        continue;
      }
      summary.opaque = summary.opaque || cs->opaque;
      summary.may_write_scalars.insert(cs->may_write_scalars.begin(),
                                       cs->may_write_scalars.end());
      summary.may_write_arrays.insert(cs->may_write_arrays.begin(),
                                      cs->may_write_arrays.end());
    }
    // Arrays we pass to callees that store through their array parameters.
    for (const ast::Call* call : node->call_sites) {
      if (!call->decl) continue;
      const ipa::FunctionSummary* cs =
          call->decl == &function ? nullptr : summaries_->find(call->decl, options_);
      const bool callee_writes_params = !cs || cs->opaque || cs->writes_array_params;
      if (!callee_writes_params) continue;
      for (size_t i = 0; i < call->args.size() && i < call->decl->params.size(); ++i) {
        if (!call->decl->params[i]->is_array()) continue;
        if (const auto* var = call->args[i]->as<ast::VarRef>()) {
          if (!var->decl || !var->decl->is_array()) continue;
          if (is_global(var->decl)) {
            summary.may_write_arrays.insert(var->decl);
          } else if (var->decl->is_param) {
            summary.writes_array_params = true;
          }
        }
      }
    }
  }
  // Exposed global scalar reads, position-sensitive across statements and
  // call sites (reads of callees surface at their call position, definite
  // callee writes count as assignments): see ExposedScalarReads above.
  std::function<bool(const ast::VarDecl*)> global_scalar = [this](const ast::VarDecl* d) {
    return is_global(d);
  };
  std::function<const ipa::FunctionSummary*(const ast::Call&)> summary_of =
      [&](const ast::Call& call) -> const ipa::FunctionSummary* {
    if (!call.decl || call.decl == &function) return nullptr;
    return summaries_->find(call.decl, options_);
  };
  summary.exposed_scalar_reads =
      ExposedScalarReads(global_scalar, summary_of).run(function);

  // --- Analyzability gates ---------------------------------------------------
  auto fail = [&summary](support::SourceLocation loc, std::string why) {
    if (summary.analyzable || summary.failure.empty()) {
      summary.failure = std::move(why);
      summary.failure_location = loc;
    }
    summary.analyzable = false;
  };
  if (graph.is_recursive(&function)) {
    fail(function.location, "recursive");
    return summary;
  }
  if (node && node->has_unknown_callee) {
    std::string name;
    for (const ast::Call* call : node->call_sites) {
      if (!call->decl) {
        name = call->callee;
        break;
      }
    }
    fail(function.location, support::format("calls undefined function '%s'", name.c_str()));
    return summary;
  }

  summarize_effects(function, summary, /*entry_facts=*/nullptr);
  return summary;
}

void Analyzer::summarize_effects(const ast::FuncDecl& function,
                                 ipa::FunctionSummary& summary,
                                 const FactDB* entry_facts) {
  auto fail = [&summary](support::SourceLocation loc, std::string why) {
    if (summary.analyzable || summary.failure.empty()) {
      summary.failure = std::move(why);
      summary.failure_location = loc;
    }
    summary.analyzable = false;
  };

  // --- Effect computation: flow the body in function-entry terms -------------
  // Nested context-sensitive re-summaries re-enter this function mid-walk;
  // save/restore instead of toggling.
  const bool saved_mode = summary_mode_;
  summary_mode_ = true;
  ScalarEnv env;  // empty: every scalar reads as its own symbol
  // Base summaries flow from an empty fact database (context-insensitive);
  // context-sensitive re-summaries seed it with the caller's projected facts.
  FactDB facts;
  if (entry_facts) facts = *entry_facts;
  std::set<sym::SymbolId> local_arrays;
  bool ok = true;

  auto append_effects = [&](const std::vector<ArrayWriteEffect>& source,
                            std::vector<ArrayWriteEffect>& sink) {
    for (const ArrayWriteEffect& e : source) {
      if (!e.array) continue;
      // Effects on function-local arrays are invisible to callers.
      if (!is_global(e.array) && !e.array->is_param) continue;
      ArrayWriteEffect out = e;
      // Provenance is re-attributed to THIS function at the outer call site.
      out.summary_origin = nullptr;
      // A post-inc subscript through a by-value parameter or local does not
      // survive the call boundary.
      if (out.post_inc_subscript && !is_global(out.post_inc_subscript)) {
        out.post_inc_subscript = nullptr;
      }
      sink.push_back(std::move(out));
    }
  };

  std::function<void(const ast::Stmt&)> walk = [&](const ast::Stmt& stmt) {
    if (!ok) return;
    switch (stmt.kind) {
      case ast::StmtNodeKind::Empty:
        return;
      case ast::StmtNodeKind::Compound:
        for (const auto& s : stmt.as<ast::Compound>()->body) walk(*s);
        return;
      case ast::StmtNodeKind::For: {
        const auto& loop = *stmt.as<ast::For>();
        LoopEffect effect = analyze_loop(loop, env, facts);
        if (!effect.analyzable) {
          ok = false;
          fail(loop.location, "contains an unanalyzable loop");
          return;
        }
        apply_effect(loop, effect, env, facts);
        append_effects(effect.writes, summary.writes);
        append_effects(effect.reads, summary.reads);
        return;
      }
      case ast::StmtNodeKind::If:
      case ast::StmtNodeKind::ExprStmt:
      case ast::StmtNodeKind::DeclStmt: {
        BodyInterp interp(*this, stmt, /*index=*/nullptr, env, facts);
        if (!interp.run()) {
          ok = false;
          if (interp.failure) {
            fail(interp.failure->location, interp.failure->message);
          } else {
            fail(stmt.location, "contains an unanalyzable statement");
          }
          return;
        }
        for (const ast::VarDecl* local : interp.body_locals) {
          if (local->is_array()) local_arrays.insert(local->symbol);
        }
        apply_straight_line(interp, env, facts, /*track_provenance=*/false);
        append_effects(interp.writes, summary.writes);
        append_effects(interp.reads, summary.reads);
        return;
      }
      case ast::StmtNodeKind::Return:
        // Only a trailing return is modeled; the caller peels it off before
        // walking, so reaching one here means early control flow.
        ok = false;
        fail(stmt.location, "early return");
        return;
      case ast::StmtNodeKind::While:
        ok = false;
        fail(stmt.location, "contains a while loop");
        return;
      case ast::StmtNodeKind::Break:
      case ast::StmtNodeKind::Continue:
        ok = false;
        fail(stmt.location, "break/continue outside an analyzable loop");
        return;
    }
  };

  const auto& body = function.body->body;
  const ast::Return* trailing_return = nullptr;
  size_t count = body.size();
  if (!body.empty()) {
    if (const auto* ret = body.back()->as<ast::Return>()) {
      trailing_return = ret;
      --count;
    }
  }
  for (size_t i = 0; i < count && ok; ++i) walk(*body[i]);
  summary_mode_ = saved_mode;

  if (!ok) return;

  // --- Trailing return (before finals: it may carry side effects) ------------
  if (trailing_return && trailing_return->value) {
    // Evaluate the return expression through a BodyInterp so its effects are
    // summarized like any statement's: array reads feed the caller's
    // dependence test, side effects (x++, nested summarizable calls) update
    // the finals, and call values resolve through cached summaries.
    bool calls_ok = true;
    ast::walk_subexprs(trailing_return->value.get(), [&](const ast::Expr* e) {
      const auto* call = e->as<ast::Call>();
      if (!call || !calls_ok) return;
      if (auto vetoed = BodyInterp::vet_call(*this, *call)) {
        calls_ok = false;
        fail(vetoed->location, vetoed->message);
      }
    });
    if (!calls_ok) {
      summary.analyzable = false;
      return;
    }
    ast::Empty return_site;
    BodyInterp interp(*this, return_site, /*index=*/nullptr, env, facts);
    Range returned = interp.eval_expr(*trailing_return->value);
    apply_straight_line(interp, env, facts, /*track_provenance=*/false);
    append_effects(interp.writes, summary.writes);
    append_effects(interp.reads, summary.reads);
    if (function.return_type == ast::TypeKind::Int) {
      // ArrayElem atoms denote call-entry content at the call site; a
      // returned element of an array this function wrote would be misread.
      std::set<sym::SymbolId> written_arrays_syms;
      for (const auto& w : summary.writes) {
        if (w.array) written_arrays_syms.insert(w.array->symbol);
      }
      auto stale = [&](const sym::ExprPtr& e) {
        return e && sym::any_of(e, [&](const sym::Expr& n) {
                 return n.kind == sym::ExprKind::ArrayElem &&
                        written_arrays_syms.count(n.symbol) > 0;
               });
      };
      if (!stale(returned.lo()) && !stale(returned.hi())) summary.return_value = returned;
    }
  }

  // --- Finalize --------------------------------------------------------------
  for (const ast::VarDecl* decl : summary.may_write_scalars) {
    if (!decl->is_integer_scalar()) continue;
    const Range* final = env.find(decl);
    summary.scalar_finals[decl] = final ? *final : Range::bottom();
  }
  for (sym::SymbolId local : local_arrays) facts.kill_all(local);
  summary.end_facts = std::move(facts);
  summary.analyzable = true;
  summary.failure.clear();
}

const LoopSnapshot* Analyzer::snapshot(const ast::For* loop) const {
  auto it = loop_keys_.find(loop);
  if (it == loop_keys_.end()) return nullptr;
  auto found = snapshots_.find(it->second);
  return found == snapshots_.end() ? nullptr : &found->second;
}

const FactDB* Analyzer::facts_at_end(const ast::FuncDecl* function) const {
  auto it = end_facts_.find(function);
  return it == end_facts_.end() ? nullptr : &it->second;
}

}  // namespace sspar::core
