#include "ipa/cross_cache.h"

#include <algorithm>

#include "core/facts.h"
#include "frontend/ast.h"
#include "support/text.h"

namespace sspar::ipa {

using sym::ExprPtr;
using sym::Range;

// ---------------------------------------------------------------------------
// ContentHasher
// ---------------------------------------------------------------------------

namespace {

inline uint64_t fnv_step(uint64_t h, uint8_t byte) {
  return (h ^ byte) * 1099511628211ull;
}

}  // namespace

void ContentHasher::mix(std::string_view text) {
  for (unsigned char c : text) {
    a_ = fnv_step(a_, c);
    b_ = fnv_step(b_, static_cast<uint8_t>(c ^ 0x5a));
  }
  // Length terminator: "ab" + "c" must not collide with "a" + "bc".
  a_ = fnv_step(a_, 0xff);
  b_ = fnv_step(b_, 0xee);
}

void ContentHasher::mix(uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    a_ = fnv_step(a_, static_cast<uint8_t>(v >> (8 * i)));
    b_ = fnv_step(b_, static_cast<uint8_t>((v >> (8 * i)) ^ 0xa5));
  }
}

// ---------------------------------------------------------------------------
// Fact fingerprints
// ---------------------------------------------------------------------------

uint64_t fingerprint_facts(const core::FactDB& facts, const sym::SymbolTable& symbols) {
  if (facts.all().empty()) return 0;
  // Serialize arrays sorted by name (SymbolIds are session-local).
  std::vector<std::pair<std::string, sym::SymbolId>> arrays;
  for (const auto& [array, unused] : facts.all()) {
    arrays.emplace_back(symbols.name(array), array);
  }
  std::sort(arrays.begin(), arrays.end());
  ContentHasher h;
  h.mix("sspar-facts-v2");
  auto mix_expr = [&](const ExprPtr& e) {
    h.mix(e ? sym::to_string(e, symbols) : std::string("#"));
  };
  auto mix_range = [&](const Range& r) {
    mix_expr(r.lo());
    mix_expr(r.hi());
  };
  for (const auto& [name, array] : arrays) {
    const core::ArrayFacts* af = facts.find(array);
    if (!af) continue;
    h.mix(name);
    for (const auto& f : af->values) {
      h.mix("V");
      mix_expr(f.lo);
      mix_expr(f.hi);
      mix_range(f.value);
    }
    for (const auto& f : af->steps) {
      h.mix("S");
      mix_expr(f.lo);
      mix_expr(f.hi);
      mix_range(f.step);
    }
    for (const auto& f : af->injectives) {
      h.mix("I");
      mix_expr(f.lo);
      mix_expr(f.hi);
      // Presence encoded separately: a +1 offset would alias min_value == -1
      // with the no-threshold case.
      h.mix(f.min_value ? "m" : "-");
      if (f.min_value) h.mix(static_cast<uint64_t>(*f.min_value));
      h.mix(f.from_chain ? "c" : "-");
    }
    for (const auto& f : af->identities) {
      h.mix("D");
      mix_expr(f.lo);
      mix_expr(f.hi);
    }
  }
  uint64_t fp = h.value64();
  return fp == 0 ? 1 : fp;  // 0 is reserved for "no entry facts"
}

std::set<sym::SymbolId> collect_fact_scalar_symbols(const core::FactDB& facts) {
  std::set<sym::SymbolId> mentioned;
  auto collect = [&mentioned](const ExprPtr& e) {
    if (!e) return;
    (void)sym::any_of(e, [&mentioned](const sym::Expr& n) {
      if (n.kind == sym::ExprKind::Sym) mentioned.insert(n.symbol);
      return false;
    });
  };
  auto collect_range = [&collect](const Range& r) {
    collect(r.lo());
    collect(r.hi());
  };
  for (const auto& [array, af_ptr] : facts.all()) {
    (void)array;
    const core::ArrayFacts& af = *af_ptr;
    for (const auto& f : af.values) {
      collect(f.lo);
      collect(f.hi);
      collect_range(f.value);
    }
    for (const auto& f : af.steps) {
      collect(f.lo);
      collect(f.hi);
      collect_range(f.step);
    }
    for (const auto& f : af.injectives) {
      collect(f.lo);
      collect(f.hi);
    }
    for (const auto& f : af.identities) {
      collect(f.lo);
      collect(f.hi);
    }
  }
  return mentioned;
}

// ---------------------------------------------------------------------------
// ProgramScope
// ---------------------------------------------------------------------------

ProgramScope::ProgramScope(const ast::Program& program) : program_(program) {
  for (const auto& g : program.globals) {
    global_names_.emplace(g->symbol, &g->name);
    auto [it, fresh] = globals_.emplace(g->name, g.get());
    if (!fresh) {
      globals_distinct_ = false;
      it->second = g.get();  // later references see the newer declaration
    }
  }
  for (const auto& f : program.functions) functions_.emplace(f->name, f.get());
}

const std::string* ProgramScope::name_of(const ast::FuncDecl& function,
                                         sym::SymbolId symbol) const {
  for (const auto& p : function.params) {
    if (p->symbol == symbol) return &p->name;
  }
  auto it = global_names_.find(symbol);
  return it == global_names_.end() ? nullptr : it->second;
}

bool ProgramScope::names_distinct(const ast::FuncDecl& function) const {
  if (!globals_distinct_) return false;
  const auto& params = function.params;
  for (size_t i = 0; i < params.size(); ++i) {
    if (globals_.count(params[i]->name) != 0) return false;
    for (size_t j = 0; j < i; ++j) {
      if (params[j]->name == params[i]->name) return false;
    }
  }
  return true;
}

const ast::VarDecl* ProgramScope::resolve(const ast::FuncDecl& function,
                                          const std::string& name) const {
  for (auto p = function.params.rbegin(); p != function.params.rend(); ++p) {
    if ((*p)->name == name) return p->get();
  }
  auto it = globals_.find(name);
  return it == globals_.end() ? nullptr : it->second;
}

const ast::FuncDecl* ProgramScope::find_function(const std::string& name) const {
  auto it = functions_.find(name);
  return it == functions_.end() ? nullptr : it->second;
}

// ---------------------------------------------------------------------------
// to_portable
// ---------------------------------------------------------------------------

namespace {

// Declaration namespace of one conversion: the program's global scope
// overlaid by one function's parameters, exactly as sema scopes them.
class DeclScope {
 public:
  DeclScope(const ProgramScope& scope, const ast::FuncDecl& function)
      : scope_(scope), function_(function) {}

  const std::string* name_of(sym::SymbolId symbol) const {
    return scope_.name_of(function_, symbol);
  }
  const ast::VarDecl* resolve(const std::string& name) const {
    return scope_.resolve(function_, name);
  }

 private:
  const ProgramScope& scope_;
  const ast::FuncDecl& function_;
};

bool expr_to_portable(const ExprPtr& e, const DeclScope& names, PortableExpr& out) {
  if (!e) return false;
  out.kind = e->kind;
  out.value = e->value;
  out.coeffs = e->coeffs;
  switch (e->kind) {
    case sym::ExprKind::Sym:
    case sym::ExprKind::IterStart:
    case sym::ExprKind::LoopStart:
    case sym::ExprKind::ArrayElem: {
      const std::string* name = names.name_of(e->symbol);
      if (!name) return false;  // session-local symbol (e.g. a body local)
      out.symbol = *name;
      break;
    }
    default:
      break;
  }
  out.operands.resize(e->operands.size());
  for (size_t i = 0; i < e->operands.size(); ++i) {
    if (!expr_to_portable(e->operands[i], names, out.operands[i])) return false;
  }
  return true;
}

bool range_to_portable(const Range& r, const DeclScope& names, PortableRange& out) {
  if (r.lo()) {
    out.lo.emplace();
    if (!expr_to_portable(r.lo(), names, *out.lo)) return false;
  }
  if (r.hi()) {
    out.hi.emplace();
    if (!expr_to_portable(r.hi(), names, *out.hi)) return false;
  }
  return true;
}

bool effect_to_portable(const core::ArrayWriteEffect& e, const DeclScope& names,
                        PortableEffect& out) {
  if (!e.array) return false;
  out.array = e.array->name;
  out.dims = e.dims;
  if (e.index) {
    out.index.emplace();
    if (!expr_to_portable(e.index, names, *out.index)) return false;
  }
  if (!range_to_portable(e.index_range, names, out.index_range)) return false;
  if (!range_to_portable(e.value, names, out.value)) return false;
  out.conditional = e.conditional;
  out.from_inner = e.from_inner;
  for (const core::AccessGuard& g : e.guards) {
    if (!g.array || !g.index) return false;
    PortableGuard pg;
    pg.array = g.array->name;
    pg.min = g.min;
    if (!expr_to_portable(g.index, names, pg.index)) return false;
    out.guards.push_back(std::move(pg));
  }
  if (e.via_array) {
    out.via_array = e.via_array->name;
    if (!range_to_portable(e.via_domain, names, out.via_domain)) return false;
  }
  if (e.post_inc_subscript) out.post_inc_subscript = e.post_inc_subscript->name;
  return true;
}

}  // namespace

std::optional<PortableSummary> to_portable(const FunctionSummary& summary,
                                           const ProgramScope& scope,
                                           bool allow_unanalyzable) {
  if (!summary.function) return std::nullopt;
  if ((!summary.analyzable || summary.opaque) && !allow_unanalyzable) return std::nullopt;

  // The name namespace: the program's global scope plus the function's
  // parameters — exactly what rehydration resolves against. The
  // whole global scope (not just declarations the summary mentions) because
  // a context-sensitive summary's entry facts may reference globals the
  // callee itself never touches (e.g. a size symbol bounding another
  // helper's fill values).
  if (!scope.names_distinct(*summary.function)) return std::nullopt;  // shadowed name
  const DeclScope names(scope, *summary.function);

  PortableSummary out;
  out.function = summary.function->name;
  out.writes_array_params = summary.writes_array_params;
  out.analyzable = summary.analyzable;
  out.opaque = summary.opaque;
  if (!summary.analyzable) {
    out.failure = summary.failure;
    out.failure_line = summary.failure_location.line;
    out.failure_column = summary.failure_location.column;
  }
  out.entry_fingerprint = summary.entry_fingerprint;
  for (const ast::VarDecl* d : summary.may_write_scalars) {
    out.may_write_scalars.push_back(d->name);
  }
  for (const ast::VarDecl* d : summary.may_write_arrays) {
    out.may_write_arrays.push_back(d->name);
  }
  for (const ast::VarDecl* d : summary.definite_scalar_writes) {
    out.definite_scalar_writes.push_back(d->name);
  }
  for (const ast::VarDecl* d : summary.exposed_scalar_reads) {
    out.exposed_scalar_reads.push_back(d->name);
  }
  // std::set<VarDecl*> iterates in pointer order; sort the name lists so the
  // portable form (and everything rehydrated from it) is address-independent.
  std::sort(out.may_write_scalars.begin(), out.may_write_scalars.end());
  std::sort(out.may_write_arrays.begin(), out.may_write_arrays.end());
  std::sort(out.definite_scalar_writes.begin(), out.definite_scalar_writes.end());
  std::sort(out.exposed_scalar_reads.begin(), out.exposed_scalar_reads.end());

  for (const auto& [decl, final] : summary.scalar_finals) {
    PortableRange r;
    if (!range_to_portable(final, names, r)) return std::nullopt;
    out.scalar_finals.emplace(decl->name, std::move(r));
  }
  for (const auto& w : summary.writes) {
    PortableEffect e;
    if (!effect_to_portable(w, names, e)) return std::nullopt;
    out.writes.push_back(std::move(e));
  }
  for (const auto& r : summary.reads) {
    PortableEffect e;
    if (!effect_to_portable(r, names, e)) return std::nullopt;
    out.reads.push_back(std::move(e));
  }
  for (const auto& [array, facts_ptr] : summary.end_facts.all()) {
    const core::ArrayFacts& facts = *facts_ptr;
    const std::string* array_name = names.name_of(array);
    if (!array_name) return std::nullopt;
    PortableArrayFacts pf;
    for (const auto& f : facts.values) {
      PortableValueFact v;
      if (!expr_to_portable(f.lo, names, v.lo)) return std::nullopt;
      if (!expr_to_portable(f.hi, names, v.hi)) return std::nullopt;
      if (!range_to_portable(f.value, names, v.value)) return std::nullopt;
      pf.values.push_back(std::move(v));
    }
    for (const auto& f : facts.steps) {
      PortableStepFact s;
      if (!expr_to_portable(f.lo, names, s.lo)) return std::nullopt;
      if (!expr_to_portable(f.hi, names, s.hi)) return std::nullopt;
      if (!range_to_portable(f.step, names, s.step)) return std::nullopt;
      pf.steps.push_back(std::move(s));
    }
    for (const auto& f : facts.injectives) {
      PortableInjectiveFact s;
      if (!expr_to_portable(f.lo, names, s.lo)) return std::nullopt;
      if (!expr_to_portable(f.hi, names, s.hi)) return std::nullopt;
      s.min_value = f.min_value;
      s.from_chain = f.from_chain;
      pf.injectives.push_back(std::move(s));
    }
    for (const auto& f : facts.identities) {
      PortableIdentityFact s;
      if (!expr_to_portable(f.lo, names, s.lo)) return std::nullopt;
      if (!expr_to_portable(f.hi, names, s.hi)) return std::nullopt;
      pf.identities.push_back(std::move(s));
    }
    out.end_facts.emplace(*array_name, std::move(pf));
  }
  if (summary.return_value) {
    out.return_value.emplace();
    if (!range_to_portable(*summary.return_value, names, *out.return_value)) {
      return std::nullopt;
    }
  }
  return out;
}

// ---------------------------------------------------------------------------
// rehydrate
// ---------------------------------------------------------------------------

namespace {

ExprPtr expr_from_portable(const PortableExpr& p, const DeclScope& decls) {
  switch (p.kind) {
    case sym::ExprKind::Const:
      return sym::make_const(p.value);
    case sym::ExprKind::Bottom:
      return sym::make_bottom();
    case sym::ExprKind::Sym:
    case sym::ExprKind::IterStart:
    case sym::ExprKind::LoopStart: {
      const ast::VarDecl* decl = decls.resolve(p.symbol);
      if (!decl) return nullptr;
      if (p.kind == sym::ExprKind::Sym) return sym::make_sym(decl->symbol);
      if (p.kind == sym::ExprKind::IterStart) return sym::make_iter_start(decl->symbol);
      return sym::make_loop_start(decl->symbol);
    }
    case sym::ExprKind::ArrayElem: {
      const ast::VarDecl* decl = decls.resolve(p.symbol);
      if (!decl || p.operands.size() != 1) return nullptr;
      ExprPtr index = expr_from_portable(p.operands[0], decls);
      if (!index) return nullptr;
      return sym::make_array_elem(decl->symbol, index);
    }
    case sym::ExprKind::Add: {
      if (p.coeffs.size() != p.operands.size()) return nullptr;
      ExprPtr acc = sym::make_const(p.value);
      for (size_t i = 0; i < p.operands.size(); ++i) {
        ExprPtr term = expr_from_portable(p.operands[i], decls);
        if (!term) return nullptr;
        acc = sym::add(acc, sym::mul_const(term, p.coeffs[i]));
      }
      return acc;
    }
    case sym::ExprKind::Mul: {
      ExprPtr acc = nullptr;
      for (const PortableExpr& op : p.operands) {
        ExprPtr factor = expr_from_portable(op, decls);
        if (!factor) return nullptr;
        acc = acc ? sym::mul(acc, factor) : factor;
      }
      return acc;
    }
    case sym::ExprKind::Div:
    case sym::ExprKind::Mod: {
      if (p.operands.size() != 2) return nullptr;
      ExprPtr num = expr_from_portable(p.operands[0], decls);
      ExprPtr den = expr_from_portable(p.operands[1], decls);
      if (!num || !den) return nullptr;
      return p.kind == sym::ExprKind::Div ? sym::div_floor(num, den) : sym::mod(num, den);
    }
    case sym::ExprKind::Min:
    case sym::ExprKind::Max: {
      ExprPtr acc = nullptr;
      for (const PortableExpr& op : p.operands) {
        ExprPtr next = expr_from_portable(op, decls);
        if (!next) return nullptr;
        if (!acc) {
          acc = next;
        } else {
          acc = p.kind == sym::ExprKind::Min ? sym::smin(acc, next) : sym::smax(acc, next);
        }
      }
      return acc;
    }
  }
  return nullptr;
}

bool range_from_portable(const PortableRange& p, const DeclScope& decls, Range& out) {
  ExprPtr lo = nullptr, hi = nullptr;
  if (p.lo) {
    lo = expr_from_portable(*p.lo, decls);
    if (!lo) return false;
  }
  if (p.hi) {
    hi = expr_from_portable(*p.hi, decls);
    if (!hi) return false;
  }
  out = Range::of(lo, hi);
  return true;
}

bool effect_from_portable(const PortableEffect& p, const DeclScope& decls,
                          core::ArrayWriteEffect& out) {
  out.array = decls.resolve(p.array);
  if (!out.array) return false;
  out.dims = p.dims;
  if (p.index) {
    out.index = expr_from_portable(*p.index, decls);
    if (!out.index) return false;
  }
  if (!range_from_portable(p.index_range, decls, out.index_range)) return false;
  if (!range_from_portable(p.value, decls, out.value)) return false;
  out.conditional = p.conditional;
  out.from_inner = p.from_inner;
  for (const PortableGuard& g : p.guards) {
    core::AccessGuard guard;
    guard.array = decls.resolve(g.array);
    guard.index = expr_from_portable(g.index, decls);
    guard.min = g.min;
    if (!guard.array || !guard.index) return false;
    out.guards.push_back(std::move(guard));
  }
  if (!p.via_array.empty()) {
    out.via_array = decls.resolve(p.via_array);
    if (!out.via_array) return false;
    if (!range_from_portable(p.via_domain, decls, out.via_domain)) return false;
  }
  if (!p.post_inc_subscript.empty()) {
    out.post_inc_subscript = decls.resolve(p.post_inc_subscript);
    if (!out.post_inc_subscript) return false;
  }
  out.summary_origin = nullptr;
  return true;
}

}  // namespace

std::optional<FunctionSummary> rehydrate(const PortableSummary& portable,
                                         const ProgramScope& scope) {
  const ast::FuncDecl* function = scope.find_function(portable.function);
  if (!function) return std::nullopt;
  const DeclScope decls(scope, *function);

  FunctionSummary out;
  out.function = function;
  out.writes_array_params = portable.writes_array_params;
  out.opaque = portable.opaque;
  out.entry_fingerprint = portable.entry_fingerprint;
  auto resolve_into = [&](const std::vector<std::string>& names,
                          std::set<const ast::VarDecl*>& sink) {
    for (const std::string& name : names) {
      const ast::VarDecl* decl = decls.resolve(name);
      if (!decl) return false;
      sink.insert(decl);
    }
    return true;
  };
  if (!resolve_into(portable.may_write_scalars, out.may_write_scalars)) return std::nullopt;
  if (!resolve_into(portable.may_write_arrays, out.may_write_arrays)) return std::nullopt;
  if (!resolve_into(portable.definite_scalar_writes, out.definite_scalar_writes)) {
    return std::nullopt;
  }
  if (!resolve_into(portable.exposed_scalar_reads, out.exposed_scalar_reads)) {
    return std::nullopt;
  }
  for (const auto& [name, r] : portable.scalar_finals) {
    const ast::VarDecl* decl = decls.resolve(name);
    Range range;
    if (!decl || !range_from_portable(r, decls, range)) return std::nullopt;
    out.scalar_finals.emplace(decl, std::move(range));
  }
  for (const PortableEffect& e : portable.writes) {
    core::ArrayWriteEffect effect;
    if (!effect_from_portable(e, decls, effect)) return std::nullopt;
    out.writes.push_back(std::move(effect));
  }
  for (const PortableEffect& e : portable.reads) {
    core::ArrayWriteEffect effect;
    if (!effect_from_portable(e, decls, effect)) return std::nullopt;
    out.reads.push_back(std::move(effect));
  }
  for (const auto& [array_name, pf] : portable.end_facts) {
    const ast::VarDecl* array = decls.resolve(array_name);
    if (!array) return std::nullopt;
    core::ArrayFacts facts;
    for (const auto& f : pf.values) {
      core::ValueFact v;
      v.lo = expr_from_portable(f.lo, decls);
      v.hi = expr_from_portable(f.hi, decls);
      if (!v.lo || !v.hi || !range_from_portable(f.value, decls, v.value)) {
        return std::nullopt;
      }
      facts.values.push_back(std::move(v));
    }
    for (const auto& f : pf.steps) {
      core::StepFact s;
      s.lo = expr_from_portable(f.lo, decls);
      s.hi = expr_from_portable(f.hi, decls);
      if (!s.lo || !s.hi || !range_from_portable(f.step, decls, s.step)) {
        return std::nullopt;
      }
      facts.steps.push_back(std::move(s));
    }
    for (const auto& f : pf.injectives) {
      core::InjectiveFact s;
      s.lo = expr_from_portable(f.lo, decls);
      s.hi = expr_from_portable(f.hi, decls);
      s.min_value = f.min_value;
      s.from_chain = f.from_chain;
      if (!s.lo || !s.hi) return std::nullopt;
      facts.injectives.push_back(std::move(s));
    }
    for (const auto& f : pf.identities) {
      core::IdentityFact s;
      s.lo = expr_from_portable(f.lo, decls);
      s.hi = expr_from_portable(f.hi, decls);
      if (!s.lo || !s.hi) return std::nullopt;
      facts.identities.push_back(std::move(s));
    }
    out.end_facts.restore(array->symbol, std::move(facts));
  }
  if (portable.return_value) {
    Range range;
    if (!range_from_portable(*portable.return_value, decls, range)) return std::nullopt;
    out.return_value = std::move(range);
  }
  out.analyzable = portable.analyzable;
  if (!portable.analyzable) {
    // SCC-member summaries: the content key folds the members' source
    // locations in, so the stored line/column are valid for this program.
    out.failure = portable.failure;
    out.failure_location.line = portable.failure_line;
    out.failure_location.column = portable.failure_column;
  }
  return out;
}

// ---------------------------------------------------------------------------
// CrossProgramCache
// ---------------------------------------------------------------------------

std::shared_ptr<const PortableSummary> CrossProgramCache::find(const CacheKey& key,
                                                               bool* from_store) {
  if (from_store) *from_store = false;
  std::lock_guard<std::mutex> lock(mutex_);
  ++stats_.lookups;
  auto it = entries_.find(key);
  if (it == entries_.end()) {
    ++stats_.misses;
    return nullptr;
  }
  ++stats_.hits;
  Entry& entry = it->second;
  ++entry.hits;
  if (!entry.queued) {
    entry.queued = true;
    changed_.push_back(key);
  }
  if (entry.preloaded) {
    ++stats_.preloaded_hits;
    if (from_store) *from_store = true;
  }
  return it->second.summary;
}

bool CrossProgramCache::insert_impl(const CacheKey& key, PortableSummary summary,
                                    bool preloaded) {
  auto entry = std::make_shared<const PortableSummary>(std::move(summary));
  std::lock_guard<std::mutex> lock(mutex_);
  auto [it, inserted] =
      entries_.emplace(key, Entry{std::move(entry), preloaded, /*queued=*/!preloaded, 0});
  (void)it;
  if (inserted) {
    if (preloaded) {
      ++stats_.preloaded;
    } else {
      ++stats_.inserts;
      changed_.push_back(key);
    }
    stats_.entries = entries_.size();
  }
  return inserted;
}

void CrossProgramCache::insert(const CacheKey& key, PortableSummary summary) {
  insert_impl(key, std::move(summary), /*preloaded=*/false);
}

void CrossProgramCache::insert_preloaded(const CacheKey& key, PortableSummary summary) {
  insert_impl(key, std::move(summary), /*preloaded=*/true);
}

std::vector<CrossProgramCache::Snapshot> CrossProgramCache::take_changes() {
  std::lock_guard<std::mutex> lock(mutex_);
  std::sort(changed_.begin(), changed_.end());
  std::vector<Snapshot> out;
  out.reserve(changed_.size());
  for (const CacheKey& key : changed_) {
    Entry& entry = entries_.at(key);
    entry.queued = false;
    out.push_back(Snapshot{key, entry.summary, entry.preloaded, entry.hits});
  }
  changed_.clear();
  return out;
}

CrossProgramCache::Stats CrossProgramCache::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return stats_;
}

size_t CrossProgramCache::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return entries_.size();
}

}  // namespace sspar::ipa
