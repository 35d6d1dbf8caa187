#include "ipa/summary.h"

#include "ipa/cross_cache.h"

namespace sspar::ipa {

// ---------------------------------------------------------------------------
// SummaryDB
// ---------------------------------------------------------------------------

SummaryDB::SummaryDB() = default;
SummaryDB::~SummaryDB() = default;

uint32_t SummaryDB::encode(const core::AnalyzerOptions& o) {
  uint32_t bits = 0;
  auto push = [&bits](bool b) { bits = (bits << 1) | (b ? 1u : 0u); };
  push(o.enable_identity_rule);
  push(o.enable_affine_value_rule);
  push(o.enable_recurrence_rule);
  push(o.enable_inverse_perm_rule);
  push(o.enable_dense_prefix_rule);
  push(o.enable_branch_rules);
  push(o.enable_copy_rule);
  push(o.enable_lambda_sum_rule);
  push(o.enable_chain_injectivity_rule);
  return bits;
}

const FunctionSummary* SummaryDB::find(const ast::FuncDecl* function,
                                       const core::AnalyzerOptions& options,
                                       uint64_t fingerprint) const {
  auto it = entries_.find(Key{function, encode(options), fingerprint});
  return it == entries_.end() ? nullptr : &it->second;
}

const FunctionSummary* SummaryDB::lookup(const ast::FuncDecl* function,
                                         const core::AnalyzerOptions& options,
                                         uint64_t fingerprint) {
  const FunctionSummary* found = find(function, options, fingerprint);
  if (found) ++stats_.hits;
  return found;
}

const FunctionSummary& SummaryDB::insert(const ast::FuncDecl* function,
                                         const core::AnalyzerOptions& options,
                                         uint64_t fingerprint, FunctionSummary summary,
                                         bool from_shared, bool from_store) {
  if (from_shared) {
    ++stats_.shared_hits;
    if (from_store) ++stats_.store_hits;
  } else {
    ++stats_.computed;
  }
  // Counted whether computed or rehydrated: "context summaries materialized"
  // stays deterministic when batch scheduling decides who computes first.
  if (fingerprint != 0) ++stats_.context_computed;
  summary.entry_fingerprint = fingerprint;
  auto [it, inserted] = entries_.insert_or_assign(Key{function, encode(options), fingerprint},
                                                  std::move(summary));
  (void)inserted;
  return it->second;
}

const ProgramScope& SummaryDB::scope(const ast::Program& program) {
  if (!scope_ || &scope_->program() != &program) {
    scope_ = std::make_unique<const ProgramScope>(program);
  }
  return *scope_;
}

void SummaryDB::clear() {
  entries_.clear();
  stats_ = Stats{};
  scope_.reset();
}

// ---------------------------------------------------------------------------
// SummaryApplier
// ---------------------------------------------------------------------------

void SummaryApplier::bind(sym::SymbolId id, sym::Range value) {
  bindings_[id] = std::move(value);
}

void SummaryApplier::bind_array(const ast::VarDecl* formal, const ast::VarDecl* actual) {
  array_map_[formal] = actual;
  array_symbol_map_[formal->symbol] = actual->symbol;
}

void SummaryApplier::mark_stale(sym::SymbolId array) { stale_arrays_.insert(array); }

const ast::VarDecl* SummaryApplier::remap_array(const ast::VarDecl* array) const {
  auto it = array_map_.find(array);
  return it == array_map_.end() ? array : it->second;
}

sym::SymbolId SummaryApplier::remap_array_symbol(sym::SymbolId array) const {
  auto it = array_symbol_map_.find(array);
  return it == array_symbol_map_.end() ? array : it->second;
}

sym::ExprPtr SummaryApplier::apply(const sym::ExprPtr& e) const {
  if (!e) return nullptr;
  switch (e->kind) {
    case sym::ExprKind::Const:
      return e;
    case sym::ExprKind::Sym: {
      auto it = bindings_.find(e->symbol);
      if (it == bindings_.end()) return nullptr;  // unbound entry state
      return it->second.exact_value();            // null when non-exact
    }
    case sym::ExprKind::IterStart:
    case sym::ExprKind::LoopStart:
    case sym::ExprKind::Bottom:
      // λ/Λ atoms are loop-internal and never survive into a whole-function
      // summary; treat a stray one as not instantiable.
      return nullptr;
    case sym::ExprKind::ArrayElem: {
      sym::SymbolId array = remap_array_symbol(e->symbol);
      if (stale_arrays_.count(array)) return nullptr;
      sym::ExprPtr index = apply(e->operands[0]);
      if (!index) return nullptr;
      return sym::make_array_elem(array, index);
    }
    case sym::ExprKind::Add: {
      sym::ExprPtr acc = sym::make_const(e->value);
      for (size_t i = 0; i < e->operands.size(); ++i) {
        sym::ExprPtr term = apply(e->operands[i]);
        if (!term) return nullptr;
        acc = sym::add(acc, sym::mul_const(term, e->coeffs[i]));
      }
      return acc;
    }
    case sym::ExprKind::Mul: {
      sym::ExprPtr acc = nullptr;
      for (const sym::ExprPtr& op : e->operands) {
        sym::ExprPtr factor = apply(op);
        if (!factor) return nullptr;
        acc = acc ? sym::mul(acc, factor) : factor;
      }
      return acc;
    }
    case sym::ExprKind::Div:
    case sym::ExprKind::Mod: {
      sym::ExprPtr num = apply(e->operands[0]);
      sym::ExprPtr den = apply(e->operands[1]);
      if (!num || !den) return nullptr;
      return e->kind == sym::ExprKind::Div ? sym::div_floor(num, den) : sym::mod(num, den);
    }
    case sym::ExprKind::Min:
    case sym::ExprKind::Max: {
      sym::ExprPtr acc = nullptr;
      for (const sym::ExprPtr& op : e->operands) {
        sym::ExprPtr next = apply(op);
        if (!next) return nullptr;
        if (!acc) {
          acc = next;
        } else {
          acc = e->kind == sym::ExprKind::Min ? sym::smin(acc, next) : sym::smax(acc, next);
        }
      }
      return acc;
    }
  }
  return nullptr;
}

sym::Range SummaryApplier::apply(const sym::Range& r) const {
  if (r.is_bottom()) return sym::Range::bottom();
  return sym::Range::of(apply(r.lo()), apply(r.hi()));
}

}  // namespace sspar::ipa
