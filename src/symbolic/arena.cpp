#include "symbolic/arena.h"

#include <cassert>
#include <cstring>
#include <new>

namespace sspar::sym {

namespace {

thread_local ExprArena* g_current_arena = nullptr;

inline size_t hash_combine(size_t h, size_t v) {
  return h ^ (v + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2));
}

// Structural hash over a node "key view". Children contribute their cached
// hash_value, so the result is identical for structurally equal nodes across
// arenas and equals the hash the node will cache once interned.
size_t shallow_hash(ExprKind kind, int64_t value, SymbolId symbol, const ExprPtr* ops,
                    size_t nops, const int64_t* coeffs, size_t ncoeffs) {
  size_t h = static_cast<size_t>(kind) * 0x9e3779b97f4a7c15ull;
  h = hash_combine(h, static_cast<size_t>(value));
  h = hash_combine(h, static_cast<size_t>(symbol));
  for (size_t i = 0; i < nops; ++i) h = hash_combine(h, ops[i]->hash_value);
  for (size_t i = 0; i < ncoeffs; ++i) h = hash_combine(h, static_cast<size_t>(coeffs[i]));
  return h;
}

// Shallow structural identity between an interned node and a key view:
// children are compared by pointer (within one arena, interning makes this
// exact structural equality).
bool matches(const Expr& node, ExprKind kind, int64_t value, SymbolId symbol,
             const ExprPtr* ops, size_t nops, const int64_t* coeffs, size_t ncoeffs) {
  if (node.kind != kind || node.value != value || node.symbol != symbol) return false;
  if (node.operands.size() != nops || node.coeffs.size() != ncoeffs) return false;
  for (size_t i = 0; i < nops; ++i) {
    if (node.operands[i] != ops[i]) return false;
  }
  for (size_t i = 0; i < ncoeffs; ++i) {
    if (node.coeffs[i] != coeffs[i]) return false;
  }
  return true;
}

}  // namespace

ExprArena::ExprArena() {
  table_.resize(1024);
  // Bottom and the small constants are pre-interned so the hottest atoms
  // resolve through direct loads.
  bottom_ = node(ExprKind::Bottom, 0, kInvalidSymbol, nullptr, 0);
  for (int64_t v = kConstLo; v <= kConstHi; ++v) {
    small_consts_[v - kConstLo] = node(ExprKind::Const, v, kInvalidSymbol, nullptr, 0);
  }
}

ExprArena::~ExprArena() {
  for (const Expr* e : nodes_) const_cast<Expr*>(e)->~Expr();
}

ExprArena& ExprArena::current() {
  if (g_current_arena) return *g_current_arena;
  static thread_local ExprArena default_arena;
  return default_arena;
}

Expr* ExprArena::allocate(ExprKind kind) {
  if (block_used_ == kBlockNodes) {
    blocks_.push_back(std::make_unique<std::byte[]>(kBlockNodes * sizeof(Expr)));
    block_used_ = 0;
  }
  void* slot = blocks_.back().get() + block_used_ * sizeof(Expr);
  ++block_used_;
  Expr* e = new (slot) Expr(kind);
  e->id = static_cast<uint32_t>(nodes_.size());
  nodes_.push_back(e);
  return e;
}

void ExprArena::insert(size_t hash, const Expr* node) {
  size_t mask = table_.size() - 1;
  size_t i = hash & mask;
  while (table_[i].node) i = (i + 1) & mask;
  table_[i] = {hash, node};
  ++table_used_;
}

void ExprArena::rehash(size_t new_capacity) {
  std::vector<TableSlot> old = std::move(table_);
  table_.assign(new_capacity, TableSlot{});
  table_used_ = 0;
  for (const TableSlot& slot : old) {
    if (slot.node) insert(slot.hash, slot.node);
  }
}

ExprPtr ExprArena::node(ExprKind kind, int64_t value, SymbolId symbol, const ExprPtr* ops,
                        size_t nops, const int64_t* coeffs, size_t ncoeffs) {
  size_t h = shallow_hash(kind, value, symbol, ops, nops, coeffs, ncoeffs);
  size_t mask = table_.size() - 1;
  size_t i = h & mask;
  while (table_[i].node) {
    if (table_[i].hash == h &&
        matches(*table_[i].node, kind, value, symbol, ops, nops, coeffs, ncoeffs)) {
      ++intern_hits_;
      return table_[i].node;
    }
    i = (i + 1) & mask;
  }

  Expr* e = allocate(kind);
  e->value = value;
  e->symbol = symbol;
  e->operands.assign(ops, ops + nops);
  e->coeffs.assign(coeffs, coeffs + ncoeffs);
  e->hash_value = h;
  e->subtree_kinds = kind_bit(kind);
  for (size_t k = 0; k < nops; ++k) {
    e->subtree_kinds |= ops[k]->subtree_kinds;
    e->atom_bloom |= ops[k]->atom_bloom;
  }
  if (kind == ExprKind::Sym || kind == ExprKind::IterStart || kind == ExprKind::LoopStart) {
    e->atom_bloom |= atom_bloom_bit(kind, symbol);
  }

  if ((table_used_ + 1) * 10 >= table_.size() * 7) {
    rehash(table_.size() * 2);
  }
  insert(h, e);
  return e;
}

ExprPtr ExprArena::constant(int64_t v) {
  if (v >= kConstLo && v <= kConstHi) return small_consts_[v - kConstLo];
  return node(ExprKind::Const, v, kInvalidSymbol, nullptr, 0);
}

namespace {
inline ExprPtr cached_atom(std::vector<const Expr*>& cache, SymbolId id, ExprArena& arena,
                           ExprKind kind) {
  if (id != kInvalidSymbol) {
    if (cache.size() <= id) cache.resize(id + 1, nullptr);
    if (cache[id]) return cache[id];
    ExprPtr e = arena.node(kind, 0, id, nullptr, 0);
    cache[id] = e;
    return e;
  }
  return arena.node(kind, 0, id, nullptr, 0);
}
}  // namespace

ExprPtr ExprArena::symbol(SymbolId id) {
  return cached_atom(sym_cache_, id, *this, ExprKind::Sym);
}
ExprPtr ExprArena::iter_start(SymbolId id) {
  return cached_atom(iter_cache_, id, *this, ExprKind::IterStart);
}
ExprPtr ExprArena::loop_start(SymbolId id) {
  return cached_atom(loop_cache_, id, *this, ExprKind::LoopStart);
}

size_t ExprArena::SubstKeyHash::operator()(const SubstKey& k) const {
  size_t h = std::hash<const void*>{}(k.node);
  h = hash_combine(h, std::hash<const void*>{}(k.replacement));
  h = hash_combine(h, static_cast<size_t>(k.symbol));
  h = hash_combine(h, static_cast<size_t>(k.kind));
  return h;
}

ExprPtr ExprArena::memo_get(const SubstKey& key) const {
  auto it = subst_memo_.find(key);
  return it == subst_memo_.end() ? nullptr : it->second;
}

void ExprArena::memo_put(const SubstKey& key, ExprPtr result) {
  subst_memo_.emplace(key, result);
}

bool ExprArena::owns(const ExprPtr& e) const {
  return e && e->id < nodes_.size() && nodes_[e->id] == e;
}

ExprArena::Stats ExprArena::stats() const {
  Stats s;
  s.nodes = nodes_.size();
  s.intern_hits = intern_hits_;
  s.memo_entries = subst_memo_.size();
  return s;
}

ArenaScope::ArenaScope(ExprArena& arena) : prev_(g_current_arena) {
  g_current_arena = &arena;
}

ArenaScope::~ArenaScope() { g_current_arena = prev_; }

}  // namespace sspar::sym
