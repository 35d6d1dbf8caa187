// Hash-consed expression arena: the single owner of every sym::Expr node.
//
// All expression nodes are bump-allocated in blocks owned by an ExprArena and
// hash-consed at creation: two structurally equal expressions built through
// the factory functions of expr.h are the *same* node. Consequences:
//
//  * sym::equal is a pointer comparison,
//  * sym::hash is a field load (every node caches its structural hash),
//  * re-building an expression that already exists allocates nothing — the
//    intern table is probed with a lightweight "key view" (kind, scalar
//    fields, child-pointer span) and only a miss materializes a node,
//  * containment queries are O(1) (per-node subtree kind masks and a bloom
//    filter over the leaf atoms, both computed once at interning time),
//  * λ/Λ substitutions memoize per-arena, so the analyzer's abstract
//    interpretation stops re-walking identical subtrees.
//
// Threading model: arenas are NOT thread-safe; the intended ownership is one
// arena per pipeline::Session (sessions are per-program and per-worker in
// driver::BatchAnalyzer). The factory functions in expr.h allocate from the
// thread's *current* arena: a Session installs its arena with an ArenaScope
// for the duration of a stage, and code that never installs one (unit tests,
// micro benches) transparently uses a per-thread default arena that lives for
// the thread's lifetime.
//
// Lifetime rule: nodes live exactly as long as their arena. Everything a
// Session derives (FactDB entries, LoopSnapshots, AssumptionContexts) points
// into the session's arena and must not outlive the Session. LoopVerdicts
// carry no ExprPtr and may outlive it freely.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "symbolic/expr.h"

namespace sspar::sym {

class ExprArena {
 public:
  ExprArena();
  ~ExprArena();

  ExprArena(const ExprArena&) = delete;
  ExprArena& operator=(const ExprArena&) = delete;

  // The arena new nodes are interned into: the innermost live ArenaScope's
  // arena, or a lazily created thread-local default arena.
  static ExprArena& current();

  // --- Node creation (all hash-consed) -------------------------------------

  ExprPtr bottom() const { return bottom_; }
  ExprPtr constant(int64_t v);
  ExprPtr symbol(SymbolId id);
  ExprPtr iter_start(SymbolId id);
  ExprPtr loop_start(SymbolId id);

  // Generic interning entry point used by the canonicalizing factories in
  // expr.cpp. `ops`/`coeffs` describe an already-canonical node (children
  // interned, Add/Mul/Min/Max operands sorted); the arena only deduplicates.
  ExprPtr node(ExprKind kind, int64_t value, SymbolId symbol, const ExprPtr* ops, size_t nops,
               const int64_t* coeffs = nullptr, size_t ncoeffs = 0);

  // --- Substitution memo (subst_sym / subst_iter_start / subst_loop_start) --

  struct SubstKey {
    const Expr* node = nullptr;
    const Expr* replacement = nullptr;
    SymbolId symbol = kInvalidSymbol;
    ExprKind kind = ExprKind::Sym;
    bool operator==(const SubstKey&) const = default;
  };
  // Null when not memoized.
  ExprPtr memo_get(const SubstKey& key) const;
  void memo_put(const SubstKey& key, ExprPtr result);

  // True if `e` was interned by this arena (O(1); used by tests/asserts).
  bool owns(const ExprPtr& e) const;

  // --- Introspection ---------------------------------------------------------

  struct Stats {
    size_t nodes = 0;        // unique nodes interned
    size_t intern_hits = 0;  // factory calls satisfied without allocating
    size_t memo_entries = 0;
  };
  Stats stats() const;
  size_t node_count() const { return nodes_.size(); }

 private:
  struct TableSlot {
    size_t hash = 0;
    const Expr* node = nullptr;
  };

  Expr* allocate(ExprKind kind);
  void insert(size_t hash, const Expr* node);
  void rehash(size_t new_capacity);

  // Bump blocks (nodes never move; ids index nodes_).
  static constexpr size_t kBlockNodes = 256;
  std::vector<std::unique_ptr<std::byte[]>> blocks_;
  size_t block_used_ = kBlockNodes;
  std::vector<const Expr*> nodes_;

  // Open-addressed intern table (linear probing, power-of-two capacity).
  std::vector<TableSlot> table_;
  size_t table_used_ = 0;
  mutable size_t intern_hits_ = 0;

  // Hot-atom caches: small integer constants and per-symbol atoms resolve
  // without touching the intern table.
  static constexpr int64_t kConstLo = -1;
  static constexpr int64_t kConstHi = 16;
  const Expr* small_consts_[kConstHi - kConstLo + 1] = {};
  std::vector<const Expr*> sym_cache_;   // indexed by SymbolId
  std::vector<const Expr*> iter_cache_;  // indexed by SymbolId
  std::vector<const Expr*> loop_cache_;  // indexed by SymbolId

  struct SubstKeyHash {
    size_t operator()(const SubstKey& k) const;
  };
  std::unordered_map<SubstKey, const Expr*, SubstKeyHash> subst_memo_;

  const Expr* bottom_ = nullptr;
};

// RAII: installs `arena` as ExprArena::current() for the enclosing scope.
// Scopes nest; destruction restores the previous arena (or the thread
// default). Must be destroyed on the thread that created it.
class ArenaScope {
 public:
  explicit ArenaScope(ExprArena& arena);
  ~ArenaScope();

  ArenaScope(const ArenaScope&) = delete;
  ArenaScope& operator=(const ArenaScope&) = delete;

 private:
  ExprArena* prev_;
};

}  // namespace sspar::sym
