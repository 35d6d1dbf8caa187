// Immutable symbolic integer expressions in canonical (affine-normal) form.
//
// The representation follows the paper's needs (Section 3.2): expressions over
// program symbols, the per-iteration start value λ(x) (IterStart), the
// per-loop start value Λ(x) (LoopStart), symbolic array elements a[e]
// (ArrayElem, needed to express recurrences such as rowptr[i-1] + v and the
// Range-Test comparison rowptr[i] vs rowptr[i+1]), and the unknown value ⊥
// (Bottom).
//
// Canonical form invariants (enforced by the factory functions):
//  * Add nodes hold a sorted list of (atom, non-zero coefficient) pairs plus
//    an integer constant; they never nest, never have a single term with
//    coefficient 1 and constant 0, and never hold Const/Add atoms.
//  * Mul nodes hold >= 2 sorted non-constant factors; constant factors are
//    folded into Add coefficients.
//  * Bottom absorbs every operation.
// Because the form is canonical, structural equality is semantic equality for
// the affine fragment (atoms are compared structurally).
//
// Storage: every node is owned by an ExprArena (symbolic/arena.h) and
// hash-consed — within one arena, structural equality is pointer identity.
// ExprPtr is therefore a borrowed, non-owning handle; it stays valid exactly
// as long as the owning arena (for code without an explicit arena: the
// thread-local default arena, which lives until thread exit).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "symbolic/symbol.h"

namespace sspar::sym {

enum class ExprKind : uint8_t {
  Const,
  Sym,
  IterStart,  // λ(x): value of x at the start of the current iteration
  LoopStart,  // Λ(x): value of x at the start of the loop
  ArrayElem,  // a[index]
  Add,        // Σ coeff_k * atom_k + constant
  Mul,        // atom * atom * ...
  Div,        // integer division, operands (num, den)
  Mod,        // operands (num, den)
  Min,
  Max,
  Bottom,
};

inline constexpr uint32_t kind_bit(ExprKind k) { return 1u << static_cast<unsigned>(k); }

// Bloom-filter bit for a leaf atom (Sym/IterStart/LoopStart over `symbol`).
// Subtree blooms give an O(1) "definitely absent" answer for contains_sym and
// the substitution fast paths.
inline constexpr uint64_t atom_bloom_bit(ExprKind kind, SymbolId symbol) {
  uint64_t x = (static_cast<uint64_t>(symbol) << 4) ^ static_cast<uint64_t>(kind);
  x *= 0x9e3779b97f4a7c15ull;
  return 1ull << (x >> 58);
}

class Expr;
using ExprPtr = const Expr*;

class Expr {
 public:
  ExprKind kind;
  int64_t value = 0;                 // Const value / Add constant term
  SymbolId symbol = kInvalidSymbol;  // Sym/IterStart/LoopStart; array for ArrayElem
  std::vector<ExprPtr> operands;     // children (atoms for Add/Mul; args otherwise)
  std::vector<int64_t> coeffs;       // parallel to operands, Add only

  // Interning metadata, written exactly once by the owning ExprArena.
  uint32_t id = 0;             // dense per-arena id, creation-ordered
  uint32_t subtree_kinds = 0;  // exact union of kind_bit() over the subtree
  uint64_t atom_bloom = 0;     // union of atom_bloom_bit() over the subtree
  size_t hash_value = 0;       // structural hash (arena-independent)

  explicit Expr(ExprKind k) : kind(k) {}
};

// --- Factories (always canonicalize; allocate from ExprArena::current()) ----
ExprPtr make_const(int64_t v);
ExprPtr make_sym(SymbolId id);
ExprPtr make_iter_start(SymbolId id);
ExprPtr make_loop_start(SymbolId id);
ExprPtr make_array_elem(SymbolId array, ExprPtr index);
ExprPtr make_bottom();

ExprPtr add(const ExprPtr& a, const ExprPtr& b);
ExprPtr sub(const ExprPtr& a, const ExprPtr& b);
ExprPtr negate(const ExprPtr& a);
ExprPtr mul(const ExprPtr& a, const ExprPtr& b);
ExprPtr mul_const(const ExprPtr& a, int64_t c);
ExprPtr div_floor(const ExprPtr& a, const ExprPtr& b);  // used only where exact
ExprPtr mod(const ExprPtr& a, const ExprPtr& b);
ExprPtr smin(const ExprPtr& a, const ExprPtr& b);
ExprPtr smax(const ExprPtr& a, const ExprPtr& b);

// --- Predicates & queries ---------------------------------------------------
bool is_bottom(const ExprPtr& e);
bool is_const(const ExprPtr& e);
std::optional<int64_t> const_value(const ExprPtr& e);

// Within one arena, equality is pointer identity (hash-consing); the
// structural fallback only does work for nodes from different arenas.
bool equal(const ExprPtr& a, const ExprPtr& b);
// Total structural order; used for canonical sorting. Pointer-equal nodes
// short-circuit, and interned children make the recursion exit at the first
// differing field in practice.
int compare(const ExprPtr& a, const ExprPtr& b);
// Cached at interning time: a field load.
size_t hash(const ExprPtr& e);

// True if any subexpression satisfies `pred`. Iterative pre-order walk;
// allocation-free up to 64 pending nodes (deeper trees spill to the heap).
template <typename Pred>
bool any_of(const ExprPtr& e, Pred&& pred) {
  if (!e) return false;
  ExprPtr inline_stack[64];
  size_t top = 0;
  std::vector<ExprPtr> spill;
  inline_stack[top++] = e;
  while (top > 0 || !spill.empty()) {
    ExprPtr n;
    if (!spill.empty()) {
      n = spill.back();
      spill.pop_back();
    } else {
      n = inline_stack[--top];
    }
    if (pred(*n)) return true;
    for (const ExprPtr& o : n->operands) {
      if (top < 64) {
        inline_stack[top++] = o;
      } else {
        spill.push_back(o);
      }
    }
  }
  return false;
}

// O(1): exact subtree kind mask, computed at interning time.
bool contains_kind(const ExprPtr& e, ExprKind kind);
// O(1) "no" via the subtree atom bloom; bloom hits fall back to an
// allocation-free iterative walk.
bool contains_sym(const ExprPtr& e, SymbolId id);

// Collects every ArrayElem subexpression (of `array` if given).
std::vector<ExprPtr> collect_array_elems(const ExprPtr& e,
                                         std::optional<SymbolId> array = std::nullopt);

// --- Linear view ------------------------------------------------------------
// expr == constant + Σ coeff_k * atom_k, where atoms are non-Add non-Const.
struct LinearForm {
  bool bottom = false;
  int64_t constant = 0;
  std::vector<std::pair<ExprPtr, int64_t>> terms;  // sorted by compare()

  // Coefficient of `atom` (0 if absent).
  int64_t coeff_of(const ExprPtr& atom) const;
};
LinearForm to_linear(const ExprPtr& e);
ExprPtr from_linear(const LinearForm& lf);

// --- Affine view ------------------------------------------------------------
// e == stride * sym(index) + rest, where neither part mentions the index.
// This is the one question the range aggregation and the dependence tests ask
// of a subscript or a fill value: the stride gives the direction
// (monotonicity), |stride| == 1 gives consecutiveness, and a provably nonzero
// stride gives injectivity of the filled section. The stride may be symbolic:
// a product with the index as a direct factor exactly once (m * i) adds its
// other factors to it, so callers that need a compile-time step read
// const_value(stride).
//
// Fails (nullopt) on ⊥, on any λ (IterStart) marker — λ values change per
// iteration independently of the index, so no closed form over it exists —
// and when the index appears under Div/Mod/Min/Max, inside an array
// subscript, or more than linearly in a product. An expression that does not
// mention the index answers {0, e} in O(1) through the subtree bloom.
struct Affine {
  ExprPtr stride = nullptr;
  ExprPtr rest = nullptr;
};
std::optional<Affine> affine_in(const ExprPtr& e, SymbolId index);
// The stride of an affine view when it folds to a compile-time constant.
inline std::optional<int64_t> const_stride(const std::optional<Affine>& a) {
  return a ? const_value(a->stride) : std::nullopt;
}

// --- Rewriting --------------------------------------------------------------
// Top-down rewrite: `fn` may replace a node before its children are visited;
// a replacement is final (capture-free substitution semantics). Returning
// nullopt rebuilds the node from rewritten children.
using RewriteFn = std::function<std::optional<ExprPtr>(const ExprPtr&)>;
ExprPtr rewrite(const ExprPtr& e, const RewriteFn& fn);

// Substitutions are memoized per-arena on (node, replacement, symbol) and
// prune untouched subtrees through the atom bloom in O(1).
ExprPtr subst_sym(const ExprPtr& e, SymbolId id, const ExprPtr& replacement);
ExprPtr subst_iter_start(const ExprPtr& e, SymbolId id, const ExprPtr& replacement);
ExprPtr subst_loop_start(const ExprPtr& e, SymbolId id, const ExprPtr& replacement);

// --- Printing ---------------------------------------------------------------
// ASCII rendering: λ(x) -> "lam.x", Λ(x) -> "LAM.x", ⊥ -> "_|_".
std::string to_string(const ExprPtr& e, const SymbolTable& syms);

}  // namespace sspar::sym
