#include "symbolic/expr.h"

#include <algorithm>
#include <cassert>

#include "symbolic/arena.h"

namespace sspar::sym {

namespace {

// Append-only vector with N inline slots; spills to the heap only past N.
// Backs every canonicalization scratch list so the hot path allocates
// nothing for typical operand counts.
template <typename T, size_t N>
class InlineVec {
 public:
  void push(const T& v) {
    if (heap_.empty()) {
      if (size_ < N) {
        buf_[size_++] = v;
        return;
      }
      heap_.assign(buf_, buf_ + N);
    }
    heap_.push_back(v);
  }
  T* data() { return heap_.empty() ? buf_ : heap_.data(); }
  size_t size() const { return heap_.empty() ? size_ : heap_.size(); }
  T& operator[](size_t i) { return data()[i]; }

 private:
  T buf_[N];
  size_t size_ = 0;
  std::vector<T> heap_;
};

// Flat accumulator of (atom, coefficient) pairs: the replacement for the old
// std::map-based TermMap. Atoms are interned, so the duplicate check is a
// pointer scan over a handful of entries; term lists stay in a small inline
// buffer, making canonicalization allocation-free for typical expressions.
class TermAccum {
 public:
  bool bottom = false;
  int64_t constant = 0;

  void accumulate(const ExprPtr& e, int64_t scale) {
    if (bottom || scale == 0) return;
    switch (e->kind) {
      case ExprKind::Bottom:
        bottom = true;
        return;
      case ExprKind::Const:
        constant += scale * e->value;
        return;
      case ExprKind::Add:
        constant += scale * e->value;
        for (size_t i = 0; i < e->operands.size(); ++i) {
          add_atom(e->operands[i], scale * e->coeffs[i]);
        }
        return;
      default:
        add_atom(e, scale);
        return;
    }
  }

  void add_atom(const ExprPtr& atom, int64_t coeff) {
    // Same-arena equal atoms are the same pointer; the structural fallback in
    // build() covers the (test-only) cross-arena case.
    for (size_t i = 0; i < terms_.size(); ++i) {
      if (terms_[i].first == atom) {
        terms_[i].second += coeff;
        return;
      }
    }
    terms_.push({atom, coeff});
  }

  // Canonical node for Σ coeff_k * atom_k + constant.
  ExprPtr build() {
    if (bottom) return make_bottom();
    std::pair<ExprPtr, int64_t>* data = terms_.data();
    size_t n = terms_.size();
    std::sort(data, data + n, [](const auto& a, const auto& b) {
      return compare(a.first, b.first) < 0;
    });
    // Merge structurally equal neighbours (cross-arena atoms only) and drop
    // zero coefficients in one pass.
    size_t out = 0;
    for (size_t i = 0; i < n;) {
      ExprPtr atom = data[i].first;
      int64_t coeff = data[i].second;
      size_t j = i + 1;
      while (j < n && (data[j].first == atom || compare(data[j].first, atom) == 0)) {
        coeff += data[j].second;
        ++j;
      }
      if (coeff != 0) data[out++] = {atom, coeff};
      i = j;
    }
    if (out == 0) return make_const(constant);
    if (out == 1 && data[0].second == 1 && constant == 0) return data[0].first;
    InlineVec<ExprPtr, 16> ops;
    InlineVec<int64_t, 16> coeffs;
    for (size_t i = 0; i < out; ++i) {
      ops.push(data[i].first);
      coeffs.push(data[i].second);
    }
    return ExprArena::current().node(ExprKind::Add, constant, kInvalidSymbol, ops.data(), out,
                                     coeffs.data(), out);
  }

  // Copies the (unsorted is fine — caller sorts) terms out for LinearForm.
  void export_terms(std::vector<std::pair<ExprPtr, int64_t>>& out) {
    out.reserve(terms_.size());
    for (size_t i = 0; i < terms_.size(); ++i) {
      if (terms_[i].second != 0) out.push_back(terms_[i]);
    }
  }

 private:
  InlineVec<std::pair<ExprPtr, int64_t>, 16> terms_;
};

ExprPtr linear_combine(const ExprPtr& a, int64_t ca, const ExprPtr& b, int64_t cb) {
  TermAccum acc;
  if (a) acc.accumulate(a, ca);
  if (b) acc.accumulate(b, cb);
  return acc.build();
}

// Appends `e` to `out`, splicing in the operands of nodes of kind `flatten`
// (Mul factors into a product, Min/Max operands into a combined min/max).
void flatten_into(InlineVec<ExprPtr, 8>& out, const ExprPtr& e, ExprKind flatten) {
  if (e->kind == flatten) {
    for (const auto& o : e->operands) out.push(o);
  } else {
    out.push(e);
  }
}

// Product of two canonical atoms/atom-products -> canonical Mul (or atom).
ExprPtr atom_product(const ExprPtr& a, const ExprPtr& b) {
  InlineVec<ExprPtr, 8> factors;
  flatten_into(factors, a, ExprKind::Mul);
  flatten_into(factors, b, ExprKind::Mul);
  std::sort(factors.data(), factors.data() + factors.size(),
            [](const ExprPtr& x, const ExprPtr& y) { return compare(x, y) < 0; });
  return ExprArena::current().node(ExprKind::Mul, 0, kInvalidSymbol, factors.data(),
                                   factors.size());
}

int compare_vec(const std::vector<ExprPtr>& a, const std::vector<ExprPtr>& b) {
  if (a.size() != b.size()) return a.size() < b.size() ? -1 : 1;
  for (size_t i = 0; i < a.size(); ++i) {
    int c = compare(a[i], b[i]);
    if (c != 0) return c;
  }
  return 0;
}

}  // namespace

ExprPtr make_const(int64_t v) { return ExprArena::current().constant(v); }
ExprPtr make_sym(SymbolId id) { return ExprArena::current().symbol(id); }
ExprPtr make_iter_start(SymbolId id) { return ExprArena::current().iter_start(id); }
ExprPtr make_loop_start(SymbolId id) { return ExprArena::current().loop_start(id); }

ExprPtr make_array_elem(SymbolId array, ExprPtr index) {
  if (!index || is_bottom(index)) return make_bottom();
  return ExprArena::current().node(ExprKind::ArrayElem, 0, array, &index, 1);
}

ExprPtr make_bottom() { return ExprArena::current().bottom(); }

ExprPtr add(const ExprPtr& a, const ExprPtr& b) { return linear_combine(a, 1, b, 1); }
ExprPtr sub(const ExprPtr& a, const ExprPtr& b) { return linear_combine(a, 1, b, -1); }
ExprPtr negate(const ExprPtr& a) { return linear_combine(a, -1, nullptr, 0); }
ExprPtr mul_const(const ExprPtr& a, int64_t c) { return linear_combine(a, c, nullptr, 0); }

ExprPtr mul(const ExprPtr& a, const ExprPtr& b) {
  if (!a || !b || is_bottom(a) || is_bottom(b)) return make_bottom();
  if (auto ca = const_value(a)) return mul_const(b, *ca);
  if (auto cb = const_value(b)) return mul_const(a, *cb);
  // Distribute sums (operand counts are tiny in practice).
  LinearForm la = to_linear(a);
  LinearForm lb = to_linear(b);
  TermAccum acc;
  // (Σ ci*ti + c0) * (Σ dj*uj + d0)
  acc.constant += la.constant * lb.constant;
  for (const auto& [t, c] : la.terms) acc.accumulate(t, c * lb.constant);
  for (const auto& [u, d] : lb.terms) acc.accumulate(u, d * la.constant);
  for (const auto& [t, c] : la.terms) {
    for (const auto& [u, d] : lb.terms) {
      acc.accumulate(atom_product(t, u), c * d);
    }
  }
  return acc.build();
}

ExprPtr div_floor(const ExprPtr& a, const ExprPtr& b) {
  if (!a || !b || is_bottom(a) || is_bottom(b)) return make_bottom();
  auto cb = const_value(b);
  if (cb && *cb == 0) return make_bottom();
  if (cb && *cb == 1) return a;
  if (auto ca = const_value(a)) {
    if (cb) {
      int64_t q = *ca / *cb;  // exact in our uses; truncation acceptable otherwise
      if ((*ca % *cb) != 0 && ((*ca < 0) != (*cb < 0))) --q;  // floor semantics
      return make_const(q);
    }
    if (*ca == 0) return make_const(0);
  }
  ExprPtr ops[2] = {a, b};
  return ExprArena::current().node(ExprKind::Div, 0, kInvalidSymbol, ops, 2);
}

ExprPtr mod(const ExprPtr& a, const ExprPtr& b) {
  if (!a || !b || is_bottom(a) || is_bottom(b)) return make_bottom();
  auto cb = const_value(b);
  if (cb && *cb == 0) return make_bottom();
  if (cb && (*cb == 1 || *cb == -1)) return make_const(0);
  if (auto ca = const_value(a); ca && cb) {
    int64_t r = *ca % *cb;
    if (r != 0 && ((r < 0) != (*cb < 0))) r += *cb;  // floor-mod
    return make_const(r);
  }
  ExprPtr ops[2] = {a, b};
  return ExprArena::current().node(ExprKind::Mod, 0, kInvalidSymbol, ops, 2);
}

namespace {
ExprPtr min_max(ExprKind kind, const ExprPtr& a, const ExprPtr& b) {
  if (!a || !b || is_bottom(a) || is_bottom(b)) return make_bottom();
  if (equal(a, b)) return a;
  auto ca = const_value(a);
  auto cb = const_value(b);
  if (ca && cb) {
    return make_const(kind == ExprKind::Min ? std::min(*ca, *cb) : std::max(*ca, *cb));
  }
  // Fold a difference that is a known constant: min(x, x+3) == x.
  if (auto d = const_value(sub(a, b))) {
    bool a_smaller = *d <= 0;
    if (kind == ExprKind::Min) return a_smaller ? a : b;
    return a_smaller ? b : a;
  }
  InlineVec<ExprPtr, 8> ops;
  flatten_into(ops, a, kind);
  flatten_into(ops, b, kind);
  ExprPtr* data = ops.data();
  size_t count = ops.size();
  std::sort(data, data + count,
            [](const ExprPtr& x, const ExprPtr& y) { return compare(x, y) < 0; });
  count = static_cast<size_t>(
      std::unique(data, data + count,
                  [](const ExprPtr& x, const ExprPtr& y) { return equal(x, y); }) -
      data);
  if (count == 1) return data[0];
  return ExprArena::current().node(kind, 0, kInvalidSymbol, data, count);
}
}  // namespace

ExprPtr smin(const ExprPtr& a, const ExprPtr& b) { return min_max(ExprKind::Min, a, b); }
ExprPtr smax(const ExprPtr& a, const ExprPtr& b) { return min_max(ExprKind::Max, a, b); }

bool is_bottom(const ExprPtr& e) { return !e || e->kind == ExprKind::Bottom; }
bool is_const(const ExprPtr& e) { return e && e->kind == ExprKind::Const; }

std::optional<int64_t> const_value(const ExprPtr& e) {
  if (is_const(e)) return e->value;
  return std::nullopt;
}

int compare(const ExprPtr& a, const ExprPtr& b) {
  if (a == b) return 0;
  if (!a || !b) return !a ? -1 : 1;
  if (a->kind != b->kind) return a->kind < b->kind ? -1 : 1;
  if (a->value != b->value) return a->value < b->value ? -1 : 1;
  if (a->symbol != b->symbol) return a->symbol < b->symbol ? -1 : 1;
  if (a->coeffs != b->coeffs) return a->coeffs < b->coeffs ? -1 : 1;
  return compare_vec(a->operands, b->operands);
}

bool equal(const ExprPtr& a, const ExprPtr& b) { return a == b || compare(a, b) == 0; }

size_t hash(const ExprPtr& e) { return e ? e->hash_value : 0; }

bool contains_kind(const ExprPtr& e, ExprKind kind) {
  return e && (e->subtree_kinds & kind_bit(kind)) != 0;
}

bool contains_sym(const ExprPtr& e, SymbolId id) {
  if (!e || !(e->subtree_kinds & kind_bit(ExprKind::Sym))) return false;
  const uint64_t bit = atom_bloom_bit(ExprKind::Sym, id);
  if (!(e->atom_bloom & bit)) return false;
  return any_of(e, [id](const Expr& n) { return n.kind == ExprKind::Sym && n.symbol == id; });
}

namespace {
void collect_array_elems_rec(const ExprPtr& n, std::optional<SymbolId> array,
                             std::vector<ExprPtr>& out) {
  if (!n || !(n->subtree_kinds & kind_bit(ExprKind::ArrayElem))) return;
  if (n->kind == ExprKind::ArrayElem && (!array || n->symbol == *array)) {
    out.push_back(n);
  }
  for (const auto& o : n->operands) collect_array_elems_rec(o, array, out);
}
}  // namespace

std::vector<ExprPtr> collect_array_elems(const ExprPtr& e, std::optional<SymbolId> array) {
  std::vector<ExprPtr> out;
  collect_array_elems_rec(e, array, out);
  return out;
}

int64_t LinearForm::coeff_of(const ExprPtr& atom) const {
  for (const auto& [t, c] : terms) {
    if (equal(t, atom)) return c;
  }
  return 0;
}

LinearForm to_linear(const ExprPtr& e) {
  LinearForm lf;
  if (!e || is_bottom(e)) {
    lf.bottom = true;
    return lf;
  }
  TermAccum acc;
  acc.accumulate(e, 1);
  lf.bottom = acc.bottom;
  lf.constant = acc.constant;
  acc.export_terms(lf.terms);
  std::sort(lf.terms.begin(), lf.terms.end(),
            [](const auto& a, const auto& b) { return compare(a.first, b.first) < 0; });
  return lf;
}

ExprPtr from_linear(const LinearForm& lf) {
  if (lf.bottom) return make_bottom();
  TermAccum acc;
  acc.constant = lf.constant;
  for (const auto& [atom, coeff] : lf.terms) acc.add_atom(atom, coeff);
  return acc.build();
}

std::optional<Affine> affine_in(const ExprPtr& e, SymbolId index) {
  if (!e || is_bottom(e) || contains_kind(e, ExprKind::IterStart)) return std::nullopt;
  if (!contains_sym(e, index)) return Affine{make_const(0), e};
  LinearForm lf = to_linear(e);
  int64_t direct = 0;           // coefficient of the bare index
  ExprPtr symbolic = nullptr;   // Σ coeff * (other factors) over m * i atoms
  LinearForm rest;
  rest.constant = lf.constant;
  for (const auto& [atom, coeff] : lf.terms) {
    if (atom->kind == ExprKind::Sym && atom->symbol == index) {
      direct += coeff;
      continue;
    }
    if (!contains_sym(atom, index)) {
      rest.terms.emplace_back(atom, coeff);
      continue;
    }
    // The only other index-carrying atom with a linear closed form is a
    // product with the index as a direct factor exactly once and every other
    // factor index-free.
    if (atom->kind != ExprKind::Mul) return std::nullopt;
    ExprPtr others = make_const(1);
    int index_factors = 0;
    for (const ExprPtr& factor : atom->operands) {
      if (factor->kind == ExprKind::Sym && factor->symbol == index) {
        ++index_factors;
      } else if (contains_sym(factor, index)) {
        return std::nullopt;
      } else {
        others = mul(others, factor);
      }
    }
    if (index_factors != 1) return std::nullopt;
    ExprPtr term = mul_const(others, coeff);
    symbolic = symbolic ? add(symbolic, term) : term;
  }
  ExprPtr stride = make_const(direct);
  if (symbolic) stride = add(symbolic, stride);
  return Affine{stride, from_linear(rest)};
}

ExprPtr rewrite(const ExprPtr& e, const RewriteFn& fn) {
  if (!e) return e;
  // Top-down: a replacement is final (children of the replacement are not
  // revisited), which gives capture-free substitution semantics.
  if (auto replaced = fn(e)) return *replaced;
  ExprPtr rebuilt = nullptr;
  switch (e->kind) {
    case ExprKind::Const:
    case ExprKind::Sym:
    case ExprKind::IterStart:
    case ExprKind::LoopStart:
    case ExprKind::Bottom:
      rebuilt = e;
      break;
    case ExprKind::ArrayElem: {
      ExprPtr index = rewrite(e->operands[0], fn);
      rebuilt = index == e->operands[0] ? e : make_array_elem(e->symbol, index);
      break;
    }
    case ExprKind::Add: {
      TermAccum acc;
      acc.constant = e->value;
      for (size_t i = 0; i < e->operands.size(); ++i) {
        acc.accumulate(rewrite(e->operands[i], fn), e->coeffs[i]);
      }
      rebuilt = acc.build();
      break;
    }
    case ExprKind::Mul: {
      ExprPtr acc = make_const(1);
      for (const auto& o : e->operands) acc = mul(acc, rewrite(o, fn));
      rebuilt = acc;
      break;
    }
    case ExprKind::Div:
      rebuilt = div_floor(rewrite(e->operands[0], fn), rewrite(e->operands[1], fn));
      break;
    case ExprKind::Mod:
      rebuilt = mod(rewrite(e->operands[0], fn), rewrite(e->operands[1], fn));
      break;
    case ExprKind::Min:
    case ExprKind::Max: {
      ExprPtr acc = rewrite(e->operands[0], fn);
      for (size_t i = 1; i < e->operands.size(); ++i) {
        auto next = rewrite(e->operands[i], fn);
        acc = e->kind == ExprKind::Min ? smin(acc, next) : smax(acc, next);
      }
      rebuilt = acc;
      break;
    }
  }
  return rebuilt;
}

namespace {
ExprPtr subst_kind(const ExprPtr& e, ExprKind kind, SymbolId id, const ExprPtr& replacement) {
  if (!e || !(e->subtree_kinds & kind_bit(kind))) return e;
  if (!(e->atom_bloom & atom_bloom_bit(kind, id))) return e;
  if (e->kind == kind && e->symbol == id) return replacement;
  ExprArena& arena = ExprArena::current();
  ExprArena::SubstKey key{e, replacement, id, kind};
  if (ExprPtr memo = arena.memo_get(key)) return memo;
  ExprPtr result = nullptr;
  switch (e->kind) {
    case ExprKind::Const:
    case ExprKind::Sym:
    case ExprKind::IterStart:
    case ExprKind::LoopStart:
    case ExprKind::Bottom:
      result = e;  // leaf of another kind/symbol (bloom false positive)
      break;
    case ExprKind::ArrayElem: {
      ExprPtr index = subst_kind(e->operands[0], kind, id, replacement);
      result = index == e->operands[0] ? e : make_array_elem(e->symbol, index);
      break;
    }
    case ExprKind::Add: {
      TermAccum acc;
      acc.constant = e->value;
      for (size_t i = 0; i < e->operands.size(); ++i) {
        acc.accumulate(subst_kind(e->operands[i], kind, id, replacement), e->coeffs[i]);
      }
      result = acc.build();
      break;
    }
    case ExprKind::Mul: {
      ExprPtr acc = make_const(1);
      for (const auto& o : e->operands) acc = mul(acc, subst_kind(o, kind, id, replacement));
      result = acc;
      break;
    }
    case ExprKind::Div:
      result = div_floor(subst_kind(e->operands[0], kind, id, replacement),
                         subst_kind(e->operands[1], kind, id, replacement));
      break;
    case ExprKind::Mod:
      result = mod(subst_kind(e->operands[0], kind, id, replacement),
                   subst_kind(e->operands[1], kind, id, replacement));
      break;
    case ExprKind::Min:
    case ExprKind::Max: {
      ExprPtr acc = subst_kind(e->operands[0], kind, id, replacement);
      for (size_t i = 1; i < e->operands.size(); ++i) {
        auto next = subst_kind(e->operands[i], kind, id, replacement);
        acc = e->kind == ExprKind::Min ? smin(acc, next) : smax(acc, next);
      }
      result = acc;
      break;
    }
  }
  arena.memo_put(key, result);
  return result;
}
}  // namespace

ExprPtr subst_sym(const ExprPtr& e, SymbolId id, const ExprPtr& replacement) {
  return subst_kind(e, ExprKind::Sym, id, replacement);
}
ExprPtr subst_iter_start(const ExprPtr& e, SymbolId id, const ExprPtr& replacement) {
  return subst_kind(e, ExprKind::IterStart, id, replacement);
}
ExprPtr subst_loop_start(const ExprPtr& e, SymbolId id, const ExprPtr& replacement) {
  return subst_kind(e, ExprKind::LoopStart, id, replacement);
}

namespace {
void print(const ExprPtr& e, const SymbolTable& syms, std::string& out, bool parens_for_sum);

void print_term(const ExprPtr& atom, int64_t coeff, const SymbolTable& syms, std::string& out,
                bool first) {
  if (coeff < 0) {
    out += first ? "-" : " - ";
  } else if (!first) {
    out += " + ";
  }
  int64_t mag = coeff < 0 ? -coeff : coeff;
  if (mag != 1) {
    out += std::to_string(mag);
    out += "*";
  }
  print(atom, syms, out, true);
}

void print(const ExprPtr& e, const SymbolTable& syms, std::string& out, bool parens_for_sum) {
  if (!e) {
    out += "<null>";
    return;
  }
  switch (e->kind) {
    case ExprKind::Const:
      out += std::to_string(e->value);
      return;
    case ExprKind::Sym:
      out += syms.name(e->symbol);
      return;
    case ExprKind::IterStart:
      out += "lam." + syms.name(e->symbol);
      return;
    case ExprKind::LoopStart:
      out += "LAM." + syms.name(e->symbol);
      return;
    case ExprKind::Bottom:
      out += "_|_";
      return;
    case ExprKind::ArrayElem:
      out += syms.name(e->symbol);
      out += "[";
      print(e->operands[0], syms, out, false);
      out += "]";
      return;
    case ExprKind::Add: {
      if (parens_for_sum) out += "(";
      bool first = true;
      for (size_t i = 0; i < e->operands.size(); ++i) {
        print_term(e->operands[i], e->coeffs[i], syms, out, first);
        first = false;
      }
      if (e->value != 0 || first) {
        if (!first) {
          out += e->value < 0 ? " - " : " + ";
          out += std::to_string(e->value < 0 ? -e->value : e->value);
        } else {
          out += std::to_string(e->value);
        }
      }
      if (parens_for_sum) out += ")";
      return;
    }
    case ExprKind::Mul: {
      for (size_t i = 0; i < e->operands.size(); ++i) {
        if (i) out += "*";
        print(e->operands[i], syms, out, true);
      }
      return;
    }
    case ExprKind::Div:
    case ExprKind::Mod: {
      out += e->kind == ExprKind::Div ? "div(" : "mod(";
      print(e->operands[0], syms, out, false);
      out += ", ";
      print(e->operands[1], syms, out, false);
      out += ")";
      return;
    }
    case ExprKind::Min:
    case ExprKind::Max: {
      out += e->kind == ExprKind::Min ? "min(" : "max(";
      for (size_t i = 0; i < e->operands.size(); ++i) {
        if (i) out += ", ";
        print(e->operands[i], syms, out, false);
      }
      out += ")";
      return;
    }
  }
}
}  // namespace

std::string to_string(const ExprPtr& e, const SymbolTable& syms) {
  std::string out;
  print(e, syms, out, false);
  return out;
}

}  // namespace sspar::sym
