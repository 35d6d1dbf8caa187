// AST for the mini-C subset.
//
// The subset covers everything that appears in the paper's figures and in the
// NPB / SuiteSparse kernels of the corpus: int/long/float/double scalars and
// (multi-dimensional) arrays, functions, for/while/if control flow, the full
// C expression grammar over those types (assignment, compound assignment,
// pre/post increment, ternary, logical, relational, arithmetic), and calls.
// No pointers, structs, casts, or switch — the corpus does not need them.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "support/source_location.h"
#include "symbolic/symbol.h"

namespace sspar::ast {

class Expr;
class Stmt;
class VarDecl;
class FuncDecl;
using ExprPtr = std::unique_ptr<Expr>;
using StmtPtr = std::unique_ptr<Stmt>;

enum class TypeKind : uint8_t { Void, Int, Double };
const char* type_name(TypeKind t);

// ---------------------------------------------------------------------------
// Expressions
// ---------------------------------------------------------------------------

enum class ExprNodeKind : uint8_t {
  IntLit,
  FloatLit,
  VarRef,
  ArrayRef,
  Binary,
  Unary,
  Assign,
  IncDec,
  Conditional,
  Call,
};

enum class BinaryOp : uint8_t { Add, Sub, Mul, Div, Rem, Lt, Le, Gt, Ge, Eq, Ne, LAnd, LOr };
enum class UnaryOp : uint8_t { Neg, Not };
enum class AssignOp : uint8_t { Assign, Add, Sub, Mul, Div, Rem };
enum class IncDecOp : uint8_t { PreInc, PreDec, PostInc, PostDec };

const char* binary_op_spelling(BinaryOp op);
const char* assign_op_spelling(AssignOp op);

class Expr {
 public:
  const ExprNodeKind kind;
  support::SourceLocation location;

  virtual ~Expr() = default;

  template <typename T>
  const T* as() const {
    return T::kClassKind == kind ? static_cast<const T*>(this) : nullptr;
  }
  template <typename T>
  T* as() {
    return T::kClassKind == kind ? static_cast<T*>(this) : nullptr;
  }

 protected:
  explicit Expr(ExprNodeKind k) : kind(k) {}
};

class IntLit final : public Expr {
 public:
  static constexpr ExprNodeKind kClassKind = ExprNodeKind::IntLit;
  int64_t value;
  explicit IntLit(int64_t v) : Expr(kClassKind), value(v) {}
};

class FloatLit final : public Expr {
 public:
  static constexpr ExprNodeKind kClassKind = ExprNodeKind::FloatLit;
  double value;
  explicit FloatLit(double v) : Expr(kClassKind), value(v) {}
};

class VarRef final : public Expr {
 public:
  static constexpr ExprNodeKind kClassKind = ExprNodeKind::VarRef;
  std::string name;
  const VarDecl* decl = nullptr;  // bound by sema
  explicit VarRef(std::string n) : Expr(kClassKind), name(std::move(n)) {}
};

// One subscript level; `a[i][j]` is ArrayRef(ArrayRef(VarRef(a), i), j).
class ArrayRef final : public Expr {
 public:
  static constexpr ExprNodeKind kClassKind = ExprNodeKind::ArrayRef;
  ExprPtr base;
  ExprPtr index;
  ArrayRef(ExprPtr b, ExprPtr i) : Expr(kClassKind), base(std::move(b)), index(std::move(i)) {}

  // The VarRef at the root of the subscript chain (nullptr if malformed).
  const VarRef* root() const;
  // Subscripts from outermost dimension to innermost.
  std::vector<const Expr*> subscripts() const;
};

class Binary final : public Expr {
 public:
  static constexpr ExprNodeKind kClassKind = ExprNodeKind::Binary;
  BinaryOp op;
  ExprPtr lhs, rhs;
  Binary(BinaryOp o, ExprPtr l, ExprPtr r)
      : Expr(kClassKind), op(o), lhs(std::move(l)), rhs(std::move(r)) {}
};

class Unary final : public Expr {
 public:
  static constexpr ExprNodeKind kClassKind = ExprNodeKind::Unary;
  UnaryOp op;
  ExprPtr operand;
  Unary(UnaryOp o, ExprPtr e) : Expr(kClassKind), op(o), operand(std::move(e)) {}
};

class Assign final : public Expr {
 public:
  static constexpr ExprNodeKind kClassKind = ExprNodeKind::Assign;
  AssignOp op;
  ExprPtr target;  // VarRef or ArrayRef
  ExprPtr value;
  Assign(AssignOp o, ExprPtr t, ExprPtr v)
      : Expr(kClassKind), op(o), target(std::move(t)), value(std::move(v)) {}
};

class IncDec final : public Expr {
 public:
  static constexpr ExprNodeKind kClassKind = ExprNodeKind::IncDec;
  IncDecOp op;
  ExprPtr target;
  IncDec(IncDecOp o, ExprPtr t) : Expr(kClassKind), op(o), target(std::move(t)) {}

  bool is_increment() const { return op == IncDecOp::PreInc || op == IncDecOp::PostInc; }
  bool is_post() const { return op == IncDecOp::PostInc || op == IncDecOp::PostDec; }
};

class Conditional final : public Expr {
 public:
  static constexpr ExprNodeKind kClassKind = ExprNodeKind::Conditional;
  ExprPtr cond, then_expr, else_expr;
  Conditional(ExprPtr c, ExprPtr t, ExprPtr e)
      : Expr(kClassKind), cond(std::move(c)), then_expr(std::move(t)), else_expr(std::move(e)) {}
};

class Call final : public Expr {
 public:
  static constexpr ExprNodeKind kClassKind = ExprNodeKind::Call;
  std::string callee;
  std::vector<ExprPtr> args;
  // Bound by sema against the program's function list; stays null for calls
  // to names with no definition in the translation unit (the analysis then
  // treats the call as opaque).
  const FuncDecl* decl = nullptr;
  Call(std::string c, std::vector<ExprPtr> a)
      : Expr(kClassKind), callee(std::move(c)), args(std::move(a)) {}
};

// ---------------------------------------------------------------------------
// Declarations
// ---------------------------------------------------------------------------

class VarDecl {
 public:
  std::string name;
  TypeKind elem_type = TypeKind::Int;
  std::vector<ExprPtr> dims;  // empty = scalar; entries may be null for `int a[]`
  ExprPtr init;               // optional
  bool is_param = false;
  support::SourceLocation location;
  // Symbol assigned during sema; shared with the symbolic/analysis layer.
  sym::SymbolId symbol = sym::kInvalidSymbol;

  bool is_array() const { return !dims.empty(); }
  bool is_integer_scalar() const { return dims.empty() && elem_type == TypeKind::Int; }
};

// ---------------------------------------------------------------------------
// Statements
// ---------------------------------------------------------------------------

enum class StmtNodeKind : uint8_t {
  ExprStmt,
  DeclStmt,
  Compound,
  If,
  For,
  While,
  Break,
  Continue,
  Return,
  Empty,
};

class Stmt {
 public:
  const StmtNodeKind kind;
  support::SourceLocation location;

  virtual ~Stmt() = default;

  template <typename T>
  const T* as() const {
    return T::kClassKind == kind ? static_cast<const T*>(this) : nullptr;
  }
  template <typename T>
  T* as() {
    return T::kClassKind == kind ? static_cast<T*>(this) : nullptr;
  }

 protected:
  explicit Stmt(StmtNodeKind k) : kind(k) {}
};

class ExprStmt final : public Stmt {
 public:
  static constexpr StmtNodeKind kClassKind = StmtNodeKind::ExprStmt;
  ExprPtr expr;
  explicit ExprStmt(ExprPtr e) : Stmt(kClassKind), expr(std::move(e)) {}
};

class DeclStmt final : public Stmt {
 public:
  static constexpr StmtNodeKind kClassKind = StmtNodeKind::DeclStmt;
  std::vector<std::unique_ptr<VarDecl>> decls;  // `int a = 0, b;`
  DeclStmt() : Stmt(kClassKind) {}
};

class Compound final : public Stmt {
 public:
  static constexpr StmtNodeKind kClassKind = StmtNodeKind::Compound;
  std::vector<StmtPtr> body;
  Compound() : Stmt(kClassKind) {}
};

class If final : public Stmt {
 public:
  static constexpr StmtNodeKind kClassKind = StmtNodeKind::If;
  ExprPtr cond;
  StmtPtr then_branch;
  StmtPtr else_branch;  // may be null
  If(ExprPtr c, StmtPtr t, StmtPtr e)
      : Stmt(kClassKind), cond(std::move(c)), then_branch(std::move(t)),
        else_branch(std::move(e)) {}
};

class For final : public Stmt {
 public:
  static constexpr StmtNodeKind kClassKind = StmtNodeKind::For;
  StmtPtr init;  // ExprStmt, DeclStmt, or Empty
  ExprPtr cond;  // may be null
  ExprPtr step;  // may be null
  StmtPtr body;
  // Filled by the transform layer; the printer emits these verbatim above the
  // loop (e.g. "#pragma omp parallel for private(j, j1)").
  std::vector<std::string> annotations;
  // Hybrid inspector–executor dispatch, filled by the transform layer: when
  // `hybrid_check` is non-empty the printer emits the loop twice inside
  //   if (<hybrid_check>) { <hybrid_pragma> <loop> } else { <loop> }
  // so the parallel version runs only when the runtime check holds.
  std::string hybrid_check;
  std::string hybrid_pragma;
  // Stable id assigned by sema (pre-order); used to key analysis results.
  int loop_id = -1;
  For(StmtPtr i, ExprPtr c, ExprPtr s, StmtPtr b)
      : Stmt(kClassKind), init(std::move(i)), cond(std::move(c)), step(std::move(s)),
        body(std::move(b)) {}
};

class While final : public Stmt {
 public:
  static constexpr StmtNodeKind kClassKind = StmtNodeKind::While;
  ExprPtr cond;
  StmtPtr body;
  While(ExprPtr c, StmtPtr b) : Stmt(kClassKind), cond(std::move(c)), body(std::move(b)) {}
};

class Break final : public Stmt {
 public:
  static constexpr StmtNodeKind kClassKind = StmtNodeKind::Break;
  Break() : Stmt(kClassKind) {}
};

class Continue final : public Stmt {
 public:
  static constexpr StmtNodeKind kClassKind = StmtNodeKind::Continue;
  Continue() : Stmt(kClassKind) {}
};

class Return final : public Stmt {
 public:
  static constexpr StmtNodeKind kClassKind = StmtNodeKind::Return;
  ExprPtr value;  // may be null
  explicit Return(ExprPtr v) : Stmt(kClassKind), value(std::move(v)) {}
};

class Empty final : public Stmt {
 public:
  static constexpr StmtNodeKind kClassKind = StmtNodeKind::Empty;
  Empty() : Stmt(kClassKind) {}
};

// ---------------------------------------------------------------------------
// Program
// ---------------------------------------------------------------------------

class FuncDecl {
 public:
  std::string name;
  TypeKind return_type = TypeKind::Void;
  std::vector<std::unique_ptr<VarDecl>> params;
  std::unique_ptr<Compound> body;
  support::SourceLocation location;
};

class Program {
 public:
  std::vector<std::unique_ptr<VarDecl>> globals;
  std::vector<std::unique_ptr<FuncDecl>> functions;

  const FuncDecl* find_function(std::string_view name) const;
  FuncDecl* find_function(std::string_view name);
  const VarDecl* find_global(std::string_view name) const;
};

// Pre-order traversal helpers. The callbacks may return false to prune the
// subtree (children are not visited).
void walk_stmts(Stmt* root, const std::function<bool(Stmt*)>& fn);
void walk_stmts(const Stmt* root, const std::function<bool(const Stmt*)>& fn);
void walk_exprs(const Stmt* root, const std::function<void(const Expr*)>& fn);
void walk_subexprs(const Expr* root, const std::function<void(const Expr*)>& fn);

// Adds `lines` and `bytes` to every known source location of a declaration
// that moved as a whole (its start column unchanged): function, parameters,
// statements, local declarations and expressions alike.
void shift_locations(FuncDecl& function, int64_t lines, int64_t bytes);
void shift_locations(VarDecl& decl, int64_t lines, int64_t bytes);

// All For loops in pre-order.
std::vector<const For*> collect_loops(const Stmt* root);
std::vector<For*> collect_loops(Stmt* root);

}  // namespace sspar::ast
