#include "frontend/ast.h"

#include <functional>

namespace sspar::ast {

const char* type_name(TypeKind t) {
  switch (t) {
    case TypeKind::Void:
      return "void";
    case TypeKind::Int:
      return "int";
    case TypeKind::Double:
      return "double";
  }
  return "?";
}

const char* binary_op_spelling(BinaryOp op) {
  switch (op) {
    case BinaryOp::Add: return "+";
    case BinaryOp::Sub: return "-";
    case BinaryOp::Mul: return "*";
    case BinaryOp::Div: return "/";
    case BinaryOp::Rem: return "%";
    case BinaryOp::Lt: return "<";
    case BinaryOp::Le: return "<=";
    case BinaryOp::Gt: return ">";
    case BinaryOp::Ge: return ">=";
    case BinaryOp::Eq: return "==";
    case BinaryOp::Ne: return "!=";
    case BinaryOp::LAnd: return "&&";
    case BinaryOp::LOr: return "||";
  }
  return "?";
}

const char* assign_op_spelling(AssignOp op) {
  switch (op) {
    case AssignOp::Assign: return "=";
    case AssignOp::Add: return "+=";
    case AssignOp::Sub: return "-=";
    case AssignOp::Mul: return "*=";
    case AssignOp::Div: return "/=";
    case AssignOp::Rem: return "%=";
  }
  return "?";
}

const VarRef* ArrayRef::root() const {
  const Expr* e = base.get();
  while (const auto* ar = e->as<ArrayRef>()) e = ar->base.get();
  return e->as<VarRef>();
}

std::vector<const Expr*> ArrayRef::subscripts() const {
  std::vector<const Expr*> subs;
  const ArrayRef* cur = this;
  for (;;) {
    subs.push_back(cur->index.get());
    const auto* next = cur->base->as<ArrayRef>();
    if (!next) break;
    cur = next;
  }
  return {subs.rbegin(), subs.rend()};
}

const FuncDecl* Program::find_function(std::string_view name) const {
  for (const auto& f : functions) {
    if (f->name == name) return f.get();
  }
  return nullptr;
}

FuncDecl* Program::find_function(std::string_view name) {
  for (auto& f : functions) {
    if (f->name == name) return f.get();
  }
  return nullptr;
}

const VarDecl* Program::find_global(std::string_view name) const {
  for (const auto& g : globals) {
    if (g->name == name) return g.get();
  }
  return nullptr;
}

namespace {
template <typename StmtT, typename Fn>
void walk_stmts_impl(StmtT* root, const Fn& fn) {
  if (!root) return;
  if (!fn(root)) return;
  switch (root->kind) {
    case StmtNodeKind::Compound: {
      auto* c = root->template as<Compound>();
      for (auto& s : c->body) walk_stmts_impl(s.get(), fn);
      break;
    }
    case StmtNodeKind::If: {
      auto* s = root->template as<If>();
      walk_stmts_impl(s->then_branch.get(), fn);
      walk_stmts_impl(s->else_branch.get(), fn);
      break;
    }
    case StmtNodeKind::For: {
      auto* s = root->template as<For>();
      walk_stmts_impl(s->init.get(), fn);
      walk_stmts_impl(s->body.get(), fn);
      break;
    }
    case StmtNodeKind::While: {
      auto* s = root->template as<While>();
      walk_stmts_impl(s->body.get(), fn);
      break;
    }
    default:
      break;
  }
}
}  // namespace

void walk_stmts(Stmt* root, const std::function<bool(Stmt*)>& fn) {
  walk_stmts_impl(root, fn);
}
void walk_stmts(const Stmt* root, const std::function<bool(const Stmt*)>& fn) {
  walk_stmts_impl(root, fn);
}

namespace {
template <typename ExprT, typename Fn>
void walk_subexprs_impl(ExprT* root, const Fn& fn) {
  if (!root) return;
  fn(root);
  switch (root->kind) {
    case ExprNodeKind::ArrayRef: {
      auto* e = root->template as<ArrayRef>();
      walk_subexprs_impl(e->base.get(), fn);
      walk_subexprs_impl(e->index.get(), fn);
      break;
    }
    case ExprNodeKind::Binary: {
      auto* e = root->template as<Binary>();
      walk_subexprs_impl(e->lhs.get(), fn);
      walk_subexprs_impl(e->rhs.get(), fn);
      break;
    }
    case ExprNodeKind::Unary:
      walk_subexprs_impl(root->template as<Unary>()->operand.get(), fn);
      break;
    case ExprNodeKind::Assign: {
      auto* e = root->template as<Assign>();
      walk_subexprs_impl(e->target.get(), fn);
      walk_subexprs_impl(e->value.get(), fn);
      break;
    }
    case ExprNodeKind::IncDec:
      walk_subexprs_impl(root->template as<IncDec>()->target.get(), fn);
      break;
    case ExprNodeKind::Conditional: {
      auto* e = root->template as<Conditional>();
      walk_subexprs_impl(e->cond.get(), fn);
      walk_subexprs_impl(e->then_expr.get(), fn);
      walk_subexprs_impl(e->else_expr.get(), fn);
      break;
    }
    case ExprNodeKind::Call:
      for (auto& a : root->template as<Call>()->args) walk_subexprs_impl(a.get(), fn);
      break;
    default:
      break;
  }
}
}  // namespace

void walk_subexprs(const Expr* root, const std::function<void(const Expr*)>& fn) {
  walk_subexprs_impl(root, fn);
}

void walk_exprs(const Stmt* root, const std::function<void(const Expr*)>& fn) {
  walk_stmts(root, [&fn](const Stmt* s) {
    switch (s->kind) {
      case StmtNodeKind::ExprStmt:
        walk_subexprs(s->as<ExprStmt>()->expr.get(), fn);
        break;
      case StmtNodeKind::DeclStmt:
        for (const auto& d : s->as<DeclStmt>()->decls) {
          if (d->init) walk_subexprs(d->init.get(), fn);
        }
        break;
      case StmtNodeKind::If:
        walk_subexprs(s->as<If>()->cond.get(), fn);
        break;
      case StmtNodeKind::For: {
        const auto* f = s->as<For>();
        walk_subexprs(f->cond.get(), fn);
        walk_subexprs(f->step.get(), fn);
        break;
      }
      case StmtNodeKind::While:
        walk_subexprs(s->as<While>()->cond.get(), fn);
        break;
      case StmtNodeKind::Return:
        walk_subexprs(s->as<Return>()->value.get(), fn);
        break;
      default:
        break;
    }
    return true;
  });
}

std::vector<const For*> collect_loops(const Stmt* root) {
  std::vector<const For*> loops;
  walk_stmts(root, [&loops](const Stmt* s) {
    if (const auto* f = s->as<For>()) loops.push_back(f);
    return true;
  });
  return loops;
}

std::vector<For*> collect_loops(Stmt* root) {
  std::vector<For*> loops;
  walk_stmts(root, [&loops](Stmt* s) {
    if (auto* f = s->as<For>()) loops.push_back(f);
    return true;
  });
  return loops;
}

namespace {

// Moves every known position of a declaration by the same line and byte
// delta; columns stay (the declaration starts at the same column).
struct LocationShift {
  int64_t lines;
  int64_t bytes;

  void at(support::SourceLocation& loc) const {
    if (!loc.valid()) return;
    loc.line = static_cast<uint32_t>(loc.line + lines);
    loc.offset = static_cast<uint32_t>(loc.offset + bytes);
  }
  void expr(Expr* root) const {
    walk_subexprs_impl(root, [this](Expr* e) { at(e->location); });
  }
  void decl(VarDecl& d) const {
    at(d.location);
    for (auto& dim : d.dims) expr(dim.get());
    expr(d.init.get());
  }
};

}  // namespace

void shift_locations(FuncDecl& function, int64_t lines, int64_t bytes) {
  const LocationShift shift{lines, bytes};
  shift.at(function.location);
  for (auto& param : function.params) shift.decl(*param);
  walk_stmts(static_cast<Stmt*>(function.body.get()), [&shift](Stmt* s) {
    shift.at(s->location);
    switch (s->kind) {
      case StmtNodeKind::ExprStmt:
        shift.expr(s->as<ExprStmt>()->expr.get());
        break;
      case StmtNodeKind::DeclStmt:
        for (auto& d : s->as<DeclStmt>()->decls) shift.decl(*d);
        break;
      case StmtNodeKind::If:
        shift.expr(s->as<If>()->cond.get());
        break;
      case StmtNodeKind::For: {
        auto* f = s->as<For>();  // init is a statement: walk_stmts visits it
        shift.expr(f->cond.get());
        shift.expr(f->step.get());
        break;
      }
      case StmtNodeKind::While:
        shift.expr(s->as<While>()->cond.get());
        break;
      case StmtNodeKind::Return:
        shift.expr(s->as<Return>()->value.get());
        break;
      default:
        break;
    }
    return true;
  });
}

void shift_locations(VarDecl& decl, int64_t lines, int64_t bytes) {
  LocationShift{lines, bytes}.decl(decl);
}

}  // namespace sspar::ast
