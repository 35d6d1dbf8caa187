#include "frontend/sema.h"

#include <string_view>
#include <unordered_map>
#include <vector>

#include "frontend/parser.h"

namespace sspar::ast {

namespace {

// Number of subscripts in the chain ending at `ref` (ArrayRef::subscripts()
// without building the list).
size_t subscript_depth(const ArrayRef& ref) {
  size_t depth = 1;
  for (const ArrayRef* a = ref.base->as<ArrayRef>(); a != nullptr; a = a->base->as<ArrayRef>()) {
    ++depth;
  }
  return depth;
}

class Resolver {
 public:
  Resolver(sym::SymbolTable& symbols, support::DiagnosticEngine& diags)
      : symbols_(symbols), diags_(diags) {}

  void run(Program& program) {
    // Calls resolve against the whole program by name, so helpers may be
    // defined after their callers; the first definition of a name wins, as
    // in Program::find_function.
    for (const auto& f : program.functions) functions_.emplace(f->name, f.get());
    push_scope();
    for (auto& g : program.globals) declare(*g);
    for (auto& g : program.globals) {
      if (g->init) resolve_expr(*g->init);
      for (auto& d : g->dims) {
        if (d) resolve_expr(*d);
      }
    }
    for (auto& f : program.functions) {
      next_loop_id_ = 0;
      push_scope();
      for (auto& p : f->params) {
        declare(*p);
        for (auto& d : p->dims) {
          if (d) resolve_expr(*d);
        }
      }
      resolve_stmt(*f->body);
      pop_scope();
    }
    pop_scope();
  }

 private:
  // One declaration visible under a name, with the depth of its scope.
  struct Binding {
    const VarDecl* decl;
    size_t depth;
  };
  using Bindings = std::vector<Binding>;  // innermost last

  void push_scope() { scopes_.emplace_back(); }
  void pop_scope() {
    for (Bindings* bindings : scopes_.back()) bindings->pop_back();
    scopes_.pop_back();
  }

  void declare(VarDecl& decl) {
    Bindings& bindings = bindings_[decl.name];
    const size_t depth = scopes_.size();
    decl.symbol = symbols_.fresh(decl.name);
    if (!bindings.empty() && bindings.back().depth == depth) {
      diags_.error(support::DiagCode::SemaRedeclaration, decl.location,
                   "redeclaration of '" + decl.name + "'");
      // Rebind: later references see the newer declaration, like C.
      bindings.back().decl = &decl;
      return;
    }
    bindings.push_back({&decl, depth});
    scopes_.back().push_back(&bindings);
  }

  const VarDecl* lookup(const std::string& name) const {
    auto it = bindings_.find(name);
    return it == bindings_.end() || it->second.empty() ? nullptr : it->second.back().decl;
  }

  void resolve_stmt(Stmt& stmt) {
    switch (stmt.kind) {
      case StmtNodeKind::ExprStmt:
        resolve_expr(*stmt.as<ExprStmt>()->expr);
        break;
      case StmtNodeKind::DeclStmt:
        for (auto& d : stmt.as<DeclStmt>()->decls) {
          for (auto& dim : d->dims) {
            if (dim) resolve_expr(*dim);
          }
          if (d->init) resolve_expr(*d->init);
          declare(*d);
        }
        break;
      case StmtNodeKind::Compound: {
        push_scope();
        for (auto& s : stmt.as<Compound>()->body) resolve_stmt(*s);
        pop_scope();
        break;
      }
      case StmtNodeKind::If: {
        auto* s = stmt.as<If>();
        resolve_expr(*s->cond);
        resolve_stmt(*s->then_branch);
        if (s->else_branch) resolve_stmt(*s->else_branch);
        break;
      }
      case StmtNodeKind::For: {
        auto* s = stmt.as<For>();
        s->loop_id = next_loop_id_++;
        push_scope();  // for-init declarations scope over the loop
        resolve_stmt(*s->init);
        if (s->cond) resolve_expr(*s->cond);
        if (s->step) resolve_expr(*s->step);
        resolve_stmt(*s->body);
        pop_scope();
        break;
      }
      case StmtNodeKind::While: {
        auto* s = stmt.as<While>();
        resolve_expr(*s->cond);
        resolve_stmt(*s->body);
        break;
      }
      case StmtNodeKind::Return: {
        auto* s = stmt.as<Return>();
        if (s->value) resolve_expr(*s->value);
        break;
      }
      default:
        break;
    }
  }

  void resolve_expr(Expr& expr) {
    switch (expr.kind) {
      case ExprNodeKind::VarRef: {
        auto* e = expr.as<VarRef>();
        e->decl = lookup(e->name);
        if (!e->decl) {
          diags_.error(support::DiagCode::SemaUndeclared, e->location,
                       "use of undeclared identifier '" + e->name + "'");
        }
        break;
      }
      case ExprNodeKind::ArrayRef: {
        auto* e = expr.as<ArrayRef>();
        resolve_expr(*e->base);
        resolve_expr(*e->index);
        if (const VarRef* root = e->root()) {
          if (root->decl && !root->decl->is_array()) {
            diags_.error(support::DiagCode::SemaNotAnArray, e->location,
                         "subscripted variable '" + root->name + "' is not an array");
          } else if (root->decl && subscript_depth(*e) > root->decl->dims.size()) {
            diags_.error(support::DiagCode::SemaTooManySubscripts, e->location,
                         "too many subscripts for array '" + root->name + "'");
          }
        } else {
          diags_.error(support::DiagCode::SemaSubscriptBase, e->location,
                       "subscript base must be a variable");
        }
        break;
      }
      case ExprNodeKind::Binary: {
        auto* e = expr.as<Binary>();
        resolve_expr(*e->lhs);
        resolve_expr(*e->rhs);
        break;
      }
      case ExprNodeKind::Unary:
        resolve_expr(*expr.as<Unary>()->operand);
        break;
      case ExprNodeKind::Assign: {
        auto* e = expr.as<Assign>();
        resolve_expr(*e->target);
        resolve_expr(*e->value);
        if (e->target->kind != ExprNodeKind::VarRef &&
            e->target->kind != ExprNodeKind::ArrayRef) {
          diags_.error(support::DiagCode::SemaBadAssignTarget, e->location,
                       "assignment target must be a variable or array element");
        }
        break;
      }
      case ExprNodeKind::IncDec: {
        auto* e = expr.as<IncDec>();
        resolve_expr(*e->target);
        if (e->target->kind != ExprNodeKind::VarRef &&
            e->target->kind != ExprNodeKind::ArrayRef) {
          diags_.error(support::DiagCode::SemaBadIncrementTarget, e->location,
                       "increment target must be a variable or array element");
        }
        break;
      }
      case ExprNodeKind::Conditional: {
        auto* e = expr.as<Conditional>();
        resolve_expr(*e->cond);
        resolve_expr(*e->then_expr);
        resolve_expr(*e->else_expr);
        break;
      }
      case ExprNodeKind::Call: {
        auto* e = expr.as<Call>();
        // Functions are not block-scoped: resolve against the whole program
        // so helpers may be defined after their callers. Unknown names stay
        // unbound (opaque to the analysis) rather than erroring.
        auto callee = functions_.find(e->callee);
        e->decl = callee == functions_.end() ? nullptr : callee->second;
        for (auto& a : e->args) resolve_expr(*a);
        break;
      }
      default:
        break;
    }
  }

  sym::SymbolTable& symbols_;
  support::DiagnosticEngine& diags_;
  std::unordered_map<std::string_view, const FuncDecl*> functions_;
  // Every name's visible declarations (keys view the declarations' names,
  // which outlive the resolver); per open scope, the bindings it pushed.
  std::unordered_map<std::string_view, Bindings> bindings_;
  std::vector<std::vector<Bindings*>> scopes_;
  int next_loop_id_ = 0;
};

}  // namespace

bool resolve(Program& program, sym::SymbolTable& symbols, support::DiagnosticEngine& diags) {
  size_t errors_before = diags.error_count();
  Resolver resolver(symbols, diags);
  resolver.run(program);
  return diags.error_count() == errors_before;
}

ParseResult parse_and_resolve(std::string_view source, support::DiagnosticEngine& diags) {
  ParseResult result;
  Parser parser(source, diags);
  result.program = parser.parse_program();
  result.symbols = std::make_shared<sym::SymbolTable>();
  if (diags.has_errors()) return result;
  result.ok = resolve(*result.program, *result.symbols, diags);
  return result;
}

}  // namespace sspar::ast
