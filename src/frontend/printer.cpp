#include "frontend/printer.h"

#include <cmath>

#include "support/text.h"

namespace sspar::ast {

namespace {

int binop_precedence(BinaryOp op) {
  switch (op) {
    case BinaryOp::LOr: return 1;
    case BinaryOp::LAnd: return 2;
    case BinaryOp::Eq:
    case BinaryOp::Ne: return 3;
    case BinaryOp::Lt:
    case BinaryOp::Le:
    case BinaryOp::Gt:
    case BinaryOp::Ge: return 4;
    case BinaryOp::Add:
    case BinaryOp::Sub: return 5;
    case BinaryOp::Mul:
    case BinaryOp::Div:
    case BinaryOp::Rem: return 6;
  }
  return 0;
}

// Precedence of the whole expression for parenthesization decisions.
int expr_precedence(const Expr& e) {
  switch (e.kind) {
    case ExprNodeKind::Assign: return 0;
    case ExprNodeKind::Conditional: return 0;
    case ExprNodeKind::Binary: return binop_precedence(e.as<Binary>()->op);
    case ExprNodeKind::Unary: return 7;
    case ExprNodeKind::IncDec: return 8;
    default: return 9;  // primary
  }
}

void print_expr_impl(const Expr& e, std::string& out, int parent_precedence);

void print_child(const Expr& child, std::string& out, int parent_precedence) {
  bool parens = expr_precedence(child) < parent_precedence;
  if (parens) out += "(";
  print_expr_impl(child, out, 0);
  if (parens) out += ")";
}

void print_expr_impl(const Expr& e, std::string& out, int) {
  switch (e.kind) {
    case ExprNodeKind::IntLit:
      out += std::to_string(e.as<IntLit>()->value);
      break;
    case ExprNodeKind::FloatLit: {
      double v = e.as<FloatLit>()->value;
      std::string s = support::format("%g", v);
      // Ensure a decimal marker so the literal stays a double when re-parsed.
      if (s.find('.') == std::string::npos && s.find('e') == std::string::npos) s += ".0";
      out += s;
      break;
    }
    case ExprNodeKind::VarRef:
      out += e.as<VarRef>()->name;
      break;
    case ExprNodeKind::ArrayRef: {
      const auto* a = e.as<ArrayRef>();
      print_child(*a->base, out, 9);
      out += "[";
      print_expr_impl(*a->index, out, 0);
      out += "]";
      break;
    }
    case ExprNodeKind::Binary: {
      const auto* b = e.as<Binary>();
      int prec = binop_precedence(b->op);
      print_child(*b->lhs, out, prec);
      out += " ";
      out += binary_op_spelling(b->op);
      out += " ";
      print_child(*b->rhs, out, prec + 1);  // left-associative
      break;
    }
    case ExprNodeKind::Unary: {
      const auto* u = e.as<Unary>();
      out += u->op == UnaryOp::Neg ? "-" : "!";
      print_child(*u->operand, out, 7);
      break;
    }
    case ExprNodeKind::Assign: {
      const auto* a = e.as<Assign>();
      print_child(*a->target, out, 1);
      out += " ";
      out += assign_op_spelling(a->op);
      out += " ";
      print_child(*a->value, out, 0);
      break;
    }
    case ExprNodeKind::IncDec: {
      const auto* i = e.as<IncDec>();
      const char* tok = i->is_increment() ? "++" : "--";
      if (!i->is_post()) out += tok;
      print_child(*i->target, out, 8);
      if (i->is_post()) out += tok;
      break;
    }
    case ExprNodeKind::Conditional: {
      const auto* c = e.as<Conditional>();
      print_child(*c->cond, out, 1);
      out += " ? ";
      print_child(*c->then_expr, out, 0);
      out += " : ";
      print_child(*c->else_expr, out, 0);
      break;
    }
    case ExprNodeKind::Call: {
      const auto* c = e.as<Call>();
      out += c->callee;
      out += "(";
      for (size_t i = 0; i < c->args.size(); ++i) {
        if (i) out += ", ";
        print_expr_impl(*c->args[i], out, 0);
      }
      out += ")";
      break;
    }
  }
}

void indent_to(std::string& out, int indent) { out.append(static_cast<size_t>(indent) * 2, ' '); }

void print_var_decl(const VarDecl& d, std::string& out) {
  out += type_name(d.elem_type);
  out += " ";
  out += d.name;
  for (const auto& dim : d.dims) {
    out += "[";
    if (dim) print_expr_impl(*dim, out, 0);
    out += "]";
  }
  if (d.init) {
    out += " = ";
    print_expr_impl(*d.init, out, 0);
  }
}

void print_stmt_impl(const Stmt& stmt, std::string& out, int indent, bool annotations);

// The for-header + body, without annotations or hybrid dispatch (those are
// handled by the For case of print_stmt_impl, which may print the same loop
// node twice for a hybrid dual-version emission).
void print_for_loop(const For& s, std::string& out, int indent, bool annotations) {
  indent_to(out, indent);
  out += "for (";
  if (const auto* es = s.init->as<ExprStmt>()) {
    print_expr_impl(*es->expr, out, 0);
  } else if (const auto* ds = s.init->as<DeclStmt>()) {
    for (size_t i = 0; i < ds->decls.size(); ++i) {
      if (i) out += ", ";
      if (i == 0) {
        print_var_decl(*ds->decls[i], out);
      } else {
        out += ds->decls[i]->name;
        if (ds->decls[i]->init) {
          out += " = ";
          print_expr_impl(*ds->decls[i]->init, out, 0);
        }
      }
    }
  }
  out += "; ";
  if (s.cond) print_expr_impl(*s.cond, out, 0);
  out += "; ";
  if (s.step) print_expr_impl(*s.step, out, 0);
  out += ")\n";
  print_stmt_impl(*s.body, out, s.body->kind == StmtNodeKind::Compound ? indent : indent + 1,
                  annotations);
}

void print_stmt_impl(const Stmt& stmt, std::string& out, int indent, bool annotations) {
  switch (stmt.kind) {
    case StmtNodeKind::ExprStmt:
      indent_to(out, indent);
      print_expr_impl(*stmt.as<ExprStmt>()->expr, out, 0);
      out += ";\n";
      break;
    case StmtNodeKind::DeclStmt: {
      const auto* ds = stmt.as<DeclStmt>();
      indent_to(out, indent);
      for (size_t i = 0; i < ds->decls.size(); ++i) {
        const auto& d = ds->decls[i];
        if (i == 0) {
          print_var_decl(*d, out);
        } else {
          out += ", ";
          out += d->name;
          for (const auto& dim : d->dims) {
            out += "[";
            if (dim) print_expr_impl(*dim, out, 0);
            out += "]";
          }
          if (d->init) {
            out += " = ";
            print_expr_impl(*d->init, out, 0);
          }
        }
      }
      out += ";\n";
      break;
    }
    case StmtNodeKind::Compound: {
      indent_to(out, indent);
      out += "{\n";
      for (const auto& s : stmt.as<Compound>()->body) {
        print_stmt_impl(*s, out, indent + 1, annotations);
      }
      indent_to(out, indent);
      out += "}\n";
      break;
    }
    case StmtNodeKind::If: {
      const auto* s = stmt.as<If>();
      indent_to(out, indent);
      out += "if (";
      print_expr_impl(*s->cond, out, 0);
      out += ")\n";
      print_stmt_impl(*s->then_branch, out,
                      s->then_branch->kind == StmtNodeKind::Compound ? indent : indent + 1,
                      annotations);
      if (s->else_branch) {
        indent_to(out, indent);
        out += "else\n";
        print_stmt_impl(*s->else_branch, out,
                        s->else_branch->kind == StmtNodeKind::Compound ? indent : indent + 1,
                        annotations);
      }
      break;
    }
    case StmtNodeKind::For: {
      const auto* s = stmt.as<For>();
      if (!annotations) {
        print_for_loop(*s, out, indent, annotations);
        break;
      }
      for (const auto& a : s->annotations) {
        indent_to(out, indent);
        out += a;
        out += "\n";
      }
      if (!s->hybrid_check.empty()) {
        // Hybrid inspector–executor dispatch: the same loop is printed twice,
        // the parallel version behind the runtime check, the serial one in
        // the else branch.
        indent_to(out, indent);
        out += "if (";
        out += s->hybrid_check;
        out += ") {\n";
        if (!s->hybrid_pragma.empty()) {
          indent_to(out, indent + 1);
          out += s->hybrid_pragma;
          out += "\n";
        }
        print_for_loop(*s, out, indent + 1, annotations);
        indent_to(out, indent);
        out += "} else {\n";
        print_for_loop(*s, out, indent + 1, annotations);
        indent_to(out, indent);
        out += "}\n";
        break;
      }
      print_for_loop(*s, out, indent, annotations);
      break;
    }
    case StmtNodeKind::While: {
      const auto* s = stmt.as<While>();
      indent_to(out, indent);
      out += "while (";
      print_expr_impl(*s->cond, out, 0);
      out += ")\n";
      print_stmt_impl(*s->body, out,
                      s->body->kind == StmtNodeKind::Compound ? indent : indent + 1,
                      annotations);
      break;
    }
    case StmtNodeKind::Break:
      indent_to(out, indent);
      out += "break;\n";
      break;
    case StmtNodeKind::Continue:
      indent_to(out, indent);
      out += "continue;\n";
      break;
    case StmtNodeKind::Return: {
      const auto* s = stmt.as<Return>();
      indent_to(out, indent);
      out += "return";
      if (s->value) {
        out += " ";
        print_expr_impl(*s->value, out, 0);
      }
      out += ";\n";
      break;
    }
    case StmtNodeKind::Empty:
      indent_to(out, indent);
      out += ";\n";
      break;
  }
}

}  // namespace

std::string print_expr(const Expr& expr) {
  std::string out;
  print_expr_impl(expr, out, 0);
  return out;
}

std::string print_stmt(const Stmt& stmt, int indent, bool annotations) {
  std::string out;
  print_stmt_impl(stmt, out, indent, annotations);
  return out;
}

std::string print_globals(const Program& program) {
  std::string out;
  for (const auto& g : program.globals) {
    print_var_decl(*g, out);
    out += ";\n";
  }
  if (!program.globals.empty()) out += "\n";
  return out;
}

void print_function(const FuncDecl& f, std::string& out) {
  out += type_name(f.return_type);
  out += " ";
  out += f.name;
  out += "(";
  for (size_t i = 0; i < f.params.size(); ++i) {
    if (i) out += ", ";
    const auto& p = f.params[i];
    out += type_name(p->elem_type);
    out += " ";
    out += p->name;
    for (const auto& dim : p->dims) {
      out += "[";
      if (dim) out += print_expr(*dim);
      out += "]";
    }
  }
  out += ")\n";
  print_stmt_impl(*f.body, out, 0, /*annotations=*/true);
  out += "\n";
}

std::string print_program(const Program& program) {
  std::string out = print_globals(program);
  for (const auto& f : program.functions) print_function(*f, out);
  return out;
}

}  // namespace sspar::ast
