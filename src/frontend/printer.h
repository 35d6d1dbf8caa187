// Source emission (the "source-to-source" back end).
//
// Prints the AST back to compilable C. For-loop annotations (filled in by the
// transform module, e.g. "#pragma omp parallel for private(j)") are emitted
// verbatim on their own lines directly above the loop.
#pragma once

#include <string>

#include "frontend/ast.h"

namespace sspar::ast {

// print_program(p) == print_globals(p) + print_function(f) for each f.
std::string print_program(const Program& program);
std::string print_globals(const Program& program);
void print_function(const FuncDecl& function, std::string& out);
// With `annotations` false, loops print bare: no pragmas, no hybrid
// dual-version dispatch — the text a fresh parse of the source prints.
std::string print_stmt(const Stmt& stmt, int indent = 0, bool annotations = true);
std::string print_expr(const Expr& expr);

}  // namespace sspar::ast
