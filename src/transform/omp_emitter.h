// Source-to-source output: annotates parallel loops with OpenMP pragmas and
// re-emits the program (the Cetus-style back end of the pipeline).
#pragma once

#include <span>
#include <string>
#include <vector>

#include "core/parallelizer.h"
#include "frontend/ast.h"
#include "frontend/sema.h"
#include "support/diagnostics.h"

namespace sspar::transform {

// Annotates every outermost parallel loop with
//   #pragma omp parallel for private(...)
// Nested parallel loops inside an annotated loop are left untouched (no
// nested parallel regions). Returns the number of loops annotated.
int annotate_parallel_loops(ast::Program& program,
                            const std::vector<core::LoopVerdict>& verdicts);
// One function's loops, from that function's verdicts: the annotations the
// whole-program call gives them.
int annotate_parallel_loops(ast::FuncDecl& function,
                            std::span<const core::LoopVerdict> verdicts);

// Strips every loop annotation added by annotate_parallel_loops, so a
// program can be re-annotated under different verdicts (pipeline::Session
// re-entrancy).
void clear_annotations(ast::Program& program);
void clear_annotations(ast::FuncDecl& function);

// One program's parse -> analyze -> parallelize -> annotate -> print output,
// as driver::ProgramReport carries it (pipeline::Session produces each part).
struct TranslateResult {
  bool ok = false;
  std::string output;                          // transformed source
  // Owns the AST the verdicts point into; must stay alive while verdicts are
  // consumed.
  ast::ParseResult parsed;
  std::vector<core::LoopVerdict> verdicts;     // per-loop analysis results
  int parallelized = 0;                        // loops annotated
  std::string diagnostics;                     // frontend errors joined, if any
  // The same diagnostics as structured records (stable code + location).
  std::vector<support::Diagnostic> diags;
};

}  // namespace sspar::transform
