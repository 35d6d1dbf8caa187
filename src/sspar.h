// Umbrella header for the sspar library.
//
// Primary API — the staged pipeline session (src/pipeline/):
//
//   #include "sspar.h"
//   sspar::pipeline::Session session(source, {{"N", 1}});
//   session.parse();                        // cached; never re-runs
//   session.analyze(options);               // re-runnable per AnalyzerOptions
//   auto* verdicts = session.parallelize(); // per-loop LoopVerdict
//   session.annotate();                     // OpenMP pragmas onto the AST
//   auto emitted = session.emit();          // annotated source out
//
// Each stage implies its predecessors and caches its result on the session,
// so an ablation loop re-analyzing under many AnalyzerOptions parses once.
// Errors surface as structured support::Diagnostic records (stable DiagCode
// + SourceLocation) on session.diagnostics(); parallel verdicts carry a
// core::EnablingProperty enum. pipeline::Assumptions is the one encoding for
// "symbol >= bound" (analyzer) / "symbol = value" (interpreter) inputs.
//
// Batch mode: driver::BatchAnalyzer runs sessions over many programs
// concurrently (deterministic input-ordered aggregation, optional streaming
// per-report callback) and driver/json_report.h renders verdicts, facts, and
// BatchStats as JSON — the `sspar-analyze --json` document.
//
// Lower-level entry points: ast::parse_and_resolve, core::Analyzer,
// core::Parallelizer, interp::Interpreter (dynamic oracle), the rt:: index
// property checks behind hybrid verdicts, corpus::all_entries().
#pragma once

#include "core/analyzer.h"        // IWYU pragma: export
#include "core/facts.h"           // IWYU pragma: export
#include "core/parallelizer.h"    // IWYU pragma: export
#include "corpus/analysis.h"      // IWYU pragma: export
#include "corpus/corpus.h"        // IWYU pragma: export
#include "driver/batch_analyzer.h"  // IWYU pragma: export
#include "driver/json_report.h"   // IWYU pragma: export
#include "frontend/frontend.h"    // IWYU pragma: export
#include "interp/interpreter.h"   // IWYU pragma: export
#include "ipa/call_graph.h"       // IWYU pragma: export
#include "ipa/cross_cache.h"      // IWYU pragma: export
#include "ipa/summary.h"          // IWYU pragma: export
#include "pipeline/assumptions.h"  // IWYU pragma: export
#include "pipeline/session.h"     // IWYU pragma: export
#include "runtime/inspector.h"    // IWYU pragma: export
#include "support/json.h"         // IWYU pragma: export
#include "symbolic/context.h"     // IWYU pragma: export
#include "transform/omp_emitter.h"  // IWYU pragma: export
