// Accounting types for the incremental re-analysis engine.
//
// UpdateStats mirrors the BatchStats discipline: every field inside
// operator== is deterministic for a fixed update sequence (at any thread
// count); wall-clock time lives outside the equality so reports stay
// byte-comparable modulo timings. EngineTotals accumulates across updates —
// daemon-lifetime counters that are NOT part of any per-update equality,
// exactly like the server's cumulative shed/timed_out totals.
#pragma once

#include <cstdint>
#include <vector>

#include "support/diagnostics.h"
#include "support/json.h"

namespace sspar::incremental {

// Per-update counters. `dirty` counts functions whose content key changed
// (or that are new); `reanalyzed` additionally includes functions parsed
// anew with their key unchanged (an edit inside the function's chunk that
// keeps its printed source, such as a reformat). A function that only moved
// is neither: its verdicts carry no positions and its diagnostics are
// rebased by the move.
struct UpdateStats {
  int functions_total = 0;
  int dirty = 0;
  int reanalyzed = 0;
  // Summaries rehydrated from the engine's persistent cross-program cache
  // instead of being recomputed (SummaryDB shared hits of this update).
  int reused_summaries = 0;
  // Loop verdicts rebound from the previous snapshot without re-running the
  // parallelizer.
  int reused_verdicts = 0;
  double update_ms = 0.0;  // wall clock; excluded from operator==

  bool operator==(const UpdateStats& o) const {
    return functions_total == o.functions_total && dirty == o.dirty &&
           reanalyzed == o.reanalyzed && reused_summaries == o.reused_summaries &&
           reused_verdicts == o.reused_verdicts;
  }
};

// Diagnostics delta of one update, relative to the previous update's
// canonical diagnostic list (see support::canonicalize_diagnostics).
struct DiagDelta {
  std::vector<support::Diagnostic> added;
  std::vector<support::Diagnostic> removed;
  int unchanged = 0;
};

// Cumulative engine totals across every update served.
struct EngineTotals {
  int64_t updates = 0;
  int64_t functions_total = 0;
  int64_t dirty = 0;
  int64_t reanalyzed = 0;
  int64_t reused_summaries = 0;
  int64_t reused_verdicts = 0;

  void add(const UpdateStats& stats);
  // Fraction of function instances that were dirty across all updates
  // (0.0 when no update has run yet).
  double dirty_cone_ratio() const;
};

support::json::Object to_json(const UpdateStats& stats);
support::json::Object to_json(const DiagDelta& delta);
support::json::Object to_json(const EngineTotals& totals);
support::json::Object diagnostic_to_json(const support::Diagnostic& diag);

}  // namespace sspar::incremental
