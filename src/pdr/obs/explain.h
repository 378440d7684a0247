// Per-query EXPLAIN provenance.
//
// An ExplainRecord is the structured answer to "what did this query do":
// which tier answered, which ladder stages ran and what each spent, what
// the filter decided, how much refinement work followed, and what the
// shadow audit thought of the result when one sampled in. ResilientExecutor
// assembles one for every TieredResult; PdrMonitor forwards it on every
// Delta; `pdr_tool explain` renders it for operators.
//
// Determinism contract: DeterministicSignature() covers exactly the fields
// that are bit-identical across thread counts (the row-major merge
// guarantee) — the logical plan and its counts, never wall times, physical
// I/O (eviction order varies), or the process-wide query id. Serial and
// parallel runs of the same query must produce equal signatures;
// differential_test enforces this.
//
// Layering: lives under pdr/obs/ with the rest of the observability layer
// but is a leaf header (geometry + stdlib only) so resilience/executor.h
// can embed a record in TieredResult; explain.cc compiles into pdr_core.

#ifndef PDR_OBS_EXPLAIN_H_
#define PDR_OBS_EXPLAIN_H_

#include <cstdint>
#include <string>
#include <vector>

#include "pdr/common/geometry.h"

namespace pdr {

enum class AnswerTier : uint8_t;
enum class DowngradeReason : uint8_t;

/// One ladder stage the query actually ran, in execution order.
struct ExplainStage {
  /// "filter" | "scan" | "sweep" | "coalesce" (the exact FR rung's
  /// stages) | "exact" (cancelled before its parts were attributed) |
  /// "fft" | "approx" | "histogram"
  std::string name;
  double spent_ms = 0.0;
  bool completed = true;  ///< false: cancelled mid-stage
};

/// The provenance of one deadline-bounded answer.
struct ExplainRecord {
  uint32_t query_id = 0;  ///< flight-recorder correlation key
  Tick q_t = 0;
  double rho = 0.0;
  double l = 0.0;

  AnswerTier tier{};                ///< tier that produced the answer
  DowngradeReason downgrade_reason{};  ///< kNone when tier == kExact
  bool timed_out = false;
  double budget_ms = 0.0;   ///< 0 = unbounded
  double elapsed_ms = 0.0;  ///< across all stages

  /// MVCC epoch the answer was read at (0 = live/serialized execution).
  /// Provenance only — a snapshot answer is bit-identical to serialized
  /// execution at the same epoch, so the signature excludes it.
  uint64_t epoch = 0;

  std::vector<ExplainStage> stages;

  // Filter decisions (from the rung that produced the answer; for a
  // cancelled exact rung these come from the histogram floor's own run).
  int64_t accepted_cells = 0;
  int64_t rejected_cells = 0;
  int64_t candidate_cells = 0;

  // Refinement work (exact tier), in counts no tiling of the refinement
  // changes: distinct objects inside some candidate window, and the
  // answer's rectangles.
  int64_t objects_fetched = 0;
  int64_t dense_rects = 0;

  // Pages touched by the answering rung.
  int64_t pages_read_physical = 0;
  int64_t pages_read_logical = 0;

  // Branch-and-bound work (approx tier).
  int64_t bnb_nodes = 0;
  int64_t bnb_pruned = 0;

  // Shadow-audit verdict when this answer was sampled.
  bool audited = false;
  double audit_precision = 1.0;
  double audit_recall = 1.0;

  /// One-line JSON object (stable field order; rho/l as hexfloat strings
  /// so records round-trip exactly).
  std::string ToJson() const;

  /// Multi-line human rendering (pdr_tool explain).
  std::string ToText() const;

  /// The thread-count-invariant logical plan: q_t, rho, l, tier, reason,
  /// stage names, filter counts, refinement counts, BnB counts. Excludes
  /// query_id, every wall time, and physical/logical I/O.
  std::string DeterministicSignature() const;
};

}  // namespace pdr

#endif  // PDR_OBS_EXPLAIN_H_
