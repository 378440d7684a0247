// Snapshot reads: run the engines' exact query cores against a pinned
// epoch while the writer keeps committing.
//
// A snapshot FR query builds a private read stack — SnapshotPager over
// the frozen page versions, its own BufferPool, the frozen TPR-tree root,
// and the m*m counter slice materialized from frozen histogram rows —
// then calls the same FrQueryCore the live engine calls. Nothing
// mutable is shared with the writer or with other readers, so any number
// of snapshot queries run concurrently with updates, and each answer is
// bit-identical to serialized execution at the snapshot's epoch
// (tests/mvcc_interleave_test.cc proves this per interleaving).
//
// Snapshot queries always run their refinement serially (no thread
// pool): determinism does not need it — live parallel execution is
// already bit-identical to serial — and the concurrency story here is
// many queries in flight at once, not fan-out inside one.

#ifndef PDR_MVCC_SNAPSHOT_QUERY_H_
#define PDR_MVCC_SNAPSHOT_QUERY_H_

#include "pdr/core/fr_engine.h"
#include "pdr/core/pa_engine.h"
#include "pdr/mvcc/snapshot_manager.h"
#include "pdr/resilience/deadline.h"

namespace pdr {
namespace mvcc {

/// The engine clock frozen in `snap` (what "now" was at its commit).
/// Throws std::logic_error when the snapshot is invalid or carries no FR
/// state.
Tick SnapshotFrNow(const Snapshot& snap);

/// Exact snapshot PDR query against the pinned epoch. `engine` must be
/// the engine whose commits produced `snap` (its SnapshotManager); only
/// its immutable version stores and construction-time options are read,
/// so the writer may mutate and commit concurrently. Validates q_t
/// against [snap now, snap now + H] (HorizonError). `ctl` works exactly
/// as in FrEngine::Query (cancellation mid-snapshot releases cleanly).
FrEngine::QueryResult SnapshotFrQuery(const FrEngine& engine,
                                      const Snapshot& snap, Tick q_t,
                                      double rho, double l,
                                      const QueryControl& ctl = {});

/// Approximate (PA) snapshot query at the pinned epoch; the PA analogue
/// of SnapshotFrQuery.
PaEngine::QueryResult SnapshotPaQuery(const PaEngine& engine,
                                      const Snapshot& snap, Tick q_t,
                                      double rho,
                                      const QueryControl& ctl = {});

}  // namespace mvcc
}  // namespace pdr

#endif  // PDR_MVCC_SNAPSHOT_QUERY_H_
