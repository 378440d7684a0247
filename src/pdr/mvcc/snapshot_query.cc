#include "pdr/mvcc/snapshot_query.h"

#include <stdexcept>
#include <vector>

#include "pdr/common/errors.h"
#include "pdr/common/stats.h"
#include "pdr/core/fr_snapshot_state.h"
#include "pdr/mvcc/versioned_cheb.h"
#include "pdr/mvcc/versioned_histogram.h"
#include "pdr/mvcc/versioned_pager.h"

namespace pdr {
namespace mvcc {
namespace {

const FrSnapshotState& FrStateOf(const Snapshot& snap) {
  if (!snap.valid()) {
    throw std::logic_error("SnapshotFrQuery: invalid (released?) snapshot");
  }
  const auto* state = static_cast<const FrSnapshotState*>(snap.states().fr.get());
  if (state == nullptr) {
    throw std::logic_error(
        "SnapshotFrQuery: snapshot carries no FR state (was the FR engine "
        "registered before this epoch's commit?)");
  }
  return *state;
}

}  // namespace

Tick SnapshotFrNow(const Snapshot& snap) { return FrStateOf(snap).now; }

FrEngine::QueryResult SnapshotFrQuery(const FrEngine& engine,
                                      const Snapshot& snap, Tick q_t,
                                      double rho, double l,
                                      const QueryControl& ctl) {
  const FrSnapshotState& state = FrStateOf(snap);
  if (engine.versioned_pager() == nullptr) {
    throw std::logic_error("SnapshotFrQuery: engine has snapshots disabled");
  }
  ValidateHorizon("fr", q_t, state.now, engine.options().horizon);
  const std::vector<DensityHistogram::Counter> slice =
      engine.versioned_histogram()->MaterializeSlice(snap.epoch(), q_t);
  // A private read stack over the frozen pages: shares nothing mutable
  // with the writer or with other readers.
  SnapshotPager pager(engine.versioned_pager(), snap.epoch());
  BufferPool buffers(&pager, engine.options().buffer_pages);
  return FrQueryCore(engine.histogram().grid(), slice, buffers,
                     state.tpr_root, /*pool=*/nullptr, engine.options().io_ms,
                     q_t, rho, l, /*cold_cache=*/false, ctl);
}

PaEngine::QueryResult SnapshotPaQuery(const PaEngine& engine,
                                      const Snapshot& snap, Tick q_t,
                                      double rho, const QueryControl& ctl) {
  if (!snap.valid()) {
    throw std::logic_error("SnapshotPaQuery: invalid (released?) snapshot");
  }
  const auto* state = static_cast<const PaSnapshotState*>(snap.states().pa.get());
  if (state == nullptr) {
    throw std::logic_error("SnapshotPaQuery: snapshot carries no PA state");
  }
  if (engine.versioned_cheb() == nullptr) {
    throw std::logic_error("SnapshotPaQuery: engine has snapshots disabled");
  }
  ValidateHorizon("pa", q_t, state->now, engine.options().horizon);
  if (ctl.active()) ctl.Check();
  Timer timer;
  PaEngine::QueryResult result;
  const std::vector<Cheb2D> slice =
      engine.versioned_cheb()->MaterializeSlice(snap.epoch(), q_t);
  result.region = ChebGrid::QueryDenseOverSlice(
      engine.model().options(), engine.model().macro_grid(), slice, rho,
      engine.options().eval_grid, &result.bnb, /*pool=*/nullptr,
      ctl.active() ? &ctl : nullptr);
  result.cost.cpu_ms = timer.ElapsedMillis();
  return result;
}

}  // namespace mvcc
}  // namespace pdr
