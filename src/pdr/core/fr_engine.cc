#include "pdr/core/fr_engine.h"

#include <cstring>
#include <optional>
#include <stdexcept>

#include "pdr/core/fr_snapshot_state.h"
#include "pdr/mvcc/snapshot_manager.h"
#include "pdr/mvcc/versioned_histogram.h"
#include "pdr/mvcc/versioned_pager.h"
#include "pdr/obs/flight_recorder.h"
#include "pdr/obs/obs.h"
#include "pdr/parallel/thread_pool.h"
#include "pdr/storage/serde.h"

namespace pdr {
namespace {

std::unique_ptr<mvcc::VersionedPager> MakeVersionedPager(
    const FrEngine::Options& options) {
  if (options.snapshots == nullptr) return nullptr;
  if (!options.storage_dir.empty()) {
    throw std::invalid_argument(
        "FrEngine: snapshots and storage_dir are mutually exclusive");
  }
  return std::make_unique<mvcc::VersionedPager>(options.snapshots);
}

TprTree::Options TreeOptions(const FrEngine::Options& options,
                             Pager* external_pager) {
  return {.buffer_pages = options.buffer_pages,
          .horizon = options.horizon,
          .storage_dir = options.storage_dir,
          .fault_injector = options.fault_injector,
          .external_pager = external_pager};
}

constexpr uint32_t kEngineMetaMagic = 0x454d5246u;  // "FRME"
constexpr uint32_t kEngineMetaVersion = 1;
// Version 1 blobs carry an index-kind byte after the header. The TPR-tree
// is the only index, so it is always 0; a store holding any other value
// was written by a retired backend and is refused.
constexpr uint8_t kEngineMetaTprKind = 0;

struct FrMetrics {
  Counter& queries;
  Counter& cells_accepted;
  Counter& cells_rejected;
  Counter& cells_candidate;
  Counter& objects_fetched;
  Histogram& query_ms;
  Histogram& refine_objects;

  static FrMetrics& Get() {
    static FrMetrics m{
        MetricsRegistry::Global().GetCounter("pdr.fr.queries"),
        MetricsRegistry::Global().GetCounter("pdr.fr.cells_accepted"),
        MetricsRegistry::Global().GetCounter("pdr.fr.cells_rejected"),
        MetricsRegistry::Global().GetCounter("pdr.fr.cells_candidate"),
        MetricsRegistry::Global().GetCounter("pdr.fr.objects_fetched"),
        MetricsRegistry::Global().GetHistogram("pdr.fr.query_ms"),
        MetricsRegistry::Global().GetHistogram("pdr.fr.refine_objects"),
    };
    return m;
  }
};

}  // namespace

FrEngine::FrEngine(const Options& options)
    : options_(options),
      histogram_({options.extent, options.histogram_side, options.horizon}),
      versioned_pager_(MakeVersionedPager(options)),
      index_(TreeOptions(options, versioned_pager_.get())) {
  if (options_.snapshots != nullptr) {
    histogram_.EnableDirtyTracking();
    vhist_ = std::make_unique<mvcc::VersionedHistogram>(&histogram_,
                                                        options_.snapshots);
  }
  if (index_.recovered()) {
    // The index restored its pages and metadata from the store; the
    // engine-level blob riding on the same checkpoint restores the filter
    // side, so filter and refinement resume from one consistent instant.
    ByteReader reader(index_.recovered_app_meta());
    if (reader.Get<uint32_t>() != kEngineMetaMagic ||
        reader.Get<uint32_t>() != kEngineMetaVersion) {
      throw std::runtime_error(
          "recovered store does not hold FR engine state");
    }
    if (reader.Get<uint8_t>() != kEngineMetaTprKind) {
      throw std::runtime_error(
          "recovered store was checkpointed with a different index kind");
    }
    histogram_.Restore(&reader);
  }
}

FrEngine::~FrEngine() = default;

void FrEngine::Checkpoint() {
  if (!index_.durable()) return;
  FlightRecorder::Record(FrEvent::kCheckpoint,
                         static_cast<int64_t>(histogram_.now()));
  std::string meta;
  PutPod(&meta, kEngineMetaMagic);
  PutPod(&meta, kEngineMetaVersion);
  PutPod(&meta, kEngineMetaTprKind);
  histogram_.Serialize(&meta);
  index_.Checkpoint(meta);
}

void FrEngine::SetExecPolicy(const ExecPolicy& exec) {
  options_.exec = exec;
  pool_.reset();  // rebuilt lazily at the new width
}

ThreadPool* FrEngine::PoolForQuery() {
  if (!options_.exec.IsParallel()) return nullptr;
  if (pool_ == nullptr) {
    pool_ = std::make_unique<ThreadPool>(options_.exec.threads);
  }
  return pool_.get();
}

void FrEngine::AdvanceTo(Tick now) {
  histogram_.AdvanceTo(now);
  index_.AdvanceTo(now);
}

void FrEngine::Apply(const UpdateEvent& update) {
  histogram_.Apply(update);
  index_.Apply(update);
}

void FrEngine::ValidateQt(Tick q_t) const {
  ValidateHorizon("fr", q_t, histogram_.now(), options_.horizon);
}

FrEngine::QueryResult FrEngine::Query(Tick q_t, double rho, double l,
                                      bool cold_cache,
                                      const QueryControl& ctl) {
  ValidateQt(q_t);
  index_.PublishShapeGauges();
  return FrQueryCore(histogram_.grid(), histogram_.Slice(q_t),
                     index_.buffer_pool(), index_.root(), PoolForQuery(),
                     options_.io_ms, q_t, rho, l, cold_cache, ctl);
}

void FrEngine::PrepareCommit() {
  if (versioned_pager_ == nullptr) {
    throw std::logic_error("FrEngine::PrepareCommit: snapshots not enabled");
  }
  // Flush first: the buffer pool may hold dirty tree pages the pager has
  // never seen, and a published epoch must be the complete tree image.
  index_.buffer_pool().FlushAll();
  versioned_pager_->PublishDirty();
  vhist_->PublishDirty();
}

std::shared_ptr<const FrSnapshotState> FrEngine::CaptureState() const {
  auto state = std::make_shared<FrSnapshotState>();
  state->now = histogram_.now();
  state->tpr_root = index_.root();
  return state;
}

FrEngine::QueryResult FrQueryCore(
    const Grid& grid, const std::vector<DensityHistogram::Counter>& slice,
    BufferPool& buffers, PageId root, ThreadPool* pool, double io_ms,
    Tick q_t, double rho, double l, bool cold_cache, const QueryControl& ctl) {
  // Entry cancellation point: a query offered with an already-expired
  // deadline (or cancelled token) fails here deterministically, before
  // any engine work.
  if (ctl.active()) ctl.Check();
  if (cold_cache) buffers.Clear();
  const IoStats io_before = buffers.stats();

  TraceSpan span("fr.query");
  span.SetAttr("q_t", static_cast<int64_t>(q_t));
  span.SetAttr("rho", rho);
  span.SetAttr("l", l);
  Timer timer;

  FrEngine::QueryResult result;
  // Flight-recorder attribution: reuse the caller's query id (the ladder
  // opens one per TieredResult) or mint a fresh one for direct queries.
  std::optional<FlightRecorder::QueryScope> fr_scope;
  if (FlightRecorder::Enabled()) {
    result.query_id = FlightRecorder::CurrentQueryId();
    if (result.query_id == 0) {
      result.query_id = FlightRecorder::NextQueryId();
      fr_scope.emplace(result.query_id);
    }
    int64_t rho_bits = 0;
    std::memcpy(&rho_bits, &rho, sizeof(rho_bits));
    FlightRecorder::Record(FrEvent::kQueryBegin, q_t, rho_bits);
  }
  const int64_t n_min = MinObjectsForDensity(rho, l);

  // --- filtering step ------------------------------------------------------
  FilterResult filter;
  {
    TraceSpan filter_span("fr.filter");
    Timer filter_timer;
    filter = FilterCellsOverSlice(grid, slice, rho, l);
    result.filter_ms = filter_timer.ElapsedMillis();
    filter_span.SetAttr("accepted", filter.accepted);
    filter_span.SetAttr("rejected", filter.rejected);
    filter_span.SetAttr("candidates", filter.candidates);
    FlightRecorder::Record(
        FrEvent::kFilter,
        FlightRecorder::Pack(filter.accepted, filter.rejected),
        filter.candidates);
  }
  result.accepted_cells = filter.accepted;
  result.rejected_cells = filter.rejected;
  result.candidate_cells = filter.candidates;

  // --- refinement step -----------------------------------------------------
  // Three sub-phases so serial and parallel execution produce the same
  // rectangle sequence: collect candidate cells in row-major order, refine
  // each candidate independently (inline and in order when serial, fanned
  // out over the pool when parallel), then merge per-cell outputs back in
  // row-major order, interleaved with the accepted cells' rectangles.
  Timer refine_timer;
  const int m = grid.cells_per_side();
  struct Candidate {
    int col, row;
  };
  struct CellOut {
    std::vector<Rect> rects;
    int64_t objects = 0;
    SweepStats sweep;
  };
  std::vector<Candidate> candidates;
  for (int row = 0; row < m; ++row) {
    for (int col = 0; col < m; ++col) {
      if (filter.At(col, row) == CellClass::kCandidate) {
        candidates.push_back({col, row});
      }
    }
  }

  const bool fan_out = pool != nullptr && candidates.size() > 1;
  std::vector<CellOut> outs(candidates.size());
  const QueryControl* control = ctl.active() ? &ctl : nullptr;

  const auto refine_cell = [&](int64_t i) {
    // Cancellation point per candidate cell (plus per sweep strip inside
    // SweepCell): a deadline-expired refinement abandons the query here.
    if (control != nullptr) control->Check();
    const Candidate c = candidates[static_cast<size_t>(i)];
    CellOut& out = outs[static_cast<size_t>(i)];
    TraceSpan cell_span("fr.cell");
    FlightRecorder::Record(FrEvent::kCellBegin,
                           FlightRecorder::Pack(c.col, c.row));
    // Serial: per-cell I/O is a pool-stats delta (nothing else touches the
    // pool). Parallel: pool-wide stats mix all threads, so attribute from
    // this thread's delta instead (cleared here, read after the work).
    const IoStats cell_io_before =
        cell_span.active() && !fan_out ? buffers.stats() : IoStats{};
    if (fan_out) buffers.TakeThreadIoDelta();
    const Rect cell = grid.CellRect(c.col, c.row);
    const Rect window = cell.Expanded(l / 2);
    const auto objects = TprTree::RangeQueryFrom(buffers, root, window, q_t);
    out.objects = static_cast<int64_t>(objects.size());
    std::vector<Vec2> positions;
    positions.reserve(objects.size());
    for (const auto& [id, state] : objects) {
      (void)id;
      const Vec2 p = state.PositionAt(q_t);
      if (grid.InDomain(p)) positions.push_back(p);
    }
    out.rects = SweepCell(cell, positions, l, n_min, &out.sweep, control);
    FlightRecorder::Record(
        FrEvent::kCellEnd, FlightRecorder::Pack(c.col, c.row),
        FlightRecorder::Pack(out.objects, out.sweep.dense_rects));
    if (cell_span.active()) {
      const IoStats cell_io = fan_out ? buffers.TakeThreadIoDelta()
                                      : buffers.stats() - cell_io_before;
      cell_span.SetAttr("col", c.col);
      cell_span.SetAttr("row", c.row);
      cell_span.SetAttr("objects", out.objects);
      cell_span.SetAttr("dense_rects", out.sweep.dense_rects);
      cell_span.SetAttr("io_reads", cell_io.physical_reads);
      cell_span.SetAttr("io_logical", cell_io.logical_reads);
    }
  };

  if (fan_out) {
    buffers.BeginReadPhase();
    try {
      pool->ParallelFor(static_cast<int64_t>(candidates.size()), refine_cell,
                        control);
    } catch (...) {
      buffers.EndReadPhase();
      throw;
    }
    buffers.EndReadPhase();
  } else {
    for (int64_t i = 0; i < static_cast<int64_t>(candidates.size()); ++i) {
      refine_cell(i);
    }
  }

  // --- deterministic merge -------------------------------------------------
  Region region;
  size_t next_candidate = 0;
  for (int row = 0; row < m; ++row) {
    for (int col = 0; col < m; ++col) {
      const CellClass cls = filter.At(col, row);
      if (cls == CellClass::kAccept) {
        region.Add(grid.CellRect(col, row));
      } else if (cls == CellClass::kCandidate) {
        const CellOut& out = outs[next_candidate++];
        for (const Rect& r : out.rects) region.Add(r);
        result.objects_fetched += out.objects;
        result.sweep += out.sweep;
      }
    }
  }
  result.region = region.Coalesced();
  result.refine_ms = refine_timer.ElapsedMillis();
  FlightRecorder::Record(FrEvent::kQueryEnd, result.objects_fetched,
                         result.sweep.dense_rects);

  result.cost.cpu_ms = timer.ElapsedMillis();
  result.cost.io = buffers.stats() - io_before;
  result.cost.io_ms = result.cost.io.ReadCostMs(io_ms);

  FrMetrics& metrics = FrMetrics::Get();
  metrics.queries.Increment();
  metrics.cells_accepted.Add(filter.accepted);
  metrics.cells_rejected.Add(filter.rejected);
  metrics.cells_candidate.Add(filter.candidates);
  metrics.objects_fetched.Add(result.objects_fetched);
  metrics.query_ms.Observe(result.cost.TotalMs());
  metrics.refine_objects.Observe(
      static_cast<double>(result.objects_fetched));

  span.SetAttr("cpu_ms", result.cost.cpu_ms);
  span.SetAttr("io_ms", result.cost.io_ms);
  span.SetAttr("io_reads", result.cost.io.physical_reads);
  span.SetAttr("io_logical", result.cost.io.logical_reads);
  span.SetAttr("io_writebacks", result.cost.io.writebacks);
  span.SetAttr("accepted", result.accepted_cells);
  span.SetAttr("rejected", result.rejected_cells);
  span.SetAttr("candidates", result.candidate_cells);
  span.SetAttr("objects_fetched", result.objects_fetched);
  span.SetAttr("dense_rects", result.sweep.dense_rects);
  return result;
}

FrEngine::QueryResult FrEngine::QueryInterval(Tick q_lo, Tick q_hi,
                                              double rho, double l,
                                              const QueryControl& ctl) {
  ValidateQt(q_lo);
  ValidateQt(q_hi);
  TraceSpan span("fr.query_interval");
  span.SetAttr("q_lo", static_cast<int64_t>(q_lo));
  span.SetAttr("q_hi", static_cast<int64_t>(q_hi));
  QueryResult total;
  Region all;
  for (Tick t = q_lo; t <= q_hi; ++t) {
    QueryResult snap = Query(t, rho, l, /*cold_cache=*/false, ctl);
    all.Add(snap.region);
    total.cost += snap.cost;
    total.accepted_cells += snap.accepted_cells;
    total.rejected_cells += snap.rejected_cells;
    total.candidate_cells += snap.candidate_cells;
    total.objects_fetched += snap.objects_fetched;
    total.sweep += snap.sweep;
  }
  total.region = all.Coalesced();
  span.SetAttr("io_reads", total.cost.io.physical_reads);
  span.SetAttr("cpu_ms", total.cost.cpu_ms);
  return total;
}

FrEngine::DhResult FrEngine::DhOnlyQuery(Tick q_t, double rho, double l,
                                         bool optimistic) {
  ValidateQt(q_t);
  TraceSpan span("fr.dh_query");
  Timer timer;
  DhResult result;
  result.filter = FilterCells(histogram_, q_t, rho, l);
  result.region =
      CellsAsRegion(result.filter, histogram_.grid(), optimistic);
  result.cpu_ms = timer.ElapsedMillis();
  span.SetAttr("cpu_ms", result.cpu_ms);
  return result;
}

}  // namespace pdr
