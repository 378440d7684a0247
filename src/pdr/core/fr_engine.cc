#include "pdr/core/fr_engine.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <optional>
#include <span>
#include <stdexcept>

#include "pdr/core/fr_snapshot_state.h"
#include "pdr/mvcc/snapshot_manager.h"
#include "pdr/mvcc/versioned_histogram.h"
#include "pdr/mvcc/versioned_pager.h"
#include "pdr/obs/explain.h"
#include "pdr/obs/flight_recorder.h"
#include "pdr/obs/obs.h"
#include "pdr/parallel/thread_pool.h"
#include "pdr/storage/disk_pager.h"
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
  // The plane sweep's work, summed over the query's candidate cells.
  Counter& sweep_cells;
  Counter& sweep_x_strips;
  Counter& sweep_y_sweeps;
  Counter& sweep_y_strips;
  Counter& sweep_dense_rects;

  static FrMetrics& Get() {
    MetricsRegistry& r = MetricsRegistry::Global();
    static FrMetrics m{
        r.GetCounter("pdr.fr.queries"),
        r.GetCounter("pdr.fr.cells_accepted"),
        r.GetCounter("pdr.fr.cells_rejected"),
        r.GetCounter("pdr.fr.cells_candidate"),
        r.GetCounter("pdr.fr.objects_fetched"),
        r.GetHistogram("pdr.fr.query_ms"),
        r.GetHistogram("pdr.fr.refine_objects"),
        r.GetCounter("pdr.sweep.cells"),
        r.GetCounter("pdr.sweep.x_strips"),
        r.GetCounter("pdr.sweep.y_sweeps"),
        r.GetCounter("pdr.sweep.y_strips"),
        r.GetCounter("pdr.sweep.dense_rects"),
    };
    return m;
  }

  void Publish(const FrEngine::QueryResult& result) {
    queries.Increment();
    cells_accepted.Add(result.accepted_cells);
    cells_rejected.Add(result.rejected_cells);
    cells_candidate.Add(result.candidate_cells);
    objects_fetched.Add(result.objects_fetched);
    query_ms.Observe(result.cost.TotalMs());
    refine_objects.Observe(static_cast<double>(result.objects_fetched));
    sweep_cells.Add(result.candidate_cells);
    sweep_x_strips.Add(result.sweep.x_strips);
    sweep_y_sweeps.Add(result.sweep.y_sweeps);
    sweep_y_strips.Add(result.sweep.y_strips);
    sweep_dense_rects.Add(result.sweep.dense_rects);
  }
};

// The candidate windows of one FR query, cell.Expanded(l/2) per candidate
// cell, for the index scan's node test. A 2-D prefix sum over the
// candidate mask rejects a node with no candidate cell near it in O(1);
// the cells it lets through get the exact closed-intersection test, so
// the scan enters exactly the nodes some per-cell range query would.
class CandidateWindows {
 public:
  CandidateWindows(const Grid& grid, const FilterResult& filter, double l)
      : grid_(grid), m_(grid.cells_per_side()), half_(l / 2),
        prefix_(static_cast<size_t>(m_ + 1) * (m_ + 1), 0) {
    for (int row = 0; row < m_; ++row) {
      for (int col = 0; col < m_; ++col) {
        const int here = filter.At(col, row) == CellClass::kCandidate;
        prefix_[Flat(col + 1, row + 1)] = here + prefix_[Flat(col, row + 1)] +
                                          prefix_[Flat(col + 1, row)] -
                                          prefix_[Flat(col, row)];
      }
    }
  }

  /// True when the closed rectangle `r` meets some candidate window.
  bool Meets(const Rect& r) const {
    // Column c's windows span [c·e − l/2, (c+1)·e + l/2], so they meet
    // [x_lo, x_hi] only for (x_lo − l/2)/e − 1 ≤ c ≤ (x_hi + l/2)/e (rows
    // alike); one spare column per side absorbs the divisions' rounding.
    // ColOf's clamp only widens the block off the domain, where the exact
    // test below still rejects.
    const int c0 = grid_.ColOf(r.x_lo - half_) - 2;
    const int c1 = grid_.ColOf(r.x_hi + half_) + 1;
    const int r0 = grid_.RowOf(r.y_lo - half_) - 2;
    const int r1 = grid_.RowOf(r.y_hi + half_) + 1;
    const int col_lo = std::max(c0, 0), col_hi = std::min(c1, m_ - 1);
    const int row_lo = std::max(r0, 0), row_hi = std::min(r1, m_ - 1);
    if (col_lo > col_hi || row_lo > row_hi) return false;
    if (Candidates(col_lo, row_lo, col_hi, row_hi) == 0) return false;
    for (int row = row_lo; row <= row_hi; ++row) {
      for (int col = col_lo; col <= col_hi; ++col) {
        if (Candidates(col, row, col, row) != 0 &&
            grid_.CellRect(col, row).Expanded(half_).IntersectsClosed(r)) {
          return true;
        }
      }
    }
    return false;
  }

 private:
  size_t Flat(int col, int row) const {
    return static_cast<size_t>(row) * (m_ + 1) + col;
  }
  // Candidate cells in the inclusive block [col_lo, col_hi] x [row_lo,
  // row_hi].
  int Candidates(int col_lo, int row_lo, int col_hi, int row_hi) const {
    return prefix_[Flat(col_hi + 1, row_hi + 1)] -
           prefix_[Flat(col_lo, row_hi + 1)] -
           prefix_[Flat(col_hi + 1, row_lo)] + prefix_[Flat(col_lo, row_lo)];
  }

  const Grid& grid_;
  int m_;
  double half_;
  std::vector<int> prefix_;  // (m+1)^2 inclusive prefix sums
};

// Scanned positions counting-sorted by Grid::CellOf, which clamps
// positions off the domain into its border cells: cell k's positions are
// positions_[offsets_[k], offsets_[k + 1]), in scan order.
class CellBuckets {
 public:
  CellBuckets() = default;
  CellBuckets(const Grid& grid, const std::vector<Vec2>& scanned)
      : positions_(scanned.size()),
        offsets_(static_cast<size_t>(grid.cell_count()) + 1, 0) {
    std::vector<int> cell_of(scanned.size());
    for (size_t i = 0; i < scanned.size(); ++i) {
      cell_of[i] = grid.CellOf(scanned[i]);
      ++offsets_[static_cast<size_t>(cell_of[i]) + 1];
    }
    for (size_t k = 1; k < offsets_.size(); ++k) offsets_[k] += offsets_[k - 1];
    std::vector<size_t> next(offsets_.begin(), offsets_.end() - 1);
    for (size_t i = 0; i < scanned.size(); ++i) {
      positions_[next[static_cast<size_t>(cell_of[i])]++] = scanned[i];
    }
  }

  /// The positions of the row-major cell run [first, last].
  std::span<const Vec2> Range(int first, int last) const {
    return std::span<const Vec2>(positions_)
        .subspan(offsets_[static_cast<size_t>(first)],
                 offsets_[static_cast<size_t>(last) + 1] -
                     offsets_[static_cast<size_t>(first)]);
  }

 private:
  std::vector<Vec2> positions_;
  std::vector<size_t> offsets_;  // cell_count + 1 prefix offsets
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
  std::string meta;
  PutPod(&meta, kEngineMetaMagic);
  PutPod(&meta, kEngineMetaVersion);
  PutPod(&meta, kEngineMetaTprKind);
  histogram_.Serialize(&meta);
  const int64_t logged_before = index_.disk()->checkpoint_stats().pages_logged;
  index_.Checkpoint(meta);
  FlightRecorder::Record(
      FrEvent::kCheckpoint, static_cast<int64_t>(histogram_.now()),
      index_.disk()->checkpoint_stats().pages_logged - logged_before);
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

void FrEngine::QueryResult::FillExplain(ExplainRecord* explain) const {
  explain->query_id = query_id;
  explain->stages.push_back({"filter", filter_ms, true});
  explain->stages.push_back({"refine", refine_ms, true});
  explain->accepted_cells = accepted_cells;
  explain->rejected_cells = rejected_cells;
  explain->candidate_cells = candidate_cells;
  explain->objects_fetched = objects_fetched;
  explain->dense_rects = sweep.dense_rects;
  explain->pages_read_physical = cost.io.physical_reads;
  explain->pages_read_logical = cost.io.logical_reads;
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
  // Four sub-phases so serial and parallel execution produce the same
  // rectangles and the same I/O: collect candidate cells in row-major
  // order; scan the index once for the whole query and bucket the scanned
  // positions by grid cell (serial, the only phase that reads pages);
  // refine each candidate independently from the buckets (inline and in
  // order when serial, fanned out over the pool when parallel); then merge
  // per-cell outputs back in row-major order, interleaved with the
  // accepted cells' rectangles.
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

  const QueryControl* control = ctl.active() ? &ctl : nullptr;
  CellBuckets buckets;
  if (!candidates.empty()) {
    const CandidateWindows windows(grid, filter, l);
    std::vector<Vec2> scanned;
    {
      TraceSpan scan_span("tpr.scan");
      const ScanStats scan = TprTree::Traverse(
          buffers, root, q_t,
          [&windows](const Rect& r) { return windows.Meets(r); },
          [&scanned, q_t](ObjectId, const MotionState& state) {
            scanned.push_back(state.PositionAt(q_t));
          },
          control);
      FlightRecorder::Record(FrEvent::kScan, scan.nodes_visited, scan.entries);
      if (scan_span.active()) {
        // The scan is the query's only page reader, so its I/O is the
        // pool's whole delta since the query began.
        const IoStats scan_io = buffers.stats() - io_before;
        scan_span.SetAttr("nodes_visited", scan.nodes_visited);
        scan_span.SetAttr("entries", scan.entries);
        scan_span.SetAttr("io_reads", scan_io.physical_reads);
        scan_span.SetAttr("io_logical", scan_io.logical_reads);
      }
    }
    buckets = CellBuckets(grid, scanned);
  }

  const bool fan_out = pool != nullptr && candidates.size() > 1;
  std::vector<CellOut> outs(candidates.size());

  const auto refine_cell = [&](int64_t i) {
    // Cancellation point per candidate cell (plus per sweep strip inside
    // SweepCell): a deadline-expired refinement abandons the query here.
    if (control != nullptr) control->Check();
    const Candidate c = candidates[static_cast<size_t>(i)];
    CellOut& out = outs[static_cast<size_t>(i)];
    TraceSpan cell_span("fr.cell");
    const Rect cell = grid.CellRect(c.col, c.row);
    const Rect window = cell.Expanded(l / 2);
    // Every scanned position inside the closed window lies in a bucket
    // between the window corners' cells (CellOf is monotone per axis).
    std::vector<Vec2> positions;
    const int col_lo = grid.ColOf(window.x_lo);
    const int col_hi = grid.ColOf(window.x_hi);
    for (int row = grid.RowOf(window.y_lo); row <= grid.RowOf(window.y_hi);
         ++row) {
      for (const Vec2& p : buckets.Range(grid.FlatIndex(col_lo, row),
                                         grid.FlatIndex(col_hi, row))) {
        if (!window.ContainsClosed(p)) continue;
        ++out.objects;
        if (grid.InDomain(p)) positions.push_back(p);
      }
    }
    out.rects = SweepCell(cell, positions, l, n_min, &out.sweep, control);
    if (cell_span.active()) {
      cell_span.SetAttr("col", c.col);
      cell_span.SetAttr("row", c.row);
      cell_span.SetAttr("objects", out.objects);
      cell_span.SetAttr("positions", static_cast<int64_t>(positions.size()));
      cell_span.SetAttr("x_strips", out.sweep.x_strips);
      cell_span.SetAttr("y_sweeps", out.sweep.y_sweeps);
      cell_span.SetAttr("dense_rects", out.sweep.dense_rects);
    }
  };

  if (fan_out) {
    pool->ParallelFor(static_cast<int64_t>(candidates.size()), refine_cell,
                      control);
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
  {
    TraceSpan coalesce_span("fr.coalesce");
    result.region = region.Coalesced();
    coalesce_span.SetAttr("rects_in", static_cast<int64_t>(region.size()));
    coalesce_span.SetAttr("rects_out",
                          static_cast<int64_t>(result.region.size()));
  }
  result.refine_ms = refine_timer.ElapsedMillis();
  // The recorder sees one event per stage, not per cell: at thousands of
  // candidate cells a per-cell event pair costs more than the recorder's
  // overhead budget on a query this fast.
  FlightRecorder::Record(
      FrEvent::kSweep,
      FlightRecorder::Pack(result.sweep.x_strips, result.sweep.y_sweeps),
      FlightRecorder::Pack(result.sweep.y_strips, result.sweep.dense_rects));
  FlightRecorder::Record(FrEvent::kQueryEnd, result.objects_fetched,
                         result.sweep.dense_rects);

  result.cost.cpu_ms = timer.ElapsedMillis();
  result.cost.io = buffers.stats() - io_before;
  result.cost.io_ms = result.cost.io.ReadCostMs(io_ms);

  FrMetrics::Get().Publish(result);

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
