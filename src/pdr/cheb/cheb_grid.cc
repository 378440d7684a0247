#include "pdr/cheb/cheb_grid.h"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "pdr/obs/flight_recorder.h"
#include "pdr/obs/obs.h"
#include "pdr/parallel/thread_pool.h"

namespace pdr {

ChebGrid::ChebGrid(const Options& options)
    : options_(options), grid_(options.extent, options.grid_side) {
  assert(options.grid_side >= 1 && options.degree >= 0 &&
         options.horizon >= 0 && options.l > 0);
  slices_.assign(options.horizon + 1,
                 std::vector<Cheb2D>(grid_.cell_count(),
                                     Cheb2D(options.degree)));
  slot_tick_.resize(options.horizon + 1);
  for (Tick t = 0; t <= options.horizon; ++t) slot_tick_[SlotOf(t)] = t;
}

void ChebGrid::AdvanceTo(Tick now) {
  assert(now >= now_);
  for (Tick t = now_ + 1; t <= now; ++t) {
    const Tick incoming = t + options_.horizon;
    const int slot = SlotOf(incoming);
    for (Cheb2D& poly : slices_[slot]) poly.Reset();
    slot_tick_[slot] = incoming;
  }
  now_ = now;
}

const std::vector<Cheb2D>& ChebGrid::Slice(Tick t) const {
  assert(t >= now_ && t <= now_ + options_.horizon);
  assert(slot_tick_[SlotOf(t)] == t);
  return slices_[SlotOf(t)];
}

const Cheb2D& ChebGrid::CellPoly(Tick t, int cell) const {
  return Slice(t)[cell];
}

size_t ChebGrid::CoefficientsPerSlice() const {
  const size_t per_cell =
      static_cast<size_t>(options_.degree + 1) * (options_.degree + 2) / 2;
  return per_cell * static_cast<size_t>(grid_.cell_count());
}

void ChebGrid::AddSquare(Tick t, Vec2 center, double height) {
  if (!grid_.InDomain(center)) return;  // domain convention, see generator.h
  const Rect square =
      Rect::CenteredSquare(center, options_.l).ClippedTo(grid_.domain());
  if (square.Empty()) return;
  const int c_lo = grid_.ColOf(square.x_lo);
  const int c_hi = grid_.ColOf(std::nexttoward(square.x_hi, square.x_lo));
  const int r_lo = grid_.RowOf(square.y_lo);
  const int r_hi = grid_.RowOf(std::nexttoward(square.y_hi, square.y_lo));
  std::vector<Cheb2D>& slice = slices_[SlotOf(t)];
  assert(slot_tick_[SlotOf(t)] == t);
  for (int row = r_lo; row <= r_hi; ++row) {
    for (int col = c_lo; col <= c_hi; ++col) {
      const Rect cell = grid_.CellRect(col, row);
      const Rect overlap = square.Intersection(cell);
      if (overlap.Empty()) continue;
      // Map the overlap into the cell-local [-1, 1]^2 frame.
      const double sx = 2.0 / cell.Width();
      const double sy = 2.0 / cell.Height();
      const int flat = grid_.FlatIndex(col, row);
      slice[flat].AddIndicator((overlap.x_lo - cell.x_lo) * sx - 1.0,
                               (overlap.x_hi - cell.x_lo) * sx - 1.0,
                               (overlap.y_lo - cell.y_lo) * sy - 1.0,
                               (overlap.y_hi - cell.y_lo) * sy - 1.0, height);
      if (!dirty_mark_.empty()) {
        const uint32_t key =
            static_cast<uint32_t>(SlotOf(t) * grid_.cell_count() + flat);
        if (!dirty_mark_[key]) {
          dirty_mark_[key] = 1;
          dirty_keys_.push_back(key);
        }
      }
    }
  }
}

void ChebGrid::Apply(const UpdateEvent& update) {
  assert(update.tick == now_ && "updates must be applied at their tick");
  const double inv_l2 = 1.0 / (options_.l * options_.l);
  if (update.old_state) {
    const Tick last = std::min(update.old_state->t_ref + options_.horizon,
                               now_ + options_.horizon);
    for (Tick t = now_; t <= last; ++t) {
      AddSquare(t, update.old_state->PositionAt(t), -inv_l2);
    }
  }
  if (update.new_state) {
    // Usually t_ref == now_; rebuilds may re-insert an older state, which
    // only covers ticks up to t_ref + H — mirror the removal clamp above so
    // that a later delete cancels exactly what was added.
    assert(update.new_state->t_ref <= now_);
    const Tick last = std::min(update.new_state->t_ref + options_.horizon,
                               now_ + options_.horizon);
    for (Tick t = now_; t <= last; ++t) {
      AddSquare(t, update.new_state->PositionAt(t), inv_l2);
    }
  }
}

double ChebGrid::Density(Tick t, Vec2 p) const {
  const int col = grid_.ColOf(p.x);
  const int row = grid_.RowOf(p.y);
  const Rect cell = grid_.CellRect(col, row);
  const double nx = (p.x - cell.x_lo) * 2.0 / cell.Width() - 1.0;
  const double ny = (p.y - cell.y_lo) * 2.0 / cell.Height() - 1.0;
  return Slice(t)[grid_.FlatIndex(col, row)].Eval(
      std::clamp(nx, -1.0, 1.0), std::clamp(ny, -1.0, 1.0));
}

namespace {

/// Recursive branch-and-bound over one macro-cell's normalized frame.
void BnbRecurse(const Cheb2D& poly, const Rect& cell_world, double x1,
                double x2, double y1, double y2, double rho,
                double min_edge_norm, Region* out, BnbStats* stats,
                const QueryControl* ctl) {
  if (ctl != nullptr) ctl->Check();  // cancellation point per node
  if (stats != nullptr) ++stats->nodes_visited;
  const Interval bound = poly.Bound(x1, x2, y1, y2);
  const auto to_world = [&](double nx1, double nx2, double ny1, double ny2) {
    const double wx = cell_world.Width() / 2.0;
    const double wy = cell_world.Height() / 2.0;
    return Rect(cell_world.x_lo + (nx1 + 1.0) * wx,
                cell_world.y_lo + (ny1 + 1.0) * wy,
                cell_world.x_lo + (nx2 + 1.0) * wx,
                cell_world.y_lo + (ny2 + 1.0) * wy);
  };
  if (bound.lo >= rho) {
    out->Add(to_world(x1, x2, y1, y2));
    if (stats != nullptr) ++stats->accepted_boxes;
    return;
  }
  if (bound.hi < rho) {
    if (stats != nullptr) ++stats->pruned_boxes;
    return;
  }
  if (x2 - x1 <= min_edge_norm && y2 - y1 <= min_edge_norm) {
    if (stats != nullptr) ++stats->point_evals;
    const double cx = (x1 + x2) / 2.0;
    const double cy = (y1 + y2) / 2.0;
    if (poly.Eval(cx, cy) >= rho) {
      out->Add(to_world(x1, x2, y1, y2));
    }
    return;
  }
  const double mx = (x1 + x2) / 2.0;
  const double my = (y1 + y2) / 2.0;
  BnbRecurse(poly, cell_world, x1, mx, y1, my, rho, min_edge_norm, out, stats,
             ctl);
  BnbRecurse(poly, cell_world, mx, x2, y1, my, rho, min_edge_norm, out, stats,
             ctl);
  BnbRecurse(poly, cell_world, x1, mx, my, y2, rho, min_edge_norm, out, stats,
             ctl);
  BnbRecurse(poly, cell_world, mx, x2, my, y2, rho, min_edge_norm, out, stats,
             ctl);
}

}  // namespace

Region ChebGrid::QueryDense(Tick t, double rho, int eval_grid,
                            BnbStats* stats, ThreadPool* pool,
                            const QueryControl* ctl) const {
  return QueryDenseOverSlice(options_, grid_, Slice(t), rho, eval_grid, stats,
                             pool, ctl);
}

Region ChebGrid::QueryDenseOverSlice(const Options& options, const Grid& grid,
                                     const std::vector<Cheb2D>& slice,
                                     double rho, int eval_grid,
                                     BnbStats* stats, ThreadPool* pool,
                                     const QueryControl* ctl) {
  assert(eval_grid >= options.grid_side);
  // Leaf resolution: eval_grid cells across the whole domain => normalized
  // edge 2 * g / eval_grid inside one macro-cell.
  const double min_edge_norm =
      2.0 * static_cast<double>(options.grid_side) / eval_grid;
  // Each macro-cell's search writes its own region and counters; cell
  // regions are concatenated in cell order below, so serial and parallel
  // execution build the identical rectangle sequence before Coalesced().
  const int cell_count = grid.cell_count();
  std::vector<Region> cell_out(static_cast<size_t>(cell_count));
  std::vector<BnbStats> cell_stats(static_cast<size_t>(cell_count));

  const auto search_cell = [&](int64_t cell) {
    const Cheb2D& poly = slice[static_cast<size_t>(cell)];
    // Per-macro-cell branch-and-bound: one span (and one stats scope) per
    // cell, so traces show where the search effort concentrates.
    TraceSpan cell_span("pa.cell");
    BnbStats& cs = cell_stats[static_cast<size_t>(cell)];
    if (poly.IsZero() && rho > 0) {
      ++cs.pruned_boxes;
    } else {
      BnbRecurse(poly, grid.CellRect(static_cast<int>(cell)), -1.0, 1.0,
                 -1.0, 1.0, rho, min_edge_norm,
                 &cell_out[static_cast<size_t>(cell)], &cs, ctl);
    }
    // One summary event per macro cell (per-box events would swamp the
    // ring on deep searches; the counters carry totals).
    if (cs.pruned_boxes > 0) {
      FlightRecorder::Record(FrEvent::kBnbPrune, cell, cs.pruned_boxes);
    }
    if (cell_span.active()) {
      cell_span.SetAttr("cell", static_cast<int64_t>(cell));
      cell_span.SetAttr("nodes_visited", cs.nodes_visited);
      cell_span.SetAttr("accepted_boxes", cs.accepted_boxes);
      cell_span.SetAttr("pruned_boxes", cs.pruned_boxes);
      cell_span.SetAttr("point_evals", cs.point_evals);
    }
  };

  if (pool != nullptr && cell_count > 1) {
    pool->ParallelFor(cell_count, search_cell,
                      ctl != nullptr && ctl->active() ? ctl : nullptr);
  } else {
    for (int64_t cell = 0; cell < cell_count; ++cell) search_cell(cell);
  }

  Region out;
  BnbStats total;
  for (int cell = 0; cell < cell_count; ++cell) {
    out.Add(cell_out[static_cast<size_t>(cell)]);
    total += cell_stats[static_cast<size_t>(cell)];
  }
  // The search's totals are published once per query, from the merged
  // counts, so the fan-out itself makes no metric writes.
  static Counter& bnb_nodes =
      MetricsRegistry::Global().GetCounter("pdr.pa.bnb_nodes");
  static Counter& bnb_pruned =
      MetricsRegistry::Global().GetCounter("pdr.pa.bnb_pruned");
  static Counter& bnb_accepted =
      MetricsRegistry::Global().GetCounter("pdr.pa.bnb_accepted");
  static Counter& bnb_point_evals =
      MetricsRegistry::Global().GetCounter("pdr.pa.bnb_point_evals");
  bnb_nodes.Add(total.nodes_visited);
  bnb_pruned.Add(total.pruned_boxes);
  bnb_accepted.Add(total.accepted_boxes);
  bnb_point_evals.Add(total.point_evals);
  if (stats != nullptr) *stats += total;
  return out.Coalesced();
}

Region ChebGrid::QueryDenseGridScan(Tick t, double rho, int eval_grid,
                                    BnbStats* stats) const {
  Grid eval(options_.extent, eval_grid);
  Region out;
  for (int row = 0; row < eval_grid; ++row) {
    for (int col = 0; col < eval_grid; ++col) {
      const Rect cell = eval.CellRect(col, row);
      if (stats != nullptr) ++stats->point_evals;
      if (Density(t, cell.Center()) >= rho) out.Add(cell);
    }
  }
  return out.Coalesced();
}

}  // namespace pdr
