// Plane-sweep refinement (Section 5.3, Algorithms 2 and 3).
//
// Given a candidate cell and the positions of every object that can appear
// in the l-square neighborhood of some point of the cell, the sweep finds
// the exact set of rho-dense points inside the cell as a union of
// half-open rectangles.
//
// An l-band of width l sweeps its vertical center line x across the cell.
// With the paper's half-open square semantics, an object at ox is inside
// the band iff ox - l/2 <= x < ox + l/2, so band membership (and therefore
// point density, Lemma 1) is piecewise constant between the "stopping
// events" {ox +- l/2}. The same holds along Y (Lemma 2), so the cell is cut
// into a grid of strips [x_i, x_{i+1}) x [y_j, y_{j+1}) on which the
// density is constant.
//
// Both levels of the paper's sweep run as one X sweep over a segment tree
// whose leaves are the cell's Y strips (every object's {oy +- l/2} inside
// the cell). An object entering or leaving the band adds +1 or -1 over the
// Y strips its square covers; each node keeps its pending add and the max
// and min count below it. At every X-strip whose band population meets
// n_min, the report descends only into nodes whose max reaches n_min and
// emits a whole node once its min does, yielding the maximal dense Y runs
// [y_lo, y_hi) and hence the dense rectangles [x_i, x_{i+1}) x [y_lo, y_hi).
// A cell with k nearby objects and r reported rectangles costs
// O((k + r) log k).

#ifndef PDR_SWEEP_PLANE_SWEEP_H_
#define PDR_SWEEP_PLANE_SWEEP_H_

#include <cstdint>
#include <vector>

#include "pdr/common/geometry.h"
#include "pdr/resilience/deadline.h"

namespace pdr {

/// Work counters for the sweep. The sweep only returns them; its caller
/// reports them (FR publishes `pdr.sweep.*` once per query).
struct SweepStats {
  int64_t x_strips = 0;    ///< strips between consecutive X events
  int64_t y_sweeps = 0;    ///< strips whose band population met n_min
  int64_t y_strips = 0;    ///< segment-tree nodes visited by the reports
  int64_t dense_rects = 0; ///< rectangles emitted

  SweepStats& operator+=(const SweepStats& o) {
    x_strips += o.x_strips;
    y_sweeps += o.y_sweeps;
    y_strips += o.y_strips;
    dense_rects += o.dense_rects;
    return *this;
  }
};

/// Exact dense sub-rectangles of `cell`.
///
/// `positions` must contain (at least) every object position lying in the
/// closed square cell.Expanded(l/2); extra positions are harmless.
/// `n_min` is the object-count threshold (MinObjectsForDensity(rho, l)).
/// The returned rectangles are half-open, disjoint in x-strips, and clipped
/// to `cell`.
///
/// `ctl` (optional) is polled once per X-strip, so a deadline-bounded query
/// abandons the sweep within one strip of expiry (CancelledError). One
/// strip is a segment-tree update plus at most one O((1 + runs) log k)
/// report.
std::vector<Rect> SweepCell(const Rect& cell,
                            const std::vector<Vec2>& positions, double l,
                            int64_t n_min, SweepStats* stats = nullptr,
                            const QueryControl* ctl = nullptr);

}  // namespace pdr

#endif  // PDR_SWEEP_PLANE_SWEEP_H_
