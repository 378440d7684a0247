#include "pdr/sweep/plane_sweep.h"

#include <algorithm>

namespace pdr {
namespace {

/// Builds the sorted, deduplicated event coordinates for one axis: the two
/// boundaries plus every object-induced stopping coordinate strictly
/// inside (lo, hi).
std::vector<double> BuildEvents(double lo, double hi,
                                const std::vector<double>& candidates) {
  std::vector<double> events;
  events.reserve(candidates.size() + 2);
  events.push_back(lo);
  for (double c : candidates) {
    if (c > lo && c < hi) events.push_back(c);
  }
  events.push_back(hi);
  std::sort(events.begin(), events.end());
  events.erase(std::unique(events.begin(), events.end()), events.end());
  return events;
}

/// Segment tree over the Y strips [ys[j], ys[j+1]) of one cell, holding
/// how many band members' squares cover each strip. There is no lazy
/// push-down: a node's `max`/`min` include its own `add`, so a descent
/// carries the sum of its ancestors' adds.
class CoverTree {
 public:
  explicit CoverTree(int leaves) : leaves_(leaves), nodes_(4 * leaves) {}

  /// Adds `delta` to every strip in [lo, hi).
  void Add(int lo, int hi, int delta) {
    if (lo < hi) Add(1, 0, leaves_, lo, hi, delta);
  }

  /// Calls emit(lo, hi) for the maximal runs of strips with count >= n_min,
  /// in increasing order; returns the number of nodes visited.
  template <typename Emit>
  int64_t Report(int64_t n_min, const Emit& emit) const {
    if (leaves_ == 0) return 0;
    int64_t visits = 0;
    int run_lo = 0;
    int run_hi = -1;  // no run open
    const auto dense = [&](int lo, int hi) {
      if (lo != run_hi) {
        if (run_hi >= 0) emit(run_lo, run_hi);
        run_lo = lo;
      }
      run_hi = hi;
    };
    Report(1, 0, leaves_, 0, n_min, dense, &visits);
    if (run_hi >= 0) emit(run_lo, run_hi);
    return visits;
  }

 private:
  struct Node {
    int32_t add = 0;
    int32_t max = 0;
    int32_t min = 0;
  };

  void Add(int v, int nlo, int nhi, int lo, int hi, int delta) {
    Node& node = nodes_[v];
    if (lo <= nlo && nhi <= hi) {
      node.add += delta;
      node.max += delta;
      node.min += delta;
      return;
    }
    const int mid = (nlo + nhi) / 2;
    if (lo < mid) Add(2 * v, nlo, mid, lo, hi, delta);
    if (hi > mid) Add(2 * v + 1, mid, nhi, lo, hi, delta);
    const Node& a = nodes_[2 * v];
    const Node& b = nodes_[2 * v + 1];
    node.max = node.add + std::max(a.max, b.max);
    node.min = node.add + std::min(a.min, b.min);
  }

  template <typename Dense>
  void Report(int v, int nlo, int nhi, int64_t above, int64_t n_min,
              const Dense& dense, int64_t* visits) const {
    ++*visits;
    const Node& node = nodes_[v];
    if (above + node.max < n_min) return;
    if (above + node.min >= n_min) {  // a leaf (min == max) stops here
      dense(nlo, nhi);
      return;
    }
    const int mid = (nlo + nhi) / 2;
    above += node.add;
    Report(2 * v, nlo, mid, above, n_min, dense, visits);
    Report(2 * v + 1, mid, nhi, above, n_min, dense, visits);
  }

  int leaves_;
  std::vector<Node> nodes_;
};

std::vector<Rect> SweepCellImpl(const Rect& cell,
                                const std::vector<Vec2>& positions, double l,
                                int64_t n_min, SweepStats* stats,
                                const QueryControl* ctl) {
  std::vector<Rect> result;
  if (n_min <= 0) {
    // Degenerate threshold: everything is dense.
    result.push_back(cell);
    ++stats->dense_rects;
    return result;
  }
  if (static_cast<int64_t>(positions.size()) < n_min) return result;

  // Y strips of the cell. An object at oy is inside the square centered
  // at y iff oy - l/2 <= y < oy + l/2, so it covers exactly the strips
  // starting in [oy - l/2, oy + l/2). Membership is decided by the
  // *computed* entry and exit coordinates — the same doubles that define
  // the stopping events — so it flips exactly at the events. (Re-deriving
  // the window as [y - l/2, y + l/2] from the strip coordinate rounds
  // differently and can keep an object one strip past its own exit.)
  std::vector<double> y_candidates;
  y_candidates.reserve(positions.size() * 2);
  for (const Vec2& p : positions) {
    y_candidates.push_back(p.y - l / 2);
    y_candidates.push_back(p.y + l / 2);
  }
  const std::vector<double> ys =
      BuildEvents(cell.y_lo, cell.y_hi, y_candidates);
  const int leaves = static_cast<int>(ys.size()) - 1;
  const auto strip_of = [&](double y) {
    const auto it = std::lower_bound(ys.begin(), ys.end(), y);
    return std::min(static_cast<int>(it - ys.begin()), leaves);
  };

  // Entry/exit event lists for incremental band membership: an object at
  // ox is inside the band centered at x iff ox - l/2 <= x < ox + l/2.
  struct BandEvent {
    double x;
    int y_lo;  // covered Y strips [y_lo, y_hi)
    int y_hi;
    bool operator<(const BandEvent& o) const { return x < o.x; }
  };
  std::vector<BandEvent> by_entry;
  std::vector<BandEvent> by_exit;
  by_entry.reserve(positions.size());
  by_exit.reserve(positions.size());
  std::vector<double> x_candidates;
  x_candidates.reserve(positions.size() * 2);
  for (const Vec2& p : positions) {
    const int y_lo = strip_of(p.y - l / 2);
    const int y_hi = strip_of(p.y + l / 2);
    by_entry.push_back({p.x - l / 2, y_lo, y_hi});
    by_exit.push_back({p.x + l / 2, y_lo, y_hi});
    x_candidates.push_back(p.x - l / 2);
    x_candidates.push_back(p.x + l / 2);
  }
  std::sort(by_entry.begin(), by_entry.end());
  std::sort(by_exit.begin(), by_exit.end());

  const std::vector<double> xs =
      BuildEvents(cell.x_lo, cell.x_hi, x_candidates);

  CoverTree cover(leaves);
  int64_t band = 0;  // current band population
  size_t next_entry = 0;
  size_t next_exit = 0;
  for (size_t i = 0; i + 1 < xs.size(); ++i) {
    if (ctl != nullptr) ctl->Check();  // cancellation point per X-strip
    const double x = xs[i];
    ++stats->x_strips;
    // Admit objects whose entry coordinate has been reached...
    for (; next_entry < by_entry.size() && by_entry[next_entry].x <= x;
         ++next_entry, ++band) {
      cover.Add(by_entry[next_entry].y_lo, by_entry[next_entry].y_hi, +1);
    }
    // ...and expel objects whose exit coordinate has been reached.
    for (; next_exit < by_exit.size() && by_exit[next_exit].x <= x;
         ++next_exit, --band) {
      cover.Add(by_exit[next_exit].y_lo, by_exit[next_exit].y_hi, -1);
    }
    if (band < n_min) continue;
    ++stats->y_sweeps;

    const int64_t visits = cover.Report(n_min, [&](int lo, int hi) {
      result.emplace_back(x, ys[lo], xs[i + 1], ys[hi]);
      ++stats->dense_rects;
    });
    stats->y_strips += visits;
  }
  return result;
}

}  // namespace

std::vector<Rect> SweepCell(const Rect& cell,
                            const std::vector<Vec2>& positions, double l,
                            int64_t n_min, SweepStats* stats,
                            const QueryControl* ctl) {
  SweepStats local;
  std::vector<Rect> result =
      SweepCellImpl(cell, positions, l, n_min, &local, ctl);
  if (stats != nullptr) *stats += local;
  return result;
}

}  // namespace pdr
