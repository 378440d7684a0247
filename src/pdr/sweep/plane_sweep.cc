#include "pdr/sweep/plane_sweep.h"

#include <algorithm>

namespace pdr {
namespace {

/// Builds the sorted, deduplicated event coordinates for one axis: the two
/// boundaries plus every object-induced stopping coordinate v - half and
/// v + half strictly inside (lo, hi). `sorted` holds the objects'
/// coordinates in increasing order; rounding is monotone, so both shifted
/// sequences stay sorted and one linear merge orders them.
std::vector<double> MergeEvents(double lo, double hi,
                                const std::vector<double>& sorted,
                                double half) {
  std::vector<double> events;
  events.reserve(sorted.size() * 2 + 2);
  events.push_back(lo);
  const auto add = [&](double c) {
    if (c > lo && c < hi && c != events.back()) events.push_back(c);
  };
  const size_t n = sorted.size();
  size_t i = 0;  // next entry sorted[i] - half
  size_t j = 0;  // next exit sorted[j] + half
  while (i < n || j < n) {
    if (j == n || (i < n && sorted[i] - half <= sorted[j] + half)) {
      add(sorted[i++] - half);
    } else {
      add(sorted[j++] + half);
    }
  }
  if (hi > events.back()) events.push_back(hi);
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
  const double half = l / 2;
  std::vector<double> sorted_y;
  sorted_y.reserve(positions.size());
  for (const Vec2& p : positions) sorted_y.push_back(p.y);
  std::sort(sorted_y.begin(), sorted_y.end());
  const std::vector<double> ys =
      MergeEvents(cell.y_lo, cell.y_hi, sorted_y, half);
  const int leaves = static_cast<int>(ys.size()) - 1;
  const auto strip_of = [&](double y) {
    const auto it = std::lower_bound(ys.begin(), ys.end(), y);
    return std::min(static_cast<int>(it - ys.begin()), leaves);
  };

  // Band membership: an object at ox is inside the band centered at x iff
  // ox - l/2 <= x < ox + l/2. With the objects sorted by ox, both their
  // entry and their exit coordinates are in increasing order, so one list
  // serves as the entry queue and the exit queue.
  std::vector<Vec2> by_x(positions);
  std::sort(by_x.begin(), by_x.end(),
            [](const Vec2& a, const Vec2& b) { return a.x < b.x; });
  struct BandMember {
    int y_lo;  // covered Y strips [y_lo, y_hi)
    int y_hi;
  };
  std::vector<BandMember> members;
  std::vector<double> sorted_x;
  members.reserve(by_x.size());
  sorted_x.reserve(by_x.size());
  for (const Vec2& p : by_x) {
    members.push_back({strip_of(p.y - half), strip_of(p.y + half)});
    sorted_x.push_back(p.x);
  }
  const std::vector<double> xs =
      MergeEvents(cell.x_lo, cell.x_hi, sorted_x, half);

  CoverTree cover(leaves);
  int64_t band = 0;  // current band population
  size_t next_entry = 0;
  size_t next_exit = 0;
  for (size_t i = 0; i + 1 < xs.size(); ++i) {
    if (ctl != nullptr) ctl->Check();  // cancellation point per X-strip
    const double x = xs[i];
    ++stats->x_strips;
    // Admit objects whose entry coordinate has been reached...
    for (; next_entry < members.size() && sorted_x[next_entry] - half <= x;
         ++next_entry, ++band) {
      cover.Add(members[next_entry].y_lo, members[next_entry].y_hi, +1);
    }
    // ...and expel objects whose exit coordinate has been reached.
    for (; next_exit < members.size() && sorted_x[next_exit] + half <= x;
         ++next_exit, --band) {
      cover.Add(members[next_exit].y_lo, members[next_exit].y_hi, -1);
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

std::vector<Rect> JoinSweepStrips(std::vector<Rect> strips) {
  // Compacts in place: `open` indexes the joined rectangles that reach the
  // previous strip's right edge, in increasing y. Within one strip the runs
  // are disjoint and y-sorted, so a run can only continue the open
  // rectangle with its y_lo, and one merge pass per strip finds it.
  std::vector<size_t> open;
  std::vector<size_t> next_open;
  size_t joined = 0;
  size_t i = 0;
  while (i < strips.size()) {
    const double x_lo = strips[i].x_lo;
    next_open.clear();
    size_t k = 0;
    for (; i < strips.size() && strips[i].x_lo == x_lo; ++i) {
      const Rect r = strips[i];
      while (k < open.size() && strips[open[k]].y_lo < r.y_lo) ++k;
      if (k < open.size()) {
        Rect& prev = strips[open[k]];
        if (prev.x_hi == r.x_lo && prev.y_lo == r.y_lo &&
            prev.y_hi == r.y_hi) {
          prev.x_hi = r.x_hi;
          next_open.push_back(open[k++]);
          continue;
        }
      }
      strips[joined] = r;
      next_open.push_back(joined++);
    }
    open.swap(next_open);
  }
  strips.resize(joined);
  return strips;
}

}  // namespace pdr
