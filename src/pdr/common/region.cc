#include "pdr/common/region.h"

#include <algorithm>
#include <cassert>
#include <iterator>
#include <limits>
#include <sstream>

namespace pdr {
namespace {

// One vertical slab boundary: a rectangle either starts (+1) or ends (-1)
// contributing its y-interval at coordinate x.
struct XEvent {
  double x;
  bool open;  // true = interval becomes active, false = deactivates
  double y_lo;
  double y_hi;
};

std::vector<XEvent> BuildEvents(const std::vector<Rect>& rects) {
  std::vector<XEvent> events;
  events.reserve(rects.size() * 2);
  for (const Rect& r : rects) {
    if (r.Empty()) continue;
    events.push_back({r.x_lo, true, r.y_lo, r.y_hi});
    events.push_back({r.x_hi, false, r.y_lo, r.y_hi});
  }
  std::sort(events.begin(), events.end(),
            [](const XEvent& a, const XEvent& b) { return a.x < b.x; });
  return events;
}

using Intervals = std::vector<std::pair<double, double>>;

// Multiset of active y-intervals, kept as a sorted contiguous vector
// (ordered by lo then hi, which is exactly what merging needs).
class ActiveIntervals {
 public:
  void Add(double lo, double hi) {
    const std::pair<double, double> iv{lo, hi};
    intervals_.insert(
        std::upper_bound(intervals_.begin(), intervals_.end(), iv), iv);
  }

  /// Removes the latest-added copy of [lo, hi), so the earliest surviving
  /// copy of equal intervals is the one MergedUnion reports.
  void Remove(double lo, double hi) {
    const std::pair<double, double> iv{lo, hi};
    auto it = std::upper_bound(intervals_.begin(), intervals_.end(), iv);
    assert(it != intervals_.begin() && *std::prev(it) == iv);
    intervals_.erase(std::prev(it));
  }

  /// Applies one slab boundary: opens or closes its y-interval.
  void Apply(const XEvent& e) {
    if (e.open) {
      Add(e.y_lo, e.y_hi);
    } else {
      Remove(e.y_lo, e.y_hi);
    }
  }

  bool Empty() const { return intervals_.empty(); }

  /// Disjoint sorted union of the active intervals into `merged`.
  void MergedUnion(Intervals* merged) const {
    merged->clear();
    for (const auto& iv : intervals_) {
      if (!merged->empty() && iv.first <= merged->back().second) {
        merged->back().second = std::max(merged->back().second, iv.second);
      } else {
        merged->push_back(iv);
      }
    }
  }

  double UnionLength(Intervals* scratch) const {
    MergedUnion(scratch);
    double len = 0;
    for (const auto& [lo, hi] : *scratch) len += hi - lo;
    return len;
  }

 private:
  Intervals intervals_;
};

double MergedOverlapLength(const Intervals& a, const Intervals& b) {
  double len = 0;
  size_t i = 0, j = 0;
  while (i < a.size() && j < b.size()) {
    const double lo = std::max(a[i].first, b[j].first);
    const double hi = std::min(a[i].second, b[j].second);
    if (hi > lo) len += hi - lo;
    if (a[i].second < b[j].second) {
      ++i;
    } else {
      ++j;
    }
  }
  return len;
}

}  // namespace

Region::Region(std::vector<Rect> rects) {
  rects_.reserve(rects.size());
  for (const Rect& r : rects) Add(r);
}

void Region::Add(const Rect& r) {
  if (!r.Empty()) rects_.push_back(r);
}

void Region::Add(const Region& other) {
  rects_.insert(rects_.end(), other.rects_.begin(), other.rects_.end());
}

double Region::Area() const { return UnionArea(rects_); }

bool Region::Contains(Vec2 p) const {
  for (const Rect& r : rects_) {
    if (r.ContainsHalfOpen(p)) return true;
  }
  return false;
}

Rect Region::BoundingBox() const {
  if (rects_.empty()) return Rect();
  Rect box = rects_.front();
  for (const Rect& r : rects_) box = box.Union(r);
  return box;
}

Region Region::ClippedTo(const Rect& window) const {
  Region out;
  for (const Rect& r : rects_) out.Add(r.Intersection(window));
  return out;
}

Region Region::Coalesced() const {
  if (rects_.empty()) return Region();
  // Slab decomposition: cut the plane at every rectangle x-edge, compute the
  // merged y-union per slab, then extend rectangles rightward across slabs
  // whose y-union repeats.
  std::vector<XEvent> events = BuildEvents(rects_);
  ActiveIntervals active;

  struct OpenRect {
    double x_start;
    double y_lo;
    double y_hi;
  };
  std::vector<OpenRect> open;  // rects still extending rightward
  std::vector<OpenRect> still_open;
  Intervals merged;
  std::vector<bool> continued;
  Region out;

  size_t i = 0;
  while (i < events.size()) {
    const double x = events[i].x;
    while (i < events.size() && events[i].x == x) active.Apply(events[i++]);
    active.MergedUnion(&merged);
    // Close every open rect whose interval is not exactly present anymore,
    // keep those that continue, open the new ones. The merged intervals
    // are disjoint and sorted, so an open rect can only continue as the
    // one merged interval starting at its y_lo.
    still_open.clear();
    continued.assign(merged.size(), false);
    for (const OpenRect& o : open) {
      const auto it = std::lower_bound(
          merged.begin(), merged.end(), o.y_lo,
          [](const auto& iv, double y) { return iv.first < y; });
      const size_t k = it - merged.begin();
      if (it != merged.end() && !continued[k] && it->first == o.y_lo &&
          it->second == o.y_hi) {
        continued[k] = true;
        still_open.push_back(o);
      } else if (x > o.x_start) {
        out.Add(Rect(o.x_start, o.y_lo, x, o.y_hi));
      }
    }
    for (size_t k = 0; k < merged.size(); ++k) {
      if (!continued[k]) {
        still_open.push_back({x, merged[k].first, merged[k].second});
      }
    }
    open.swap(still_open);
  }
  assert(open.empty());
  return out;
}

std::string Region::ToString() const {
  std::ostringstream os;
  os << "Region{";
  for (size_t i = 0; i < rects_.size(); ++i) {
    if (i) os << ", ";
    os << rects_[i];
  }
  os << "}";
  return os.str();
}

double UnionArea(const std::vector<Rect>& rects) {
  std::vector<XEvent> events = BuildEvents(rects);
  if (events.empty()) return 0.0;
  ActiveIntervals active;
  Intervals scratch;
  double area = 0.0;
  double prev_x = events.front().x;
  size_t i = 0;
  while (i < events.size()) {
    const double x = events[i].x;
    area += active.UnionLength(&scratch) * (x - prev_x);
    while (i < events.size() && events[i].x == x) active.Apply(events[i++]);
    prev_x = x;
  }
  return area;
}

double IntersectionArea(const Region& a, const Region& b) {
  std::vector<XEvent> ea = BuildEvents(a.rects());
  std::vector<XEvent> eb = BuildEvents(b.rects());
  if (ea.empty() || eb.empty()) return 0.0;

  ActiveIntervals active_a;
  ActiveIntervals active_b;
  Intervals merged_a;
  Intervals merged_b;
  double area = 0.0;
  size_t i = 0, j = 0;
  double prev_x = std::min(ea.front().x, eb.front().x);
  while (i < ea.size() || j < eb.size()) {
    const double x = std::min(
        i < ea.size() ? ea[i].x : std::numeric_limits<double>::infinity(),
        j < eb.size() ? eb[j].x : std::numeric_limits<double>::infinity());
    if (!active_a.Empty() && !active_b.Empty()) {
      active_a.MergedUnion(&merged_a);
      active_b.MergedUnion(&merged_b);
      area += MergedOverlapLength(merged_a, merged_b) * (x - prev_x);
    }
    while (i < ea.size() && ea[i].x == x) active_a.Apply(ea[i++]);
    while (j < eb.size() && eb[j].x == x) active_b.Apply(eb[j++]);
    prev_x = x;
  }
  return area;
}

double DifferenceArea(const Region& a, const Region& b) {
  return a.Area() - IntersectionArea(a, b);
}

namespace {

/// Sorted disjoint intervals of `a` minus `b` (both sorted disjoint).
Intervals IntervalDifference(const Intervals& a, const Intervals& b) {
  Intervals out;
  size_t j = 0;
  for (auto [lo, hi] : a) {
    double cursor = lo;
    while (j < b.size() && b[j].second <= cursor) ++j;
    size_t k = j;
    while (k < b.size() && b[k].first < hi) {
      if (b[k].first > cursor) out.emplace_back(cursor, b[k].first);
      cursor = std::max(cursor, b[k].second);
      if (cursor >= hi) break;
      ++k;
    }
    if (cursor < hi) out.emplace_back(cursor, hi);
  }
  return out;
}

Intervals IntervalIntersection(const Intervals& a, const Intervals& b) {
  Intervals out;
  size_t i = 0, j = 0;
  while (i < a.size() && j < b.size()) {
    const double lo = std::max(a[i].first, b[j].first);
    const double hi = std::min(a[i].second, b[j].second);
    if (hi > lo) out.emplace_back(lo, hi);
    if (a[i].second < b[j].second) {
      ++i;
    } else {
      ++j;
    }
  }
  return out;
}

/// Shared slab sweep for constructive boolean operations: for each x-slab
/// the combiner maps the two active interval unions to the result's
/// intervals on that slab.
template <typename Combiner>
Region BooleanCombine(const Region& a, const Region& b,
                      const Combiner& combine) {
  std::vector<XEvent> ea = BuildEvents(a.rects());
  std::vector<XEvent> eb = BuildEvents(b.rects());
  ActiveIntervals active_a;
  ActiveIntervals active_b;
  Intervals merged_a;
  Intervals merged_b;
  Region out;
  size_t i = 0, j = 0;
  double prev_x = 0;
  bool have_prev = false;
  while (i < ea.size() || j < eb.size()) {
    const double x = std::min(
        i < ea.size() ? ea[i].x : std::numeric_limits<double>::infinity(),
        j < eb.size() ? eb[j].x : std::numeric_limits<double>::infinity());
    if (have_prev && x > prev_x) {
      active_a.MergedUnion(&merged_a);
      active_b.MergedUnion(&merged_b);
      for (const auto& [lo, hi] : combine(merged_a, merged_b)) {
        out.Add(Rect(prev_x, lo, x, hi));
      }
    }
    while (i < ea.size() && ea[i].x == x) active_a.Apply(ea[i++]);
    while (j < eb.size() && eb[j].x == x) active_b.Apply(eb[j++]);
    prev_x = x;
    have_prev = true;
  }
  return out.Coalesced();
}

}  // namespace

Region RegionDifference(const Region& a, const Region& b) {
  if (a.IsEmpty()) return Region();
  if (b.IsEmpty()) return a.Coalesced();
  return BooleanCombine(a, b, IntervalDifference);
}

Region RegionIntersection(const Region& a, const Region& b) {
  if (a.IsEmpty() || b.IsEmpty()) return Region();
  return BooleanCombine(a, b, IntervalIntersection);
}

double SymmetricDifferenceArea(const Region& a, const Region& b) {
  return a.Area() + b.Area() - 2.0 * IntersectionArea(a, b);
}

}  // namespace pdr
