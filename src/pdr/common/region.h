// Region algebra over unions of axis-aligned half-open rectangles.
//
// PDR query answers are unions of rectangles [x_i, x_{i+1}) x [y_j, y_{j+1})
// (Section 5.3 of the paper). The paper's accuracy metrics (Section 7.2)
//
//   r_fp = area(D' \ D) / area(D)      (may exceed 100%)
//   r_fn = area(D \ D') / area(D)      (never exceeds 100%)
//
// require exact areas of boolean combinations of two such unions. This
// module provides those measures with an x-sweep and 1-D interval merging,
// plus normalization (coalescing into disjoint maximal rectangles) used to
// keep reported answers small and canonical.

#ifndef PDR_COMMON_REGION_H_
#define PDR_COMMON_REGION_H_

#include <string>
#include <vector>

#include "pdr/common/geometry.h"

namespace pdr {

/// A (possibly overlapping) union of half-open axis-aligned rectangles.
class Region {
 public:
  Region() = default;
  explicit Region(std::vector<Rect> rects);

  /// Adds one rectangle; empty rectangles are ignored.
  void Add(const Rect& r);

  /// Adds every rectangle of `other`.
  void Add(const Region& other);

  const std::vector<Rect>& rects() const { return rects_; }
  bool IsEmpty() const { return rects_.empty(); }
  size_t size() const { return rects_.size(); }
  void Clear() { rects_.clear(); }

  /// Exact area of the union (overlaps counted once).
  double Area() const;

  /// True when `p` lies in some rectangle under half-open semantics.
  bool Contains(Vec2 p) const;

  /// Smallest rectangle enclosing the whole region (empty Rect if empty).
  Rect BoundingBox() const;

  /// Canonical form: a region covering the same point set, made of disjoint
  /// rectangles, with horizontally adjacent slabs merged, emitted in
  /// (x_hi, x_lo, y_lo) order. The output vector depends only on the point
  /// set: any tiling of it (order, splits, duplicates) gives the same one.
  Region Coalesced() const;

  /// The part of this region inside `window` (rectangles clipped).
  Region ClippedTo(const Rect& window) const;

  std::string ToString() const;

 private:
  std::vector<Rect> rects_;
};

/// Exact area of the union of `rects`.
double UnionArea(const std::vector<Rect>& rects);

/// Exact area of (union of `a`) intersected with (union of `b`).
double IntersectionArea(const Region& a, const Region& b);

/// Exact area of (union of `a`) minus (union of `b`).
double DifferenceArea(const Region& a, const Region& b);

/// Exact area of the symmetric difference of the two unions.
double SymmetricDifferenceArea(const Region& a, const Region& b);

/// The set difference (union of `a`) minus (union of `b`), as a coalesced
/// region of disjoint rectangles. Backbone of continuous-query deltas.
Region RegionDifference(const Region& a, const Region& b);

/// The intersection (union of `a`) with (union of `b`), coalesced.
Region RegionIntersection(const Region& a, const Region& b);

}  // namespace pdr

#endif  // PDR_COMMON_REGION_H_
