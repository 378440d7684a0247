// Geometry kernel for the PDR library.
//
// All spatio-temporal algorithms in this library (plane sweep, density
// histograms, Chebyshev approximation, TPR-tree) share the primitives
// defined here. Two conventions from the paper are load-bearing and are
// enforced globally:
//
//  * Half-open square semantics (Definition 1): the l-square neighborhood
//    S_l(p) of a point p includes its top and right edges but excludes its
//    left and bottom edges. Grid cells follow the same convention so that
//    cells tile the plane without double counting.
//  * Dense regions are reported as unions of half-open rectangles
//    [x_lo, x_hi) x [y_lo, y_hi); see region.h.

#ifndef PDR_COMMON_GEOMETRY_H_
#define PDR_COMMON_GEOMETRY_H_

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <iosfwd>
#include <limits>
#include <string>

namespace pdr {

/// Discrete simulation timestamp ("tick"). The paper models time as integer
/// timestamps; queries may target any tick in [t_now, t_now + H].
using Tick = int32_t;

/// Identifier of a moving object.
using ObjectId = uint32_t;

/// Tolerance used when comparing derived coordinates (event positions,
/// rectangle edges). Raw object coordinates are compared exactly.
inline constexpr double kGeomEps = 1e-9;

/// A 2-D point / vector with double coordinates.
struct Vec2 {
  double x = 0.0;
  double y = 0.0;

  constexpr Vec2() = default;
  constexpr Vec2(double px, double py) : x(px), y(py) {}

  constexpr Vec2 operator+(Vec2 o) const { return {x + o.x, y + o.y}; }
  constexpr Vec2 operator-(Vec2 o) const { return {x - o.x, y - o.y}; }
  constexpr Vec2 operator*(double s) const { return {x * s, y * s}; }
  constexpr Vec2& operator+=(Vec2 o) {
    x += o.x;
    y += o.y;
    return *this;
  }
  constexpr bool operator==(const Vec2&) const = default;

  constexpr double Dot(Vec2 o) const { return x * o.x + y * o.y; }
  constexpr double Norm2() const { return x * x + y * y; }
  double Norm() const { return std::sqrt(Norm2()); }
  double DistanceTo(Vec2 o) const { return (*this - o).Norm(); }

  std::string ToString() const;
};

using Point = Vec2;

/// An axis-aligned rectangle. Unless stated otherwise a Rect is interpreted
/// as the half-open product [x_lo, x_hi) x [y_lo, y_hi); helper predicates
/// exist for both open and closed interpretations because the paper's
/// l-square is closed on top/right and the sweep needs both.
struct Rect {
  double x_lo = 0.0;
  double y_lo = 0.0;
  double x_hi = 0.0;
  double y_hi = 0.0;

  constexpr Rect() = default;
  constexpr Rect(double xl, double yl, double xh, double yh)
      : x_lo(xl), y_lo(yl), x_hi(xh), y_hi(yh) {}

  /// Rectangle spanning two corner points (normalized so lo <= hi).
  static constexpr Rect FromCorners(Vec2 a, Vec2 b) {
    return Rect(std::min(a.x, b.x), std::min(a.y, b.y), std::max(a.x, b.x),
                std::max(a.y, b.y));
  }

  /// The square of edge `l` centered at `c` (geometric footprint of the
  /// paper's l-square neighborhood S_l(c)).
  static constexpr Rect CenteredSquare(Vec2 c, double l) {
    return Rect(c.x - l / 2, c.y - l / 2, c.x + l / 2, c.y + l / 2);
  }

  constexpr bool operator==(const Rect&) const = default;

  constexpr double Width() const { return x_hi - x_lo; }
  constexpr double Height() const { return y_hi - y_lo; }
  constexpr double Area() const {
    return std::max(0.0, Width()) * std::max(0.0, Height());
  }
  constexpr Vec2 Center() const {
    return {(x_lo + x_hi) / 2, (y_lo + y_hi) / 2};
  }
  constexpr bool Empty() const { return x_lo >= x_hi || y_lo >= y_hi; }

  /// Membership under the half-open convention: lo <= p < hi.
  constexpr bool ContainsHalfOpen(Vec2 p) const {
    return p.x >= x_lo && p.x < x_hi && p.y >= y_lo && p.y < y_hi;
  }

  /// Membership under the paper's l-square convention (Definition 1):
  /// includes top and right edges, excludes left and bottom edges.
  constexpr bool ContainsLSquare(Vec2 p) const {
    return p.x > x_lo && p.x <= x_hi && p.y > y_lo && p.y <= y_hi;
  }

  /// Closed membership (all four edges included).
  constexpr bool ContainsClosed(Vec2 p) const {
    return p.x >= x_lo && p.x <= x_hi && p.y >= y_lo && p.y <= y_hi;
  }

  /// True when the closed rectangles share at least one point.
  constexpr bool IntersectsClosed(const Rect& o) const {
    return x_lo <= o.x_hi && o.x_lo <= x_hi && y_lo <= o.y_hi &&
           o.y_lo <= y_hi;
  }

  /// True when the open interiors intersect (positive-area overlap).
  constexpr bool IntersectsOpen(const Rect& o) const {
    return x_lo < o.x_hi && o.x_lo < x_hi && y_lo < o.y_hi && o.y_lo < y_hi;
  }

  /// True when `o` is fully inside this rectangle (closed containment).
  constexpr bool Contains(const Rect& o) const {
    return x_lo <= o.x_lo && o.x_hi <= x_hi && y_lo <= o.y_lo &&
           o.y_hi <= y_hi;
  }

  /// Intersection rectangle; may be Empty() when the inputs are disjoint.
  constexpr Rect Intersection(const Rect& o) const {
    return Rect(std::max(x_lo, o.x_lo), std::max(y_lo, o.y_lo),
                std::min(x_hi, o.x_hi), std::min(y_hi, o.y_hi));
  }

  /// Smallest rectangle covering both inputs.
  constexpr Rect Union(const Rect& o) const {
    return Rect(std::min(x_lo, o.x_lo), std::min(y_lo, o.y_lo),
                std::max(x_hi, o.x_hi), std::max(y_hi, o.y_hi));
  }

  /// Rectangle grown by `margin` on every side.
  constexpr Rect Expanded(double margin) const {
    return Rect(x_lo - margin, y_lo - margin, x_hi + margin, y_hi + margin);
  }

  /// Rectangle clipped to `bounds`.
  constexpr Rect ClippedTo(const Rect& bounds) const {
    return Intersection(bounds);
  }

  /// Approximate equality within `eps` on every edge.
  bool AlmostEquals(const Rect& o, double eps = kGeomEps) const {
    return std::fabs(x_lo - o.x_lo) <= eps && std::fabs(y_lo - o.y_lo) <= eps &&
           std::fabs(x_hi - o.x_hi) <= eps && std::fabs(y_hi - o.y_hi) <= eps;
  }

  std::string ToString() const;
};

std::ostream& operator<<(std::ostream& os, const Vec2& v);
std::ostream& operator<<(std::ostream& os, const Rect& r);

/// Uniform grid over a square [0, extent) x [0, extent) domain, split into
/// cells x cells half-open cells. Used by the density histogram, the
/// baselines, and the PA macro-grid. Cell (col, row) covers
/// [col*edge, (col+1)*edge) x [row*edge, (row+1)*edge).
class Grid {
 public:
  Grid(double extent, int cells)
      : extent_(extent), cells_(cells), edge_(extent / cells) {}

  double extent() const { return extent_; }
  int cells_per_side() const { return cells_; }
  int cell_count() const { return cells_ * cells_; }
  double cell_edge() const { return edge_; }
  double cell_area() const { return edge_ * edge_; }
  Rect domain() const { return Rect(0, 0, extent_, extent_); }

  /// Column index of coordinate `x`, clamped into [0, cells-1] so that
  /// objects sitting exactly on the domain's top/right edge stay in range.
  /// The clamp runs in double before the int conversion, so a position
  /// predicted far off the domain cannot overflow it (NaN maps to 0).
  int ColOf(double x) const {
    const double col = std::floor(x / edge_);
    return col >= 1 ? static_cast<int>(std::min(col, cells_ - 1.0)) : 0;
  }
  int RowOf(double y) const { return ColOf(y); }

  /// Flat index of the cell containing point `p`.
  int CellOf(Vec2 p) const { return RowOf(p.y) * cells_ + ColOf(p.x); }

  int FlatIndex(int col, int row) const { return row * cells_ + col; }

  Rect CellRect(int col, int row) const {
    return Rect(col * edge_, row * edge_, (col + 1) * edge_,
                (row + 1) * edge_);
  }
  Rect CellRect(int flat) const {
    return CellRect(flat % cells_, flat / cells_);
  }

  bool InDomain(Vec2 p) const {
    return p.x >= 0 && p.x <= extent_ && p.y >= 0 && p.y <= extent_;
  }

 private:
  double extent_;
  int cells_;
  double edge_;
};

/// Clamps `v` into [lo, hi].
inline double Clamp(double v, double lo, double hi) {
  return std::min(std::max(v, lo), hi);
}

}  // namespace pdr

#endif  // PDR_COMMON_GEOMETRY_H_
