#include "pdr/common/geometry.h"

#include <gtest/gtest.h>

#include <limits>
#include <sstream>

namespace pdr {
namespace {

TEST(Vec2Test, Arithmetic) {
  const Vec2 a{1, 2}, b{3, -4};
  EXPECT_EQ(a + b, Vec2(4, -2));
  EXPECT_EQ(a - b, Vec2(-2, 6));
  EXPECT_EQ(a * 2.0, Vec2(2, 4));
  EXPECT_DOUBLE_EQ(a.Dot(b), 3 - 8);
  EXPECT_DOUBLE_EQ(b.Norm2(), 25);
  EXPECT_DOUBLE_EQ(b.Norm(), 5);
  EXPECT_DOUBLE_EQ(a.DistanceTo(a), 0);
  EXPECT_DOUBLE_EQ(Vec2(0, 0).DistanceTo(Vec2(3, 4)), 5);
}

TEST(Vec2Test, CompoundAssign) {
  Vec2 a{1, 1};
  a += Vec2{2, 3};
  EXPECT_EQ(a, Vec2(3, 4));
}

TEST(RectTest, BasicGeometry) {
  const Rect r(1, 2, 4, 6);
  EXPECT_DOUBLE_EQ(r.Width(), 3);
  EXPECT_DOUBLE_EQ(r.Height(), 4);
  EXPECT_DOUBLE_EQ(r.Area(), 12);
  EXPECT_EQ(r.Center(), Vec2(2.5, 4));
  EXPECT_FALSE(r.Empty());
  EXPECT_TRUE(Rect(1, 1, 1, 5).Empty());
  EXPECT_TRUE(Rect(2, 2, 1, 5).Empty());
  EXPECT_DOUBLE_EQ(Rect(2, 2, 1, 5).Area(), 0);
}

TEST(RectTest, FromCornersNormalizes) {
  const Rect r = Rect::FromCorners({4, 1}, {1, 6});
  EXPECT_EQ(r, Rect(1, 1, 4, 6));
}

TEST(RectTest, CenteredSquare) {
  const Rect s = Rect::CenteredSquare({10, 20}, 4);
  EXPECT_EQ(s, Rect(8, 18, 12, 22));
}

TEST(RectTest, HalfOpenMembership) {
  const Rect r(0, 0, 1, 1);
  EXPECT_TRUE(r.ContainsHalfOpen({0, 0}));
  EXPECT_TRUE(r.ContainsHalfOpen({0.999, 0.999}));
  EXPECT_FALSE(r.ContainsHalfOpen({1, 0.5}));
  EXPECT_FALSE(r.ContainsHalfOpen({0.5, 1}));
}

TEST(RectTest, LSquareMembershipMatchesDefinition1) {
  // S_l includes top and right edges, excludes left and bottom edges.
  const Rect s = Rect::CenteredSquare({0, 0}, 2);  // [-1,1]^2
  EXPECT_TRUE(s.ContainsLSquare({1, 1}));     // top-right corner: in
  EXPECT_TRUE(s.ContainsLSquare({1, 0}));     // right edge: in
  EXPECT_TRUE(s.ContainsLSquare({0, 1}));     // top edge: in
  EXPECT_FALSE(s.ContainsLSquare({-1, 0}));   // left edge: out
  EXPECT_FALSE(s.ContainsLSquare({0, -1}));   // bottom edge: out
  EXPECT_FALSE(s.ContainsLSquare({-1, -1}));  // bottom-left corner: out
  EXPECT_TRUE(s.ContainsLSquare({0, 0}));
}

TEST(RectTest, ClosedMembership) {
  const Rect r(0, 0, 1, 1);
  EXPECT_TRUE(r.ContainsClosed({0, 0}));
  EXPECT_TRUE(r.ContainsClosed({1, 1}));
  EXPECT_FALSE(r.ContainsClosed({1.0001, 1}));
}

TEST(RectTest, IntersectionPredicates) {
  const Rect a(0, 0, 2, 2);
  const Rect b(2, 0, 4, 2);  // shares an edge with a
  EXPECT_TRUE(a.IntersectsClosed(b));
  EXPECT_FALSE(a.IntersectsOpen(b));
  const Rect c(1, 1, 3, 3);
  EXPECT_TRUE(a.IntersectsOpen(c));
  const Rect d(5, 5, 6, 6);
  EXPECT_FALSE(a.IntersectsClosed(d));
}

TEST(RectTest, IntersectionAndUnion) {
  const Rect a(0, 0, 4, 4), b(2, 1, 6, 3);
  EXPECT_EQ(a.Intersection(b), Rect(2, 1, 4, 3));
  EXPECT_EQ(a.Union(b), Rect(0, 0, 6, 4));
  EXPECT_TRUE(a.Intersection(Rect(5, 5, 6, 6)).Empty());
}

TEST(RectTest, ContainsRect) {
  const Rect a(0, 0, 10, 10);
  EXPECT_TRUE(a.Contains(Rect(0, 0, 10, 10)));
  EXPECT_TRUE(a.Contains(Rect(1, 1, 9, 9)));
  EXPECT_FALSE(a.Contains(Rect(-1, 1, 9, 9)));
}

TEST(RectTest, ExpandedAndClipped) {
  const Rect a(2, 2, 4, 4);
  EXPECT_EQ(a.Expanded(1), Rect(1, 1, 5, 5));
  EXPECT_EQ(a.Expanded(1).ClippedTo(Rect(0, 0, 4.5, 10)),
            Rect(1, 1, 4.5, 5));
}

TEST(RectTest, AlmostEquals) {
  const Rect a(0, 0, 1, 1);
  EXPECT_TRUE(a.AlmostEquals(Rect(1e-12, 0, 1, 1)));
  EXPECT_FALSE(a.AlmostEquals(Rect(1e-3, 0, 1, 1)));
}

TEST(RectTest, Streaming) {
  std::ostringstream os;
  os << Rect(0, 1, 2, 3);
  EXPECT_EQ(os.str(), "[0, 2) x [1, 3)");
  EXPECT_EQ(Vec2(1, 2).ToString(), "(1, 2)");
}

TEST(GridTest, CellIndexing) {
  const Grid g(100.0, 10);
  EXPECT_DOUBLE_EQ(g.cell_edge(), 10.0);
  EXPECT_EQ(g.cell_count(), 100);
  EXPECT_EQ(g.ColOf(0), 0);
  EXPECT_EQ(g.ColOf(9.999), 0);
  EXPECT_EQ(g.ColOf(10.0), 1);
  EXPECT_EQ(g.ColOf(99.999), 9);
  // Domain top edge is clamped into the last cell.
  EXPECT_EQ(g.ColOf(100.0), 9);
  EXPECT_EQ(g.CellOf({15, 25}), 2 * 10 + 1);
}

// Coordinates far off the domain (a position predicted from an absurd
// reported velocity) clamp into the border cells instead of overflowing
// the int conversion; NaN lands in cell 0.
TEST(GridTest, ColOfClampsFarOffAndNonFiniteCoordinates) {
  const Grid g(100.0, 10);
  const double inf = std::numeric_limits<double>::infinity();
  for (const double x : {-1.0, -1e300, -inf}) EXPECT_EQ(g.ColOf(x), 0) << x;
  for (const double x : {100.5, 1e300, inf}) EXPECT_EQ(g.ColOf(x), 9) << x;
  EXPECT_EQ(g.ColOf(std::numeric_limits<double>::quiet_NaN()), 0);
  EXPECT_EQ(g.CellOf({1e300, -1e300}), 9);
  EXPECT_EQ(g.CellOf({-inf, inf}), 9 * 10);
}

TEST(GridTest, CellRectRoundTrip) {
  const Grid g(1000.0, 25);
  for (int row : {0, 7, 24}) {
    for (int col : {0, 13, 24}) {
      const Rect cell = g.CellRect(col, row);
      EXPECT_EQ(g.CellOf(cell.Center()), g.FlatIndex(col, row));
      EXPECT_EQ(g.CellRect(g.FlatIndex(col, row)), cell);
    }
  }
}

TEST(GridTest, CellsTileDomainExactly) {
  const Grid g(90.0, 9);
  double total = 0;
  for (int i = 0; i < g.cell_count(); ++i) total += g.CellRect(i).Area();
  EXPECT_DOUBLE_EQ(total, 90.0 * 90.0);
}

TEST(GridTest, InDomain) {
  const Grid g(50.0, 5);
  EXPECT_TRUE(g.InDomain({0, 0}));
  EXPECT_TRUE(g.InDomain({50, 50}));
  EXPECT_FALSE(g.InDomain({-0.001, 10}));
  EXPECT_FALSE(g.InDomain({10, 50.001}));
}

TEST(GridTest, ClampHelper) {
  EXPECT_DOUBLE_EQ(Clamp(5, 0, 10), 5);
  EXPECT_DOUBLE_EQ(Clamp(-5, 0, 10), 0);
  EXPECT_DOUBLE_EQ(Clamp(15, 0, 10), 10);
}

}  // namespace
}  // namespace pdr
