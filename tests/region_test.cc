#include "pdr/common/region.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <tuple>
#include <vector>

#include "pdr/common/random.h"

namespace pdr {
namespace {

TEST(UnionAreaTest, EmptyAndSingle) {
  EXPECT_DOUBLE_EQ(UnionArea({}), 0.0);
  EXPECT_DOUBLE_EQ(UnionArea({Rect(0, 0, 2, 3)}), 6.0);
}

TEST(UnionAreaTest, DisjointRects) {
  EXPECT_DOUBLE_EQ(UnionArea({Rect(0, 0, 1, 1), Rect(5, 5, 7, 6)}), 3.0);
}

TEST(UnionAreaTest, OverlappingRects) {
  // Two 2x2 squares overlapping in a 1x1 square.
  EXPECT_DOUBLE_EQ(UnionArea({Rect(0, 0, 2, 2), Rect(1, 1, 3, 3)}), 7.0);
}

TEST(UnionAreaTest, NestedRects) {
  EXPECT_DOUBLE_EQ(UnionArea({Rect(0, 0, 4, 4), Rect(1, 1, 2, 2)}), 16.0);
}

TEST(UnionAreaTest, IdenticalDuplicates) {
  EXPECT_DOUBLE_EQ(
      UnionArea({Rect(0, 0, 1, 1), Rect(0, 0, 1, 1), Rect(0, 0, 1, 1)}),
      1.0);
}

TEST(UnionAreaTest, SharedEdgeNoDoubleCount) {
  EXPECT_DOUBLE_EQ(UnionArea({Rect(0, 0, 1, 1), Rect(1, 0, 2, 1)}), 2.0);
}

TEST(RegionTest, AddIgnoresEmpty) {
  Region r;
  r.Add(Rect(1, 1, 1, 5));
  r.Add(Rect(3, 3, 2, 4));
  EXPECT_TRUE(r.IsEmpty());
  r.Add(Rect(0, 0, 1, 1));
  EXPECT_EQ(r.size(), 1u);
}

TEST(RegionTest, ContainsHalfOpen) {
  Region r(std::vector<Rect>{Rect(0, 0, 1, 1), Rect(2, 2, 3, 3)});
  EXPECT_TRUE(r.Contains({0.5, 0.5}));
  EXPECT_TRUE(r.Contains({0, 0}));
  EXPECT_FALSE(r.Contains({1, 1}));  // half-open
  EXPECT_TRUE(r.Contains({2.5, 2.5}));
  EXPECT_FALSE(r.Contains({1.5, 1.5}));
}

TEST(RegionTest, BoundingBox) {
  Region r(std::vector<Rect>{Rect(0, 0, 1, 1), Rect(5, -2, 6, 0.5)});
  EXPECT_EQ(r.BoundingBox(), Rect(0, -2, 6, 1));
  EXPECT_TRUE(Region().BoundingBox().Empty());
}

TEST(RegionTest, ClippedTo) {
  Region r(std::vector<Rect>{Rect(0, 0, 10, 10)});
  const Region clipped = r.ClippedTo(Rect(5, 5, 20, 20));
  EXPECT_DOUBLE_EQ(clipped.Area(), 25.0);
}

TEST(RegionTest, CoalescedPreservesAreaAndDisjoint) {
  Rng rng(1234);
  for (int iter = 0; iter < 20; ++iter) {
    Region r;
    const int n = 1 + static_cast<int>(rng.UniformInt(0, 30));
    for (int i = 0; i < n; ++i) {
      const double x = rng.Uniform(0, 90);
      const double y = rng.Uniform(0, 90);
      r.Add(Rect(x, y, x + rng.Uniform(1, 10), y + rng.Uniform(1, 10)));
    }
    const Region c = r.Coalesced();
    EXPECT_NEAR(c.Area(), r.Area(), 1e-9);
    // Disjointness: sum of rect areas equals union area.
    double sum = 0;
    for (const Rect& rect : c.rects()) sum += rect.Area();
    EXPECT_NEAR(sum, c.Area(), 1e-9);
  }
}

TEST(RegionTest, CoalescedPreservesMembership) {
  Rng rng(99);
  Region r;
  for (int i = 0; i < 25; ++i) {
    const double x = rng.Uniform(0, 50);
    const double y = rng.Uniform(0, 50);
    r.Add(Rect(x, y, x + rng.Uniform(0.5, 8), y + rng.Uniform(0.5, 8)));
  }
  const Region c = r.Coalesced();
  for (int i = 0; i < 2000; ++i) {
    const Vec2 p{rng.Uniform(0, 60), rng.Uniform(0, 60)};
    EXPECT_EQ(r.Contains(p), c.Contains(p)) << p.ToString();
  }
}

TEST(RegionTest, CoalescedMergesAdjacentSlabs) {
  // Two rects that together form one bigger rect must merge into one.
  Region r(std::vector<Rect>{Rect(0, 0, 1, 2), Rect(1, 0, 2, 2)});
  const Region c = r.Coalesced();
  ASSERT_EQ(c.size(), 1u);
  EXPECT_EQ(c.rects()[0], Rect(0, 0, 2, 2));
}

TEST(RegionTest, CoalescedCanonicalAcrossOrder) {
  const std::vector<Rect> rects = {Rect(0, 0, 2, 2), Rect(1, 1, 3, 3),
                                   Rect(2, 0, 4, 1)};
  Region a;
  for (const Rect& r : rects) a.Add(r);
  Region b;
  for (auto it = rects.rbegin(); it != rects.rend(); ++it) b.Add(*it);
  const Region ca = a.Coalesced();
  const Region cb = b.Coalesced();
  ASSERT_EQ(ca.size(), cb.size());
  for (size_t i = 0; i < ca.size(); ++i) {
    EXPECT_EQ(ca.rects()[i], cb.rects()[i]);
  }
}

// Coalesced() emits a rectangle when its slab run ends: by x_hi, then by
// x_lo (runs that started earlier were opened earlier), then by y_lo.
TEST(RegionTest, CoalescedEmitsByXHiThenXLoThenYLo) {
  Region r(std::vector<Rect>{Rect(1, 0, 3, 1), Rect(0, 4, 3, 5),
                             Rect(0, 2, 3, 3), Rect(0, 6, 2, 7)});
  const std::vector<Rect> want = {Rect(0, 6, 2, 7), Rect(0, 2, 3, 3),
                                  Rect(0, 4, 3, 5), Rect(1, 0, 3, 1)};
  EXPECT_EQ(r.Coalesced().rects(), want);
}

// Splits every rectangle at random interior x and y cuts, duplicates some
// pieces and shuffles them: the same point set, tiled differently.
std::vector<Rect> Retile(const std::vector<Rect>& rects, Rng& rng) {
  std::vector<Rect> out;
  for (const Rect& r : rects) {
    std::vector<double> xs = {r.x_lo, r.x_hi};
    std::vector<double> ys = {r.y_lo, r.y_hi};
    for (int64_t k = rng.UniformInt(0, 3); k > 0; --k) {
      xs.push_back(rng.Uniform(r.x_lo, r.x_hi));
    }
    for (int64_t k = rng.UniformInt(0, 3); k > 0; --k) {
      ys.push_back(rng.Uniform(r.y_lo, r.y_hi));
    }
    for (std::vector<double>* cuts : {&xs, &ys}) {
      std::sort(cuts->begin(), cuts->end());
      cuts->erase(std::unique(cuts->begin(), cuts->end()), cuts->end());
    }
    for (size_t i = 0; i + 1 < xs.size(); ++i) {
      for (size_t j = 0; j + 1 < ys.size(); ++j) {
        const Rect piece(xs[i], ys[j], xs[i + 1], ys[j + 1]);
        out.push_back(piece);
        if (rng.Bernoulli(0.2)) out.push_back(piece);
      }
    }
  }
  std::shuffle(out.begin(), out.end(), rng);
  return out;
}

// Coalesced()'s output, order included, depends only on the covered point
// set: any re-tiling of the input gives back the identical vector. FR's
// refinement relies on this to join sweep strips before the coalesce.
TEST(RegionPropertyTest, CoalescedIsIndependentOfTiling) {
  for (const bool integer : {true, false}) {
    for (uint64_t seed = 1; seed <= 40; ++seed) {
      SCOPED_TRACE(std::to_string(seed) + (integer ? " integer" : " real"));
      Rng rng(seed);
      std::vector<Rect> rects;
      for (int64_t n = rng.UniformInt(1, 12); n > 0; --n) {
        double x = rng.Uniform(0, 20), y = rng.Uniform(0, 20);
        double w = rng.Uniform(0.5, 8), h = rng.Uniform(0.5, 8);
        if (integer) {
          std::tie(x, y, w, h) = std::make_tuple(
              std::floor(x), std::floor(y), std::ceil(w), std::ceil(h));
        }
        rects.emplace_back(x, y, x + w, y + h);
      }
      const std::vector<Rect> want = Region(rects).Coalesced().rects();
      for (int trial = 0; trial < 5; ++trial) {
        const Region retiled(Retile(rects, rng));
        EXPECT_EQ(retiled.Coalesced().rects(), want);
        EXPECT_EQ(Region(want).Coalesced().rects(), want);
      }
    }
  }
}

TEST(IntersectionAreaTest, Simple) {
  Region a(std::vector<Rect>{Rect(0, 0, 2, 2)});
  Region b(std::vector<Rect>{Rect(1, 1, 3, 3)});
  EXPECT_DOUBLE_EQ(IntersectionArea(a, b), 1.0);
  EXPECT_DOUBLE_EQ(DifferenceArea(a, b), 3.0);
  EXPECT_DOUBLE_EQ(DifferenceArea(b, a), 3.0);
  EXPECT_DOUBLE_EQ(SymmetricDifferenceArea(a, b), 6.0);
}

TEST(IntersectionAreaTest, DisjointAndEmpty) {
  Region a(std::vector<Rect>{Rect(0, 0, 1, 1)});
  Region b(std::vector<Rect>{Rect(5, 5, 6, 6)});
  EXPECT_DOUBLE_EQ(IntersectionArea(a, b), 0.0);
  EXPECT_DOUBLE_EQ(IntersectionArea(a, Region()), 0.0);
  EXPECT_DOUBLE_EQ(IntersectionArea(Region(), Region()), 0.0);
}

TEST(IntersectionAreaTest, SelfIntersectionIsArea) {
  Region a(std::vector<Rect>{Rect(0, 0, 2, 2), Rect(1, 1, 3, 3), Rect(10, 0, 11, 4)});
  EXPECT_NEAR(IntersectionArea(a, a), a.Area(), 1e-9);
}

TEST(IntersectionAreaTest, OverlappingInputsWithinOneRegion) {
  // Internal overlap inside each region must not inflate the measure.
  Region a(std::vector<Rect>{Rect(0, 0, 2, 2), Rect(0, 0, 2, 2)});
  Region b(std::vector<Rect>{Rect(1, 0, 3, 2), Rect(1, 0, 3, 2)});
  EXPECT_DOUBLE_EQ(IntersectionArea(a, b), 2.0);
}

// Property: boolean-area identities hold against Monte-Carlo estimates.
TEST(RegionPropertyTest, AreasMatchMonteCarlo) {
  Rng rng(2024);
  for (int iter = 0; iter < 6; ++iter) {
    Region a, b;
    for (int i = 0; i < 12; ++i) {
      double x = rng.Uniform(0, 80), y = rng.Uniform(0, 80);
      a.Add(Rect(x, y, x + rng.Uniform(2, 15), y + rng.Uniform(2, 15)));
      x = rng.Uniform(0, 80);
      y = rng.Uniform(0, 80);
      b.Add(Rect(x, y, x + rng.Uniform(2, 15), y + rng.Uniform(2, 15)));
    }
    const double domain = 100.0 * 100.0;
    int in_a = 0, in_b = 0, in_both = 0;
    const int samples = 40000;
    for (int s = 0; s < samples; ++s) {
      const Vec2 p{rng.Uniform(0, 100), rng.Uniform(0, 100)};
      const bool pa = a.Contains(p);
      const bool pb = b.Contains(p);
      in_a += pa;
      in_b += pb;
      in_both += pa && pb;
    }
    const double tol = 0.03 * domain;  // ~3 sigma for these sizes
    EXPECT_NEAR(a.Area(), domain * in_a / samples, tol);
    EXPECT_NEAR(b.Area(), domain * in_b / samples, tol);
    EXPECT_NEAR(IntersectionArea(a, b), domain * in_both / samples, tol);
  }
}

TEST(RegionDifferenceTest, BasicShapes) {
  const Region a(std::vector<Rect>{Rect(0, 0, 4, 4)});
  const Region b(std::vector<Rect>{Rect(2, 0, 6, 4)});
  const Region diff = RegionDifference(a, b);
  ASSERT_EQ(diff.size(), 1u);
  EXPECT_EQ(diff.rects()[0], Rect(0, 0, 2, 4));
  EXPECT_DOUBLE_EQ(diff.Area(), 8.0);
}

TEST(RegionDifferenceTest, HolePunch) {
  // Subtracting an interior rect leaves a ring (multiple rects).
  const Region a(std::vector<Rect>{Rect(0, 0, 10, 10)});
  const Region b(std::vector<Rect>{Rect(3, 3, 7, 7)});
  const Region diff = RegionDifference(a, b);
  EXPECT_DOUBLE_EQ(diff.Area(), 100.0 - 16.0);
  EXPECT_FALSE(diff.Contains({5, 5}));
  EXPECT_TRUE(diff.Contains({1, 1}));
  EXPECT_TRUE(diff.Contains({5, 1}));
}

TEST(RegionDifferenceTest, EmptyCases) {
  const Region a(std::vector<Rect>{Rect(0, 0, 2, 2)});
  EXPECT_TRUE(RegionDifference(Region(), a).IsEmpty());
  EXPECT_DOUBLE_EQ(RegionDifference(a, Region()).Area(), 4.0);
  EXPECT_TRUE(RegionDifference(a, a).IsEmpty());
}

TEST(RegionDifferenceTest, MembershipProperty) {
  Rng rng(555);
  for (int iter = 0; iter < 8; ++iter) {
    Region a, b;
    for (int i = 0; i < 10; ++i) {
      double x = rng.Uniform(0, 80), y = rng.Uniform(0, 80);
      a.Add(Rect(x, y, x + rng.Uniform(2, 15), y + rng.Uniform(2, 15)));
      x = rng.Uniform(0, 80);
      y = rng.Uniform(0, 80);
      b.Add(Rect(x, y, x + rng.Uniform(2, 15), y + rng.Uniform(2, 15)));
    }
    const Region diff = RegionDifference(a, b);
    const Region inter = RegionIntersection(a, b);
    EXPECT_NEAR(diff.Area(), DifferenceArea(a, b), 1e-9);
    EXPECT_NEAR(inter.Area(), IntersectionArea(a, b), 1e-9);
    for (int s = 0; s < 1500; ++s) {
      const Vec2 p{rng.Uniform(0, 100), rng.Uniform(0, 100)};
      EXPECT_EQ(diff.Contains(p), a.Contains(p) && !b.Contains(p));
      EXPECT_EQ(inter.Contains(p), a.Contains(p) && b.Contains(p));
    }
  }
}

TEST(RegionIntersectionTest, BasicShapes) {
  const Region a(std::vector<Rect>{Rect(0, 0, 4, 4)});
  const Region b(std::vector<Rect>{Rect(2, 2, 6, 6)});
  const Region inter = RegionIntersection(a, b);
  ASSERT_EQ(inter.size(), 1u);
  EXPECT_EQ(inter.rects()[0], Rect(2, 2, 4, 4));
  EXPECT_TRUE(RegionIntersection(a, Region()).IsEmpty());
}

// Exact (tolerance-free) validation: with integer coordinates every
// boolean measure can be checked against a unit-cell raster.
TEST(RegionPropertyTest, IntegerRasterExactness) {
  Rng rng(777);
  const int grid = 24;
  for (int iter = 0; iter < 15; ++iter) {
    Region a, b;
    for (int i = 0; i < 8; ++i) {
      const auto make = [&] {
        const int x = static_cast<int>(rng.UniformInt(0, grid - 2));
        const int y = static_cast<int>(rng.UniformInt(0, grid - 2));
        const int w = static_cast<int>(rng.UniformInt(1, grid - 1 - x));
        const int h = static_cast<int>(rng.UniformInt(1, grid - 1 - y));
        return Rect(x, y, x + w, y + h);
      };
      a.Add(make());
      b.Add(make());
    }
    // Rasterize on unit cells (cell (i,j) covered iff its center is in
    // the half-open region — exact for integer-aligned rects).
    int count_a = 0, count_b = 0, count_ab = 0, count_diff = 0;
    for (int j = 0; j < grid; ++j) {
      for (int i = 0; i < grid; ++i) {
        const Vec2 center{i + 0.5, j + 0.5};
        const bool in_a = a.Contains(center);
        const bool in_b = b.Contains(center);
        count_a += in_a;
        count_b += in_b;
        count_ab += in_a && in_b;
        count_diff += in_a && !in_b;
      }
    }
    EXPECT_DOUBLE_EQ(a.Area(), count_a);
    EXPECT_DOUBLE_EQ(b.Area(), count_b);
    EXPECT_DOUBLE_EQ(IntersectionArea(a, b), count_ab);
    EXPECT_DOUBLE_EQ(DifferenceArea(a, b), count_diff);
    EXPECT_DOUBLE_EQ(RegionDifference(a, b).Area(), count_diff);
    EXPECT_DOUBLE_EQ(RegionIntersection(a, b).Area(), count_ab);
    EXPECT_DOUBLE_EQ(a.Coalesced().Area(), count_a);
  }
}

TEST(RegionTest, ToStringSmoke) {
  Region r(std::vector<Rect>{Rect(0, 0, 1, 1)});
  EXPECT_NE(r.ToString().find("Region{"), std::string::npos);
}

}  // namespace
}  // namespace pdr
