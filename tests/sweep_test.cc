#include "pdr/sweep/plane_sweep.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>
#include <sstream>
#include <string>

#include "pdr/common/random.h"
#include "pdr/common/region.h"
#include "pdr/histogram/filter.h"

namespace pdr {
namespace {

int64_t BruteCount(const std::vector<Vec2>& positions, Vec2 center,
                   double l) {
  const Rect square = Rect::CenteredSquare(center, l);
  int64_t count = 0;
  for (const Vec2& p : positions) count += square.ContainsLSquare(p);
  return count;
}

// Reference: the two-level sweep as Algorithms 2 and 3 state it. An
// ordered multiset holds the band members' y-coordinates; every X-strip
// whose band meets n_min re-sorts its members' entry/exit coordinates and
// counts each Y-strip by binary search. O(k^2 log k) per cell, kept only
// to pin SweepCell's output bit for bit.
std::vector<std::pair<double, double>> ReferenceSweepY(
    const std::vector<double>& sorted_ys, double y_b, double y_t, double l,
    int64_t n_min) {
  std::vector<double> entries, exits;
  std::vector<double> events = {y_b};
  for (double oy : sorted_ys) {
    entries.push_back(oy - l / 2);
    exits.push_back(oy + l / 2);
    for (double c : {oy - l / 2, oy + l / 2}) {
      if (c > y_b && c < y_t) events.push_back(c);
    }
  }
  events.push_back(y_t);
  std::sort(entries.begin(), entries.end());
  std::sort(exits.begin(), exits.end());
  std::sort(events.begin(), events.end());
  events.erase(std::unique(events.begin(), events.end()), events.end());

  std::vector<std::pair<double, double>> dense;
  for (size_t j = 0; j + 1 < events.size(); ++j) {
    const double y = events[j];
    const int64_t count =
        (std::upper_bound(entries.begin(), entries.end(), y) -
         entries.begin()) -
        (std::upper_bound(exits.begin(), exits.end(), y) - exits.begin());
    if (count < n_min) continue;
    if (!dense.empty() && dense.back().second == y) {
      dense.back().second = events[j + 1];
    } else {
      dense.emplace_back(y, events[j + 1]);
    }
  }
  return dense;
}

std::vector<Rect> ReferenceSweepCell(const Rect& cell,
                                     const std::vector<Vec2>& positions,
                                     double l, int64_t n_min,
                                     SweepStats* stats) {
  std::vector<Rect> result;
  if (n_min <= 0) {
    ++stats->dense_rects;
    return {cell};
  }
  if (static_cast<int64_t>(positions.size()) < n_min) return result;
  std::vector<std::pair<double, double>> by_entry, by_exit;  // (x, y)
  std::vector<double> events = {cell.x_lo};
  for (const Vec2& p : positions) {
    by_entry.emplace_back(p.x - l / 2, p.y);
    by_exit.emplace_back(p.x + l / 2, p.y);
    for (double c : {p.x - l / 2, p.x + l / 2}) {
      if (c > cell.x_lo && c < cell.x_hi) events.push_back(c);
    }
  }
  events.push_back(cell.x_hi);
  std::sort(by_entry.begin(), by_entry.end());
  std::sort(by_exit.begin(), by_exit.end());
  std::sort(events.begin(), events.end());
  events.erase(std::unique(events.begin(), events.end()), events.end());

  std::multiset<double> band_ys;
  size_t next_entry = 0;
  size_t next_exit = 0;
  for (size_t i = 0; i + 1 < events.size(); ++i) {
    const double x = events[i];
    ++stats->x_strips;
    while (next_entry < by_entry.size() && by_entry[next_entry].first <= x) {
      band_ys.insert(by_entry[next_entry++].second);
    }
    while (next_exit < by_exit.size() && by_exit[next_exit].first <= x) {
      band_ys.erase(band_ys.find(by_exit[next_exit++].second));
    }
    if (static_cast<int64_t>(band_ys.size()) < n_min) continue;
    ++stats->y_sweeps;
    const std::vector<double> ys(band_ys.begin(), band_ys.end());
    for (const auto& [y_lo, y_hi] :
         ReferenceSweepY(ys, cell.y_lo, cell.y_hi, l, n_min)) {
      result.emplace_back(x, y_lo, events[i + 1], y_hi);
      ++stats->dense_rects;
    }
  }
  return result;
}

std::string Hex(const std::vector<Rect>& rects) {
  std::ostringstream os;
  os << std::hexfloat;
  for (const Rect& r : rects) {
    os << r.x_lo << ',' << r.y_lo << ',' << r.x_hi << ',' << r.y_hi << '\n';
  }
  return os.str();
}

// The 1-D Y semantics, pinned on a thin cell: every object sits at x = 0
// with l = 2, so it is in the band for x in [-1, 1) and the cell's single
// X-strip [0, 0.5) sees every object. The dense rectangles' y-extents are
// then exactly the dense Y segments within [y_b, y_t).
std::vector<std::pair<double, double>> ThinCellSegments(
    const std::vector<double>& ys, double y_b, double y_t, int64_t n_min) {
  std::vector<Vec2> objs;
  for (double y : ys) objs.push_back({0.0, y});
  std::vector<std::pair<double, double>> segments;
  for (const Rect& r : SweepCell(Rect(0.0, y_b, 0.5, y_t), objs, 2.0, n_min)) {
    EXPECT_EQ(r.x_lo, 0.0);
    EXPECT_EQ(r.x_hi, 0.5);
    segments.emplace_back(r.y_lo, r.y_hi);
  }
  return segments;
}

TEST(SweepYTest, SingleObjectSegment) {
  // One object at y=5; l=2: centers with 4 < y <= ... in-band iff
  // y-1 < 5 <= y+1 iff 4 <= y < 6.
  const auto segments = ThinCellSegments({5.0}, 0.0, 10.0, 1);
  ASSERT_EQ(segments.size(), 1u);
  EXPECT_DOUBLE_EQ(segments[0].first, 4.0);
  EXPECT_DOUBLE_EQ(segments[0].second, 6.0);
}

TEST(SweepYTest, ThresholdTwoNeedsOverlap) {
  // Objects at y=5 and y=6.5 with l=2: both cover iff y in [5.5, 6).
  const auto segments = ThinCellSegments({5.0, 6.5}, 0.0, 10.0, 2);
  ASSERT_EQ(segments.size(), 1u);
  EXPECT_DOUBLE_EQ(segments[0].first, 5.5);
  EXPECT_DOUBLE_EQ(segments[0].second, 6.0);
}

TEST(SweepYTest, AdjacentSegmentsMerge) {
  // Two objects close enough that their dense windows touch: one segment.
  const auto segments = ThinCellSegments({5.0, 5.5}, 0.0, 10.0, 1);
  ASSERT_EQ(segments.size(), 1u);
  EXPECT_DOUBLE_EQ(segments[0].first, 4.0);
  EXPECT_DOUBLE_EQ(segments[0].second, 6.5);
}

TEST(SweepYTest, DisjointSegments) {
  const auto segments = ThinCellSegments({2.0, 8.0}, 0.0, 10.0, 1);
  ASSERT_EQ(segments.size(), 2u);
  EXPECT_DOUBLE_EQ(segments[0].first, 1.0);
  EXPECT_DOUBLE_EQ(segments[0].second, 3.0);
  EXPECT_DOUBLE_EQ(segments[1].first, 7.0);
  EXPECT_DOUBLE_EQ(segments[1].second, 9.0);
}

TEST(SweepYTest, ClipsToBand) {
  const auto segments = ThinCellSegments({0.5}, 0.0, 10.0, 1);
  ASSERT_EQ(segments.size(), 1u);
  EXPECT_DOUBLE_EQ(segments[0].first, 0.0);  // clipped at y_b
  EXPECT_DOUBLE_EQ(segments[0].second, 1.5);
}

TEST(SweepYTest, EmptyWhenBelowThreshold) {
  EXPECT_TRUE(ThinCellSegments({5.0}, 0.0, 10.0, 2).empty());
  EXPECT_TRUE(ThinCellSegments({}, 0.0, 10.0, 1).empty());
}

TEST(SweepCellTest, PaperExampleSingleSquare) {
  // Four objects at the corners of a unit square; l=1, threshold 4:
  // only the center of that square sees all four... with the half-open
  // semantics the dense point set is {(x,y): x in [x_max-0.5... } — check
  // via membership against brute force below; here check non-emptiness
  // and exact count at the centroid.
  const std::vector<Vec2> objs = {{4.6, 4.6}, {5.4, 4.6}, {4.6, 5.4},
                                  {5.4, 5.4}};
  const Rect cell(0, 0, 10, 10);
  const auto rects = SweepCell(cell, objs, 1.0, 4);
  ASSERT_FALSE(rects.empty());
  const Region region{rects};
  EXPECT_TRUE(region.Contains({5.0, 5.0}));
  EXPECT_EQ(BruteCount(objs, {5.0, 5.0}, 1.0), 4);
}

TEST(SweepCellTest, ZeroThresholdReturnsWholeCell) {
  const Rect cell(2, 3, 7, 9);
  const auto rects = SweepCell(cell, {}, 1.0, 0);
  ASSERT_EQ(rects.size(), 1u);
  EXPECT_EQ(rects[0], cell);
}

TEST(SweepCellTest, EmptyWhenNotEnoughObjects) {
  const Rect cell(0, 0, 10, 10);
  EXPECT_TRUE(SweepCell(cell, {{5, 5}}, 2.0, 2).empty());
  EXPECT_TRUE(SweepCell(cell, {}, 2.0, 1).empty());
}

TEST(SweepCellTest, OutputClippedToCell) {
  const Rect cell(0, 0, 4, 4);
  // Dense cluster just outside the right edge whose squares reach inside.
  const std::vector<Vec2> objs = {{4.2, 2.0}, {4.3, 2.1}, {4.4, 1.9}};
  const auto rects = SweepCell(cell, objs, 2.0, 2);
  for (const Rect& r : rects) {
    EXPECT_TRUE(cell.Contains(r)) << r;
  }
}

TEST(SweepCellTest, EdgeSemanticsHalfOpen) {
  // Object exactly at distance l/2 left of center: center's square
  // excludes its left edge, so the object at x = c - l/2 is OUT; the
  // object at x = c + l/2 (right edge) is IN.
  const Rect cell(0, 0, 10, 10);
  const double l = 2.0;
  {
    // Single object at (5,5). Center x = 4 puts the object on the right
    // edge of the square (included); x = 6 puts it on the left (excluded).
    const auto rects = SweepCell(cell, {{5, 5}}, l, 1);
    const Region region{rects};
    EXPECT_TRUE(region.Contains({4.0, 5.0}));    // obj on right/top edge: in
    EXPECT_FALSE(region.Contains({6.0, 5.0}));   // obj on left edge: out
    EXPECT_TRUE(region.Contains({5.999, 5.0}));  // just inside
  }
}

TEST(SweepCellTest, DuplicatePositionsCount) {
  const Rect cell(0, 0, 10, 10);
  const std::vector<Vec2> objs = {{5, 5}, {5, 5}, {5, 5}};
  const Region region{SweepCell(cell, objs, 2.0, 3)};
  EXPECT_TRUE(region.Contains({5, 5}));
  EXPECT_TRUE(SweepCell(cell, objs, 2.0, 4).empty());
}

TEST(SweepCellTest, StatsCountWork) {
  SweepStats stats;
  const std::vector<Vec2> objs = {{2, 2}, {2.5, 2.5}, {7, 7}};
  (void)SweepCell(Rect(0, 0, 10, 10), objs, 2.0, 1, &stats);
  EXPECT_GT(stats.x_strips, 0);
  EXPECT_GT(stats.y_sweeps, 0);
  EXPECT_GT(stats.dense_rects, 0);
}

// The definitive property: membership in the swept region coincides with
// the pointwise density definition at random probes (Definitions 2-3).
class SweepPropertyTest
    : public ::testing::TestWithParam<std::tuple<int, double, int>> {};

TEST_P(SweepPropertyTest, RegionMatchesPointwiseDefinition) {
  const auto [n_objs, l, n_min] = GetParam();
  Rng rng(static_cast<uint64_t>(n_objs * 1000 + n_min) ^
          static_cast<uint64_t>(l * 7));
  const Rect cell(0, 0, 20, 20);
  std::vector<Vec2> objs;
  objs.reserve(n_objs);
  for (int i = 0; i < n_objs; ++i) {
    // Positions inside the expanded window, clustered to make density
    // plausible.
    objs.push_back({rng.Uniform(-l, 20 + l), rng.Uniform(-l, 20 + l)});
  }
  const Region region{SweepCell(cell, objs, l, n_min)};
  for (int probe = 0; probe < 800; ++probe) {
    const Vec2 p{rng.Uniform(0, 20), rng.Uniform(0, 20)};
    const bool dense = BruteCount(objs, p, l) >= n_min;
    EXPECT_EQ(region.Contains(p), dense)
        << "p=" << p.ToString() << " l=" << l << " n_min=" << n_min;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, SweepPropertyTest,
    ::testing::Combine(::testing::Values(10, 60, 250),
                       ::testing::Values(1.5, 4.0, 9.0),
                       ::testing::Values(1, 3, 8)));

// Regression property for the event-exactness contract: sweeping the
// whole domain at once and sweeping it cell by cell (each cell given only
// the positions inside its expanded window, as the FR engine does) must
// produce the *identical* point set — including at strips that start at
// cell boundaries rather than object events. A historical bug (counting
// with re-derived window bounds instead of the event coordinates) made
// the two disagree by slivers at exit events.
TEST(SweepPropertyTest, CellDecompositionInvariant) {
  Rng rng(303);
  const double extent = 60.0;
  for (double l : {7.0, 13.0}) {
    for (int iter = 0; iter < 3; ++iter) {
      std::vector<Vec2> positions;
      for (int i = 0; i < 250; ++i) {
        positions.push_back({rng.Uniform(0, extent), rng.Uniform(0, extent)});
      }
      const int64_t n_min = 4;
      const Region whole{
          SweepCell(Rect(0, 0, extent, extent), positions, l, n_min)};

      Region assembled;
      const Grid grid(extent, 4);
      for (int cell = 0; cell < grid.cell_count(); ++cell) {
        const Rect cell_rect = grid.CellRect(cell);
        const Rect window = cell_rect.Expanded(l / 2);
        std::vector<Vec2> local;
        for (const Vec2& p : positions) {
          if (window.ContainsClosed(p)) local.push_back(p);
        }
        for (const Rect& r : SweepCell(cell_rect, local, l, n_min)) {
          assembled.Add(r);
        }
      }
      EXPECT_NEAR(SymmetricDifferenceArea(whole, assembled), 0.0, 1e-9)
          << "l=" << l << " iter=" << iter;
      for (int probe = 0; probe < 400; ++probe) {
        const Vec2 p{rng.Uniform(0, extent), rng.Uniform(0, extent)};
        EXPECT_EQ(whole.Contains(p), assembled.Contains(p)) << p;
      }
    }
  }
}

TEST(SweepCellTest, NeighborhoodLargerThanCell) {
  // l wider than the cell itself: the band always spans the whole cell.
  const Rect cell(10, 10, 12, 12);
  std::vector<Vec2> objs;
  Rng rng(304);
  for (int i = 0; i < 60; ++i) {
    objs.push_back({rng.Uniform(0, 25), rng.Uniform(0, 25)});
  }
  const double l = 8.0;  // 4x the cell edge
  const Region region{SweepCell(cell, objs, l, 10)};
  for (int probe = 0; probe < 300; ++probe) {
    const Vec2 p{rng.Uniform(10, 12), rng.Uniform(10, 12)};
    int64_t count = 0;
    const Rect square = Rect::CenteredSquare(p, l);
    for (const Vec2& o : objs) count += square.ContainsLSquare(o);
    EXPECT_EQ(region.Contains(p), count >= 10) << p;
  }
}

// Events exactly on cell boundaries and coincident coordinates.
TEST(SweepCellTest, CoincidentEventCoordinates) {
  const Rect cell(0, 0, 10, 10);
  // Objects aligned so that entry/exit events coincide.
  const std::vector<Vec2> objs = {{3, 3}, {5, 3}, {7, 3}, {3, 5}, {5, 5}};
  const double l = 2.0;
  const Region region{SweepCell(cell, objs, l, 2)};
  Rng rng(8);
  for (int probe = 0; probe < 500; ++probe) {
    const Vec2 p{rng.Uniform(0, 10), rng.Uniform(0, 10)};
    EXPECT_EQ(region.Contains(p), BruteCount(objs, p, l) >= 2);
  }
  // Probe exactly at event-aligned points.
  for (const Vec2 p : {Vec2{4.0, 3.0}, Vec2{4.0, 4.0}, Vec2{2.0, 2.0},
                       Vec2{6.0, 4.0}}) {
    EXPECT_EQ(region.Contains(p), BruteCount(objs, p, l) >= 2) << p;
  }
}

// SweepCell must reproduce the reference two-level sweep bit for bit, with
// the same strip and rectangle counts, on seeded cells built to hit every
// tie: duplicate positions, coordinates on the l/2 grid (so entry and exit
// events coincide with each other and with the cell edges), objects exactly
// on cell edges, thresholds at 1, 2, n and n+1, and positions far outside
// the cell's halo.
TEST(SweepEquivalenceTest, MatchesReferenceSweepBitForBit) {
  int cells_with_rects = 0;
  constexpr int kCells = 3200;
  for (int c = 0; c < kCells; ++c) {
    Rng rng(0x5EED0000u + static_cast<uint64_t>(c));
    const double l = std::vector<double>{1.0, 2.5, 4.0, 7.3}[c % 4];
    const bool snapped = c % 3 == 0;
    const auto coord = [&](double lo, double hi) {
      const double v = rng.Uniform(lo, hi);
      return snapped ? std::round(v / (l / 2)) * (l / 2) : v;
    };
    const double x0 = coord(-20, 20);
    const double y0 = coord(-20, 20);
    const Rect cell(x0, y0, x0 + std::max(l / 2, coord(0, 12)),
                    y0 + std::max(l / 2, coord(0, 12)));
    const Rect halo = cell.Expanded(l / 2);
    const int n = static_cast<int>(rng.UniformInt(0, c % 10 == 0 ? 160 : 40));
    std::vector<Vec2> objs;
    for (int i = 0; i < n; ++i) {
      switch (rng.UniformInt(0, 5)) {
        case 0:  // duplicate of an earlier object
          objs.push_back(objs.empty() ? Vec2{cell.x_lo, cell.y_lo}
                                      : objs[rng.UniformInt(
                                            0, static_cast<int64_t>(
                                                   objs.size()) - 1)]);
          break;
        case 1:  // exactly on a cell edge
          objs.push_back(
              {rng.UniformInt(0, 1) ? cell.x_lo : cell.x_hi,
               rng.UniformInt(0, 1) ? cell.y_hi : coord(cell.y_lo, cell.y_hi)});
          break;
        case 2:  // outside the halo: harmless superset input
          objs.push_back({coord(halo.x_hi, halo.x_hi + 30),
                          coord(halo.y_lo - 30, halo.y_hi + 30)});
          break;
        default:
          objs.push_back({coord(halo.x_lo, halo.x_hi),
                          coord(halo.y_lo, halo.y_hi)});
      }
    }
    const int64_t n_min =
        std::vector<int64_t>{1, 2, n, n + 1,
                             rng.UniformInt(1, std::max(1, n / 2))}[c % 5];

    SweepStats want;
    const std::vector<Rect> expected =
        ReferenceSweepCell(cell, objs, l, n_min, &want);
    SweepStats got;
    const std::vector<Rect> actual = SweepCell(cell, objs, l, n_min, &got);
    ASSERT_EQ(Hex(actual), Hex(expected))
        << "cell " << c << ' ' << cell << " l=" << l << " n_min=" << n_min;
    ASSERT_EQ(got.x_strips, want.x_strips) << "cell " << c;
    ASSERT_EQ(got.y_sweeps, want.y_sweeps) << "cell " << c;
    ASSERT_EQ(got.dense_rects, want.dense_rects) << "cell " << c;
    cells_with_rects += !actual.empty();
  }
  // Most cells must exercise the report, or the equality above is vacuous.
  EXPECT_GT(cells_with_rects, kCells / 2);
}

TEST(JoinSweepStripsTest, EmptyInput) {
  EXPECT_TRUE(JoinSweepStrips({}).empty());
}

TEST(JoinSweepStripsTest, AbuttingStripsWithEqualRunsJoin) {
  EXPECT_EQ(JoinSweepStrips({Rect(0, 1, 1, 3), Rect(1, 1, 2.5, 3),
                             Rect(2.5, 1, 4, 3)}),
            std::vector<Rect>{Rect(0, 1, 4, 3)});
}

TEST(JoinSweepStripsTest, XGapDoesNotJoin) {
  // The strip [1, 2) between them is not dense.
  const std::vector<Rect> strips = {Rect(0, 1, 1, 3), Rect(2, 1, 3, 3)};
  EXPECT_EQ(JoinSweepStrips(strips), strips);
}

TEST(JoinSweepStripsTest, DifferentRunsDoNotJoin) {
  const std::vector<Rect> strips = {Rect(0, 1, 1, 3), Rect(1, 1, 2, 4),
                                    Rect(2, 0, 3, 4)};
  EXPECT_EQ(JoinSweepStrips(strips), strips);
}

TEST(JoinSweepStripsTest, SeveralRunsPerStrip) {
  // Strip [0, 1) has the y-runs A = [0, 1) and B = [2, 3); strip [1, 2)
  // keeps A and B and adds C = [4, 5); strip [2, 3) keeps B and C and adds
  // D = [6, 7).
  const std::vector<Rect> strips = {
      Rect(0, 0, 1, 1), Rect(0, 2, 1, 3),                     // x in [0, 1)
      Rect(1, 0, 2, 1), Rect(1, 2, 2, 3), Rect(1, 4, 2, 5),   // x in [1, 2)
      Rect(2, 2, 3, 3), Rect(2, 4, 3, 5), Rect(2, 6, 3, 7)};  // x in [2, 3)
  EXPECT_EQ(JoinSweepStrips(strips),
            (std::vector<Rect>{Rect(0, 0, 2, 1), Rect(0, 2, 3, 3),
                               Rect(1, 4, 3, 5), Rect(2, 6, 3, 7)}));
}

TEST(JoinSweepStripsTest, WholeCellWhenThresholdIsZero) {
  const Rect cell(0, 0, 10, 10);
  EXPECT_EQ(JoinSweepStrips(SweepCell(cell, {{5, 5}}, 2.0, 0)),
            std::vector<Rect>{cell});
}

// On real sweeps the join covers the same point set with fewer rectangles,
// so the coalesced region is the same vector.
TEST(JoinSweepStripsTest, JoinedSweepCoalescesIdentically) {
  int64_t strips_total = 0;
  int64_t joined_total = 0;
  for (int c = 0; c < 200; ++c) {
    Rng rng(0x701Eu + static_cast<uint64_t>(c));
    const double l = std::vector<double>{1.0, 2.5, 4.0}[c % 3];
    const bool snapped = c % 2 == 0;
    const auto coord = [&](double lo, double hi) {
      const double v = rng.Uniform(lo, hi);
      return snapped ? std::round(v / (l / 2)) * (l / 2) : v;
    };
    const Rect cell(0, 0, 10, 10);
    std::vector<Vec2> objs;
    for (int64_t i = rng.UniformInt(0, 120); i > 0; --i) {
      objs.push_back({coord(-l, 10 + l), coord(-l, 10 + l)});
    }
    const int64_t n_min = rng.UniformInt(1, 6);
    const std::vector<Rect> strips = SweepCell(cell, objs, l, n_min);
    const std::vector<Rect> joined = JoinSweepStrips(strips);
    ASSERT_LE(joined.size(), strips.size());
    ASSERT_EQ(Region(joined).Coalesced().rects(),
              Region(strips).Coalesced().rects())
        << "cell " << c;
    strips_total += static_cast<int64_t>(strips.size());
    joined_total += static_cast<int64_t>(joined.size());
  }
  EXPECT_LT(2 * joined_total, strips_total);
}

// Deterministic complexity guard: the report descends only into nodes that
// straddle a dense/non-dense boundary, so its node visits (y_strips) are
// O((x_strips + dense_rects) log n). A sweep that falls back to scanning
// every Y-strip of every dense X-strip breaks this bound on a 4096-object
// cell without any timing gate.
TEST(SweepComplexityTest, ReportVisitsAreOutputSensitive) {
  // ~330 objects per l-square on average; a threshold just above it
  // leaves many dense runs per X-strip (~9), so the report must descend.
  const int n = 4096;
  const double l = 4.0;
  Rng rng(5);
  std::vector<Vec2> objs;
  for (int i = 0; i < n; ++i) {
    objs.push_back({rng.Uniform(-2, 12), rng.Uniform(-2, 12)});
  }
  const Rect cell(0, 0, 10, 10);
  SweepStats stats;
  (void)SweepCell(cell, objs, l, 360, &stats);

  std::set<double> y_strips = {cell.y_lo};
  for (const Vec2& p : objs) {
    for (double y : {p.y - l / 2, p.y + l / 2}) {
      if (y > cell.y_lo && y < cell.y_hi) y_strips.insert(y);
    }
  }
  const int64_t log_n = static_cast<int64_t>(std::ceil(std::log2(n)));
  const int64_t bound = 4 * (stats.x_strips + stats.dense_rects) * log_n;
  ASSERT_GT(stats.dense_rects, 4 * stats.x_strips);
  EXPECT_LE(stats.y_strips, bound);
  // The guard has teeth: a per-strip linear Y scan would exceed it.
  EXPECT_GT(stats.y_sweeps * static_cast<int64_t>(y_strips.size()),
            4 * bound);
}

}  // namespace
}  // namespace pdr
