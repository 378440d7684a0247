#include "pdr/core/fr_engine.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "pdr/common/random.h"
#include "pdr/core/metrics.h"
#include "pdr/core/oracle.h"
#include "pdr/core/simulation.h"
#include "pdr/mobility/generator.h"
#include "pdr/obs/flight_recorder.h"
#include "pdr/obs/obs.h"

namespace pdr {
namespace {

constexpr double kExtent = 200.0;

FrEngine::Options SmallOptions(int m = 20) {
  return {.extent = kExtent, .histogram_side = m, .horizon = 20,
          .buffer_pages = 64, .io_ms = 10.0};
}

void FeedStatic(FrEngine& fr, Oracle& oracle,
                const std::vector<UpdateEvent>& events) {
  for (const UpdateEvent& e : events) {
    fr.Apply(e);
    oracle.Apply(e);
  }
}

// Compares the FR answer with the oracle both by exact area measures and
// by membership probes (the regions may be carved into different
// rectangle decompositions, so compare as point sets).
void ExpectRegionsEqual(const Region& got, const Region& want,
                        uint64_t probe_seed) {
  EXPECT_NEAR(got.Area(), want.Area(), 1e-6);
  EXPECT_NEAR(SymmetricDifferenceArea(got, want), 0.0, 1e-6);
  Rng rng(probe_seed);
  for (int i = 0; i < 500; ++i) {
    const Vec2 p{rng.Uniform(0, kExtent), rng.Uniform(0, kExtent)};
    EXPECT_EQ(got.Contains(p), want.Contains(p)) << p.ToString();
  }
}

class FrExactnessTest
    : public ::testing::TestWithParam<std::tuple<double, double, int>> {};

TEST_P(FrExactnessTest, MatchesOracleOnClusteredWorkload) {
  const auto [rho_scale, l, m] = GetParam();
  FrEngine fr(SmallOptions(m));
  Oracle oracle(kExtent);
  FeedStatic(fr, oracle,
             MakeClusteredInserts(1500, 3, kExtent, 6.0, 0.25, 41));
  const double rho = rho_scale * 1500 / (kExtent * kExtent);
  const auto result = fr.Query(0, rho, l);
  const Region truth = oracle.DenseRegions(0, rho, l);
  ExpectRegionsEqual(result.region, truth,
                     static_cast<uint64_t>(rho_scale * 100 + l + m));
  // Filter accounting covers all cells.
  EXPECT_EQ(result.accepted_cells + result.rejected_cells +
                result.candidate_cells,
            m * m);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, FrExactnessTest,
    ::testing::Combine(::testing::Values(0.8, 2.0, 8.0),
                       ::testing::Values(15.0, 25.0),
                       ::testing::Values(20, 40)));

TEST(FrEngineTest, ExactOnMovingObjectsAcrossTime) {
  FrEngine fr(SmallOptions());
  Oracle oracle(kExtent);
  FeedStatic(fr, oracle, MakeUniformInserts(1200, kExtent, 1.0, 42));
  const double rho = 3.0 * 1200 / (kExtent * kExtent);
  for (Tick q_t : {0, 5, 12, 20}) {
    const auto result = fr.Query(q_t, rho, 20.0);
    const Region truth = oracle.DenseRegions(q_t, rho, 20.0);
    ExpectRegionsEqual(result.region, truth, 42 + q_t);
  }
}

TEST(FrEngineTest, ExactThroughUpdateStream) {
  WorkloadConfig config;
  config.WithExtent(kExtent);
  config.num_objects = 800;
  config.max_update_interval = 10;
  config.network.grid_nodes = 8;
  config.seed = 43;
  const Dataset ds = GenerateDataset(config, 15);

  FrEngine fr(SmallOptions());
  Oracle oracle(kExtent);
  ReplayInto(ds, -1, &fr, &oracle);
  ASSERT_EQ(fr.now(), 15);

  const double rho = 4.0 * 800 / (kExtent * kExtent);
  for (Tick q_t = 15; q_t <= 25; q_t += 5) {  // within W = H - U = 10
    const auto result = fr.Query(q_t, rho, 20.0);
    const Region truth = oracle.DenseRegions(q_t, rho, 20.0);
    ExpectRegionsEqual(result.region, truth, 43 + q_t);
  }
}

TEST(FrEngineTest, EmptyAnswerWhenThresholdHuge) {
  FrEngine fr(SmallOptions());
  Oracle oracle(kExtent);
  FeedStatic(fr, oracle, MakeUniformInserts(500, kExtent, 0.5, 44));
  const auto result = fr.Query(0, 1e9, 20.0);
  EXPECT_TRUE(result.region.IsEmpty());
  EXPECT_EQ(result.candidate_cells, 0);
  EXPECT_EQ(result.objects_fetched, 0);
}

TEST(FrEngineTest, WholeDomainDenseWhenThresholdTiny) {
  FrEngine fr(SmallOptions());
  Oracle oracle(kExtent);
  FeedStatic(fr, oracle, MakeUniformInserts(4000, kExtent, 0.0, 45));
  // ~1 object per 10x10 area; threshold of ~1 object per l-square with
  // l=40 (16 expected) is met nearly everywhere except domain borders.
  const double rho = 1.0 / (40.0 * 40.0);
  const auto result = fr.Query(0, rho, 40.0);
  const Region truth = oracle.DenseRegions(0, rho, 40.0);
  ExpectRegionsEqual(result.region, truth, 45);
  EXPECT_GT(result.region.Area(), 0.5 * kExtent * kExtent);
}

TEST(FrEngineTest, CostAccountingChargesIo) {
  FrEngine fr(SmallOptions());
  Oracle oracle(kExtent);
  FeedStatic(fr, oracle,
             MakeClusteredInserts(3000, 4, kExtent, 8.0, 0.3, 46));
  const double rho = 2.0 * 3000 / (kExtent * kExtent);
  const auto cold = fr.Query(0, rho, 20.0, /*cold_cache=*/true);
  EXPECT_GT(cold.candidate_cells, 0);
  EXPECT_GT(cold.objects_fetched, 0);
  EXPECT_GT(cold.cost.io_reads(), 0);
  EXPECT_DOUBLE_EQ(cold.cost.io_ms, cold.cost.io_reads() * 10.0);
  EXPECT_GT(cold.cost.cpu_ms, 0.0);
  EXPECT_GT(cold.cost.TotalMs(), cold.cost.cpu_ms);
}

TEST(FrEngineTest, DhOnlyBracketsExactAnswer) {
  // Optimistic DH region must cover the exact answer; pessimistic must be
  // covered by it (soundness of the filter classes).
  FrEngine fr(SmallOptions());
  Oracle oracle(kExtent);
  FeedStatic(fr, oracle,
             MakeClusteredInserts(2000, 3, kExtent, 7.0, 0.2, 47));
  const double rho = 2.0 * 2000 / (kExtent * kExtent);
  const double l = 20.0;
  const Region exact = fr.Query(0, rho, l).region;
  const Region optimistic = fr.DhOnlyQuery(0, rho, l, true).region;
  const Region pessimistic = fr.DhOnlyQuery(0, rho, l, false).region;
  EXPECT_NEAR(IntersectionArea(optimistic, exact), exact.Area(), 1e-6)
      << "optimistic DH must cover the exact region";
  EXPECT_NEAR(IntersectionArea(exact, pessimistic), pessimistic.Area(), 1e-6)
      << "pessimistic DH must be inside the exact region";
  // And the bracket is strict on this workload.
  EXPECT_GT(optimistic.Area(), exact.Area());
  EXPECT_LT(pessimistic.Area(), exact.Area());
}

TEST(FrEngineTest, IntervalQueryIsUnionOfSnapshots) {
  FrEngine fr(SmallOptions());
  Oracle oracle(kExtent);
  FeedStatic(fr, oracle, MakeUniformInserts(1000, kExtent, 1.5, 48));
  const double rho = 4.0 * 1000 / (kExtent * kExtent);
  const auto interval = fr.QueryInterval(0, 6, rho, 18.0);
  const Region truth = oracle.DenseRegionsInterval(0, 6, rho, 18.0);
  EXPECT_NEAR(SymmetricDifferenceArea(interval.region, truth), 0.0, 1e-6);
}

TEST(FrEngineTest, ExactUnderObjectChurn) {
  // Genuine insert/delete events (objects leaving, fresh ones arriving)
  // must keep every structure consistent and the answers exact.
  WorkloadConfig config;
  config.WithExtent(kExtent);
  config.num_objects = 600;
  config.max_update_interval = 10;
  config.churn_rate = 0.03;
  config.network.grid_nodes = 8;
  config.seed = 52;
  const Dataset ds = GenerateDataset(config, 20);

  FrEngine fr(SmallOptions());
  Oracle oracle(kExtent);
  ReplayInto(ds, -1, &fr, &oracle);
  EXPECT_EQ(fr.index().size(), 600u);
  const double rho = 4.0 * 600 / (kExtent * kExtent);
  for (Tick q_t : {20, 26}) {
    const auto result = fr.Query(q_t, rho, 20.0);
    const Region truth = oracle.DenseRegions(q_t, rho, 20.0);
    ExpectRegionsEqual(result.region, truth, 52 + q_t);
  }
}

TEST(FrEngineTest, FinerHistogramReducesCandidates) {
  const auto events = MakeClusteredInserts(2000, 3, kExtent, 7.0, 0.2, 49);
  const double rho = 2.0 * 2000 / (kExtent * kExtent);
  int64_t candidates_coarse, candidates_fine;
  {
    FrEngine fr(SmallOptions(10));
    for (const UpdateEvent& e : events) fr.Apply(e);
    candidates_coarse = fr.Query(0, rho, 40.0).candidate_cells;
  }
  {
    FrEngine fr(SmallOptions(40));
    for (const UpdateEvent& e : events) fr.Apply(e);
    candidates_fine = fr.Query(0, rho, 40.0).candidate_cells;
  }
  // Candidate *area* shrinks with finer cells: compare normalized counts.
  const double area_coarse = candidates_coarse * (kExtent / 10) *
                             (kExtent / 10);
  const double area_fine = candidates_fine * (kExtent / 40) * (kExtent / 40);
  EXPECT_LT(area_fine, area_coarse);
}

// The per-cell refinement the one-scan engine replaced, rebuilt from
// public calls: FilterCells, one RangeQuery per candidate cell, SweepCell,
// Region::Coalesced — on a cold cache, counting the reads it pays.
struct PerCellReference {
  Region region;
  int64_t objects_fetched = 0;
  int64_t out_of_domain = 0;    // fetched positions the sweep never sees
  int64_t edge_candidates = 0;  // candidate cells on the domain edge
  SweepStats sweep;
  IoStats io;
};

PerCellReference RefineCellByCell(FrEngine& fr, Tick q_t, double rho,
                                  double l) {
  PerCellReference ref;
  fr.index().DropCaches();
  const IoStats before = fr.index().io_stats();
  const Grid& grid = fr.histogram().grid();
  const int m = grid.cells_per_side();
  const int64_t n_min = MinObjectsForDensity(rho, l);
  const FilterResult filter = FilterCells(fr.histogram(), q_t, rho, l);
  Region merged;
  for (int row = 0; row < m; ++row) {
    for (int col = 0; col < m; ++col) {
      const Rect cell = grid.CellRect(col, row);
      if (filter.At(col, row) == CellClass::kAccept) merged.Add(cell);
      if (filter.At(col, row) != CellClass::kCandidate) continue;
      if (col == 0 || row == 0 || col == m - 1 || row == m - 1) {
        ++ref.edge_candidates;
      }
      const auto objects = fr.index().RangeQuery(cell.Expanded(l / 2), q_t);
      ref.objects_fetched += static_cast<int64_t>(objects.size());
      std::vector<Vec2> positions;
      for (const auto& [id, state] : objects) {
        const Vec2 p = state.PositionAt(q_t);
        if (grid.InDomain(p)) {
          positions.push_back(p);
        } else {
          ++ref.out_of_domain;
        }
      }
      for (const Rect& r : SweepCell(cell, positions, l, n_min, &ref.sweep)) {
        merged.Add(r);
      }
    }
  }
  ref.region = merged.Coalesced();
  ref.io = fr.index().io_stats() - before;
  return ref;
}

std::string HexRects(const Region& region) {
  std::ostringstream os;
  os << std::hexfloat;
  for (const Rect& r : region.rects()) {
    os << r.x_lo << ' ' << r.y_lo << ' ' << r.x_hi << ' ' << r.y_hi << '\n';
  }
  return os.str();
}

// One index scan per query, bucketed by cell, answers exactly as one range
// query per candidate cell did — same rectangles to the bit, same fetched
// objects, same sweep work — and reads exactly the pages those range
// queries visit between them, each once. Uniform movers and stationary
// clusters at q_t = now and q_t = now + H: at the horizon, movers near the
// domain edge are predicted outside it, so they count as fetched but never
// reach the sweep.
TEST(FrEngineTest, OneScanMatchesPerCellRangeQueriesAndReadsPagesOnce) {
  struct Case {
    uint64_t seed;
    bool clustered;
    double rho_scale, l;
  };
  constexpr int kObjects = 4000;
  for (const Case& c : {Case{71, false, 1.0, 20.0}, Case{72, false, 1.3, 30.0},
                        Case{73, true, 1.5, 20.0}, Case{74, true, 3.0, 12.0}}) {
    SCOPED_TRACE("seed " + std::to_string(c.seed));
    // The paper's 19-page pool, far smaller than the tree, and a pool that
    // holds the whole tree, so the per-cell reference's physical reads
    // there count the distinct pages its range queries visit.
    FrEngine::Options options = SmallOptions();
    options.buffer_pages = 19;
    FrEngine fr(options);
    options.buffer_pages = 4096;
    FrEngine wide(options);
    for (const UpdateEvent& e :
         c.clustered
             ? MakeClusteredInserts(kObjects, 4, kExtent, 20.0, 0.5, c.seed)
             : MakeUniformInserts(kObjects, kExtent, 1.5, c.seed)) {
      fr.Apply(e);
      wide.Apply(e);
    }
    const double rho = c.rho_scale * kObjects / (kExtent * kExtent);
    const int64_t pages = static_cast<int64_t>(fr.index().node_count());
    ASSERT_LT(wide.index().node_count(), options.buffer_pages);
    for (Tick q_t : {Tick{0}, options.horizon}) {
      SCOPED_TRACE("q_t " + std::to_string(q_t));
      const PerCellReference ref = RefineCellByCell(fr, q_t, rho, c.l);
      const int64_t distinct_pages =
          RefineCellByCell(wide, q_t, rho, c.l).io.physical_reads;
      const auto got = fr.Query(q_t, rho, c.l, /*cold_cache=*/true);
      // Uniform movers give edge candidates and, at the horizon, positions
      // predicted off the domain.
      if (!c.clustered) {
        EXPECT_GT(ref.edge_candidates, 0);
        if (q_t == options.horizon) {
          EXPECT_GT(ref.out_of_domain, 0);
        }
      }

      EXPECT_EQ(HexRects(got.region), HexRects(ref.region));
      EXPECT_EQ(got.objects_fetched, ref.objects_fetched);
      EXPECT_EQ(got.sweep.x_strips, ref.sweep.x_strips);
      EXPECT_EQ(got.sweep.y_sweeps, ref.sweep.y_sweeps);
      EXPECT_EQ(got.sweep.y_strips, ref.sweep.y_strips);
      EXPECT_EQ(got.sweep.dense_rects, ref.sweep.dense_rects);

      EXPECT_EQ(got.cost.io.physical_reads, distinct_pages);
      EXPECT_EQ(got.cost.io.logical_reads, got.cost.io.physical_reads);
      EXPECT_LE(got.cost.io.physical_reads, pages);
      EXPECT_LE(got.cost.io.physical_reads, ref.io.physical_reads);
    }
  }
}

// A reported velocity far beyond any road speed predicts positions of
// ~1e300 (or infinity) at later ticks. Such objects sit in leaves the
// scan visits, so bucketing must place them without an overflowing
// int conversion; no window contains them, so the answer is unchanged.
TEST(FrEngineTest, ScanBucketsPositionsFarOffTheDomain) {
  FrEngine fr(SmallOptions());
  FrEngine plain(SmallOptions());
  const auto events = MakeUniformInserts(600, kExtent, 1.5, 75);
  for (const UpdateEvent& e : events) {
    fr.Apply(e);
    plain.Apply(e);
  }
  ObjectId id = 100000;
  for (const double v : {1e300, -1e300, 1e308}) {
    fr.Apply({0, id++, std::nullopt,
              MotionState{{kExtent / 2, kExtent / 2}, {v, -v}, 0}});
  }
  const double rho = 4.0 * 600 / (kExtent * kExtent);
  for (Tick q_t : {Tick{1}, Tick{20}}) {
    const auto got = fr.Query(q_t, rho, 20.0);
    const auto want = plain.Query(q_t, rho, 20.0);
    EXPECT_EQ(HexRects(got.region), HexRects(want.region));
    EXPECT_EQ(got.objects_fetched, want.objects_fetched);
  }
}

// The flight recorder sees one FR query as one event per stage, whatever
// the number of candidate cells: begin, filter, the index scan, one sweep
// event summed over the candidates, end, plus one per physical read. The
// query is also one traversal in `pdr.tpr.range_queries`.
TEST(FrEngineTest, RecorderSeesOneEventPerStage) {
  FrEngine fr(SmallOptions());
  for (const UpdateEvent& e : MakeUniformInserts(3000, kExtent, 1.5, 76)) {
    fr.Apply(e);
  }
  const double rho = 1.2 * 3000 / (kExtent * kExtent);
  Counter& traversals =
      MetricsRegistry::Global().GetCounter("pdr.tpr.range_queries");
  const int64_t traversals_before = traversals.value();
  FlightRecorder::Global().Reset();
  FlightRecorder::SetEnabled(true);
  const auto got = fr.Query(/*q_t=*/2, rho, 20.0, /*cold_cache=*/true);
  FlightRecorder::SetEnabled(false);
  const std::vector<MicroEvent> events = FlightRecorder::Global().Snapshot();
  FlightRecorder::Global().Reset();
  ASSERT_GT(got.candidate_cells, 10);
  EXPECT_EQ(traversals.value() - traversals_before, 1);

  std::map<FrEvent, int> kinds;
  std::map<FrEvent, int64_t> stage_ts;
  int64_t last_fault_ts = 0;
  for (const MicroEvent& e : events) {
    ++kinds[e.kind];
    if (e.kind == FrEvent::kPageFault) {
      last_fault_ts = std::max(last_fault_ts, e.ts_ns);
    } else {
      stage_ts[e.kind] = e.ts_ns;
    }
  }
  // The stages come in pipeline order, and the scan is reported when the
  // traversal returns, after every page it faulted in.
  EXPECT_LE(stage_ts[FrEvent::kQueryBegin], stage_ts[FrEvent::kFilter]);
  EXPECT_LE(stage_ts[FrEvent::kFilter], stage_ts[FrEvent::kScan]);
  EXPECT_LE(stage_ts[FrEvent::kScan], stage_ts[FrEvent::kSweep]);
  EXPECT_LE(stage_ts[FrEvent::kSweep], stage_ts[FrEvent::kQueryEnd]);
  EXPECT_LE(last_fault_ts, stage_ts[FrEvent::kScan]);
  EXPECT_EQ(kinds[FrEvent::kQueryBegin], 1);
  EXPECT_EQ(kinds[FrEvent::kFilter], 1);
  EXPECT_EQ(kinds[FrEvent::kScan], 1);
  EXPECT_EQ(kinds[FrEvent::kSweep], 1);
  EXPECT_EQ(kinds[FrEvent::kQueryEnd], 1);
  EXPECT_EQ(kinds[FrEvent::kPageFault], got.cost.io.physical_reads);
  EXPECT_EQ(events.size(),
            5 + static_cast<size_t>(got.cost.io.physical_reads));
  for (const MicroEvent& e : events) {
    if (e.kind == FrEvent::kScan) {
      EXPECT_EQ(e.a, got.cost.io.logical_reads);  // one fetch per node
    }
    if (e.kind == FrEvent::kSweep) {
      EXPECT_EQ(e.a, FlightRecorder::Pack(got.sweep.x_strips,
                                          got.sweep.y_sweeps));
      EXPECT_EQ(e.b, FlightRecorder::Pack(got.sweep.y_strips,
                                          got.sweep.dense_rects));
    }
  }
}

// Stage reporting belongs to the query: FrQueryCore opens every span of
// the FR trace tree and publishes the plane sweep's metrics once, from the
// summed counts, at any thread count.
class FrStageReportTest : public ::testing::TestWithParam<int> {
 protected:
  void SetUp() override {
    fr_.SetExecPolicy({.threads = GetParam()});
    for (const UpdateEvent& e : MakeUniformInserts(3000, kExtent, 1.5, 76)) {
      fr_.Apply(e);
    }
  }

  FrEngine::QueryResult Query() {
    const double rho = 1.2 * 3000 / (kExtent * kExtent);
    return fr_.Query(/*q_t=*/2, rho, 20.0, /*cold_cache=*/true);
  }

  FrEngine fr_{SmallOptions()};
};

// Each span lasts at least as long as its children together (serial
// execution: children do not overlap).
void ExpectSpansCoverChildren(const SpanNode& node) {
  int64_t children_ns = 0;
  for (const auto& child : node.children) {
    children_ns += child->duration_ns;
    ExpectSpansCoverChildren(*child);
  }
  EXPECT_GE(node.duration_ns, children_ns) << node.name;
}

TEST_P(FrStageReportTest, TraceTreeIsTheQueryStages) {
  PdrObs::SetEnabled(true);
  CollectingSink sink;
  PdrObs::SetTraceSink(&sink);
  const auto got = Query();
  PdrObs::SetTraceSink(nullptr);
  const auto traces = sink.TakeAll();
  ASSERT_EQ(traces.size(), 1u);
  const SpanNode& root = *traces[0];
  EXPECT_EQ(root.name, "fr.query");
  ASSERT_GT(got.candidate_cells, 10);
  ASSERT_EQ(root.children.size(),
            static_cast<size_t>(got.candidate_cells) + 3);
  EXPECT_EQ(root.children[0]->name, "fr.filter");
  EXPECT_EQ(root.children[1]->name, "tpr.scan");
  for (size_t i = 2; i + 1 < root.children.size(); ++i) {
    EXPECT_EQ(root.children[i]->name, "fr.cell");
  }
  EXPECT_EQ(root.children.back()->name, "fr.coalesce");
  for (const auto& child : root.children) {
    EXPECT_TRUE(child->children.empty()) << child->name;
  }

  // The scan is the query's only page reader.
  const SpanNode& scan = *root.children[1];
  EXPECT_GT(got.cost.io.physical_reads, 0);
  EXPECT_EQ(root.IntAttrOr("io_reads", -1), got.cost.io.physical_reads);
  EXPECT_EQ(scan.IntAttrOr("io_reads", -1), got.cost.io.physical_reads);
  EXPECT_EQ(scan.IntAttrOr("io_logical", -1), got.cost.io.logical_reads);
  EXPECT_EQ(scan.IntAttrOr("nodes_visited", -1), got.cost.io.logical_reads);
  if (GetParam() == 1) ExpectSpansCoverChildren(root);
}

TEST_P(FrStageReportTest, SweepMetricsCountOncePerQuery) {
  PdrObs::SetEnabled(true);
  MetricsRegistry& registry = MetricsRegistry::Global();
  const auto read = [&registry] {
    std::vector<int64_t> values;
    for (const char* name :
         {"pdr.sweep.cells", "pdr.sweep.x_strips", "pdr.sweep.y_sweeps",
          "pdr.sweep.y_strips", "pdr.sweep.dense_rects"}) {
      values.push_back(registry.GetCounter(name).value());
    }
    return values;
  };
  const std::vector<int64_t> before = read();
  const auto got = Query();
  const std::vector<int64_t> after = read();
  ASSERT_GT(got.sweep.dense_rects, 0);
  EXPECT_EQ(after[0] - before[0], got.candidate_cells);
  EXPECT_EQ(after[1] - before[1], got.sweep.x_strips);
  EXPECT_EQ(after[2] - before[2], got.sweep.y_sweeps);
  EXPECT_EQ(after[3] - before[3], got.sweep.y_strips);
  EXPECT_EQ(after[4] - before[4], got.sweep.dense_rects);

  // A bare plane sweep returns its counts and reports nothing.
  SweepStats stats;
  const auto rects =
      SweepCell(Rect(0, 0, 10, 10), {{5, 5}, {5, 6}, {6, 5}}, 4.0, 2, &stats);
  EXPECT_FALSE(rects.empty());
  EXPECT_GT(stats.x_strips, 0);
  EXPECT_EQ(read(), after);
}

INSTANTIATE_TEST_SUITE_P(Threads, FrStageReportTest, ::testing::Values(1, 4));

}  // namespace
}  // namespace pdr
