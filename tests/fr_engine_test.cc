#include "pdr/core/fr_engine.h"

#include <gtest/gtest.h>

#include "pdr/common/random.h"
#include "pdr/core/metrics.h"
#include "pdr/core/oracle.h"
#include "pdr/core/simulation.h"
#include "pdr/mobility/generator.h"

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

}  // namespace
}  // namespace pdr
