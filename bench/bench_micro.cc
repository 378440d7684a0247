// Micro-benchmarks of the hot primitives (google-benchmark): histogram
// and Chebyshev-grid update paths, TPR-tree operations, the plane sweep,
// region algebra, and polynomial evaluation/bounding. These back the
// per-operation numbers quoted in EXPERIMENTS.md.

#include <benchmark/benchmark.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "bench_util.h"

namespace pdr {
namespace {

constexpr double kExtent = 1000.0;
constexpr Tick kHorizon = 120;

std::vector<UpdateEvent> SomeInserts(int n, uint64_t seed = 7) {
  return MakeUniformInserts(n, kExtent, 1.5, seed);
}

void BM_HistogramApplyInsert(benchmark::State& state) {
  DensityHistogram dh({kExtent, 100, kHorizon});
  const auto events = SomeInserts(10000);
  size_t i = 0;
  ObjectId next_id = 100000;
  for (auto _ : state) {
    UpdateEvent e = events[i++ % events.size()];
    e.id = next_id++;
    dh.Apply(e);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_HistogramApplyInsert);

void BM_ChebGridApplyInsert(benchmark::State& state) {
  const int degree = static_cast<int>(state.range(0));
  ChebGrid grid({kExtent, 10, degree, kHorizon, 30.0});
  const auto events = SomeInserts(10000);
  size_t i = 0;
  ObjectId next_id = 100000;
  for (auto _ : state) {
    UpdateEvent e = events[i++ % events.size()];
    e.id = next_id++;
    grid.Apply(e);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ChebGridApplyInsert)->Arg(3)->Arg(5)->Arg(7);

void BM_TprInsert(benchmark::State& state) {
  TprTree tree({.buffer_pages = 4096, .horizon = kHorizon});
  const auto events = SomeInserts(50000);
  size_t i = 0;
  for (auto _ : state) {
    const auto& e = events[i % events.size()];
    tree.Insert(static_cast<ObjectId>(i), *e.new_state);
    ++i;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TprInsert);

void BM_TprRangeQuery(benchmark::State& state) {
  TprTree tree({.buffer_pages = 4096, .horizon = kHorizon});
  for (const auto& e : SomeInserts(50000)) tree.Apply(e);
  Rng rng(3);
  for (auto _ : state) {
    const double x = rng.Uniform(0, kExtent - 50);
    const double y = rng.Uniform(0, kExtent - 50);
    benchmark::DoNotOptimize(
        tree.RangeQuery(Rect(x, y, x + 50, y + 50), 30));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TprRangeQuery);

void BM_TprUpdate(benchmark::State& state) {
  TprTree tree({.buffer_pages = 4096, .horizon = kHorizon});
  auto events = SomeInserts(50000);
  for (const auto& e : events) tree.Apply(e);
  Rng rng(4);
  for (auto _ : state) {
    const size_t idx = rng.UniformInt(0, events.size() - 1);
    const MotionState old_state = *events[idx].new_state;
    const MotionState fresh{{rng.Uniform(0, kExtent), rng.Uniform(0, kExtent)},
                            {rng.Uniform(-1, 1), rng.Uniform(-1, 1)},
                            old_state.t_ref};
    tree.Apply({old_state.t_ref, events[idx].id, old_state, fresh});
    events[idx].new_state = fresh;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TprUpdate);

void BM_SweepCell(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  Rng rng(5);
  std::vector<Vec2> positions;
  positions.reserve(n);
  for (int i = 0; i < n; ++i) {
    positions.push_back({rng.Uniform(-15, 25), rng.Uniform(-15, 25)});
  }
  const Rect cell(0, 0, 10, 10);
  for (auto _ : state) {
    benchmark::DoNotOptimize(SweepCell(cell, positions, 30.0, n / 4));
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_SweepCell)->Arg(64)->Arg(512)->Arg(4096);

// Dense-output hotspot: an 8x8 lattice of tight clusters (spacing 1.25,
// jitter +-0.4, l = 1) with a threshold of half a cluster, so nearly every
// X-strip reports many short dense runs (~8 at n = 512, ~17 at n = 4096).
// Prices the adversarial case of the output-sensitive sweep.
void BM_SweepCellClustered(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  Rng rng(9);
  std::vector<Vec2> positions;
  positions.reserve(n);
  for (int i = 0; i < n; ++i) {
    const double cx = 0.625 + 1.25 * static_cast<double>(rng.UniformInt(0, 7));
    const double cy = 0.625 + 1.25 * static_cast<double>(rng.UniformInt(0, 7));
    positions.push_back(
        {cx + rng.Uniform(-0.4, 0.4), cy + rng.Uniform(-0.4, 0.4)});
  }
  const Rect cell(0, 0, 10, 10);
  SweepStats stats;
  for (auto _ : state) {
    stats = SweepStats();
    benchmark::DoNotOptimize(SweepCell(cell, positions, 1.0, n / 128, &stats));
  }
  state.counters["runs_per_strip"] =
      static_cast<double>(stats.dense_rects) / stats.y_sweeps;
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_SweepCellClustered)->Arg(512)->Arg(4096);

void BM_Cheb2DEval(benchmark::State& state) {
  Cheb2D poly(5);
  Rng rng(6);
  for (int i = 0; i < 10; ++i) {
    poly.AddIndicator(rng.Uniform(-1, 0), rng.Uniform(0, 1),
                      rng.Uniform(-1, 0), rng.Uniform(0, 1), 1.0);
  }
  double x = -1.0;
  for (auto _ : state) {
    x += 1e-4;
    if (x > 1) x = -1;
    benchmark::DoNotOptimize(poly.Eval(x, -x));
  }
}
BENCHMARK(BM_Cheb2DEval);

void BM_Cheb2DBound(benchmark::State& state) {
  Cheb2D poly(5);
  Rng rng(7);
  for (int i = 0; i < 10; ++i) {
    poly.AddIndicator(rng.Uniform(-1, 0), rng.Uniform(0, 1),
                      rng.Uniform(-1, 0), rng.Uniform(0, 1), 1.0);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(poly.Bound(-0.5, 0.25, -0.1, 0.9));
  }
}
BENCHMARK(BM_Cheb2DBound);

void BM_Cheb2DAddIndicator(benchmark::State& state) {
  Cheb2D poly(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    poly.AddIndicator(-0.4, 0.3, -0.2, 0.6, 1.0);
  }
}
BENCHMARK(BM_Cheb2DAddIndicator)->Arg(3)->Arg(5)->Arg(7);

void BM_RegionCoalesce(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  Rng rng(8);
  Region region;
  for (int i = 0; i < n; ++i) {
    const double x = rng.Uniform(0, 900);
    const double y = rng.Uniform(0, 900);
    region.Add(Rect(x, y, x + rng.Uniform(5, 60), y + rng.Uniform(5, 60)));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(region.Coalesced());
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_RegionCoalesce)->Arg(100)->Arg(1000);

// FR's final coalesce on real refinement output: the SweepCell rectangles
// of an 8x8 grid of 10x10 cells over clustered positions (l = 3, threshold
// 6), as one strip rectangle per X-strip and dense run (Arg 0) or joined
// per cell across strips first, as FrQueryCore does (Arg 1). Both inputs
// coalesce to the same region; the gap is the input-size effect.
void BM_RegionCoalesceSweepStrips(benchmark::State& state) {
  const bool joined = state.range(0) != 0;
  constexpr int kSide = 8;
  constexpr double kCell = 10.0;
  constexpr double kL = 3.0;
  Rng rng(10);
  std::vector<Vec2> centers;
  for (int i = 0; i < 24; ++i) {
    centers.push_back({rng.Uniform(0, kSide * kCell),
                       rng.Uniform(0, kSide * kCell)});
  }
  std::vector<Vec2> positions;
  for (int i = 0; i < 6000; ++i) {
    const Vec2 c = centers[static_cast<size_t>(
        rng.UniformInt(0, static_cast<int64_t>(centers.size()) - 1))];
    positions.push_back({c.x + rng.Normal(0, 4), c.y + rng.Normal(0, 4)});
  }
  Region region;
  for (int row = 0; row < kSide; ++row) {
    for (int col = 0; col < kSide; ++col) {
      const Rect cell(col * kCell, row * kCell, (col + 1) * kCell,
                      (row + 1) * kCell);
      const Rect window = cell.Expanded(kL / 2);
      std::vector<Vec2> near;
      for (const Vec2& p : positions) {
        if (window.ContainsClosed(p)) near.push_back(p);
      }
      std::vector<Rect> rects = SweepCell(cell, near, kL, 6);
      if (joined) rects = JoinSweepStrips(std::move(rects));
      for (const Rect& r : rects) region.Add(r);
    }
  }
  size_t rects_out = 0;
  for (auto _ : state) {
    const Region out = region.Coalesced();
    rects_out = out.size();
    benchmark::DoNotOptimize(out);
  }
  state.counters["rects_in"] = static_cast<double>(region.size());
  state.counters["rects_out"] = static_cast<double>(rects_out);
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(region.size()));
}
BENCHMARK(BM_RegionCoalesceSweepStrips)->Arg(0)->Arg(1);

void BM_IntersectionArea(benchmark::State& state) {
  Rng rng(9);
  Region a, b;
  for (int i = 0; i < 500; ++i) {
    double x = rng.Uniform(0, 900), y = rng.Uniform(0, 900);
    a.Add(Rect(x, y, x + 40, y + 40));
    x = rng.Uniform(0, 900);
    y = rng.Uniform(0, 900);
    b.Add(Rect(x, y, x + 40, y + 40));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(IntersectionArea(a, b));
  }
}
BENCHMARK(BM_IntersectionArea);

void BM_FilterCells(benchmark::State& state) {
  const int m = static_cast<int>(state.range(0));
  DensityHistogram dh({kExtent, m, 4});
  for (const auto& e : SomeInserts(50000)) dh.Apply(e);
  for (auto _ : state) {
    benchmark::DoNotOptimize(FilterCells(dh, 0, 0.05, 30.0));
  }
}
BENCHMARK(BM_FilterCells)->Arg(100)->Arg(250);

// One recorder event: the cost every instrumented call site pays. With
// the recorder disabled (the default) this is a relaxed load and a
// branch; with PDR_FLIGHT_RECORDER=1 it is four relaxed stores into the
// calling thread's ring. Run the binary both ways to see the two costs.
void BM_RecorderRecord(benchmark::State& state) {
  int64_t i = 0;
  for (auto _ : state) {
    FlightRecorder::Record(FrEvent::kTaskRun, ++i);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RecorderRecord);

// End-to-end FR query on a pre-built engine, recorder off. The query path
// crosses every instrumented subsystem — filter, index scan, plane sweep,
// buffer pool — which makes it the recorder-overhead probe's query too.
constexpr double kFrQueryRho = 3.0 * 20000 / (kExtent * kExtent);

std::unique_ptr<FrEngine> MakeFrQueryEngine() {
  auto fr = std::make_unique<FrEngine>(FrEngine::Options{
      .extent = kExtent,
      .histogram_side = 50,
      .horizon = kHorizon,
      .buffer_pages = 256});
  for (const auto& e : SomeInserts(20000)) fr->Apply(e);
  return fr;
}

void BM_FrQuery(benchmark::State& state) {
  const bool was_enabled = FlightRecorder::Enabled();
  FlightRecorder::SetEnabled(false);
  const auto fr = MakeFrQueryEngine();
  for (auto _ : state) {
    benchmark::DoNotOptimize(fr->Query(/*q_t=*/5, kFrQueryRho, /*l=*/30.0));
  }
  state.SetItemsProcessed(state.iterations());
  FlightRecorder::SetEnabled(was_enabled);
}
BENCHMARK(BM_FrQuery);

double ThreadCpuMs() {
  timespec ts;
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) * 1e3 +
         static_cast<double>(ts.tv_nsec) / 1e6;
}

// The overhead gates' paired measurement. Each benchmark iteration is one
// round: `per_side` calls of `run()` with `set_on(false)` and `per_side`
// with `set_on(true)`, the side that goes first alternating between
// rounds, each side timed by the thread's CPU clock. A round yields one
// on/off ratio, and `overhead_pct` is the median ratio over all rounds.
// Pairing inside a round cancels the host's drift, which moved whole
// repetitions of separately timed off and on runs by several percent, far
// more than the features under test cost.
template <typename SetOn, typename Run>
void RunPairedOverheadProbe(benchmark::State& state, int per_side,
                            const SetOn& set_on, const Run& run) {
  std::vector<double> ratios;
  for (auto _ : state) {
    double side_ms[2] = {0.0, 0.0};  // [off, on]
    const bool on_first = ratios.size() % 2 == 1;
    for (const bool on : {on_first, !on_first}) {
      set_on(on);
      const double start = ThreadCpuMs();
      for (int i = 0; i < per_side; ++i) run();
      side_ms[on] = ThreadCpuMs() - start;
    }
    ratios.push_back(side_ms[1] / side_ms[0]);
  }
  std::sort(ratios.begin(), ratios.end());
  const size_t n = ratios.size();
  const double median = n % 2 == 1 ? ratios[n / 2]
                                   : (ratios[n / 2 - 1] + ratios[n / 2]) / 2;
  state.counters["overhead_pct"] = 100.0 * (median - 1.0);
  state.counters["rounds"] = static_cast<double>(n);
}

// The flight-recorder overhead gate's probe (scripts/check_overhead.sh):
// rounds of 3 recorder-off and 3 recorder-on FR queries on ONE engine.
void BM_FrQueryRecorderPaired(benchmark::State& state) {
  const bool was_enabled = FlightRecorder::Enabled();
  const auto fr = MakeFrQueryEngine();
  RunPairedOverheadProbe(
      state, /*per_side=*/3, [](bool on) { FlightRecorder::SetEnabled(on); },
      [&fr] {
        benchmark::DoNotOptimize(
            fr->Query(/*q_t=*/5, kFrQueryRho, /*l=*/30.0));
      });
  FlightRecorder::SetEnabled(was_enabled);
}
BENCHMARK(BM_FrQueryRecorderPaired)
    ->Iterations(150)
    ->Unit(benchmark::kMillisecond);

// End-to-end monitor tick: the full FR query plus the delta computation.
// The workload is deliberately small (~1.5 ms/tick) so the recording
// probe below fits many ticks per round. The density is tuned so the
// answer is non-empty (a few hundred rects), making the recorder's digest
// hash real answer bytes rather than an empty region.
constexpr double kTickExtent = 500.0;
constexpr int kTickObjects = 800;

std::unique_ptr<FrEngine> MakeMonitorTickEngine() {
  auto fr = std::make_unique<FrEngine>(FrEngine::Options{
      .extent = kTickExtent,
      .histogram_side = 25,
      .horizon = kHorizon,
      .buffer_pages = 256});
  for (const auto& e : MakeUniformInserts(kTickObjects, kTickExtent, 1.5, 7))
    fr->Apply(e);
  return fr;
}

constexpr PdrMonitor::Options kMonitorTickOptions{
    .rho = 3.0 * kTickObjects / (kTickExtent * kTickExtent),
    .l = 25.0,
    .lookahead = 5};

void BM_MonitorTick(benchmark::State& state) {
  const auto fr = MakeMonitorTickEngine();
  PdrMonitor monitor(fr.get(), kMonitorTickOptions);
  for (auto _ : state) {
    benchmark::DoNotOptimize(monitor.OnTick(0));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MonitorTick);

// The workload-recording overhead gate's probe (scripts/check_replay.sh
// lane 3): rounds of 8 unrecorded and 8 recorded ticks on ONE monitor. A
// recorded tick also digests the answer (raw-bits transcript + EXPLAIN
// signature hash) and appends one framed record to the log, so the ratio
// bounds what always-on capture costs a serving process.
void BM_MonitorTickRecorderPaired(benchmark::State& state) {
  const auto fr = MakeMonitorTickEngine();
  PdrMonitor monitor(fr.get(), kMonitorTickOptions);
  const std::string path = "/tmp/pdr_bench_monitor_tick_" +
                           std::to_string(static_cast<long long>(::getpid())) +
                           ".wlog";
  auto recorder =
      std::make_unique<WorkloadRecorder>(path, WorkloadLogHeader{});
  RunPairedOverheadProbe(
      state, /*per_side=*/8,
      [&](bool on) { monitor.SetRecorder(on ? recorder.get() : nullptr); },
      [&monitor] { benchmark::DoNotOptimize(monitor.OnTick(0)); });
  monitor.SetRecorder(nullptr);
  recorder.reset();
  std::remove(path.c_str());
}
BENCHMARK(BM_MonitorTickRecorderPaired)
    ->Iterations(300)
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace pdr

BENCHMARK_MAIN();
