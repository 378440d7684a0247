// The repo benchmark program: one process, one closed-loop client, three
// workloads over the public pdr API (README.md in this directory has the
// workload rationale and the layer -> metric interaction table).
//
//   pdr_perfbench --workload fr_cold|fr_monitor|approx_stream --seed N
//                 --seconds S --trace 0|1 --work-dir DIR [--build-id ID]
//                 [--git-sha SHA] [--git-dirty 0|1]
//
// Every run sets up the workload several times (setup_s is the median),
// drives it for S seconds of timed work, checks answers against the brute
// force oracle outside the timed region, and prints one JSON object as
// its last stdout line: end-to-end metrics with --trace 0, scaled to a
// reference host speed (see "host speed"), and per-layer metrics (from
// spans this file opens around each call into a module) with --trace 1.
// Spans and provenance are written under --work-dir.

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <ctime>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "pdr/pdr.h"

#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif
#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

using namespace pdr;
namespace fs = std::filesystem;
using Clock = std::chrono::steady_clock;

// --- workload constants (README.md explains each choice) -----------------
constexpr int kObjects = 20000;
constexpr double kExtent = 1000.0;
constexpr Tick kWarmupTicks = 70;  // U + 10: every object has re-reported
constexpr int kSetupReps = 3;      // setup_s is the median of these
constexpr int kProbes = 2000;      // oracle probes per run
constexpr double kIoMs = 10.0;     // the paper's charge per physical read

double SecondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double ProcessCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + ts.tv_nsec * 1e-9;
}

// --- host speed ---------------------------------------------------------------
// The host is shared: its speed drifts by up to 1.8x over seconds to
// minutes, which moves every timing of a run together. Two fixed loops
// with no pdr code in them (so no change to the program can speed them up
// or slow them down) are timed after every setup build and every block.
// A run's slowdown for a loop is its median time over the loop's reference
// time, and each end-to-end timing is divided by the slowdown of the loop
// it was measured to follow (rates are multiplied), so the figures read as
// on a host where the loops take their reference times. A slower program
// still reads slower; the host's drift cancels. The references are about
// the loops' times on an idle core of a 4-vCPU x86-64 VM.
constexpr double kCpuLoopRefMs = 2.0;
constexpr double kMemLoopRefMs = 1.5;

// Transcendental math on registers. Query latency, the CPU part of query
// cost, setup and the ingest tail ticks follow it.
double CpuLoopMs() {
  const auto t0 = Clock::now();
  double acc = 0.0;
  for (int i = 0; i < 40000; ++i) {
    const double x = -1.0 + 2.0 * ((i * 7919) % 10007) / 10007.0;
    const double th = std::acos(x);
    acc += std::sin(3.0 * th) * std::cos(2.0 * th);
  }
  volatile double sink = acc;  // keeps the loop from being optimised out
  (void)sink;
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

// Coefficient updates at random cells of a ~1.5 MB table, the shape of the
// ingest paths (Chebyshev Apply over 91 slices, TPR updates through a small
// buffer pool). Ingest throughput slowed 1.8x when the CPU loop slowed
// 1.4x; it follows this loop. The table is read once untimed first, so
// what the program left in the caches does not change the timed part.
double MemLoopMs() {
  constexpr size_t kCells = 9100, kCoeffs = 21;
  static std::vector<double> table(kCells * kCoeffs, 0.0);
  static uint64_t lcg = 12345;
  double acc = 0.0;
  for (double c : table) acc += c;
  const auto t0 = Clock::now();
  for (int op = 0; op < 300; ++op) {
    lcg = lcg * 6364136223846793005ULL + 1442695040888963407ULL;
    const double z1 = -1.0 + static_cast<double>((lcg >> 20) & 1023) / 1024.0;
    const double t1 = std::acos(z1);
    const double t2 = std::acos(std::min(z1 + 0.7, 1.0));
    for (size_t slice = 0; slice < 91; ++slice) {
      const double w = std::sin(t2 + slice) + std::cos(t1 - slice);
      double* c = &table[(slice * 100 + (lcg >> 40) % 100) * kCoeffs];
      for (size_t k = 0; k < kCoeffs; ++k) c[k] += w * k + t1;
    }
  }
  volatile double sink = acc;
  (void)sink;
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

int Threads() {
  const unsigned hw = std::thread::hardware_concurrency();
  return static_cast<int>(std::clamp(hw, 1u, 4u));
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double Mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double s = 0.0;
  for (double x : v) s += x;
  return s / static_cast<double>(v.size());
}

// The highest percentile with at least ten samples beyond it (the largest
// sample when there are fewer than eleven).
struct Tail {
  double value = 0.0;
  double percentile = 100.0;
  size_t samples = 0;
};

Tail TailOf(std::vector<double> v) {
  Tail t;
  t.samples = v.size();
  if (v.empty()) return t;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  const size_t idx = n > 10 ? n - 11 : n - 1;
  t.value = v[idx];
  t.percentile = 100.0 * static_cast<double>(idx + 1) / static_cast<double>(n);
  return t;
}

// --- spans ------------------------------------------------------------------
// Kept in memory, written as JSONL at exit. Each span records the op
// (request) it belongs to and the span that caused it.
class Tracer {
 public:
  explicit Tracer(bool on) : on_(on), t0_(Clock::now()) {}
  bool on() const { return on_; }

  int32_t Open(const char* name, int64_t op) {
    if (!on_) return -1;
    const int32_t parent = open_.empty() ? -1 : open_.back();
    spans_.push_back({name, op, parent, NowMs(), 0.0});
    open_.push_back(static_cast<int32_t>(spans_.size() - 1));
    return open_.back();
  }

  void Close(int32_t i) {
    if (i < 0) return;
    Rec& r = spans_[static_cast<size_t>(i)];
    r.end_ms = NowMs();
    open_.pop_back();
    total_ms_[r.name] += r.end_ms - r.start_ms;
  }

  double TotalMs(const std::string& name) const {
    const auto it = total_ms_.find(name);
    return it == total_ms_.end() ? 0.0 : it->second;
  }

  void Write(const std::string& path) const {
    std::ofstream out(path);
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Rec& r = spans_[i];
      out << "{\"id\":" << i << ",\"parent\":" << r.parent
          << ",\"op\":" << r.op << ",\"name\":\"" << r.name
          << "\",\"start_ms\":" << r.start_ms << ",\"end_ms\":" << r.end_ms
          << "}\n";
    }
  }

 private:
  struct Rec {
    const char* name;
    int64_t op;
    int32_t parent;
    double start_ms;
    double end_ms;
  };
  double NowMs() const {
    return std::chrono::duration<double, std::milli>(Clock::now() - t0_)
        .count();
  }

  bool on_;
  Clock::time_point t0_;
  std::vector<Rec> spans_;
  std::vector<int32_t> open_;
  std::map<std::string, double> total_ms_;
};

class Span {
 public:
  Span(Tracer& tracer, const char* name, int64_t op = -1)
      : tracer_(tracer), id_(tracer.Open(name, op)) {}
  ~Span() { tracer_.Close(id_); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Tracer& tracer_;
  int32_t id_;
};

// --- run-wide state ---------------------------------------------------------
struct Args {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  std::string work_dir;
  std::string build_id = "unknown";
  std::string git_sha = "unknown";
  std::string git_dirty = "unknown";
};

struct Run {
  Args args;
  Tracer tracer;
  int64_t attempted = 0;
  int64_t failed = 0;
  int64_t probes = 0;        // oracle probes of the primary answer
  int64_t probes_agree = 0;  // ... whose membership matched the oracle
  std::vector<std::string> failures;  // first few, for the detail line
  std::map<std::string, double> e2e;     // end-to-end metrics
  std::map<std::string, double> layer;   // per-layer metrics
  std::map<std::string, std::string> info;  // provenance + details
  // Serial-path work counts per op, for the exact-repeat self-check.
  std::vector<std::vector<int64_t>> op_counts;

  std::vector<double> cpu_loop_ms, mem_loop_ms;  // see "host speed"
  // query_cost_ms_mean's parts: CPU time, scaled like every CPU timing,
  // and the simulated I/O charge, which is not.
  double cost_cpu_ms_mean = 0.0;
  double cost_io_ms_mean = 0.0;

  explicit Run(const Args& a) : args(a), tracer(a.trace) {}

  void Calibrate() {
    cpu_loop_ms.push_back(CpuLoopMs());
    mem_loop_ms.push_back(MemLoopMs());
  }

  /// Sets peak_rss_mb on the first call only. Each workload calls it after
  /// a fixed amount of work (its setup builds and first pass or block), so
  /// the figure does not depend on how much work fits in --seconds.
  void NotePeakRss() { e2e.emplace("peak_rss_mb", PeakRssMb()); }

  void Fail(const std::string& why) {
    ++failed;
    if (failures.size() < 8) failures.push_back(why);
  }
};

// The update stream: trips on one fixed synthetic city (the road network
// and its hotspots are the deployment, RoadNetworkConfig's default seed),
// with the trips drawn from --seed. Generated one tick at a time, so the
// timed loop can keep drawing ticks past warm-up.
WorkloadConfig StreamConfig(uint64_t seed) {
  WorkloadConfig config;
  config.WithExtent(kExtent);
  config.num_objects = kObjects;
  config.max_update_interval = 60;
  config.seed = seed;
  return config;
}

double RhoFor(int varrho) {
  return PaperConfig{}.RhoFor(kObjects, varrho);
}

// Counts setup produced, which must repeat exactly across setup reps.
using Signature = std::vector<int64_t>;

struct SetupTimes {
  std::vector<double> total_s;     // one per rep: generate + warm-up (+ckpt)
  std::vector<double> generate_s;  // one per rep
};

// Builds a workload's state from scratch, timing each build into setup_s
// (the median over builds) and checking that every build's work counts
// match the first build's.
template <typename State>
class Setup {
 public:
  using BuildFn =
      std::function<std::unique_ptr<State>(SetupTimes&, Signature&)>;
  Setup(Run& run, BuildFn build) : run_(run), build_(std::move(build)) {}

  /// Replaces `state` with a fresh build (the old one is released first).
  void Rebuild(std::unique_ptr<State>& state) {
    state.reset();
    Signature sig;
    state = build_(times_, sig);
    run_.Calibrate();
    if (builds_++ == 0) {
      first_ = sig;
    } else if (sig != first_) {
      run_.Fail("setup build " + std::to_string(builds_) +
                " work counts differ from the first build");
    }
    run_.e2e["setup_s"] = Median(times_.total_s);
    run_.layer["mobility.generate_s"] = Median(times_.generate_s);
    run_.info["setup_builds"] = std::to_string(builds_);
  }

  /// kSetupReps builds; returns the last.
  std::unique_ptr<State> BuildRepeated() {
    std::unique_ptr<State> state;
    for (int rep = 0; rep < kSetupReps; ++rep) Rebuild(state);
    return state;
  }

 private:
  Run& run_;
  BuildFn build_;
  SetupTimes times_;
  Signature first_;
  int builds_ = 0;
};

// Ingest accounting of a timed loop. A block is the loop's fixed group of
// ticks (it holds one checkpoint on fr_monitor); ingest_updates_per_s is
// the median block throughput, so a passing slow phase of the host moves
// it less than a whole-run ratio would.
struct IngestLog {
  std::vector<double> tick_ms;
  std::vector<double> block_rate;
  int64_t updates = 0;
  double seconds = 0.0;
  int64_t block_updates = 0;
  double block_s = 0.0;

  void AddTick(size_t n, double ms) {
    tick_ms.push_back(ms);
    updates += static_cast<int64_t>(n);
    seconds += ms / 1e3;
    block_updates += static_cast<int64_t>(n);
    block_s += ms / 1e3;
  }
  void EndBlock() {
    if (block_s > 0.0) block_rate.push_back(block_updates / block_s);
    block_updates = 0;
    block_s = 0.0;
  }
};

void RecordIngest(Run& run, const IngestLog& log) {
  run.e2e["ingest_updates_per_s"] = Median(log.block_rate);
  const Tail tail = TailOf(log.tick_ms);
  run.e2e["ingest_tick_ms_tail"] = tail.value;
  run.info["ingest_tick_ms_tail"] = "p" + std::to_string(tail.percentile) +
                                    " of " + std::to_string(tail.samples) +
                                    " ticks";
  run.info["updates"] = std::to_string(log.updates);
}

// Divides the run's end-to-end timings by its host slowdowns (see "host
// speed") and composes query_cost_ms_mean; the unscaled figures go to
// provenance. On fr_monitor this scales fsync waits too. Per-layer metrics
// stay unscaled.
void ScaleToReferenceHost(Run& run) {
  const double cpu = Median(run.cpu_loop_ms) / kCpuLoopRefMs;
  const double mem = Median(run.mem_loop_ms) / kMemLoopRefMs;
  auto& e = run.e2e;
  for (const char* k : {"setup_s", "query_ms_mean", "ingest_updates_per_s",
                        "ingest_tick_ms_tail"}) {
    run.info[std::string("unscaled.") + k] = std::to_string(e[k]);
  }
  run.info["unscaled.query_cost_ms_mean"] =
      std::to_string(run.cost_cpu_ms_mean + run.cost_io_ms_mean);
  e["setup_s"] /= cpu;
  e["query_ms_mean"] /= cpu;
  e["query_cost_ms_mean"] = run.cost_cpu_ms_mean / cpu + run.cost_io_ms_mean;
  e["ingest_tick_ms_tail"] /= cpu;
  e["ingest_updates_per_s"] *= mem;
  run.info["host_cpu_slowdown"] = std::to_string(cpu);
  run.info["host_mem_slowdown"] = std::to_string(mem);
}

// Oracle probes: half inside `region`'s rectangles, half uniform.
std::vector<Vec2> ProbePoints(const Region& region, int n, Rng& rng) {
  std::vector<Vec2> pts;
  pts.reserve(static_cast<size_t>(n));
  const auto& rects = region.rects();
  for (int i = 0; i < n; ++i) {
    if (i % 2 == 0 && !rects.empty()) {
      const Rect& r = rects[static_cast<size_t>(
          rng.UniformInt(0, static_cast<int64_t>(rects.size()) - 1))];
      pts.push_back({rng.Uniform(r.x_lo, r.x_hi), rng.Uniform(r.y_lo, r.y_hi)});
    } else {
      pts.push_back({rng.Uniform(0.0, kExtent), rng.Uniform(0.0, kExtent)});
    }
  }
  return pts;
}

// Probes `region` (the primary answer at q_t) against the oracle's exact
// counts; returns the number of probes where membership disagrees.
int64_t ProbeAnswer(Run& run, const Oracle& oracle, const Region& region,
                    Tick q_t, double rho, double l, int n, Rng& rng) {
  const int64_t n_min = MinObjectsForDensity(rho, l);
  int64_t bad = 0;
  for (const Vec2& p : ProbePoints(region, n, rng)) {
    const bool dense = oracle.CountInSquare(q_t, p, l) >= n_min;
    if (dense != region.Contains(p)) ++bad;
  }
  run.probes += n;
  run.probes_agree += n - bad;
  return bad;
}

bool SameRegion(const Region& a, const Region& b) {
  if (a.size() != b.size()) return false;
  return a.rects().empty() ||
         std::memcmp(a.rects().data(), b.rects().data(),
                     a.size() * sizeof(Rect)) == 0;
}

// --- the FR replica ---------------------------------------------------------
// FrEngine::Query's serial path rebuilt from public calls, each wrapped in a
// span: FilterCells -> per candidate cell ObjectIndex::RangeQuery ->
// SweepCell -> Region::Coalesced. Its region must be bit-identical to the
// engine's.
struct ReplicaStats {
  int64_t queries = 0;
  int64_t candidates = 0;
  int64_t cells = 0;  // m^2 per query, summed
  int64_t objects = 0;
  int64_t live_objects = 0;  // index size per query, summed
  int64_t rects_in = 0;
  int64_t rects_out = 0;
  SweepStats sweep;
};

Region FrReplica(Run& run, FrEngine& fr, Tick q_t, double rho, double l,
                 bool cold, int64_t op, ReplicaStats& rs) {
  Span query_span(run.tracer, "replica.fr_query", op);
  if (cold) fr.index().DropCaches();
  const Grid& grid = fr.histogram().grid();
  const int64_t n_min = MinObjectsForDensity(rho, l);
  FilterResult filter;
  {
    Span s(run.tracer, "histogram.filter", op);
    filter = FilterCells(fr.histogram(), q_t, rho, l);
  }
  const int m = grid.cells_per_side();
  Region merged;
  for (int row = 0; row < m; ++row) {
    for (int col = 0; col < m; ++col) {
      const CellClass cls = filter.At(col, row);
      if (cls == CellClass::kAccept) {
        merged.Add(grid.CellRect(col, row));
      } else if (cls == CellClass::kCandidate) {
        const Rect cell = grid.CellRect(col, row);
        std::vector<std::pair<ObjectId, MotionState>> objects;
        {
          Span s(run.tracer, "tpr.range_query", op);
          objects = fr.index().RangeQuery(cell.Expanded(l / 2), q_t);
        }
        rs.objects += static_cast<int64_t>(objects.size());
        std::vector<Vec2> positions;
        positions.reserve(objects.size());
        for (const auto& [id, state] : objects) {
          (void)id;
          const Vec2 p = state.PositionAt(q_t);
          if (grid.InDomain(p)) positions.push_back(p);
        }
        std::vector<Rect> rects;
        {
          Span s(run.tracer, "sweep.cell", op);
          rects = SweepCell(cell, positions, l, n_min, &rs.sweep);
        }
        for (const Rect& r : rects) merged.Add(r);
      }
    }
  }
  Region out;
  {
    Span s(run.tracer, "region.coalesce", op);
    out = merged.Coalesced();
  }
  ++rs.queries;
  rs.candidates += filter.candidates;
  rs.cells += static_cast<int64_t>(m) * m;
  rs.live_objects += static_cast<int64_t>(fr.index().size());
  rs.rects_in += static_cast<int64_t>(merged.size());
  rs.rects_out += static_cast<int64_t>(out.size());
  return out;
}

void RecordReplicaLayers(Run& run, const ReplicaStats& rs) {
  if (rs.queries == 0) return;
  const double n = static_cast<double>(rs.queries);
  auto& L = run.layer;
  L["histogram.filter_ms"] = run.tracer.TotalMs("histogram.filter") / n;
  L["histogram.candidate_ratio"] =
      static_cast<double>(rs.candidates) / static_cast<double>(rs.cells);
  L["tpr.range_query_ms"] = run.tracer.TotalMs("tpr.range_query") / n;
  L["tpr.objects_fetched"] = static_cast<double>(rs.objects) / n;
  L["tpr.fetch_amplification"] =
      static_cast<double>(rs.objects) / static_cast<double>(rs.live_objects);
  L["sweep.ms"] = run.tracer.TotalMs("sweep.cell") / n;
  L["sweep.x_strips"] = static_cast<double>(rs.sweep.x_strips) / n;
  L["sweep.y_sweeps"] = static_cast<double>(rs.sweep.y_sweeps) / n;
  L["sweep.y_strips"] = static_cast<double>(rs.sweep.y_strips) / n;
  L["sweep.dense_rects"] = static_cast<double>(rs.sweep.dense_rects) / n;
  L["region.coalesce_ms"] = run.tracer.TotalMs("region.coalesce") / n;
  L["region.coalesce_ratio"] =
      rs.rects_out > 0 ? static_cast<double>(rs.rects_in) / rs.rects_out
                       : 1.0;
}

FrEngine::Options FrOptions(size_t buffer_pages, const std::string& dir) {
  FrEngine::Options o;
  o.extent = kExtent;
  o.histogram_side = PaperConfig{}.default_histogram_side;
  o.horizon = PaperConfig{}.horizon();
  o.buffer_pages = buffer_pages;
  o.io_ms = kIoMs;
  o.storage_dir = dir;
  return o;
}

// Warm-up shared by every workload: bootstrap + U+10 ticks of the stream.
// Generation and `apply` (one tick into the system's engines) are timed
// into `st`; the oracle is fed untimed.
void WarmUp(TripSimulator& sim, Oracle& oracle, SetupTimes& st,
            const std::function<void(Tick, const std::vector<UpdateEvent>&)>&
                apply) {
  double generate_s = 0.0, apply_s = 0.0;
  for (Tick t = 0; t <= kWarmupTicks; ++t) {
    const auto g0 = Clock::now();
    const std::vector<UpdateEvent> updates =
        t == 0 ? sim.Bootstrap() : sim.Advance(t);
    generate_s += SecondsSince(g0);
    const auto a0 = Clock::now();
    apply(t, updates);
    apply_s += SecondsSince(a0);
    oracle.AdvanceTo(t);
    for (const UpdateEvent& u : updates) oracle.Apply(u);
  }
  st.total_s.push_back(generate_s + apply_s);
  st.generate_s.push_back(generate_s);
}

// --- fr_cold -----------------------------------------------------------------
struct FrColdState {
  TripSimulator sim;
  Oracle oracle{kExtent};
  FrEngine fr;
  explicit FrColdState(uint64_t seed)
      : sim(StreamConfig(seed)),
        fr(FrOptions(PaperConfig{}.BufferPagesFor(kObjects), "")) {}
};

// Ticks of the stream ingested between two fr_cold queries.
constexpr int kFrColdTicksPerQuery = 8;

void RunFrCold(Run& run) {
  Setup<FrColdState> setup(run, [&](SetupTimes& times, Signature& sig) {
    auto s = std::make_unique<FrColdState>(run.args.seed);
    WarmUp(s->sim, s->oracle, times,
           [&](Tick t, const std::vector<UpdateEvent>& updates) {
             s->fr.AdvanceTo(t);
             for (const UpdateEvent& u : updates) s->fr.Apply(u);
           });
    const IoStats io = s->fr.index().io_stats();
    sig = {static_cast<int64_t>(s->fr.index().node_count()),
           static_cast<int64_t>(s->fr.index().size()), io.logical_reads,
           io.physical_reads, io.writebacks};
    return s;
  });
  std::unique_ptr<FrColdState> state = setup.BuildRepeated();
  run.info["tree_pages"] = std::to_string(state->fr.index().node_count());
  run.info["buffer_pages"] = std::to_string(state->fr.options().buffer_pages);

  struct Entry {
    double l;
    int varrho;
    Tick dq;
  };
  std::vector<Entry> mix;
  for (double l : {30.0, 60.0})
    for (int varrho : {1, 3, 5})
      for (Tick dq : {0, 30, 60}) mix.push_back({l, varrho, dq});

  std::vector<double> latency_ms, cost_cpu_ms, cost_io_ms;
  IngestLog ingest;
  std::vector<Region> first_pass_regions(mix.size());
  // Pass-0 work counts by mix index; an entry whose pass-0 query threw
  // stays empty and later passes skip comparing against it.
  run.op_counts.assign(mix.size(), {});
  ReplicaStats rs;
  IoStats io_sum;
  double engine_ms = 0.0, replica_ms = 0.0, engine_cpu_ms = 0.0;
  double timed_s = 0.0;
  int64_t pages = 0;
  Rng rng(run.args.seed ^ 0xC0FFEEULL);
  const int probes_per_query = kProbes / static_cast<int>(mix.size());
  int64_t op = 0;
  // Whole passes over the mix, so every run weighs every entry equally.
  // Within a pass the stream keeps arriving between queries (timed as
  // ingest; nothing is written while a query runs). Every pass after the
  // first rebuilds the engine and replays the identical sequence, so what
  // a run measures does not depend on how many passes fit in its time.
  for (int pass = 0; pass == 0 || timed_s < run.args.seconds; ++pass) {
    if (pass > 0) setup.Rebuild(state);
    FrEngine& fr = state->fr;
    Tick t = fr.now();
    for (size_t i = 0; i < mix.size(); ++i, ++op) {
      ++run.attempted;
      try {
        for (int k = 0; k < kFrColdTicksPerQuery; ++k) {
          ++t;
          const std::vector<UpdateEvent> batch = state->sim.Advance(t);
          state->oracle.AdvanceTo(t);
          for (const UpdateEvent& u : batch) state->oracle.Apply(u);
          const auto i0 = Clock::now();
          {
            Span s(run.tracer, "core.fr_apply", op);
            fr.AdvanceTo(t);
            for (const UpdateEvent& u : batch) fr.Apply(u);
          }
          const double ims = SecondsSince(i0) * 1e3;
          ingest.AddTick(batch.size(), ims);
          timed_s += ims / 1e3;
        }
        ingest.EndBlock();
        run.Calibrate();

        const Entry& e = mix[i];
        const Tick q_t = t + e.dq;
        const double rho = RhoFor(e.varrho);
        FrEngine::QueryResult r;
        const auto t0 = Clock::now();
        {
          Span s(run.tracer, "core.fr_query", op);
          r = fr.Query(q_t, rho, e.l, /*cold_cache=*/true);
        }
        const double ms = SecondsSince(t0) * 1e3;
        timed_s += ms / 1e3;
        latency_ms.push_back(ms);
        cost_cpu_ms.push_back(r.cost.cpu_ms);
        cost_io_ms.push_back(r.cost.io_ms);
        io_sum += r.cost.io;
        pages += static_cast<int64_t>(fr.index().node_count());
        engine_ms += ms;
        engine_cpu_ms += r.cost.cpu_ms;
        const Signature counts = {r.cost.io.physical_reads,
                                  r.cost.io.logical_reads,
                                  r.objects_fetched,
                                  r.sweep.x_strips,
                                  r.sweep.y_sweeps,
                                  r.sweep.y_strips,
                                  r.sweep.dense_rects,
                                  static_cast<int64_t>(r.region.size())};
        if (pass == 0) {
          first_pass_regions[i] = r.region;
          run.op_counts[i] = counts;
          // Correctness gate (untimed): oracle probes on the first pass.
          const int64_t bad = ProbeAnswer(run, state->oracle, r.region, q_t,
                                          rho, e.l, probes_per_query, rng);
          if (bad > 0) {
            run.Fail("fr_cold query " + std::to_string(i) + ": " +
                     std::to_string(bad) + " oracle probe mismatches");
          }
        } else if (!run.op_counts[i].empty() &&
                   (!SameRegion(first_pass_regions[i], r.region) ||
                    run.op_counts[i] != counts)) {
          run.Fail("fr_cold query " + std::to_string(i) + " of pass " +
                   std::to_string(pass) +
                   " differs from the first pass in answer or work counts");
        }
        if (run.tracer.on()) {
          const auto r0 = Clock::now();
          const Region replica =
              FrReplica(run, fr, q_t, rho, e.l, /*cold=*/true, op, rs);
          replica_ms += SecondsSince(r0) * 1e3;
          if (!SameRegion(replica, r.region)) {
            run.Fail("fr_cold replica region differs at query " +
                     std::to_string(i));
          }
        }
      } catch (const std::exception& ex) {
        run.Fail(std::string("fr_cold query threw: ") + ex.what());
      }
    }
    run.NotePeakRss();
  }

  const double n = static_cast<double>(latency_ms.size());
  run.e2e["query_ms_mean"] = Mean(latency_ms);
  run.cost_cpu_ms_mean = Mean(cost_cpu_ms);
  run.cost_io_ms_mean = Mean(cost_io_ms);
  RecordIngest(run, ingest);
  run.info["queries"] = std::to_string(latency_ms.size());
  std::string pass_means;
  for (size_t p = 0; p < latency_ms.size(); p += mix.size()) {
    const std::vector<double> pass(latency_ms.begin() + p,
                                   latency_ms.begin() + p + mix.size());
    pass_means += (p ? " " : "") + std::to_string(Mean(pass));
  }
  run.info["pass_query_ms_mean"] = pass_means;

  auto& L = run.layer;
  L["core.fr_apply_us"] =
      ingest.seconds * 1e6 / static_cast<double>(ingest.updates);
  L["storage.physical_reads"] = io_sum.physical_reads / n;
  L["storage.logical_reads"] = io_sum.logical_reads / n;
  L["storage.reads_per_tree_page"] =
      static_cast<double>(io_sum.physical_reads) / static_cast<double>(pages);
  L["storage.hit_ratio"] =
      io_sum.logical_reads > 0
          ? 1.0 - static_cast<double>(io_sum.physical_reads) /
                      static_cast<double>(io_sum.logical_reads)
          : 0.0;
  if (run.tracer.on()) {
    RecordReplicaLayers(run, rs);
    const double stages = L["histogram.filter_ms"] + L["tpr.range_query_ms"] +
                          L["sweep.ms"] + L["region.coalesce_ms"];
    L["core.fr_other_ms"] = engine_cpu_ms / n - stages;
    L["trace_overhead_pct"] = 100.0 * (replica_ms / engine_ms - 1.0);
  }
}

// --- fr_monitor --------------------------------------------------------------
struct FrMonitorState {
  std::string dir;
  TripSimulator sim;
  Oracle oracle{kExtent};
  std::unique_ptr<FrEngine> fr;
  FrMonitorState(uint64_t seed, std::string d)
      : dir(std::move(d)), sim(StreamConfig(seed)) {
    fs::remove_all(dir);
    fs::create_directories(dir);
    fr = std::make_unique<FrEngine>(FrOptions(1024, dir));
  }
  ~FrMonitorState() {
    fr.reset();  // close the store before deleting its files
    std::error_code ec;
    fs::remove_all(dir, ec);
  }
  FrMonitorState(const FrMonitorState&) = delete;
  FrMonitorState& operator=(const FrMonitorState&) = delete;
};

void RunFrMonitor(Run& run) {
  const std::string base = run.args.work_dir + "/store-" +
                           std::to_string(static_cast<long>(getpid()));
  int rep = 0;
  Setup<FrMonitorState> setup(
      run, [&](SetupTimes& times, Signature& sig) {
        auto s = std::make_unique<FrMonitorState>(
            run.args.seed, base + "-" + std::to_string(rep++));
        WarmUp(s->sim, s->oracle, times,
               [&](Tick t, const std::vector<UpdateEvent>& updates) {
                 s->fr->AdvanceTo(t);
                 for (const UpdateEvent& u : updates) s->fr->Apply(u);
               });
        const auto c0 = Clock::now();
        s->fr->Checkpoint();
        times.total_s.back() += SecondsSince(c0);
        const DiskPager* disk = s->fr->index().disk();
        sig = {static_cast<int64_t>(s->fr->index().node_count()),
               static_cast<int64_t>(s->fr->index().size()),
               disk->wal_stats().bytes_appended, disk->wal_stats().records};
        return s;
      });
  auto state = setup.BuildRepeated();
  FrEngine& fr = *state->fr;
  DiskPager& disk = *fr.index().disk();
  const ExecPolicy exec = ExecPolicy::Parallel(Threads());
  fr.SetExecPolicy(exec);
  run.info["tree_pages"] = std::to_string(fr.index().node_count());
  run.info["buffer_pages"] = std::to_string(fr.options().buffer_pages);
  run.info["threads"] = std::to_string(exec.threads);

  PdrMonitor::Options mo;
  mo.rho = RhoFor(5);
  mo.l = 30.0;
  mo.lookahead = 30;
  PdrMonitor monitor(&fr, mo);
  monitor.SetExecPolicy(exec);

  std::vector<double> eval_ms, eval_traced_ms, cost_cpu_ms, cost_io_ms;
  IngestLog ingest;
  double eval_wall_s = 0.0, eval_cpu_s = 0.0;
  double apply_ms = 0.0, checkpoint_ms = 0.0, scrub_ms = 0.0;
  int64_t checkpoints = 0, scrubs = 0, scrub_pages = 0;
  int64_t logical = 0, physical = 0, evals = 0, probed_evals = 0;
  const WalStats wal0 = disk.wal_stats();
  ReplicaStats rs;
  Rng rng(run.args.seed ^ 0xC0FFEEULL);
  double timed_s = 0.0;
  Tick t = fr.now();
  int64_t op = 0;
  // Whole blocks of 8 ticks (one checkpoint, two evaluations) per pass.
  while (op == 0 || timed_s < run.args.seconds) {
    for (int k = 0; k < 8; ++k, ++op) {
      ++t;
      ++run.attempted;
      try {
        const std::vector<UpdateEvent> batch = state->sim.Advance(t);
        state->oracle.AdvanceTo(t);
        for (const UpdateEvent& u : batch) state->oracle.Apply(u);

        const WalStats wal_before = disk.wal_stats();
        const auto i0 = Clock::now();
        {
          Span span(run.tracer, "core.fr_apply", op);
          fr.AdvanceTo(t);
          for (const UpdateEvent& u : batch) fr.Apply(u);
          apply_ms += SecondsSince(i0) * 1e3;
        }
        if (t % 8 == 0) {
          const auto c0 = Clock::now();
          Span span(run.tracer, "storage.checkpoint", op);
          fr.Checkpoint();
          checkpoint_ms += SecondsSince(c0) * 1e3;
          ++checkpoints;
        }
        ScrubStats scrub;
        {
          const auto s0 = Clock::now();
          Span span(run.tracer, "storage.scrub", op);
          scrub = disk.Scrub(8);
          scrub_ms += SecondsSince(s0) * 1e3;
          ++scrubs;
        }
        const double ims = SecondsSince(i0) * 1e3;
        ingest.AddTick(batch.size(), ims);
        timed_s += ims / 1e3;
        scrub_pages += scrub.pages_scanned + scrub.pages_repaired +
                       scrub.pages_unrepairable;
        if (scrub.pages_repaired + scrub.pages_unrepairable > 0) {
          run.Fail("scrub found damaged pages at tick " + std::to_string(t));
        }
        Signature counts = {
            disk.wal_stats().bytes_appended - wal_before.bytes_appended,
            disk.wal_stats().records - wal_before.records, scrub.pages_scanned};

        if (t % 4 == 0) {
          // Traced runs alternate: odd evaluations carry spans and are
          // followed by the replica; even ones run bare, as the baseline
          // for trace_overhead_pct.
          const bool traced = run.tracer.on() && evals % 2 == 1;
          const double c0 = ProcessCpuSeconds();
          const auto e0 = Clock::now();
          PdrMonitor::Delta delta;
          if (traced) {
            Span span(run.tracer, "core.monitor_tick", op);
            delta = monitor.OnTick(t);
          } else {
            delta = monitor.OnTick(t);
          }
          const double ems = SecondsSince(e0) * 1e3;
          eval_cpu_s += ProcessCpuSeconds() - c0;
          eval_wall_s += ems / 1e3;
          timed_s += ems / 1e3;
          (traced ? eval_traced_ms : eval_ms).push_back(ems);
          cost_cpu_ms.push_back(delta.cost.cpu_ms);
          cost_io_ms.push_back(delta.cost.io_ms);
          logical += delta.cost.io.logical_reads;
          physical += delta.cost.io.physical_reads;
          ++evals;
          counts.push_back(delta.explain.objects_fetched);
          counts.push_back(delta.explain.dense_rects);
          if (traced) {
            const Region replica = FrReplica(run, fr, delta.q_t, mo.rho, mo.l,
                                             /*cold=*/false, op, rs);
            if (!SameRegion(replica, delta.current)) {
              run.Fail("fr_monitor replica region differs at tick " +
                       std::to_string(t));
            }
          }
          if (probed_evals < 8) {
            ++probed_evals;
            const int64_t bad =
                ProbeAnswer(run, state->oracle, delta.current, delta.q_t,
                            mo.rho, mo.l, kProbes / 8, rng);
            if (bad > 0) {
              run.Fail("fr_monitor tick " + std::to_string(t) + ": " +
                       std::to_string(bad) + " oracle probe mismatches");
            }
          }
        }
        run.op_counts.push_back(counts);
      } catch (const std::exception& ex) {
        run.Fail(std::string("fr_monitor tick threw: ") + ex.what());
      }
    }
    ingest.EndBlock();
    run.NotePeakRss();
    run.Calibrate();
  }

  run.e2e["query_ms_mean"] = Mean(eval_ms);
  run.cost_cpu_ms_mean = Mean(cost_cpu_ms);
  run.cost_io_ms_mean = Mean(cost_io_ms);
  RecordIngest(run, ingest);
  run.info["evaluations"] = std::to_string(evals);

  const WalStats wal1 = disk.wal_stats();
  const double ticks = static_cast<double>(ingest.tick_ms.size());
  const double updates = static_cast<double>(ingest.updates);
  auto& L = run.layer;
  L["storage.logical_reads"] = static_cast<double>(logical) / evals;
  L["storage.physical_reads"] = static_cast<double>(physical) / evals;
  L["storage.hit_ratio"] =
      logical > 0 ? 1.0 - static_cast<double>(physical) / logical : 0.0;
  L["storage.wal_bytes_per_update"] =
      static_cast<double>(wal1.bytes_appended - wal0.bytes_appended) / updates;
  L["storage.fsyncs"] = static_cast<double>(wal1.fsyncs - wal0.fsyncs) / ticks;
  L["storage.checkpoint_ms"] = checkpoint_ms / checkpoints;
  L["storage.scrub_ms"] = scrub_ms / scrubs;
  L["storage.scrub_pages"] = static_cast<double>(scrub_pages) / scrubs;
  L["parallel.cpu_per_wall"] = eval_cpu_s / eval_wall_s;
  L["core.fr_apply_us"] = apply_ms * 1e3 / static_cast<double>(updates);
  if (run.tracer.on()) {
    RecordReplicaLayers(run, rs);
    L["trace_overhead_pct"] =
        100.0 * (Median(eval_traced_ms) / Median(eval_ms) - 1.0);
  }
}

// --- approx_stream -----------------------------------------------------------
struct ApproxState {
  TripSimulator sim;
  Oracle oracle{kExtent};
  PaEngine pa;
  FftDensityEngine fft;
  static PaEngine::Options PaOpts() {
    PaEngine::Options o;
    o.extent = kExtent;
    o.poly_side = 10;
    o.degree = 5;
    o.horizon = PaperConfig{}.horizon();
    o.l = 30.0;
    o.eval_grid = PaperConfig{}.eval_grid;
    return o;
  }
  static FftDensityEngine::Options FftOpts() {
    FftDensityEngine::Options o;
    o.extent = kExtent;
    o.grid = 256;
    o.horizon = PaperConfig{}.horizon();
    return o;
  }
  explicit ApproxState(uint64_t seed)
      : sim(StreamConfig(seed)), pa(PaOpts()), fft(FftOpts()) {}
};

void RunApproxStream(Run& run) {
  Setup<ApproxState> setup(
      run, [&](SetupTimes& times, Signature& sig) {
        auto s = std::make_unique<ApproxState>(run.args.seed);
        WarmUp(s->sim, s->oracle, times,
               [&](Tick t, const std::vector<UpdateEvent>& updates) {
                 s->pa.AdvanceTo(t);
                 s->fft.AdvanceTo(t);
                 for (const UpdateEvent& u : updates) {
                   s->pa.Apply(u);
                   s->fft.Apply(u);
                 }
               });
        // One fixed serial PA query after warm-up (untimed), so every run
        // checks its branch-and-bound counts repeat across its own builds.
        const PaEngine::QueryResult probe =
            s->pa.Query(s->pa.now() + 30, RhoFor(3));
        sig = {static_cast<int64_t>(s->fft.live_objects()),
               probe.bnb.nodes_visited, probe.bnb.point_evals,
               static_cast<int64_t>(probe.region.size())};
        return s;
      });
  auto state = setup.BuildRepeated();
  PaEngine& pa = state->pa;
  FftDensityEngine& fft = state->fft;
  run.info["live_objects"] = std::to_string(fft.live_objects());

  PdrMonitor::Options mo;
  mo.rho = RhoFor(3);
  mo.l = 30.0;
  mo.lookahead = 30;
  PdrMonitor monitor(&pa, mo);

  std::vector<FftDensityEngine::BatchQuery> dashboard;
  for (double l : {30.0, 60.0})
    for (int varrho = 1; varrho <= 5; ++varrho)
      dashboard.push_back({RhoFor(varrho), l});

  std::vector<double> tick_ms, batch_ms, cost_cpu_ms, cost_io_ms;
  IngestLog ingest;
  double pa_apply_ms = 0.0, approx_stage_ms = 0.0;
  double replica_ms = 0.0, field_ms = 0.0, classify_ms = 0.0;
  int64_t batches = 0, fields_built = 0, pa_ticks = 0;
  BnbStats bnb;
  Rng rng(run.args.seed ^ 0xC0FFEEULL);
  double timed_s = 0.0;
  Tick t = pa.now();
  int64_t op = 0;
  // Whole blocks of 4 ticks (one dashboard batch) per pass.
  while (op == 0 || timed_s < run.args.seconds) {
    for (int k = 0; k < 4; ++k, ++op) {
      ++t;
      ++run.attempted;
      try {
        const std::vector<UpdateEvent> batch = state->sim.Advance(t);
        state->oracle.AdvanceTo(t);
        for (const UpdateEvent& u : batch) state->oracle.Apply(u);

        const auto i0 = Clock::now();
        {
          const auto p0 = Clock::now();
          Span span(run.tracer, "core.pa_apply", op);
          pa.AdvanceTo(t);
          for (const UpdateEvent& u : batch) pa.Apply(u);
          pa_apply_ms += SecondsSince(p0) * 1e3;
        }
        {
          Span span(run.tracer, "fft.apply", op);
          fft.AdvanceTo(t);
          for (const UpdateEvent& u : batch) fft.Apply(u);
        }
        const double ims = SecondsSince(i0) * 1e3;
        ingest.AddTick(batch.size(), ims);
        timed_s += ims / 1e3;

        PdrMonitor::Delta delta;
        const auto e0 = Clock::now();
        {
          Span span(run.tracer, "core.monitor_tick", op);
          delta = monitor.OnTick(t);
        }
        const double ems = SecondsSince(e0) * 1e3;
        tick_ms.push_back(ems);
        cost_cpu_ms.push_back(delta.cost.cpu_ms);
        cost_io_ms.push_back(delta.cost.io_ms);
        timed_s += ems / 1e3;
        ++pa_ticks;
        for (const ExplainStage& s : delta.explain.stages) {
          if (s.name == "approx") approx_stage_ms += s.spent_ms;
        }
        Signature counts = {delta.explain.bnb_nodes, delta.explain.bnb_pruned,
                            static_cast<int64_t>(delta.current.size())};
        if (run.tracer.on()) {
          // PA replica: the same query as OnTick's, called directly under a
          // span, for the branch-and-bound work counts OnTick does not
          // surface.
          PaEngine::QueryResult r;
          const auto r0 = Clock::now();
          {
            Span span(run.tracer, "cheb.bnb_query", op);
            r = pa.Query(delta.q_t, mo.rho);
          }
          replica_ms += SecondsSince(r0) * 1e3;
          bnb += r.bnb;
          if (!SameRegion(r.region, delta.current)) {
            run.Fail("approx_stream PA replica differs at tick " +
                     std::to_string(t));
          }
        }
        // PA is approximate: disagreement is measured, not a failure.
        if (run.probes < kProbes) {
          ProbeAnswer(run, state->oracle, delta.current, delta.q_t, mo.rho,
                      mo.l, 125, rng);
        }

        if (t % 4 == 0) {
          const Tick q_t = t + 30;
          std::vector<FftDensityEngine::QueryResult> results;
          const auto b0 = Clock::now();
          {
            Span span(run.tracer, "fft.query_batch", op);
            results = fft.QueryBatch(q_t, dashboard);
          }
          const double bms = SecondsSince(b0) * 1e3;
          batch_ms.push_back(bms);
          cost_cpu_ms.push_back(bms);
          cost_io_ms.push_back(0.0);
          timed_s += bms / 1e3;
          ++batches;
          for (const auto& r : results) {
            field_ms += r.field_ms;
            classify_ms += r.classify_ms;
            fields_built += r.field_cached ? 0 : 1;
            counts.push_back(r.accepted_cells);
            counts.push_back(r.candidate_cells);
          }
          if (batches <= 4) {
            // Sandwich check: accept ⊆ dense ⊆ maybe, at probes.
            for (size_t i = 0; i < results.size(); ++i) {
              const auto& r = results[i];
              const double l = dashboard[i].l;
              const int64_t n_min = MinObjectsForDensity(dashboard[i].rho, l);
              int64_t bad = 0;
              for (const Vec2& p : ProbePoints(r.maybe_region, 50, rng)) {
                const bool dense =
                    state->oracle.CountInSquare(q_t, p, l) >= n_min;
                if ((r.region.Contains(p) && !dense) ||
                    (dense && !r.maybe_region.Contains(p))) {
                  ++bad;
                }
              }
              if (bad > 0) {
                run.Fail("fft sandwich violated at tick " + std::to_string(t) +
                         " spec " + std::to_string(i));
              }
            }
          }
        }
        run.op_counts.push_back(counts);
      } catch (const std::exception& ex) {
        run.Fail(std::string("approx_stream tick threw: ") + ex.what());
      }
    }
    ingest.EndBlock();
    run.NotePeakRss();
    run.Calibrate();
  }

  run.e2e["query_ms_mean"] = Mean(tick_ms);
  run.cost_cpu_ms_mean = Mean(cost_cpu_ms);
  run.cost_io_ms_mean = Mean(cost_io_ms);
  RecordIngest(run, ingest);
  run.info["pa_ticks"] = std::to_string(pa_ticks);
  run.info["batches"] = std::to_string(batches);

  auto& L = run.layer;
  L["core.pa_apply_us"] =
      pa_apply_ms * 1e3 / static_cast<double>(ingest.updates);
  L["fft.field_ms"] = field_ms / batches;
  L["fft.classify_ms"] = classify_ms / batches;
  L["fft.fields_built"] = static_cast<double>(fields_built) / batches;
  L["fft.batch_ms"] = Median(batch_ms);
  if (run.tracer.on()) {
    const double n = static_cast<double>(pa_ticks);
    L["cheb.bnb_nodes"] = static_cast<double>(bnb.nodes_visited) / n;
    L["cheb.point_evals"] = static_cast<double>(bnb.point_evals) / n;
    L["cheb.pruned_ratio"] =
        bnb.nodes_visited > 0
            ? static_cast<double>(bnb.pruned_boxes) / bnb.nodes_visited
            : 0.0;
    L["trace_overhead_pct"] = 100.0 * (replica_ms / approx_stage_ms - 1.0);
  }
}

// --- exact-count self-check across runs ---------------------------------------
// Per-op work counts on serial paths must repeat exactly for the same seed
// and binary. The first run stores them; later runs compare the common
// prefix (how many ops fit in the time budget varies).
void CheckCountsAcrossRuns(Run& run) {
  const std::string path = run.args.work_dir + "/counts-" + run.args.workload +
                           "-" + std::to_string(run.args.seed) + "-" +
                           run.args.build_id + ".txt";
  std::vector<std::vector<int64_t>> stored;
  {
    std::ifstream in(path);
    std::string line;
    while (std::getline(in, line)) {
      std::istringstream ls(line);
      std::vector<int64_t> v;
      int64_t x = 0;
      while (ls >> x) v.push_back(x);
      stored.push_back(v);
    }
  }
  const size_t common = std::min(stored.size(), run.op_counts.size());
  size_t drifted = 0;
  for (size_t i = 0; i < common; ++i) {
    if (stored[i] != run.op_counts[i]) ++drifted;
  }
  run.info["count_check"] =
      stored.empty() ? "first run for this seed and build"
                     : std::to_string(common) + " ops compared, " +
                           std::to_string(drifted) + " drifted";
  if (drifted > 0) {
    run.Fail("work counts drifted from an earlier run on " +
             std::to_string(drifted) + " ops");
  }
  if (run.op_counts.size() > stored.size()) {
    const std::string tmp = path + ".tmp." + std::to_string(getpid());
    {
      std::ofstream out(tmp);
      for (const auto& v : run.op_counts) {
        for (size_t j = 0; j < v.size(); ++j) out << (j ? " " : "") << v[j];
        out << "\n";
      }
    }
    fs::rename(tmp, path);
  }
}

// --- output -------------------------------------------------------------------
struct MetricSpec {
  const char* name;
  const char* unit;
};

const std::vector<MetricSpec>& EndToEndSpecs() {
  static const std::vector<MetricSpec> specs = {
      {"setup_s", "s"},
      {"peak_rss_mb", "MB"},
      {"query_ms_mean", "ms"},
      {"query_cost_ms_mean", "ms"},
      {"ingest_updates_per_s", "1/s"},
      {"ingest_tick_ms_tail", "ms"},
      {"answer_agreement", "share"},
  };
  return specs;
}

const std::vector<MetricSpec>& LayerSpecs() {
  static const std::vector<MetricSpec> specs = {
      {"histogram.filter_ms", "ms"},
      {"histogram.candidate_ratio", "share"},
      {"tpr.range_query_ms", "ms"},
      {"tpr.objects_fetched", "count"},
      {"tpr.fetch_amplification", "ratio"},
      {"storage.physical_reads", "count"},
      {"storage.reads_per_tree_page", "ratio"},
      {"storage.hit_ratio", "share"},
      {"storage.logical_reads", "count"},
      {"storage.wal_bytes_per_update", "B"},
      {"storage.fsyncs", "count"},
      {"storage.scrub_ms", "ms"},
      {"storage.scrub_pages", "count"},
      {"storage.checkpoint_ms", "ms"},
      {"sweep.ms", "ms"},
      {"sweep.x_strips", "count"},
      {"sweep.y_sweeps", "count"},
      {"sweep.y_strips", "count"},
      {"sweep.dense_rects", "count"},
      {"region.coalesce_ms", "ms"},
      {"region.coalesce_ratio", "ratio"},
      {"parallel.cpu_per_wall", "ratio"},
      {"core.fr_other_ms", "ms"},
      {"core.fr_apply_us", "us"},
      {"core.pa_apply_us", "us"},
      {"cheb.bnb_nodes", "count"},
      {"cheb.point_evals", "count"},
      {"cheb.pruned_ratio", "share"},
      {"fft.field_ms", "ms"},
      {"fft.classify_ms", "ms"},
      {"fft.fields_built", "count"},
      {"fft.batch_ms", "ms"},
      {"mobility.generate_s", "s"},
      {"trace_overhead_pct", "%"},
  };
  return specs;
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

void PrintResult(Run& run) {
  const bool trace = run.args.trace;
  const auto& specs = trace ? LayerSpecs() : EndToEndSpecs();
  const auto& values = trace ? run.layer : run.e2e;

  std::ostringstream info;
  info << "{\"provenance\":{";
  bool first = true;
  for (const auto& [k, v] : run.info) {
    info << (first ? "" : ",") << JsonString(k) << ":" << JsonString(v);
    first = false;
  }
  info << "},\"failures\":[";
  for (size_t i = 0; i < run.failures.size(); ++i) {
    info << (i ? "," : "") << JsonString(run.failures[i]);
  }
  info << "]}";
  std::printf("%s\n", info.str().c_str());
  std::ofstream(run.args.work_dir + "/provenance-" + run.args.workload + "-" +
                std::to_string(run.args.seed) + "-trace" +
                (trace ? "1" : "0") + ".json")
      << info.str() << "\n";

  std::ostringstream out;
  out << "{\"correct\":" << (run.failed == 0 ? "true" : "false")
      << ",\"attempted\":" << run.attempted << ",\"failed\":" << run.failed
      << ",\"metrics\":{";
  for (size_t i = 0; i < specs.size(); ++i) {
    const auto it = values.find(specs[i].name);
    const double v = it == values.end() ? 0.0 : it->second;
    out << (i ? "," : "") << "\"" << specs[i].name
        << "\":{\"value\":" << JsonNumber(v) << ",\"unit\":\""
        << specs[i].unit << "\"}";
  }
  out << "}}";
  std::printf("%s\n", out.str().c_str());
  std::fflush(stdout);
}

Args ParseArgs(int argc, char** argv) {
  Args a;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const std::string v = argv[i + 1];
    if (k == "--workload") a.workload = v;
    else if (k == "--seed") a.seed = std::stoull(v);
    else if (k == "--seconds") a.seconds = std::stod(v);
    else if (k == "--trace") a.trace = v == "1";
    else if (k == "--work-dir") a.work_dir = v;
    else if (k == "--build-id") a.build_id = v;
    else if (k == "--git-sha") a.git_sha = v;
    else if (k == "--git-dirty") a.git_dirty = v;
    else throw std::invalid_argument("unknown flag " + k);
  }
  if (a.work_dir.empty()) throw std::invalid_argument("--work-dir is required");
  return a;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    Run run(ParseArgs(argc, argv));
    fs::create_directories(run.args.work_dir);
    auto& info = run.info;
    info["workload"] = run.args.workload;
    info["seed"] = std::to_string(run.args.seed);
    info["seconds"] = std::to_string(run.args.seconds);
    info["trace"] = run.args.trace ? "1" : "0";
    info["git_sha"] = run.args.git_sha;
    info["git_dirty"] = run.args.git_dirty;
    info["build_id"] = run.args.build_id;
    info["compiler"] = PERFBENCH_COMPILER;
    info["build_type"] = PERFBENCH_BUILD_TYPE;
    info["nproc"] = std::to_string(std::thread::hardware_concurrency());
    info["threads"] = "1";
    info["objects"] = std::to_string(kObjects);

    if (run.args.workload == "fr_cold") {
      RunFrCold(run);
    } else if (run.args.workload == "fr_monitor") {
      RunFrMonitor(run);
    } else if (run.args.workload == "approx_stream") {
      RunApproxStream(run);
    } else {
      std::fprintf(stderr, "unknown workload '%s'\n",
                   run.args.workload.c_str());
      return 2;
    }
    ScaleToReferenceHost(run);
    run.e2e["answer_agreement"] =
        static_cast<double>(run.probes_agree) / static_cast<double>(run.probes);
    CheckCountsAcrossRuns(run);
    if (run.tracer.on()) {
      run.tracer.Write(run.args.work_dir + "/spans-" + run.args.workload +
                       "-" + std::to_string(run.args.seed) + ".jsonl");
    }
    PrintResult(run);
    return 0;
  } catch (const std::exception& ex) {
    std::fprintf(stderr, "perfbench: %s\n", ex.what());
    return 1;
  }
}
