#include "pdr/obs/audit.h"

#include <algorithm>
#include <cmath>

#include "pdr/core/metrics.h"
#include "pdr/histogram/filter.h"
#include "pdr/obs/flight_recorder.h"

namespace pdr {
namespace {

struct AuditMetrics {
  Counter& sampled;
  Counter& disagreements;
  Histogram& precision;
  Histogram& recall;
  Histogram& false_accept;
  Histogram& false_reject;
  Histogram& density_err;
  Histogram& replay_ms;
  Gauge& last_precision;
  Gauge& last_recall;

  static AuditMetrics& Get() {
    MetricsRegistry& reg = MetricsRegistry::Global();
    static AuditMetrics m{
        reg.GetCounter("pdr.audit.sampled"),
        reg.GetCounter("pdr.audit.disagreements"),
        reg.GetHistogram("pdr.audit.precision"),
        reg.GetHistogram("pdr.audit.recall"),
        reg.GetHistogram("pdr.audit.false_accept_frac"),
        reg.GetHistogram("pdr.audit.false_reject_frac"),
        reg.GetHistogram("pdr.audit.max_density_err"),
        reg.GetHistogram("pdr.audit.fr_replay_ms"),
        reg.GetGauge("pdr.audit.last_precision"),
        reg.GetGauge("pdr.audit.last_recall"),
    };
    return m;
  }
};

struct CalibMetrics {
  Counter& observations;
  Histogram& candidate_ratio;
  Histogram& objects_ratio;
  Histogram& io_ratio;
  Gauge& candidate_ewma;
  Gauge& io_ewma;

  static CalibMetrics& Get() {
    MetricsRegistry& reg = MetricsRegistry::Global();
    static CalibMetrics m{
        reg.GetCounter("pdr.calib.observations"),
        reg.GetHistogram("pdr.calib.candidate_ratio"),
        reg.GetHistogram("pdr.calib.objects_ratio"),
        reg.GetHistogram("pdr.calib.io_ratio"),
        reg.GetGauge("pdr.calib.candidate_ratio_ewma"),
        reg.GetGauge("pdr.calib.io_ratio_ewma"),
    };
    return m;
  }
};

/// actual/predicted with both sides floored at 1 so empty-prediction and
/// empty-actual queries produce a finite, comparable ratio.
double GuardedRatio(double actual, double predicted) {
  return std::max(actual, 1.0) / std::max(predicted, 1.0);
}

}  // namespace

// ---------------------------------------------------------------------------
// ShadowAuditor

std::optional<AuditVerdict> ShadowAuditor::MaybeAudit(
    Tick q_t, double rho, const Region& pa_region) {
  if (!ShouldSample()) return std::nullopt;
  return Audit(q_t, rho, pa_region);
}

AuditVerdict ShadowAuditor::Audit(Tick q_t, double rho,
                                  const Region& pa_region) {
  TraceSpan span("audit.shadow");
  AuditVerdict verdict;
  verdict.q_t = q_t;
  verdict.rho = rho;
  verdict.l = options_.l;

  CostPrediction prediction;
  if (calibrator_ != nullptr) {
    prediction = calibrator_->Predict(q_t, rho, options_.l);
  }

  Timer timer;
  const FrEngine::QueryResult exact = fr_->Query(q_t, rho, options_.l);
  verdict.fr_replay_ms = timer.ElapsedMillis();
  verdict.fr_io_reads = exact.cost.io.physical_reads;

  if (calibrator_ != nullptr) calibrator_->Observe(prediction, exact);

  const double domain_edge = fr_->options().extent;
  const AccuracyMetrics acc =
      CompareRegions(exact.region, pa_region, domain_edge * domain_edge);
  verdict.fr_area = acc.truth_area;
  verdict.pa_area = acc.reported_area;
  verdict.overlap_area = acc.overlap_area;
  verdict.precision =
      verdict.pa_area > 0 ? verdict.overlap_area / verdict.pa_area : 1.0;
  verdict.recall =
      verdict.fr_area > 0 ? verdict.overlap_area / verdict.fr_area : 1.0;
  verdict.false_accept_frac = acc.false_positive_ratio;
  verdict.false_reject_frac = acc.false_negative_ratio;

  if (oracle_ != nullptr && approx_density_ && !verdict.Agrees()) {
    ProbeDensityError(q_t, pa_region, exact.region, &verdict);
  }

  ++audited_;
  Publish(verdict);

  if (span.active()) {
    span.SetAttr("q_t", static_cast<int64_t>(q_t));
    span.SetAttr("rho", rho);
    span.SetAttr("precision", verdict.precision);
    span.SetAttr("recall", verdict.recall);
    span.SetAttr("false_accept_frac", verdict.false_accept_frac);
    span.SetAttr("false_reject_frac", verdict.false_reject_frac);
    span.SetAttr("max_density_err", verdict.max_density_err);
    span.SetAttr("fr_replay_ms", verdict.fr_replay_ms);
    span.SetAttr("fr_io_reads", verdict.fr_io_reads);
  }
  return verdict;
}

void ShadowAuditor::ProbeDensityError(Tick q_t, const Region& pa_region,
                                      const Region& fr_region,
                                      AuditVerdict* verdict) {
  // Disagreement cells: where exactly one of the two answers claims
  // density. Probe a small lattice inside each rectangle of both
  // differences; the worst |PA − oracle| gap there is the pointwise error
  // the area metrics cannot see.
  const Region false_rejects = RegionDifference(fr_region, pa_region);
  const Region false_accepts = RegionDifference(pa_region, fr_region);
  const int g = std::max(1, options_.probe_grid);
  int budget = std::max(1, options_.max_probes);
  double worst = 0.0;
  int probes = 0;
  for (const Region* diff : {&false_rejects, &false_accepts}) {
    for (const Rect& r : diff->rects()) {
      for (int iy = 0; iy < g && budget > 0; ++iy) {
        for (int ix = 0; ix < g && budget > 0; ++ix) {
          const Vec2 p{r.x_lo + (ix + 0.5) * r.Width() / g,
                       r.y_lo + (iy + 0.5) * r.Height() / g};
          const double exact = oracle_->PointDensity(q_t, p, options_.l);
          const double approx = approx_density_(q_t, p);
          worst = std::max(worst, std::fabs(approx - exact));
          ++probes;
          --budget;
        }
      }
    }
  }
  verdict->max_density_err = worst;
  verdict->density_probes = probes;
}

void ShadowAuditor::Publish(const AuditVerdict& verdict) {
  AuditMetrics& m = AuditMetrics::Get();
  m.sampled.Increment();
  if (!verdict.Agrees()) m.disagreements.Increment();
  m.precision.Observe(verdict.precision);
  m.recall.Observe(verdict.recall);
  m.false_accept.Observe(verdict.false_accept_frac);
  m.false_reject.Observe(verdict.false_reject_frac);
  m.density_err.Observe(verdict.max_density_err);
  m.replay_ms.Observe(verdict.fr_replay_ms);
  m.last_precision.Set(verdict.precision);
  m.last_recall.Set(verdict.recall);
}

// ---------------------------------------------------------------------------
// CostCalibrator

CostPrediction CostCalibrator::Predict(Tick q_t, double rho,
                                       double l) const {
  CostPrediction pred;
  const DensityHistogram& dh = fr_->histogram();
  const Grid& grid = dh.grid();
  const std::vector<DensityHistogram::Counter>& slice = dh.Slice(q_t);
  const int m = grid.cells_per_side();
  const double cell_edge = grid.cell_edge();
  const double n_min = static_cast<double>(MinObjectsForDensity(rho, l));
  // The prediction mirrors the filter's neighborhood structure
  // (conservative / expansive block sums), then widens the candidate band
  // by a Poisson slack z·sqrt(count) on each bound: cells whose histogram
  // counts sit that close to the threshold can flip class under the
  // object motion the slice cannot resolve. z = 0 reproduces the filter's
  // classification exactly.
  const int cons_hw = ConservativeHalfWidth(l, cell_edge);
  const int exp_hw = ExpansiveHalfWidth(l, cell_edge);

  // Inclusive 2-D prefix sums over the slice (same trick as FilterCells).
  std::vector<double> ps(static_cast<size_t>(m + 1) * (m + 1), 0.0);
  for (int r = 0; r < m; ++r) {
    for (int c = 0; c < m; ++c) {
      ps[static_cast<size_t>(r + 1) * (m + 1) + (c + 1)] =
          static_cast<double>(slice[grid.FlatIndex(c, r)]) +
          ps[static_cast<size_t>(r) * (m + 1) + (c + 1)] +
          ps[static_cast<size_t>(r + 1) * (m + 1) + c] -
          ps[static_cast<size_t>(r) * (m + 1) + c];
    }
  }
  const auto block_sum = [&ps, m](int c, int r, int hw) {
    const int c0 = std::max(0, c - hw), c1 = std::min(m - 1, c + hw);
    const int r0 = std::max(0, r - hw), r1 = std::min(m - 1, r + hw);
    return ps[static_cast<size_t>(r1 + 1) * (m + 1) + (c1 + 1)] -
           ps[static_cast<size_t>(r0) * (m + 1) + (c1 + 1)] -
           ps[static_cast<size_t>(r1 + 1) * (m + 1) + c0] +
           ps[static_cast<size_t>(r0) * (m + 1) + c0];
  };

  // The refinement step scans the index once per query, entering the
  // nodes that meet some candidate window, so its page touches follow the
  // objects near the union of those windows: the cells within l/2 of a
  // candidate window, each counted once. Its fetched objects are the
  // objects inside that union: the cells of some candidate's expansive
  // block, each counted once.
  const int scan_hw = ExpansiveHalfWidth(2.0 * l, cell_edge);
  std::vector<char> scanned(static_cast<size_t>(m) * m, 0);
  std::vector<char> windowed(static_cast<size_t>(m) * m, 0);
  const auto mark = [&grid, m](std::vector<char>& mask, int c, int r,
                               int hw) {
    for (int rr = std::max(0, r - hw); rr <= std::min(m - 1, r + hw); ++rr) {
      for (int cc = std::max(0, c - hw); cc <= std::min(m - 1, c + hw);
           ++cc) {
        mask[static_cast<size_t>(grid.FlatIndex(cc, rr))] = 1;
      }
    }
  };
  for (int r = 0; r < m; ++r) {
    for (int c = 0; c < m; ++c) {
      const double cons = cons_hw >= 0 ? block_sum(c, r, cons_hw) : 0.0;
      const double expn = block_sum(c, r, exp_hw);
      if (cons - options_.z * std::sqrt(cons + 1.0) >= n_min) {
        pred.accepted_cells += 1.0;
      } else if (expn + options_.z * std::sqrt(expn + 1.0) < n_min) {
        pred.rejected_cells += 1.0;
      } else {
        pred.candidate_cells += 1.0;
        mark(windowed, c, r, exp_hw);
        mark(scanned, c, r, scan_hw);
      }
    }
  }
  if (pred.candidate_cells > 0) {
    // Coarse index shape: those objects' leaves at the average entries
    // per allocated page, plus one page per internal level, and never
    // more than the whole tree.
    const TprTree& index = fr_->index();
    const double entries_per_page =
        index.node_count() > 0
            ? std::max(1.0, static_cast<double>(index.size()) /
                                static_cast<double>(index.node_count()))
            : 1.0;
    double near_objects = 0.0;
    for (size_t k = 0; k < scanned.size(); ++k) {
      if (scanned[k]) near_objects += static_cast<double>(slice[k]);
      if (windowed[k]) pred.objects_fetched += static_cast<double>(slice[k]);
    }
    pred.io_reads =
        std::min(static_cast<double>(index.node_count()),
                 near_objects / entries_per_page + (index.height() - 1));
  }
  // Charged at the physical rate, this is the cold-cache bound; the
  // calibration ratio itself compares logical page touches (cache state
  // is the FR engine's business, not the model's).
  pred.io_ms = pred.io_reads * fr_->options().io_ms;
  return pred;
}

void CostCalibrator::Observe(const CostPrediction& prediction,
                             const FrEngine::QueryResult& actual) {
  if (!PdrObs::Enabled()) return;
  ++observations_;
  const double candidate_ratio = GuardedRatio(
      static_cast<double>(actual.candidate_cells), prediction.candidate_cells);
  const double objects_ratio = GuardedRatio(
      static_cast<double>(actual.objects_fetched), prediction.objects_fetched);
  const double io_ratio = GuardedRatio(
      static_cast<double>(actual.cost.io.logical_reads), prediction.io_reads);
  candidate_ewma_ = Smooth(candidate_ewma_, candidate_ratio);
  io_ewma_ = Smooth(io_ewma_, io_ratio);

  CalibMetrics& m = CalibMetrics::Get();
  m.observations.Increment();
  m.candidate_ratio.Observe(candidate_ratio);
  m.objects_ratio.Observe(objects_ratio);
  m.io_ratio.Observe(io_ratio);
  m.candidate_ewma.Set(candidate_ewma_);
  m.io_ewma.Set(io_ewma_);
}

// ---------------------------------------------------------------------------
// EwmaDriftDetector

bool EwmaDriftDetector::ObserveQuality(Tick tick, double precision,
                                       double recall) {
  ++quality_samples_;
  recall_ewma_ =
      Smooth(recall_ewma_, recall, options_.alpha, quality_samples_);
  precision_ewma_ =
      Smooth(precision_ewma_, precision, options_.alpha, quality_samples_);
  bool raised = false;
  if (quality_samples_ >= options_.warmup) {
    if (!recall_drifted_ && recall_ewma_ < options_.min_recall) {
      recall_drifted_ = true;
      events_.push_back({tick, "recall", recall_ewma_, options_.min_recall});
      raised = true;
    }
    if (!precision_drifted_ && precision_ewma_ < options_.min_precision) {
      precision_drifted_ = true;
      events_.push_back(
          {tick, "precision", precision_ewma_, options_.min_precision});
      raised = true;
    }
  }
  if (raised) {
    // Preserve the event window around the drift before it scrolls away.
    FlightRecorder::Global().TriggerDump(FlightRecorder::kOnDrift,
                                         "drift_quality");
  }
  PublishGauges();
  return raised;
}

bool EwmaDriftDetector::ObserveIoRatio(Tick tick, double ratio) {
  ++io_samples_;
  io_ewma_ = Smooth(io_ewma_, ratio, options_.alpha, io_samples_);
  bool raised = false;
  if (io_samples_ >= options_.warmup && !io_drifted_) {
    if (io_ewma_ < options_.io_ratio_lo) {
      io_drifted_ = true;
      events_.push_back({tick, "io_ratio", io_ewma_, options_.io_ratio_lo});
      raised = true;
    } else if (io_ewma_ > options_.io_ratio_hi) {
      io_drifted_ = true;
      events_.push_back({tick, "io_ratio", io_ewma_, options_.io_ratio_hi});
      raised = true;
    }
  }
  if (raised) {
    FlightRecorder::Global().TriggerDump(FlightRecorder::kOnDrift,
                                         "drift_io");
  }
  PublishGauges();
  return raised;
}

void EwmaDriftDetector::PublishGauges() const {
  if (!PdrObs::Enabled()) return;
  MetricsRegistry& reg = MetricsRegistry::Global();
  static Gauge& recall_g = reg.GetGauge("pdr.drift.recall_ewma");
  static Gauge& precision_g = reg.GetGauge("pdr.drift.precision_ewma");
  static Gauge& io_g = reg.GetGauge("pdr.drift.io_ratio_ewma");
  static Gauge& flag_g = reg.GetGauge("pdr.drift.flagged");
  recall_g.Set(recall_ewma_);
  precision_g.Set(precision_ewma_);
  io_g.Set(io_ewma_);
  flag_g.Set(drifted() ? 1.0 : 0.0);
}

void EwmaDriftDetector::Reset() {
  quality_samples_ = 0;
  io_samples_ = 0;
  recall_ewma_ = 1.0;
  precision_ewma_ = 1.0;
  io_ewma_ = 1.0;
  recall_drifted_ = false;
  precision_drifted_ = false;
  io_drifted_ = false;
  events_.clear();
}

}  // namespace pdr
