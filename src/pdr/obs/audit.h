// Shadow-audit quality observability.
//
// The PA engine trades exactness for speed (Chebyshev-truncated density
// fields, branch-and-bound over interval bounds); offline benches quantify
// the trade once, but nothing in the repo observed how wrong PA is on a
// *live* workload. This module closes that gap with three cooperating
// pieces, all built on the pdr/obs metrics registry:
//
//  * ShadowAuditor — probabilistically samples PA answers (configurable
//    rate) and replays each sampled query through the exact FR engine on
//    the same snapshot. The PA answer is scored by area overlap against
//    the exact region (precision / recall / false-accept / false-reject
//    fractions, Section 7.2's r_fp / r_fn), and the worst pointwise
//    density error over the disagreement region is probed against the
//    ground-truth oracle. Verdicts are published as registry
//    histograms/gauges and trace-span attributes.
//  * CostCalibrator — a closed-form cost model of the FR query path
//    (candidate cells, fetched objects, index page reads), predicted from
//    the density histogram plus coarse index shape only, compared after
//    each observed FR query against the measured actuals. The
//    actual/predicted ratio series makes cost-model drift (clustering,
//    cache behavior, index degradation) a first-class signal.
//  * EwmaDriftDetector — exponentially-weighted tracking of PA recall /
//    precision and the I/O calibration ratio, raising sticky flags when
//    a signal leaves its configured band.
//
// Layering note: these files live under pdr/obs/ with the rest of the
// observability layer but compile into pdr_core (they drive FrEngine and
// the Oracle, which sit above the base obs library). Nothing here touches
// PaEngine::Query itself, and every entry point early-outs on
// !PdrObs::Enabled(), so with PDR_OBS=0 in the environment the audit
// machinery does no work and the PA query path carries no added cost.

#ifndef PDR_OBS_AUDIT_H_
#define PDR_OBS_AUDIT_H_

#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "pdr/common/random.h"
#include "pdr/common/region.h"
#include "pdr/common/stats.h"
#include "pdr/core/fr_engine.h"
#include "pdr/core/oracle.h"
#include "pdr/obs/obs.h"

namespace pdr {

/// Region-level quality score of one audited PA answer against the exact
/// FR answer on the same snapshot.
struct AuditVerdict {
  Tick q_t = 0;
  double rho = 0.0;
  double l = 0.0;

  double pa_area = 0.0;       ///< area(D'), the approximate answer
  double fr_area = 0.0;       ///< area(D), the exact answer
  double overlap_area = 0.0;  ///< area(D ∩ D')

  /// Area-weighted precision = overlap / pa_area (1 when PA reports
  /// nothing).
  double precision = 1.0;
  /// Area-weighted recall = overlap / fr_area (1 when nothing is dense).
  double recall = 1.0;
  /// False-accept area fraction = area(D' \ D) / area(D) — r_fp; may
  /// exceed 1. Normalized by the domain area when the truth is empty.
  double false_accept_frac = 0.0;
  /// False-reject area fraction = area(D \ D') / area(D) — r_fn in [0, 1].
  double false_reject_frac = 0.0;

  /// Largest |approximate − exact| point density over probe points inside
  /// the disagreement region (0 when the answers agree or no oracle is
  /// wired in).
  double max_density_err = 0.0;
  int density_probes = 0;

  double fr_replay_ms = 0.0;  ///< total cost of the shadow FR query
  int64_t fr_io_reads = 0;    ///< physical page reads of the replay

  /// True when the two answers coincide up to `eps` symmetric-difference
  /// area.
  bool Agrees(double eps = 1e-6) const {
    return pa_area + fr_area - 2.0 * overlap_area <= eps;
  }
};

class CostCalibrator;

/// Samples live PA queries and replays them through exact FR; see the
/// file comment. Not thread-safe (one auditor per monitoring loop).
class ShadowAuditor {
 public:
  struct Options {
    double sample_rate = 0.1;  ///< fraction of offered queries audited
    double l = 30.0;           ///< neighborhood edge (must match PA's l)
    uint64_t seed = 0x5eedda7aULL;  ///< sampling stream seed
    int probe_grid = 4;   ///< density probes per disagreement rect (grid²)
    int max_probes = 512; ///< per-verdict probe budget
  };

  /// Audits against `fr`, which must be fed the same update stream as the
  /// audited PA engine (not owned). `oracle` may be null; when present it
  /// supplies exact point densities for the error probes.
  ShadowAuditor(FrEngine* fr, const Oracle* oracle, const Options& options)
      : fr_(fr), oracle_(oracle), options_(options), rng_(options.seed) {}

  /// Wires a cost calibrator: every shadow FR replay is then predicted
  /// before it runs and the prediction scored against the actuals.
  void SetCalibrator(CostCalibrator* calibrator) { calibrator_ = calibrator; }

  /// Wires the audited engine's point-density evaluator (for PA:
  /// `[&pa](Tick t, Vec2 p) { return pa.Density(t, p); }`). Without it —
  /// or without an oracle — verdicts skip the pointwise error probes and
  /// report max_density_err = 0.
  void SetApproxDensityProbe(std::function<double(Tick, Vec2)> probe) {
    approx_density_ = std::move(probe);
  }

  /// Rolls the sampling dice. Always false when observability is off —
  /// the compiled-out configuration reduces the whole audit path to this
  /// constant-false branch.
  bool ShouldSample() {
    if (!PdrObs::Enabled()) return false;
    offered_.Increment();
    return rng_.Bernoulli(options_.sample_rate);
  }

  /// Samples-and-audits: returns a verdict for ~sample_rate of the calls.
  std::optional<AuditVerdict> MaybeAudit(Tick q_t, double rho,
                                         const Region& pa_region);

  /// Unconditional audit of one PA answer.
  AuditVerdict Audit(Tick q_t, double rho, const Region& pa_region);

  int64_t audited() const { return audited_; }
  const Options& options() const { return options_; }

 private:
  /// Worst pointwise |PA − oracle| density over the disagreement region.
  void ProbeDensityError(Tick q_t, const Region& pa_region,
                         const Region& fr_region, AuditVerdict* verdict);
  void Publish(const AuditVerdict& verdict);

  FrEngine* fr_;
  const Oracle* oracle_;
  Options options_;
  Rng rng_;
  CostCalibrator* calibrator_ = nullptr;
  std::function<double(Tick, Vec2)> approx_density_;
  Counter& offered_ = MetricsRegistry::Global().GetCounter(
      "pdr.audit.offered");
  int64_t audited_ = 0;
};

/// Closed-form prediction of one FR query's work. Derived from the
/// density histogram and coarse index shape only — no index traversal —
/// so a prediction is O(m²) and can run before every query.
struct CostPrediction {
  double accepted_cells = 0.0;
  double rejected_cells = 0.0;
  double candidate_cells = 0.0;
  double objects_fetched = 0.0;  ///< objects in the candidate windows' union
  double io_reads = 0.0;  ///< predicted index page touches (logical reads)
  double io_ms = 0.0;     ///< cold-cache bound: io_reads at the I/O rate
};

/// Predicts FR filtering/refinement cost and scores the predictions
/// against measured actuals (see file comment). Model: the filter's own
/// conservative/expansive block sums classify each cell, with the
/// candidate band widened by a Poisson slack z·sqrt(count) absorbing the
/// motion the histogram slice cannot resolve; refinement is one index
/// scan per query, whose cost is the object count of the cells within
/// l/2 of a candidate window divided by the index's average entries per
/// page, plus one page per internal level, capped at the tree's size.
/// The I/O ratio compares logical page touches — cache behavior is
/// deliberately outside the model, so a hit-rate collapse shows up as
/// physical cost without moving the ratio.
class CostCalibrator {
 public:
  struct Options {
    /// Poisson slack multiplier: cells whose estimated l-square count is
    /// within z·sqrt(count) of the threshold are predicted candidates.
    double z = 2.0;
    double ewma_alpha = 0.3;  ///< smoothing of the published ratio gauges
  };

  explicit CostCalibrator(const FrEngine* fr) : CostCalibrator(fr, Options()) {}
  CostCalibrator(const FrEngine* fr, const Options& options)
      : fr_(fr), options_(options) {}

  /// Histogram-only prediction for query (rho, l) at tick q_t (which must
  /// lie inside the histogram's horizon).
  CostPrediction Predict(Tick q_t, double rho, double l) const;

  /// Scores one measured FR query against its prediction, publishing the
  /// actual/predicted ratio series (histograms + EWMA gauges).
  void Observe(const CostPrediction& prediction,
               const FrEngine::QueryResult& actual);

  int64_t observations() const { return observations_; }
  double candidate_ratio_ewma() const { return candidate_ewma_; }
  double io_ratio_ewma() const { return io_ewma_; }
  const Options& options() const { return options_; }

 private:
  double Smooth(double ewma, double sample) const {
    return observations_ <= 1
               ? sample
               : ewma + options_.ewma_alpha * (sample - ewma);
  }

  const FrEngine* fr_;
  Options options_;
  int64_t observations_ = 0;
  double candidate_ewma_ = 1.0;
  double io_ewma_ = 1.0;
};

/// Exponentially-weighted drift tracking over the audit quality and
/// cost-calibration signals. Flags are sticky: once a signal leaves its
/// band the detector stays drifted until Reset().
class EwmaDriftDetector {
 public:
  struct Options {
    double alpha = 0.3;        ///< EWMA smoothing factor
    double min_recall = 0.9;   ///< drift when recall EWMA falls below
    double min_precision = 0.5;///< drift when precision EWMA falls below
    double io_ratio_lo = 0.05; ///< drift when I/O ratio EWMA leaves
    double io_ratio_hi = 20.0; ///<   [io_ratio_lo, io_ratio_hi]
    int warmup = 3;  ///< samples per signal before its flag may raise
  };

  /// One tripped threshold (reported once, when the signal first leaves
  /// its band).
  struct Event {
    Tick tick = 0;
    const char* signal = "";  ///< "recall" | "precision" | "io_ratio"
    double value = 0.0;       ///< the EWMA that tripped
    double threshold = 0.0;   ///< the band edge it crossed
  };

  EwmaDriftDetector() : EwmaDriftDetector(Options()) {}
  explicit EwmaDriftDetector(const Options& options) : options_(options) {}

  /// Feeds one audited quality sample; returns true when a flag newly
  /// raised.
  bool ObserveQuality(Tick tick, double precision, double recall);

  /// Feeds one actual/predicted I/O ratio; returns true when the flag
  /// newly raised.
  bool ObserveIoRatio(Tick tick, double ratio);

  bool drifted() const {
    return recall_drifted_ || precision_drifted_ || io_drifted_;
  }
  bool recall_drifted() const { return recall_drifted_; }
  bool precision_drifted() const { return precision_drifted_; }
  bool io_drifted() const { return io_drifted_; }

  double recall_ewma() const { return recall_ewma_; }
  double precision_ewma() const { return precision_ewma_; }
  double io_ratio_ewma() const { return io_ewma_; }

  const std::vector<Event>& events() const { return events_; }
  const Options& options() const { return options_; }

  void Reset();

 private:
  static double Smooth(double ewma, double sample, double alpha, int n) {
    return n <= 1 ? sample : ewma + alpha * (sample - ewma);
  }
  void PublishGauges() const;

  Options options_;
  int quality_samples_ = 0;
  int io_samples_ = 0;
  double recall_ewma_ = 1.0;
  double precision_ewma_ = 1.0;
  double io_ewma_ = 1.0;
  bool recall_drifted_ = false;
  bool precision_drifted_ = false;
  bool io_drifted_ = false;
  std::vector<Event> events_;
};

}  // namespace pdr

#endif  // PDR_OBS_AUDIT_H_
