#include "pdr/resilience/executor.h"

#include <cstring>
#include <utility>

#include "pdr/core/fr_engine.h"
#include "pdr/core/pa_engine.h"
#include "pdr/fft/fft_engine.h"
#include "pdr/histogram/filter.h"
#include "pdr/common/errors.h"
#include "pdr/obs/flight_recorder.h"
#include "pdr/obs/obs.h"
#include "pdr/storage/fault_injector.h"

namespace pdr {
namespace {

struct ResilienceMetrics {
  Counter& queries;
  Counter& deadline_expired;
  Counter& tier_exact;
  Counter& tier_fft;
  Counter& tier_approx;
  Counter& tier_histogram;
  Histogram& elapsed_ms;
  // Labeled downgrade-reason counters: the SLO monitor reads these to
  // tell overload (deadline) apart from storage trouble (transient,
  // corruption).
  Counter& reason_deadline;
  Counter& reason_transient;
  Counter& reason_disabled;
  Counter& reason_corruption;

  static ResilienceMetrics& Get() {
    static ResilienceMetrics m{
        MetricsRegistry::Global().GetCounter("pdr.resilience.queries"),
        MetricsRegistry::Global().GetCounter(
            "pdr.resilience.deadline_expired"),
        MetricsRegistry::Global().GetCounter("pdr.resilience.tier_exact"),
        MetricsRegistry::Global().GetCounter("pdr.resilience.tier_fft"),
        MetricsRegistry::Global().GetCounter("pdr.resilience.tier_approx"),
        MetricsRegistry::Global().GetCounter(
            "pdr.resilience.tier_histogram"),
        MetricsRegistry::Global().GetHistogram("pdr.resilience.elapsed_ms"),
        MetricsRegistry::Global().GetCounter(WithLabel(
            "pdr.resilience.downgrade_reason", "reason", "deadline")),
        MetricsRegistry::Global().GetCounter(WithLabel(
            "pdr.resilience.downgrade_reason", "reason", "transient")),
        MetricsRegistry::Global().GetCounter(WithLabel(
            "pdr.resilience.downgrade_reason", "reason", "disabled")),
        MetricsRegistry::Global().GetCounter(WithLabel(
            "pdr.resilience.downgrade_reason", "reason", "corruption")),
    };
    return m;
  }
};

void Publish(const TieredResult& result) {
  ResilienceMetrics& m = ResilienceMetrics::Get();
  m.queries.Increment();
  if (result.timed_out) m.deadline_expired.Increment();
  switch (result.tier) {
    case AnswerTier::kExact:
      m.tier_exact.Increment();
      break;
    case AnswerTier::kFft:
      m.tier_fft.Increment();
      break;
    case AnswerTier::kApprox:
      m.tier_approx.Increment();
      break;
    case AnswerTier::kHistogram:
      m.tier_histogram.Increment();
      break;
    case AnswerTier::kShed:
      break;  // stamped by admission-control callers, not the ladder
  }
  switch (result.downgrade_reason) {
    case DowngradeReason::kDeadline:
      m.reason_deadline.Increment();
      break;
    case DowngradeReason::kTransient:
      m.reason_transient.Increment();
      break;
    case DowngradeReason::kDisabled:
      m.reason_disabled.Increment();
      break;
    case DowngradeReason::kCorruption:
      m.reason_corruption.Increment();
      break;
    case DowngradeReason::kNone:
    case DowngradeReason::kShed:  // counted by the shedding caller
      break;
  }
  m.elapsed_ms.Observe(result.elapsed_ms);
}

}  // namespace

const char* AnswerTierName(AnswerTier tier) {
  switch (tier) {
    case AnswerTier::kExact:
      return "exact";
    case AnswerTier::kApprox:
      return "approx";
    case AnswerTier::kHistogram:
      return "histogram";
    case AnswerTier::kShed:
      return "shed";
    case AnswerTier::kFft:
      return "fft";
  }
  return "?";
}

const char* DowngradeReasonName(DowngradeReason reason) {
  switch (reason) {
    case DowngradeReason::kNone:
      return "none";
    case DowngradeReason::kDeadline:
      return "deadline";
    case DowngradeReason::kShed:
      return "shed";
    case DowngradeReason::kTransient:
      return "transient";
    case DowngradeReason::kDisabled:
      return "disabled";
    case DowngradeReason::kCorruption:
      return "corruption";
  }
  return "?";
}

TieredResult ResilientExecutor::Query(Tick q_t, double rho, double l,
                                      const CancelToken* token) {
  TraceSpan span("resilience.query");
  Timer timer;
  TieredResult out;
  out.budget_ms = options_.deadline_ms > 0.0 ? options_.deadline_ms : 0.0;

  // One query id for the whole ladder: every rung's micro-events (and the
  // pool tasks they fan out to) carry it, so an incident dump filters to
  // this query across threads and tiers.
  const uint32_t qid =
      FlightRecorder::Enabled() ? FlightRecorder::NextQueryId() : 0;
  FlightRecorder::QueryScope fr_scope(qid);

  ExplainRecord& explain = out.explain;
  explain.query_id = qid;
  explain.q_t = q_t;
  explain.rho = rho;
  explain.l = l;
  explain.budget_ms = out.budget_ms;

  // One control for the whole ladder: every rung shares the query's
  // budget, so an exact attempt that burns it cannot be recovered by an
  // equally slow approximate attempt — only the bounded histogram floor
  // runs unconditionally.
  QueryControl ctl;
  ctl.token = token;
  if (options_.deadline_ms > 0.0) {
    ctl.deadline = Deadline::After(options_.deadline_ms);
  }

  const auto finish = [&](TieredResult* result) -> TieredResult {
    result->elapsed_ms = timer.ElapsedMillis();
    ExplainRecord& ex = result->explain;
    ex.tier = result->tier;
    ex.downgrade_reason = result->downgrade_reason;
    ex.timed_out = result->timed_out;
    ex.elapsed_ms = result->elapsed_ms;
    Publish(*result);
    if (result->timed_out) {
      FlightRecorder::Global().TriggerDump(FlightRecorder::kOnDeadlineMiss,
                                           "deadline_miss", qid);
    }
    if (span.active()) {
      span.SetAttr("tier", static_cast<int64_t>(result->tier));
      span.SetAttr("reason",
                   static_cast<int64_t>(result->downgrade_reason));
      span.SetAttr("timed_out", static_cast<int64_t>(result->timed_out));
      span.SetAttr("elapsed_ms", result->elapsed_ms);
      span.SetAttr("budget_ms", result->budget_ms);
    }
    return std::move(*result);
  };

  if (options_.enable_exact) {
    FlightRecorder::Record(FrEvent::kTierEnter,
                           static_cast<int64_t>(AnswerTier::kExact),
                           static_cast<int64_t>(out.downgrade_reason));
    const double exact_start_ms = timer.ElapsedMillis();
    try {
      FrEngine::QueryResult exact =
          fr_->Query(q_t, rho, l, /*cold_cache=*/false, ctl);
      exact.FillExplain(&explain);  // reads the region: before the move
      out.region = std::move(exact.region);
      out.cost = exact.cost;
      out.tier = AnswerTier::kExact;
      return finish(&out);
    } catch (const CancelledError&) {
      out.timed_out = true;
      out.downgrade_reason = DowngradeReason::kDeadline;
      explain.stages.push_back(
          {"exact", timer.ElapsedMillis() - exact_start_ms, false});
      FlightRecorder::Record(
          FrEvent::kCancelled, static_cast<int64_t>(AnswerTier::kExact),
          static_cast<int64_t>(timer.ElapsedMillis() * 1000.0));
      if (!options_.degrade) throw;
    } catch (const TransientExhaustedError&) {
      // Storage kept failing past the retry budget. The histogram floor
      // (and the PA rung) are in-memory, so the ladder can still answer —
      // degrade and label the cause so operators see "storage", not
      // "overload".
      out.downgrade_reason = DowngradeReason::kTransient;
      explain.stages.push_back(
          {"exact", timer.ElapsedMillis() - exact_start_ms, false});
      if (!options_.degrade) throw;
    } catch (const CorruptionError&) {
      // A page with no healthy copy surfaced mid-query. Answering exactly
      // from damaged bytes would be a silent wrong answer — the one
      // outcome this system must never produce — so fall to the
      // in-memory rungs, which never touch the damaged store, and label
      // the downgrade so operators see "corruption", not "overload".
      // (Detection already fired the kOnCorruption flight dump.)
      out.downgrade_reason = DowngradeReason::kCorruption;
      explain.stages.push_back(
          {"exact", timer.ElapsedMillis() - exact_start_ms, false});
      if (!options_.degrade) throw;
    }
  } else if (out.downgrade_reason == DowngradeReason::kNone) {
    out.downgrade_reason = DowngradeReason::kDisabled;
  }

  // The FFT rung: one whole-plane transform yields a certain/maybe cell
  // sandwich around the exact answer at the raster's resolution — far
  // tighter than the histogram floor and amortized across every query on
  // the same q_t. Any l is fine (kernel spectra are per-l), but q_t must
  // lie inside the engine's own horizon.
  if (options_.enable_fft && fft_ != nullptr && q_t >= fft_->now() &&
      q_t <= fft_->now() + fft_->options().horizon) {
    FlightRecorder::Record(FrEvent::kTierEnter,
                           static_cast<int64_t>(AnswerTier::kFft),
                           static_cast<int64_t>(out.downgrade_reason));
    const double fft_start_ms = timer.ElapsedMillis();
    try {
      FftDensityEngine::QueryResult fft =
          fft_->Query(q_t, rho, l, ctl);
      out.region = std::move(fft.region);
      out.maybe_region = std::move(fft.maybe_region);
      out.cost = CostBreakdown{};
      out.cost.cpu_ms = fft.field_ms + fft.classify_ms;
      out.tier = AnswerTier::kFft;
      explain.stages.push_back(
          {"fft", timer.ElapsedMillis() - fft_start_ms, true});
      explain.accepted_cells = fft.accepted_cells;
      explain.rejected_cells = fft.rejected_cells;
      explain.candidate_cells = fft.candidate_cells;
      return finish(&out);
    } catch (const CancelledError&) {
      out.timed_out = true;
      if (out.downgrade_reason == DowngradeReason::kNone ||
          out.downgrade_reason == DowngradeReason::kDisabled) {
        out.downgrade_reason = DowngradeReason::kDeadline;
      }
      explain.stages.push_back(
          {"fft", timer.ElapsedMillis() - fft_start_ms, false});
      FlightRecorder::Record(
          FrEvent::kCancelled, static_cast<int64_t>(AnswerTier::kFft),
          static_cast<int64_t>(timer.ElapsedMillis() * 1000.0));
      if (!options_.degrade) throw;
    }
  }

  // The approximate rung is sound only for the PA engine's own fixed l
  // (Section 6) and only inside its horizon; otherwise fall straight
  // through to the histogram floor.
  if (options_.enable_approx && fallback_ != nullptr &&
      fallback_->options().l == l && q_t >= fallback_->now() &&
      q_t <= fallback_->now() + fallback_->options().horizon) {
    FlightRecorder::Record(FrEvent::kTierEnter,
                           static_cast<int64_t>(AnswerTier::kApprox),
                           static_cast<int64_t>(out.downgrade_reason));
    const double approx_start_ms = timer.ElapsedMillis();
    try {
      PaEngine::QueryResult approx = fallback_->Query(q_t, rho, ctl);
      out.region = std::move(approx.region);
      out.cost = approx.cost;
      out.tier = AnswerTier::kApprox;
      approx.FillExplain(&explain, timer.ElapsedMillis() - approx_start_ms);
      return finish(&out);
    } catch (const CancelledError&) {
      out.timed_out = true;
      if (out.downgrade_reason == DowngradeReason::kNone ||
          out.downgrade_reason == DowngradeReason::kDisabled) {
        out.downgrade_reason = DowngradeReason::kDeadline;
      }
      explain.stages.push_back(
          {"approx", timer.ElapsedMillis() - approx_start_ms, false});
      FlightRecorder::Record(
          FrEvent::kCancelled, static_cast<int64_t>(AnswerTier::kApprox),
          static_cast<int64_t>(timer.ElapsedMillis() * 1000.0));
      if (!options_.degrade) throw;
    }
  }

  // Histogram floor: the filter step alone, never cancelled — one bounded
  // O(m^2) scan is the ladder's final work quantum. Pessimistic accepts
  // are the certainly-dense answer; the optimistic superset bounds where
  // density can hide.
  FlightRecorder::Record(FrEvent::kTierEnter,
                         static_cast<int64_t>(AnswerTier::kHistogram),
                         static_cast<int64_t>(out.downgrade_reason));
  const double floor_start_ms = timer.ElapsedMillis();
  FrEngine::DhResult dh = fr_->DhOnlyQuery(q_t, rho, l, /*optimistic=*/false);
  out.region = std::move(dh.region);
  out.maybe_region =
      CellsAsRegion(dh.filter, fr_->histogram().grid(), true);
  out.cost = CostBreakdown{};
  out.cost.cpu_ms = dh.cpu_ms;
  out.tier = AnswerTier::kHistogram;
  explain.stages.push_back(
      {"histogram", timer.ElapsedMillis() - floor_start_ms, true});
  explain.accepted_cells = dh.filter.accepted;
  explain.rejected_cells = dh.filter.rejected;
  explain.candidate_cells = dh.filter.candidates;
  return finish(&out);
}

ResilientExecutor::ResilientExecutor(FrEngine* fr, PaEngine* fallback,
                                     const ResilienceOptions& options,
                                     FftDensityEngine* fft)
    : fr_(fr), fallback_(fallback), fft_(fft), options_(options) {}

}  // namespace pdr
