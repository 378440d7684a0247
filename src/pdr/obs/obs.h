// Observability master switch (and umbrella header for pdr/obs).
//
// The obs layer has two independent costs, and two switches to match:
//
//   * Metrics (MetricsRegistry counters/gauges/histograms) are cheap —
//     one relaxed atomic op per event — and are meant to stay on in hot
//     paths. They are gated only by the master switch below.
//   * Traces (TraceSpan trees) allocate per span, so they are additionally
//     gated on a sink being installed: with no sink, a TraceSpan
//     constructor is a single relaxed atomic load.
//
// Runtime: the master switch defaults to ON; set the environment variable
// PDR_OBS=0 before process start (or call PdrObs::SetEnabled(false)) to
// turn all instrumentation off.

#ifndef PDR_OBS_OBS_H_
#define PDR_OBS_OBS_H_

#include <atomic>

namespace pdr {

class TraceSink;

class PdrObs {
 public:
  /// Master runtime switch. Defaults to the PDR_OBS environment variable
  /// ("0" disables), else on.
  static bool Enabled() { return enabled_.load(std::memory_order_relaxed); }
  static void SetEnabled(bool on);

  /// Installs the trace sink (not owned; nullptr uninstalls). Completed
  /// root spans are delivered to the sink, which must be thread-safe.
  static void SetTraceSink(TraceSink* sink);
  static TraceSink* trace_sink() {
    return sink_.load(std::memory_order_acquire);
  }

  /// True when spans should be recorded: enabled and a sink is installed.
  static bool TracingActive() {
    return Enabled() && trace_sink() != nullptr;
  }

 private:
  static std::atomic<bool> enabled_;
  static std::atomic<TraceSink*> sink_;
};

}  // namespace pdr

#include "pdr/obs/registry.h"  // IWYU pragma: export
#include "pdr/obs/trace.h"     // IWYU pragma: export

#endif  // PDR_OBS_OBS_H_
