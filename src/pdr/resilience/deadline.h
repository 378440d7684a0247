// Cooperative cancellation for the query engines.
//
// A query that must answer within a latency budget carries a QueryControl:
// a steady-clock Deadline plus an optional external CancelToken. The
// engines check the control at their natural work quanta — FR per index
// node, per candidate cell and per plane-sweep strip, PA per
// branch-and-bound node, ThreadPool::ParallelFor before claiming each
// index — and abandon the query by throwing CancelledError as soon as
// either signal fires. The
// guarantee is therefore *cooperative*: a query returns within its budget
// plus one work quantum, never mid-quantum (no partial state, no torn
// output buffers).
//
// Everything here is header-only and allocation-free so the control can be
// threaded through pdr_parallel and the engines without new link
// dependencies, and the default-constructed (inactive) control costs one
// predictable branch per check — the no-deadline path stays bit-identical
// to code that never heard of cancellation.

#ifndef PDR_RESILIENCE_DEADLINE_H_
#define PDR_RESILIENCE_DEADLINE_H_

#include <atomic>
#include <chrono>
#include <stdexcept>
#include <string>

namespace pdr {

/// Thrown at a cancellation point when the query's control fired. The
/// degradation ladder (resilience/executor.h) catches it and retries at a
/// cheaper answer tier; callers without a ladder see it as the query's
/// failure.
class CancelledError : public std::runtime_error {
 public:
  explicit CancelledError(const std::string& what)
      : std::runtime_error(what) {}
};

/// Sticky external cancellation flag, safe to share across threads: any
/// thread may Cancel(), every worker observing the token sees the flag on
/// its next check. Never resets — one token per query attempt.
class CancelToken {
 public:
  void Cancel() { cancelled_.store(true, std::memory_order_relaxed); }
  bool cancelled() const {
    return cancelled_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<bool> cancelled_{false};
};

/// Steady-clock latency budget. Default-constructed deadlines are unarmed
/// (never expire); Deadline::After(ms) arms one relative to now.
class Deadline {
 public:
  Deadline() = default;

  static Deadline After(double ms) {
    Deadline d;
    d.armed_ = true;
    d.budget_ms_ = ms;
    d.end_ = std::chrono::steady_clock::now() +
             std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                 std::chrono::duration<double, std::milli>(ms));
    return d;
  }

  bool armed() const { return armed_; }
  double budget_ms() const { return budget_ms_; }

  bool Expired() const {
    return armed_ && std::chrono::steady_clock::now() >= end_;
  }

  /// Milliseconds until expiry (0 when expired; +inf-ish when unarmed).
  double RemainingMs() const {
    if (!armed_) return 1e18;
    const double ms = std::chrono::duration<double, std::milli>(
                          end_ - std::chrono::steady_clock::now())
                          .count();
    return ms > 0.0 ? ms : 0.0;
  }

 private:
  bool armed_ = false;
  double budget_ms_ = 0.0;
  std::chrono::steady_clock::time_point end_;
};

/// The per-query cancellation control the engines thread through their hot
/// loops. Inactive (default) controls make every check a single branch.
struct QueryControl {
  const CancelToken* token = nullptr;  ///< external cancellation (optional)
  Deadline deadline;                   ///< latency budget (optional)

  bool active() const { return token != nullptr || deadline.armed(); }

  /// Non-throwing poll, for drain paths that must not unwind.
  bool ShouldCancel() const {
    if (token != nullptr && token->cancelled()) return true;
    return deadline.Expired();
  }

  /// Cancellation point: throws CancelledError when either signal fired.
  void Check() const {
    if (token != nullptr && token->cancelled()) {
      throw CancelledError("query cancelled");
    }
    if (deadline.Expired()) {
      throw CancelledError("query deadline expired (budget " +
                           std::to_string(deadline.budget_ms()) + " ms)");
    }
  }
};

}  // namespace pdr

#endif  // PDR_RESILIENCE_DEADLINE_H_
