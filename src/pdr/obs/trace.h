// Scoped query-path tracing.
//
// A TraceSpan is an RAII scope marker: constructing one while tracing is
// active (PdrObs::TracingActive()) opens a node in the calling thread's
// current trace tree; destruction closes it. Nesting follows the stack, so
// the FR query path assembles
//
//   fr.query
//   ├─ fr.filter
//   ├─ tpr.scan     (the query's one index traversal)
//   ├─ fr.run       (per candidate row-run: gather + plane sweep)
//   └─ fr.coalesce
//
// without any explicit plumbing between layers. Every one of these spans
// is opened by FrQueryCore, the function that owns the query; the index
// traversal and the plane sweep only return their work counts. Spans carry wall time
// (steady-clock start + duration), the opening thread's id, and named
// numeric attributes (I/O deltas, cell ids, counter values). When the
// outermost span of a thread closes, the finished tree is handed to the
// installed TraceSink.
//
// Cost: with no sink installed the TraceSpan constructor is one relaxed
// atomic load and the destructor a null check.
//
// Threading: the span stack is thread-local (each thread builds its own
// trees); sinks receive trees from any thread and must be thread-safe.
//
// Parallel query stages fan work out to pool threads but should still
// assemble ONE tree per query, so a span can be adopted across threads:
// capture TraceContext::Current() on the submitting thread, and install a
// TraceContextScope on the worker — spans the worker opens then attach as
// children of the captured span (each tagged with its own thread id).
// Attachment to a shared parent is mutex-guarded, so any number of workers
// may add children to the same open span concurrently. The captured span
// must remain open until every adopting worker has finished (the fork/join
// query stages guarantee this by joining before the span closes).

#ifndef PDR_OBS_TRACE_H_
#define PDR_OBS_TRACE_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "pdr/obs/obs.h"

namespace pdr {

/// One closed span: a node of a finished (or in-flight) trace tree.
struct SpanNode {
  std::string name;
  int64_t start_ns = 0;     ///< steady-clock time at open
  int64_t duration_ns = 0;  ///< close - open
  int64_t thread_id = 0;    ///< small per-process id of the opening thread
  std::vector<std::pair<std::string, int64_t>> int_attrs;
  std::vector<std::pair<std::string, double>> num_attrs;
  std::vector<std::unique_ptr<SpanNode>> children;

  double duration_ms() const {
    return static_cast<double>(duration_ns) / 1e6;
  }
  int64_t end_ns() const { return start_ns + duration_ns; }

  /// First attribute with this key, or `fallback`.
  int64_t IntAttrOr(std::string_view key, int64_t fallback) const;
  double NumAttrOr(std::string_view key, double fallback) const;

  /// Recursive node count (including this one).
  size_t TreeSize() const;
};

/// Receives finished root spans. Implementations must be thread-safe.
class TraceSink {
 public:
  virtual ~TraceSink() = default;
  virtual void OnTrace(std::unique_ptr<SpanNode> root) = 0;
};

/// Accumulates finished traces in memory (tests, consistency checks).
class CollectingSink : public TraceSink {
 public:
  void OnTrace(std::unique_ptr<SpanNode> root) override;

  size_t size() const;
  std::vector<std::unique_ptr<SpanNode>> TakeAll();

 private:
  mutable std::mutex mu_;
  std::vector<std::unique_ptr<SpanNode>> traces_;
};

class TraceSpan {
 public:
  /// Opens a span when tracing is active; otherwise a no-op shell.
  explicit TraceSpan(std::string_view name) {
    if (PdrObs::TracingActive()) Open(name);
  }
  ~TraceSpan() {
    if (node_ != nullptr) Close();
  }

  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

  /// True when this span is recording (tracing was active at open).
  bool active() const { return node_ != nullptr; }

  /// Attaches a named value; no-op when inactive.
  void SetAttr(std::string_view key, int64_t v);
  void SetAttr(std::string_view key, double v);
  void SetAttr(std::string_view key, int v) {
    SetAttr(key, static_cast<int64_t>(v));
  }

 private:
  void Open(std::string_view name);
  void Close();

  SpanNode* node_ = nullptr;    // owned by the thread's tree while open
  SpanNode* parent_ = nullptr;  // chain parent on THIS thread (may be null)
  SpanNode* prev_current_ = nullptr;  // thread's innermost span at open
};

/// Copyable handle to the calling thread's innermost open span, for handing
/// to worker threads (see the file comment). Invalid (and harmless) when no
/// span is open or tracing is inactive.
class TraceContext {
 public:
  TraceContext() = default;

  /// The calling thread's innermost open span (its own or adopted).
  static TraceContext Current();

  bool valid() const { return node_ != nullptr; }

 private:
  friend class TraceContextScope;
  explicit TraceContext(SpanNode* node) : node_(node) {}

  SpanNode* node_ = nullptr;
};

/// RAII adoption of a cross-thread parent span: while in scope, spans the
/// calling thread opens attach as children of the context's span instead of
/// starting a new tree. Scopes nest; an invalid context detaches the thread
/// from any surrounding adoption (its spans form their own trees again).
/// The adopted span must stay open for the lifetime of the scope.
class TraceContextScope {
 public:
  explicit TraceContextScope(const TraceContext& context);
  ~TraceContextScope();

  TraceContextScope(const TraceContextScope&) = delete;
  TraceContextScope& operator=(const TraceContextScope&) = delete;

 private:
  SpanNode* saved_current_ = nullptr;
  SpanNode* saved_adopted_ = nullptr;
};

}  // namespace pdr

#endif  // PDR_OBS_TRACE_H_
