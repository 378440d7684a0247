// FR: the exact filtering-refinement PDR engine (Section 5).
//
// Maintains the density histogram (filter) and a TPR-tree (refinement)
// from the same update stream. A snapshot query (rho, l, q_t):
//
//   1. Filter: classify every histogram cell as accept / reject /
//      candidate from the conservative and expansive neighborhood counts
//      (Algorithm 1). Accepted cells enter the answer whole; rejected
//      cells are discarded.
//   2. Refine: each candidate cell needs the objects predicted inside the
//      cell expanded by l/2 (the square S of Section 5.3). One TPR-tree
//      traversal per query fetches them for all candidates at once — it
//      enters the nodes that meet some candidate's square, so each page
//      is read once — and buckets the positions by cell; each candidate
//      then gathers its square's objects from the buckets, and the
//      two-level plane sweep (Algorithms 2-3) produces the exact dense
//      rectangles inside the cell.
//
// Cost accounting follows the paper: CPU is measured wall time, I/O is
// the TPR-tree's physical page reads charged at io_ms each (the histogram
// itself is pinned in memory and charged no I/O). Queries may optionally
// run cold (buffer pool dropped first), matching the paper's per-query
// averages over a workload.
//
// The engine also exposes the two DH-only approximations used as
// comparison points in Fig. 8 (optimistic = accepts + candidates,
// pessimistic = accepts only).

#ifndef PDR_CORE_FR_ENGINE_H_
#define PDR_CORE_FR_ENGINE_H_

#include <memory>
#include <string>

#include "pdr/common/errors.h"
#include "pdr/common/region.h"
#include "pdr/common/stats.h"
#include "pdr/histogram/density_histogram.h"
#include "pdr/histogram/filter.h"
#include "pdr/parallel/exec_policy.h"
#include "pdr/resilience/deadline.h"
#include "pdr/storage/fault_injector.h"
#include "pdr/sweep/plane_sweep.h"
#include "pdr/tpr/tpr_tree.h"

namespace pdr {

class ThreadPool;
struct ExplainRecord;
struct FrSnapshotState;

namespace mvcc {
class SnapshotManager;
class VersionedPager;
class VersionedHistogram;
}  // namespace mvcc

class FrEngine {
 public:
  struct Options {
    double extent = 1000.0;
    int histogram_side = 100;  ///< m
    Tick horizon = 120;        ///< H = U + W
    size_t buffer_pages = 256; ///< index buffer pool
    double io_ms = 10.0;       ///< charge per physical page read
    ExecPolicy exec;           ///< serial by default; see SetExecPolicy
    /// Non-empty: durable storage — the index lives on a DiskPager in this
    /// directory (WAL + checkpoints; see storage/disk_pager.h), and
    /// construction recovers any existing store, restoring the index, the
    /// histogram, and both clocks to the last checkpoint. Empty: in-memory.
    std::string storage_dir;
    /// Crash-fault injection for the durable store (tests only; not owned).
    FaultInjector* fault_injector = nullptr;
    /// Non-null: the engine participates in MVCC snapshot reads — the
    /// index runs over a copy-on-write VersionedPager, the histogram
    /// records dirty rows, and PrepareCommit()/CaptureState() publish a
    /// consistent frozen view per SnapshotManager::Commit (DESIGN.md
    /// §14). Mutually exclusive with storage_dir (std::invalid_argument).
    /// Not owned; must outlive the engine.
    mvcc::SnapshotManager* snapshots = nullptr;
  };

  explicit FrEngine(const Options& options);
  ~FrEngine();

  /// Switches how refinement fans out. Per-row-run results merge in
  /// row-major cell order, so the answer (and every counter derived from
  /// it) is bit-identical to serial execution at any thread count.
  void SetExecPolicy(const ExecPolicy& exec);
  const ExecPolicy& exec_policy() const { return options_.exec; }

  void AdvanceTo(Tick now);
  Tick now() const { return histogram_.now(); }

  /// Applies one update to both the histogram and the TPR-tree.
  void Apply(const UpdateEvent& update);

  struct QueryResult {
    Region region;        ///< exact dense regions (coalesced)
    CostBreakdown cost;
    int64_t accepted_cells = 0;
    int64_t rejected_cells = 0;
    int64_t candidate_cells = 0;
    /// Distinct objects inside some candidate's square (the union of the
    /// candidate windows): a count of the answer's inputs that no tiling
    /// of the refinement changes.
    int64_t objects_fetched = 0;
    SweepStats sweep;  ///< summed over the candidate row-runs' sweeps
    double filter_ms = 0.0;  ///< CPU spent in the filtering step
    /// CPU spent in refinement: scan_ms + sweep_ms + coalesce_ms.
    double refine_ms = 0.0;
    double scan_ms = 0.0;      ///< index scan and bucketing
    double sweep_ms = 0.0;     ///< row-run sweeps (fan-out) and merge
    double coalesce_ms = 0.0;  ///< the final Region::Coalesced()
    /// Flight-recorder correlation key for this query's micro-events (0
    /// when the recorder is disabled).
    uint32_t query_id = 0;

    /// Writes this answer's provenance into `explain`: the query id, the
    /// "filter", "scan", "sweep" and "coalesce" stages, the filter's cell
    /// counts, the fetched objects, the answer's rectangle count and the
    /// pages read; call it before moving `region` out. The caller stamps
    /// what the request knows (q_t, rho, l, tier, budget, elapsed time,
    /// epoch).
    void FillExplain(ExplainRecord* explain) const;
  };

  /// Exact snapshot PDR query (Definition 4).
  /// `cold_cache` drops the TPR buffer pool first so the I/O charge
  /// reflects an isolated query (the paper's per-query reporting).
  ///
  /// Throws HorizonError when q_t lies outside [now, now + H]: the
  /// histogram and the index hold per-tick state for the horizon window
  /// only, so answers past it would be silent extrapolation.
  ///
  /// An active `ctl` (deadline and/or cancel token) is checked at entry,
  /// before each candidate row-run's sweep, per plane-sweep strip at
  /// both sweep levels, and by ParallelFor runners between runs; a
  /// cancelled query throws CancelledError within one work quantum. The
  /// default (inactive) control leaves the query path bit-identical to
  /// uncontrolled execution.
  QueryResult Query(Tick q_t, double rho, double l, bool cold_cache = false,
                    const QueryControl& ctl = {});

  /// Interval PDR query (Definition 5): union over [q_lo, q_hi]. Both
  /// endpoints must lie inside the horizon (HorizonError otherwise).
  QueryResult QueryInterval(Tick q_lo, Tick q_hi, double rho, double l,
                            const QueryControl& ctl = {});

  /// Filter step alone, timed — the "DH" method of Fig. 8/9. Validates
  /// q_t against the horizon like Query.
  struct DhResult {
    Region region;
    double cpu_ms = 0.0;
    FilterResult filter;
  };
  DhResult DhOnlyQuery(Tick q_t, double rho, double l, bool optimistic);

  const DensityHistogram& histogram() const { return histogram_; }
  TprTree& index() { return index_; }
  const TprTree& index() const { return index_; }
  const Options& options() const { return options_; }

  /// Durability: makes the whole engine state (index pages + tree metadata
  /// + histogram + clocks) durable as one atomic checkpoint. No-op when
  /// `storage_dir` is empty. Throws CrashError under fault injection; the
  /// engine must then be discarded (as a killed process would be). Once
  /// the checkpoint commits, records one kCheckpoint event (the tick and
  /// the pages it logged).
  void Checkpoint();

  /// True when the engine writes durable storage.
  bool durable() const { return index_.durable(); }

  /// True when construction recovered a pre-existing store (queries then
  /// answer exactly as the engine that wrote the last checkpoint did).
  bool recovered() const { return index_.recovered(); }

  // --- MVCC commit hooks (Options.snapshots non-null; writer thread) ----

  /// Publishes every block dirtied since the last commit (flushes the
  /// index's buffer pool, then copies dirty pages and histogram rows into
  /// their version stores at the open epoch). Call immediately before
  /// SnapshotManager::Commit; throws std::logic_error without snapshots.
  void PrepareCommit();

  /// The frozen scalar state (clock, TPR-tree root) to hand to
  /// SnapshotManager::Commit as EpochStates::fr.
  std::shared_ptr<const FrSnapshotState> CaptureState() const;

  mvcc::SnapshotManager* snapshots() const { return options_.snapshots; }
  const mvcc::VersionedPager* versioned_pager() const {
    return versioned_pager_.get();
  }
  const mvcc::VersionedHistogram* versioned_histogram() const {
    return vhist_.get();
  }

 private:
  ThreadPool* PoolForQuery();  // null when the policy is serial
  void ValidateQt(Tick q_t) const;  // throws HorizonError

  Options options_;
  DensityHistogram histogram_;
  // Declared before index_: the index's buffer pool writes through this
  // pager, so it must be constructed first and destroyed last.
  std::unique_ptr<mvcc::VersionedPager> versioned_pager_;
  TprTree index_;
  std::unique_ptr<mvcc::VersionedHistogram> vhist_;
  std::unique_ptr<ThreadPool> pool_;  // created lazily on first parallel query
};

/// The filter + refine + merge body of FrEngine::Query against explicit
/// inputs: a counter slice (live Slice(q_t) or an MVCC materialization)
/// and the TPR-tree read inputs of TprTree::Traverse — a buffer pool and
/// a root page (the live tree's, or a private pool over frozen
/// MVCC pages with the committed root). Both callers run the exact same
/// code path, which is what makes snapshot answers bit-identical to
/// serialized execution.
FrEngine::QueryResult FrQueryCore(
    const Grid& grid, const std::vector<DensityHistogram::Counter>& slice,
    BufferPool& buffers, PageId root, ThreadPool* pool, double io_ms,
    Tick q_t, double rho, double l, bool cold_cache, const QueryControl& ctl);

}  // namespace pdr

#endif  // PDR_CORE_FR_ENGINE_H_
