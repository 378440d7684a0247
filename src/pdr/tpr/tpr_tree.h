// TPR-tree: a time-parameterized R-tree over moving objects
// (Saltenis et al., SIGMOD 2000), used by the paper as the index behind
// the refinement step (Section 4: "Without loss of generality, we use a
// TPR-tree to index the moving objects").
//
// Every entry stores a conservative time-parameterized bounding rectangle
// (TPBR): spatial bounds valid at the entry's reference tick plus velocity
// bounds, so the rectangle at any later time t is obtained by moving each
// edge with its own bound velocity. Insertion heuristics (ChooseSubtree and
// node split) minimize the TPBR area *integrated* over the query horizon
// [now, now + H]; the integral is approximated by sampling a fixed set of
// offsets, a documented approximation that affects only performance, never
// correctness, because bounds remain conservative at every timestamp.
//
// Nodes live on 4 KB pages behind the LRU BufferPool, so every traversal
// is charged simulated I/O exactly as in the paper's experiments. Reads go
// through one routine, Traverse: RangeQuery runs it with a single window,
// and FR refinement runs it once per query with the union of its
// candidate windows (src/pdr/core/fr_engine.cc).
//
// Deletions locate leaves through a direct object->leaf map (the standard
// "bottom-up update" shortcut) and condense the tree as the R-tree's
// CondenseTree does, at the leaf level: a non-root leaf left with fewer
// than the split's minimum fill (40% of capacity) is removed and its
// entries are reinserted through the ordinary insertion heuristics. Leaves
// therefore stay at least 40% full under any update stream, which bounds
// the pages a traversal reads (Fig. 10 cost is set by the leaf count).
// Internal nodes are removed only when empty.

#ifndef PDR_TPR_TPR_TREE_H_
#define PDR_TPR_TPR_TREE_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "pdr/common/geometry.h"
#include "pdr/common/stats.h"
#include "pdr/mobility/object.h"
#include "pdr/resilience/deadline.h"
#include "pdr/storage/buffer_pool.h"
#include "pdr/storage/fault_injector.h"
#include "pdr/storage/pager.h"

namespace pdr {

class DiskPager;

/// Time-parameterized bounding rectangle: `rect` holds the spatial bounds
/// at tick `t_ref`; each edge then moves with its own velocity bound.
/// Conservative for every t >= t_ref.
struct Tpbr {
  Rect rect;
  double vx_lo = 0, vy_lo = 0, vx_hi = 0, vy_hi = 0;
  Tick t_ref = 0;

  static Tpbr ForObject(const MotionState& state);

  /// Bounds at (fractional) time `t` (valid for t >= t_ref).
  Rect RectAt(double t) const {
    const double dt = t - static_cast<double>(t_ref);
    return Rect(rect.x_lo + vx_lo * dt, rect.y_lo + vy_lo * dt,
                rect.x_hi + vx_hi * dt, rect.y_hi + vy_hi * dt);
  }

  /// Smallest TPBR covering both inputs, referenced at the later of the two
  /// reference ticks.
  static Tpbr Union(const Tpbr& a, const Tpbr& b);

  /// True when this TPBR covers `o` for all t >= max(t_ref, o.t_ref).
  bool Covers(const Tpbr& o) const;

  /// Area integrated over [t0, t0 + horizon], approximated with
  /// `kAreaSamples` evenly spaced evaluations.
  double IntegratedArea(double t0, double horizon) const;

  static constexpr int kAreaSamples = 5;
};

/// Work counts of one TprTree::Traverse.
struct ScanStats {
  int64_t nodes_visited = 0;  ///< pages fetched (one per visited node)
  int64_t entries = 0;        ///< leaf entries handed to the sink
};

class TprTree {
 public:
  struct Options {
    size_t buffer_pages = 256;   ///< LRU buffer pool capacity
    Tick horizon = 120;          ///< H: optimization window for heuristics
    /// Non-empty: back the tree with a durable DiskPager in this directory
    /// (recovering any existing store). Empty: in-memory MemPager.
    std::string storage_dir;
    /// Crash-fault injection for the durable store (tests only; not owned).
    FaultInjector* fault_injector = nullptr;
    /// Non-null: the tree runs over this caller-owned pager instead of
    /// creating its own (the MVCC copy-on-write seam). Mutually exclusive
    /// with storage_dir (std::invalid_argument otherwise).
    Pager* external_pager = nullptr;
  };

  explicit TprTree(const Options& options);

  /// Inserts a new object with its reported motion.
  void Insert(ObjectId id, const MotionState& state);

  /// Removes an object; returns false when it is not present.
  bool Delete(ObjectId id);

  /// Applies a full update event (delete old motion and/or insert new).
  void Apply(const UpdateEvent& update);

  /// Moves the tree's logical clock; heuristics optimize [now, now + H].
  void AdvanceTo(Tick now);
  Tick now() const { return now_; }

  /// All objects whose predicted position at tick `t` lies inside the
  /// closed rectangle `window`: one Traverse that enters the nodes whose
  /// rectangle at `t` meets the window. Read-only. Also refreshes the
  /// shape gauges (PublishShapeGauges).
  std::vector<std::pair<ObjectId, MotionState>> RangeQuery(
      const Rect& window, Tick t) const;

  /// Decides from a child's rectangle at the traversal tick whether the
  /// traversal enters it.
  using NodeFilter = std::function<bool(const Rect&)>;
  /// Receives every entry of every leaf the traversal visits.
  using EntrySink = std::function<void(ObjectId, const MotionState&)>;

  /// The one tree traversal behind RangeQuery and FR refinement, run
  /// against an explicit (pool, root) pair so it serves both the live tree
  /// (buffer_pool(), root()) and a frozen MVCC page view (src/pdr/mvcc/).
  /// Visits the root, then every child whose rectangle at tick `t` passes
  /// `enter`, fetching each visited page once, and hands every entry of
  /// every visited leaf to `sink`. Polls `ctl` (when non-null) once per
  /// visited node. Counts one `pdr.tpr.range_queries` per call and the
  /// nodes it visited in `pdr.tpr.nodes_visited`; opens no span and
  /// records no flight-recorder event — the caller that owns the query
  /// reports the scan from the returned counts.
  static ScanStats Traverse(BufferPool& pool, PageId root, Tick t,
                            const NodeFilter& enter, const EntrySink& sink,
                            const QueryControl* ctl = nullptr);

  /// Sets the `pdr.tpr.height` / `pdr.tpr.node_pages` gauges to the
  /// current shape. Called per query, so the gauges track splits and
  /// condensations without a hook in every structural operation.
  void PublishShapeGauges() const;

  /// The current root page (frozen into MVCC snapshot state at commit).
  PageId root() const { return root_; }

  /// The buffer pool every node access goes through: the I/O counters,
  /// cache drops, and the flush before an MVCC publish all act on it.
  BufferPool& buffer_pool() const { return pool_; }

  /// Number of indexed objects.
  size_t size() const { return leaf_of_.size(); }

  /// Root-to-leaf height (1 = root is a leaf).
  int height() const { return height_; }

  size_t node_count() const { return node_count_; }

  /// Cumulative buffer-pool statistics (reset with ResetIoStats).
  IoStats io_stats() const { return pool_.stats(); }
  void ResetIoStats() { pool_.ResetStats(); }

  /// Drops the whole buffer cache (cold-start measurement).
  void DropCaches() { pool_.Clear(); }

  // Durability: flushes the pool and checkpoints the DiskPager with the
  // tree's metadata (clock, root, height, node count, object->leaf map) +
  // `app_meta` as one atomic unit. Checkpoint is a no-op when in-memory.
  bool durable() const { return disk_ != nullptr; }
  void Checkpoint(const std::string& app_meta);

  /// True when construction recovered pre-existing durable state; the
  /// caller's `app_meta` from that checkpoint is recovered_app_meta().
  bool recovered() const;
  const std::string& recovered_app_meta() const {
    return recovered_app_meta_;
  }

  /// The durable store behind the tree (null when in-memory).
  DiskPager* disk() const { return disk_; }

  /// Structural self-check (containment of children in parent TPBRs over
  /// sampled ticks, entry counts, non-root leaf minimum fill, parent
  /// pointers, leaf map). Aborts via assert/exception on violation; heavy,
  /// intended for tests.
  void CheckInvariants();

  // On-page layout structs; defined in the .cc, incomplete for callers.
  struct LeafEntry;
  struct InternalEntry;
  struct NodeHeader;

 private:
  void InsertEntry(ObjectId id, const Tpbr& box, const MotionState& state);
  PageId ChooseLeaf(const Tpbr& box, std::vector<PageId>* path);
  void SplitLeaf(PageId leaf_id, ObjectId id, const MotionState& state,
                 const std::vector<PageId>& path);
  void SplitInternal(PageId node_id, const InternalEntry& extra,
                     std::vector<PageId> path);
  void InstallEntry(const InternalEntry& entry, std::vector<PageId> path);
  void RefreshParentEntry(PageId child_id);
  /// Drops an unlinked node from the pool and frees its page in the store.
  void FreeNode(PageId node_id);
  Tpbr NodeTpbr(PageId node_id);
  std::string SerializeMeta(const std::string& app_meta) const;
  void RestoreMeta(const std::string& blob);

  std::unique_ptr<Pager> pager_;  // null over an external pager
  Pager* store_;                  // the pager behind pool_: owned or external
  DiskPager* disk_ = nullptr;     // pager_ downcast when durable, else null
  mutable BufferPool pool_;
  Options options_;
  Tick now_ = 0;
  PageId root_ = kInvalidPageId;
  int height_ = 1;
  size_t node_count_ = 0;
  std::unordered_map<ObjectId, PageId> leaf_of_;
  std::string recovered_app_meta_;
};

}  // namespace pdr

#endif  // PDR_TPR_TPR_TREE_H_
