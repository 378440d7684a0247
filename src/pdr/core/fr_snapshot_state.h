// Per-engine scalar state frozen into an MVCC commit.
//
// A commit publishes copy-on-write versions of the bulk data (index
// pages, histogram rows, Chebyshev cells) *and* one immutable struct of
// everything else a query reads: the logical clock and the TPR-tree
// root. The SnapshotManager carries these as opaque shared_ptrs
// (mvcc::EpochStates); the snapshot query path
// (src/pdr/mvcc/snapshot_query.h) casts back here.

#ifndef PDR_CORE_FR_SNAPSHOT_STATE_H_
#define PDR_CORE_FR_SNAPSHOT_STATE_H_

#include "pdr/common/geometry.h"
#include "pdr/storage/pager.h"

namespace pdr {

/// Everything FrEngine's read path consumes besides versioned blocks,
/// frozen at commit time by FrEngine::CaptureState().
struct FrSnapshotState {
  Tick now = 0;                      ///< engine clock at commit
  PageId tpr_root = kInvalidPageId;  ///< TPR-tree root at commit
};

/// PaEngine analogue (the Chebyshev model's read path needs only the
/// clock; grid geometry and degree are construction-time constants).
struct PaSnapshotState {
  Tick now = 0;
};

}  // namespace pdr

#endif  // PDR_CORE_FR_SNAPSHOT_STATE_H_
