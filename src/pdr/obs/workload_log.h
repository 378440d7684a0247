// Workload capture: a checksummed, append-only log of everything a
// serving process consumed and produced, tick by tick.
//
// The monitoring setting is a continuous stream — object updates arrive
// every tick, the standing PDR query re-evaluates every K ticks — and
// until now none of it was recorded: a flight-recorder dump tells an
// operator what the last few thousand micro-events did, but gives no way
// to *re-run* the offending workload offline. The workload log closes
// that gap. One file captures
//
//   * a header record: the full serving configuration (dataset shape,
//     standing-query parameters, resilience policy, engine geometry,
//     execution policy) so a replay can rebuild the exact engine;
//   * one updates record per tick that received updates: the raw
//     UpdateEvent batch, doubles serialized as bit patterns;
//   * one tick record per PdrMonitor evaluation: (now, q_t), the achieved
//     tier, and two result digests — a 64-bit FNV hash of the answer
//     alone (region rectangles as raw IEEE-754 bit patterns, tier,
//     reason, shed) and a hash of the EXPLAIN DeterministicSignature,
//     the provenance (stages, filter/refinement/BnB counts). Both cover
//     only thread-count-invariant values, never wall times or physical
//     I/O, so a digest comparison is a bit-identity check; a digest diff
//     means the answer changed, a sig-only diff that only the provenance
//     did.
//
// Framing follows the WAL's discipline: every record is
// {magic, type, payload_len, fnv1a64 checksum} + payload, append-only.
// Loading tolerates a *torn tail* (a process died mid-append: the intact
// prefix is returned with torn_tail set) but rejects interior corruption
// (a checksum mismatch with the full record present throws — a log that
// lies is worse than no log).
//
// Repro bundles: ArmBundles() registers the recorder with the flight
// recorder's dump hook, so the moment an incident dump fires (deadline
// miss, drift, CrashError, SLO alert) a self-contained directory is
// written next to it: MANIFEST.json + workload.wlog (the full captured
// prefix — replay needs every update from tick 0 to rebuild engine state
// bit-exactly) + the dump pair. `pdr_tool replay --bundle DIR` re-drives
// the incident from nothing but that directory.
//
// Layering: lives under pdr/obs/ with the rest of the observability
// layer but depends on PdrMonitor, so (like audit.cc and explain.cc) it
// compiles into pdr_core, not pdr_obs.

#ifndef PDR_OBS_WORKLOAD_LOG_H_
#define PDR_OBS_WORKLOAD_LOG_H_

#include <cstdint>
#include <cstdio>
#include <mutex>
#include <string>
#include <vector>

#include "pdr/core/monitor.h"
#include "pdr/mobility/object.h"
#include "pdr/obs/flight_recorder.h"

namespace pdr {

/// Everything a replay needs to rebuild the serving process: dataset
/// shape, standing query, resilience policy, engine geometry, execution
/// policy. Serialized into the log's first record.
struct WorkloadLogHeader {
  // Dataset shape (echoed from WorkloadConfig; the updates themselves
  // ride in the log, so this is provenance + engine sizing input).
  double extent = 1000.0;
  int32_t num_objects = 0;
  int32_t max_update_interval = 60;  ///< U
  uint64_t seed = 0;
  int32_t duration = 0;

  // Standing query.
  double rho = 0.0;
  double l = 30.0;
  int32_t lookahead = 0;
  int32_t every = 1;  ///< monitor cadence (ticks between evaluations)

  // Resilience policy. A deadline makes tier selection wall-clock
  // dependent, so verify-mode replays of deadline-bounded captures are
  // best-effort; rung toggles (enable_exact/enable_approx) stay exact.
  double deadline_ms = 0.0;
  int32_t max_inflight = 0;
  uint8_t degrade = 1;
  uint8_t enable_exact = 1;
  uint8_t enable_approx = 1;
  uint8_t has_fallback = 0;  ///< a PA fallback engine was attached
  /// An FFT whole-plane engine was attached as the ladder's middle rung.
  /// Written as optional trailing header fields (with fft_grid), so logs
  /// captured before the FFT rung keep their exact bytes and goldens.
  uint8_t has_fft = 0;
  int32_t fft_grid = 128;  ///< raster resolution m (cells per axis)

  // Execution policy (threads as ExecPolicy encodes it: 1 = serial,
  // 0 = hardware concurrency).
  int32_t threads = 1;

  // Engine geometry (FrEngine + fallback PaEngine options).
  int32_t histogram_side = 100;
  int32_t horizon = 120;
  uint64_t buffer_pages = 256;
  double io_ms = 10.0;
  int32_t poly_side = 10;
  int32_t degree = 5;
  int32_t eval_grid = 1000;
};

/// One recorded PdrMonitor evaluation: query parameters, achieved tier,
/// and the two result digests the replayer re-derives and compares.
struct WorkloadTickRecord {
  Tick now = 0;
  Tick q_t = 0;
  uint8_t tier = 0;
  uint8_t downgrade_reason = 0;
  uint8_t shed = 0;
  double elapsed_ms = 0.0;  ///< informational; never part of a digest
  uint64_t digest = 0;      ///< answer-transcript hash (TickDigest)
  uint64_t sig_hash = 0;    ///< ExplainRecord::DeterministicSignature hash
  /// MVCC epoch the answer was pinned to (0 = serialized OnTick). Written
  /// as an optional trailing field, so serialized logs keep their exact
  /// pre-MVCC bytes.
  uint64_t epoch = 0;
};

/// FNV-64 over the delta's answer transcript: q_t, rho, l, tier,
/// downgrade reason, shed flag, every rectangle of current / appeared /
/// vanished / maybe_region as raw IEEE-754 bit patterns (bitwise
/// identity without per-rect formatting cost). The answer alone: work
/// counts are provenance and live in the signature (ExplainSignatureHash),
/// so a change in how refinement tiles its work cannot move the digest.
/// Thread-count invariant by the row-major merge guarantee; excludes wall
/// times, physical/logical I/O, and query ids.
uint64_t TickDigest(const PdrMonitor::Delta& delta);

/// FNV-64 over explain.DeterministicSignature().
uint64_t ExplainSignatureHash(const ExplainRecord& explain);

/// Appends records to a workload log file. Throws std::runtime_error when
/// the file cannot be opened or written.
class WorkloadRecorder {
 public:
  struct Stats {
    int64_t ticks = 0;          ///< tick records written
    int64_t update_batches = 0; ///< updates records written
    int64_t updates = 0;        ///< individual UpdateEvents recorded
    int64_t bytes = 0;          ///< file bytes written so far
    int64_t bundles = 0;        ///< repro bundles written
  };

  WorkloadRecorder(const std::string& path, const WorkloadLogHeader& header);
  ~WorkloadRecorder();

  WorkloadRecorder(const WorkloadRecorder&) = delete;
  WorkloadRecorder& operator=(const WorkloadRecorder&) = delete;

  /// Records the update batch applied at `now`. Empty batches are skipped
  /// (the replayer advances engine clocks from record ticks alone).
  void OnUpdates(Tick now, const std::vector<UpdateEvent>& updates);

  /// Concurrent-capture variant: records the batch the writer is about to
  /// commit as MVCC epoch `epoch`. Unlike OnUpdates, empty batches are
  /// written too — the replayer re-derives one reference answer per epoch,
  /// so every epoch needs its updates record even when nothing moved.
  /// PdrMonitor::ApplyUpdates calls this *before* the epoch commits, so
  /// tick records pinned to an epoch always follow its updates record.
  void OnCommit(Tick now, const std::vector<UpdateEvent>& updates,
                uint64_t epoch);

  /// Computes the delta's digests, appends a tick record, and returns it.
  /// PdrMonitor calls this from OnTick / RunSnapshotQuery when attached
  /// via SetRecorder. Thread-safe: concurrent readers and the writer may
  /// interleave record appends (each append is atomic under a mutex).
  WorkloadTickRecord RecordTick(const PdrMonitor::Delta& delta);

  /// Flushes buffered bytes to the OS (bundle writers call this before
  /// copying the log; a clean close happens in the destructor).
  void Flush();

  const std::string& path() const { return path_; }
  const WorkloadLogHeader& header() const { return header_; }
  const Stats& stats() const { return stats_; }

  // --- repro bundles -------------------------------------------------------

  /// Arms incident bundles: creates `bundle_dir` and installs the flight
  /// recorder's dump hook so every successful incident dump also writes a
  /// self-contained bundle (manifest + workload log + dump pair) under it.
  /// The hook is removed by DisarmBundles() / the destructor.
  void ArmBundles(const std::string& bundle_dir);
  void DisarmBundles();

  /// Writes one bundle directory now ("<bundle_dir>/bundle_NNN_<reason>"):
  /// MANIFEST.json, workload.wlog (the log so far), and — when `dump.ok`
  /// — the dump pair copied in. Returns the directory path. Throws on
  /// I/O failure (the dump hook swallows the throw; explicit callers see
  /// it).
  std::string WriteBundle(const std::string& reason,
                          const FlightRecorder::DumpInfo& dump);

 private:
  void AppendRecord(uint8_t type, const std::string& payload);

  std::string path_;
  WorkloadLogHeader header_;
  std::FILE* file_ = nullptr;
  // Serializes appends from concurrent capture (one writer thread plus
  // any number of RunSnapshotQuery readers share one recorder).
  std::mutex mu_;
  Stats stats_;
  std::string bundle_dir_;  ///< empty: bundles disarmed
  bool hook_installed_ = false;
};

/// One parsed log record, in file order.
struct WorkloadLogRecord {
  enum class Kind : uint8_t { kUpdates = 2, kTick = 3 };
  Kind kind = Kind::kUpdates;
  Tick tick = 0;                     ///< kUpdates: receipt tick
  std::vector<UpdateEvent> updates;  ///< kUpdates payload
  WorkloadTickRecord query;          ///< kTick payload
  /// kUpdates: MVCC epoch the batch committed as (0 = serialized capture
  /// via OnUpdates). Any record with epoch > 0 marks the log concurrent.
  uint64_t epoch = 0;
};

/// A fully loaded workload log.
struct WorkloadLog {
  WorkloadLogHeader header;
  std::vector<WorkloadLogRecord> records;
  bool torn_tail = false;  ///< the file ended mid-record; prefix returned
  int64_t bytes = 0;       ///< bytes consumed (excludes any torn tail)

  /// Parses `path`. Tolerates a truncated final record (torn_tail = true);
  /// throws std::runtime_error on a missing file, bad magic/version, a
  /// checksum mismatch on a fully present record, or a missing header.
  static WorkloadLog Load(const std::string& path);
};

/// Locates the workload log inside a repro bundle directory (the
/// "workload.wlog" written by WriteBundle). Throws when absent.
std::string BundleWorkloadLog(const std::string& bundle_dir);

}  // namespace pdr

#endif  // PDR_OBS_WORKLOAD_LOG_H_
