// Workload log format tests: round-trip fidelity, the torn-tail /
// interior-corruption distinction, digest semantics, and repro bundles.
//
// The format contract mirrors the WAL's: an append may be torn by a dying
// process (Load returns the intact prefix, torn_tail set), but a fully
// present record that fails its checksum is interior corruption and the
// whole log is refused — a capture that lies would make every replay
// conclusion worthless.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <utility>

#include "pdr/common/errors.h"
#include "pdr/core/fr_engine.h"
#include "pdr/core/monitor.h"
#include "pdr/mobility/generator.h"
#include "pdr/obs/workload_log.h"
#include "pdr/replay/replayer.h"
#include "pdr/storage/serde.h"

namespace pdr {
namespace {

class TempDir {
 public:
  TempDir() {
    char tmpl[] = "/tmp/pdr_wlog_test_XXXXXX";
    const char* dir = mkdtemp(tmpl);
    EXPECT_NE(dir, nullptr);
    dir_ = dir != nullptr ? dir : "/tmp";
  }
  ~TempDir() { std::system(("rm -rf '" + dir_ + "'").c_str()); }
  const std::string& path() const { return dir_; }

 private:
  std::string dir_;
};

Dataset SmallDataset(uint64_t seed = 17) {
  WorkloadConfig config;
  config.WithExtent(300.0);
  config.num_objects = 120;
  config.max_update_interval = 6;
  config.seed = seed;
  return GenerateDataset(config, 10);
}

WorkloadLogHeader SmallHeader() {
  WorkloadLogHeader h;
  h.rho = 120.0 / (300.0 * 300.0);
  h.l = 40.0;
  h.lookahead = 3;
  h.every = 2;
  h.histogram_side = 20;
  h.horizon = 12;
  h.buffer_pages = 32;
  return h;
}

std::string ReadAll(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  EXPECT_NE(f, nullptr) << path;
  std::string bytes;
  char buf[4096];
  size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) bytes.append(buf, n);
  std::fclose(f);
  return bytes;
}

void WriteAll(const std::string& path, const std::string& bytes) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr) << path;
  ASSERT_EQ(std::fwrite(bytes.data(), 1, bytes.size(), f), bytes.size());
  std::fclose(f);
}

TEST(WorkloadLogTest, RecordedRunRoundTripsThroughLoad) {
  TempDir dir;
  const std::string path = dir.path() + "/run.wlog";
  const Dataset ds = SmallDataset();
  const WorkloadRecorder::Stats stats =
      RecordDataset(ds, path, SmallHeader());
  EXPECT_EQ(stats.ticks, 6);  // duration 10, cadence 2 -> ticks 0,2,...,10
  EXPECT_EQ(stats.updates, static_cast<int64_t>(ds.TotalUpdates()));
  EXPECT_GT(stats.bytes, 0);

  const WorkloadLog log = WorkloadLog::Load(path);
  EXPECT_FALSE(log.torn_tail);
  EXPECT_EQ(log.bytes, stats.bytes);
  EXPECT_DOUBLE_EQ(log.header.extent, ds.config.extent);
  EXPECT_EQ(log.header.num_objects, ds.config.num_objects);
  EXPECT_EQ(log.header.seed, ds.config.seed);
  EXPECT_EQ(log.header.duration, ds.duration());
  EXPECT_DOUBLE_EQ(log.header.l, 40.0);
  EXPECT_EQ(log.header.every, 2);

  int64_t ticks = 0, updates = 0;
  for (const WorkloadLogRecord& rec : log.records) {
    if (rec.kind == WorkloadLogRecord::Kind::kTick) {
      ++ticks;
      EXPECT_EQ(rec.query.q_t, rec.query.now + 3);
      EXPECT_NE(rec.query.digest, 0u);
      EXPECT_NE(rec.query.sig_hash, 0u);
    } else {
      updates += static_cast<int64_t>(rec.updates.size());
      for (const UpdateEvent& e : rec.updates) EXPECT_EQ(e.tick, rec.tick);
    }
  }
  EXPECT_EQ(ticks, stats.ticks);
  EXPECT_EQ(updates, stats.updates);
}

TEST(WorkloadLogTest, ConcurrentEpochsRoundTripThroughLoad) {
  TempDir dir;
  const std::string path = dir.path() + "/mvcc.wlog";
  const Dataset ds = SmallDataset();
  {
    WorkloadRecorder recorder(path, SmallHeader());
    // Epoch 1: empty batch (written anyway — every epoch needs its
    // updates record); epoch 2: a real batch; plus one snapshot answer
    // pinned to each.
    recorder.OnCommit(0, {}, 1);
    PdrMonitor::Delta d1;
    d1.now = 0;
    d1.q_t = 3;
    d1.epoch = 1;
    recorder.RecordTick(d1);
    recorder.OnCommit(1, ds.ticks[0], 2);
    PdrMonitor::Delta d2;
    d2.now = 1;
    d2.q_t = 4;
    d2.epoch = 2;
    recorder.RecordTick(d2);
  }
  const WorkloadLog log = WorkloadLog::Load(path);
  ASSERT_EQ(log.records.size(), 4u);
  EXPECT_EQ(log.records[0].kind, WorkloadLogRecord::Kind::kUpdates);
  EXPECT_EQ(log.records[0].epoch, 1u);
  EXPECT_TRUE(log.records[0].updates.empty());
  EXPECT_EQ(log.records[1].kind, WorkloadLogRecord::Kind::kTick);
  EXPECT_EQ(log.records[1].epoch, 1u);
  EXPECT_EQ(log.records[1].query.epoch, 1u);
  EXPECT_EQ(log.records[2].epoch, 2u);
  EXPECT_EQ(log.records[2].updates.size(), ds.ticks[0].size());
  EXPECT_EQ(log.records[3].query.epoch, 2u);
  EXPECT_TRUE(Replayer(log).concurrent());
}

TEST(WorkloadLogTest, SerializedLogsCarryNoEpochsAndStayByteStable) {
  // Epoch support is strictly additive: a serialized capture writes the
  // exact pre-MVCC record bytes (no trailing epoch field), loads with
  // every epoch zero, and is not classified as concurrent.
  TempDir dir;
  const std::string path = dir.path() + "/serial.wlog";
  RecordDataset(SmallDataset(), path, SmallHeader());
  const WorkloadLog log = WorkloadLog::Load(path);
  ASSERT_FALSE(log.records.empty());
  for (const WorkloadLogRecord& rec : log.records) {
    EXPECT_EQ(rec.epoch, 0u);
    if (rec.kind == WorkloadLogRecord::Kind::kTick) {
      EXPECT_EQ(rec.query.epoch, 0u);
    }
  }
  EXPECT_FALSE(Replayer(log).concurrent());
}

TEST(WorkloadLogTest, TornTailIsAcceptedAsPrefix) {
  TempDir dir;
  const std::string path = dir.path() + "/run.wlog";
  RecordDataset(SmallDataset(), path, SmallHeader());
  const WorkloadLog full = WorkloadLog::Load(path);

  // Chop into the final record, as a process dying mid-append would.
  const std::string bytes = ReadAll(path);
  const std::string torn_path = dir.path() + "/torn.wlog";
  WriteAll(torn_path, bytes.substr(0, bytes.size() - 9));

  const WorkloadLog torn = WorkloadLog::Load(torn_path);
  EXPECT_TRUE(torn.torn_tail);
  EXPECT_EQ(torn.records.size() + 1, full.records.size());
  EXPECT_LT(torn.bytes, full.bytes);
}

TEST(WorkloadLogTest, InteriorCorruptionIsRejected) {
  TempDir dir;
  const std::string path = dir.path() + "/run.wlog";
  RecordDataset(SmallDataset(), path, SmallHeader());

  // Flip one payload byte in the middle of the file: the record is fully
  // present, so this must throw (checksum mismatch), never torn-tail.
  std::string bytes = ReadAll(path);
  bytes[bytes.size() / 2] ^= 0x40;
  const std::string bad_path = dir.path() + "/bad.wlog";
  WriteAll(bad_path, bytes);
  EXPECT_THROW(WorkloadLog::Load(bad_path), DecodeError);
}

TEST(WorkloadLogTest, BadMagicAndMissingFileAreRejected) {
  TempDir dir;
  EXPECT_THROW(WorkloadLog::Load(dir.path() + "/absent.wlog"),
               std::runtime_error);
  const std::string junk = dir.path() + "/junk.wlog";
  WriteAll(junk, "this is not a workload log at all");
  EXPECT_THROW(WorkloadLog::Load(junk), DecodeError);

  // The header's index byte must be 0 (TPR-tree). A header-only log is
  // the 8-byte file header, one 24-byte record header (checksum at +16),
  // then the header payload; a distinctive io_ms locates the index byte
  // that follows it. Each bad value is re-sealed with a valid checksum,
  // so the index byte alone causes the refusal.
  WorkloadLogHeader header = SmallHeader();
  header.io_ms = 12.375;
  const std::string good = dir.path() + "/good.wlog";
  { WorkloadRecorder recorder(good, header); }
  EXPECT_NO_THROW(WorkloadLog::Load(good));
  const std::string bytes = ReadAll(good);
  const std::string io_bits(reinterpret_cast<const char*>(&header.io_ms),
                            sizeof(header.io_ms));
  const size_t index_at = bytes.find(io_bits) + sizeof(header.io_ms);
  ASSERT_LT(index_at, bytes.size());
  ASSERT_EQ(bytes[index_at], 0);
  constexpr size_t kPayloadAt = 8 + 24;
  for (const uint8_t index : {uint8_t{1}, uint8_t{7}}) {
    std::string bad = bytes;
    bad[index_at] = static_cast<char>(index);
    const uint8_t type = 1;  // header record
    const uint32_t len = static_cast<uint32_t>(bad.size() - kPayloadAt);
    uint64_t checksum = Fnv1a64(&type, sizeof(type));
    checksum = Fnv1a64(&len, sizeof(len), checksum);
    checksum = Fnv1a64(bad.data() + kPayloadAt, len, checksum);
    bad.replace(8 + 16, sizeof(checksum),
                reinterpret_cast<const char*>(&checksum), sizeof(checksum));
    const std::string path = dir.path() + "/index.wlog";
    WriteAll(path, bad);
    try {
      WorkloadLog::Load(path);
      ADD_FAILURE() << "index byte " << int{index} << " was accepted";
    } catch (const DecodeError& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("unsupported header"), std::string::npos) << what;
      EXPECT_NE(what.find("retired B^x-tree"), std::string::npos) << what;
    }
  }
}

TEST(WorkloadLogTest, TickDigestCoversAnswerBitsButNotWallTime) {
  PdrMonitor::Delta delta;
  delta.now = 4;
  delta.q_t = 7;
  delta.current.Add(Rect(10.0, 10.0, 40.0, 40.0));
  delta.explain.rho = 0.01;
  delta.explain.l = 30.0;
  const uint64_t base = TickDigest(delta);

  // Wall time and I/O are execution details, not answer bits.
  PdrMonitor::Delta timed = delta;
  timed.elapsed_ms = 123.0;
  timed.explain.elapsed_ms = 123.0;
  timed.explain.pages_read_physical = 999;
  EXPECT_EQ(TickDigest(timed), base);

  // The tiniest answer perturbation must move the digest (raw-bits
  // transcript: one ulp is a different bit pattern).
  PdrMonitor::Delta nudged = delta;
  nudged.current = Region();
  nudged.current.Add(
      Rect(10.0, 10.0, std::nextafter(40.0, 41.0), 40.0));
  EXPECT_NE(TickDigest(nudged), base);

  PdrMonitor::Delta degraded = delta;
  degraded.tier = AnswerTier::kHistogram;
  EXPECT_NE(TickDigest(degraded), base);
}

// Appends one record with a valid checksum, so the payload alone decides
// whether the log loads.
void AppendSealedRecord(std::string* bytes, uint8_t type,
                        const std::string& payload) {
  const uint32_t len = static_cast<uint32_t>(payload.size());
  uint64_t checksum = Fnv1a64(&type, sizeof(type));
  checksum = Fnv1a64(&len, sizeof(len), checksum);
  checksum = Fnv1a64(payload.data(), payload.size(), checksum);
  PutPod(bytes, uint32_t{0x4345524Cu});  // "LREC"
  PutPod(bytes, type);
  bytes->append(3, '\0');
  PutPod(bytes, len);
  PutPod(bytes, uint32_t{0});
  PutPod(bytes, checksum);
  bytes->append(payload);
}

TEST(WorkloadLogTest, ImplausibleUpdateRecordsAreDecodeErrors) {
  TempDir dir;
  const std::string good = dir.path() + "/good.wlog";
  { WorkloadRecorder recorder(good, SmallHeader()); }
  const std::string header_only = ReadAll(good);

  // A count the payload cannot hold must be refused before anything is
  // allocated for it.
  std::string huge;
  PutPod(&huge, Tick{0});
  PutPod(&huge, uint32_t{0xFFFFFFFFu});
  // An update whose flags byte names states that do not exist.
  std::string flags;
  PutPod(&flags, Tick{0});
  PutPod(&flags, uint32_t{1});
  PutPod(&flags, ObjectId{1});
  PutPod(&flags, uint8_t{4});
  // A record type no writer emits.
  const std::pair<uint8_t, std::string> bad[] = {
      {2, huge}, {2, flags}, {9, std::string()}};
  for (const auto& [type, payload] : bad) {
    std::string bytes = header_only;
    AppendSealedRecord(&bytes, type, payload);
    const std::string path = dir.path() + "/bad.wlog";
    WriteAll(path, bytes);
    EXPECT_THROW(WorkloadLog::Load(path), DecodeError) << int{type};
  }
}

// The tick digest covers the answer alone; the EXPLAIN signature covers
// the provenance. Counts that only say how the answer was computed move
// the signature and leave the digest; a changed answer moves the digest,
// and the signature too when the answer's rectangle count changes.
TEST(WorkloadLogTest, DigestCoversTheAnswerAndSignatureTheProvenance) {
  const auto delta_of = [](const Region& region, int64_t objects,
                           int64_t strips = 40) {
    FrEngine::QueryResult result;
    result.region = region;
    result.accepted_cells = 3;
    result.candidate_cells = 5;
    result.rejected_cells = 392;
    result.objects_fetched = objects;
    result.sweep.dense_rects = strips;
    PdrMonitor::Delta delta;
    delta.now = 4;
    delta.q_t = 7;
    delta.current = region;
    delta.appeared = region;
    result.FillExplain(&delta.explain);
    delta.explain.rho = 0.01;
    delta.explain.l = 30.0;
    return delta;
  };
  Region region;
  region.Add(Rect(10.0, 10.0, 40.0, 40.0));
  const PdrMonitor::Delta base = delta_of(region, 120);
  const uint64_t digest = TickDigest(base);
  const uint64_t sig = ExplainSignatureHash(base.explain);

  // Provenance only: fetched objects, filter and BnB counts, stage names.
  PdrMonitor::Delta counted = delta_of(region, 121);
  EXPECT_EQ(TickDigest(counted), digest);
  EXPECT_NE(ExplainSignatureHash(counted.explain), sig);
  counted = base;
  counted.explain.candidate_cells += 1;
  counted.explain.bnb_nodes = 9;
  counted.explain.stages.push_back({"histogram", 0.0, true});
  EXPECT_EQ(TickDigest(counted), digest);
  EXPECT_NE(ExplainSignatureHash(counted.explain), sig);
  // The plane sweep's strip count says how refinement tiled the work;
  // neither hash sees it.
  const PdrMonitor::Delta retiled = delta_of(region, 120, 7);
  EXPECT_EQ(TickDigest(retiled), digest);
  EXPECT_EQ(ExplainSignatureHash(retiled.explain), sig);

  // One ulp of one rectangle moves the digest; the answer still has one
  // rectangle, so the signature holds.
  Region nudged;
  nudged.Add(Rect(10.0, 10.0, std::nextafter(40.0, 41.0), 40.0));
  const PdrMonitor::Delta moved = delta_of(nudged, 120);
  EXPECT_NE(TickDigest(moved), digest);
  EXPECT_EQ(ExplainSignatureHash(moved.explain), sig);

  // An answer that gains a rectangle moves both.
  Region grown = region;
  grown.Add(Rect(60.0, 60.0, 70.0, 70.0));
  const PdrMonitor::Delta gained = delta_of(grown, 120);
  EXPECT_NE(TickDigest(gained), digest);
  EXPECT_NE(ExplainSignatureHash(gained.explain), sig);
}

TEST(WorkloadLogTest, WriteBundleProducesSelfContainedDirectory) {
  TempDir dir;
  const std::string path = dir.path() + "/run.wlog";
  const Dataset ds = SmallDataset();

  WorkloadLogHeader header = SmallHeader();
  header.extent = ds.config.extent;
  header.num_objects = ds.config.num_objects;
  WorkloadRecorder recorder(path, header);
  recorder.ArmBundles(dir.path() + "/bundles");

  // An explicit bundle write (no flight dump attached): manifest + log.
  const std::string bundle =
      recorder.WriteBundle("unit_test", FlightRecorder::DumpInfo{});
  EXPECT_NE(bundle.find("bundle_000_unit_test"), std::string::npos) << bundle;
  EXPECT_EQ(recorder.stats().bundles, 1);

  const std::string wlog = BundleWorkloadLog(bundle);
  const WorkloadLog log = WorkloadLog::Load(wlog);
  EXPECT_EQ(log.header.num_objects, ds.config.num_objects);
  const std::string manifest = ReadAll(bundle + "/MANIFEST.json");
  EXPECT_NE(manifest.find("\"type\":\"repro_bundle\""), std::string::npos);
  EXPECT_NE(manifest.find("\"reason\":\"unit_test\""), std::string::npos);

  EXPECT_THROW(BundleWorkloadLog(dir.path() + "/not_a_bundle"),
               std::runtime_error);
  recorder.DisarmBundles();
}

}  // namespace
}  // namespace pdr
