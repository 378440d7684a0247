#include "pdr/mobility/dataset_io.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>
#include <sstream>

#include "pdr/common/errors.h"

namespace pdr {
namespace {

WorkloadConfig SmallConfig() {
  WorkloadConfig config;
  config.WithExtent(150.0);
  config.num_objects = 200;
  config.max_update_interval = 12;
  config.network.grid_nodes = 6;
  config.seed = 321;
  return config;
}

void ExpectDatasetsEqual(const Dataset& a, const Dataset& b) {
  EXPECT_EQ(a.config.extent, b.config.extent);
  EXPECT_EQ(a.config.num_objects, b.config.num_objects);
  EXPECT_EQ(a.config.max_update_interval, b.config.max_update_interval);
  EXPECT_EQ(a.config.seed, b.config.seed);
  EXPECT_EQ(a.config.network.grid_nodes, b.config.network.grid_nodes);
  ASSERT_EQ(a.ticks.size(), b.ticks.size());
  for (size_t t = 0; t < a.ticks.size(); ++t) {
    ASSERT_EQ(a.ticks[t].size(), b.ticks[t].size()) << "tick " << t;
    for (size_t i = 0; i < a.ticks[t].size(); ++i) {
      const UpdateEvent& ea = a.ticks[t][i];
      const UpdateEvent& eb = b.ticks[t][i];
      EXPECT_EQ(ea.tick, eb.tick);
      EXPECT_EQ(ea.id, eb.id);
      EXPECT_EQ(ea.old_state, eb.old_state);
      EXPECT_EQ(ea.new_state, eb.new_state);
    }
  }
}

TEST(DatasetIoTest, StreamRoundTrip) {
  const Dataset original = GenerateDataset(SmallConfig(), 15);
  std::stringstream buffer;
  WriteDataset(original, buffer);
  const Dataset loaded = ReadDataset(buffer);
  ExpectDatasetsEqual(original, loaded);
}

TEST(DatasetIoTest, FileRoundTrip) {
  const Dataset original = GenerateDataset(SmallConfig(), 10);
  const std::string path = ::testing::TempDir() + "/pdr_dataset_test.pdrd";
  SaveDataset(original, path);
  const Dataset loaded = LoadDataset(path);
  ExpectDatasetsEqual(original, loaded);
  std::remove(path.c_str());
}

TEST(DatasetIoTest, EmptyDataset) {
  Dataset empty;
  empty.config = SmallConfig();
  std::stringstream buffer;
  WriteDataset(empty, buffer);
  const Dataset loaded = ReadDataset(buffer);
  EXPECT_EQ(loaded.ticks.size(), 0u);
  EXPECT_EQ(loaded.config.num_objects, 200);
}

TEST(DatasetIoTest, BadMagicRejected) {
  std::stringstream buffer;
  buffer << "NOPE and then some bytes";
  EXPECT_THROW(ReadDataset(buffer), DecodeError);
}

TEST(DatasetIoTest, TruncationRejected) {
  const Dataset original = GenerateDataset(SmallConfig(), 5);
  std::stringstream buffer;
  WriteDataset(original, buffer);
  const std::string bytes = buffer.str();
  // Chop the stream at several points; every prefix must throw, never
  // crash or return garbage.
  for (size_t cut : {size_t{3}, size_t{10}, bytes.size() / 2,
                     bytes.size() - 1}) {
    std::stringstream truncated(bytes.substr(0, cut));
    EXPECT_THROW(ReadDataset(truncated), DecodeError) << cut;
  }
}

TEST(DatasetIoTest, MissingFileThrows) {
  EXPECT_THROW(LoadDataset("/nonexistent/path/to/dataset.pdrd"),
               std::runtime_error);
}

Dataset OneObjectDataset(MotionState state) {
  Dataset ds;
  ds.config = SmallConfig();
  UpdateEvent e;
  e.tick = 0;
  e.id = 1;
  e.new_state = state;
  ds.ticks.push_back({e});
  return ds;
}

TEST(DatasetIoTest, NonFiniteCoordinatesRejectedOnWrite) {
  // A poisoned simulation must not be able to produce a file that parses:
  // the write path rejects NaN/Inf before any bytes of the state land.
  const double bads[] = {std::nan(""), std::numeric_limits<double>::infinity(),
                         -std::numeric_limits<double>::infinity()};
  for (const double bad : bads) {
    for (int field = 0; field < 4; ++field) {
      MotionState s;
      s.pos = {10.0, 20.0};
      s.vel = {1.0, -1.0};
      if (field == 0) s.pos.x = bad;
      if (field == 1) s.pos.y = bad;
      if (field == 2) s.vel.x = bad;
      if (field == 3) s.vel.y = bad;
      std::stringstream buffer;
      EXPECT_THROW(WriteDataset(OneObjectDataset(s), buffer),
                   std::runtime_error)
          << "field " << field << " value " << bad;
    }
  }
}

TEST(DatasetIoTest, NonFiniteCoordinatesRejectedOnRead) {
  // Bytes crafted on disk (or corrupted in transit) with a NaN position
  // must be rejected at load, not propagated into the histogram.
  MotionState good;
  good.pos = {10.0, 20.0};
  good.vel = {1.0, -1.0};
  std::stringstream buffer;
  WriteDataset(OneObjectDataset(good), buffer);
  std::string bytes = buffer.str();

  // The state's pos.x is the first double of the final 36-byte state blob
  // (4 doubles + the 4-byte Tick); patch it to a NaN bit pattern.
  const uint64_t nan_bits = 0x7ff8000000000000ull;
  const size_t state_off = bytes.size() - (4 * 8 + 4);
  std::memcpy(bytes.data() + state_off, &nan_bits, sizeof(nan_bits));
  std::stringstream corrupt(bytes);
  try {
    ReadDataset(corrupt);
    FAIL() << "NaN position accepted";
  } catch (const DecodeError& e) {
    EXPECT_NE(std::string(e.what()).find("non-finite"), std::string::npos)
        << "error message does not name the problem: " << e.what();
  }
}

TEST(DatasetIoTest, CorruptConfigRejected) {
  const Dataset original = GenerateDataset(SmallConfig(), 3);
  std::stringstream buffer;
  WriteDataset(original, buffer);
  std::string bytes = buffer.str();
  // The extent is the first double after magic + version.
  const double bad_extent = -1.0;
  std::memcpy(bytes.data() + 8, &bad_extent, sizeof(bad_extent));
  std::stringstream corrupt(bytes);
  EXPECT_THROW(ReadDataset(corrupt), DecodeError);
}

TEST(DatasetIoTest, LoadedDatasetReplaysIdentically) {
  // The loaded stream must drive an engine to the same state as the
  // original (bitwise-equal positions).
  const Dataset original = GenerateDataset(SmallConfig(), 12);
  std::stringstream buffer;
  WriteDataset(original, buffer);
  const Dataset loaded = ReadDataset(buffer);

  ObjectTable table_a, table_b;
  for (const auto& batch : original.ticks) {
    for (const UpdateEvent& e : batch) table_a.Apply(e);
  }
  for (const auto& batch : loaded.ticks) {
    for (const UpdateEvent& e : batch) table_b.Apply(e);
  }
  const auto pos_a = table_a.PositionsAt(20);
  const auto pos_b = table_b.PositionsAt(20);
  ASSERT_EQ(pos_a.size(), pos_b.size());
  for (size_t i = 0; i < pos_a.size(); ++i) EXPECT_EQ(pos_a[i], pos_b[i]);
}

}  // namespace
}  // namespace pdr
