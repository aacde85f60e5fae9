#include "sim/placement.h"

#include <gtest/gtest.h>

#include "util/units.h"

namespace tetris::sim {
namespace {

TaskSpec io_task(double in_mb, double out_mb, double io_mb = 100) {
  TaskSpec t;
  t.peak_cores = 1;
  t.peak_mem = 1 * kGB;
  t.max_io_bw = io_mb * kMB;
  t.output_bytes = out_mb * kMB;
  if (in_mb > 0) {
    InputSplit split;
    split.bytes = in_mb * kMB;
    split.replicas = {0};
    t.inputs.push_back(split);
  }
  return t;
}

TEST(ResolveSplits, LocalWhenHostHoldsReplica) {
  std::vector<InputSplit> splits(1);
  splits[0].bytes = 10;
  splits[0].replicas = {3, 5, 7};
  const auto resolved = resolve_splits(splits, /*host=*/5, /*salt=*/1);
  ASSERT_EQ(resolved.size(), 1u);
  EXPECT_EQ(resolved[0].source, 5);
}

TEST(ResolveSplits, RemotePicksSomeReplicaDeterministically) {
  std::vector<InputSplit> splits(1);
  splits[0].bytes = 10;
  splits[0].replicas = {3, 5, 7};
  const auto a = resolve_splits(splits, /*host=*/1, /*salt=*/42);
  const auto b = resolve_splits(splits, /*host=*/1, /*salt=*/42);
  EXPECT_EQ(a[0].source, b[0].source);
  EXPECT_TRUE(a[0].source == 3 || a[0].source == 5 || a[0].source == 7);
}

TEST(ResolveSplits, GeneratedInputHasNoSource) {
  std::vector<InputSplit> splits(1);
  splits[0].bytes = 10;
  const auto resolved = resolve_splits(splits, 0, 1);
  EXPECT_EQ(resolved[0].source, kGeneratedSource);
}

TEST(ResolveSplits, ThrowsOnUnmaterializedShuffle) {
  std::vector<InputSplit> splits(1);
  splits[0].bytes = 10;
  splits[0].from_stage = 0;
  EXPECT_THROW(resolve_splits(splits, 0, 1), std::logic_error);
}

TEST(ComputePlacement, CpuLegBindsDuration) {
  TaskSpec t;
  t.peak_cores = 2;
  t.peak_mem = 1 * kGB;
  t.cpu_cycles = 40;  // 20s on 2 cores
  const auto pd = compute_placement(t, 0, 1);
  EXPECT_DOUBLE_EQ(pd.duration, 20);
  EXPECT_DOUBLE_EQ(pd.local[Resource::kCpu], 2);
  EXPECT_DOUBLE_EQ(pd.local[Resource::kMem], 1 * kGB);
  EXPECT_EQ(pd.local[Resource::kDiskRead], 0);
}

TEST(ComputePlacement, ReadLegBindsDurationAndSetsRate) {
  const TaskSpec t = io_task(/*in=*/1000, /*out=*/0, /*io=*/100);
  const auto pd = compute_placement(t, /*host=*/0, 1);  // local read
  EXPECT_DOUBLE_EQ(pd.duration, 10);
  EXPECT_NEAR(pd.local[Resource::kDiskRead], 100 * kMB, 1);
  EXPECT_EQ(pd.local[Resource::kNetIn], 0);
  EXPECT_TRUE(pd.remote.empty());
  EXPECT_DOUBLE_EQ(pd.local_bytes, 1000 * kMB);
}

TEST(ComputePlacement, RemoteReadChargesSourceAndHost) {
  const TaskSpec t = io_task(1000, 0, 100);
  const auto pd = compute_placement(t, /*host=*/9, 1);  // replica is on 0
  EXPECT_DOUBLE_EQ(pd.duration, 10);
  EXPECT_EQ(pd.local[Resource::kDiskRead], 0);
  EXPECT_NEAR(pd.local[Resource::kNetIn], 100 * kMB, 1);
  ASSERT_EQ(pd.remote.size(), 1u);
  EXPECT_EQ(pd.remote[0].machine, 0);
  EXPECT_NEAR(pd.remote[0].disk_read, 100 * kMB, 1);
  EXPECT_NEAR(pd.remote[0].net_out, 100 * kMB, 1);
  EXPECT_DOUBLE_EQ(pd.remote_bytes, 1000 * kMB);
}

TEST(ComputePlacement, WriteLegBindsDuration) {
  const TaskSpec t = io_task(0, 500, 50);
  const auto pd = compute_placement(t, 0, 1);
  EXPECT_DOUBLE_EQ(pd.duration, 10);
  EXPECT_NEAR(pd.local[Resource::kDiskWrite], 50 * kMB, 1);
}

TEST(ComputePlacement, ReadRateCapIsSharedAcrossStreams) {
  // 500 MB local + 500 MB remote with a 100 MB/s pipeline: 10s total, so
  // each stream demands 50 MB/s.
  TaskSpec t;
  t.peak_cores = 1;
  t.peak_mem = 1 * kGB;
  t.max_io_bw = 100 * kMB;
  InputSplit local;
  local.bytes = 500 * kMB;
  local.replicas = {0};
  InputSplit remote;
  remote.bytes = 500 * kMB;
  remote.replicas = {1};
  t.inputs = {local, remote};
  const auto pd = compute_placement(t, 0, 1);
  EXPECT_DOUBLE_EQ(pd.duration, 10);
  EXPECT_NEAR(pd.local[Resource::kDiskRead], 50 * kMB, 1);
  EXPECT_NEAR(pd.local[Resource::kNetIn], 50 * kMB, 1);
}

TEST(ComputePlacement, RemoteLegsAggregatePerSourceMachine) {
  TaskSpec t;
  t.peak_cores = 1;
  t.peak_mem = 1;
  t.max_io_bw = 100 * kMB;
  for (int i = 0; i < 3; ++i) {
    InputSplit s;
    s.bytes = 100 * kMB;
    s.replicas = {i % 2};  // machines 0, 1, 0
    t.inputs.push_back(s);
  }
  const auto pd = compute_placement(t, /*host=*/7, 1);
  ASSERT_EQ(pd.remote.size(), 2u);
  double total = 0;
  for (const auto& leg : pd.remote) total += leg.disk_read;
  EXPECT_NEAR(total * pd.duration, 300 * kMB, 1e3);
}

TEST(ComputePlacement, MinimumDurationFloor) {
  TaskSpec t;
  t.peak_cores = 1;
  t.peak_mem = 1;
  t.cpu_cycles = 1e-9;
  const auto pd = compute_placement(t, 0, 1);
  EXPECT_DOUBLE_EQ(pd.duration, kMinTaskDuration);
}

TEST(ComputePlacement, DemandRatesTimesDurationEqualWork) {
  // Conservation: rate x duration recovers the byte counts, whatever leg
  // binds.
  const TaskSpec t = io_task(800, 300, 60);
  const auto pd = compute_placement(t, 0, 1);
  EXPECT_NEAR(pd.local[Resource::kDiskRead] * pd.duration, 800 * kMB, 1e3);
  EXPECT_NEAR(pd.local[Resource::kDiskWrite] * pd.duration, 300 * kMB, 1e3);
}

TEST(ComputeLocalPlacement, TreatsEveryByteAsLocal) {
  TaskSpec t = io_task(1000, 0, 100);
  t.inputs[0].replicas = {5};  // not the probe host; irrelevant here
  const auto pd = compute_local_placement(t);
  EXPECT_DOUBLE_EQ(pd.duration, 10);
  EXPECT_NEAR(pd.local[Resource::kDiskRead], 100 * kMB, 1);
  EXPECT_EQ(pd.local[Resource::kNetIn], 0);
}

TEST(ComputeLocalPlacement, CountsShuffleBytesSkipsGenerated) {
  TaskSpec t;
  t.peak_cores = 1;
  t.peak_mem = 1;
  t.max_io_bw = 100 * kMB;
  InputSplit shuffle;
  shuffle.bytes = 500 * kMB;
  shuffle.from_stage = 0;
  InputSplit generated;
  generated.bytes = 500 * kMB;  // no replicas, no from_stage
  t.inputs = {shuffle, generated};
  const auto pd = compute_local_placement(t);
  EXPECT_DOUBLE_EQ(pd.duration, 5);  // only the shuffle bytes are read
}

// Twins may share one cached probe, so compute_placement must really give
// them identical demands on every host, whatever their salts and the
// churn mask; a split with a choice of replicas disqualifies the pair,
// because its remote pick is hashed from the salt.
TEST(PlacementTwins, TwinsPlaceIdenticallyEverywhere) {
  TaskSpec a = io_task(300, 50);
  a.inputs.clear();
  for (MachineId m : {1, 3, 3}) {
    InputSplit piece;
    piece.bytes = 40 * kMB * (m + 1);
    piece.replicas = {m};
    a.inputs.push_back(piece);
  }
  InputSplit generated;
  generated.bytes = 10 * kMB;
  a.inputs.push_back(generated);
  const TaskSpec b = a;
  ASSERT_TRUE(placement_twins(a, b));
  std::vector<char> up(5, 1);
  up[0] = 0;
  const std::vector<const std::vector<char>*> masks = {nullptr, &up};
  for (MachineId host = 0; host < 5; ++host) {
    for (const std::vector<char>* mask : masks) {
      const PlacementDemand x = compute_placement(a, host, 7, mask);
      const PlacementDemand y = compute_placement(b, host, 991, mask);
      EXPECT_EQ(x.local, y.local) << host;
      EXPECT_EQ(x.duration, y.duration) << host;
      ASSERT_EQ(x.remote.size(), y.remote.size()) << host;
      for (std::size_t i = 0; i < x.remote.size(); ++i) {
        EXPECT_EQ(x.remote[i].machine, y.remote[i].machine) << host;
        EXPECT_EQ(x.remote[i].disk_read, y.remote[i].disk_read) << host;
      }
    }
  }

  TaskSpec c = b;
  c.inputs[0].bytes += 1;
  EXPECT_FALSE(placement_twins(a, c));
  c = b;
  c.peak_cores *= 2;
  EXPECT_FALSE(placement_twins(a, c));
  c = b;
  c.inputs.pop_back();
  EXPECT_FALSE(placement_twins(a, c));
  // Identical, but the first split can be read from two machines.
  TaskSpec multi = a;
  multi.inputs[0].replicas = {1, 2};
  EXPECT_FALSE(placement_twins(multi, multi));
}

TEST(LocalFraction, MixesLocalRemoteAndGenerated) {
  TaskSpec t;
  InputSplit local;
  local.bytes = 300;
  local.replicas = {2};
  InputSplit remote;
  remote.bytes = 100;
  remote.replicas = {9};
  InputSplit generated;
  generated.bytes = 100;  // generated counts as local
  t.inputs = {local, remote, generated};
  EXPECT_DOUBLE_EQ(local_fraction(t, 2), 0.8);
  EXPECT_DOUBLE_EQ(local_fraction(t, 9), 0.4);
  EXPECT_DOUBLE_EQ(local_fraction(t, 4), 0.2);
}

TEST(LocalFraction, NoInputIsFullyLocal) {
  TaskSpec t;
  EXPECT_DOUBLE_EQ(local_fraction(t, 0), 1.0);
}

// Property sweep across io bandwidths: duration equals the max over legs.
class PlacementLegTest : public ::testing::TestWithParam<double> {};

TEST_P(PlacementLegTest, DurationIsMaxOverLegs) {
  const double io = GetParam();
  TaskSpec t = io_task(/*in=*/600, /*out=*/200, io);
  t.cpu_cycles = 12;  // 12s on 1 core
  const auto pd = compute_placement(t, 0, 1);
  const double expect = std::max(
      {kMinTaskDuration, 12.0, 600.0 / io, 200.0 / io});
  EXPECT_NEAR(pd.duration, expect, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(IoBandwidths, PlacementLegTest,
                         ::testing::Values(10.0, 25.0, 50.0, 100.0, 400.0));

}  // namespace
}  // namespace tetris::sim
