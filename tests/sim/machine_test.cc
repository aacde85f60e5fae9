#include "sim/machine.h"

#include <gtest/gtest.h>

#include "util/units.h"

namespace tetris::sim {
namespace {

class MachineTest : public ::testing::Test {
 protected:
  InterferenceModel interference_;
  Resources cap_ = Resources::full(4, 8 * kGB, 100, 100, 125, 125);
  Machine machine_{0, cap_, &interference_};
};

TEST_F(MachineTest, StartsIdle) {
  EXPECT_EQ(machine_.num_tasks(), 0);
  EXPECT_TRUE(machine_.usage().is_zero());
  for (Resource r : all_resources()) EXPECT_EQ(machine_.share_ratio(r), 1.0);
}

TEST_F(MachineTest, UnderSubscribedGrantsFully) {
  Resources d;
  d[Resource::kCpu] = 2;
  d[Resource::kDiskRead] = 50;
  machine_.add_demand(1, d);
  EXPECT_EQ(machine_.grant_ratio(d), 1.0);
  EXPECT_EQ(machine_.usage()[Resource::kDiskRead], 50);
}

TEST_F(MachineTest, CpuOverSubscriptionSharesProportionally) {
  Resources d;
  d[Resource::kCpu] = 3;
  machine_.add_demand(1, d);
  machine_.add_demand(2, d);  // total 6 on 4 cores
  EXPECT_NEAR(machine_.share_ratio(Resource::kCpu), 4.0 / 6.0, 1e-12);
  EXPECT_NEAR(machine_.grant_ratio(d), 4.0 / 6.0, 1e-12);
}

TEST_F(MachineTest, CpuHasNoInterferencePenalty) {
  Resources d;
  d[Resource::kCpu] = 4;
  machine_.add_demand(1, d);
  machine_.add_demand(2, d);
  machine_.add_demand(3, d);
  // Pure proportional: 4 / 12, no degradation.
  EXPECT_NEAR(machine_.share_ratio(Resource::kCpu), 1.0 / 3.0, 1e-12);
}

TEST_F(MachineTest, DiskOverSubscriptionPaysSeekPenalty) {
  Resources d;
  d[Resource::kDiskRead] = 100;
  machine_.add_demand(1, d);
  machine_.add_demand(2, d);
  // eff = 100 * (1 - 0.06) = 94; ratio = 94/200.
  EXPECT_NEAR(machine_.share_ratio(Resource::kDiskRead), 0.47, 1e-9);
}

TEST_F(MachineTest, PenaltyFloorsAtMinEfficiency) {
  Resources d;
  d[Resource::kDiskRead] = 100;
  for (int i = 0; i < 30; ++i) machine_.add_demand(i, d);
  // 1 - 0.06*29 would be negative; the floor keeps eff at 0.4 * cap.
  EXPECT_NEAR(machine_.share_ratio(Resource::kDiskRead), 40.0 / 3000.0,
              1e-9);
}

TEST_F(MachineTest, NoPenaltyAtOrBelowCapacity) {
  Resources d;
  d[Resource::kDiskRead] = 50;
  machine_.add_demand(1, d);
  machine_.add_demand(2, d);  // exactly at capacity
  EXPECT_EQ(machine_.share_ratio(Resource::kDiskRead), 1.0);
}

TEST_F(MachineTest, RemoveDemandRestoresCapacity) {
  Resources d;
  d[Resource::kDiskRead] = 100;
  machine_.add_demand(1, d);
  machine_.add_demand(2, d);
  machine_.remove_demand(1);
  EXPECT_EQ(machine_.share_ratio(Resource::kDiskRead), 1.0);
  EXPECT_EQ(machine_.num_tasks(), 1);
}

TEST_F(MachineTest, DoubleAddThrows) {
  Resources d;
  d[Resource::kCpu] = 1;
  machine_.add_demand(1, d);
  EXPECT_THROW(machine_.add_demand(1, d), std::logic_error);
}

TEST_F(MachineTest, RemovingUnknownThrows) {
  EXPECT_THROW(machine_.remove_demand(99), std::logic_error);
}

TEST_F(MachineTest, MemoryOverCommitTriggersThrashing) {
  Resources d;
  d[Resource::kMem] = 5 * kGB;
  machine_.add_demand(1, d);
  EXPECT_FALSE(machine_.memory_thrashing());
  machine_.add_demand(2, d);  // 10 GB on 8 GB
  EXPECT_TRUE(machine_.memory_thrashing());
  Resources cpu_only;
  cpu_only[Resource::kCpu] = 1;
  EXPECT_NEAR(machine_.grant_ratio(cpu_only),
              interference_.mem_thrash_factor, 1e-12);
}

TEST_F(MachineTest, ExternalUsageSharesWithTasks) {
  Resources ext;
  ext[Resource::kDiskRead] = 100;  // the whole disk
  machine_.set_external_usage(ext);
  Resources d;
  d[Resource::kDiskRead] = 100;
  machine_.add_demand(1, d);
  // Two streams on a degraded disk: eff = 94, ratio = 94/200.
  EXPECT_NEAR(machine_.grant_ratio(d), 0.47, 1e-9);
}

TEST_F(MachineTest, ExternalUsageIsClampedToCapacity) {
  Resources ext;
  ext[Resource::kDiskRead] = 1e9;
  machine_.set_external_usage(ext);
  EXPECT_EQ(machine_.external_usage()[Resource::kDiskRead], 100);
}

TEST_F(MachineTest, UsageReportsOfferedLoadCappedAtCapacity) {
  // A saturated device shows 100% busy, not degraded goodput — otherwise
  // the tracker would see headroom on a contended machine.
  Resources d;
  d[Resource::kDiskRead] = 80;
  machine_.add_demand(1, d);
  machine_.add_demand(2, d);
  EXPECT_EQ(machine_.usage()[Resource::kDiskRead], 100);
  machine_.remove_demand(2);
  EXPECT_EQ(machine_.usage()[Resource::kDiskRead], 80);
}

TEST_F(MachineTest, UsageIncludesExternal) {
  Resources ext;
  ext[Resource::kNetIn] = 60;
  machine_.set_external_usage(ext);
  Resources d;
  d[Resource::kNetIn] = 30;
  machine_.add_demand(1, d);
  EXPECT_EQ(machine_.usage()[Resource::kNetIn], 90);
}

TEST_F(MachineTest, GrantRatioIgnoresUndemandedDimensions) {
  // Saturate the disk with task 1; a cpu-only task is unaffected.
  Resources disk;
  disk[Resource::kDiskRead] = 300;
  machine_.add_demand(1, disk);
  Resources cpu;
  cpu[Resource::kCpu] = 1;
  EXPECT_EQ(machine_.grant_ratio(cpu), 1.0);
  EXPECT_LT(machine_.grant_ratio(disk), 1.0);
}

TEST_F(MachineTest, IncastPenaltyOnNetworkIn) {
  Resources d;
  d[Resource::kNetIn] = 125;
  machine_.add_demand(1, d);
  machine_.add_demand(2, d);
  // eff = 125 * (1 - 0.04), ratio = eff / 250.
  EXPECT_NEAR(machine_.share_ratio(Resource::kNetIn), 125 * 0.96 / 250,
              1e-9);
}

TEST_F(MachineTest, SetCapacityReSharesDemand) {
  // The rack-uplink path: an uplink's capacity shrinks under its running
  // flows when a member fails and grows back when the member recovers.
  Resources d;
  d[Resource::kNetIn] = 100;
  machine_.add_demand(1, d);
  ASSERT_EQ(machine_.grant_ratio(d), 1.0);
  Resources shrunk = cap_;
  shrunk[Resource::kNetIn] = 50;
  machine_.set_capacity(shrunk);
  EXPECT_LT(machine_.grant_ratio(d), 1.0);
  EXPECT_EQ(machine_.grant_ratio(d), machine_.share_ratio(Resource::kNetIn));
  machine_.set_capacity(cap_);
  EXPECT_EQ(machine_.grant_ratio(d), 1.0);

  // The same round trip through external usage: 200 MB/s on 125.
  Resources ext;
  ext[Resource::kNetIn] = 100;
  machine_.set_external_usage(ext);
  EXPECT_LT(machine_.grant_ratio(d), 1.0);
  EXPECT_EQ(machine_.grant_ratio(d), machine_.share_ratio(Resource::kNetIn));
  machine_.set_external_usage(Resources{});
  EXPECT_EQ(machine_.grant_ratio(d), 1.0);
}

TEST_F(MachineTest, NullInterferenceModelRejected) {
  EXPECT_THROW(Machine(1, cap_, nullptr), std::invalid_argument);
}

TEST(InterferenceModel, EffectiveCapacityOnlyDegradesWhenOver) {
  InterferenceModel m;
  EXPECT_EQ(m.effective_capacity(Resource::kDiskRead, 100, 5, 99), 100);
  EXPECT_EQ(m.effective_capacity(Resource::kDiskRead, 100, 1, 500), 100);
  EXPECT_LT(m.effective_capacity(Resource::kDiskRead, 100, 2, 150), 100);
  // CPU and memory never degrade.
  EXPECT_EQ(m.effective_capacity(Resource::kCpu, 16, 10, 100), 16);
  EXPECT_EQ(m.effective_capacity(Resource::kMem, 32, 10, 100), 32);
}

}  // namespace
}  // namespace tetris::sim
