// Failover under churn (DESIGN.md §14): killing a cell mid-run turns the
// whole cell into scripted machine outages, the dispatcher re-admits
// every unfinished job to a survivor, and nothing lands on the dead span
// afterwards. Zero jobs may be lost as long as one cell survives, and the
// churn counters must reconcile with the kill.
#include <gtest/gtest.h>

#include <limits>
#include <vector>

#include "federation/federated_simulator.h"
#include "sim/simulator.h"
#include "workload/facebook.h"
#include "workload/profiles.h"

namespace tetris::federation {
namespace {

FederationConfig two_cell_config(int machines) {
  FederationConfig fc;
  fc.base.num_machines = machines;
  fc.base.machine_capacity = workload::facebook_machine();
  fc.base.cells = {{0, machines / 2}, {machines / 2, machines}};
  fc.policy = DispatchPolicy::kLeastLoaded;
  return fc;
}

sim::Workload spread_workload(int jobs, int machines) {
  workload::FacebookConfig cfg;
  cfg.num_jobs = jobs;
  cfg.num_machines = machines;
  cfg.task_scale = 0.3;
  cfg.arrival_window = 400;
  cfg.seed = 3;
  return workload::make_facebook_workload(cfg);
}

TEST(FederationFailoverTest, CellKillLosesNoJobs) {
  const int kMachines = 10;
  const double kKillAt = 120.0;
  const sim::Workload w = spread_workload(30, kMachines);

  FederationConfig fc = two_cell_config(kMachines);
  fc.kills = {{0, kKillAt}};
  const FederatedResult fed = simulate_federated(fc, w);

  // Baseline (no kill) must route work to both cells, so the kill below
  // actually has jobs to fail over.
  const FederatedResult calm =
      simulate_federated(two_cell_config(kMachines), w);
  ASSERT_TRUE(calm.completed);
  int calm_on_dead = 0;
  for (int c : calm.job_cell) calm_on_dead += c == 0 ? 1 : 0;
  ASSERT_GT(calm_on_dead, 0) << "workload never touches the doomed cell";

  // The headline: a surviving cell exists, so not a single job is lost,
  // and everything completes (re-runs included).
  EXPECT_EQ(fed.lost_jobs, 0);
  EXPECT_EQ(fed.unfinished_jobs, 0);
  EXPECT_TRUE(fed.completed);
  EXPECT_GT(fed.reassigned_jobs, 0) << "kill at " << kKillAt
                                    << " caught no in-flight jobs";
  EXPECT_EQ(static_cast<long>(fed.job_records.size()), fed.jobs);
  for (const auto& j : fed.job_records) {
    EXPECT_GE(j.finish, 0.0) << "job " << j.id << " never finished";
  }

  // No placement on the dead span after the kill: any task record with a
  // host in cell 0 belongs to a job that finished at or before the kill
  // (task records come from each job's final cell).
  const int dead_end = fc.base.cells[0].end;
  for (const auto& t : fed.tasks) {
    if (t.host < dead_end) {
      EXPECT_LE(t.start, kKillAt) << "task started on the dead cell";
      EXPECT_LE(t.finish, kKillAt)
          << "task survived the cell it was placed on";
      EXPECT_EQ(fed.job_cell[static_cast<std::size_t>(t.job)], 0);
    } else {
      EXPECT_EQ(fed.job_cell[static_cast<std::size_t>(t.job)], 1);
    }
  }
  // Every reassigned job's final cell is the survivor.
  long on_survivor = 0;
  for (int c : fed.job_cell) {
    ASSERT_GE(c, 0);
    on_survivor += c == 1 ? 1 : 0;
  }
  EXPECT_GT(on_survivor, 0);

  // Churn reconciliation: exactly the dead cell's machines failed, none
  // recovered (the scripted recovery sits past max_time), and the lost
  // work shows up in the counters of the dead cell only.
  EXPECT_EQ(fed.churn.machines_failed, fc.base.cells[0].size());
  EXPECT_EQ(fed.churn.machines_recovered, 0);
  EXPECT_EQ(fed.cells[1].churn.machines_failed, 0);
  EXPECT_EQ(fed.cells[0].churn.machines_failed, fc.base.cells[0].size());
  EXPECT_GE(fed.churn.task_attempts_lost, 0);
  // The kill lands exactly at the dead cell's end_time, so its
  // time-weighted effective capacity stays at 1.0 (zero-width outage
  // window); the survivor never churns at all.
  EXPECT_LE(fed.cells[0].churn.effective_capacity, 1.0);
  EXPECT_DOUBLE_EQ(fed.cells[1].churn.effective_capacity, 1.0);
}

// A kill's recovery time must stay finite under any valid max_time, the
// largest double included, and the largest double is no kill time.
TEST(FederationFailoverTest, CellKillUnderTheLargestMaxTime) {
  const int kMachines = 10;
  const sim::Workload w = spread_workload(30, kMachines);

  FederationConfig fc = two_cell_config(kMachines);
  fc.kills = {{0, 120.0}};
  const FederatedResult bounded = simulate_federated(fc, w);

  fc.base.max_time = std::numeric_limits<double>::max();
  const FederatedResult fed = simulate_federated(fc, w);
  EXPECT_TRUE(fed.completed);
  EXPECT_EQ(fed.lost_jobs, 0);
  EXPECT_GT(fed.reassigned_jobs, 0);
  // Neither run reaches its max_time, so the two schedules agree.
  EXPECT_EQ(fed.reassigned_jobs, bounded.reassigned_jobs);
  EXPECT_EQ(fed.makespan, bounded.makespan);
  EXPECT_EQ(fed.churn.machines_failed, kMachines / 2);
  EXPECT_EQ(fed.churn.machines_recovered, 0);

  fc.kills = {{0, std::numeric_limits<double>::max()}};
  EXPECT_THROW(simulate_federated(fc, w), std::invalid_argument);
}

TEST(FederationFailoverTest, KillingEveryCellLosesTheBacklog) {
  const int kMachines = 8;
  const sim::Workload w = spread_workload(16, kMachines);

  FederationConfig fc = two_cell_config(kMachines);
  fc.kills = {{0, 50.0}, {1, 50.0}};
  const FederatedResult fed = simulate_federated(fc, w);

  EXPECT_FALSE(fed.completed);
  // Jobs arriving after the last cell died have nowhere to go.
  EXPECT_GT(fed.lost_jobs, 0);
  for (std::size_t g = 0; g < fed.job_records.size(); ++g) {
    if (fed.job_cell[g] == -1) {
      EXPECT_LT(fed.job_records[g].finish, 0.0);
    }
  }
  EXPECT_EQ(fed.churn.machines_failed, kMachines);
}

TEST(FederationFailoverTest, LateKillAfterCompletionIsANoOp) {
  const int kMachines = 8;
  const sim::Workload w = spread_workload(10, kMachines);

  FederationConfig calm = two_cell_config(kMachines);
  const FederatedResult base = simulate_federated(calm, w);
  ASSERT_TRUE(base.completed);

  FederationConfig fc = two_cell_config(kMachines);
  fc.kills = {{0, base.makespan + 10000.0}};
  const FederatedResult fed = simulate_federated(fc, w);

  EXPECT_TRUE(fed.completed);
  EXPECT_EQ(fed.reassigned_jobs, 0);
  EXPECT_EQ(fed.makespan, base.makespan);
}

}  // namespace
}  // namespace tetris::federation
