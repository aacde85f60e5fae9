// Federation layer (DESIGN.md §14): cell slicing, job remapping,
// feasibility pinning, dispatcher policies, and the headline contract —
// a 1-cell federation is BIT-IDENTICAL to the global scheduler
// (placements, makespan, decision trace), so every multi-cell delta in
// the E26 sweep is dispatcher-induced packing loss, not plumbing noise.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "core/tetris_scheduler.h"
#include "federation/cell.h"
#include "federation/dispatcher.h"
#include "federation/federated_simulator.h"
#include "sim/simulator.h"
#include "trace/replayer.h"
#include "workload/facebook.h"
#include "workload/profiles.h"

namespace tetris::federation {
namespace {

sim::SimConfig small_cluster(int machines) {
  sim::SimConfig cfg;
  cfg.num_machines = machines;
  cfg.machine_capacity = workload::facebook_machine();
  return cfg;
}

sim::Workload small_workload(int jobs, int machines) {
  workload::FacebookConfig cfg;
  cfg.num_jobs = jobs;
  cfg.num_machines = machines;
  cfg.task_scale = 0.3;
  cfg.arrival_window = 250;
  cfg.seed = 1;
  return workload::make_facebook_workload(cfg);
}

TEST(CellConfigTest, SlicesCapacitiesLabelsSeedAndChurn) {
  sim::SimConfig base = small_cluster(8);
  base.seed = 41;
  base.machine_labels.assign(8, {});
  base.machine_labels[5] = {"gpu"};
  base.churn.scripted = {{1, 10.0, 20.0}, {6, 30.0, 40.0}};
  base.activities = {{2, 0.0, 5.0, {}}};
  base.cells = {{0, 4}, {4, 8}};

  const sim::SimConfig c1 = make_cell_config(base, base.cells[1], 1);
  EXPECT_EQ(c1.num_machines, 4);
  EXPECT_EQ(c1.machine_capacities.size(), 4u);
  EXPECT_TRUE(c1.cells.empty());
  EXPECT_EQ(c1.seed, 42u);
  ASSERT_EQ(c1.machine_labels.size(), 4u);
  EXPECT_EQ(c1.machine_labels[1], std::vector<std::string>{"gpu"});
  // Only machine 6's outage lands in the cell, remapped to local id 2.
  ASSERT_EQ(c1.churn.scripted.size(), 1u);
  EXPECT_EQ(c1.churn.scripted[0].machine, 2);
  EXPECT_EQ(c1.churn.scripted[0].down_at, 30.0);
  EXPECT_TRUE(c1.activities.empty());

  const sim::SimConfig c0 = make_cell_config(base, base.cells[0], 0);
  EXPECT_EQ(c0.seed, 41u);  // cell 0 keeps the base seed (1-cell identity)
  ASSERT_EQ(c0.churn.scripted.size(), 1u);
  EXPECT_EQ(c0.churn.scripted[0].machine, 1);
  ASSERT_EQ(c0.activities.size(), 1u);
  EXPECT_EQ(c0.activities[0].machine, 2);
}

TEST(CellConfigTest, RemapsReplicasIntoSpan) {
  sim::JobSpec job;
  job.stages.emplace_back();
  job.stages[0].tasks.emplace_back();
  job.stages[0].tasks[0].inputs = {{100.0, {5, 2}, -1}};
  const sim::CellSpec span{4, 8};

  const sim::JobSpec out = remap_job_for_cell(job, span);
  const auto& reps = out.stages[0].tasks[0].inputs[0].replicas;
  // 5 is inside [4,8) -> local 1; 2 is outside -> surrogate 2 % 4 = 2.
  EXPECT_EQ(reps, (std::vector<sim::MachineId>{1, 2}));
  for (sim::MachineId r : reps) {
    EXPECT_GE(r, 0);
    EXPECT_LT(r, span.size());
  }
}

TEST(CellConfigTest, FeasibilityPinsLabelConstrainedJobs) {
  sim::SimConfig base = small_cluster(8);
  base.machine_labels.assign(8, {});
  base.machine_labels[6] = {"gpu"};
  base.cells = {{0, 4}, {4, 8}};

  sim::JobSpec job;
  job.stages.emplace_back();
  job.stages[0].constraint.require_labels = {"gpu"};
  job.stages[0].tasks.emplace_back();

  EXPECT_FALSE(cell_feasible(job, base, base.cells[0]));
  EXPECT_TRUE(cell_feasible(job, base, base.cells[1]));

  sim::JobSpec anywhere;
  anywhere.stages.emplace_back();
  anywhere.stages[0].tasks.emplace_back();
  EXPECT_TRUE(cell_feasible(anywhere, base, base.cells[0]));

  sim::JobSpec banned;
  banned.stages.emplace_back();
  banned.stages[0].constraint.forbid_labels = {"gpu"};
  banned.stages[0].tasks.emplace_back();
  EXPECT_TRUE(cell_feasible(banned, base, base.cells[1]));
}

TEST(CellConfigTest, InputBytesCountsResidentSplits) {
  sim::JobSpec job;
  job.stages.emplace_back();
  job.stages[0].tasks.emplace_back();
  job.stages[0].tasks[0].inputs = {{100.0, {1}, -1},     // in [0,4)
                                   {10.0, {6}, -1},      // in [4,8)
                                   {1.0, {1, 6}, -1}};   // both
  EXPECT_DOUBLE_EQ(cell_input_bytes(job, {0, 4}), 101.0);
  EXPECT_DOUBLE_EQ(cell_input_bytes(job, {4, 8}), 11.0);
}

sim::EngineLoad load_with(int tasks, int up) {
  sim::EngineLoad l;
  l.up_machines = up;
  l.machines = up;
  l.runnable_tasks = tasks;
  return l;
}

TEST(DispatcherTest, RoundRobinCyclesAndSkipsInfeasible) {
  Dispatcher d(DispatchPolicy::kRoundRobin, 1);
  const std::vector<sim::EngineLoad> loads(4);
  const std::vector<double> bytes(4, 0.0);
  EXPECT_EQ(d.pick({0, 1, 2, 3}, loads, bytes), 0);
  EXPECT_EQ(d.pick({0, 1, 2, 3}, loads, bytes), 1);
  // Cell 2 infeasible: the cursor skips to the next admissible cell.
  EXPECT_EQ(d.pick({0, 1, 3}, loads, bytes), 3);
  EXPECT_EQ(d.pick({0, 1, 2, 3}, loads, bytes), 0);
}

TEST(DispatcherTest, LeastLoadedNormalizesByUpMachines) {
  Dispatcher d(DispatchPolicy::kLeastLoaded, 1);
  // 12 tasks / 8 up = 1.5 vs 4 tasks / 2 up = 2.0: big cell wins even
  // with more absolute backlog.
  const std::vector<sim::EngineLoad> loads = {load_with(12, 8),
                                              load_with(4, 2)};
  EXPECT_EQ(d.pick({0, 1}, loads, {0.0, 0.0}), 0);
  // Ties break to the lower cell index.
  const std::vector<sim::EngineLoad> even = {load_with(4, 4),
                                             load_with(4, 4)};
  EXPECT_EQ(d.pick({0, 1}, even, {0.0, 0.0}), 0);
}

TEST(DispatcherTest, PowerOfTwoPicksLessLoadedOfTwoAndIsSeeded) {
  const std::vector<sim::EngineLoad> loads = {load_with(9, 1),
                                              load_with(1, 1),
                                              load_with(5, 1)};
  Dispatcher a(DispatchPolicy::kPowerOfTwo, 7);
  Dispatcher b(DispatchPolicy::kPowerOfTwo, 7);
  for (int i = 0; i < 32; ++i) {
    const int pa = a.pick({0, 1, 2}, loads, {0, 0, 0});
    const int pb = b.pick({0, 1, 2}, loads, {0, 0, 0});
    EXPECT_EQ(pa, pb) << "same seed must give the same stream";
    // The heaviest cell can only win a (0,2) draw over... never: any pair
    // containing 0 prefers the other member, so 0 is never picked.
    EXPECT_NE(pa, 0);
  }
}

TEST(DispatcherTest, LocalityMaximizesResidentBytes) {
  Dispatcher d(DispatchPolicy::kLocalityAware, 1);
  const std::vector<sim::EngineLoad> loads = {load_with(0, 4),
                                              load_with(9, 4)};
  // Cell 1 holds more of the job's input: locality beats load.
  EXPECT_EQ(d.pick({0, 1}, loads, {10.0, 200.0}), 1);
  // Byte ties fall back to least-loaded.
  EXPECT_EQ(d.pick({0, 1}, loads, {50.0, 50.0}), 0);
}

TEST(FederatedSimulatorTest, RejectsMissingOrInvalidPartition) {
  const sim::Workload w = small_workload(4, 8);
  FederationConfig fc;
  fc.base = small_cluster(8);
  EXPECT_THROW(simulate_federated(fc, w), std::invalid_argument);

  fc.base.cells = {{0, 4}, {5, 8}};  // gap: machine 4 unowned
  EXPECT_THROW(simulate_federated(fc, w), std::invalid_argument);

  fc.base.cells = {{0, 4}, {4, 8}};
  fc.kills = {{2, 10.0}};  // no such cell
  EXPECT_THROW(simulate_federated(fc, w), std::invalid_argument);
}

// The headline contract: one cell spanning the whole cluster reproduces
// the global scheduler bit for bit — job records, task placements,
// makespan, and the decision-level trace stream.
TEST(FederatedSimulatorTest, OneCellIsBitIdenticalToGlobalScheduler) {
  const int kMachines = 10;
  const sim::Workload w =
      sim::sorted_by_arrival(small_workload(30, kMachines));

  sim::SimConfig global_cfg = small_cluster(kMachines);
  global_cfg.collect_timeline = true;
  global_cfg.trace.enabled = true;
  global_cfg.trace.max_chunks = 1024;

  core::TetrisScheduler global_sched((core::TetrisConfig()));
  const sim::SimResult global = sim::simulate(global_cfg, w, global_sched);

  FederationConfig fc;
  fc.base = global_cfg;
  fc.base.cells = {{0, kMachines}};
  const FederatedResult fed = simulate_federated(fc, w);

  EXPECT_TRUE(global.completed);
  EXPECT_TRUE(fed.completed);
  EXPECT_EQ(fed.reassigned_jobs, 0);
  EXPECT_EQ(fed.lost_jobs, 0);
  EXPECT_EQ(fed.makespan, global.makespan);

  ASSERT_EQ(fed.job_records.size(), global.jobs.size());
  for (std::size_t i = 0; i < global.jobs.size(); ++i) {
    EXPECT_EQ(fed.job_records[i].id, global.jobs[i].id) << "job " << i;
    EXPECT_EQ(fed.job_records[i].arrival, global.jobs[i].arrival)
        << "job " << i;
    EXPECT_EQ(fed.job_records[i].finish, global.jobs[i].finish)
        << "job " << i;
    EXPECT_EQ(fed.job_cell[i], 0);
  }

  ASSERT_EQ(fed.tasks.size(), global.tasks.size());
  for (std::size_t i = 0; i < global.tasks.size(); ++i) {
    const auto& a = global.tasks[i];
    const auto& b = fed.tasks[i];
    EXPECT_EQ(a.job, b.job) << "task " << i;
    EXPECT_EQ(a.stage, b.stage) << "task " << i;
    EXPECT_EQ(a.index, b.index) << "task " << i;
    EXPECT_EQ(a.host, b.host) << "task " << i;
    EXPECT_EQ(a.start, b.start) << "task " << i;
    EXPECT_EQ(a.finish, b.finish) << "task " << i;
  }

  // Decision-for-decision: the cell's trace is the global trace.
  ASSERT_EQ(fed.cells.size(), 1u);
  const trace::Divergence d =
      trace::first_divergence(global.trace_log, fed.cells[0].trace_log,
                              trace::CompareMode::kDecisions);
  EXPECT_TRUE(d.identical) << d.description;
}

TEST(FederatedSimulatorTest, MultiCellCompletesWithHostsInOwnSpan) {
  const int kMachines = 12;
  const sim::Workload w = small_workload(24, kMachines);

  FederationConfig fc;
  fc.base = small_cluster(kMachines);
  fc.base.cells = {{0, 4}, {4, 8}, {8, 12}};
  fc.policy = DispatchPolicy::kLeastLoaded;
  const FederatedResult fed = simulate_federated(fc, w);

  EXPECT_TRUE(fed.completed);
  EXPECT_EQ(fed.jobs, 24);
  EXPECT_EQ(fed.lost_jobs, 0);
  EXPECT_EQ(fed.unfinished_jobs, 0);
  EXPECT_GT(fed.makespan, 0.0);
  EXPECT_GT(fed.avg_jct, 0.0);
  ASSERT_EQ(fed.cell_utilization.size(), 3u);
  EXPECT_GT(fed.avg_utilization, 0.0);
  EXPECT_LE(fed.avg_utilization, 1.0);
  EXPECT_DOUBLE_EQ(fed.fragmentation, 1.0 - fed.avg_utilization);
  EXPECT_GE(fed.utilization_skew, 0.0);

  // Every task of every job ran inside its job's final cell.
  for (const auto& t : fed.tasks) {
    const int c = fed.job_cell[static_cast<std::size_t>(t.job)];
    ASSERT_GE(c, 0);
    EXPECT_GE(t.host, fc.base.cells[static_cast<std::size_t>(c)].begin);
    EXPECT_LT(t.host, fc.base.cells[static_cast<std::size_t>(c)].end);
  }
}

TEST(FederatedSimulatorTest, LabelConstrainedJobLandsOnItsOnlyFeasibleCell) {
  const int kMachines = 8;
  sim::Workload w = small_workload(8, kMachines);
  // One job needs "gpu", declared only inside cell 1's span.
  sim::JobSpec gpu_job = w.jobs[0];
  gpu_job.name = "needs-gpu";
  gpu_job.arrival = 0;
  for (auto& stage : gpu_job.stages) {
    stage.constraint.require_labels = {"gpu"};
  }
  w.jobs.push_back(gpu_job);

  FederationConfig fc;
  fc.base = small_cluster(kMachines);
  fc.base.machine_labels.assign(kMachines, {});
  fc.base.machine_labels[6] = {"gpu"};
  fc.base.cells = {{0, 4}, {4, 8}};
  // Round-robin would spread blindly; feasibility must still pin.
  fc.policy = DispatchPolicy::kRoundRobin;
  const FederatedResult fed = simulate_federated(fc, w);

  ASSERT_EQ(fed.job_records.size(), w.jobs.size());
  bool saw_gpu_job = false;
  for (std::size_t g = 0; g < fed.job_records.size(); ++g) {
    if (fed.job_records[g].name != "needs-gpu") continue;
    saw_gpu_job = true;
    EXPECT_EQ(fed.job_cell[g], 1) << "gpu job must land on the gpu cell";
    EXPECT_GE(fed.job_records[g].finish, 0.0);
  }
  EXPECT_TRUE(saw_gpu_job);
}

TEST(FederatedSimulatorTest, LocalityPolicyFollowsInputBytes) {
  const int kMachines = 8;
  sim::Workload w;
  // Two one-task jobs, each with all input replicated inside one span.
  for (int k = 0; k < 2; ++k) {
    sim::JobSpec job;
    job.name = "reader-" + std::to_string(k);
    job.arrival = k;
    job.stages.emplace_back();
    sim::TaskSpec task;
    task.cpu_cycles = 10;
    task.inputs = {{500 * kMB, {k == 0 ? 1 : 6}, -1}};
    job.stages[0].tasks.push_back(task);
    w.jobs.push_back(job);
  }

  FederationConfig fc;
  fc.base = small_cluster(kMachines);
  fc.base.cells = {{0, 4}, {4, 8}};
  fc.policy = DispatchPolicy::kLocalityAware;
  const FederatedResult fed = simulate_federated(fc, w);

  EXPECT_TRUE(fed.completed);
  EXPECT_EQ(fed.job_cell[0], 0);  // replica on machine 1
  EXPECT_EQ(fed.job_cell[1], 1);  // replica on machine 6
}

}  // namespace
}  // namespace tetris::federation
