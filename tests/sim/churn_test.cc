// Machine churn: scripted outages kill and requeue tasks, down machines
// refuse placements, replica loss blocks tasks until recovery, the churn
// counters reconcile with the injected events, and runs with identical
// seed + churn config are bit-for-bit deterministic.
#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>

#include "core/tetris_scheduler.h"
#include "sim/simulator.h"
#include "util/units.h"
#include "workload/facebook.h"
#include "workload/profiles.h"

namespace tetris::sim {
namespace {

// Greedy test scheduler: places every runnable task on the first machine
// where all dimensions fit (same as the simulator tests).
class GreedyFitScheduler final : public Scheduler {
 public:
  std::string name() const override { return "greedy-fit"; }
  void schedule(SchedulerContext& ctx) override {
    auto groups = ctx.runnable_groups();
    for (auto& g : groups) {
      while (g.runnable > 0) {
        bool placed = false;
        for (int m = 0; m < ctx.num_machines() && !placed; ++m) {
          if (!ctx.machine_up(m)) continue;
          Probe p = ctx.probe(g.ref, m);
          if (!p.valid) return;
          if (!p.demand.fits_within(ctx.available(m))) continue;
          if (ctx.place(p)) {
            g.runnable--;
            placed = true;
          }
        }
        if (!placed) break;
      }
    }
  }
};

TaskSpec cpu_task(double cores, double mem_gb, double seconds) {
  TaskSpec t;
  t.peak_cores = cores;
  t.peak_mem = mem_gb * kGB;
  t.cpu_cycles = cores * seconds;
  return t;
}

SimConfig small_cluster(int machines) {
  SimConfig cfg;
  cfg.num_machines = machines;
  cfg.machine_capacity =
      Resources::full(4, 8 * kGB, 100 * kMB, 100 * kMB, 125 * kMB, 125 * kMB);
  cfg.heartbeat_period = 0.5;
  return cfg;
}

TEST(Churn, ScriptedOutageKillsRequeuesAndAccounts) {
  // One machine, one 20s task. The machine dies at t=5 (5s of work lost,
  // attempt requeued) and recovers at t=8; the retry runs 8..28.
  Workload w;
  JobSpec job;
  job.stages.push_back({"s", {cpu_task(2, 1, 20)}, {}});
  w.jobs.push_back(job);

  SimConfig cfg = small_cluster(1);
  cfg.churn.scripted = {{0, 5.0, 8.0}};

  GreedyFitScheduler sched;
  const SimResult r = simulate(cfg, w, sched);

  ASSERT_TRUE(r.completed);
  ASSERT_EQ(r.tasks.size(), 1u);
  EXPECT_EQ(r.tasks[0].attempts, 2);
  EXPECT_NEAR(r.tasks[0].start, 8.0, 0.6);
  EXPECT_NEAR(r.tasks[0].finish, 28.0, 0.6);
  EXPECT_EQ(r.churn.machines_failed, 1);
  EXPECT_EQ(r.churn.machines_recovered, 1);
  EXPECT_EQ(r.churn.task_attempts_lost, 1);
  EXPECT_NEAR(r.churn.work_lost_seconds, 5.0, 0.6);
  // 3s of the ~28s run with the only machine down.
  EXPECT_LT(r.churn.effective_capacity, 1.0);
  EXPECT_NEAR(r.churn.effective_capacity, 1.0 - 3.0 / 28.0, 0.05);
}

TEST(Churn, NoPlacementOnDownMachineDuringOutage) {
  // Machine 1 is down for [0, 30): every attempt overlapping that window
  // must run on machine 0. Machine-filling 4-core tasks force spillover
  // to machine 1 as soon as it returns.
  Workload w;
  JobSpec job;
  StageSpec s;
  s.name = "s";
  for (int i = 0; i < 8; ++i) s.tasks.push_back(cpu_task(4, 1, 10));
  job.stages.push_back(s);
  w.jobs.push_back(job);

  SimConfig cfg = small_cluster(2);
  cfg.churn.scripted = {{1, 0.0, 30.0}};

  GreedyFitScheduler sched;
  const SimResult r = simulate(cfg, w, sched);

  ASSERT_TRUE(r.completed);
  bool used_machine_1 = false;
  for (const auto& t : r.tasks) {
    if (t.host == 1) {
      used_machine_1 = true;
      // Successful attempts never overlap the outage window on host 1
      // (an attempt caught by the failure would have been requeued).
      EXPECT_GE(t.start, 30.0 - 1e-9);
    }
  }
  EXPECT_TRUE(used_machine_1);
  EXPECT_EQ(r.churn.machines_failed, 1);
  EXPECT_EQ(r.churn.machines_recovered, 1);
  // Nothing ran on machine 1 before the failure hit at t=0.
  EXPECT_EQ(r.churn.task_attempts_lost, 0);
  EXPECT_EQ(r.churn.work_lost_seconds, 0.0);
}

TEST(Churn, TaskBlocksUntilSoleReplicaRecovers) {
  // The task's only input replica lives on machine 1, which is down until
  // t=15. Machine 0 is idle the whole time, but the task cannot start
  // anywhere until the replica host returns.
  Workload w;
  JobSpec job;
  TaskSpec t = cpu_task(2, 1, 5);
  InputSplit split;
  split.bytes = 10 * kMB;
  split.replicas = {1};
  t.inputs.push_back(split);
  job.stages.push_back({"s", {t}, {}});
  w.jobs.push_back(job);

  SimConfig cfg = small_cluster(2);
  cfg.churn.scripted = {{1, 0.0, 15.0}};

  GreedyFitScheduler sched;
  const SimResult r = simulate(cfg, w, sched);

  ASSERT_TRUE(r.completed);
  ASSERT_EQ(r.tasks.size(), 1u);
  EXPECT_GE(r.tasks[0].start, 15.0 - 1e-9);
  // Recovery unblocks it promptly (the up-event triggers a pass).
  EXPECT_LT(r.tasks[0].start, 16.0);
}

TEST(Churn, RemoteReaderFailsOverToSurvivingReplica) {
  // The task runs on machine 0 streaming a 500 MB split whose replicas
  // live on machines 1 and 2. Machine 1 dies mid-read: whichever replica
  // the read resolved to, the attempt must survive — either untouched
  // (it was reading from 2) or failed over to the surviving replica with
  // its progress intact. A kill-and-requeue would show attempts == 2.
  Workload w;
  JobSpec job;
  TaskSpec t = cpu_task(1, 1, 0.5);
  InputSplit split;
  split.bytes = 500 * kMB;
  split.replicas = {1, 2};
  t.inputs.push_back(split);
  job.stages.push_back({"s", {t}, {}});
  w.jobs.push_back(job);

  SimConfig cfg = small_cluster(3);
  cfg.churn.scripted = {{1, 2.0, 100.0}};

  GreedyFitScheduler sched;
  const SimResult r = simulate(cfg, w, sched);

  ASSERT_TRUE(r.completed);
  ASSERT_EQ(r.tasks.size(), 1u);
  EXPECT_EQ(r.tasks[0].attempts, 1);
  EXPECT_EQ(r.tasks[0].host, 0);
  // ~5s of reading at 100 MB/s; far less than waiting for the recovery
  // at t=100 or redoing the read from scratch after t=2.
  EXPECT_LT(r.tasks[0].finish, 7.5);
  EXPECT_EQ(r.churn.task_attempts_lost, 0);
  EXPECT_LE(r.churn.read_failovers, 1);
}

TEST(Churn, BackgroundActivitiesSuspendWithTheirMachine) {
  // Machine 0 is down for [30, 60). Three activities on it, each on its
  // own resource so the cluster utilization tells them apart: disk reads
  // over [0, 100) span the outage, disk writes over [40, 100) start during
  // it, network sends over [10, 50) end during it. A CPU-only task keeps
  // the run going (killed on machine 0 at t=30, it reruns on machine 1).
  Workload w;
  JobSpec job;
  StageSpec stage;
  stage.tasks = {cpu_task(1, 1, 120)};
  job.stages.push_back(stage);
  w.jobs.push_back(job);

  SimConfig cfg = small_cluster(2);
  cfg.churn.scripted = {{0, 30.0, 60.0}};
  cfg.collect_timeline = true;
  cfg.timeline_period = 5.0;
  Resources reads, writes, sends;
  reads[Resource::kDiskRead] = 50 * kMB;
  writes[Resource::kDiskWrite] = 40 * kMB;
  sends[Resource::kNetOut] = 25 * kMB;
  cfg.activities = {{0, 0.0, 100.0, reads},
                    {0, 40.0, 100.0, writes},
                    {0, 10.0, 50.0, sends}};

  GreedyFitScheduler sched;
  const SimResult r = simulate(cfg, w, sched);
  ASSERT_TRUE(r.completed);
  EXPECT_EQ(r.churn.machines_failed, 1);

  // Cluster capacity: 200 MB/s of disk each way, 250 MB/s of network out.
  const auto util = [&](SimTime t, Resource res) {
    for (const auto& s : r.timeline) {
      if (s.time == t) return s.utilization[static_cast<std::size_t>(res)];
    }
    ADD_FAILURE() << "no timeline sample at t=" << t;
    return -1.0;
  };
  struct Expect {
    SimTime t;
    double reads, writes, sends;
  };
  const Expect expected[] = {
      {20, 0.25, 0, 0.1},   // before the outage: reads and sends
      {45, 0, 0, 0},        // down: nothing counts, writes start unseen
      {55, 0, 0, 0},        // down: sends end unseen
      {70, 0.25, 0.2, 0},   // recovered: reads resume, writes appear
      {95, 0.25, 0.2, 0},   //   and sends never come back
      {105, 0, 0, 0},       // every window has closed
  };
  for (const Expect& e : expected) {
    EXPECT_NEAR(util(e.t, Resource::kDiskRead), e.reads, 1e-12) << e.t;
    EXPECT_NEAR(util(e.t, Resource::kDiskWrite), e.writes, 1e-12) << e.t;
    EXPECT_NEAR(util(e.t, Resource::kNetOut), e.sends, 1e-12) << e.t;
  }
}

TEST(Churn, AttemptAccountingReconcilesUnderRandomChurn) {
  // Every kill increments exactly one task's attempt counter: the sum of
  // extra attempts over all tasks equals task_attempts_lost.
  workload::FacebookConfig wcfg;
  wcfg.num_jobs = 12;
  wcfg.num_machines = 4;
  wcfg.task_scale = 0.3;
  wcfg.arrival_window = 150;
  wcfg.seed = 7;
  const Workload w = workload::make_facebook_workload(wcfg);

  SimConfig cfg = small_cluster(4);
  cfg.machine_capacity = workload::facebook_machine();
  cfg.seed = 7;
  cfg.churn.mttf = 400;
  cfg.churn.mttr = 40;

  GreedyFitScheduler sched;
  const SimResult r = simulate(cfg, w, sched);

  ASSERT_TRUE(r.completed);
  long extra_attempts = 0;
  for (const auto& t : r.tasks) extra_attempts += t.attempts - 1;
  EXPECT_EQ(extra_attempts, r.churn.task_attempts_lost);
  EXPECT_GE(r.churn.machines_failed, r.churn.machines_recovered);
  EXPECT_GT(r.churn.machines_failed, 0);
  EXPECT_LE(r.churn.effective_capacity, 1.0 + 1e-9);
}

TEST(Churn, TetrisStillNeverOverAllocatesUnderChurn) {
  // CPU-only tasks (no inputs, so no read failover can blur durations):
  // under Tetris with oracle estimates every surviving attempt must run
  // at its natural duration even while machines come and go — churn must
  // not trick the packer into over-allocating the smaller cluster.
  Workload w;
  for (int j = 0; j < 3; ++j) {
    JobSpec job;
    StageSpec s;
    s.name = "s";
    for (int i = 0; i < 4; ++i) s.tasks.push_back(cpu_task(2, 1, 20));
    job.stages.push_back(s);
    w.jobs.push_back(job);
  }

  SimConfig cfg = small_cluster(2);
  cfg.tracker = TrackerMode::kUsage;
  cfg.churn.scripted = {{0, 10.0, 25.0}, {1, 30.0, 45.0}};

  core::TetrisScheduler tetris;
  const SimResult r = simulate(cfg, w, tetris);

  ASSERT_TRUE(r.completed);
  EXPECT_GT(r.churn.task_attempts_lost, 0);
  bool retried = false;
  for (const auto& t : r.tasks) {
    ASSERT_NEAR(t.duration(), t.natural_duration, 1e-6)
        << "job " << t.job << " index " << t.index;
    if (t.attempts > 1) retried = true;
  }
  EXPECT_TRUE(retried);
}

TEST(Churn, IdenticalSeedAndChurnGiveIdenticalResults) {
  workload::FacebookConfig wcfg;
  wcfg.num_jobs = 10;
  wcfg.num_machines = 4;
  wcfg.task_scale = 0.3;
  wcfg.arrival_window = 120;
  wcfg.seed = 3;
  const Workload w = workload::make_facebook_workload(wcfg);

  SimConfig cfg = small_cluster(4);
  cfg.machine_capacity = workload::facebook_machine();
  cfg.seed = 3;
  cfg.churn.mttf = 300;
  cfg.churn.mttr = 30;
  cfg.tracker = TrackerMode::kUsage;

  core::TetrisScheduler s1, s2;
  const SimResult a = simulate(cfg, w, s1);
  const SimResult b = simulate(cfg, w, s2);

  ASSERT_EQ(a.tasks.size(), b.tasks.size());
  for (std::size_t i = 0; i < a.tasks.size(); ++i) {
    EXPECT_EQ(a.tasks[i].host, b.tasks[i].host) << i;
    EXPECT_EQ(a.tasks[i].start, b.tasks[i].start) << i;
    EXPECT_EQ(a.tasks[i].finish, b.tasks[i].finish) << i;
    EXPECT_EQ(a.tasks[i].attempts, b.tasks[i].attempts) << i;
  }
  EXPECT_EQ(a.makespan, b.makespan);
  EXPECT_EQ(a.churn.machines_failed, b.churn.machines_failed);
  EXPECT_EQ(a.churn.task_attempts_lost, b.churn.task_attempts_lost);
  EXPECT_EQ(a.churn.work_lost_seconds, b.churn.work_lost_seconds);
  EXPECT_EQ(a.churn.effective_capacity, b.churn.effective_capacity);
}

TEST(Churn, DisabledChurnLeavesRunsByteIdenticalToSeed) {
  // churn.mttf = 0 must not fork the rng: a churn-capable build replays
  // the exact schedule a churn-free build produced.
  workload::FacebookConfig wcfg;
  wcfg.num_jobs = 8;
  wcfg.num_machines = 3;
  wcfg.task_scale = 0.3;
  wcfg.arrival_window = 100;
  wcfg.seed = 5;
  const Workload w = workload::make_facebook_workload(wcfg);

  SimConfig cfg = small_cluster(3);
  cfg.machine_capacity = workload::facebook_machine();
  cfg.seed = 5;

  GreedyFitScheduler s1, s2;
  const SimResult a = simulate(cfg, w, s1);
  const SimResult b = simulate(cfg, w, s2);
  ASSERT_EQ(a.tasks.size(), b.tasks.size());
  EXPECT_EQ(a.makespan, b.makespan);
  EXPECT_EQ(a.churn.machines_failed, 0);
  EXPECT_EQ(a.churn.effective_capacity, 1.0);
}

TEST(Churn, ConfigValidationRejectsContradictionsAndBadEvents) {
  Workload w;
  JobSpec job;
  job.stages.push_back({"s", {cpu_task(1, 1, 1)}, {}});
  w.jobs.push_back(job);
  GreedyFitScheduler sched;

  // num_machines contradicting machine_capacities is an error, not a
  // silent pick-one.
  SimConfig bad = small_cluster(3);
  bad.machine_capacities = {bad.machine_capacity, bad.machine_capacity};
  EXPECT_THROW(simulate(bad, w, sched), std::invalid_argument);

  // Explicit num_machines that agrees with the list is fine.
  SimConfig ok = small_cluster(2);
  ok.machine_capacities = {ok.machine_capacity, ok.machine_capacity};
  EXPECT_TRUE(simulate(ok, w, sched).completed);

  // Churn parameter validation: repair time required with a failure rate;
  // scripted events must name a real machine and have up_at > down_at.
  SimConfig c1 = small_cluster(2);
  c1.churn.mttf = 100;  // mttr left 0
  EXPECT_THROW(simulate(c1, w, sched), std::invalid_argument);

  SimConfig c2 = small_cluster(2);
  c2.churn.scripted = {{5, 1.0, 2.0}};  // machine out of range
  EXPECT_THROW(simulate(c2, w, sched), std::invalid_argument);

  SimConfig c3 = small_cluster(2);
  c3.churn.scripted = {{0, 2.0, 2.0}};  // empty window
  EXPECT_THROW(simulate(c3, w, sched), std::invalid_argument);
}

// ---- Constraint x churn interactions (DESIGN.md §13) ----

TEST(Churn, SoleFeasibleClassOutageBlocksRatherThanMisplaces) {
  // Machine 2 is the only "gpu" machine and is down for [0, 20). The
  // gpu-requiring task must wait for it — never spill onto the idle
  // plain machines — while an unconstrained job runs immediately.
  Workload w;
  JobSpec gpu_job;
  gpu_job.name = "gpu-job";
  StageSpec gs;
  gs.name = "s";
  gs.tasks = {cpu_task(2, 1, 5)};
  gs.constraint.require_labels = {"gpu"};
  gpu_job.stages.push_back(gs);
  w.jobs.push_back(gpu_job);

  JobSpec plain_job;
  plain_job.name = "plain-job";
  plain_job.stages.push_back({"s", {cpu_task(2, 1, 5)}, {}});
  w.jobs.push_back(plain_job);

  SimConfig cfg = small_cluster(3);
  cfg.machine_labels = {{"cpu"}, {"cpu"}, {"gpu"}};
  cfg.churn.scripted = {{2, 0.0, 20.0}};

  GreedyFitScheduler sched;
  const SimResult r = simulate(cfg, w, sched);

  ASSERT_TRUE(r.completed);
  EXPECT_TRUE(r.infeasible.empty());  // blocked is not infeasible
  ASSERT_EQ(r.tasks.size(), 2u);
  for (const auto& t : r.tasks) {
    if (t.job == 0) {
      // The constrained task waited out the outage on its sole class.
      EXPECT_EQ(t.host, 2);
      EXPECT_GE(t.start, 20.0 - 1e-9);
    } else {
      // The unconstrained one did not: it ran during the outage.
      EXPECT_LT(t.host, 2);
      EXPECT_LT(t.start, 20.0);
    }
  }
}

TEST(Churn, RequeueAfterHostFailureGoesOnlyToFeasibleMachines) {
  // Two gpu machines and one plain. The gpu task starts on machine 0
  // (first fit), which dies mid-run; the requeued attempt must land on
  // the other gpu machine, never the idle plain one.
  Workload w;
  JobSpec job;
  StageSpec s;
  s.name = "s";
  s.tasks = {cpu_task(2, 1, 20)};
  s.constraint.require_labels = {"gpu"};
  job.stages.push_back(s);
  w.jobs.push_back(job);

  SimConfig cfg = small_cluster(3);
  cfg.machine_labels = {{"gpu"}, {"gpu"}, {"plain"}};
  cfg.churn.scripted = {{0, 5.0, 60.0}};

  GreedyFitScheduler sched;
  const SimResult r = simulate(cfg, w, sched);

  ASSERT_TRUE(r.completed);
  ASSERT_EQ(r.tasks.size(), 1u);
  EXPECT_EQ(r.tasks[0].attempts, 2);
  EXPECT_EQ(r.tasks[0].host, 1);
  EXPECT_EQ(r.churn.task_attempts_lost, 1);
}

TEST(Churn, SoleFeasibleMachinePermanentOutageTimesOutAsIncomplete) {
  // The only feasible machine never comes back within max_time. The
  // constraint is *statically* satisfiable (the machine exists), so this
  // is not an infeasibility report — the run must end incomplete at
  // max_time with the task never placed, and never misplaced.
  Workload w;
  JobSpec job;
  StageSpec s;
  s.name = "s";
  s.tasks = {cpu_task(2, 1, 5)};
  s.constraint.require_labels = {"gpu"};
  job.stages.push_back(s);
  w.jobs.push_back(job);

  SimConfig cfg = small_cluster(2);
  cfg.machine_labels = {{"cpu"}, {"gpu"}};
  cfg.max_time = 100.0;
  cfg.churn.scripted = {{1, 0.0, 1000.0}};

  GreedyFitScheduler sched;
  const SimResult r = simulate(cfg, w, sched);

  EXPECT_FALSE(r.completed);
  EXPECT_TRUE(r.infeasible.empty());
  EXPECT_TRUE(r.tasks.empty());  // never ran anywhere
  ASSERT_EQ(r.jobs.size(), 1u);
  EXPECT_EQ(r.jobs[0].finish, -1);
}

}  // namespace
}  // namespace tetris::sim
