// Integration tests of the discrete-event simulator: task lifecycle,
// placement-dependent durations, contention and interference, barriers,
// heartbeat batching and failure injection.
#include "sim/simulator.h"

#include <gtest/gtest.h>

#include <limits>

#include "federation/federated_simulator.h"
#include "sim/placement.h"
#include "util/units.h"

namespace tetris::sim {
namespace {

// Greedy test scheduler: places every runnable task on the first machine
// where all dimensions fit (no over-allocation).
class GreedyFitScheduler final : public Scheduler {
 public:
  std::string name() const override { return "greedy-fit"; }
  void schedule(SchedulerContext& ctx) override {
    auto groups = ctx.runnable_groups();
    for (auto& g : groups) {
      while (g.runnable > 0) {
        bool placed = false;
        for (int m = 0; m < ctx.num_machines() && !placed; ++m) {
          Probe p = ctx.probe(g.ref, m);
          if (!p.valid) return;
          if (!p.demand.fits_within(ctx.available(m))) continue;
          bool remote_ok = true;
          for (const auto& leg : p.remote) {
            const Resources avail = ctx.available(leg.machine);
            if (leg.disk_read > avail[Resource::kDiskRead] ||
                leg.net_out > avail[Resource::kNetOut]) {
              remote_ok = false;
              break;
            }
          }
          if (remote_ok && ctx.place(p)) {
            g.runnable--;
            placed = true;
          }
        }
        if (!placed) break;
      }
    }
  }
};

// Reckless test scheduler: places every runnable task round-robin across
// machines with NO admission check at all — the over-allocation extreme.
class RecklessScheduler final : public Scheduler {
 public:
  std::string name() const override { return "reckless"; }
  void schedule(SchedulerContext& ctx) override {
    auto groups = ctx.runnable_groups();
    int m = 0;
    for (auto& g : groups) {
      while (g.runnable > 0) {
        Probe p = ctx.probe(g.ref, m % ctx.num_machines());
        if (!p.valid || !ctx.place(p)) break;
        g.runnable--;
        ++m;
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

SimConfig small_cluster(int machines = 2) {
  SimConfig cfg;
  cfg.num_machines = machines;
  cfg.machine_capacity =
      Resources::full(4, 8 * kGB, 100 * kMB, 100 * kMB, 125 * kMB, 125 * kMB);
  cfg.heartbeat_period = 0.5;
  return cfg;
}

TEST(Simulator, SingleTaskCompletesWithNaturalDuration) {
  Workload w;
  JobSpec job;
  job.name = "j";
  job.stages.push_back({"s", {cpu_task(2, 1, 10)}, {}});
  w.jobs.push_back(job);

  GreedyFitScheduler sched;
  const SimResult r = simulate(small_cluster(1), w, sched);

  ASSERT_TRUE(r.completed);
  ASSERT_EQ(r.jobs.size(), 1u);
  // Arrives at 0, placed at the t=0 heartbeat, runs 10s of compute.
  EXPECT_NEAR(r.jobs[0].completion_time(), 10.0, 0.6);
  ASSERT_EQ(r.tasks.size(), 1u);
  EXPECT_NEAR(r.tasks[0].duration(), 10.0, 1e-6);
}

TEST(Simulator, TasksQueueWhenMachineFull) {
  // Two 4-core tasks on one 4-core machine must serialize.
  Workload w;
  JobSpec job;
  job.stages.push_back({"s", {cpu_task(4, 1, 10), cpu_task(4, 1, 10)}, {}});
  w.jobs.push_back(job);

  GreedyFitScheduler sched;
  const SimResult r = simulate(small_cluster(1), w, sched);

  ASSERT_TRUE(r.completed);
  // Second task starts only after the first finishes and a heartbeat
  // passes: completion ~20-21s, definitely > 19.
  EXPECT_GT(r.jobs[0].completion_time(), 19.0);
  EXPECT_LT(r.jobs[0].completion_time(), 22.0);
}

TEST(Simulator, OverAllocatedCpuSharesProportionally) {
  // Reckless placement of two 4-core tasks on one machine: each gets half
  // the cores, so both take ~20s instead of 10s.
  Workload w;
  JobSpec job;
  job.stages.push_back({"s", {cpu_task(4, 1, 10), cpu_task(4, 1, 10)}, {}});
  w.jobs.push_back(job);

  RecklessScheduler sched;
  const SimResult r = simulate(small_cluster(1), w, sched);

  ASSERT_TRUE(r.completed);
  ASSERT_EQ(r.tasks.size(), 2u);
  for (const auto& t : r.tasks) {
    EXPECT_NEAR(t.duration(), 20.0, 1.0);
  }
}

TEST(Simulator, DiskContentionSuffersInterferencePenalty) {
  // Two tasks each demanding the full disk-read bandwidth, co-placed: with
  // pure proportional sharing each would take 2x; the seek penalty makes
  // it strictly worse.
  Workload w;
  JobSpec job;
  StageSpec stage;
  for (int i = 0; i < 2; ++i) {
    TaskSpec t;
    t.peak_cores = 0.5;
    t.peak_mem = 0.5 * kGB;
    t.max_io_bw = 100 * kMB;
    InputSplit split;
    split.bytes = 1000.0 * kMB;  // 10s at full disk bandwidth
    split.replicas = {0};
    t.inputs.push_back(split);
    stage.tasks.push_back(t);
  }
  job.stages.push_back(stage);
  w.jobs.push_back(job);

  RecklessScheduler sched;
  SimConfig cfg = small_cluster(1);
  const SimResult r = simulate(cfg, w, sched);

  ASSERT_TRUE(r.completed);
  ASSERT_EQ(r.tasks.size(), 2u);
  const double solo = 10.0;
  for (const auto& t : r.tasks) {
    // 2x from sharing, then /0.94 from the seek penalty (alpha=0.06, two
    // streams): ~21.3s.
    EXPECT_GT(t.duration(), 2.0 * solo * 1.02);
    EXPECT_LT(t.duration(), 2.0 * solo * 1.25);
  }
}

TEST(Simulator, BarrierBlocksDownstreamStage) {
  Workload w;
  JobSpec job;
  StageSpec maps;
  maps.tasks = {cpu_task(1, 1, 10), cpu_task(1, 1, 10)};
  StageSpec reduce;
  reduce.deps = {0};
  reduce.tasks = {cpu_task(1, 1, 5)};
  job.stages.push_back(maps);
  job.stages.push_back(reduce);
  w.jobs.push_back(job);

  GreedyFitScheduler sched;
  const SimResult r = simulate(small_cluster(2), w, sched);

  ASSERT_TRUE(r.completed);
  double maps_done = 0, reduce_start = 1e18;
  for (const auto& t : r.tasks) {
    if (t.stage == 0) maps_done = std::max(maps_done, t.finish);
    if (t.stage == 1) reduce_start = std::min(reduce_start, t.start);
  }
  EXPECT_GE(reduce_start, maps_done);
}

TEST(Simulator, RemoteReadUsesNetworkAndIsSlowerThanLocal) {
  // One disk-read task whose only replica is machine 0; force placement on
  // machine 1 via a scheduler that targets machine 1.
  class PinScheduler final : public Scheduler {
   public:
    explicit PinScheduler(int m) : m_(m) {}
    std::string name() const override { return "pin"; }
    void schedule(SchedulerContext& ctx) override {
      for (auto& g : ctx.runnable_groups()) {
        while (g.runnable > 0) {
          Probe p = ctx.probe(g.ref, m_);
          if (!p.valid || !ctx.place(p)) break;
          g.runnable--;
        }
      }
    }
    int m_;
  };

  const auto make = [] {
    Workload w;
    JobSpec job;
    TaskSpec t;
    t.peak_cores = 0.5;
    t.peak_mem = 0.5 * kGB;
    t.max_io_bw = 200 * kMB;
    InputSplit split;
    split.bytes = 1000.0 * kMB;
    split.replicas = {0};
    t.inputs.push_back(split);
    job.stages.push_back({"s", {t}, {}});
    w.jobs.push_back(job);
    return w;
  };

  PinScheduler local(0), remote(1);
  const SimResult rl = simulate(small_cluster(2), make(), local);
  const SimResult rr = simulate(small_cluster(2), make(), remote);
  ASSERT_TRUE(rl.completed);
  ASSERT_TRUE(rr.completed);
  // Local: bottleneck disk 100 MB/s -> 10s. Remote: NIC 125 MB/s and disk
  // at source 100 MB/s -> still 10s? The demand rate is bytes/duration
  // where duration = bytes/max_io = 5s, so rates of 200 MB/s exceed both
  // disk (100) and NIC (125): remote runs at min share => slower.
  EXPECT_GT(rl.tasks[0].duration(), 9.9);
  EXPECT_GT(rr.tasks[0].duration(), rl.tasks[0].duration() * 0.99);
  // The remote run must have used network (task record keeps placement
  // locality).
  EXPECT_EQ(rr.tasks[0].local_fraction, 0.0);
  EXPECT_EQ(rl.tasks[0].local_fraction, 1.0);
}

TEST(Simulator, FailedTasksReExecuteAndJobStillCompletes) {
  Workload w;
  JobSpec job;
  StageSpec stage;
  for (int i = 0; i < 20; ++i) stage.tasks.push_back(cpu_task(1, 1, 5));
  job.stages.push_back(stage);
  w.jobs.push_back(job);

  SimConfig cfg = small_cluster(2);
  cfg.task_failure_prob = 0.3;
  cfg.seed = 11;
  GreedyFitScheduler sched;
  const SimResult r = simulate(cfg, w, sched);

  ASSERT_TRUE(r.completed);
  ASSERT_EQ(r.tasks.size(), 20u);
  int retried = 0;
  for (const auto& t : r.tasks) {
    if (t.attempts > 1) retried++;
  }
  EXPECT_GT(retried, 0);
}

TEST(Simulator, EmptyWorkloadCompletesImmediately) {
  Workload w;
  GreedyFitScheduler sched;
  const SimResult r = simulate(small_cluster(1), w, sched);
  EXPECT_TRUE(r.completed);
  EXPECT_EQ(r.makespan, 0.0);
}

TEST(Simulator, InvalidWorkloadThrows) {
  Workload w;
  JobSpec job;
  StageSpec s;
  s.deps = {5};  // out of range
  s.tasks = {cpu_task(1, 1, 1)};
  job.stages.push_back(s);
  w.jobs.push_back(job);
  GreedyFitScheduler sched;
  EXPECT_THROW(simulate(small_cluster(1), w, sched), std::invalid_argument);
}

// Heartbeats and timeline samples re-arm at now + period: a zero period
// used to hang simulate() (virtual time never advanced, so max_time never
// fired), and NaN or negative periods were just as broken. Every entry
// point must refuse them up front — federated cells always sample the
// timeline.
TEST(Simulator, RejectsNonPositiveOrNonFiniteHeartbeatPeriod) {
  Workload w;
  JobSpec job;
  job.name = "j";
  job.stages.push_back({"s", {cpu_task(1, 1, 5)}, {}});
  w.jobs.push_back(job);
  struct Period {
    const char* name;
    double SimConfig::*field;
  };
  const Period periods[] = {
      {"heartbeat_period", &SimConfig::heartbeat_period},
      {"timeline_period", &SimConfig::timeline_period},
  };
  for (const Period& knob : periods) {
    for (const double period : {0.0, -1.0,
                                std::numeric_limits<double>::quiet_NaN(),
                                std::numeric_limits<double>::infinity()}) {
      SimConfig cfg = small_cluster(2);
      cfg.collect_timeline = true;
      cfg.*knob.field = period;
      GreedyFitScheduler sched;
      EXPECT_THROW(simulate(cfg, w, sched), std::invalid_argument)
          << knob.name << " = " << period;
      WorkloadJobSource source(w);
      EXPECT_THROW(simulate_stream(cfg, source, sched), std::invalid_argument)
          << knob.name << " = " << period;
      federation::FederationConfig fc;
      fc.base = cfg;
      fc.base.cells = {{0, 1}, {1, 2}};
      EXPECT_THROW(federation::simulate_federated(fc, w),
                   std::invalid_argument)
          << knob.name << " = " << period;
    }
  }
}

// Churn, rack and cell-kill times and the max_time hard stop against NaN,
// +-inf and a negative value (and 0 where 0 is illegal). Checks written
// `x < 0` let NaN through: a NaN mttr scheduled recoveries at NaN time, a
// NaN rack_oversubscription gave every uplink NaN capacity, a NaN
// max_time disabled the hard stop. Every value must be rejected.
TEST(Simulator, RejectsNaNInfiniteAndNegativeChurnRackAndKillTimes) {
  constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
  constexpr double kInf = std::numeric_limits<double>::infinity();
  Workload w;
  JobSpec job;
  StageSpec stage;
  stage.tasks = {cpu_task(1, 1, 5)};
  job.stages.push_back(stage);
  w.jobs.push_back(job);
  struct Knob {
    const char* name;
    void (*set)(federation::FederationConfig&, double);
    bool rejects_zero = false;
  };
  const Knob knobs[] = {
      // Churn stays off here: at +inf, churn pre-generation would run
      // until memory ran out instead of failing.
      {"max_time",
       [](federation::FederationConfig& fc, double v) {
         fc.base.max_time = v;
       },
       true},
      {"churn.mttf",
       [](federation::FederationConfig& fc, double v) {
         fc.base.churn.mttf = v;
         fc.base.churn.mttr = 10;
       }},
      {"churn.mttr",
       [](federation::FederationConfig& fc, double v) {
         fc.base.churn.mttf = 100;
         fc.base.churn.mttr = v;
       }},
      {"scripted down_at",
       [](federation::FederationConfig& fc, double v) {
         fc.base.churn.scripted = {{0, v, 5.0}};
       }},
      {"scripted up_at",
       [](federation::FederationConfig& fc, double v) {
         fc.base.churn.scripted = {{0, 1.0, v}};
       }},
      {"rack_oversubscription",
       [](federation::FederationConfig& fc, double v) {
         fc.base.machines_per_rack = 1;
         fc.base.rack_oversubscription = v;
       }},
      {"CellKill::at",
       [](federation::FederationConfig& fc, double v) {
         fc.kills = {{1, v}};
       }},
  };
  for (const Knob& k : knobs) {
    for (const double v : {kNaN, kInf, -kInf, -1.0, 0.0}) {
      if (v == 0 && !k.rejects_zero) continue;
      federation::FederationConfig fc;
      fc.base = small_cluster(2);
      k.set(fc, v);
      if (fc.kills.empty()) {
        GreedyFitScheduler sched;
        EXPECT_THROW(simulate(fc.base, w, sched), std::invalid_argument)
            << k.name << " = " << v;
      }
      fc.base.cells = {{0, 1}, {1, 2}};
      EXPECT_THROW(federation::simulate_federated(fc, w),
                   std::invalid_argument)
          << k.name << " = " << v;
    }
  }
}

TEST(Simulator, ShuffleReadsComeFromUpstreamOutputLocations) {
  // Two maps pinned (by capacity) across two machines write output; one
  // reduce shuffles it. The reduce must finish and read bytes equal to the
  // map output.
  Workload w;
  JobSpec job;
  StageSpec maps;
  for (int i = 0; i < 2; ++i) {
    TaskSpec t = cpu_task(4, 1, 5);  // full machine -> spread across both
    t.output_bytes = 200 * kMB;
    maps.tasks.push_back(t);
  }
  StageSpec reduce;
  reduce.deps = {0};
  {
    TaskSpec t;
    t.peak_cores = 1;
    t.peak_mem = 1 * kGB;
    t.max_io_bw = 100 * kMB;
    InputSplit split;
    split.bytes = 400 * kMB;
    split.from_stage = 0;
    t.inputs.push_back(split);
    reduce.tasks.push_back(t);
  }
  job.stages.push_back(maps);
  job.stages.push_back(reduce);
  w.jobs.push_back(job);

  GreedyFitScheduler sched;
  const SimResult r = simulate(small_cluster(2), w, sched);
  ASSERT_TRUE(r.completed);
  // Reduce read duration: 400 MB at <=100 MB/s >= 4s.
  for (const auto& t : r.tasks) {
    if (t.stage == 1) {
      EXPECT_GE(t.duration(), 4.0 - 1e-6);
    }
  }
}

TEST(Simulator, TimelineAndUsageSamplesCollected) {
  Workload w;
  JobSpec job;
  StageSpec stage;
  for (int i = 0; i < 8; ++i) stage.tasks.push_back(cpu_task(1, 1, 20));
  job.stages.push_back(stage);
  w.jobs.push_back(job);

  SimConfig cfg = small_cluster(2);
  cfg.collect_timeline = true;
  cfg.timeline_period = 2.0;
  GreedyFitScheduler sched;
  const SimResult r = simulate(cfg, w, sched);
  ASSERT_TRUE(r.completed);
  ASSERT_GT(r.timeline.size(), 3u);
  // 8 single-core tasks on 8 cores: utilization should reach 100% cpu.
  double max_cpu = 0;
  int max_running = 0;
  for (const auto& s : r.timeline) {
    max_cpu = std::max(max_cpu, s.utilization[0]);
    max_running = std::max(max_running, s.running_tasks);
  }
  EXPECT_NEAR(max_cpu, 1.0, 0.01);
  EXPECT_EQ(max_running, 8);
  EXPECT_FALSE(r.machine_usage_samples[0].empty());
}

TEST(Simulator, BackgroundActivityContendsProportionally) {
  // A disk-bound task on machine 0 while ingestion wants the whole disk:
  // both streams share the (interference-degraded) disk, so the task runs
  // at roughly half speed during the overlap.
  Workload w;
  JobSpec job;
  TaskSpec t;
  t.peak_cores = 0.5;
  t.peak_mem = 0.5 * kGB;
  t.max_io_bw = 100 * kMB;
  InputSplit split;
  split.bytes = 500.0 * kMB;  // 5s at full disk
  split.replicas = {0};
  t.inputs.push_back(split);
  job.stages.push_back({"s", {t}, {}});
  w.jobs.push_back(job);

  SimConfig cfg = small_cluster(1);
  BackgroundActivity act;
  act.machine = 0;
  act.start = 1.0;
  act.end = 11.0;
  act.usage[Resource::kDiskRead] = 100 * kMB;  // the whole disk
  cfg.activities.push_back(act);

  GreedyFitScheduler sched;
  const SimResult r = simulate(cfg, w, sched);
  ASSERT_TRUE(r.completed);
  // 1s at full speed (progress 0.2), then ratio = eff/total =
  // (100*0.94)/200 = 0.47 until done: 1 + 0.8*5/0.47 ~ 9.5s.
  EXPECT_GT(r.tasks[0].duration(), 8.0);
  EXPECT_LT(r.tasks[0].duration(), 11.0);
}

}  // namespace
}  // namespace tetris::sim
