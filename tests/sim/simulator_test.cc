// Integration tests of the discrete-event simulator: task lifecycle,
// placement-dependent durations, contention and interference, barriers,
// heartbeat batching, failure injection, the usage tracker's ramp-up
// allowance and the pass's availability view against the naive view.
#include "sim/simulator.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>

#include "core/tetris_scheduler.h"
#include "federation/federated_simulator.h"
#include "sim/placement.h"
#include "util/units.h"
#include "workload/facebook.h"
#include "workload/profiles.h"

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

// A source that declares more jobs than a JobId can number is rejected
// before the count is used: job ids would wrap, and the streaming engine
// reserves one event sequence number per declared job.
TEST(Simulator, RejectsDeclaredJobCountsPastTheJobIdRange) {
  class DeclaredOnly final : public JobSource {
   public:
    explicit DeclaredOnly(long jobs) : jobs_(jobs) {}
    long total_jobs() const override { return jobs_; }
    bool peek(JobPeek&) override { return false; }
    bool next(JobSpec&) override { return false; }

   private:
    long jobs_;
  };
  constexpr long kMaxJobs = std::numeric_limits<JobId>::max();
  for (const long jobs : {std::numeric_limits<long>::max(), kMaxJobs + 1L}) {
    DeclaredOnly source(jobs);
    GreedyFitScheduler sched;
    EXPECT_THROW(simulate_stream(small_cluster(1), source, sched),
                 std::invalid_argument)
        << jobs << " jobs";
  }
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

// Churn, rack and cell-kill times, the max_time hard stop and every other
// numeric SimConfig knob against NaN, +-inf and a negative value (and 0
// where 0 is illegal, and a value past the top of a bounded range).
// Checks written `x < 0` let NaN through: a NaN mttr scheduled recoveries
// at NaN time, a NaN rack_oversubscription gave every uplink NaN
// capacity, a NaN max_time disabled the hard stop, a NaN noise_cov gave
// NaN demand factors. An activity on a machine the cluster lacks would
// index past the machine array (federated runs would drop it), and a
// task_failure_prob of 1 or more would re-run every attempt until
// max_time. Every value must be rejected.
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
    // An illegal value above the legal range; NaN for knobs unbounded
    // above (already covered by the NaN case).
    double too_high = kNaN;
  };
  // Integer knobs have no NaN or infinity, so their rows ignore the value
  // and set an illegal one: -1, or machine 2 of the 2-machine cluster.
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
      {"machine_capacity",
       [](federation::FederationConfig& fc, double v) {
         fc.base.machine_capacity[Resource::kCpu] = v;
       }},
      {"activity machine -1",
       [](federation::FederationConfig& fc, double) {
         fc.base.activities = {{-1, 0.0, 5.0, Resources::uniform(1)}};
       }},
      {"activity machine 2 of 2",
       [](federation::FederationConfig& fc, double) {
         fc.base.activities = {{2, 0.0, 5.0, Resources::uniform(1)}};
       }},
      {"activity start",
       [](federation::FederationConfig& fc, double v) {
         fc.base.activities = {{0, v, 5.0, Resources::uniform(1)}};
       }},
      {"activity end",
       [](federation::FederationConfig& fc, double v) {
         fc.base.activities = {{0, 1.0, v, Resources::uniform(1)}};
       }},
      {"activity usage",
       [](federation::FederationConfig& fc, double v) {
         fc.base.activities = {{0, 0.0, 5.0, Resources::uniform(v)}};
       }},
      {"task_failure_prob",
       [](federation::FederationConfig& fc, double v) {
         fc.base.task_failure_prob = v;
       },
       false, 1.0},
      {"ramp_up_window",
       [](federation::FederationConfig& fc, double v) {
         fc.base.ramp_up_window = v;
       },
       true},
      {"ramp_allowance_fraction",
       [](federation::FederationConfig& fc, double v) {
         fc.base.ramp_allowance_fraction = v;
       },
       false, 1.5},
      {"estimation.noise_cov",
       [](federation::FederationConfig& fc, double v) {
         fc.base.estimation.noise_cov = v;
       }},
      {"estimation.overestimate_factor",
       [](federation::FederationConfig& fc, double v) {
         fc.base.estimation.overestimate_factor = v;
       },
       true},
      {"estimation.profile_after",
       [](federation::FederationConfig& fc, double) {
         fc.base.estimation.profile_after = -1;
       }},
      {"stream.lookahead",
       [](federation::FederationConfig& fc, double v) {
         fc.base.stream.lookahead = v;
       }},
      {"stream.max_resident_tasks",
       [](federation::FederationConfig& fc, double) {
         fc.base.stream.max_resident_tasks = -1;
       }},
      {"stream.max_resident_jobs",
       [](federation::FederationConfig& fc, double) {
         fc.base.stream.max_resident_jobs = -1;
       }},
      {"interference.disk_seek_alpha",
       [](federation::FederationConfig& fc, double v) {
         fc.base.interference.disk_seek_alpha = v;
       },
       false, 1.5},
      {"interference.incast_alpha",
       [](federation::FederationConfig& fc, double v) {
         fc.base.interference.incast_alpha = v;
       },
       false, 1.5},
      {"interference.min_efficiency",
       [](federation::FederationConfig& fc, double v) {
         fc.base.interference.min_efficiency = v;
       },
       true, 1.5},
      {"interference.penalty_ramp",
       [](federation::FederationConfig& fc, double v) {
         fc.base.interference.penalty_ramp = v;
       },
       true},
      {"interference.mem_thrash_factor",
       [](federation::FederationConfig& fc, double v) {
         fc.base.interference.mem_thrash_factor = v;
       },
       true, 1.5},
  };
  for (const Knob& k : knobs) {
    for (const double v : {kNaN, kInf, -kInf, -1.0, 0.0, k.too_high}) {
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

// The usage tracker's ramp-up allowance (§4.1, TrackerMode::kUsage): on
// top of observed usage, every attempt hosted on a machine and younger
// than ramp_up_window is charged ramp_allowance_fraction x (1 - age /
// window) x its booked local estimate.

// Places every runnable task on machine 0 and, at the start of every
// pass, records what the tracker reports for machine 0 with the attempts
// running there. Preempts every running attempt in its pass at
// `preempt_at` and places nothing in that pass.
class RampProbeScheduler final : public Scheduler {
 public:
  struct Sample {
    SimTime now = 0;
    Resources available;
    std::vector<RunningTaskView> running;
  };

  std::string name() const override { return "ramp-probe"; }
  void schedule(SchedulerContext& ctx) override {
    samples.push_back({ctx.now(), ctx.available(0), ctx.running_tasks()});
    if (ctx.now() == preempt_at) {
      for (const RunningTaskView& t : ctx.running_tasks()) ctx.preempt(t.uid);
      return;
    }
    for (auto& g : ctx.runnable_groups()) {
      while (g.runnable > 0) {
        Probe p = ctx.probe(g.ref, 0);
        if (!p.valid || !ctx.place(p)) break;
        g.runnable--;
      }
    }
  }

  SimTime preempt_at = -1;
  std::vector<Sample> samples;
};

SimConfig usage_tracker_cluster() {
  SimConfig cfg = small_cluster(1);
  cfg.heartbeat_period = 1.0;  // integer pass times, so integer ages
  cfg.tracker = TrackerMode::kUsage;
  cfg.ramp_up_window = 10.0;
  cfg.ramp_allowance_fraction = 0.5;
  return cfg;
}

Workload one_job(std::vector<TaskSpec> tasks, SimTime arrival = 0) {
  StageSpec stage;
  stage.tasks = std::move(tasks);
  JobSpec job;
  job.arrival = arrival;
  job.stages.push_back(stage);
  Workload w;
  w.jobs.push_back(job);
  return w;
}

// The ramp formula applied to `sample` in the simulator's order of
// operations. Estimates are oracle, so usage is the sum of the booked
// demands of the running attempts.
Resources ramped_available(const SimConfig& cfg,
                           const RampProbeScheduler::Sample& sample) {
  Resources used;
  for (const RunningTaskView& t : sample.running) used += t.demand;
  for (const RunningTaskView& t : sample.running) {
    const double age = sample.now - t.started;
    if (age >= cfg.ramp_up_window) continue;
    used += t.demand * (cfg.ramp_allowance_fraction *
                        (1.0 - age / cfg.ramp_up_window));
  }
  return (cfg.machine_capacity - used).max_zero();
}

const RampProbeScheduler::Sample& sample_at(const RampProbeScheduler& s,
                                            SimTime now) {
  for (const auto& sample : s.samples) {
    if (sample.now == now && !sample.running.empty()) return sample;
  }
  ADD_FAILURE() << "no pass with a running attempt at t=" << now;
  static const RampProbeScheduler::Sample kNone;
  return kNone;
}

TEST(Simulator, RampAllowancePadsUsageLinearlyOverTheWindow) {
  const SimConfig cfg = usage_tracker_cluster();
  RampProbeScheduler sched;
  const SimResult r = simulate(cfg, one_job({cpu_task(2, 1, 30)}), sched);
  ASSERT_TRUE(r.completed);

  // Hand-checked points: 2 cores used plus 0.5 x (1 - age/10) x 2 cores.
  EXPECT_EQ(sample_at(sched, 0).available[Resource::kCpu], 1.0);
  EXPECT_EQ(sample_at(sched, 5).available[Resource::kCpu], 1.5);
  EXPECT_EQ(sample_at(sched, 10).available[Resource::kCpu], 2.0);
  EXPECT_EQ(sample_at(sched, 0).available[Resource::kMem], 6.5 * kGB);

  int inside = 0;
  for (const auto& sample : sched.samples) {
    if (sample.running.empty()) continue;
    ASSERT_EQ(sample.running.size(), 1u);
    ASSERT_EQ(sample.running[0].demand[Resource::kCpu], 2.0);
    ASSERT_EQ(sample.now, std::floor(sample.now)) << "integer ages only";
    const double age = sample.now - sample.running[0].started;
    if (age < cfg.ramp_up_window) inside++;
    EXPECT_EQ(sample.available, ramped_available(cfg, sample))
        << "age " << age;
  }
  EXPECT_EQ(inside, 10);  // ages 0..9
}

TEST(Simulator, RampAllowanceEndsAtExactlyTheWindowBoundary) {
  // The cutoff is `age >= window`: a task aged exactly 10 s is charged its
  // usage alone, not a small residual, while one a double-ulp younger is
  // still charged a strictly positive allowance. A job arriving at 2^-49
  // starts there, so the t=10 heartbeat sees it at age nextafter(10, 0).
  // Three cores keep that one-ulp allowance visible in 4 - (3 + allowance).
  const SimConfig cfg = usage_tracker_cluster();
  const double usage_only = 4.0 - 3.0;

  RampProbeScheduler at_window;
  ASSERT_TRUE(
      simulate(cfg, one_job({cpu_task(3, 1, 30)}), at_window).completed);
  EXPECT_EQ(sample_at(at_window, 10).available[Resource::kCpu], usage_only);
  EXPECT_EQ(sample_at(at_window, 11).available[Resource::kCpu], usage_only);

  RampProbeScheduler inside;
  const SimTime arrival = std::ldexp(1.0, -49);
  ASSERT_TRUE(
      simulate(cfg, one_job({cpu_task(3, 1, 30)}, arrival), inside)
          .completed);
  const auto& last_inside = sample_at(inside, 10);
  ASSERT_EQ(last_inside.running.size(), 1u);
  EXPECT_EQ(last_inside.now - last_inside.running[0].started,
            std::nextafter(10.0, 0.0));
  EXPECT_LT(last_inside.available[Resource::kCpu], usage_only);
  EXPECT_EQ(last_inside.available, ramped_available(cfg, last_inside));
  EXPECT_EQ(sample_at(inside, 11).available[Resource::kCpu], usage_only);
}

TEST(Simulator, RampAllowancesStackAcrossTasksOnOneHost) {
  const SimConfig cfg = usage_tracker_cluster();
  RampProbeScheduler sched;
  const SimResult r = simulate(
      cfg, one_job({cpu_task(1, 1, 30), cpu_task(1, 1, 30)}), sched);
  ASSERT_TRUE(r.completed);

  // 2 cores used plus two allowances of 0.5 x (1 - age/10) x 1 core.
  EXPECT_EQ(sample_at(sched, 0).available[Resource::kCpu], 1.0);
  EXPECT_EQ(sample_at(sched, 5).available[Resource::kCpu], 1.5);
  for (const auto& sample : sched.samples) {
    if (sample.running.empty()) continue;
    ASSERT_EQ(sample.running.size(), 2u);
    EXPECT_EQ(sample.available, ramped_available(cfg, sample))
        << "t=" << sample.now;
  }
}

TEST(Simulator, RampAllowanceEndsWithTheTask) {
  // A 3 s task: from its finish on, the machine reports its full capacity
  // although the attempt would still be inside its window. A second job
  // arriving at t=8 keeps the run going past that finish.
  const SimConfig cfg = usage_tracker_cluster();
  Workload w = one_job({cpu_task(2, 1, 3)});
  w.jobs.push_back(one_job({cpu_task(1, 1, 1)}, 8.0).jobs[0]);
  RampProbeScheduler sched;
  const SimResult r = simulate(cfg, w, sched);
  ASSERT_TRUE(r.completed);
  ASSERT_EQ(r.tasks.size(), 2u);
  ASSERT_EQ(r.tasks[0].job, 0);
  const SimTime finish = r.tasks[0].finish;
  ASSERT_LT(finish, 4.0);

  int after_finish = 0;
  for (const auto& sample : sched.samples) {
    if (sample.now < finish || sample.now >= 8.0) continue;
    EXPECT_TRUE(sample.running.empty()) << "t=" << sample.now;
    EXPECT_EQ(sample.available, cfg.machine_capacity) << "t=" << sample.now;
    after_finish++;
  }
  EXPECT_GE(after_finish, 4);  // the heartbeats at t=4..7 at least
}

TEST(Simulator, ReExecutedAttemptRestartsItsRampClock) {
  // Preempted at t=20, long after its first window closed; the new attempt
  // starts at the t=21 heartbeat and is charged a fresh allowance.
  const SimConfig cfg = usage_tracker_cluster();
  RampProbeScheduler sched;
  sched.preempt_at = 20;
  const SimResult r = simulate(cfg, one_job({cpu_task(2, 1, 30)}), sched);
  ASSERT_TRUE(r.completed);
  ASSERT_EQ(r.tasks.size(), 1u);
  EXPECT_EQ(r.tasks[0].attempts, 2);
  EXPECT_EQ(r.tasks[0].start, 21.0);

  EXPECT_EQ(sample_at(sched, 20).available[Resource::kCpu], 2.0);
  const auto& restarted = sample_at(sched, 22);  // age 1 in the new attempt
  ASSERT_EQ(restarted.running.size(), 1u);
  EXPECT_EQ(restarted.running[0].started, 21.0);
  EXPECT_EQ(restarted.available[Resource::kCpu],
            4.0 - (2.0 + 2.0 * (0.5 * (1.0 - 1.0 / 10.0))));
  EXPECT_EQ(restarted.available, ramped_available(cfg, restarted));
}

// ---------------------------------------------------------------------------
// The pass's availability view. Outside naive_scheduler_view a pass with
// an empty backlog builds it on first use, and the usage tracker skips the
// ramp-up walk on a machine whose newest start is out of the window; the
// naive view builds every pass at its start and always walks.

// A Facebook mix on two racks of five, under the usage tracker: arrivals
// spread over 600 s leave passes with and without a backlog, both inside
// and outside the 10 s ramp-up windows of the tasks they host.
SimConfig racked_usage_cluster() {
  SimConfig cfg;
  cfg.num_machines = 10;
  cfg.machines_per_rack = 5;
  cfg.machine_capacity = workload::facebook_machine();
  cfg.tracker = TrackerMode::kUsage;
  cfg.collect_pass_samples = true;
  return cfg;
}
constexpr int kRackedMachines = 10 + 2;  // two rack uplinks

Workload spread_facebook_mix() {
  workload::FacebookConfig fc;
  fc.num_jobs = 30;
  fc.num_machines = 10;
  fc.task_scale = 0.2;
  fc.arrival_window = 600;
  fc.seed = 5;
  return workload::make_facebook_workload(fc);
}

void expect_same_tasks(const SimResult& naive, const SimResult& opt) {
  ASSERT_EQ(naive.tasks.size(), opt.tasks.size());
  for (std::size_t i = 0; i < naive.tasks.size(); ++i) {
    EXPECT_EQ(naive.tasks[i].host, opt.tasks[i].host) << "task " << i;
    EXPECT_EQ(naive.tasks[i].start, opt.tasks[i].start) << "task " << i;
    EXPECT_EQ(naive.tasks[i].finish, opt.tasks[i].finish) << "task " << i;
    EXPECT_EQ(naive.tasks[i].attempts, opt.tasks[i].attempts) << "task " << i;
  }
  EXPECT_EQ(naive.makespan, opt.makespan);
}

// Runs Tetris, then reads what the context reports for every machine,
// rack uplinks included. Tetris reads nothing on a pass with an empty
// backlog, so there this read is the one that builds the view. On the
// first `preempts` such passes that have a running attempt, it first
// preempts the newest attempt (preempt() must build before the books
// move) and reads before Tetris places again.
class AvailabilityRecorder final : public Scheduler {
 public:
  struct Pass {
    SimTime now = 0;
    bool young = false;  // some running attempt is inside its window
    bool preempted = false;
    std::vector<Resources> available;
  };

  explicit AvailabilityRecorder(int preempts = 0) : preempts_(preempts) {}
  std::string name() const override { return "availability-recorder"; }
  void schedule(SchedulerContext& ctx) override {
    Pass pass;
    pass.now = ctx.now();
    const auto running = ctx.running_tasks();
    for (const RunningTaskView& t : running)
      pass.young = pass.young ||
                   ctx.now() - t.started < SimConfig{}.ramp_up_window;
    if (preempts_ > 0 && !running.empty() && ctx.runnable_groups().empty()) {
      const auto newest = std::max_element(
          running.begin(), running.end(), [](const auto& a, const auto& b) {
            return a.started < b.started;
          });
      EXPECT_TRUE(ctx.preempt(newest->uid));
      pass.preempted = true;
      --preempts_;
      read(ctx, pass);
    }
    tetris_.schedule(ctx);
    if (!pass.preempted) read(ctx, pass);
    passes.push_back(std::move(pass));
  }

  std::vector<Pass> passes;

 private:
  static void read(const SchedulerContext& ctx, Pass& pass) {
    for (MachineId m = 0; m < kRackedMachines; ++m)
      pass.available.push_back(ctx.available(m));
  }

  core::TetrisScheduler tetris_;
  int preempts_;
};

void expect_same_availability(const AvailabilityRecorder& naive,
                              const AvailabilityRecorder& opt) {
  ASSERT_EQ(naive.passes.size(), opt.passes.size());
  for (std::size_t i = 0; i < naive.passes.size(); ++i) {
    ASSERT_EQ(naive.passes[i].now, opt.passes[i].now) << "pass " << i;
    ASSERT_EQ(naive.passes[i].preempted, opt.passes[i].preempted)
        << "pass " << i;
    for (MachineId m = 0; m < kRackedMachines; ++m) {
      const auto k = static_cast<std::size_t>(m);
      EXPECT_EQ(naive.passes[i].available[k], opt.passes[i].available[k])
          << "pass " << i << " at t=" << opt.passes[i].now << " machine "
          << m;
    }
  }
}

TEST(Simulator, AvailabilityOnEveryPassMatchesNaiveView) {
  SimConfig cfg = racked_usage_cluster();
  const Workload w = spread_facebook_mix();
  AvailabilityRecorder naive, opt;
  cfg.naive_scheduler_view = true;
  const SimResult rn = simulate(cfg, w, naive);
  cfg.naive_scheduler_view = false;
  const SimResult ro = simulate(cfg, w, opt);
  ASSERT_TRUE(ro.completed);
  expect_same_tasks(rn, ro);
  expect_same_availability(naive, opt);

  // Every kind of pass occurs: with and without a backlog, each with and
  // without a young attempt somewhere.
  ASSERT_EQ(ro.pass_samples.size(), opt.passes.size());
  int kinds[2][2] = {};
  for (std::size_t i = 0; i < opt.passes.size(); ++i)
    kinds[ro.pass_samples[i].backlog > 0][opt.passes[i].young]++;
  for (int busy = 0; busy < 2; ++busy) {
    for (int young = 0; young < 2; ++young)
      EXPECT_GT(kinds[busy][young], 0) << "busy " << busy << " young "
                                       << young;
  }
}

TEST(Simulator, PreemptOnAnEmptyPassMatchesNaiveView) {
  SimConfig cfg = racked_usage_cluster();
  const Workload w = spread_facebook_mix();
  AvailabilityRecorder naive(/*preempts=*/8), opt(/*preempts=*/8);
  cfg.naive_scheduler_view = true;
  const SimResult rn = simulate(cfg, w, naive);
  cfg.naive_scheduler_view = false;
  const SimResult ro = simulate(cfg, w, opt);
  ASSERT_TRUE(ro.completed);
  const auto preempted = std::count_if(
      opt.passes.begin(), opt.passes.end(),
      [](const AvailabilityRecorder::Pass& p) { return p.preempted; });
  EXPECT_EQ(preempted, 8);
  expect_same_tasks(rn, ro);
  expect_same_availability(naive, opt);
}

TEST(Simulator, OnlyPassesWithABacklogBuildAvailability) {
  // Tetris reads no availability on an empty pass, so every build is the
  // constructor's, over every machine and uplink.
  const SimConfig cfg = racked_usage_cluster();
  core::TetrisScheduler tetris;
  const SimResult r = simulate(cfg, spread_facebook_mix(), tetris);
  ASSERT_TRUE(r.completed);
  const auto busy = std::count_if(
      r.pass_samples.begin(), r.pass_samples.end(),
      [](const PassSample& p) { return p.backlog > 0; });
  ASSERT_GT(busy, 0);
  ASSERT_LT(busy, static_cast<long>(r.pass_samples.size()));
  EXPECT_EQ(r.perf.avail_recomputes, busy * kRackedMachines);
}

}  // namespace
}  // namespace tetris::sim
