// Behavioural tests of the Tetris scheduler, driven through small
// simulations: admission (no over-allocation, the paper's core invariant),
// packing of complementary tasks, locality preference, SRTF ordering, the
// fairness and barrier knobs, and config validation.
#include "core/tetris_scheduler.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>

#include "sim/simulator.h"
#include "tests/support/fake_context.h"
#include "trace/recorder.h"
#include "util/units.h"

namespace tetris::core {
namespace {

using sim::InputSplit;
using sim::JobSpec;
using sim::SimConfig;
using sim::SimResult;
using sim::StageSpec;
using sim::TaskSpec;
using sim::Workload;

TaskSpec cpu_task(double cores, double mem_gb, double seconds) {
  TaskSpec t;
  t.peak_cores = cores;
  t.peak_mem = mem_gb * kGB;
  t.cpu_cycles = cores * seconds;
  return t;
}

TaskSpec disk_task(double mb, double io_mb, sim::MachineId replica) {
  TaskSpec t;
  t.peak_cores = 0.25;
  t.peak_mem = 0.5 * kGB;
  t.max_io_bw = io_mb * kMB;
  InputSplit s;
  s.bytes = mb * kMB;
  s.replicas = {replica};
  t.inputs.push_back(s);
  return t;
}

SimConfig cluster(int machines = 1) {
  SimConfig cfg;
  cfg.num_machines = machines;
  cfg.machine_capacity =
      Resources::full(8, 8 * kGB, 100 * kMB, 100 * kMB, 125 * kMB, 125 * kMB);
  return cfg;
}

Workload single_stage(std::vector<TaskSpec> tasks) {
  Workload w;
  JobSpec job;
  StageSpec s;
  s.tasks = std::move(tasks);
  job.stages.push_back(std::move(s));
  w.jobs.push_back(std::move(job));
  return w;
}

SimResult run(const SimConfig& cfg, const Workload& w,
              TetrisConfig tcfg = {}) {
  TetrisScheduler tetris(std::move(tcfg));
  return sim::simulate(cfg, w, tetris);
}

// ---------------------------------------------------------------------------
// Config validation

TEST(TetrisConfig, RejectsOutOfRangeKnobs) {
  TetrisConfig bad;
  bad.fairness_knob = 1.0;
  EXPECT_THROW(TetrisScheduler{bad}, std::invalid_argument);
  bad = TetrisConfig{};
  bad.fairness_knob = -0.1;
  EXPECT_THROW(TetrisScheduler{bad}, std::invalid_argument);
  bad = TetrisConfig{};
  bad.barrier_knob = 1.5;
  EXPECT_THROW(TetrisScheduler{bad}, std::invalid_argument);
  bad = TetrisConfig{};
  bad.remote_penalty = -0.2;
  EXPECT_THROW(TetrisScheduler{bad}, std::invalid_argument);
  bad = TetrisConfig{};
  bad.srtf_weight = -1;
  EXPECT_THROW(TetrisScheduler{bad}, std::invalid_argument);
}

// Every numeric knob against NaN, +-inf and a negative value. Range checks
// written `x < lo || x > hi` let NaN through (a NaN fairness_knob used to
// run to completion with eligibility silently cut to one job); each value
// must be rejected, except +inf starvation_threshold, the documented "off".
TEST(TetrisConfig, RejectsNaNInfiniteAndNegativeKnobs) {
  constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
  constexpr double kInf = std::numeric_limits<double>::infinity();
  struct Knob {
    const char* name;
    double TetrisConfig::*field;
    bool inf_is_off;
  };
  const Knob knobs[] = {
      {"remote_penalty", &TetrisConfig::remote_penalty, false},
      {"srtf_weight", &TetrisConfig::srtf_weight, false},
      {"fairness_knob", &TetrisConfig::fairness_knob, false},
      {"barrier_knob", &TetrisConfig::barrier_knob, false},
      {"preemption_deficit", &TetrisConfig::preemption_deficit, false},
      {"starvation_threshold", &TetrisConfig::starvation_threshold, true},
      {"future_lookahead", &TetrisConfig::future_lookahead, false},
  };
  for (const Knob& k : knobs) {
    for (const double v : {kNaN, kInf, -kInf, -1.0}) {
      TetrisConfig cfg;
      cfg.*k.field = v;
      if (k.inf_is_off && v == kInf) {
        EXPECT_NO_THROW(TetrisScheduler{cfg}) << k.name << " = " << v;
      } else {
        EXPECT_THROW(TetrisScheduler{cfg}, std::invalid_argument)
            << k.name << " = " << v;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Admission: the no-over-allocation invariant (paper §3.2)

TEST(Tetris, NeverOverAllocatesMixedWorkload) {
  // A mix of cpu-, memory-, disk- and network-bound tasks on a small
  // cluster: every task must run at exactly its natural speed.
  std::vector<TaskSpec> tasks;
  for (int i = 0; i < 10; ++i) tasks.push_back(cpu_task(2, 1, 8));
  for (int i = 0; i < 10; ++i) tasks.push_back(cpu_task(0.5, 4, 12));
  for (int i = 0; i < 10; ++i) tasks.push_back(disk_task(500, 100, i % 3));
  SimConfig cfg = cluster(3);
  const auto r = run(cfg, single_stage(tasks));
  ASSERT_TRUE(r.completed);
  for (const auto& t : r.tasks) {
    EXPECT_NEAR(t.duration(), t.natural_duration, 1e-6);
  }
}

TEST(Tetris, CpuMemOnlyAblationOverAllocatesDisk) {
  std::vector<TaskSpec> tasks;
  for (int i = 0; i < 8; ++i) tasks.push_back(disk_task(500, 100, 0));
  TetrisConfig tcfg;
  tcfg.only_cpu_mem = true;
  const auto r = run(cluster(1), single_stage(tasks), tcfg);
  ASSERT_TRUE(r.completed);
  int slowed = 0;
  for (const auto& t : r.tasks) {
    if (t.duration() > t.natural_duration * 1.5) slowed++;
  }
  EXPECT_GE(slowed, 6);
}

TEST(Tetris, ChecksRemoteLegsAtSourceMachines) {
  // Data on machine 0; mem-starved machine 0 forces remote execution.
  // Machine 0's disk supports only one 100 MB/s reader at natural speed;
  // Tetris's remote check serializes them.
  SimConfig cfg;
  cfg.machine_capacities = {
      Resources::full(8, 0.1 * kGB, 100 * kMB, 100 * kMB, 125 * kMB,
                      250 * kMB),
      Resources::full(8, 8 * kGB, 100 * kMB, 100 * kMB, 250 * kMB,
                      125 * kMB)};
  const auto r = run(cfg, single_stage({disk_task(1250, 100, 0),
                                        disk_task(1250, 100, 0)}));
  ASSERT_TRUE(r.completed);
  for (const auto& t : r.tasks) {
    EXPECT_NEAR(t.duration(), t.natural_duration, 1e-6);
  }
}

// ---------------------------------------------------------------------------
// Packing (§3.2)

TEST(Tetris, PacksComplementaryTasksTogether) {
  // 7 cpu-bound (1 core, tiny disk) + 4 disk-bound (0.25 core) tasks sum
  // to exactly 8 cores and 100 MB/s of disk: their demands are
  // complementary, so a single wave starts all 11.
  std::vector<TaskSpec> tasks;
  for (int i = 0; i < 7; ++i) tasks.push_back(cpu_task(1, 0.5, 10));
  for (int i = 0; i < 4; ++i) tasks.push_back(disk_task(250, 25, 0));
  const auto r = run(cluster(1), single_stage(tasks));
  ASSERT_TRUE(r.completed);
  SimTime first = 1e18;
  for (const auto& t : r.tasks) first = std::min(first, t.start);
  int first_wave = 0;
  for (const auto& t : r.tasks) {
    if (t.start <= first + 1e-9) first_wave++;
  }
  EXPECT_EQ(first_wave, 11);
}

TEST(Tetris, PrefersLocalPlacement) {
  // One disk task whose only replica is machine 2 of 3; with the whole
  // cluster idle it must land there.
  const auto r = run(cluster(3), single_stage({disk_task(500, 100, 2)}));
  ASSERT_TRUE(r.completed);
  EXPECT_EQ(r.tasks[0].host, 2);
  EXPECT_EQ(r.tasks[0].local_fraction, 1.0);
}

TEST(Tetris, ZeroRemotePenaltyStillCompletes) {
  TetrisConfig tcfg;
  tcfg.remote_penalty = 0;
  const auto r = run(cluster(2), single_stage({disk_task(500, 100, 1),
                                               disk_task(500, 100, 1)}),
                     tcfg);
  EXPECT_TRUE(r.completed);
}

// ---------------------------------------------------------------------------
// SRTF (§3.3)

TEST(Tetris, SrtfFinishesSmallJobFirst) {
  Workload w;
  {
    JobSpec big;
    StageSpec s;
    for (int i = 0; i < 32; ++i) s.tasks.push_back(cpu_task(1, 1, 10));
    big.stages.push_back(s);
    w.jobs.push_back(big);
  }
  {
    JobSpec small;
    StageSpec s;
    for (int i = 0; i < 4; ++i) s.tasks.push_back(cpu_task(1, 1, 10));
    small.stages.push_back(s);
    w.jobs.push_back(small);
  }
  TetrisConfig tcfg;
  tcfg.fairness_knob = 0;  // let SRTF act unrestricted
  const auto r = run(cluster(1), w, tcfg);
  ASSERT_TRUE(r.completed);
  EXPECT_LT(r.jobs[1].finish, r.jobs[0].finish);
}

TEST(Tetris, PackingOnlyIgnoresJobSizes) {
  // With srtf_weight = 0 and equal task shapes, job order follows packing
  // ties, not remaining work; the workload still completes.
  Workload w;
  for (int j = 0; j < 3; ++j) {
    JobSpec job;
    StageSpec s;
    for (int i = 0; i < 8 * (j + 1); ++i)
      s.tasks.push_back(cpu_task(1, 1, 5));
    job.stages.push_back(s);
    w.jobs.push_back(job);
  }
  TetrisConfig tcfg;
  tcfg.srtf_weight = 0;
  const auto r = run(cluster(2), w, tcfg);
  EXPECT_TRUE(r.completed);
}

// ---------------------------------------------------------------------------
// Fairness knob (§3.4)

TEST(Tetris, HighFairnessKnobServesBothJobsConcurrently) {
  // Two equal jobs, f -> 1: the furthest-below job gets each grant, so
  // both run from the first wave.
  Workload w;
  for (int j = 0; j < 2; ++j) {
    JobSpec job;
    StageSpec s;
    for (int i = 0; i < 8; ++i) s.tasks.push_back(cpu_task(1, 1, 10));
    job.stages.push_back(s);
    w.jobs.push_back(job);
  }
  TetrisConfig tcfg;
  tcfg.fairness_knob = 0.95;
  const auto r = run(cluster(1), w, tcfg);
  ASSERT_TRUE(r.completed);
  SimTime first = 1e18;
  for (const auto& t : r.tasks) first = std::min(first, t.start);
  int per_job[2] = {0, 0};
  for (const auto& t : r.tasks) {
    if (t.start <= first + 1e-9) per_job[t.job]++;
  }
  EXPECT_GT(per_job[0], 0);
  EXPECT_GT(per_job[1], 0);
}

TEST(Tetris, FairnessKnobDoesNotIdleOnBarrierBlockedJobs) {
  // Job 0 is waiting at a barrier (reduce blocked on maps); job 1 has
  // runnable work. Even at high f, job 1 must run — a blocked job demands
  // nothing and must not occupy the eligibility slot.
  Workload w;
  {
    JobSpec job;
    StageSpec map;
    map.tasks = {cpu_task(8, 1, 30)};  // occupies the whole machine 0
    StageSpec reduce;
    reduce.deps = {0};
    reduce.tasks = {cpu_task(1, 1, 5)};
    job.stages = {map, reduce};
    w.jobs.push_back(job);
  }
  {
    JobSpec job;
    StageSpec s;
    for (int i = 0; i < 4; ++i) s.tasks.push_back(cpu_task(1, 1, 5));
    job.stages.push_back(s);
    w.jobs.push_back(job);
  }
  TetrisConfig tcfg;
  tcfg.fairness_knob = 0.95;
  const auto r = run(cluster(2), w, tcfg);
  ASSERT_TRUE(r.completed);
  // Job 1's tasks must all run while job 0's map still occupies machine 0
  // (they fit on machine 1).
  for (const auto& t : r.tasks) {
    if (t.job == 1) {
      EXPECT_LT(t.finish, 30.0);
    }
  }
}

// ---------------------------------------------------------------------------
// Barrier knob (§3.5)

TEST(Tetris, BarrierHintPrioritizesStageStragglers) {
  // Job 0: a 10-task stage; 9 tasks are long, already near completion by
  // the time the competing job floods in. With b=0.5 the last tasks get
  // priority over the flood.
  Workload w;
  {
    JobSpec job;
    StageSpec s;
    for (int i = 0; i < 10; ++i) s.tasks.push_back(cpu_task(1, 1, 5));
    StageSpec done;
    done.deps = {0};
    done.tasks = {cpu_task(1, 1, 1)};
    job.stages = {s, done};
    w.jobs.push_back(job);
  }
  {
    JobSpec flood;
    flood.arrival = 2;
    StageSpec s;
    for (int i = 0; i < 64; ++i) s.tasks.push_back(cpu_task(1, 1, 20));
    flood.stages.push_back(s);
    w.jobs.push_back(flood);
  }
  TetrisConfig with_hint;
  with_hint.barrier_knob = 0.5;
  with_hint.fairness_knob = 0;
  with_hint.srtf_weight = 0;
  TetrisScheduler sched(with_hint);
  const auto r = sim::simulate(cluster(1), w, sched);
  ASSERT_TRUE(r.completed);
  EXPECT_GT(sched.stats().priority_placements, 0);
}

TEST(Tetris, BarrierKnobOneNeverPrioritizes) {
  Workload w = single_stage({cpu_task(1, 1, 5), cpu_task(1, 1, 5)});
  TetrisConfig tcfg;
  tcfg.barrier_knob = 1.0;
  TetrisScheduler sched(tcfg);
  const auto r = sim::simulate(cluster(1), w, sched);
  ASSERT_TRUE(r.completed);
  EXPECT_EQ(sched.stats().priority_placements, 0);
}

// ---------------------------------------------------------------------------
// Future-demand lookahead (extension; §3.5 "Future Demands")

// Machine busy with a job's maps until ~t=10; its whole-machine reduce is
// imminent. A competing 100-second filler task would otherwise backfill
// the cores freed by early map finishes and block the reduce for its
// whole duration.
Workload lookahead_workload() {
  Workload w;
  {
    JobSpec job;
    StageSpec maps;
    const double durations[] = {8, 9, 10, 11};
    for (int i = 0; i < 4; ++i)
      maps.tasks.push_back(cpu_task(2, 1, durations[i]));
    StageSpec reduce;
    reduce.deps = {0};
    reduce.tasks = {cpu_task(8, 2, 5)};  // the whole machine
    job.stages = {maps, reduce};
    w.jobs.push_back(job);
  }
  {
    JobSpec filler;
    filler.arrival = 5;
    StageSpec s;
    s.tasks = {cpu_task(4, 1, 100)};
    filler.stages.push_back(s);
    w.jobs.push_back(filler);
  }
  return w;
}

TEST(Tetris, FutureLookaheadHoldsResourcesForImminentStage) {
  TetrisConfig base;
  base.fairness_knob = 0;
  base.srtf_weight = 0;  // isolate the lookahead effect
  const auto r_greedy = run(cluster(1), lookahead_workload(), base);
  ASSERT_TRUE(r_greedy.completed);

  TetrisConfig look = base;
  look.future_lookahead = 10;
  const auto r_look = run(cluster(1), lookahead_workload(), look);
  ASSERT_TRUE(r_look.completed);

  // Without lookahead the filler backfills at ~t=9 and the reduce waits
  // behind it; with lookahead the reduce starts right after the maps.
  EXPECT_GT(r_greedy.jobs[0].finish, 60);
  EXPECT_LT(r_look.jobs[0].finish, 25);
}

TEST(Tetris, FutureLookaheadZeroIsGreedy) {
  TetrisConfig tcfg;
  tcfg.fairness_knob = 0;
  tcfg.future_lookahead = 0;
  const auto r = run(cluster(1), lookahead_workload(), tcfg);
  EXPECT_TRUE(r.completed);
}

TEST(TetrisConfig, RejectsNegativeLookahead) {
  TetrisConfig bad;
  bad.future_lookahead = -1;
  EXPECT_THROW(TetrisScheduler{bad}, std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Starvation reservation (extension; §3.5 leaves this to future work)

// One whole-machine task against a continuous stream of 4-core tasks with
// staggered durations: holes never reach 16 cores naturally, so without a
// reservation the big task waits for the stream to drain.
Workload starvation_workload() {
  Workload w;
  {
    JobSpec big;
    big.name = "big";
    big.arrival = 3;  // the stream already owns the machine
    StageSpec s;
    s.tasks = {cpu_task(16, 4, 10)};
    big.stages.push_back(s);
    w.jobs.push_back(big);
  }
  {
    JobSpec stream;
    stream.name = "stream";
    StageSpec s;
    const double durations[] = {6, 7, 9, 11};
    for (int i = 0; i < 24; ++i) {
      s.tasks.push_back(cpu_task(4, 0.5, durations[i % 4]));
    }
    stream.stages.push_back(s);
    w.jobs.push_back(stream);
  }
  return w;
}

TEST(Tetris, StarvationReservationUnblocksLargeTask) {
  TetrisConfig no_res;
  no_res.fairness_knob = 0;
  const auto r_without = run(cluster(1), starvation_workload(), no_res);
  ASSERT_TRUE(r_without.completed);

  TetrisConfig with_res = no_res;
  with_res.starvation_threshold = 8;
  TetrisScheduler sched(with_res);
  const auto r_with = sim::simulate(cluster(1), starvation_workload(), sched);
  ASSERT_TRUE(r_with.completed);
  EXPECT_GT(sched.stats().starved_placements, 0);

  const auto big_finish = [](const sim::SimResult& r) {
    for (const auto& t : r.tasks) {
      if (t.job == 0) return t.finish;
    }
    return -1.0;
  };
  // The reservation lets the big task run as soon as the four running
  // stream tasks drain (~t=21) instead of behind the whole stream.
  EXPECT_LT(big_finish(r_with) + 10, big_finish(r_without));
}

TEST(Tetris, StarvationThresholdInfinityNeverReserves) {
  TetrisConfig tcfg;
  tcfg.fairness_knob = 0;
  TetrisScheduler sched(tcfg);
  const auto r = sim::simulate(cluster(1), starvation_workload(), sched);
  ASSERT_TRUE(r.completed);
  EXPECT_EQ(sched.stats().starved_placements, 0);
}

TEST(TetrisConfig, RejectsNonPositiveStarvationThreshold) {
  TetrisConfig bad;
  bad.starvation_threshold = 0;
  EXPECT_THROW(TetrisScheduler{bad}, std::invalid_argument);
}

// A group's last-served stamp is keyed by job and stage, and a job may
// have any number of stages: serving stage 2^20 of job 0 must not stamp
// stage 0 of job 1. Both wait past the threshold; only one fits at a time.
TEST(Tetris, ServingOneStarvedGroupLeavesAnotherJobsGroupStarved) {
  for (const bool naive : {false, true}) {
    SCOPED_TRACE(naive ? "naive" : "optimized");
    const Resources cap = Resources::uniform(1);
    Resources demand;
    demand[Resource::kCpu] = 0.6;
    test::FakeContext ctx({cap});
    ctx.add_group(0, 1 << 20, 1, demand).view.longest_wait = 10;
    ctx.add_group(1, 0, 1, demand).view.longest_wait = 10;
    ctx.set_now(100);
    TetrisConfig tcfg;
    tcfg.starvation_threshold = 5;
    tcfg.naive_scoring = naive;
    TetrisScheduler sched(tcfg);
    sched.schedule(ctx);
    ASSERT_EQ(ctx.placements.size(), 1u);
    EXPECT_EQ(ctx.placements[0].group.job, 0);
    EXPECT_EQ(sched.stats().starved_placements, 1);

    // A second later the machine is free again. Job 1's group has never
    // been served, so it is still starved.
    ctx.set_now(101);
    ctx.set_available(0, cap);
    sched.schedule(ctx);
    ASSERT_EQ(ctx.placements.size(), 2u);
    EXPECT_EQ(ctx.placements[1].group.job, 1);
    EXPECT_EQ(sched.stats().starved_placements, 2);
  }
}

// ---------------------------------------------------------------------------
// Fairness preemption (extension; §3.1 excludes preemption for simplicity)

// Job 0 fills the machine with four long tasks; job 1 arrives and fits
// nowhere for a long time. With preemption enabled, Tetris kills one of
// job 0's tasks to let job 1 in.
Workload hog_workload() {
  Workload w;
  {
    JobSpec hog;
    StageSpec s;
    for (int i = 0; i < 4; ++i) s.tasks.push_back(cpu_task(2, 2, 200));
    hog.stages.push_back(s);
    w.jobs.push_back(hog);
  }
  {
    JobSpec late;
    late.arrival = 10;
    StageSpec s;
    s.tasks = {cpu_task(2, 2, 10)};
    late.stages.push_back(s);
    w.jobs.push_back(late);
  }
  return w;
}

TEST(Tetris, PreemptionLetsStarvedJobIn) {
  TetrisConfig tcfg;
  tcfg.fairness_knob = 0;
  tcfg.preempt_for_fairness = true;
  tcfg.preemption_deficit = 0.2;
  TetrisScheduler sched(tcfg);
  const auto r = sim::simulate(cluster(1), hog_workload(), sched);
  ASSERT_TRUE(r.completed);
  EXPECT_GT(sched.stats().preemptions, 0);
  // Job 1 gets in long before job 0's 200-second wave drains.
  EXPECT_LT(r.jobs[1].finish, 100);
  // The preempted task re-executed (attempts > 1 somewhere in job 0).
  int retried = 0;
  for (const auto& t : r.tasks) {
    if (t.job == 0 && t.attempts > 1) retried++;
  }
  EXPECT_GT(retried, 0);
}

TEST(Tetris, NoPreemptionByDefault) {
  TetrisConfig tcfg;
  tcfg.fairness_knob = 0;
  TetrisScheduler sched(tcfg);
  const auto r = sim::simulate(cluster(1), hog_workload(), sched);
  ASSERT_TRUE(r.completed);
  EXPECT_EQ(sched.stats().preemptions, 0);
  EXPECT_GT(r.jobs[1].finish, 199);  // waits for the first wave
}

TEST(Tetris, PreemptionIsGentleUnderSmallDeficits) {
  // Both jobs get served promptly: no kill should ever fire.
  Workload w;
  for (int j = 0; j < 2; ++j) {
    JobSpec job;
    StageSpec s;
    for (int i = 0; i < 4; ++i) s.tasks.push_back(cpu_task(1, 1, 10));
    job.stages.push_back(s);
    w.jobs.push_back(job);
  }
  TetrisConfig tcfg;
  tcfg.preempt_for_fairness = true;
  TetrisScheduler sched(tcfg);
  const auto r = sim::simulate(cluster(1), w, sched);
  ASSERT_TRUE(r.completed);
  EXPECT_EQ(sched.stats().preemptions, 0);
}

TEST(TetrisConfig, RejectsBadPreemptionDeficit) {
  TetrisConfig bad;
  bad.preemption_deficit = 0;
  EXPECT_THROW(TetrisScheduler{bad}, std::invalid_argument);
  bad.preemption_deficit = 1.5;
  EXPECT_THROW(TetrisScheduler{bad}, std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Tracker integration (§4.1)

TEST(Tetris, UsageTrackerReclaimsOverEstimates) {
  // With kLearnedProfile, unprofiled stages are over-estimated by 1.8x.
  // Allocation-based tracking strands the over-estimate (3.6 GB booked per
  // 2 GB task -> 2 concurrent); usage-based tracking reclaims it (3
  // concurrent), finishing strictly earlier.
  std::vector<TaskSpec> tasks;
  for (int i = 0; i < 16; ++i) tasks.push_back(cpu_task(1, 2, 20));
  SimConfig cfg = cluster(1);
  cfg.estimation.mode = sim::EstimationMode::kLearnedProfile;
  cfg.estimation.overestimate_factor = 1.8;
  cfg.estimation.profile_after = 1000;  // never profiles within this run
  cfg.ramp_up_window = 1.0;

  cfg.tracker = sim::TrackerMode::kAllocation;
  const auto r_alloc = run(cfg, single_stage(tasks));
  cfg.tracker = sim::TrackerMode::kUsage;
  const auto r_usage = run(cfg, single_stage(tasks));
  ASSERT_TRUE(r_alloc.completed);
  ASSERT_TRUE(r_usage.completed);
  EXPECT_LT(r_usage.makespan, r_alloc.makespan);
}

TEST(Tetris, AvoidsMachinesBusyWithIngestion) {
  // Ingestion saturates machine 0's disk; each task has replicas on both
  // machine 0 and machine 1, and Tetris (usage tracker) must use the
  // replica on the quiet machine instead of queueing behind the ingestion.
  std::vector<TaskSpec> tasks;
  for (int i = 0; i < 4; ++i) {
    TaskSpec t = disk_task(500, 100, 0);
    t.inputs[0].replicas = {0, 1};
    tasks.push_back(t);
  }
  SimConfig cfg = cluster(3);
  cfg.tracker = sim::TrackerMode::kUsage;
  sim::BackgroundActivity act;
  act.machine = 0;
  act.start = 0;
  act.end = 1e6;
  act.usage[Resource::kDiskRead] = 100 * kMB;
  act.usage[Resource::kDiskWrite] = 100 * kMB;
  cfg.activities.push_back(act);
  const auto r = run(cfg, single_stage(tasks));
  ASSERT_TRUE(r.completed);
  for (const auto& t : r.tasks) {
    EXPECT_NE(t.host, 0);
    EXPECT_LT(t.finish, 1000);  // ran during, not after, the ingestion
  }
}

// ---------------------------------------------------------------------------
// End-to-end sanity across knob combinations

struct KnobCase {
  double fairness;
  double barrier;
  double srtf;
  AlignmentKind kind;
};

class TetrisKnobMatrixTest : public ::testing::TestWithParam<KnobCase> {};

TEST_P(TetrisKnobMatrixTest, CompletesWithoutOverAllocation) {
  const KnobCase kc = GetParam();
  std::vector<TaskSpec> tasks;
  for (int i = 0; i < 12; ++i) tasks.push_back(cpu_task(2, 2, 6));
  for (int i = 0; i < 6; ++i) tasks.push_back(disk_task(400, 100, i % 2));
  TetrisConfig tcfg;
  tcfg.fairness_knob = kc.fairness;
  tcfg.barrier_knob = kc.barrier;
  tcfg.srtf_weight = kc.srtf;
  tcfg.alignment = kc.kind;
  const auto r = run(cluster(2), single_stage(tasks), tcfg);
  ASSERT_TRUE(r.completed);
  for (const auto& t : r.tasks) {
    EXPECT_NEAR(t.duration(), t.natural_duration, 1e-6);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Knobs, TetrisKnobMatrixTest,
    ::testing::Values(
        KnobCase{0, 1.0, 0, AlignmentKind::kCosine},
        KnobCase{0, 0.9, 1, AlignmentKind::kCosine},
        KnobCase{0.25, 0.9, 1, AlignmentKind::kCosine},
        KnobCase{0.75, 0.8, 2, AlignmentKind::kCosine},
        KnobCase{0.25, 0.9, 1, AlignmentKind::kL2NormDiff},
        KnobCase{0.25, 0.9, 1, AlignmentKind::kL2NormRatio},
        KnobCase{0.25, 0.9, 1, AlignmentKind::kFfdProd},
        KnobCase{0.25, 0.9, 1, AlignmentKind::kFfdSum}));

// ---------------------------------------------------------------------------
// Hot-path shortcuts (DESIGN.md §8), pinned through the FakeContext:
// sticky rejection and the whole-row skip must change only how much work
// a pass does — never which placements it commits.

Resources cpu_mem(double cores, double mem_gb) {
  Resources d;
  d[Resource::kCpu] = cores;
  d[Resource::kMem] = mem_gb * kGB;
  return d;
}

test::FakeContext hot_path_context() {
  const Resources cap =
      Resources::full(8, 8 * kGB, 100 * kMB, 100 * kMB, 125 * kMB, 125 * kMB);
  test::FakeContext ctx({cap, cap});
  // Machine 0 is cpu-rich / mem-poor, machine 1 the reverse: group E fits
  // the component-wise max but no single machine, so it cheap-rejects
  // everywhere and every later placement-triggered re-touch of its cells
  // must answer from the sticky bit. G outranks F on machine 0 and places
  // first, so F's cell there is re-probed and re-scored in the next round.
  ctx.set_available(0, cpu_mem(6, 1));
  ctx.set_available(1, cpu_mem(1, 6));
  ctx.add_group(0, 0, 1, cpu_mem(4, 4));     // E: fits nowhere, sticky
  ctx.add_group(1, 0, 3, cpu_mem(1, 0.5));   // F: re-probed after G lands
  ctx.add_group(2, 0, 1, cpu_mem(2, 0.25));  // G: wins round 1 on machine 0
  return ctx;
}

TetrisConfig hot_path_config(bool naive) {
  TetrisConfig tcfg;
  tcfg.fairness_knob = 0;  // every job eligible: isolate the cell logic
  tcfg.naive_scoring = naive;
  return tcfg;
}

TEST(TetrisHotPath, OptimizedPlacesExactlyWhatNaivePlaces) {
  auto naive_ctx = hot_path_context();
  TetrisScheduler naive(hot_path_config(true));
  naive.schedule(naive_ctx);

  auto opt_ctx = hot_path_context();
  TetrisScheduler opt(hot_path_config(false));
  opt.schedule(opt_ctx);

  ASSERT_EQ(naive_ctx.placements.size(), opt_ctx.placements.size());
  for (std::size_t i = 0; i < naive_ctx.placements.size(); ++i) {
    const auto& a = naive_ctx.placements[i];
    const auto& b = opt_ctx.placements[i];
    EXPECT_EQ(a.group.job, b.group.job) << i;
    EXPECT_EQ(a.group.stage, b.group.stage) << i;
    EXPECT_EQ(a.machine, b.machine) << i;
    EXPECT_EQ(a.task_index, b.task_index) << i;
  }
  // Sticky rejection skips re-evaluating E's cells; F's re-probe reaches
  // the context on both paths. Sparing it is the simulator's probe slots'
  // job (EquivalenceCounters.ColumnInvalidationReprobesFromSlot), which
  // the FakeContext does not model.
  EXPECT_EQ(opt_ctx.probe_count(), naive_ctx.probe_count());
  EXPECT_GT(opt.perf().sticky_rejects, 0);
  EXPECT_EQ(naive.perf().sticky_rejects, 0);
  // Both paths score the same cells — the eps normalizer inputs agree.
  EXPECT_EQ(naive.perf().score_evals, opt.perf().score_evals);
}

TEST(TetrisHotPath, FitIndexSkipsGroupsNoMachineCanHold) {
  const Resources cap =
      Resources::full(8, 8 * kGB, 100 * kMB, 100 * kMB, 125 * kMB, 125 * kMB);
  test::FakeContext ctx({cap, cap});
  ctx.add_group(0, 0, 2, cpu_mem(16, 4));  // wider than any machine
  ctx.add_group(1, 0, 2, cpu_mem(2, 1));   // schedulable
  TetrisScheduler opt(hot_path_config(false));
  opt.schedule(ctx);

  // Only the schedulable group's tasks land. The unfittable group's cells
  // cheap-reject without a probe, and after a placement re-touches them
  // they answer from the sticky bit.
  EXPECT_EQ(ctx.placements.size(), 2u);
  for (const auto& p : ctx.placements) EXPECT_EQ(p.group.job, 1);
  EXPECT_GT(opt.perf().sticky_rejects, 0);

  test::FakeContext naive_two({cap, cap});
  naive_two.add_group(0, 0, 2, cpu_mem(16, 4));
  naive_two.add_group(1, 0, 2, cpu_mem(2, 1));
  TetrisScheduler naive(hot_path_config(true));
  naive.schedule(naive_two);
  EXPECT_EQ(naive_two.placements.size(), 2u);
  // The unfittable row cheap-rejects before probing on both paths, so
  // probe counts agree.
  EXPECT_EQ(naive_two.probe_count(), ctx.probe_count());
}

TEST(TetrisHotPath, FitIndexIgnoresDownMachines) {
  const Resources cap =
      Resources::full(8, 8 * kGB, 100 * kMB, 100 * kMB, 125 * kMB, 125 * kMB);
  test::FakeContext ctx({cap, cap});
  ctx.set_machine_up(0, false);
  ctx.set_available(1, cpu_mem(1, 1));  // too tight for the group
  ctx.add_group(0, 0, 1, cpu_mem(4, 2));
  TetrisScheduler opt(hot_path_config(false));
  opt.schedule(ctx);
  // The down machine's (full) capacity must not admit the group, and
  // machine 1 cheap-rejects it: nothing is placed or probed.
  EXPECT_TRUE(ctx.placements.empty());
  EXPECT_EQ(ctx.probe_count(), 0);
}

// The eps normalizer adds |a| in the naive scan's (g, m) order, and FP
// addition is not associative. A round that scores a tier-0 row before
// the tier-1 row that wins it must still add the tier-0 row's terms
// first. Here the naive order adds 1, 2^-53, 2^-53, 2^-53 (sum 1, each
// tiny term rounding away) while a tier-first order would add 2^-53,
// 2^-53, 1, 2^-53 (sum 1 + 2^-51). The second placement's SRTF term
// y = eps * p_hat reads that sum, so it tells the two orders apart.
TEST(TetrisHotPath, WavesReplayEpsInNaiveRowOrder) {
  const auto placements = [](bool naive) {
    constexpr double kTiny = 0x1p-53;
    const auto cpu = [](double cores) {
      Resources d;
      d[Resource::kCpu] = cores;
      return d;
    };
    test::FakeContext ctx({Resources::uniform(1), Resources::uniform(1)});
    // Row 0, tier 0: |a| = 1 on machine 0 and 2^-53 on machine 1.
    ctx.add_group(0, 0, 1, cpu(1)).demand_on[1] = cpu(kTiny);
    // Row 1, tier 1 (its stage is 90% done): |a| = 2^-53 on both. It wins
    // round 1 on machine 0; row 0 wins round 2 under the new eps.
    auto& straggler = ctx.add_group(1, 0, 1, cpu(kTiny));
    straggler.view.finished = 9;
    straggler.view.total = 10;
    ctx.job(0).remaining_work = 1;
    ctx.job(1).remaining_work = 1;
    trace::TraceConfig tc;
    tc.enabled = true;
    trace::Recorder rec(tc);
    ctx.set_tracer(&rec);
    TetrisConfig tcfg;
    tcfg.naive_scoring = naive;
    TetrisScheduler sched(tcfg);
    sched.schedule(ctx);
    std::vector<trace::Event> out;
    for (const auto& ev : rec.take_log().events) {
      if (ev.kind == trace::EventKind::kPlacement) out.push_back(ev);
    }
    return out;
  };

  const auto oracle = placements(/*naive=*/true);
  ASSERT_EQ(oracle.size(), 2u);
  EXPECT_EQ(oracle[0].a, 1);  // the straggler first
  EXPECT_EQ(oracle[0].e, 1);
  EXPECT_EQ(oracle[1].a, 0);
  EXPECT_EQ(oracle[1].y, 0.25);  // eps = (1 / 4 scores) / p_bar, p_hat = 1
  const auto opt = placements(/*naive=*/false);
  ASSERT_EQ(opt.size(), oracle.size());
  for (std::size_t i = 0; i < opt.size(); ++i) {
    EXPECT_EQ(opt[i].a, oracle[i].a) << i;
    EXPECT_EQ(opt[i].d, oracle[i].d) << i;
    EXPECT_EQ(opt[i].x, oracle[i].x) << i;
    EXPECT_EQ(opt[i].y, oracle[i].y) << i;
  }
}

// The naive scan skips a row whose tier is below that of a candidate it
// has already found, and the optimized scan must skip exactly the same
// rows, its whole-row skip included (DESIGN.md §8.2).
// Rows: tier 0, a tier-1 straggler (9 of 10 tasks done), tier 0. When the
// straggler is admissible it wins round 1, and the naive scan leaves the
// last row alone that round. When it fits nowhere it yields no candidate,
// and the last row must be scanned. Scanning a row too many shows in
// score_evals and probes; scanning one too few in score_evals and
// placements.
TEST(TetrisHotPath, LiveHigherTierRowSkipsLaterLowerRows) {
  struct Outcome {
    std::vector<sim::Probe> placements;
    long probes = 0;
    long score_evals = 0;
  };
  for (const bool straggler_fits : {true, false}) {
    const auto run = [&](bool naive) {
      const Resources cap = Resources::full(8, 8 * kGB, 100 * kMB, 100 * kMB,
                                            125 * kMB, 125 * kMB);
      test::FakeContext ctx({cap, cap});
      ctx.add_group(0, 0, 2, cpu_mem(1, 1));
      auto& straggler = ctx.add_group(
          1, 0, 1, straggler_fits ? cpu_mem(2, 2) : cpu_mem(16, 1));
      straggler.view.finished = 9;
      straggler.view.total = 10;
      ctx.add_group(2, 0, 2, cpu_mem(3, 1));
      TetrisScheduler sched(hot_path_config(naive));
      sched.schedule(ctx);
      return Outcome{ctx.placements, ctx.probe_count(),
                     sched.perf().score_evals};
    };
    const Outcome oracle = run(/*naive=*/true);
    const Outcome opt = run(/*naive=*/false);
    SCOPED_TRACE(straggler_fits ? "straggler admissible"
                                : "straggler fits nowhere");
    ASSERT_FALSE(oracle.placements.empty());
    if (straggler_fits) {
      EXPECT_EQ(oracle.placements[0].group.job, 1);
    } else {
      for (const auto& p : oracle.placements) EXPECT_NE(p.group.job, 1);
    }
    ASSERT_EQ(opt.placements.size(), oracle.placements.size());
    for (std::size_t i = 0; i < opt.placements.size(); ++i) {
      EXPECT_EQ(opt.placements[i].group.job, oracle.placements[i].group.job)
          << i;
      EXPECT_EQ(opt.placements[i].machine, oracle.placements[i].machine) << i;
      EXPECT_EQ(opt.placements[i].task_index,
                oracle.placements[i].task_index)
          << i;
    }
    EXPECT_EQ(opt.score_evals, oracle.score_evals);
    EXPECT_LE(opt.probes, oracle.probes);
  }
}

}  // namespace
}  // namespace tetris::core
