// End-to-end regression guards: the paper's headline claims must hold on
// generated workloads, runs must be deterministic and conservation laws
// must hold across every scheduler.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <set>
#include <string>

#include "analysis/metrics.h"
#include "core/tetris_scheduler.h"
#include "sched/drf_scheduler.h"
#include "sched/slot_scheduler.h"
#include "sched/upper_bound.h"
#include "sim/job_source.h"
#include "sim/simulator.h"
#include "workload/facebook.h"
#include "workload/profiles.h"
#include "workload/suite.h"
#include "workload/trace_binary.h"

namespace tetris {
namespace {

sim::SimConfig test_cluster(int machines = 12) {
  sim::SimConfig cfg;
  cfg.num_machines = machines;
  cfg.machine_capacity = workload::facebook_machine();
  return cfg;
}

sim::Workload test_workload(std::uint64_t seed = 1) {
  workload::SuiteConfig wcfg;
  wcfg.num_jobs = 30;
  wcfg.num_machines = 12;
  wcfg.task_scale = 0.05;
  wcfg.arrival_window = 300;
  wcfg.seed = seed;
  return workload::make_suite_workload(wcfg);
}

sim::SimResult run_tetris(const sim::SimConfig& base, const sim::Workload& w,
                          core::TetrisConfig tcfg = {}) {
  sim::SimConfig cfg = base;
  cfg.tracker = sim::TrackerMode::kUsage;
  core::TetrisScheduler tetris(std::move(tcfg));
  return sim::simulate(cfg, w, tetris);
}

TEST(EndToEnd, HeadlineClaimTetrisBeatsBaselines) {
  const auto w = test_workload();
  const auto cfg = test_cluster();
  sched::SlotScheduler slot;
  sched::DrfScheduler drf;
  const auto r_slot = sim::simulate(cfg, w, slot);
  const auto r_drf = sim::simulate(cfg, w, drf);
  const auto r_tetris = run_tetris(cfg, w);
  ASSERT_TRUE(r_slot.completed);
  ASSERT_TRUE(r_drf.completed);
  ASSERT_TRUE(r_tetris.completed);
  // The paper's headline: >10% better makespan and avg JCT than both
  // baselines (it reports ~30%; we leave slack for workload variation).
  EXPECT_GT(analysis::makespan_reduction(r_slot, r_tetris), 10);
  EXPECT_GT(analysis::makespan_reduction(r_drf, r_tetris), 10);
  EXPECT_GT(analysis::avg_jct_reduction(r_slot, r_tetris), 10);
  EXPECT_GT(analysis::avg_jct_reduction(r_drf, r_tetris), 10);
}

TEST(EndToEnd, UpperBoundIsAtLeastAsGoodAsTetris) {
  const auto w = test_workload();
  const auto cfg = test_cluster();
  const auto r_tetris = run_tetris(cfg, w);
  core::TetrisConfig ub_cfg;
  ub_cfg.fairness_knob = 0;
  ub_cfg.barrier_knob = 1.0;
  core::TetrisScheduler ub_sched(ub_cfg);
  const auto r_ub = sim::simulate(sched::aggregate_config(cfg),
                                  sched::aggregate_workload(w), ub_sched);
  ASSERT_TRUE(r_ub.completed);
  // The relaxation removes fragmentation and remote reads; allow a tiny
  // tolerance for heartbeat quantization.
  EXPECT_LE(r_ub.makespan, r_tetris.makespan * 1.05);
  EXPECT_LE(r_ub.avg_jct(), r_tetris.avg_jct() * 1.05);
}

TEST(EndToEnd, SameSeedIsDeterministic) {
  const auto w = test_workload();
  const auto cfg = test_cluster();
  const auto a = run_tetris(cfg, w);
  const auto b = run_tetris(cfg, w);
  ASSERT_EQ(a.jobs.size(), b.jobs.size());
  EXPECT_EQ(a.makespan, b.makespan);
  for (std::size_t i = 0; i < a.jobs.size(); ++i) {
    EXPECT_EQ(a.jobs[i].finish, b.jobs[i].finish);
  }
  ASSERT_EQ(a.tasks.size(), b.tasks.size());
  for (std::size_t i = 0; i < a.tasks.size(); ++i) {
    EXPECT_EQ(a.tasks[i].start, b.tasks[i].start);
    EXPECT_EQ(a.tasks[i].host, b.tasks[i].host);
  }
}

TEST(EndToEnd, EveryTaskRunsExactlyOnce) {
  const auto w = test_workload();
  for (int variant = 0; variant < 2; ++variant) {
    sim::SimResult r;
    if (variant == 0) {
      sched::SlotScheduler s;
      r = sim::simulate(test_cluster(), w, s);
    } else {
      r = run_tetris(test_cluster(), w);
    }
    ASSERT_TRUE(r.completed);
    EXPECT_EQ(r.tasks.size(), w.total_tasks());
    std::set<std::tuple<int, int, int>> seen;
    for (const auto& t : r.tasks) {
      EXPECT_TRUE(seen.insert({t.job, t.stage, t.index}).second);
      EXPECT_GE(t.start, 0);
      EXPECT_GT(t.finish, t.start);
      EXPECT_GE(t.host, 0);
      EXPECT_LT(t.host, 12);
      // No task ever beats its physics.
      EXPECT_GE(t.duration(), t.natural_duration - 1e-6);
    }
  }
}

TEST(EndToEnd, BarriersHoldForEveryScheduler) {
  const auto w = test_workload();
  for (int variant = 0; variant < 2; ++variant) {
    sim::SimResult r;
    if (variant == 0) {
      sched::DrfScheduler s;
      r = sim::simulate(test_cluster(), w, s);
    } else {
      r = run_tetris(test_cluster(), w);
    }
    ASSERT_TRUE(r.completed);
    // map finish per (job, stage 0) vs earliest reduce start (stage 1).
    std::map<int, SimTime> map_done;
    for (const auto& t : r.tasks) {
      if (t.stage == 0) {
        map_done[t.job] = std::max(map_done[t.job], t.finish);
      }
    }
    for (const auto& t : r.tasks) {
      if (t.stage == 1) {
        EXPECT_GE(t.start, map_done[t.job] - 1e-9);
      }
    }
  }
}

TEST(EndToEnd, TetrisNeverOverAllocatesWithOracleEstimates) {
  // Random workloads across seeds: the admission invariant is that every
  // task runs at natural speed under Tetris.
  for (std::uint64_t seed : {11ull, 22ull, 33ull}) {
    const auto w = test_workload(seed);
    const auto r = run_tetris(test_cluster(), w);
    ASSERT_TRUE(r.completed);
    for (const auto& t : r.tasks) {
      ASSERT_NEAR(t.duration(), t.natural_duration, 1e-6)
          << "seed " << seed << " job " << t.job;
    }
  }
}

TEST(EndToEnd, TraceRoundTripReproducesResults) {
  // The trace file stores jobs in arrival order.
  const auto w = sim::sorted_by_arrival(test_workload());
  const std::string path = ::testing::TempDir() + "end_to_end_round_trip.bin";
  workload::write_binary_trace_file(path, w);
  const auto replayed = workload::read_binary_trace_file(path);
  std::remove(path.c_str());
  const auto a = run_tetris(test_cluster(), w);
  const auto b = run_tetris(test_cluster(), replayed);
  ASSERT_EQ(a.jobs.size(), b.jobs.size());
  EXPECT_EQ(a.makespan, b.makespan);
  for (std::size_t i = 0; i < a.jobs.size(); ++i) {
    EXPECT_EQ(a.jobs[i].finish, b.jobs[i].finish);
  }
}

TEST(EndToEnd, NoisyEstimatesStillComplete) {
  sim::SimConfig cfg = test_cluster();
  cfg.estimation.mode = sim::EstimationMode::kNoisy;
  cfg.estimation.noise_cov = 0.4;
  const auto w = test_workload();
  const auto r = run_tetris(cfg, w);
  EXPECT_TRUE(r.completed);
}

TEST(EndToEnd, LearnedProfileEstimatesStillComplete) {
  sim::SimConfig cfg = test_cluster();
  cfg.estimation.mode = sim::EstimationMode::kLearnedProfile;
  const auto w = test_workload();
  const auto r = run_tetris(cfg, w);
  EXPECT_TRUE(r.completed);
}

TEST(EndToEnd, FailureInjectionStillCompletesAndRetries) {
  sim::SimConfig cfg = test_cluster();
  cfg.task_failure_prob = 0.1;
  cfg.seed = 9;
  const auto w = test_workload();
  const auto r = run_tetris(cfg, w);
  ASSERT_TRUE(r.completed);
  int retried = 0;
  for (const auto& t : r.tasks) {
    if (t.attempts > 1) retried++;
  }
  EXPECT_GT(retried, 0);
}

TEST(EndToEnd, HeavyTailFacebookTraceCompletesUnderAllSchedulers) {
  workload::FacebookConfig wcfg;
  wcfg.num_jobs = 40;
  wcfg.num_machines = 12;
  wcfg.task_scale = 0.3;
  wcfg.arrival_window = 400;
  wcfg.seed = 2;
  const auto w = workload::make_facebook_workload(wcfg);
  sched::SlotScheduler slot;
  sched::DrfScheduler drf;
  EXPECT_TRUE(sim::simulate(test_cluster(), w, slot).completed);
  EXPECT_TRUE(sim::simulate(test_cluster(), w, drf).completed);
  EXPECT_TRUE(run_tetris(test_cluster(), w).completed);
}

TEST(EndToEnd, MakespanIsMeasuredFromFirstArrival) {
  sim::Workload w;
  sim::JobSpec job;
  job.arrival = 100;
  sim::StageSpec s;
  sim::TaskSpec t;
  t.peak_cores = 1;
  t.peak_mem = 1;
  t.cpu_cycles = 10;
  s.tasks = {t};
  job.stages = {s};
  w.jobs.push_back(job);
  const auto r = run_tetris(test_cluster(1), w);
  ASSERT_TRUE(r.completed);
  EXPECT_LT(r.makespan, 15);  // not 110: measured from the arrival
}

}  // namespace
}  // namespace tetris
