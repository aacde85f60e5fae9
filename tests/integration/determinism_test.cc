// Repeatability of the scheduling pass: the same seed and config yield an
// identical SimResult on every run — every record and every counter. The
// only exceptions are the wall-clock fields (scheduler latency, pass
// seconds), which measure the machine, not the schedule.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "core/tetris_scheduler.h"
#include "sim/simulator.h"
#include "workload/profiles.h"
#include "workload/suite.h"

namespace tetris {
namespace {

sim::Workload make_load(std::uint64_t seed) {
  workload::SuiteConfig cfg;
  cfg.num_jobs = 24;
  cfg.num_machines = 10;
  cfg.task_scale = 0.04;
  cfg.arrival_window = 250;
  cfg.seed = seed;
  return workload::make_suite_workload(cfg);
}

// Scripted churn is the hardest case: outages drain rows mid-round and
// rotate the probe slots' stamps.
sim::SimConfig churn_config() {
  sim::SimConfig cfg;
  cfg.num_machines = 10;
  cfg.machine_capacity = workload::facebook_machine();
  cfg.tracker = sim::TrackerMode::kUsage;
  cfg.collect_timeline = true;
  cfg.collect_pass_samples = true;
  cfg.churn.scripted = {{2, 20.0, 80.0}, {7, 50.0, 140.0}, {2, 200.0, 260.0}};
  return cfg;
}

sim::SimResult run(const sim::SimConfig& cfg, const sim::Workload& w) {
  core::TetrisScheduler sched;
  return sim::simulate(cfg, w, sched);
}

// Full SimResult comparison, excluding only wall-clock measurements. Every
// perf counter is deterministic outside federation, so the counters are
// compared exactly, probe-cache traffic and kernel blocks included.
void expect_repeat_identical(const sim::SimResult& a, const sim::SimResult& b) {
  EXPECT_EQ(a.scheduler_name, b.scheduler_name);
  EXPECT_EQ(a.completed, b.completed);
  EXPECT_EQ(a.end_time, b.end_time);
  EXPECT_EQ(a.makespan, b.makespan);

  ASSERT_EQ(a.jobs.size(), b.jobs.size());
  for (std::size_t i = 0; i < a.jobs.size(); ++i) {
    EXPECT_EQ(a.jobs[i].id, b.jobs[i].id) << "job " << i;
    EXPECT_EQ(a.jobs[i].name, b.jobs[i].name) << "job " << i;
    EXPECT_EQ(a.jobs[i].arrival, b.jobs[i].arrival) << "job " << i;
    EXPECT_EQ(a.jobs[i].finish, b.jobs[i].finish) << "job " << i;
    EXPECT_EQ(a.jobs[i].total_tasks, b.jobs[i].total_tasks) << "job " << i;
  }
  ASSERT_EQ(a.tasks.size(), b.tasks.size());
  for (std::size_t i = 0; i < a.tasks.size(); ++i) {
    EXPECT_EQ(a.tasks[i].job, b.tasks[i].job) << "task " << i;
    EXPECT_EQ(a.tasks[i].stage, b.tasks[i].stage) << "task " << i;
    EXPECT_EQ(a.tasks[i].index, b.tasks[i].index) << "task " << i;
    EXPECT_EQ(a.tasks[i].host, b.tasks[i].host) << "task " << i;
    EXPECT_EQ(a.tasks[i].start, b.tasks[i].start) << "task " << i;
    EXPECT_EQ(a.tasks[i].finish, b.tasks[i].finish) << "task " << i;
    EXPECT_EQ(a.tasks[i].attempts, b.tasks[i].attempts) << "task " << i;
    EXPECT_EQ(a.tasks[i].local_fraction, b.tasks[i].local_fraction)
        << "task " << i;
  }
  ASSERT_EQ(a.timeline.size(), b.timeline.size());
  for (std::size_t i = 0; i < a.timeline.size(); ++i) {
    EXPECT_EQ(a.timeline[i].time, b.timeline[i].time) << "sample " << i;
    EXPECT_EQ(a.timeline[i].running_tasks, b.timeline[i].running_tasks)
        << "sample " << i;
    EXPECT_EQ(a.timeline[i].utilization, b.timeline[i].utilization)
        << "sample " << i;
  }
  for (std::size_t r = 0; r < kNumResources; ++r)
    EXPECT_EQ(a.machine_usage_samples[r], b.machine_usage_samples[r])
        << "resource " << r;

  // Scheduler cost: counts are schedule-derived, seconds are wall clock.
  EXPECT_EQ(a.scheduler_cost.invocations, b.scheduler_cost.invocations);
  EXPECT_EQ(a.scheduler_cost.placements, b.scheduler_cost.placements);
  ASSERT_EQ(a.pass_samples.size(), b.pass_samples.size());
  for (std::size_t i = 0; i < a.pass_samples.size(); ++i) {
    EXPECT_EQ(a.pass_samples[i].time, b.pass_samples[i].time) << "pass " << i;
    EXPECT_EQ(a.pass_samples[i].backlog, b.pass_samples[i].backlog)
        << "pass " << i;
    EXPECT_EQ(a.pass_samples[i].placements, b.pass_samples[i].placements)
        << "pass " << i;
  }

  EXPECT_TRUE(a.perf == b.perf) << "perf counters differ";

  EXPECT_EQ(a.churn.machines_failed, b.churn.machines_failed);
  EXPECT_EQ(a.churn.machines_recovered, b.churn.machines_recovered);
  EXPECT_EQ(a.churn.task_attempts_lost, b.churn.task_attempts_lost);
  EXPECT_EQ(a.churn.work_lost_seconds, b.churn.work_lost_seconds);
  EXPECT_EQ(a.churn.read_failovers, b.churn.read_failovers);
  EXPECT_EQ(a.churn.effective_capacity, b.churn.effective_capacity);
}

TEST(DeterminismTest, RepeatedRunsAreIdentical) {
  const sim::Workload w = make_load(3);
  const sim::SimConfig cfg = churn_config();
  const sim::SimResult first = run(cfg, w);
  ASSERT_TRUE(first.completed);
  ASSERT_GT(first.churn.machines_failed, 0);
  ASSERT_GT(first.perf.score_evals, 0);
  for (int rep = 1; rep < 5; ++rep) {
    SCOPED_TRACE("repeat " + std::to_string(rep));
    expect_repeat_identical(first, run(cfg, w));
  }
}

}  // namespace
}  // namespace tetris
