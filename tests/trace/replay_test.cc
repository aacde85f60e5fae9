// The replay contract, end to end (DESIGN.md §10): a simulation run with
// tracing enabled, re-executed from the recorded seed and configuration,
// must reproduce the identical event stream — every placement with its
// alignment score, every task start/finish, every churn edge. The
// equivalence test covers the cross-configuration (naive/opt x simd
// off/on) decision contract.
#include <gtest/gtest.h>

#include <cstdint>
#include <functional>

#include "core/tetris_scheduler.h"
#include "sched/slot_scheduler.h"
#include "sim/simulator.h"
#include "trace/event.h"
#include "trace/replayer.h"
#include "workload/facebook.h"
#include "workload/motivating.h"
#include "workload/profiles.h"

namespace tetris {
namespace {

long count_kind(const trace::TraceLog& log, trace::EventKind kind) {
  long n = 0;
  for (const auto& ev : log.events) {
    if (ev.kind == kind) n++;
  }
  return n;
}

// A full traced Tetris run of the paper's §2.1 motivating workload,
// rebuilt from scratch per call — the shape every replay rerun must have.
sim::SimResult run_motivating(std::uint64_t seed) {
  auto ex = workload::make_motivating_example();
  ex.config.seed = seed;
  ex.config.trace.enabled = true;
  ex.config.trace.max_chunks = 1024;
  core::TetrisScheduler tetris;
  return sim::simulate(ex.config, ex.workload, tetris);
}

sim::SimConfig facebook_config(std::uint64_t seed, bool traced = true) {
  sim::SimConfig cfg;
  cfg.num_machines = 10;
  cfg.machine_capacity = workload::facebook_machine();
  cfg.tracker = sim::TrackerMode::kUsage;
  cfg.seed = seed;
  cfg.trace.enabled = traced;
  cfg.trace.max_chunks = 1024;
  return cfg;
}

sim::Workload facebook_load(std::uint64_t seed) {
  workload::FacebookConfig cfg;
  cfg.num_jobs = 30;
  cfg.num_machines = 10;
  cfg.task_scale = 0.3;
  cfg.arrival_window = 250;
  cfg.seed = seed;
  return workload::make_facebook_workload(cfg);
}

sim::SimResult run_facebook(std::uint64_t seed, bool traced = true) {
  const sim::Workload w = facebook_load(seed);
  core::TetrisScheduler tetris;
  return sim::simulate(facebook_config(seed, traced), w, tetris);
}

// Acceptance: the Replayer reproduces a recorded motivating-workload run
// event for event.
TEST(Replay, MotivatingWorkloadReplaysEventForEvent) {
  const sim::SimResult recorded = run_motivating(/*seed=*/1);
  ASSERT_FALSE(recorded.trace_log.events.empty());
  ASSERT_EQ(recorded.trace_log.dropped, 0u);

  trace::Replayer rp(recorded.trace_log);
  const trace::ReplayReport report = rp.replay(
      [&] { return run_motivating(rp.recorded().seed).trace_log; });
  EXPECT_TRUE(report.ok) << report.message;
  EXPECT_EQ(report.events_compared, recorded.trace_log.events.size());
}

// Acceptance: same for the Facebook-like heavy-tailed workload.
TEST(Replay, FacebookWorkloadReplaysEventForEvent) {
  const sim::SimResult recorded = run_facebook(/*seed=*/1);
  ASSERT_FALSE(recorded.trace_log.events.empty());
  ASSERT_EQ(recorded.trace_log.dropped, 0u);

  trace::Replayer rp(recorded.trace_log);
  const trace::ReplayReport report = rp.replay(
      [&] { return run_facebook(rp.recorded().seed).trace_log; });
  EXPECT_TRUE(report.ok) << report.message;
  EXPECT_EQ(report.events_compared, recorded.trace_log.events.size());
}

TEST(Replay, DetectsARunFromADifferentSeed) {
  const sim::SimResult recorded = run_facebook(/*seed=*/1);
  trace::Replayer rp(recorded.trace_log);
  const trace::ReplayReport report =
      rp.replay([&] { return run_facebook(/*seed=*/2).trace_log; });
  EXPECT_FALSE(report.ok);
  EXPECT_FALSE(report.divergence.identical);
  // kRunBegin carries the seed, so the divergence surfaces immediately.
  EXPECT_EQ(report.divergence.index, 0u);
  EXPECT_FALSE(report.message.empty());
}

// The stream must agree with the result object it rode along with: the
// trace is an account of the run, not an approximation of it.
TEST(Replay, EventStreamIsConsistentWithSimResult) {
  const sim::SimResult r = run_facebook(/*seed=*/1);
  const trace::TraceLog& log = r.trace_log;
  ASSERT_TRUE(r.completed);
  ASSERT_EQ(log.dropped, 0u);
  EXPECT_EQ(log.scheduler, r.scheduler_name);
  EXPECT_EQ(log.seed, 1u);

  ASSERT_FALSE(log.events.empty());
  EXPECT_EQ(log.events.front().kind, trace::EventKind::kRunBegin);
  EXPECT_EQ(log.events.back().kind, trace::EventKind::kRunEnd);
  EXPECT_EQ(count_kind(log, trace::EventKind::kRunBegin), 1);
  EXPECT_EQ(count_kind(log, trace::EventKind::kRunEnd), 1);

  EXPECT_EQ(count_kind(log, trace::EventKind::kJobArrival),
            static_cast<long>(r.jobs.size()));
  EXPECT_EQ(count_kind(log, trace::EventKind::kPassBegin),
            r.scheduler_cost.invocations);
  EXPECT_EQ(count_kind(log, trace::EventKind::kPassEnd),
            r.scheduler_cost.invocations);
  EXPECT_EQ(count_kind(log, trace::EventKind::kPlacement),
            r.scheduler_cost.placements);

  // No churn, no faults: every attempt starts once and finishes once.
  EXPECT_EQ(count_kind(log, trace::EventKind::kTaskStart),
            static_cast<long>(r.tasks.size()));
  EXPECT_EQ(count_kind(log, trace::EventKind::kTaskFinish),
            static_cast<long>(r.tasks.size()));
  EXPECT_EQ(count_kind(log, trace::EventKind::kTaskKill), 0);
  EXPECT_EQ(count_kind(log, trace::EventKind::kMachineDown), 0);

  const trace::Event& end = log.events.back();
  EXPECT_EQ(end.x, r.makespan);
}

TEST(Replay, ChurnRunsRecordMachineEdgesAndKillReasons) {
  const sim::Workload w = facebook_load(1);
  sim::SimConfig cfg = facebook_config(1);
  cfg.churn.scripted = {{2, 20.0, 80.0}, {7, 50.0, 140.0}};
  core::TetrisScheduler tetris;
  const sim::SimResult r = sim::simulate(cfg, w, tetris);
  const trace::TraceLog& log = r.trace_log;

  EXPECT_EQ(count_kind(log, trace::EventKind::kMachineDown),
            r.churn.machines_failed);
  EXPECT_EQ(count_kind(log, trace::EventKind::kMachineUp),
            r.churn.machines_recovered);
  ASSERT_GT(r.churn.machines_failed, 0);

  long machine_kills = 0;
  for (const auto& ev : log.events) {
    if (ev.kind == trace::EventKind::kTaskKill &&
        ev.f == static_cast<std::int64_t>(trace::KillReason::kMachineFailure))
      machine_kills++;
  }
  EXPECT_EQ(machine_kills, r.churn.task_attempts_lost);

  // Churn must still replay exactly.
  trace::Replayer rp(log);
  const trace::ReplayReport report = rp.replay([&] {
    core::TetrisScheduler again;
    return sim::simulate(cfg, w, again).trace_log;
  });
  EXPECT_TRUE(report.ok) << report.message;
}

TEST(Replay, BaselineSchedulersRecordGroupScansNotPlacements) {
  const sim::Workload w = facebook_load(1);
  sim::SimConfig cfg = facebook_config(1);
  cfg.tracker = sim::TrackerMode::kAllocation;
  sched::SlotScheduler slots;
  const sim::SimResult r = sim::simulate(cfg, w, slots);
  const trace::TraceLog& log = r.trace_log;

  EXPECT_GT(count_kind(log, trace::EventKind::kGroupScan), 0);
  EXPECT_EQ(count_kind(log, trace::EventKind::kPlacement), 0);
  EXPECT_GT(count_kind(log, trace::EventKind::kTaskStart), 0);
  EXPECT_EQ(log.scheduler, r.scheduler_name);
}

TEST(Replay, DisabledTracingYieldsAnEmptyLog) {
  const sim::SimResult r =
      run_facebook(/*seed=*/1, /*traced=*/false);
  EXPECT_TRUE(r.trace_log.events.empty());
  EXPECT_EQ(r.trace_log.dropped, 0u);
  EXPECT_TRUE(r.trace_log.scheduler.empty());
}

}  // namespace
}  // namespace tetris
