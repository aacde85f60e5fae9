// Property matrix: universal invariants that must hold for EVERY
// scheduler on EVERY workload — conservation of tasks, physics (no task
// beats its natural duration), barrier ordering, sane timestamps, and
// makespan lower bounds. Parameterized over scheduler x workload seed.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <set>

#include "core/tetris_scheduler.h"
#include "sched/constrained_random_scheduler.h"
#include "sched/drf_scheduler.h"
#include "sched/random_scheduler.h"
#include "sched/slot_scheduler.h"
#include "sched/srtf_scheduler.h"
#include "sim/simulator.h"
#include "tests/support/constraint_checker.h"
#include "workload/constrained.h"
#include "workload/facebook.h"
#include "workload/profiles.h"
#include "workload/suite.h"

namespace tetris {
namespace {

enum class Sched { kTetris, kSlot, kDrf, kSrtf, kRandom };
enum class Load { kSuite, kFacebook };

// gtest has no printer for Case, so each ctest name embeds its byte dump
// ("N-byte object <...>"): adding or removing a field renames every case.
struct Case {
  Sched sched;
  Load load;
  std::uint64_t seed;
  // Cluster size; the generated loads are sized for it too.
  int machines = 10;
};

std::string case_name(const ::testing::TestParamInfo<Case>& info) {
  std::string s;
  switch (info.param.sched) {
    case Sched::kTetris:
      s = "Tetris";
      break;
    case Sched::kSlot:
      s = "Slot";
      break;
    case Sched::kDrf:
      s = "Drf";
      break;
    case Sched::kSrtf:
      s = "Srtf";
      break;
    case Sched::kRandom:
      s = "Random";
      break;
  }
  s += info.param.load == Load::kSuite ? "Suite" : "Facebook";
  s += "Seed" + std::to_string(info.param.seed);
  return s;
}

std::unique_ptr<sim::Scheduler> make_scheduler(Sched kind) {
  switch (kind) {
    case Sched::kTetris:
      return std::make_unique<core::TetrisScheduler>();
    case Sched::kSlot:
      return std::make_unique<sched::SlotScheduler>();
    case Sched::kDrf:
      return std::make_unique<sched::DrfScheduler>();
    case Sched::kSrtf:
      return std::make_unique<sched::SrtfScheduler>();
    case Sched::kRandom:
      return std::make_unique<sched::RandomScheduler>();
  }
  return nullptr;
}

sim::Workload make_load(const Case& c) {
  if (c.load == Load::kSuite) {
    workload::SuiteConfig cfg;
    cfg.num_jobs = 24;
    cfg.num_machines = c.machines;
    cfg.task_scale = 0.04;
    cfg.arrival_window = 250;
    cfg.seed = c.seed;
    return workload::make_suite_workload(cfg);
  }
  workload::FacebookConfig cfg;
  cfg.num_jobs = 30;
  cfg.num_machines = c.machines;
  cfg.task_scale = 0.3;
  cfg.arrival_window = 250;
  cfg.seed = c.seed;
  return workload::make_facebook_workload(cfg);
}

class SchedulerPropertyTest : public ::testing::TestWithParam<Case> {};

TEST_P(SchedulerPropertyTest, UniversalInvariantsHold) {
  const Case c = GetParam();
  const sim::Workload w = make_load(c);
  sim::SimConfig cfg;
  cfg.num_machines = c.machines;
  cfg.machine_capacity = workload::facebook_machine();
  if (c.sched == Sched::kTetris) cfg.tracker = sim::TrackerMode::kUsage;
  auto scheduler = make_scheduler(c.sched);
  const sim::SimResult r = sim::simulate(cfg, w, *scheduler);

  // 1. Everything finishes and nothing runs twice.
  ASSERT_TRUE(r.completed);
  EXPECT_EQ(r.tasks.size(), w.total_tasks());
  std::set<std::tuple<int, int, int>> seen;
  for (const auto& t : r.tasks) {
    EXPECT_TRUE(seen.insert({t.job, t.stage, t.index}).second);
  }

  // 2. Physics: no task beats its natural duration; timestamps are sane.
  std::map<int, SimTime> arrivals;
  for (std::size_t j = 0; j < w.jobs.size(); ++j) {
    arrivals[static_cast<int>(j)] = w.jobs[j].arrival;
  }
  for (const auto& t : r.tasks) {
    EXPECT_GE(t.duration(), t.natural_duration - 1e-6);
    EXPECT_GE(t.start, arrivals[t.job] - 1e-9);
    EXPECT_GE(t.host, 0);
    EXPECT_LT(t.host, c.machines);
    EXPECT_GE(t.local_fraction, 0.0);
    EXPECT_LE(t.local_fraction, 1.0);
  }

  // 3. Barriers: no stage-s task starts before all of the stages it
  // depends on finished.
  std::map<std::pair<int, int>, SimTime> stage_done;
  for (const auto& t : r.tasks) {
    auto& done = stage_done[std::make_pair(t.job, t.stage)];
    done = std::max(done, t.finish);
  }
  for (const auto& t : r.tasks) {
    for (int dep : w.jobs[static_cast<std::size_t>(t.job)]
                       .stages[static_cast<std::size_t>(t.stage)]
                       .deps) {
      const SimTime dep_done = stage_done[std::make_pair(t.job, dep)];
      EXPECT_GE(t.start, dep_done - 1e-9)
          << "job " << t.job << " stage " << t.stage << " dep " << dep;
    }
  }

  // 4. Job records agree with task records.
  for (const auto& job : r.jobs) {
    SimTime last = 0;
    for (const auto& t : r.tasks) {
      if (t.job == job.id) last = std::max(last, t.finish);
    }
    EXPECT_NEAR(job.finish, last, 1e-9);
    EXPECT_GE(job.completion_time(), 0);
  }

  // 5. Makespan bounds: at least the longest single natural duration, at
  // most the serial sum of all durations.
  double longest = 0, serial = 0;
  for (const auto& t : r.tasks) {
    longest = std::max(longest, t.natural_duration);
    serial += t.duration();
  }
  EXPECT_GE(r.makespan, longest - 1e-6);
  EXPECT_LE(r.makespan, serial + 1e3);
}

// Same matrix under machine churn: three scripted outages land inside the
// busy period. The universal invariants must survive, plus the churn-
// specific ones — no successful attempt overlaps an outage window on the
// failed machine, and the attempt counters reconcile with the kills.
class ChurnPropertyTest : public ::testing::TestWithParam<Case> {};

TEST_P(ChurnPropertyTest, ChurnInvariantsHold) {
  const Case c = GetParam();
  const sim::Workload w = make_load(c);
  sim::SimConfig cfg;
  cfg.num_machines = c.machines;
  cfg.machine_capacity = workload::facebook_machine();
  if (c.sched == Sched::kTetris) cfg.tracker = sim::TrackerMode::kUsage;
  cfg.churn.scripted = {{2, 20.0, 80.0}, {7, 50.0, 140.0}, {2, 200.0, 260.0}};
  auto scheduler = make_scheduler(c.sched);
  const sim::SimResult r = sim::simulate(cfg, w, *scheduler);

  // 1. The workload still drains, every task finishes exactly once.
  ASSERT_TRUE(r.completed);
  EXPECT_EQ(r.tasks.size(), w.total_tasks());
  std::set<std::tuple<int, int, int>> seen;
  for (const auto& t : r.tasks) {
    EXPECT_TRUE(seen.insert({t.job, t.stage, t.index}).second);
  }

  // 2. No successful attempt runs on a machine while it is down: the
  // recorded [start, finish) never overlaps an outage window on its host
  // (an attempt caught inside one would have been killed and requeued).
  for (const auto& t : r.tasks) {
    EXPECT_GE(t.host, 0);
    EXPECT_LT(t.host, c.machines);
    for (const auto& ev : cfg.churn.scripted) {
      if (t.host != ev.machine) continue;
      const bool overlaps =
          t.start < ev.up_at - 1e-9 && t.finish > ev.down_at + 1e-9;
      EXPECT_FALSE(overlaps)
          << "job " << t.job << " stage " << t.stage << " index " << t.index
          << " ran on machine " << ev.machine << " during ["
          << ev.down_at << ", " << ev.up_at << ")";
    }
  }

  // 3. Physics still holds: no attempt beats its natural duration.
  for (const auto& t : r.tasks) {
    EXPECT_GE(t.duration(), t.natural_duration - 1e-6);
    EXPECT_GE(t.attempts, 1);
  }

  // 4. Counter reconciliation: every kill is one lost attempt on exactly
  // one task, and every fired outage recovered (windows end well before
  // the workload drains or the counters diverge benignly — allow <=).
  long extra_attempts = 0;
  for (const auto& t : r.tasks) extra_attempts += t.attempts - 1;
  EXPECT_EQ(extra_attempts, r.churn.task_attempts_lost);
  EXPECT_LE(r.churn.machines_failed,
            static_cast<int>(cfg.churn.scripted.size()));
  EXPECT_LE(r.churn.machines_recovered, r.churn.machines_failed);
  EXPECT_GT(r.churn.machines_failed, 0);
  EXPECT_GE(r.churn.work_lost_seconds, 0.0);
  EXPECT_GT(r.churn.effective_capacity, 0.0);
  EXPECT_LE(r.churn.effective_capacity, 1.0 + 1e-9);
}

INSTANTIATE_TEST_SUITE_P(
    ChurnMatrix, ChurnPropertyTest,
    ::testing::Values(Case{Sched::kTetris, Load::kSuite, 1},
                      Case{Sched::kTetris, Load::kFacebook, 1},
                      Case{Sched::kSlot, Load::kFacebook, 1},
                      Case{Sched::kDrf, Load::kSuite, 1},
                      Case{Sched::kSrtf, Load::kFacebook, 1},
                      Case{Sched::kRandom, Load::kSuite, 1}),
    case_name);

INSTANTIATE_TEST_SUITE_P(
    Matrix, SchedulerPropertyTest,
    ::testing::Values(
        Case{Sched::kTetris, Load::kSuite, 1}, Case{Sched::kTetris, Load::kSuite, 2},
        Case{Sched::kTetris, Load::kFacebook, 1},
        Case{Sched::kTetris, Load::kFacebook, 2},
        Case{Sched::kSlot, Load::kSuite, 1}, Case{Sched::kSlot, Load::kFacebook, 1},
        Case{Sched::kDrf, Load::kSuite, 1}, Case{Sched::kDrf, Load::kFacebook, 1},
        Case{Sched::kSrtf, Load::kSuite, 1}, Case{Sched::kSrtf, Load::kFacebook, 1},
        Case{Sched::kRandom, Load::kSuite, 1},
        Case{Sched::kRandom, Load::kFacebook, 1}),
    case_name);

// Constraint-satisfaction matrix (DESIGN.md §13): on a constraint-heavy
// workload over a heterogeneous cluster, EVERY placement by EVERY
// scheduler — Tetris across the naive x churn grid and all baselines —
// must satisfy its stage's constraints. Checked post-hoc
// from the decision trace by an independent replayer, so the assertion
// does not share code with the admission predicate it is auditing.
// gtest has no printer for ConstraintCase either; its byte dump names
// the ctest cases the same way.
struct ConstraintCase {
  std::string name;
  Sched sched = Sched::kTetris;
  bool naive = false;  // Tetris-only
  bool churn = false;
  std::uint64_t seed = 1;  // workload seed
};

std::string constraint_case_name(
    const ::testing::TestParamInfo<ConstraintCase>& info) {
  return info.param.name;
}

class ConstraintPropertyTest
    : public ::testing::TestWithParam<ConstraintCase> {};

TEST_P(ConstraintPropertyTest, EveryPlacementSatisfiesItsConstraints) {
  const ConstraintCase c = GetParam();

  // Heavily constrained but statically feasible on this cluster: with
  // gpu on every 4th machine, highmem on every 3rd (offset 1) and racks
  // of 5, both racks hold gpu and highmem machines.
  workload::ConstrainedSuiteConfig wcfg;
  wcfg.base.num_jobs = 24;
  wcfg.base.num_machines = 10;
  wcfg.base.task_scale = 0.04;
  wcfg.base.arrival_window = 250;
  wcfg.base.seed = c.seed;
  wcfg.intensity = 1.5;
  const sim::Workload w = workload::make_constrained_suite(wcfg);

  sim::SimConfig cfg;
  cfg.num_machines = 10;
  cfg.machine_capacity = workload::facebook_machine();
  cfg.machine_labels = workload::make_class_labels(10);
  cfg.machines_per_rack = 5;
  cfg.trace.enabled = true;
  cfg.trace.max_chunks = 1024;
  if (c.churn) {
    cfg.churn.scripted = {{2, 20.0, 80.0}, {7, 50.0, 140.0},
                          {2, 200.0, 260.0}};
  }
  cfg.naive_scheduler_view = c.naive;

  std::unique_ptr<sim::Scheduler> scheduler;
  if (c.sched == Sched::kTetris) {
    cfg.tracker = sim::TrackerMode::kUsage;
    core::TetrisConfig tcfg;
    tcfg.naive_scoring = c.naive;
    scheduler = std::make_unique<core::TetrisScheduler>(tcfg);
  } else if (c.sched == Sched::kRandom) {
    scheduler = std::make_unique<sched::ConstrainedRandomScheduler>();
  } else {
    scheduler = make_scheduler(c.sched);
  }
  const sim::SimResult r = sim::simulate(cfg, w, *scheduler);

  // The workload is feasible: nothing may be doomed, everything drains.
  EXPECT_TRUE(r.infeasible.empty());
  ASSERT_TRUE(r.completed);
  ASSERT_EQ(r.trace_log.dropped, 0u);

  const auto check = test::check_constraints(w, cfg, r);
  EXPECT_GT(check.constrained_starts, 0)
      << "matrix case exercised no constrained placement — vacuous";
  EXPECT_TRUE(check.violations.empty())
      << check.violations.size() << " violations, first: "
      << check.violations.front();
}

INSTANTIATE_TEST_SUITE_P(
    ConstraintMatrix, ConstraintPropertyTest,
    ::testing::Values(
        ConstraintCase{"TetrisSerial"},
        ConstraintCase{"TetrisNaiveOracle", Sched::kTetris, true},
        ConstraintCase{"TetrisChurnSerial", Sched::kTetris, false, true},
        ConstraintCase{"ConstrainedRandom", Sched::kRandom},
        ConstraintCase{"ConstrainedRandomChurn", Sched::kRandom, false,
                       true},
        ConstraintCase{"Slot", Sched::kSlot},
        ConstraintCase{"Drf", Sched::kDrf},
        ConstraintCase{"Srtf", Sched::kSrtf}),
    constraint_case_name);

}  // namespace
}  // namespace tetris
