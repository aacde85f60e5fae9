// Randomized placement-constraint fuzzer (DESIGN.md §13), in the
// adversarial style of trace_binary_test: a seeded generator produces
// random machine classes, label clauses, anti-affinity and same-rack
// specs — including combinations no machine satisfies — and every run
// must uphold the constraint contract:
//   * the scheduler never places a task on an inadmissible machine
//     (checked post-hoc from the decision trace by the independent
//     replayer in tests/support/constraint_checker.h);
//   * a stage that is statically infeasible for every machine is
//     REPORTED in SimResult::infeasible and its job abandoned — never
//     silently starved until max_time;
//   * every other job drains normally.
// The default 25 iterations keep the test affordable; set
// TETRIS_FUZZ_ITERS (e.g. 500) to soak it — the assertions are
// iteration-invariant, mirroring TETRIS_SOAK_TASKS.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <set>
#include <utility>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/tetris_scheduler.h"
#include "sched/constrained_random_scheduler.h"
#include "sim/simulator.h"
#include "tests/support/constraint_checker.h"
#include "util/rng.h"
#include "util/units.h"

namespace tetris::sim {
namespace {

int fuzz_iters() {
  if (const char* env = std::getenv("TETRIS_FUZZ_ITERS")) {
    const int v = std::atoi(env);
    if (v > 0) return v;
  }
  return 25;
}

constexpr const char* kPalette[] = {"red", "green", "blue"};

struct FuzzSpec {
  SimConfig cfg;
  Workload workload;
  // Stages whose label clauses admit no machine, computed by the
  // generator independently of the simulator: (job, stage).
  std::set<std::pair<int, int>> label_infeasible;
};

bool machine_matches(const std::vector<std::string>& labels,
                     const PlacementConstraint& c) {
  const auto has = [&](const std::string& l) {
    for (const auto& x : labels)
      if (x == l) return true;
    return false;
  };
  for (const auto& l : c.require_labels)
    if (!has(l)) return false;
  for (const auto& l : c.forbid_labels)
    if (has(l)) return false;
  return true;
}

FuzzSpec make_fuzz_spec(std::uint64_t seed) {
  Rng rng(seed);
  FuzzSpec spec;

  const int machines = static_cast<int>(rng.uniform_int(3, 8));
  spec.cfg.num_machines = machines;
  spec.cfg.machine_capacity =
      Resources::full(8, 16 * kGB, 200 * kMB, 200 * kMB, 1 * kGbps, 1 * kGbps);
  spec.cfg.heartbeat_period = 0.5;
  spec.cfg.max_time = 50000;
  spec.cfg.trace.enabled = true;
  spec.cfg.trace.max_chunks = 1024;
  if (rng.bernoulli(0.4)) spec.cfg.machines_per_rack = 2;

  // Random label sets; a machine with no class rolls "plain". Track what
  // is actually declared so generated clauses always pass validation.
  std::set<std::string> declared;
  spec.cfg.machine_labels.resize(static_cast<std::size_t>(machines));
  for (auto& l : spec.cfg.machine_labels) {
    for (const char* color : kPalette)
      if (rng.bernoulli(0.45)) l.emplace_back(color);
    if (l.empty()) l.emplace_back("plain");
    for (const auto& x : l) declared.insert(x);
  }
  const std::vector<std::string> pool(declared.begin(), declared.end());

  // Occasionally knock a machine out mid-run: constraints must compose
  // with churn (kills requeue only onto still-feasible machines).
  if (rng.bernoulli(0.3)) {
    spec.cfg.churn.scripted = {
        {static_cast<MachineId>(rng.uniform_int(0, machines - 1)), 5.0,
         25.0}};
  }

  const int jobs = static_cast<int>(rng.uniform_int(2, 5));
  for (int j = 0; j < jobs; ++j) {
    JobSpec job;
    job.name = "fuzz-" + std::to_string(j);
    const int stages = rng.bernoulli(0.5) ? 2 : 1;
    for (int s = 0; s < stages; ++s) {
      StageSpec stage;
      stage.name = "s" + std::to_string(s);
      if (s > 0) stage.deps = {s - 1};
      const int tasks = static_cast<int>(rng.uniform_int(1, 5));
      double stage_output = 0;
      for (int t = 0; t < tasks; ++t) {
        TaskSpec task;
        task.peak_cores = rng.bernoulli(0.5) ? 1.0 : 2.0;
        task.peak_mem = 1 * kGB;
        task.cpu_cycles = task.peak_cores * rng.uniform(2.0, 10.0);
        if (s > 0) {
          InputSplit split;
          split.bytes = 20 * kMB;
          split.from_stage = 0;
          task.inputs.push_back(split);
        } else if (rng.bernoulli(0.5)) {
          InputSplit split;
          split.bytes = 50 * kMB;
          split.replicas = {
              static_cast<MachineId>(rng.uniform_int(0, machines - 1)),
              static_cast<MachineId>(rng.uniform_int(0, machines - 1))};
          task.inputs.push_back(split);
        }
        task.output_bytes = 10 * kMB;
        stage_output += task.output_bytes;
        stage.tasks.push_back(std::move(task));
      }

      // Adversarial clause roll: requires and forbids drawn from the
      // declared pool with no feasibility guarantee — infeasible combos
      // are the point. require ∩ forbid would be a validation error, so
      // forbids skip required labels.
      auto& c = stage.constraint;
      const int requires_n = static_cast<int>(rng.uniform_int(0, 2));
      for (int k = 0; k < requires_n; ++k) {
        const auto& l = pool[static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<std::int64_t>(pool.size()) - 1))];
        if (std::find(c.require_labels.begin(), c.require_labels.end(), l) ==
            c.require_labels.end())
          c.require_labels.push_back(l);
      }
      if (rng.bernoulli(0.3)) {
        const auto& l = pool[static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<std::int64_t>(pool.size()) - 1))];
        if (std::find(c.require_labels.begin(), c.require_labels.end(), l) ==
            c.require_labels.end())
          c.forbid_labels.push_back(l);
      }
      c.anti_affinity = rng.bernoulli(0.3);
      c.same_rack_as_input = rng.bernoulli(0.25);

      bool any = false;
      for (const auto& l : spec.cfg.machine_labels)
        if (machine_matches(l, c)) any = true;
      if (!any) spec.label_infeasible.insert({j, s});

      job.stages.push_back(std::move(stage));
    }
    spec.workload.jobs.push_back(std::move(job));
  }
  return spec;
}

class ConstraintFuzzTest : public ::testing::Test {};

TEST(ConstraintFuzzTest, NeverPlacesInfeasiblyAndReportsTheImpossible) {
  const int iters = fuzz_iters();
  long constrained_starts = 0;
  long infeasible_seen = 0;
  for (int i = 0; i < iters; ++i) {
    SCOPED_TRACE("iteration " + std::to_string(i));
    const FuzzSpec spec = make_fuzz_spec(1000 + static_cast<std::uint64_t>(i));

    // Alternate the packer and the randomized baseline: both must uphold
    // the contract through their very different scan paths.
    core::TetrisConfig tcfg;
    core::TetrisScheduler tetris(tcfg);
    sched::ConstrainedRandomScheduler random(7);
    Scheduler& sched =
        (i % 2 == 0) ? static_cast<Scheduler&>(tetris) : random;
    SimConfig cfg = spec.cfg;
    if (i % 2 == 0) cfg.tracker = TrackerMode::kUsage;

    const SimResult r = simulate(cfg, spec.workload, sched);

    // 1. No placement ever violates a constraint.
    ASSERT_EQ(r.trace_log.dropped, 0u);
    const auto check =
        test::check_constraints(spec.workload, cfg, r);
    EXPECT_TRUE(check.violations.empty())
        << check.violations.size() << " violations, first: "
        << check.violations.front();
    constrained_starts += check.constrained_starts;

    // 2. Statically label-infeasible stages are reported, not starved:
    // every generator-predicted impossible stage shows up in
    // SimResult::infeasible, and the run still terminates long before
    // max_time because the affected jobs are abandoned.
    std::set<std::pair<int, int>> reported;
    for (const auto& g : r.infeasible) {
      reported.insert({static_cast<int>(g.job), g.stage});
      EXPECT_FALSE(g.reason.empty());
      EXPECT_GT(g.tasks, 0);
    }
    // A job is doomed at the FIRST infeasible stage to materialize;
    // stages downstream of that never materialize and are not
    // re-reported — an earlier reported stage of the same job excuses a
    // missing report, nothing else does.
    for (const auto& js : spec.label_infeasible) {
      if (reported.count(js)) continue;
      bool doomed_earlier = false;
      for (const auto& rep : reported)
        if (rep.first == js.first && rep.second < js.second)
          doomed_earlier = true;
      EXPECT_TRUE(doomed_earlier)
          << "label-infeasible job " << js.first << " stage " << js.second
          << " was neither reported nor doomed at an earlier stage";
    }
    infeasible_seen += static_cast<long>(r.infeasible.size());
    EXPECT_LT(r.end_time, cfg.max_time);

    // 3. Reported groups really are infeasible (the converse): every
    // report is either label-infeasible by the generator's own math or
    // carries the materialization-dependent same-rack clause.
    for (const auto& g : r.infeasible) {
      const auto& stage =
          spec.workload.jobs[static_cast<std::size_t>(g.job)]
              .stages[static_cast<std::size_t>(g.stage)];
      EXPECT_TRUE(spec.label_infeasible.count(
                      {static_cast<int>(g.job), g.stage}) ||
                  stage.constraint.same_rack_as_input)
          << "reported group is label-feasible and has no rack clause: "
          << g.reason;
    }

    // 4. Doomed jobs and completion accounting agree: jobs of reported
    // stages carry finish = -1; everything else drains.
    std::set<JobId> doomed;
    for (const auto& g : r.infeasible) doomed.insert(g.job);
    EXPECT_EQ(r.completed, doomed.empty());
    ASSERT_EQ(r.jobs.size(), spec.workload.jobs.size());
    for (const auto& job : r.jobs) {
      if (doomed.count(job.id)) {
        EXPECT_EQ(job.finish, -1);
      } else {
        EXPECT_GE(job.finish, 0) << "feasible job " << job.id
                                 << " never finished";
      }
    }
  }
  // The sweep must have exercised the machinery, or it proves nothing.
  EXPECT_GT(constrained_starts, 0);
  EXPECT_GT(infeasible_seen, 0);
}

TEST(ConstraintFuzzTest, SimulateRejectsMalformedLabelConfigs) {
  Workload w;
  JobSpec job;
  job.name = "j";
  StageSpec s;
  s.name = "s";
  TaskSpec t;
  t.peak_cores = 1;
  t.peak_mem = 1 * kGB;
  t.cpu_cycles = 5;
  s.tasks = {t};
  job.stages.push_back(s);
  w.jobs.push_back(job);

  core::TetrisScheduler sched;

  // machine_labels must match the machine count exactly.
  SimConfig mismatch;
  mismatch.num_machines = 3;
  mismatch.machine_labels = {{"a"}, {"a"}};
  EXPECT_THROW(simulate(mismatch, w, sched), std::invalid_argument);

  // Empty label names are rejected at the cluster side too.
  SimConfig empty_label;
  empty_label.num_machines = 2;
  empty_label.machine_labels = {{"a"}, {""}};
  EXPECT_THROW(simulate(empty_label, w, sched), std::invalid_argument);

  // Requiring a label no machine declares is a fail-fast config error —
  // the same pattern as the num_machines vs machine_capacities
  // contradiction — not a quietly doomed job.
  Workload undeclared = w;
  undeclared.jobs[0].stages[0].constraint.require_labels = {"tpu"};
  SimConfig labeled;
  labeled.num_machines = 2;
  labeled.machine_labels = {{"gpu"}, {"gpu"}};
  EXPECT_THROW(simulate(labeled, undeclared, sched), std::invalid_argument);
  // On an unlabeled cluster the declared set is empty, so ANY required
  // label is undeclared.
  SimConfig unlabeled;
  unlabeled.num_machines = 2;
  EXPECT_THROW(simulate(unlabeled, undeclared, sched),
               std::invalid_argument);
}

TEST(ConstraintFuzzTest, AntiAffinitySpreadsAJobOneTaskPerMachine) {
  // Three concurrent 10s tasks, three machines, anti-affinity: each task
  // gets its own machine even though one machine could hold all three.
  Workload w;
  JobSpec job;
  job.name = "spread";
  StageSpec s;
  s.name = "s";
  for (int i = 0; i < 3; ++i) {
    TaskSpec t;
    t.peak_cores = 1;
    t.peak_mem = 1 * kGB;
    t.cpu_cycles = 10;
    s.tasks.push_back(t);
  }
  s.constraint.anti_affinity = true;
  job.stages.push_back(s);
  w.jobs.push_back(job);

  SimConfig cfg;
  cfg.num_machines = 3;
  cfg.machine_capacity =
      Resources::full(8, 16 * kGB, 200 * kMB, 200 * kMB, 1 * kGbps, 1 * kGbps);

  core::TetrisScheduler sched;
  const SimResult r = simulate(cfg, w, sched);

  ASSERT_TRUE(r.completed);
  ASSERT_EQ(r.tasks.size(), 3u);
  std::set<MachineId> hosts;
  for (const auto& t : r.tasks) hosts.insert(t.host);
  EXPECT_EQ(hosts.size(), 3u);
}

}  // namespace
}  // namespace tetris::sim
