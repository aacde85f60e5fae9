// Federation x placement constraints (DESIGN.md §13 + §14): label- and
// affinity-constrained jobs dispatched through the feasibility-pinned
// dispatcher, executed by the federated driver (§14.3), and replayed
// per cell through the post-hoc constraint checker — the independent
// replayer that reconstructs label sets and running counts from the
// trace alone. Zero violations, non-vacuously: the run must produce
// constrained task starts, and the gpu-only jobs must land on gpu cells.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "federation/cell.h"
#include "federation/federated_simulator.h"
#include "sim/job_source.h"
#include "sim/simulator.h"
#include "tests/support/constraint_checker.h"
#include "workload/facebook.h"
#include "workload/profiles.h"

namespace tetris::federation {
namespace {

constexpr int kMachines = 16;
constexpr int kCells = 4;

// 4 cells of 4 machines; "gpu" lives only in cells 0 and 2, "ssd" only
// in cell 1 — so require/forbid clauses actually constrain dispatch.
sim::SimConfig make_base() {
  sim::SimConfig cfg;
  cfg.num_machines = kMachines;
  cfg.machine_capacity = workload::facebook_machine();
  cfg.machine_labels.assign(kMachines, {});
  cfg.machine_labels[2] = {"gpu"};
  cfg.machine_labels[9] = {"gpu"};
  cfg.machine_labels[5] = {"ssd"};
  cfg.machine_labels[6] = {"ssd"};
  for (int c = 0; c < kCells; ++c) {
    cfg.cells.push_back({c * (kMachines / kCells),
                         (c + 1) * (kMachines / kCells)});
  }
  cfg.trace.enabled = true;
  cfg.trace.max_chunks = 1024;
  return cfg;
}

// Facebook base load plus constrained riders: gpu-required, ssd-required,
// gpu-forbidden and anti-affinity jobs, spread over the arrival window.
// Returned pre-sorted so jobs[g] is global job id g — the invariant the
// per-cell reconstruction below leans on.
sim::Workload make_workload() {
  workload::FacebookConfig cfg;
  cfg.num_jobs = 16;
  cfg.num_machines = kMachines;
  cfg.task_scale = 0.3;
  cfg.arrival_window = 300;
  cfg.seed = 7;
  sim::Workload w = workload::make_facebook_workload(cfg);

  const sim::JobSpec donor = w.jobs[0];
  const auto add_constrained =
      [&](const std::string& name, double arrival,
          const sim::PlacementConstraint& constraint) {
        sim::JobSpec job = donor;
        job.name = name;
        job.arrival = arrival;
        for (auto& stage : job.stages) stage.constraint = constraint;
        w.jobs.push_back(job);
      };
  sim::PlacementConstraint needs_gpu;
  needs_gpu.require_labels = {"gpu"};
  sim::PlacementConstraint needs_ssd;
  needs_ssd.require_labels = {"ssd"};
  sim::PlacementConstraint no_gpu;
  no_gpu.forbid_labels = {"gpu"};
  sim::PlacementConstraint spread;
  spread.anti_affinity = true;
  add_constrained("needs-gpu-0", 10, needs_gpu);
  add_constrained("needs-gpu-1", 120, needs_gpu);
  add_constrained("needs-ssd", 60, needs_ssd);
  add_constrained("no-gpu", 90, no_gpu);
  add_constrained("spread", 150, spread);
  return sim::sorted_by_arrival(w);
}

TEST(FederationConstraintsTest, FederatedRunHasZeroViolations) {
  const sim::Workload w = make_workload();
  FederationConfig fc;
  fc.base = make_base();
  fc.policy = DispatchPolicy::kLeastLoaded;
  const FederatedResult fed = simulate_federated(fc, w);
  EXPECT_TRUE(fed.completed);
  EXPECT_EQ(fed.lost_jobs, 0);

  // Feasibility pinning: gpu-required jobs only on cells 0/2 (the cells
  // whose spans hold a gpu machine), ssd only on cell 1.
  ASSERT_EQ(fed.job_records.size(), w.jobs.size());
  for (std::size_t g = 0; g < fed.job_records.size(); ++g) {
    const std::string& name = fed.job_records[g].name;
    if (name.rfind("needs-gpu", 0) == 0) {
      EXPECT_TRUE(fed.job_cell[g] == 0 || fed.job_cell[g] == 2)
          << name << " landed on cell " << fed.job_cell[g];
    } else if (name == "needs-ssd") {
      EXPECT_EQ(fed.job_cell[g], 1) << name;
    }
  }

  // Per-cell post-hoc replay. Each cell's trace uses local job ids in
  // submission order; with no kills, submission order is ascending global
  // id restricted to the cell — rebuild exactly the workload the cell's
  // engine saw (remapped replicas, cell-local machine ids) and hand it to
  // the checker with the cell's own carved config.
  ASSERT_EQ(fed.cells.size(), static_cast<std::size_t>(kCells));
  long constrained_starts = 0;
  for (int c = 0; c < kCells; ++c) {
    sim::Workload cell_w;
    for (std::size_t g = 0; g < w.jobs.size(); ++g) {
      if (fed.job_cell[g] != c) continue;
      cell_w.jobs.push_back(
          remap_job_for_cell(w.jobs[g], fc.base.cells[c]));
    }
    const sim::SimConfig cell_cfg =
        make_cell_config(fc.base, fc.base.cells[c], c);
    const test::ConstraintCheck check = test::check_constraints(
        cell_w, cell_cfg, fed.cells[static_cast<std::size_t>(c)]);
    constrained_starts += check.constrained_starts;
    EXPECT_TRUE(check.violations.empty())
        << "cell " << c << ": " << check.violations.size()
        << " violations, first: " << check.violations.front();
  }
  EXPECT_GT(constrained_starts, 0)
      << "no constrained task ever started — the check was vacuous";
}

}  // namespace
}  // namespace tetris::federation
