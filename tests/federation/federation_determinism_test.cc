// Federated determinism (DESIGN.md §14): a federated run is a pure
// function of (config, workload). Repeats are bit-identical, and so are
// runs at every cell_threads count — the dispatcher sees only
// deterministic EngineLoad snapshots and a seeded RNG, and cells share
// nothing between arrival and kill events. Divergences are pinned to the
// first differing decision via the trace replayer.
#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "federation/federated_simulator.h"
#include "sim/simulator.h"
#include "trace/replayer.h"
#include "workload/facebook.h"
#include "workload/profiles.h"

namespace tetris::federation {
namespace {

FederationConfig make_config(int machines, DispatchPolicy policy) {
  FederationConfig fc;
  fc.base.num_machines = machines;
  fc.base.machine_capacity = workload::facebook_machine();
  fc.base.cells = {{0, machines / 2}, {machines / 2, machines}};
  fc.base.trace.enabled = true;
  fc.base.trace.max_chunks_per_thread = 1024;
  fc.policy = policy;
  fc.dispatch_seed = 5;
  // Mid-run kill of cell 1 so the failover path is under the same
  // bit-reproducibility contract as the calm path.
  fc.kills = {{1, 150.0}};
  return fc;
}

sim::Workload make_workload(int machines) {
  workload::FacebookConfig cfg;
  cfg.num_jobs = 24;
  cfg.num_machines = machines;
  cfg.task_scale = 0.3;
  cfg.arrival_window = 300;
  cfg.seed = 2;
  return workload::make_facebook_workload(cfg);
}

void expect_identical(const FederatedResult& a, const FederatedResult& b,
                      const std::string& what) {
  EXPECT_EQ(a.completed, b.completed) << what;
  EXPECT_EQ(a.makespan, b.makespan) << what;
  EXPECT_EQ(a.avg_jct, b.avg_jct) << what;
  EXPECT_EQ(a.reassigned_jobs, b.reassigned_jobs) << what;
  EXPECT_EQ(a.lost_jobs, b.lost_jobs) << what;
  EXPECT_EQ(a.avg_utilization, b.avg_utilization) << what;
  EXPECT_EQ(a.utilization_skew, b.utilization_skew) << what;
  EXPECT_EQ(a.job_cell, b.job_cell) << what << ": dispatch choices moved";

  ASSERT_EQ(a.job_records.size(), b.job_records.size()) << what;
  for (std::size_t i = 0; i < a.job_records.size(); ++i) {
    EXPECT_EQ(a.job_records[i].finish, b.job_records[i].finish)
        << what << ": job " << i;
  }
  ASSERT_EQ(a.tasks.size(), b.tasks.size()) << what;
  for (std::size_t i = 0; i < a.tasks.size(); ++i) {
    EXPECT_EQ(a.tasks[i].job, b.tasks[i].job) << what << ": task " << i;
    EXPECT_EQ(a.tasks[i].host, b.tasks[i].host) << what << ": task " << i;
    EXPECT_EQ(a.tasks[i].start, b.tasks[i].start) << what << ": task " << i;
    EXPECT_EQ(a.tasks[i].finish, b.tasks[i].finish)
        << what << ": task " << i;
  }

  // Decision-stream equality per cell, with first-divergence diagnostics.
  ASSERT_EQ(a.cells.size(), b.cells.size()) << what;
  for (std::size_t c = 0; c < a.cells.size(); ++c) {
    const trace::Divergence d =
        trace::first_divergence(a.cells[c].trace_log, b.cells[c].trace_log,
                                trace::CompareMode::kDecisions);
    EXPECT_TRUE(d.identical) << what << ": cell " << c << ": "
                             << d.description;
  }
}

class FederationDeterminismTest
    : public ::testing::TestWithParam<DispatchPolicy> {};

TEST_P(FederationDeterminismTest, RepeatRunsAreBitIdentical) {
  const int kMachines = 10;
  const sim::Workload w = make_workload(kMachines);
  const FederationConfig fc = make_config(kMachines, GetParam());

  const FederatedResult a = simulate_federated(fc, w);
  const FederatedResult b = simulate_federated(fc, w);
  expect_identical(a, b, "repeat@serial");
  EXPECT_GT(a.reassigned_jobs, 0) << "kill must exercise the failover path";
}

// The cell thread count is invisible on the two-cell split too, where
// the kill leaves a single live cell for the fan-out.
TEST_P(FederationDeterminismTest, ThreadCountIsInvisible) {
  const int kMachines = 10;
  const sim::Workload w = make_workload(kMachines);
  FederationConfig fc = make_config(kMachines, GetParam());
  const FederatedResult serial = simulate_federated(fc, w);
  fc.cell_threads = 2;
  fc.allow_oversubscription = true;  // identity must hold on any box
  const FederatedResult threaded = simulate_federated(fc, w);
  expect_identical(serial, threaded, "serial-vs-2-cell-threads");
}

// ---- cell-parallel driver (DESIGN.md §14.5) ----
// A 16-cell single-machine-per-cell partition with a mid-run kill: the
// config the scaling bench runs (E26), shrunk to test scale. Every
// cell_threads setting must replay the serial lockstep bit for bit —
// expect_identical pins any divergence to the first differing decision
// per cell. allow_oversubscription is set because CI boxes may have
// fewer cores than the sweep's fan-out; identity must hold regardless.
FederationConfig make_16cell_config(int cell_threads,
                                    DispatchPolicy policy) {
  FederationConfig fc;
  fc.base.num_machines = 16;
  fc.base.machine_capacity = workload::facebook_machine();
  for (int c = 0; c < 16; ++c) fc.base.cells.push_back({c, c + 1});
  fc.base.trace.enabled = true;
  fc.base.trace.max_chunks_per_thread = 1024;
  fc.policy = policy;
  fc.dispatch_seed = 5;
  fc.kills = {{3, 150.0}};
  fc.cell_threads = cell_threads;
  fc.allow_oversubscription = true;
  return fc;
}

TEST_P(FederationDeterminismTest, CellParallelDriverIsInvisible) {
  const sim::Workload w = make_workload(16);
  const FederatedResult serial =
      simulate_federated(make_16cell_config(1, GetParam()), w);
  EXPECT_GT(serial.reassigned_jobs, 0)
      << "kill must exercise the failover path under cell-parallelism";
  for (int cell_threads : {2, 8}) {
    const FederatedResult parallel =
        simulate_federated(make_16cell_config(cell_threads, GetParam()), w);
    expect_identical(serial, parallel,
                     "serial-driver-vs-cell_threads=" +
                         std::to_string(cell_threads));
  }
}

TEST(FederationCellParallelTest, IdleCellsAreSkippedAndCounted) {
  // 16 cells over a workload that keeps only a few busy at a time: the
  // driver must skip quiescent cells (the skip is a proven no-op —
  // CellParallelDriverIsInvisible covers identity) and account them.
  const sim::Workload w = make_workload(16);
  const FederatedResult r = simulate_federated(
      make_16cell_config(2, DispatchPolicy::kLeastLoaded), w);
  EXPECT_GT(r.perf.idle_cell_skips, 0);
  EXPECT_GT(r.perf.cell_advance_nanos, 0);
  // The merged per-cell counters and pass-latency histogram made it out.
  EXPECT_GT(r.perf.score_evals, 0);
  EXPECT_GT(r.pass_latency.count(), 0);
}

TEST(FederationCellParallelTest, OversubscriptionFailsFastUnlessAllowed) {
  const unsigned hw = std::thread::hardware_concurrency();
  if (hw == 0) GTEST_SKIP() << "hardware_concurrency unknown";
  const sim::Workload w = make_workload(16);
  FederationConfig fc = make_16cell_config(static_cast<int>(hw) + 1,
                                           DispatchPolicy::kLeastLoaded);
  fc.allow_oversubscription = false;
  EXPECT_THROW(simulate_federated(fc, w), std::invalid_argument);
  fc.allow_oversubscription = true;
  EXPECT_NO_THROW(simulate_federated(fc, w));
}

INSTANTIATE_TEST_SUITE_P(
    Policies, FederationDeterminismTest,
    ::testing::Values(DispatchPolicy::kLeastLoaded,
                      DispatchPolicy::kPowerOfTwo,
                      DispatchPolicy::kLocalityAware),
    [](const ::testing::TestParamInfo<DispatchPolicy>& info) {
      switch (info.param) {
        case DispatchPolicy::kRoundRobin: return std::string("RoundRobin");
        case DispatchPolicy::kLeastLoaded: return std::string("LeastLoaded");
        case DispatchPolicy::kPowerOfTwo: return std::string("PowerOfTwo");
        case DispatchPolicy::kLocalityAware: return std::string("Locality");
      }
      return std::string("Unknown");
    });

}  // namespace
}  // namespace tetris::federation
