// Federated determinism (DESIGN.md §14): a federated run is a pure
// function of (config, workload). Repeats are bit-identical down to every
// counter — the dispatcher sees only deterministic EngineLoad snapshots
// and a seeded RNG. Divergences are pinned to the first differing
// decision via the trace replayer.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "federation/federated_simulator.h"
#include "sim/simulator.h"
#include "trace/replayer.h"
#include "workload/facebook.h"
#include "workload/profiles.h"

namespace tetris::federation {
namespace {

// `cells` equal cells over `machines`. The mid-run kill of cell `dead`
// puts the failover path under the same bit-reproducibility contract as
// the calm path.
FederationConfig make_config(int machines, int cells, int dead,
                             DispatchPolicy policy) {
  FederationConfig fc;
  fc.base.num_machines = machines;
  fc.base.machine_capacity = workload::facebook_machine();
  const int size = machines / cells;
  for (int c = 0; c < cells; ++c) {
    fc.base.cells.push_back({c * size, (c + 1) * size});
  }
  fc.base.trace.enabled = true;
  fc.base.trace.max_chunks = 1024;
  fc.policy = policy;
  fc.dispatch_seed = 5;
  fc.kills = {{dead, 150.0}};
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
  EXPECT_TRUE(a.perf == b.perf) << what << ": counters moved";

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
  const struct {
    const char* name;
    sim::Workload workload;
    FederationConfig config;
  } setups[] = {
      {"2 cells", make_workload(10), make_config(10, 2, 1, GetParam())},
      // One machine per cell: the shape of the E26 sweep's high cell
      // counts, shrunk to test scale.
      {"16 cells", make_workload(16), make_config(16, 16, 3, GetParam())},
  };
  for (const auto& s : setups) {
    const FederatedResult a = simulate_federated(s.config, s.workload);
    const FederatedResult b = simulate_federated(s.config, s.workload);
    expect_identical(a, b, std::string("repeat, ") + s.name);
    EXPECT_GT(a.reassigned_jobs, 0)
        << s.name << ": kill must exercise the failover path";
  }
}

TEST(FederationCellParallelTest, IdleCellsAreSkippedAndCounted) {
  // 16 cells over a workload that keeps only a few busy at a time: the
  // driver must skip quiescent cells (whose advance would mutate nothing,
  // DESIGN.md §14.5) and account them.
  const sim::Workload w = make_workload(16);
  const FederatedResult r = simulate_federated(
      make_config(16, 16, 3, DispatchPolicy::kLeastLoaded), w);
  EXPECT_GT(r.perf.idle_cell_skips, 0);
  // The merged per-cell counters and pass-latency histogram made it out.
  EXPECT_GT(r.perf.score_evals, 0);
  EXPECT_GT(r.pass_latency.count(), 0);
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
