// Golden schedule digests: the absolute schedules of a fixed set of runs,
// pinned in tier-1. Every other proof in the suite compares two paths of
// one build (naive vs optimized, stream vs batch, 1 cell vs global, traced
// vs untraced); a change that moves a schedule on every path at once
// passes all of them and fails here.
//
// Each case runs through its public entry point twice, on the default path
// and on the naive oracle (TetrisConfig::naive_scoring plus
// SimConfig::naive_scheduler_view; a baseline scheduler has only the
// latter), and both runs must give the digest committed below
// (tests/support/schedule_digest.h, perfbench's digest).
//
// A digest may change only in a change that says why and lists old -> new.
// To regenerate after such a change, build and run
//
//   ./build/tests/integration_golden_test | grep '^constexpr'
//
// which prints a line ready to paste for every case whose digest moved.
// The goldens were generated with g++ 12.2.0 (its libstdc++) and glibc
// 2.36 on x86-64. Hash-table iteration order still reaches the schedules
// in three places (DESIGN.md §4, "Rate recompute"): the order of tied
// finish events, the tracker's ramp-up sum and the rack-uplink legs. So
// another standard library may give other digests.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <iomanip>
#include <sstream>
#include <string>

#include "core/tetris_scheduler.h"
#include "federation/federated_simulator.h"
#include "sched/slot_scheduler.h"
#include "sim/simulator.h"
#include "tests/support/schedule_digest.h"
#include "workload/constrained.h"
#include "workload/facebook.h"
#include "workload/motivating.h"
#include "workload/profiles.h"
#include "workload/stream_gen.h"
#include "workload/suite.h"

namespace tetris {
namespace {

constexpr std::uint64_t kMotivatingExample = 0xbca3aa2d99e9a5f4ULL;
constexpr std::uint64_t kHeavyBacklog = 0xa9692c5be11ebb03ULL;
constexpr std::uint64_t kArrivalStream = 0x9f93b6737dbd3544ULL;
constexpr std::uint64_t kFederatedCellKill = 0x3d5fda05ba2c693eULL;
constexpr std::uint64_t kMachineChurn = 0x486544a9261cf6ecULL;
constexpr std::uint64_t kPlacementConstraints = 0x7816a340a74f1b29ULL;
constexpr std::uint64_t kBaselineContention = 0x1d98eda956058b02ULL;

std::string hex(std::uint64_t v) {
  std::ostringstream os;
  os << "0x" << std::hex << std::setw(16) << std::setfill('0') << v
     << "ULL";
  return os.str();
}

// Runs `run` on the default path and on the naive oracle; both digests
// must equal `golden`.
void expect_golden(const std::string& name, std::uint64_t golden,
                   const std::function<std::uint64_t(bool naive)>& run) {
  const std::uint64_t got = run(/*naive=*/false);
  const std::uint64_t naive = run(/*naive=*/true);
  if (got != golden) {
    ADD_FAILURE() << name << ": schedule moved from golden " << hex(golden)
                  << "; if that is intended, paste\n"
                  << "constexpr std::uint64_t k" << name << " = " << hex(got)
                  << ";";
  }
  EXPECT_EQ(naive, got) << name << ": the naive oracle gives " << hex(naive)
                        << ", the default path " << hex(got);
}

std::uint64_t digest_of(const sim::SimResult& r) {
  EXPECT_TRUE(r.completed);
  EXPECT_TRUE(r.infeasible.empty());
  EXPECT_FALSE(r.tasks.empty());
  return test::schedule_digest(r.tasks, r.makespan);
}

core::TetrisConfig tetris_config(bool naive) {
  core::TetrisConfig tcfg;
  tcfg.naive_scoring = naive;
  return tcfg;
}

sim::SimResult simulate_tetris(sim::SimConfig cfg, const sim::Workload& w,
                               core::TetrisConfig tcfg, bool naive) {
  cfg.naive_scheduler_view = naive;
  tcfg.naive_scoring = naive;
  core::TetrisScheduler tetris(tcfg);
  return sim::simulate(cfg, w, tetris);
}

// The Facebook-simulation cluster (paper §5.1) under Tetris's usage-based
// tracker, as the benches run Tetris.
sim::SimConfig facebook_cluster(int machines) {
  sim::SimConfig cfg;
  cfg.num_machines = machines;
  cfg.machine_capacity = workload::facebook_machine();
  cfg.tracker = sim::TrackerMode::kUsage;
  return cfg;
}

sim::Workload facebook_trace(int jobs, int machines, double arrival_window,
                             double task_scale = 1.0) {
  workload::FacebookConfig wcfg;
  wcfg.num_jobs = jobs;
  wcfg.num_machines = machines;
  wcfg.arrival_window = arrival_window;
  wcfg.task_scale = task_scale;
  wcfg.seed = 1;
  return workload::make_facebook_workload(wcfg);
}

// E1: the §2.1 motivating example, packed without fairness as in
// bench_motivating_example.
TEST(Golden, MotivatingExample) {
  const auto ex = workload::make_motivating_example();
  core::TetrisConfig tcfg;
  tcfg.fairness_knob = 0;
  sim::SimConfig cfg = ex.config;
  cfg.tracker = sim::TrackerMode::kUsage;
  expect_golden("MotivatingExample", kMotivatingExample, [&](bool naive) {
    return digest_of(simulate_tetris(cfg, ex.workload, tcfg, naive));
  });
}

// E10: the Table-8 heavy backlog (every job pending at t=0), reduced from
// 230 jobs on 30 machines.
TEST(Golden, HeavyBacklog) {
  const sim::Workload w = facebook_trace(60, 10, /*arrival_window=*/0);
  expect_golden("HeavyBacklog", kHeavyBacklog, [&](bool naive) {
    return digest_of(simulate_tetris(facebook_cluster(10), w, {}, naive));
  });
}

// bench_streaming's arrival stream (generator seed 42, offered load ~2/3
// of capacity, the bench's resident ceilings), pulled through
// simulate_stream; task records stay on for the digest.
TEST(Golden, ArrivalStream) {
  workload::StreamGenConfig gen;
  gen.num_jobs = 150;
  gen.num_machines = 10;
  gen.seed = 42;
  gen.arrival_spacing = 1300.0 / (0.65 * 16.0 * gen.num_machines);
  sim::SimConfig cfg = facebook_cluster(10);
  cfg.stream.enabled = true;
  cfg.stream.max_resident_jobs = 1024;
  cfg.stream.max_resident_tasks = 1 << 20;
  cfg.stream.drop_job_records = true;
  cfg.max_time = 1e9;
  expect_golden("ArrivalStream", kArrivalStream, [&](bool naive) {
    sim::SimConfig run_cfg = cfg;
    run_cfg.naive_scheduler_view = naive;
    workload::SyntheticJobSource source(gen);
    core::TetrisScheduler tetris(tetris_config(naive));
    const sim::SimResult r = sim::simulate_stream(run_cfg, source, tetris);
    EXPECT_EQ(r.perf.stream_deferrals, 0);
    return digest_of(r);
  });
}

// E26: the Facebook trace on 16 rack-aligned cells of 4 machines,
// least-loaded dispatch, with one cell killed mid-run and its unfinished
// jobs failed over to the survivors.
TEST(Golden, FederatedCellKill) {
  constexpr int kMachines = 64;
  constexpr int kCells = 16;
  federation::FederationConfig fc;
  fc.base = facebook_cluster(kMachines);
  fc.base.machines_per_rack = kMachines / kCells;
  for (int c = 0; c < kCells; ++c) {
    fc.base.cells.push_back({c * 4, (c + 1) * 4});
  }
  fc.kills = {{5, 300.0}};
  const sim::Workload w = sim::sorted_by_arrival(
      facebook_trace(160, kMachines, /*arrival_window=*/600));
  expect_golden("FederatedCellKill", kFederatedCellKill, [&](bool naive) {
    federation::FederationConfig run_fc = fc;
    run_fc.base.naive_scheduler_view = naive;
    run_fc.tetris = tetris_config(naive);
    const federation::FederatedResult r =
        federation::simulate_federated(run_fc, w);
    EXPECT_TRUE(r.completed);
    EXPECT_GT(r.reassigned_jobs, 0);
    EXPECT_EQ(r.lost_jobs, 0);
    return test::schedule_digest(r.tasks, r.makespan);
  });
}

// Random machine failures and repairs (bench_churn's MTTR, one of its
// MTTFs) under the §5.1 workload suite: kills, retries and read failovers.
TEST(Golden, MachineChurn) {
  workload::SuiteConfig wcfg;
  wcfg.num_jobs = 40;
  wcfg.num_machines = 10;
  wcfg.task_scale = 0.05;
  wcfg.arrival_window = 300;
  wcfg.seed = 1;
  const sim::Workload w = workload::make_suite_workload(wcfg);
  sim::SimConfig cfg = facebook_cluster(10);
  cfg.churn.mttf = 2000.0;
  cfg.churn.mttr = 120.0;
  expect_golden("MachineChurn", kMachineChurn, [&](bool naive) {
    const sim::SimResult r = simulate_tetris(cfg, w, {}, naive);
    EXPECT_GT(r.churn.task_attempts_lost, 0);
    return digest_of(r);
  });
}

// The constrained suite (DESIGN.md §13) on a labeled 10-machine cluster
// in racks of 5: label requirements, anti-affinity and same-rack reads.
TEST(Golden, PlacementConstraints) {
  workload::ConstrainedSuiteConfig wcfg;
  wcfg.base.num_jobs = 24;
  wcfg.base.num_machines = 10;
  wcfg.base.task_scale = 0.04;
  wcfg.base.arrival_window = 250;
  wcfg.base.seed = 1;
  wcfg.intensity = 1.5;
  const sim::Workload w = workload::make_constrained_suite(wcfg);
  sim::SimConfig cfg = facebook_cluster(10);
  cfg.machine_labels = workload::make_class_labels(10);
  cfg.machines_per_rack = 5;
  expect_golden("PlacementConstraints", kPlacementConstraints,
                [&](bool naive) {
                  return digest_of(simulate_tetris(cfg, w, {}, naive));
                });
}

// The Table-8 backlog under the slot-fair baseline, run the way
// bench/harness.h runs every baseline (allocation tracker). Tetris never
// over-allocates, so none of the cases above reaches share ratios below
// 1, interference, memory thrash or the allocation tracker; this one
// stacks tasks until most of them run slower than their natural duration.
TEST(Golden, BaselineContention) {
  const sim::Workload w = facebook_trace(60, 10, /*arrival_window=*/0);
  sim::SimConfig cfg = facebook_cluster(10);
  cfg.tracker = sim::TrackerMode::kAllocation;
  expect_golden("BaselineContention", kBaselineContention, [&](bool naive) {
    sim::SimConfig run_cfg = cfg;
    run_cfg.naive_scheduler_view = naive;
    sched::SlotScheduler slot;
    const sim::SimResult r = sim::simulate(run_cfg, w, slot);
    const auto slow = std::count_if(
        r.tasks.begin(), r.tasks.end(), [](const sim::TaskRecord& t) {
          return t.finish - t.start > 1.01 * t.natural_duration;
        });
    EXPECT_GT(slow, static_cast<long>(r.tasks.size() / 2));
    return digest_of(r);
  });
}

}  // namespace
}  // namespace tetris
