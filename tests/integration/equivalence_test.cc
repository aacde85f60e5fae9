// The hot-path equivalence property (DESIGN.md §8): the optimized
// scheduling path — simulator-side view caches (probe and group-estimate
// slots, wait FIFOs) plus scheduler-side shortcuts (sticky rejection, the
// whole-row skip) — must produce schedules BIT-IDENTICAL to the naive
// recompute-everything oracle. Not "close": every timestamp, host and
// attempt count must match exactly, across workloads, seeds, tracker
// modes, estimation models, churn, and every Tetris extension knob.
// Doubles are compared with ==; any drift, however small, is a bug in an
// invalidation rule.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <sstream>
#include <string>

#include "core/tetris_scheduler.h"
#include "sim/simulator.h"
#include "trace/replayer.h"
#include "workload/constrained.h"
#include "workload/facebook.h"
#include "workload/profiles.h"
#include "workload/suite.h"

namespace tetris {
namespace {

enum class Load { kSuite, kFacebook, kConstrained };

// gtest has no printer for Case, so each ctest name embeds its byte dump
// ("N-byte object <...>"): adding or removing a field renames every case.
struct Case {
  std::string name;
  Load load = Load::kSuite;
  std::uint64_t seed = 1;
  bool churn = false;
  sim::TrackerMode tracker = sim::TrackerMode::kUsage;
  sim::EstimationMode estimation = sim::EstimationMode::kOracle;
  core::TetrisConfig tetris;
  // Job arrivals are uniform in [0, arrival_window] for every load.
  double arrival_window = 250.0;
  // Event-trace ring size; every case's stream must fit undropped.
  std::size_t trace_chunks = 1024;
  // Cluster size; the generated loads are sized for it too.
  int machines = 10;
};

std::string case_name(const ::testing::TestParamInfo<Case>& info) {
  return info.param.name;
}

sim::Workload make_load(Load kind, std::uint64_t seed,
                        double arrival_window = 250.0, int machines = 10) {
  if (kind == Load::kSuite) {
    workload::SuiteConfig cfg;
    cfg.num_jobs = 24;
    cfg.num_machines = machines;
    cfg.task_scale = 0.04;
    cfg.arrival_window = arrival_window;
    cfg.seed = seed;
    return workload::make_suite_workload(cfg);
  }
  if (kind == Load::kConstrained) {
    // The suite above decorated with placement constraints (DESIGN.md
    // §13); feasible by construction on the labeled cluster
    // make_sim_config builds for this load.
    workload::ConstrainedSuiteConfig cfg;
    cfg.base.num_jobs = 24;
    cfg.base.num_machines = machines;
    cfg.base.task_scale = 0.04;
    cfg.base.arrival_window = arrival_window;
    cfg.base.seed = seed;
    cfg.intensity = 1.5;
    return workload::make_constrained_suite(cfg);
  }
  workload::FacebookConfig cfg;
  cfg.num_jobs = 30;
  cfg.num_machines = machines;
  cfg.task_scale = 0.3;
  cfg.arrival_window = arrival_window;
  cfg.seed = seed;
  return workload::make_facebook_workload(cfg);
}

sim::SimConfig make_sim_config(const Case& c) {
  sim::SimConfig cfg;
  cfg.num_machines = c.machines;
  cfg.machine_capacity = workload::facebook_machine();
  cfg.tracker = c.tracker;
  cfg.estimation.mode = c.estimation;
  if (c.load == Load::kConstrained) {
    // Heterogeneous classes + racks so every constraint flavour (labels,
    // anti-affinity, same-rack-as-input) is live in the scan.
    cfg.machine_labels = workload::make_class_labels(c.machines);
    cfg.machines_per_rack = 5;
  }
  if (c.churn) {
    cfg.churn.scripted = {{2, 20.0, 80.0}, {7, 50.0, 140.0}, {2, 200.0, 260.0}};
  }
  return cfg;
}

// Exact double equality is deliberate: the caches must reproduce the very
// same floating-point operations in the very same order.
void expect_identical(const sim::SimResult& naive, const sim::SimResult& opt) {
  EXPECT_EQ(naive.completed, opt.completed);
  EXPECT_EQ(naive.end_time, opt.end_time);
  EXPECT_EQ(naive.makespan, opt.makespan);
  EXPECT_EQ(naive.scheduler_cost.invocations, opt.scheduler_cost.invocations);
  EXPECT_EQ(naive.scheduler_cost.placements, opt.scheduler_cost.placements);

  ASSERT_EQ(naive.jobs.size(), opt.jobs.size());
  for (std::size_t i = 0; i < naive.jobs.size(); ++i) {
    EXPECT_EQ(naive.jobs[i].id, opt.jobs[i].id) << "job " << i;
    EXPECT_EQ(naive.jobs[i].arrival, opt.jobs[i].arrival) << "job " << i;
    EXPECT_EQ(naive.jobs[i].finish, opt.jobs[i].finish) << "job " << i;
  }

  ASSERT_EQ(naive.tasks.size(), opt.tasks.size());
  for (std::size_t i = 0; i < naive.tasks.size(); ++i) {
    const auto& a = naive.tasks[i];
    const auto& b = opt.tasks[i];
    EXPECT_EQ(a.job, b.job) << "task " << i;
    EXPECT_EQ(a.stage, b.stage) << "task " << i;
    EXPECT_EQ(a.index, b.index) << "task " << i;
    EXPECT_EQ(a.host, b.host) << "task " << i;
    EXPECT_EQ(a.start, b.start) << "task " << i;
    EXPECT_EQ(a.finish, b.finish) << "task " << i;
    EXPECT_EQ(a.attempts, b.attempts) << "task " << i;
    EXPECT_EQ(a.local_fraction, b.local_fraction) << "task " << i;
  }

  EXPECT_EQ(naive.churn.machines_failed, opt.churn.machines_failed);
  EXPECT_EQ(naive.churn.machines_recovered, opt.churn.machines_recovered);
  EXPECT_EQ(naive.churn.task_attempts_lost, opt.churn.task_attempts_lost);
  EXPECT_EQ(naive.churn.work_lost_seconds, opt.churn.work_lost_seconds);
}

// Divergence diagnostic: the matrix is large, so a bare EXPECT_EQ index is
// slow to act on. Name the first task whose placement differs outright.
std::string first_placement_divergence(const sim::SimResult& want,
                                       const sim::SimResult& got) {
  const std::size_t n = std::min(want.tasks.size(), got.tasks.size());
  for (std::size_t i = 0; i < n; ++i) {
    const auto& a = want.tasks[i];
    const auto& b = got.tasks[i];
    if (a.job == b.job && a.stage == b.stage && a.index == b.index &&
        a.host == b.host && a.start == b.start && a.finish == b.finish &&
        a.attempts == b.attempts && a.local_fraction == b.local_fraction)
      continue;
    std::ostringstream os;
    os << "first divergent placement: task[" << i << "] job=" << a.job
       << " stage=" << a.stage << " index=" << a.index << " — want host="
       << a.host << " start=" << a.start << " finish=" << a.finish
       << " attempts=" << a.attempts << ", got host=" << b.host
       << " start=" << b.start << " finish=" << b.finish
       << " attempts=" << b.attempts;
    return os.str();
  }
  if (want.tasks.size() != got.tasks.size()) {
    std::ostringstream os;
    os << "task record counts diverge: want " << want.tasks.size() << ", got "
       << got.tasks.size();
    return os.str();
  }
  return "placements identical";
}

class EquivalenceTest : public ::testing::TestWithParam<Case> {};

// The name predates the removal of the threaded scan and the simd knob;
// the matrix is now the naive oracle against the optimized path.
TEST_P(EquivalenceTest, AllPathsAndThreadCountsAreBitIdentical) {
  const Case c = GetParam();
  const sim::Workload w =
      make_load(c.load, c.seed, c.arrival_window, c.machines);

  const auto run = [&](bool naive) {
    sim::SimConfig cfg = make_sim_config(c);
    cfg.naive_scheduler_view = naive;
    // Record the event stream too: decision events must agree across the
    // whole matrix (DESIGN.md §10's cross-configuration contract).
    cfg.trace.enabled = true;
    cfg.trace.max_chunks = c.trace_chunks;
    core::TetrisConfig tcfg = c.tetris;
    tcfg.naive_scoring = naive;
    core::TetrisScheduler sched(tcfg);
    return sim::simulate(cfg, w, sched);
  };

  const sim::SimResult oracle = run(/*naive=*/true);
  const sim::SimResult r = run(/*naive=*/false);
  SCOPED_TRACE(first_placement_divergence(oracle, r));
  expect_identical(oracle, r);

  // The recorded event streams must agree decision-for-decision with the
  // oracle's — same arrivals, passes, placements (including alignment
  // scores and fairness cuts), task lifecycle and churn edges.
  ASSERT_EQ(oracle.trace_log.dropped, 0u);
  ASSERT_EQ(r.trace_log.dropped, 0u);
  const trace::Divergence d = trace::first_divergence(
      oracle.trace_log, r.trace_log, trace::CompareMode::kDecisions);
  EXPECT_TRUE(d.identical) << d.description;

  // The naive oracle must really be naive, or the comparison proves
  // nothing ...
  EXPECT_EQ(oracle.perf.probe_cache_hits, 0);
  EXPECT_EQ(oracle.perf.estimate_cache_hits, 0);
  EXPECT_EQ(oracle.perf.avail_cache_hits, 0);
  EXPECT_EQ(oracle.perf.sticky_rejects, 0);
  EXPECT_EQ(oracle.perf.row_skips, 0);
  EXPECT_EQ(oracle.perf.simd_blocks, 0);
  EXPECT_EQ(oracle.perf.scalar_tail_evals, 0);
  // ... and the optimized path must really be optimized.
  EXPECT_GT(r.perf.probe_cache_hits + r.perf.sticky_rejects, 0);
  // Both paths score every cell in place; no kernel counts anything.
  EXPECT_EQ(r.perf.simd_blocks, 0);
  EXPECT_EQ(r.perf.scalar_tail_evals, 0);
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, EquivalenceTest,
    ::testing::Values(
        // Baseline configs across workloads and seeds.
        Case{"SuiteUsageSeed1", Load::kSuite, 1, false,
             sim::TrackerMode::kUsage, sim::EstimationMode::kOracle, {}},
        Case{"SuiteUsageSeed2", Load::kSuite, 2, false,
             sim::TrackerMode::kUsage, sim::EstimationMode::kOracle, {}},
        Case{"SuiteUsageSeed3", Load::kSuite, 3, false,
             sim::TrackerMode::kUsage, sim::EstimationMode::kOracle, {}},
        Case{"FacebookUsageSeed1", Load::kFacebook, 1, false,
             sim::TrackerMode::kUsage, sim::EstimationMode::kOracle, {}},
        Case{"FacebookUsageSeed2", Load::kFacebook, 2, false,
             sim::TrackerMode::kUsage, sim::EstimationMode::kOracle, {}},
        // The allocation tracker exercises a different availability path.
        Case{"SuiteAllocation", Load::kSuite, 1, false,
             sim::TrackerMode::kAllocation, sim::EstimationMode::kOracle, {}},
        // Churn: outages must invalidate probe memos and the fit index.
        Case{"SuiteChurn", Load::kSuite, 1, true, sim::TrackerMode::kUsage,
             sim::EstimationMode::kOracle, {}},
        Case{"FacebookChurnAllocation", Load::kFacebook, 1, true,
             sim::TrackerMode::kAllocation, sim::EstimationMode::kOracle, {}},
        // Estimation models: profiling flips estimates mid-run (the memo
        // must notice) and noise stresses tight-fit boundaries.
        Case{"SuiteLearnedProfile", Load::kSuite, 1, false,
             sim::TrackerMode::kUsage, sim::EstimationMode::kLearnedProfile,
             {}},
        Case{"FacebookLearnedProfile", Load::kFacebook, 1, false,
             sim::TrackerMode::kUsage, sim::EstimationMode::kLearnedProfile,
             {}},
        Case{"FacebookNoisy", Load::kFacebook, 1, false,
             sim::TrackerMode::kUsage, sim::EstimationMode::kNoisy, {}},
        // Tetris extension knobs change the greedy loop's control flow.
        Case{"SuiteStarvation", Load::kSuite, 1, false,
             sim::TrackerMode::kUsage, sim::EstimationMode::kOracle,
             [] {
               core::TetrisConfig t;
               t.starvation_threshold = 30;
               return t;
             }()},
        Case{"SuiteLookahead", Load::kSuite, 1, false, sim::TrackerMode::kUsage,
             sim::EstimationMode::kOracle,
             [] {
               core::TetrisConfig t;
               t.future_lookahead = 15;
               return t;
             }()},
        Case{"SuitePreemption", Load::kSuite, 1, false,
             sim::TrackerMode::kUsage, sim::EstimationMode::kOracle,
             [] {
               core::TetrisConfig t;
               t.preempt_for_fairness = true;
               return t;
             }()},
        Case{"FacebookQueueFairness", Load::kFacebook, 1, false,
             sim::TrackerMode::kUsage, sim::EstimationMode::kOracle,
             [] {
               core::TetrisConfig t;
               t.fairness_over_queues = true;
               t.fairness_knob = 0.5;
               return t;
             }()},
        // Placement constraints (DESIGN.md §13): the admission predicate
        // must filter identically in the optimized scan and the naive
        // oracle — constrained schedules stay bit-identical across the
        // whole variant grid.
        Case{"ConstrainedSuite", Load::kConstrained, 1, false,
             sim::TrackerMode::kUsage, sim::EstimationMode::kOracle, {}},
        Case{"ConstrainedSuiteSeed2", Load::kConstrained, 2, false,
             sim::TrackerMode::kUsage, sim::EstimationMode::kOracle, {}},
        // Churn x constraints: outages shrink the feasible sets; probe
        // memos and sticky rejections must stay coherent with both.
        Case{"ConstrainedChurn", Load::kConstrained, 1, true,
             sim::TrackerMode::kUsage, sim::EstimationMode::kOracle, {}},
        // Starvation reservations may only fence constraint-admissible
        // machines; lookahead claims only label-admissible ones.
        Case{"ConstrainedStarvation", Load::kConstrained, 1, false,
             sim::TrackerMode::kUsage, sim::EstimationMode::kOracle,
             [] {
               core::TetrisConfig t;
               t.starvation_threshold = 30;
               return t;
             }()},
        Case{"ConstrainedLookahead", Load::kConstrained, 1, false,
             sim::TrackerMode::kUsage, sim::EstimationMode::kOracle,
             [] {
               core::TetrisConfig t;
               t.future_lookahead = 15;
               return t;
             }()}),
    case_name);

// Pass samples: backlog and placement counts are schedule-derived, so they
// must agree between the two paths as well (latency, of course, differs —
// that difference is the whole point of the optimization).
TEST(EquivalencePassSamples, BacklogAndPlacementsMatch) {
  const sim::Workload w = make_load(Load::kFacebook, 1);
  sim::SimConfig cfg;
  cfg.num_machines = 10;
  cfg.machine_capacity = workload::facebook_machine();
  cfg.tracker = sim::TrackerMode::kUsage;
  cfg.collect_pass_samples = true;

  sim::SimConfig naive_cfg = cfg;
  naive_cfg.naive_scheduler_view = true;
  core::TetrisConfig naive_tcfg;
  naive_tcfg.naive_scoring = true;
  core::TetrisScheduler naive_sched(naive_tcfg);
  const sim::SimResult naive = sim::simulate(naive_cfg, w, naive_sched);

  core::TetrisScheduler opt_sched;
  const sim::SimResult opt = sim::simulate(cfg, w, opt_sched);

  ASSERT_GT(opt.pass_samples.size(), 0u);
  ASSERT_EQ(naive.pass_samples.size(), opt.pass_samples.size());
  for (std::size_t i = 0; i < naive.pass_samples.size(); ++i) {
    EXPECT_EQ(naive.pass_samples[i].time, opt.pass_samples[i].time) << i;
    EXPECT_EQ(naive.pass_samples[i].backlog, opt.pass_samples[i].backlog) << i;
    EXPECT_EQ(naive.pass_samples[i].placements, opt.pass_samples[i].placements)
        << i;
  }
}

// The caches must pay for themselves in hits, not just stay correct: on a
// recurring workload most probes and estimates should be served from memo.
TEST(EquivalenceCounters, CachesAreExercised) {
  const sim::Workload w = make_load(Load::kFacebook, 1);
  sim::SimConfig cfg;
  cfg.num_machines = 10;
  cfg.machine_capacity = workload::facebook_machine();
  cfg.tracker = sim::TrackerMode::kUsage;
  core::TetrisScheduler sched;
  const sim::SimResult r = sim::simulate(cfg, w, sched);

  EXPECT_GT(r.perf.probe_cache_misses, 0);
  EXPECT_GT(r.perf.probe_cache_hits, 0);
  EXPECT_GT(r.perf.estimate_cache_misses, 0);
  EXPECT_GT(r.perf.estimate_cache_hits, 0);
  EXPECT_GT(r.perf.avail_recomputes, 0);
  EXPECT_GT(r.perf.score_evals, 0);
  EXPECT_GT(r.perf.probes_issued, 0);
  // The scheduler's lifetime counters mirror the context sink.
  EXPECT_EQ(sched.perf().score_evals, r.perf.score_evals);
  EXPECT_EQ(sched.perf().probes_issued, r.perf.probes_issued);
  EXPECT_EQ(sched.perf().sticky_rejects, r.perf.sticky_rejects);
  EXPECT_EQ(sched.perf().row_skips, r.perf.row_skips);
}

// Cross-pass probe replay: a task blocked on one exhausted dimension
// (disk) but fitting on cpu/mem is re-probed every heartbeat with an
// unchanged runnable set — exactly the case the probe memo exists for.
TEST(EquivalenceCounters, BlockedGroupServesProbesFromMemo) {
  sim::Workload w;
  {
    // Job 0: one task monopolizing the machine's disk bandwidth for 100s.
    sim::JobSpec hog;
    sim::StageSpec stage;
    sim::TaskSpec t;
    t.peak_cores = 0.5;
    t.peak_mem = 0.5 * kGB;
    t.max_io_bw = 200 * kMB;
    sim::InputSplit split;
    split.bytes = 20000.0 * kMB;  // 100s at the machine's 200 MB/s
    split.replicas = {0};
    t.inputs.push_back(split);
    stage.tasks.push_back(std::move(t));
    hog.stages.push_back(std::move(stage));
    w.jobs.push_back(std::move(hog));
  }
  {
    // Job 1: a reader needing disk that stays blocked while the hog runs.
    sim::JobSpec reader;
    sim::StageSpec stage;
    sim::TaskSpec t;
    t.peak_cores = 0.5;
    t.peak_mem = 0.5 * kGB;
    t.max_io_bw = 50 * kMB;
    sim::InputSplit split;
    split.bytes = 100.0 * kMB;
    split.replicas = {0};
    t.inputs.push_back(split);
    stage.tasks.push_back(std::move(t));
    reader.stages.push_back(std::move(stage));
    w.jobs.push_back(std::move(reader));
  }

  sim::SimConfig cfg;
  cfg.num_machines = 1;
  cfg.machine_capacity = Resources::full(8, 8 * kGB, 200 * kMB, 200 * kMB,
                                         125 * kMB, 125 * kMB);
  core::TetrisScheduler sched;
  const sim::SimResult r = sim::simulate(cfg, w, sched);
  ASSERT_TRUE(r.completed);
  // ~100 heartbeats re-probe the blocked reader; all but the first replay
  // from the memo (its runnable set never changes while it waits).
  EXPECT_GT(r.perf.probe_cache_hits, 50);
}

// Within-pass replay: two single-task jobs fit one machine together, so
// one pass places both. Its first round probes both cells (two slot
// misses). The winner's placement invalidates the machine's column, so
// the next round re-probes the loser's cell, whose candidate did not
// change: the stage's slot must answer (a hit, not a third miss). The
// scan keeps no probe of its own to reuse instead.
TEST(EquivalenceCounters, ColumnInvalidationReprobesFromSlot) {
  sim::Workload w;
  for (int j = 0; j < 2; ++j) {
    sim::JobSpec job;
    sim::StageSpec stage;
    sim::TaskSpec t;
    t.peak_cores = 2;
    t.peak_mem = 2 * kGB;
    t.cpu_cycles = 2 * 10.0;
    stage.tasks.push_back(std::move(t));
    job.stages.push_back(std::move(stage));
    w.jobs.push_back(std::move(job));
  }

  sim::SimConfig cfg;
  cfg.num_machines = 1;
  cfg.machine_capacity = workload::facebook_machine();
  core::TetrisScheduler sched;
  const sim::SimResult r = sim::simulate(cfg, w, sched);
  ASSERT_TRUE(r.completed);
  ASSERT_EQ(r.tasks.size(), 2u);
  EXPECT_EQ(r.tasks[0].start, r.tasks[1].start);  // one pass placed both
  EXPECT_EQ(r.perf.probes_issued, 3);
  EXPECT_EQ(r.perf.probe_cache_misses, 2);
  EXPECT_EQ(r.perf.probe_cache_hits, 1);

  sim::SimConfig naive_cfg = cfg;
  naive_cfg.naive_scheduler_view = true;
  core::TetrisConfig naive_tcfg;
  naive_tcfg.naive_scoring = true;
  core::TetrisScheduler naive_sched(naive_tcfg);
  expect_identical(sim::simulate(naive_cfg, w, naive_sched), r);
}

// ---------------------------------------------------------------------------
// Targeted invalidation probes: the two events that rotate every version
// stamp — a task FINISHING (frees capacity, advances stage.finished, may
// complete a template profile) and a task ARRIVING / becoming runnable
// (bumps runnable_version, creates groups). A stale cache here would stall
// the DAG or reuse pre-profile estimates; bit-identity plus exact timing
// pins both.

sim::TaskSpec small_task(double cores, double seconds) {
  sim::TaskSpec t;
  t.peak_cores = cores;
  t.peak_mem = 1 * kGB;
  t.cpu_cycles = cores * seconds;
  return t;
}

TEST(EquivalenceInvalidation, TaskFinishUnblocksDependentStages) {
  // One machine, one job, three chained single-task stages: every stage
  // becomes runnable only via a finish event. If finishing failed to
  // invalidate the availability / probe / estimate caches, the scheduler
  // would see a full machine or a drained group and the chain would stall.
  sim::Workload w;
  sim::JobSpec job;
  for (int s = 0; s < 3; ++s) {
    sim::StageSpec stage;
    stage.tasks.push_back(small_task(4, 10));
    if (s > 0) stage.deps.push_back(s - 1);
    job.stages.push_back(std::move(stage));
  }
  w.jobs.push_back(std::move(job));

  sim::SimConfig cfg;
  cfg.num_machines = 1;
  cfg.machine_capacity = workload::facebook_machine();

  core::TetrisScheduler opt_sched;
  const sim::SimResult opt = sim::simulate(cfg, w, opt_sched);
  ASSERT_TRUE(opt.completed);
  // Serial chain on an empty machine: each stage starts right after its
  // predecessor (within one heartbeat) and runs at natural duration.
  ASSERT_EQ(opt.tasks.size(), 3u);
  for (const auto& t : opt.tasks) {
    EXPECT_NEAR(t.duration(), t.natural_duration, 1e-6);
    EXPECT_LE(t.start, 10.0 * t.stage + 1.5 * (t.stage + 1));
  }

  sim::SimConfig naive_cfg = cfg;
  naive_cfg.naive_scheduler_view = true;
  core::TetrisConfig naive_tcfg;
  naive_tcfg.naive_scoring = true;
  core::TetrisScheduler naive_sched(naive_tcfg);
  const sim::SimResult naive = sim::simulate(naive_cfg, w, naive_sched);
  expect_identical(naive, opt);
}

TEST(EquivalenceInvalidation, LateArrivalsEnterTheCachedView) {
  // A second job arrives mid-run: its groups must appear in the cached
  // view immediately (fresh runnable_version, dirty availability is not
  // even needed — but a stale group list would delay it past arrival).
  sim::Workload w;
  for (int j = 0; j < 2; ++j) {
    sim::JobSpec job;
    job.arrival = j * 40.0;
    sim::StageSpec stage;
    for (int i = 0; i < 3; ++i) stage.tasks.push_back(small_task(2, 15));
    job.stages.push_back(std::move(stage));
    w.jobs.push_back(std::move(job));
  }

  sim::SimConfig cfg;
  cfg.num_machines = 2;
  cfg.machine_capacity = workload::facebook_machine();

  core::TetrisScheduler opt_sched;
  const sim::SimResult opt = sim::simulate(cfg, w, opt_sched);
  ASSERT_TRUE(opt.completed);
  for (const auto& t : opt.tasks) {
    const double arrival = t.job * 40.0;
    EXPECT_GE(t.start, arrival);
    // An idle-enough cluster places a fresh arrival within ~a heartbeat.
    EXPECT_LE(t.start, arrival + 3.0) << "job " << t.job;
  }

  sim::SimConfig naive_cfg = cfg;
  naive_cfg.naive_scheduler_view = true;
  core::TetrisConfig naive_tcfg;
  naive_tcfg.naive_scoring = true;
  core::TetrisScheduler naive_sched(naive_tcfg);
  const sim::SimResult naive = sim::simulate(naive_cfg, w, naive_sched);
  expect_identical(naive, opt);
}

}  // namespace
}  // namespace tetris
