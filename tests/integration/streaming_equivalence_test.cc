// The streaming equivalence contract (DESIGN.md §11): the streaming
// engine — bounded look-ahead admission, out-of-core retirement, memo
// pruning — must produce runs BIT-IDENTICAL to the batch simulator it
// replaces, as long as no resident ceiling forces a deferral. Not "close":
// every placement, timestamp, job record and decision-level trace event
// must match exactly, across workloads, the naive/optimized scoring pair,
// noisy estimation (RNG stream parity) and churn (fork-order parity). The
// batch path is the oracle; any drift is a bug in the admission gate's
// event ordering or the retirement rules.
//
// A second layer proves the trace round trip: the same workload fed
// through a binary trace file (write → BinaryTraceReader → stream) must
// match the in-memory streaming run record for record.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <sstream>
#include <string>

#include "core/tetris_scheduler.h"
#include "sim/simulator.h"
#include "trace/replayer.h"
#include "workload/facebook.h"
#include "workload/motivating.h"
#include "workload/profiles.h"
#include "workload/suite.h"
#include "workload/trace_binary.h"

namespace tetris {
namespace {

enum class Load { kMotivating, kFacebook, kSuite };

// gtest has no printer for Case, so each ctest name embeds its byte dump
// ("N-byte object <...>"): adding or removing a field renames every case.
struct Case {
  std::string name;
  Load load = Load::kMotivating;
  bool naive = false;  // naive scoring + naive scheduler view
  bool churn = false;
  sim::EstimationMode estimation = sim::EstimationMode::kOracle;
  double lookahead = 30.0;
  // Workload seed and cluster size of the generated loads; the motivating
  // example brings its own.
  std::uint64_t seed = 1;
  int machines = 10;
};

std::string case_name(const ::testing::TestParamInfo<Case>& info) {
  return info.param.name;
}

struct Scenario {
  sim::Workload workload;
  sim::SimConfig config;
};

Scenario make_scenario(const Case& c) {
  Scenario s;
  if (c.load == Load::kMotivating) {
    auto ex = workload::make_motivating_example();
    s.workload = std::move(ex.workload);
    s.config = ex.config;
  } else if (c.load == Load::kFacebook) {
    workload::FacebookConfig cfg;
    cfg.num_jobs = 30;
    cfg.num_machines = c.machines;
    cfg.task_scale = 0.3;
    cfg.arrival_window = 250;
    cfg.seed = c.seed;
    s.workload = workload::make_facebook_workload(cfg);
    s.config.num_machines = c.machines;
    s.config.machine_capacity = workload::facebook_machine();
  } else {
    workload::SuiteConfig cfg;
    cfg.num_jobs = 24;
    cfg.num_machines = c.machines;
    cfg.task_scale = 0.04;
    cfg.arrival_window = 250;
    cfg.seed = c.seed;
    s.workload = workload::make_suite_workload(cfg);
    s.config.num_machines = c.machines;
    s.config.machine_capacity = workload::facebook_machine();
  }
  // Streaming consumes jobs in arrival order; run batch on the same sorted
  // workload so both modes see identical job ids and the comparison is
  // record for record.
  s.workload = sim::sorted_by_arrival(s.workload);
  s.config.estimation.mode = c.estimation;
  if (c.churn) {
    s.config.churn.scripted = {{1, 20.0, 80.0}, {4, 50.0, 140.0}};
  }
  // Decision-stream equality is part of the contract.
  s.config.trace.enabled = true;
  s.config.trace.max_chunks = 1024;
  return s;
}

sim::SimResult run_case(const Case& c, const Scenario& s, bool streaming) {
  sim::SimConfig cfg = s.config;
  cfg.naive_scheduler_view = c.naive;
  cfg.stream.enabled = streaming;
  cfg.stream.lookahead = c.lookahead;
  core::TetrisConfig tcfg;
  tcfg.naive_scoring = c.naive;
  core::TetrisScheduler sched(tcfg);
  return sim::simulate(cfg, s.workload, sched);
}

// Exact double equality is deliberate: streaming must reproduce the very
// same floating-point operations in the very same order as batch.
void expect_identical(const sim::SimResult& batch,
                      const sim::SimResult& stream) {
  EXPECT_EQ(batch.completed, stream.completed);
  EXPECT_EQ(batch.end_time, stream.end_time);
  EXPECT_EQ(batch.makespan, stream.makespan);
  EXPECT_EQ(batch.scheduler_cost.invocations,
            stream.scheduler_cost.invocations);
  EXPECT_EQ(batch.scheduler_cost.placements, stream.scheduler_cost.placements);

  ASSERT_EQ(batch.jobs.size(), stream.jobs.size());
  for (std::size_t i = 0; i < batch.jobs.size(); ++i) {
    EXPECT_EQ(batch.jobs[i].id, stream.jobs[i].id) << "job " << i;
    EXPECT_EQ(batch.jobs[i].name, stream.jobs[i].name) << "job " << i;
    EXPECT_EQ(batch.jobs[i].arrival, stream.jobs[i].arrival) << "job " << i;
    EXPECT_EQ(batch.jobs[i].finish, stream.jobs[i].finish) << "job " << i;
    EXPECT_EQ(batch.jobs[i].total_tasks, stream.jobs[i].total_tasks)
        << "job " << i;
  }

  ASSERT_EQ(batch.tasks.size(), stream.tasks.size());
  for (std::size_t i = 0; i < batch.tasks.size(); ++i) {
    const auto& a = batch.tasks[i];
    const auto& b = stream.tasks[i];
    EXPECT_EQ(a.job, b.job) << "task " << i;
    EXPECT_EQ(a.stage, b.stage) << "task " << i;
    EXPECT_EQ(a.index, b.index) << "task " << i;
    EXPECT_EQ(a.host, b.host) << "task " << i;
    EXPECT_EQ(a.start, b.start) << "task " << i;
    EXPECT_EQ(a.finish, b.finish) << "task " << i;
    EXPECT_EQ(a.attempts, b.attempts) << "task " << i;
    EXPECT_EQ(a.local_fraction, b.local_fraction) << "task " << i;
  }

  EXPECT_EQ(batch.churn.machines_failed, stream.churn.machines_failed);
  EXPECT_EQ(batch.churn.task_attempts_lost, stream.churn.task_attempts_lost);
  EXPECT_EQ(batch.churn.work_lost_seconds, stream.churn.work_lost_seconds);
}

std::string first_placement_divergence(const sim::SimResult& want,
                                       const sim::SimResult& got) {
  const std::size_t n = std::min(want.tasks.size(), got.tasks.size());
  for (std::size_t i = 0; i < n; ++i) {
    const auto& a = want.tasks[i];
    const auto& b = got.tasks[i];
    if (a.job == b.job && a.stage == b.stage && a.index == b.index &&
        a.host == b.host && a.start == b.start && a.finish == b.finish)
      continue;
    std::ostringstream os;
    os << "first divergent placement: task[" << i << "] want job=" << a.job
       << " stage=" << a.stage << " index=" << a.index << " host=" << a.host
       << " start=" << a.start << ", got job=" << b.job
       << " stage=" << b.stage << " index=" << b.index << " host=" << b.host
       << " start=" << b.start;
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

class StreamingEquivalenceTest : public ::testing::TestWithParam<Case> {};

TEST_P(StreamingEquivalenceTest, StreamMatchesBatchBitForBit) {
  const Case c = GetParam();
  const Scenario s = make_scenario(c);

  const sim::SimResult batch = run_case(c, s, /*streaming=*/false);
  const sim::SimResult stream = run_case(c, s, /*streaming=*/true);

  SCOPED_TRACE(first_placement_divergence(batch, stream));
  expect_identical(batch, stream);

  // Decision-for-decision trace equality: same arrivals, passes,
  // placements (alignment scores and fairness cuts included), task
  // lifecycle and churn edges in the same order.
  ASSERT_EQ(stream.trace_log.dropped, 0u);
  const trace::Divergence d = trace::first_divergence(
      batch.trace_log, stream.trace_log, trace::CompareMode::kDecisions);
  EXPECT_TRUE(d.identical) << d.description;

  // The streaming run must actually have streamed, and the bit-identity
  // contract requires that no admission was ever deferred.
  const auto& p = stream.perf;
  EXPECT_EQ(p.jobs_admitted, static_cast<long>(s.workload.jobs.size()));
  EXPECT_EQ(p.jobs_retired, p.jobs_admitted);
  EXPECT_EQ(p.stream_deferrals, 0);
  EXPECT_GT(p.peak_resident_jobs, 0);
  EXPECT_LE(p.peak_resident_jobs, p.jobs_admitted);
  // Batch keeps no streaming counters.
  EXPECT_EQ(batch.perf.jobs_admitted, 0);
  EXPECT_EQ(batch.perf.jobs_retired, 0);
}

TEST_P(StreamingEquivalenceTest, BinaryTraceFileSourceMatchesBatch) {
  const Case c = GetParam();
  // The file round trip is source plumbing, not a scoring path: one pass
  // through the opt members of each scenario family keeps the matrix
  // affordable.
  if (c.naive) GTEST_SKIP() << "covered by in-memory case";
  const Scenario s = make_scenario(c);

  const std::string path = ::testing::TempDir() + "stream_equiv_" + c.name +
                           ".bin";
  workload::write_binary_trace_file(path, s.workload);
  workload::BinaryTraceReader reader(path);

  sim::SimConfig cfg = s.config;
  cfg.naive_scheduler_view = c.naive;
  cfg.stream.lookahead = c.lookahead;
  core::TetrisConfig tcfg;
  tcfg.naive_scoring = c.naive;
  core::TetrisScheduler sched(tcfg);
  const sim::SimResult from_file = sim::simulate_stream(cfg, reader, sched);

  const sim::SimResult batch = run_case(c, s, /*streaming=*/false);
  SCOPED_TRACE(first_placement_divergence(batch, from_file));
  expect_identical(batch, from_file);
  const trace::Divergence d = trace::first_divergence(
      batch.trace_log, from_file.trace_log, trace::CompareMode::kDecisions);
  EXPECT_TRUE(d.identical) << d.description;
  std::remove(path.c_str());
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, StreamingEquivalenceTest,
    ::testing::Values(
        // The {workload} x {naive, opt} grid.
        Case{"MotivatingOptSerial", Load::kMotivating, false},
        Case{"MotivatingNaiveSerial", Load::kMotivating, true},
        Case{"FacebookOptSerial", Load::kFacebook, false},
        Case{"FacebookNaiveSerial", Load::kFacebook, true},
        // Composition: the admission gate must not disturb the churn or
        // noise RNG streams (fork-order parity with the batch ctor).
        Case{"SuiteChurnOptSerial", Load::kSuite, false, true},
        Case{"FacebookChurnOptSerial", Load::kFacebook, false, true},
        Case{"SuiteNoisyOptSerial", Load::kSuite, false, false,
             sim::EstimationMode::kNoisy},
        Case{"FacebookNoisyNaiveSerial", Load::kFacebook, true, false,
             sim::EstimationMode::kNoisy},
        // A zero look-ahead window admits strictly on due arrivals; the
        // schedule must not depend on prefetch depth.
        Case{"FacebookOptNoLookahead", Load::kFacebook, false, false,
             sim::EstimationMode::kOracle, 0.0},
        Case{"MotivatingOptNoLookahead", Load::kMotivating, false, false,
             sim::EstimationMode::kOracle, 0.0}),
    case_name);

}  // namespace
}  // namespace tetris
