#include "sim/spec.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <limits>
#include <stdexcept>
#include <string>

#include "core/tetris_scheduler.h"
#include "sim/config.h"
#include "sim/simulator.h"
#include "util/units.h"
#include "workload/trace_binary.h"

namespace tetris::sim {
namespace {

TaskSpec ok_task() {
  TaskSpec t;
  t.peak_cores = 1;
  t.peak_mem = 1 * kGB;
  t.cpu_cycles = 10;
  return t;
}

JobSpec two_stage_job() {
  JobSpec job;
  job.name = "j";
  StageSpec map;
  map.tasks = {ok_task(), ok_task()};
  StageSpec reduce;
  reduce.deps = {0};
  TaskSpec r = ok_task();
  InputSplit split;
  split.bytes = 100;
  split.from_stage = 0;
  r.inputs.push_back(split);
  reduce.tasks = {r};
  job.stages = {map, reduce};
  return job;
}

TEST(SpecValidate, AcceptsWellFormedJob) {
  EXPECT_EQ(validate(two_stage_job()), "");
}

TEST(SpecValidate, RejectsJobWithoutStages) {
  JobSpec job;
  job.name = "empty";
  EXPECT_NE(validate(job), "");
}

TEST(SpecValidate, RejectsEmptyStage) {
  JobSpec job;
  job.stages.push_back({});
  EXPECT_NE(validate(job), "");
}

TEST(SpecValidate, RejectsNegativeArrival) {
  JobSpec job = two_stage_job();
  job.arrival = -1;
  EXPECT_NE(validate(job), "");
}

TEST(SpecValidate, RejectsOutOfRangeDep) {
  JobSpec job = two_stage_job();
  job.stages[1].deps = {7};
  EXPECT_NE(validate(job), "");
}

TEST(SpecValidate, RejectsSelfDep) {
  JobSpec job = two_stage_job();
  job.stages[1].deps = {1};
  EXPECT_NE(validate(job), "");
}

TEST(SpecValidate, RejectsDependencyCycle) {
  JobSpec job = two_stage_job();
  // 0 -> 1 already; add 1 -> 0 to close the cycle.
  job.stages[0].deps = {1};
  // Remove the shuffle split so the only problem is the cycle.
  const auto msg = validate(job);
  EXPECT_NE(msg.find("cycle"), std::string::npos) << msg;
}

TEST(SpecValidate, AcceptsDiamondDag) {
  JobSpec job;
  StageSpec a, b, c, d;
  a.tasks = b.tasks = c.tasks = d.tasks = {ok_task()};
  b.deps = {0};
  c.deps = {0};
  d.deps = {1, 2};
  job.stages = {a, b, c, d};
  EXPECT_EQ(validate(job), "");
}

TEST(SpecValidate, RejectsNegativeWork) {
  JobSpec job = two_stage_job();
  job.stages[0].tasks[0].cpu_cycles = -1;
  EXPECT_NE(validate(job), "");
  job = two_stage_job();
  job.stages[0].tasks[0].output_bytes = -5;
  EXPECT_NE(validate(job), "");
}

TEST(SpecValidate, RejectsNegativeDemands) {
  JobSpec job = two_stage_job();
  job.stages[0].tasks[0].peak_cores = -1;
  EXPECT_NE(validate(job), "");
  job = two_stage_job();
  job.stages[0].tasks[0].max_io_bw = 0;
  EXPECT_NE(validate(job), "");
}

TEST(SpecValidate, AllowsZeroCoresWithoutCompute) {
  JobSpec job = two_stage_job();
  job.stages[1].tasks[0].peak_cores = 0;
  job.stages[1].tasks[0].cpu_cycles = 0;
  EXPECT_EQ(validate(job), "");
}

TEST(SpecValidate, RejectsComputeWithoutCores) {
  JobSpec job = two_stage_job();
  job.stages[0].tasks[0].peak_cores = 0;  // but cpu_cycles = 10
  EXPECT_NE(validate(job), "");
}

TEST(SpecValidate, RejectsShuffleFromNonDependency) {
  JobSpec job = two_stage_job();
  // Stage 1 reads stage 0 legitimately; make a stage 2 that reads stage 0
  // without depending on it.
  StageSpec bad;
  TaskSpec t = ok_task();
  InputSplit split;
  split.bytes = 10;
  split.from_stage = 0;
  t.inputs.push_back(split);
  bad.tasks = {t};
  bad.deps = {1};
  job.stages.push_back(bad);
  EXPECT_NE(validate(job), "");
}

TEST(SpecValidate, RejectsNegativeSplitBytes) {
  JobSpec job = two_stage_job();
  InputSplit split;
  split.bytes = -1;
  job.stages[0].tasks[0].inputs.push_back(split);
  EXPECT_NE(validate(job), "");
}

// Every numeric JobSpec field against NaN and both infinities. Checks
// written `x < 0` let all three through a NaN: a NaN peak_mem task was
// never placed (the run heartbeated to max_time), a NaN arrival job
// "completed" with a NaN arrival, and a +inf peak_mem task ran because
// its probe clamped the demand to capacity. Every value must be rejected.
TEST(SpecValidate, RejectsNaNAndInfiniteNumbers) {
  constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
  constexpr double kInf = std::numeric_limits<double>::infinity();
  struct Field {
    const char* name;
    void (*set)(JobSpec&, double);
  };
  const Field fields[] = {
      {"arrival", [](JobSpec& j, double v) { j.arrival = v; }},
      {"cpu_cycles",
       [](JobSpec& j, double v) { j.stages[0].tasks[0].cpu_cycles = v; }},
      {"output_bytes",
       [](JobSpec& j, double v) { j.stages[0].tasks[0].output_bytes = v; }},
      {"peak_cores",
       [](JobSpec& j, double v) { j.stages[0].tasks[0].peak_cores = v; }},
      {"peak_mem",
       [](JobSpec& j, double v) { j.stages[0].tasks[0].peak_mem = v; }},
      {"max_io_bw",
       [](JobSpec& j, double v) { j.stages[0].tasks[0].max_io_bw = v; }},
      {"split.bytes",
       [](JobSpec& j, double v) { j.stages[1].tasks[0].inputs[0].bytes = v; }},
  };
  for (const Field& f : fields) {
    for (const double v : {kNaN, kInf, -kInf}) {
      JobSpec job = two_stage_job();
      f.set(job, v);
      EXPECT_NE(validate(job), "") << f.name << " = " << v;
    }
  }
}

// The binary trace reader passes raw doubles through, so a NaN field in a
// trace file must stop the streaming run at admission; the same trace
// without it runs.
TEST(SpecValidate, StreamedNaNFieldThrows) {
  const std::string path = ::testing::TempDir() + "spec_nan_field.bin";
  for (const bool nan : {false, true}) {
    {
      workload::BinaryTraceWriter writer(path);
      JobSpec job = two_stage_job();
      if (nan)
        job.stages[0].tasks[0].peak_mem =
            std::numeric_limits<double>::quiet_NaN();
      writer.add(job);
    }
    SimConfig cfg;
    cfg.num_machines = 2;
    cfg.max_time = 3600;
    workload::BinaryTraceReader reader(path);
    core::TetrisScheduler sched((core::TetrisConfig()));
    if (nan) {
      EXPECT_THROW(simulate_stream(cfg, reader, sched), std::invalid_argument);
    } else {
      EXPECT_TRUE(simulate_stream(cfg, reader, sched).completed);
    }
  }
  std::remove(path.c_str());
}

TEST(SpecValidate, WorkloadAggregatesJobErrors) {
  Workload w;
  w.jobs.push_back(two_stage_job());
  EXPECT_EQ(validate(w), "");
  JobSpec bad;
  w.jobs.push_back(bad);
  EXPECT_NE(validate(w), "");
}

TEST(Spec, TotalTasksCountsAllStages) {
  Workload w;
  w.jobs.push_back(two_stage_job());
  w.jobs.push_back(two_stage_job());
  EXPECT_EQ(w.total_tasks(), 6u);
  EXPECT_EQ(Workload{}.total_tasks(), 0u);
}

// ---- Placement constraints (DESIGN.md §13) ----

TEST(SpecValidate, AcceptsWellFormedConstraints) {
  JobSpec job = two_stage_job();
  job.stages[0].constraint.require_labels = {"gpu"};
  job.stages[1].constraint.forbid_labels = {"gpu"};
  job.stages[1].constraint.anti_affinity = true;
  job.stages[1].constraint.same_rack_as_input = true;
  EXPECT_EQ(validate(job), "");
  EXPECT_EQ(validate(job, {"gpu", "highmem"}), "");
}

TEST(SpecValidate, RejectsEmptyLabelName) {
  JobSpec job = two_stage_job();
  job.stages[0].constraint.require_labels = {""};
  EXPECT_NE(validate(job), "");
  JobSpec job2 = two_stage_job();
  job2.stages[0].constraint.forbid_labels = {""};
  EXPECT_NE(validate(job2), "");
}

TEST(SpecValidate, RejectsLabelBothRequiredAndForbidden) {
  JobSpec job = two_stage_job();
  job.stages[0].constraint.require_labels = {"gpu"};
  job.stages[0].constraint.forbid_labels = {"gpu"};
  EXPECT_NE(validate(job), "");
}

TEST(SpecValidate, RejectsRequiredLabelNoMachineDeclares) {
  // Fail-fast, like the num_machines vs machine_capacities contradiction:
  // requiring a class the cluster does not have is a config bug, not a
  // quietly-infeasible stage.
  JobSpec job = two_stage_job();
  job.stages[0].constraint.require_labels = {"tpu"};
  // Without a declared-label list the check cannot run.
  EXPECT_EQ(validate(job), "");
  const auto msg = validate(job, {"gpu", "highmem"});
  EXPECT_NE(msg, "");
  EXPECT_NE(msg.find("tpu"), std::string::npos);
  EXPECT_NE(msg.find("declares"), std::string::npos);
  // Declared on some machine: fine. Forbidding an undeclared label is
  // rejected too — a forbid that can never match is a typo, not intent.
  EXPECT_EQ(validate(job, {"gpu", "tpu"}), "");
  JobSpec job2 = two_stage_job();
  job2.stages[0].constraint.forbid_labels = {"tpu"};
  EXPECT_NE(validate(job2, {"gpu"}), "");
  EXPECT_EQ(validate(job2, {"gpu", "tpu"}), "");
}

TEST(SpecValidate, WorkloadOverloadChecksDeclaredLabels) {
  Workload w;
  w.jobs.push_back(two_stage_job());
  w.jobs[0].stages[0].constraint.require_labels = {"gpu"};
  EXPECT_EQ(validate(w, {"gpu"}), "");
  EXPECT_NE(validate(w, {"highmem"}), "");
  EXPECT_NE(validate(w, {}), "");
}

// Cell-partition validation (DESIGN.md §14): SimConfig::cells must tile
// [0, num_machines) exactly with rack-aligned, non-empty slices — checked
// fail-fast at simulation start, like machine_labels.
SimConfig cluster_of(int machines, int per_rack = 0) {
  SimConfig cfg;
  cfg.num_machines = machines;
  cfg.machines_per_rack = per_rack;
  return cfg;
}

TEST(ValidateCells, AcceptsEmptyAndExactPartitions) {
  EXPECT_EQ(validate_cells(cluster_of(8)), "");  // unpartitioned cluster

  SimConfig cfg = cluster_of(8);
  cfg.cells = {{0, 8}};
  EXPECT_EQ(validate_cells(cfg), "");
  cfg.cells = {{0, 3}, {3, 8}};
  EXPECT_EQ(validate_cells(cfg), "");
  cfg.cells = {{0, 2}, {2, 4}, {4, 6}, {6, 8}};
  EXPECT_EQ(validate_cells(cfg), "");
}

TEST(ValidateCells, RejectsOutOfRangeEmptyOverlapGapAndShortCoverage) {
  SimConfig cfg = cluster_of(8);
  cfg.cells = {{0, 9}};
  EXPECT_NE(validate_cells(cfg), "") << "end past the cluster";
  cfg.cells = {{-1, 4}, {4, 8}};
  EXPECT_NE(validate_cells(cfg), "") << "negative begin";
  cfg.cells = {{0, 4}, {4, 4}};
  EXPECT_NE(validate_cells(cfg), "") << "empty cell";
  cfg.cells = {{0, 5}, {4, 8}};
  EXPECT_NE(validate_cells(cfg), "") << "overlap";
  cfg.cells = {{0, 3}, {4, 8}};
  EXPECT_NE(validate_cells(cfg), "") << "skipped machine 3";
  cfg.cells = {{0, 4}};
  EXPECT_NE(validate_cells(cfg), "") << "machines 4..7 unowned";
}

TEST(ValidateCells, SimulateFailsFastOnBadPartition) {
  SimConfig cfg = cluster_of(4);
  cfg.cells = {{0, 2}, {3, 4}};  // machine 2 unowned
  Workload w;
  w.jobs.push_back(two_stage_job());
  core::TetrisScheduler sched((core::TetrisConfig()));
  EXPECT_THROW(simulate(cfg, w, sched), std::invalid_argument);
  cfg.cells = {{0, 2}, {2, 4}};
  core::TetrisScheduler sched2((core::TetrisConfig()));
  EXPECT_NO_THROW(simulate(cfg, w, sched2));
}

TEST(ValidateCells, RejectsRackSplittingCells) {
  SimConfig cfg = cluster_of(8, /*per_rack=*/4);
  cfg.cells = {{0, 4}, {4, 8}};
  EXPECT_EQ(validate_cells(cfg), "") << "rack-aligned split must pass";
  cfg.cells = {{0, 6}, {6, 8}};
  EXPECT_NE(validate_cells(cfg), "") << "cell boundary inside a rack";
  // Rack modeling off: any boundary is fine.
  SimConfig flat = cluster_of(8, /*per_rack=*/0);
  flat.cells = {{0, 6}, {6, 8}};
  EXPECT_EQ(validate_cells(flat), "");
}

}  // namespace
}  // namespace tetris::sim
