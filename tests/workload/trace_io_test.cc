#include "workload/trace_io.h"

#include <gtest/gtest.h>

#include <filesystem>

#include "util/units.h"
#include "workload/suite.h"

namespace tetris::workload {
namespace {

sim::Workload sample_workload() {
  SuiteConfig cfg;
  cfg.num_jobs = 10;
  cfg.num_machines = 5;
  cfg.task_scale = 0.02;
  cfg.seed = 4;
  return make_suite_workload(cfg);
}

TEST(TraceIo, RoundTripPreservesEverything) {
  const sim::Workload original = sample_workload();
  const sim::Workload parsed = trace_from_string(trace_to_string(original));
  ASSERT_EQ(parsed.jobs.size(), original.jobs.size());
  ASSERT_EQ(parsed.total_tasks(), original.total_tasks());
  for (std::size_t j = 0; j < original.jobs.size(); ++j) {
    const auto& a = original.jobs[j];
    const auto& b = parsed.jobs[j];
    EXPECT_EQ(a.name, b.name);
    EXPECT_DOUBLE_EQ(a.arrival, b.arrival);
    EXPECT_EQ(a.template_id, b.template_id);
    EXPECT_EQ(a.queue, b.queue);
    ASSERT_EQ(a.stages.size(), b.stages.size());
    for (std::size_t s = 0; s < a.stages.size(); ++s) {
      EXPECT_EQ(a.stages[s].deps, b.stages[s].deps);
      ASSERT_EQ(a.stages[s].tasks.size(), b.stages[s].tasks.size());
      for (std::size_t t = 0; t < a.stages[s].tasks.size(); ++t) {
        const auto& ta = a.stages[s].tasks[t];
        const auto& tb = b.stages[s].tasks[t];
        EXPECT_DOUBLE_EQ(ta.cpu_cycles, tb.cpu_cycles);
        EXPECT_DOUBLE_EQ(ta.peak_cores, tb.peak_cores);
        EXPECT_DOUBLE_EQ(ta.peak_mem, tb.peak_mem);
        EXPECT_DOUBLE_EQ(ta.output_bytes, tb.output_bytes);
        EXPECT_DOUBLE_EQ(ta.max_io_bw, tb.max_io_bw);
        ASSERT_EQ(ta.inputs.size(), tb.inputs.size());
        for (std::size_t i = 0; i < ta.inputs.size(); ++i) {
          EXPECT_DOUBLE_EQ(ta.inputs[i].bytes, tb.inputs[i].bytes);
          EXPECT_EQ(ta.inputs[i].from_stage, tb.inputs[i].from_stage);
          EXPECT_EQ(ta.inputs[i].replicas, tb.inputs[i].replicas);
        }
      }
    }
  }
}

TEST(TraceIo, DoubleRoundTripIsIdentity) {
  const std::string once = trace_to_string(sample_workload());
  const std::string twice = trace_to_string(trace_from_string(once));
  EXPECT_EQ(once, twice);
}

TEST(TraceIo, IgnoresCommentsAndBlankLines) {
  const std::string text =
      "# a comment\n"
      "\n"
      "job 5 -1 0 myjob\n"
      "# another\n"
      "stage map\n"
      "task 10 1 1073741824 0 104857600 0\n"
      "end 1 1\n";
  const auto w = trace_from_string(text);
  ASSERT_EQ(w.jobs.size(), 1u);
  EXPECT_EQ(w.jobs[0].name, "myjob");
  EXPECT_EQ(w.jobs[0].arrival, 5);
}

TEST(TraceIo, ParsesSplitsWithReplicasAndShuffles) {
  const std::string text =
      "job 0 3 2 j\n"
      "stage map\n"
      "task 10 1 1073741824 0 104857600 1\n"
      "split 1000 -1 2 4 6\n"
      "stage reduce 0\n"
      "task 0 1 1073741824 0 104857600 1\n"
      "split 500 0\n"
      "end 1 2\n";
  const auto w = trace_from_string(text);
  const auto& map_split = w.jobs[0].stages[0].tasks[0].inputs[0];
  EXPECT_EQ(map_split.replicas, (std::vector<sim::MachineId>{2, 4, 6}));
  EXPECT_EQ(map_split.from_stage, -1);
  const auto& red_split = w.jobs[0].stages[1].tasks[0].inputs[0];
  EXPECT_EQ(red_split.from_stage, 0);
  EXPECT_EQ(w.jobs[0].template_id, 3);
  EXPECT_EQ(w.jobs[0].queue, 2);
}

TEST(TraceIo, RejectsStageBeforeJob) {
  EXPECT_THROW(trace_from_string("stage s\n"), std::runtime_error);
}

TEST(TraceIo, RejectsTaskBeforeStage) {
  EXPECT_THROW(trace_from_string("job 0 -1 0 j\ntask 1 1 1 0 1 0\n"),
               std::runtime_error);
}

TEST(TraceIo, RejectsUnexpectedSplit) {
  EXPECT_THROW(trace_from_string("job 0 -1 0 j\nstage s\nsplit 1 -1\n"),
               std::runtime_error);
}

TEST(TraceIo, RejectsMissingSplits) {
  // Task declares 2 splits but only 1 follows before the end record.
  const std::string text =
      "job 0 -1 0 j\nstage s\ntask 1 1 1 0 1 2\nsplit 1 -1\nend 1 1\n";
  EXPECT_THROW(trace_from_string(text), std::runtime_error);
}

TEST(TraceIo, RejectsUnknownRecord) {
  EXPECT_THROW(trace_from_string("frobnicate 1 2 3\n"), std::runtime_error);
}

TEST(TraceIo, RejectsMalformedNumbers) {
  EXPECT_THROW(trace_from_string("job abc -1 0 j\nstage s\n"),
               std::runtime_error);
  // A number must fill its field: a fractional dep is not dep 0, and a
  // split count with trailing junk is not a count.
  EXPECT_THROW(trace_from_string("job 0 -1 0 j\nstage a\ntask 1 1 1 0 1 0\n"
                                 "stage b 0.5\ntask 1 1 1 0 1 0\nend 1 2\n"),
               std::runtime_error);
  EXPECT_THROW(
      trace_from_string("job 0 -1 0 j\nstage s\ntask 1 1 1 0 1 0x\nend 1 1\n"),
      std::runtime_error);
}

TEST(TraceIo, RejectsSemanticErrors) {
  // Parses fine but stage deps are out of range.
  const std::string text =
      "job 0 -1 0 j\nstage s 7\ntask 1 1 1 0 1 0\nend 1 1\n";
  try {
    trace_from_string(text);
    FAIL() << "out-of-range dep accepted";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("trace semantic error"),
              std::string::npos)
        << e.what();
  }
}

// The end record must close the trace, after every split, with the
// counts that were read.
TEST(TraceIo, RejectsMisplacedEndRecord) {
  const std::string body = "job 0 -1 0 j\nstage s\ntask 1 1 1 0 1 1\n";
  EXPECT_NO_THROW(trace_from_string(body + "split 1 -1\nend 1 1\n"));
  // Before the task's split.
  EXPECT_THROW(trace_from_string(body + "end 1 1\nsplit 1 -1\n"),
               std::runtime_error);
  // Counts that differ from what was read.
  EXPECT_THROW(trace_from_string(body + "split 1 -1\nend 1 2\n"),
               std::runtime_error);
  EXPECT_THROW(trace_from_string(body + "split 1 -1\nend 2 1\n"),
               std::runtime_error);
  // Any record after it.
  EXPECT_THROW(trace_from_string(body + "split 1 -1\nend 1 1\nend 1 1\n"),
               std::runtime_error);
  EXPECT_THROW(
      trace_from_string(body + "split 1 -1\nend 1 1\njob 0 -1 0 k\n"),
      std::runtime_error);
}

// A written trace cut short anywhere (between records, mid-line or
// mid-number) must fail to parse; only the whole text reads back, and it
// writes out again byte for byte.
TEST(TraceIo, RejectsEveryTruncatedPrefix) {
  SuiteConfig cfg;
  cfg.num_jobs = 6;
  cfg.num_machines = 10;
  cfg.task_scale = 0.05;
  cfg.seed = 3;
  const std::string text = trace_to_string(make_suite_workload(cfg));
  const sim::Workload whole = trace_from_string(text);
  EXPECT_EQ(whole.total_tasks(), 219u);
  EXPECT_EQ(trace_to_string(whole), text);
  std::size_t accepted = 0;
  for (std::size_t n = 0; n < text.size(); ++n) {
    try {
      trace_from_string(text.substr(0, n));
      ADD_FAILURE() << "prefix of " << n << " of " << text.size()
                    << " characters parsed";
      if (++accepted == 5) break;
    } catch (const std::runtime_error&) {
    }
  }
}

TEST(TraceIo, FileRoundTrip) {
  const auto path =
      std::filesystem::temp_directory_path() / "tetris_trace_test.txt";
  const sim::Workload original = sample_workload();
  ASSERT_TRUE(write_trace_file(path.string(), original));
  const sim::Workload parsed = read_trace_file(path.string());
  EXPECT_EQ(parsed.total_tasks(), original.total_tasks());
  std::filesystem::remove(path);
}

TEST(TraceIo, MissingFileThrows) {
  EXPECT_THROW(read_trace_file("/nonexistent/path/trace.txt"),
               std::runtime_error);
}

}  // namespace
}  // namespace tetris::workload
