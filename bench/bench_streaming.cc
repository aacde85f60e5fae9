// Streaming sustained-throughput benchmark (DESIGN.md §11).
//
// Drives the streaming engine over a synthetic map/reduce arrival stream
// (workload/stream_gen.h) — or a binary trace file — with bounded resident
// state: task records off, job records dropped as jobs retire, so RSS
// stays flat no matter how long the stream is. Reports sustained placement
// throughput (tasks placed/sec), per-pass latency p50/p99 from the always-
// on log-bucketed histogram, and the peak resident job/task counters that
// prove the memory ceiling held.
//
// Usage: bench_streaming [jobs] [machines] [seed] [--trace=<file.bin>]
//   Default 2000 jobs (~250K tasks) on 20 machines finishes in seconds;
//   the 10M-task acceptance run is `bench_streaming 81000 20`. With
//   --trace= the stream comes from a binary trace file written by
//   tools/make_stream_trace instead of the in-process generator.
//
// Rows land in bench_results/streaming_throughput.csv. The row layout is
// analysis::streaming_csv: RunTag prefix + simulated columns that are
// bit-reproducible for a fixed config, then the measured wall-clock
// columns last. No timestamps, so regeneration diffs clean apart from the
// trailing measured columns.
#include <sys/resource.h>

#include <chrono>
#include <cstring>
#include <iostream>
#include <string>

#include "analysis/export.h"
#include "bench/harness.h"
#include "workload/stream_gen.h"
#include "workload/trace_binary.h"

using namespace tetris;

namespace {

// Process high-water RSS in MB. Cumulative over the process lifetime, so
// run heavier configurations first if per-run attribution matters.
double peak_rss_mb() {
  struct rusage ru{};
  if (getrusage(RUSAGE_SELF, &ru) != 0) return -1;
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux: KB
}

struct StreamRun {
  sim::SimResult result;
  double wall_seconds = 0;
  long total_tasks = 0;
};

StreamRun run_stream(const sim::SimConfig& cfg, sim::JobSource& source,
                     long total_tasks) {
  core::TetrisScheduler tetris;

  sim::SimConfig run_cfg = cfg;
  run_cfg.tracker = sim::TrackerMode::kUsage;

  StreamRun out;
  out.total_tasks = total_tasks;
  const auto t0 = std::chrono::steady_clock::now();
  out.result = sim::simulate_stream(run_cfg, source, tetris);
  const auto t1 = std::chrono::steady_clock::now();
  out.wall_seconds = std::chrono::duration<double>(t1 - t0).count();
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  std::string trace_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--trace=", 8) == 0) trace_path = argv[i] + 8;
  }
  bench::Scale def;
  def.jobs = 2000;
  def.machines = 20;
  def.seed = 42;
  const bench::Scale scale = bench::Scale::from_args(argc, argv, def);

  workload::StreamGenConfig gen;
  gen.num_jobs = scale.jobs;
  gen.num_machines = scale.machines;
  gen.seed = scale.seed;
  // Keep offered load ~2/3 of cluster capacity so the resident window is
  // flat: a job carries ~1300 core-seconds against 16 cores per machine.
  gen.arrival_spacing = 1300.0 / (0.65 * 16.0 * scale.machines);

  sim::SimConfig cfg = bench::facebook_cluster(scale);
  cfg.stream.enabled = true;
  cfg.stream.max_resident_jobs = 1024;
  cfg.stream.max_resident_tasks = 1 << 20;
  cfg.stream.drop_job_records = true;
  cfg.collect_task_records = false;
  cfg.max_time = 1e9;

  StreamRun run;
  std::string trace_name;
  if (!trace_path.empty()) {
    workload::BinaryTraceReader reader(trace_path);
    long tasks = 0;
    {  // Headers are cheap to scan; count tasks for the throughput row.
      workload::BinaryTraceReader counter(trace_path);
      sim::JobPeek p;
      sim::JobSpec j;
      while (counter.peek(p)) {
        tasks += p.tasks;
        counter.next(j);
      }
    }
    run = run_stream(cfg, reader, tasks);
    trace_name = trace_path;
  } else {
    workload::SyntheticJobSource source(gen);
    run = run_stream(cfg, source, workload::stream_total_tasks(gen));
    trace_name = "synthetic";
  }
  bench::warn_if_incomplete(run.result);

  const analysis::RunTag tag = bench::run_tag("tetris-stream", cfg);
  const std::string csv = analysis::streaming_csv(
      tag, run.result, run.total_tasks, run.wall_seconds, peak_rss_mb());

  const auto& p = run.result.perf;
  Table t({"metric", "value"});
  t.add_row({"source", trace_name});
  t.add_row({"jobs admitted", std::to_string(p.jobs_admitted)});
  t.add_row({"tasks placed", std::to_string(run.total_tasks)});
  t.add_row({"makespan (s)", format_double(run.result.makespan, 1)});
  t.add_row({"wall (s)", format_double(run.wall_seconds, 2)});
  t.add_row({"tasks/sec",
             format_double(static_cast<double>(run.total_tasks) /
                               run.wall_seconds,
                           0)});
  t.add_row({"pass p50 (ms)",
             format_double(
                 run.result.pass_latency.quantile_seconds(0.5) * 1e3, 3)});
  t.add_row({"pass p99 (ms)",
             format_double(
                 run.result.pass_latency.quantile_seconds(0.99) * 1e3, 3)});
  t.add_row({"peak resident jobs", std::to_string(p.peak_resident_jobs)});
  t.add_row({"peak resident tasks", std::to_string(p.peak_resident_tasks)});
  t.add_row({"deferrals", std::to_string(p.stream_deferrals)});
  t.add_row({"peak RSS (MB)", format_double(peak_rss_mb(), 1)});
  std::cout << t.to_string() << "\n";

  write_file("bench_results/streaming_throughput.csv", csv);
  std::cout << "wrote bench_results/streaming_throughput.csv\n";
  return 0;
}
