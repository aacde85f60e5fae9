// CSV export of simulation results, so runs can be analyzed with external
// tooling (pandas, gnuplot) without rerunning the simulator.
#pragma once

#include <string>

#include "sim/result.h"

namespace tetris::analysis {

// One row per job: id, name, template, arrival, finish, jct, tasks,
// unfairness integral.
std::string jobs_csv(const sim::SimResult& result);

// One row per task: job, stage, index, host, start, finish, duration,
// natural duration, attempts, local fraction.
std::string tasks_csv(const sim::SimResult& result);

// One row per timeline sample: time, running tasks, per-resource cluster
// utilization.
std::string timeline_csv(const sim::SimResult& result);

// Single-row churn accounting: machines failed/recovered, attempts lost,
// work lost, time-weighted effective capacity.
std::string churn_csv(const sim::SimResult& result);

// Identifies the configuration a CSV row came from, so the bench_results
// tables are self-describing: which scheduler variant produced it, whether
// event tracing was on, and — for federated runs (DESIGN.md §14) — how
// many cells the cluster was partitioned into and which dispatch policy
// admitted the jobs. The non-federated defaults are cells = 0 and
// dispatcher = "global".
struct RunTag {
  std::string scheduler;
  bool trace = false;
  int cells = 0;
  std::string dispatcher = "global";
};

// One row per scheduling pass (needs SimConfig::collect_pass_samples):
// the RunTag columns, then time, backlog, placements and latency in
// seconds. The raw material of Table 8's latency-vs-backlog curves; rows
// carry the full RunTag so runs can share one file.
std::string pass_samples_csv(const RunTag& tag,
                             const sim::SimResult& result,
                             bool with_header = true);

// Single-row hot-path counter dump (DESIGN.md §8): score evaluations,
// probes issued/reused, sticky rejections, fit-index skips, and the
// simulator-side cache hit/miss totals. The trailing columns report the
// federated simulator's cell-advance wall clock and idle-cell skips
// (DESIGN.md §14.5; zero outside simulate_federated). The PerfCounters overload
// serves callers that merged counters across cells
// (FederatedResult::perf) rather than holding a whole SimResult.
std::string perf_counters_csv(const RunTag& tag,
                              const sim::SimResult& result,
                              bool with_header = true);
std::string perf_counters_csv(const RunTag& tag,
                              const util::PerfCounters& counters,
                              bool with_header = true);

// Single-row summary of a streaming run (DESIGN.md §11), the sustained-
// throughput companion to the Table 8 latency tables. The row reuses the
// RunTag prefix and carries no timestamps: the simulated columns
// (tasks, makespan, passes, admissions/retirements, peak residency,
// deferrals) are bit-reproducible for a fixed config, so regenerating the
// bench_results CSV diffs clean; the trailing wall-clock columns
// (pass p50/p99, wall_seconds, tasks_per_sec, peak_rss_mb) are the only
// measured ones. `total_tasks` is the trace's task count (the simulator
// folds task records away in streaming mode, so the caller supplies it);
// pass `peak_rss_mb <= 0` when unknown.
std::string streaming_csv(const RunTag& tag, const sim::SimResult& result,
                          long total_tasks, double wall_seconds,
                          double peak_rss_mb, bool with_header = true);

// Writes the pieces next to each other: <prefix>_jobs.csv, _tasks.csv,
// _timeline.csv, _churn.csv. Returns false if any write failed.
bool export_result(const std::string& prefix, const sim::SimResult& result);

}  // namespace tetris::analysis
