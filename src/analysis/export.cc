#include "analysis/export.h"

#include <sstream>

#include "util/table.h"

namespace tetris::analysis {

namespace {

std::string escape(const std::string& s) {
  if (s.find_first_of(",\"\n") == std::string::npos) return s;
  std::string out = "\"";
  for (char ch : s) {
    if (ch == '"') out += '"';
    out += ch;
  }
  return out + "\"";
}

}  // namespace

std::string jobs_csv(const sim::SimResult& result) {
  std::ostringstream os;
  os << "job,name,template,arrival,finish,jct,tasks,unfairness_integral\n";
  for (const auto& j : result.jobs) {
    os << j.id << "," << escape(j.name) << "," << j.template_id << ","
       << j.arrival << "," << j.finish << ","
       << (j.finish >= 0 ? j.completion_time() : -1.0) << "," << j.total_tasks
       << "," << j.unfairness_integral << "\n";
  }
  return os.str();
}

std::string tasks_csv(const sim::SimResult& result) {
  std::ostringstream os;
  os << "job,stage,index,host,start,finish,duration,natural_duration,"
        "attempts,local_fraction\n";
  for (const auto& t : result.tasks) {
    os << t.job << "," << t.stage << "," << t.index << "," << t.host << ","
       << t.start << "," << t.finish << "," << t.duration() << ","
       << t.natural_duration << "," << t.attempts << "," << t.local_fraction
       << "\n";
  }
  return os.str();
}

std::string timeline_csv(const sim::SimResult& result) {
  std::ostringstream os;
  os << "time,running";
  for (Resource r : all_resources()) os << "," << resource_name(r);
  os << "\n";
  for (const auto& s : result.timeline) {
    os << s.time << "," << s.running_tasks;
    for (double u : s.utilization) os << "," << u;
    os << "\n";
  }
  return os.str();
}

std::string churn_csv(const sim::SimResult& result) {
  std::ostringstream os;
  os << "machines_failed,machines_recovered,task_attempts_lost,"
        "read_failovers,work_lost_seconds,effective_capacity\n";
  const auto& c = result.churn;
  os << c.machines_failed << "," << c.machines_recovered << ","
     << c.task_attempts_lost << "," << c.read_failovers << ","
     << c.work_lost_seconds << "," << c.effective_capacity << "\n";
  return os.str();
}

namespace {

// The self-describing row prefix shared by the bench_results tables;
// keep in sync with the "scheduler,trace,cells,dispatcher" header columns.
std::string tag_prefix(const RunTag& tag) {
  return escape(tag.scheduler) + "," + (tag.trace ? "1" : "0") + "," +
         std::to_string(tag.cells) + "," + escape(tag.dispatcher);
}

}  // namespace

std::string pass_samples_csv(const RunTag& tag,
                             const sim::SimResult& result, bool with_header) {
  std::ostringstream os;
  if (with_header)
    os << "scheduler,trace,cells,dispatcher,"
          "time,backlog,placements,pass_seconds\n";
  for (const auto& s : result.pass_samples) {
    os << tag_prefix(tag) << "," << s.time << "," << s.backlog << ","
       << s.placements << "," << s.seconds << "\n";
  }
  return os.str();
}

std::string perf_counters_csv(const RunTag& tag,
                              const sim::SimResult& result, bool with_header) {
  return perf_counters_csv(tag, result.perf, with_header);
}

std::string perf_counters_csv(const RunTag& tag,
                              const util::PerfCounters& p, bool with_header) {
  std::ostringstream os;
  if (with_header) {
    os << "scheduler,trace,cells,dispatcher,"
          "score_evals,probes_issued,probe_reuses,sticky_rejects,"
          "fit_index_skips,row_skips,probe_cache_hits,probe_cache_misses,"
          "estimate_cache_hits,estimate_cache_misses,avail_cache_hits,"
          "avail_recomputes,simd_blocks,scalar_tail_evals,"
          "idle_cell_skips\n";
  }
  os << tag_prefix(tag) << "," << p.score_evals << "," << p.probes_issued << ","
     << p.probe_reuses << "," << p.sticky_rejects << "," << p.fit_index_skips
     << "," << p.row_skips << "," << p.probe_cache_hits << ","
     << p.probe_cache_misses << ","
     << p.estimate_cache_hits << "," << p.estimate_cache_misses << ","
     << p.avail_cache_hits << "," << p.avail_recomputes << ","
     << p.simd_blocks << "," << p.scalar_tail_evals << ","
     << p.idle_cell_skips << "\n";
  return os.str();
}

std::string streaming_csv(const RunTag& tag, const sim::SimResult& result,
                          long total_tasks, double wall_seconds,
                          double peak_rss_mb, bool with_header) {
  std::ostringstream os;
  if (with_header) {
    os << "scheduler,trace,cells,dispatcher,tasks,makespan,passes,"
          "jobs_admitted,jobs_retired,peak_resident_jobs,"
          "peak_resident_tasks,stream_deferrals,"
          "pass_p50_ms,pass_p99_ms,wall_seconds,tasks_per_sec,peak_rss_mb\n";
  }
  const auto& p = result.perf;
  os << tag_prefix(tag) << "," << total_tasks
     << "," << result.makespan << "," << result.pass_latency.count() << ","
     << p.jobs_admitted << "," << p.jobs_retired << ","
     << p.peak_resident_jobs << "," << p.peak_resident_tasks << ","
     << p.stream_deferrals << ","
     << result.pass_latency.quantile_seconds(0.50) * 1e3 << ","
     << result.pass_latency.quantile_seconds(0.99) * 1e3 << ","
     << wall_seconds << ","
     << (wall_seconds > 0 ? static_cast<double>(total_tasks) / wall_seconds
                          : 0.0)
     << "," << peak_rss_mb << "\n";
  return os.str();
}

bool export_result(const std::string& prefix, const sim::SimResult& result) {
  return write_file(prefix + "_jobs.csv", jobs_csv(result)) &&
         write_file(prefix + "_tasks.csv", tasks_csv(result)) &&
         write_file(prefix + "_timeline.csv", timeline_csv(result)) &&
         write_file(prefix + "_churn.csv", churn_csv(result));
}

}  // namespace tetris::analysis
