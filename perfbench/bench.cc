// Layered end-to-end benchmark driver (README.md in this directory).
//
// Usage: perfbench --workload <batch_heavy|stream|fed16> --seed <n>
//                  --seconds <s> --trace <0|1>
//                  [--git-sha <sha>] [--source-sha <sha>]
//
// Makes the call's inputs from the seed (see inputs_per_call), sets them up
// several times, makes one warm-up run, then sets up and runs the inputs in
// turn until --seconds of host time have passed, moving to another allowed
// CPU before each set-up. Host timings are the best of the call, taken
// pass by pass (see Input). With --trace 0 every run is
// untraced and the end-to-end metrics are printed; with --trace 1 untraced
// and traced runs alternate and the per-layer metrics are printed. Every
// run is checked (completion, placements == tasks, no infeasible stages),
// and its schedule digest and passes must equal its input's first run's.
// The last line of stdout is one JSON object:
//   {"correct": .., "attempted": .., "failed": .., "metrics": {..}}
// The process exits non-zero when any run failed a check.
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <exception>
#include <iostream>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "core/score_kernel.h"
#include "core/tetris_scheduler.h"
#include "util/stats.h"
#include "workloads.h"

namespace tetris::perfbench {
namespace {

using Clock = std::chrono::steady_clock;

// Set-ups timed before the first run; one more precedes every run.
constexpr int kSetupReps = 11;
// Fewest untraced runs per process, whatever --seconds says.
constexpr int kMinRuns = 2;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 0;
  bool trace = false;
  std::string git_sha = "unknown";
  std::string source_sha = "unknown";
};

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "perfbench: " << why
            << "\nusage: perfbench --workload <name> --seed <n> --seconds <s> "
               "--trace <0|1> [--git-sha <sha>] [--source-sha <sha>]\n";
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args a;
  bool have_workload = false, have_seed = false, have_seconds = false,
       have_trace = false;
  for (int i = 1; i < argc; i += 2) {
    const std::string key = argv[i];
    if (i + 1 >= argc) usage("missing value for " + key);
    const std::string val = argv[i + 1];
    try {
      std::size_t used = 0;
      if (key == "--workload") {
        a.workload = val;
        have_workload = true;
      } else if (key == "--seed") {
        a.seed = std::stoull(val, &used);
        have_seed = used == val.size();
      } else if (key == "--seconds") {
        a.seconds = std::stod(val, &used);
        have_seconds = used == val.size() && a.seconds > 0 &&
                       a.seconds <= 120;
      } else if (key == "--trace") {
        have_trace = val == "0" || val == "1";
        a.trace = val == "1";
      } else if (key == "--git-sha") {
        a.git_sha = val;
      } else if (key == "--source-sha") {
        a.source_sha = val;
      } else {
        usage("unknown argument " + key);
      }
    } catch (const std::exception&) {
      usage("bad value for " + key + ": " + val);
    }
  }
  if (!have_workload || !have_seed || !have_seconds || !have_trace) {
    usage("--workload, --seed, --seconds (0, 120] and --trace 0|1 are "
          "required");
  }
  const auto& names = workload_names();
  if (std::find(names.begin(), names.end(), a.workload) == names.end()) {
    usage("unknown workload " + a.workload);
  }
  return a;
}

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double ratio(long num, long den) {
  return den > 0 ? static_cast<double>(num) / static_cast<double>(den) : 0.0;
}

std::vector<int> allowed_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  std::vector<int> cpus;
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return cpus;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &set)) cpus.push_back(c);
  }
  return cpus;
}

// Binds the calling thread to `cpu`; returns it, or -1 if that failed.
int pin_to(int cpu) {
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  return sched_setaffinity(0, sizeof(set), &set) == 0 ? cpu : -1;
}

double peak_rss_mb() {
  struct rusage ru {};
  if (getrusage(RUSAGE_SELF, &ru) != 0) return 0;
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux reports KiB
}

// Shortest decimal that reads back as the same double: every digit the
// measurement has, none it does not.
std::string number(double v) {
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, res.ptr);
}

std::string quoted(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

class Report {
 public:
  void add(std::string name, double value, std::string unit) {
    metrics_.push_back({std::move(name), value, std::move(unit)});
  }
  const std::vector<Metric>& metrics() const { return metrics_; }

  std::string json() const {
    std::string out = "{";
    for (std::size_t i = 0; i < metrics_.size(); ++i) {
      const Metric& m = metrics_[i];
      if (i) out += ", ";
      // A metric of a call whose runs all failed may not be finite; JSON
      // has no number for it.
      out += quoted(m.name) + ": {\"value\": " +
             (std::isfinite(m.value) ? number(m.value) : "null") +
             ", \"unit\": " + quoted(m.unit) + "}";
    }
    return out + "}";
  }

 private:
  std::vector<Metric> metrics_;
};

double sum(const std::vector<double>& v) {
  double s = 0;
  for (double x : v) s += x;
  return s;
}

// Inputs per call: the seed's workload re-dealt this many times. On
// batch_heavy the busy passes' times spread over three decades, so the p50
// sits on a steep slope, and one re-deal's pass mix moved it 10-27% from
// seed to seed (IQR / median) while tasks_per_s moved 4%. Pooling eight
// re-deals per call brought it to 6%. Runs of stream are 4-5 s, too long
// to share a call; fed16's p50 moved 6% without pooling.
int inputs_per_call(const std::string& workload) {
  return workload == "batch_heavy" ? 8 : 1;
}

// One input of the call: a re-deal from its own seed, the first run's
// schedule that every later run must repeat, and the best of its runs.
//
// Host timings are the best of the call, taken piece by piece. Every run
// of an input repeats the same schedule, so pass i is the same work in
// every run, and so is the rest of the run outside the passes. On a box
// whose cores other tenants share, runs of one call took from 0.54 to
// 0.98 s, in spells from under a second to minutes: the fastest whole run
// of a 30 s call moved 20% from call to call, and its pass p50 more. Each
// pass's best time over dozens of runs on every CPU is seldom caught by a
// neighbour.
struct Input {
  static constexpr double kNever = std::numeric_limits<double>::infinity();

  std::uint64_t seed = 0;
  std::unique_ptr<Workload> workload;

  bool have_first = false;
  std::uint64_t digest = 0;
  std::vector<bool> pass_busy;
  long tasks = 0;
  double makespan = 0;  // simulated seconds
  double avg_jct = 0;   // simulated seconds

  std::vector<double> best_pass_s;  // each pass's fastest time
  double best_outside_s = kNever;   // fastest run wall minus its passes
  double fastest_plain_s = kNever;
  RunOutcome fastest_traced;  // wall_s is 0 until a traced run is kept

  // Checks `r` against the input's first run; the first run sets what the
  // later ones must repeat.
  void check(RunOutcome* r) {
    if (!have_first) {
      have_first = true;
      digest = r->digest;
      pass_busy = r->pass_busy;
      tasks = r->tasks;
      makespan = r->makespan;
      avg_jct = r->avg_jct;
      best_pass_s.assign(r->pass_seconds.size(), kNever);
    }
    if (r->error.empty() && r->digest != digest) {
      r->error = "schedule digest differs from the input's first run";
    }
    if (r->error.empty() && r->pass_busy != pass_busy) {
      r->error = "passes differ from the input's first run";
    }
  }

  // Folds a checked run into the best of the call.
  void keep(RunOutcome r, bool traced) {
    if (traced) {
      if (fastest_traced.wall_s == 0 || r.wall_s < fastest_traced.wall_s) {
        fastest_traced = std::move(r);
      }
      return;
    }
    for (std::size_t i = 0; i < best_pass_s.size(); ++i) {
      best_pass_s[i] = std::min(best_pass_s[i], r.pass_seconds[i]);
    }
    best_outside_s = std::min(best_outside_s, r.wall_s - sum(r.pass_seconds));
    fastest_plain_s = std::min(fastest_plain_s, r.wall_s);
  }

  double best_wall_s() const { return best_outside_s + sum(best_pass_s); }
};

void end_to_end_metrics(const std::vector<Input>& inputs, double setup_s,
                        Report* rep) {
  double tasks = 0, wall_s = 0, makespan = 0, avg_jct = 0;
  // A run has 10^3-10^5 busy passes, so even the p99 has more than ten
  // samples beyond it.
  std::vector<double> busy;
  for (const Input& in : inputs) {
    tasks += static_cast<double>(in.tasks);
    wall_s += in.best_wall_s();
    makespan += in.makespan;
    avg_jct += in.avg_jct;
    for (std::size_t i = 0; i < in.best_pass_s.size(); ++i) {
      if (in.pass_busy[i]) busy.push_back(in.best_pass_s[i]);
    }
  }
  const double n = static_cast<double>(inputs.size());
  rep->add("tasks_per_s", tasks / wall_s, "1/s");
  rep->add("pass_p50_ms", percentile(busy, 50) * 1e3, "ms");
  rep->add("pass_p99_ms", percentile(busy, 99) * 1e3, "ms");
  rep->add("setup_s", setup_s, "s");
  rep->add("peak_rss_mb", peak_rss_mb(), "MB");
  rep->add("sim_makespan_s", makespan / n, "s");
  rep->add("sim_avg_jct_s", avg_jct / n, "s");
}

// The breakdown of the fastest traced run: its layer times add up to its
// own wall time. Counts repeat exactly from run to run.
void per_layer_metrics(const Input& in, double gen_s, bool federated,
                       Report* rep) {
  const RunOutcome& run = in.fastest_traced;
  const LayerStats& l = run.layers;
  const util::PerfCounters& p = run.perf;
  const double tasks = static_cast<double>(run.tasks);

  // Schedule time as seen from outside: the decorator's on the two
  // single-simulator workloads, the per-cell simulators' own timing on
  // fed16, whose schedulers no decorator can reach.
  const double schedule_s = federated ? run.sim_schedule_s : l.schedule_s;
  const double passes =
      static_cast<double>(federated ? run.sim_passes : l.passes);
  rep->add("core.schedule_s", schedule_s, "s");
  rep->add("core.passes", passes, "count");
  rep->add("core.scan_self_s", l.scan_self_s(), "s");
  rep->add("core.score_evals", static_cast<double>(p.score_evals), "count");
  rep->add("core.simd_blocks", static_cast<double>(p.simd_blocks), "count");
  rep->add("core.scalar_tail_evals", static_cast<double>(p.scalar_tail_evals),
           "count");
  rep->add("core.probe_reuses", static_cast<double>(p.probe_reuses), "count");
  rep->add("core.sticky_rejects", static_cast<double>(p.sticky_rejects),
           "count");
  rep->add("core.fit_index_skips", static_cast<double>(p.fit_index_skips),
           "count");
  rep->add("core.row_skips", static_cast<double>(p.row_skips), "count");

  rep->add("sim.probe_s", l.probe_s, "s");
  rep->add("sim.probe_calls", static_cast<double>(l.probe_calls), "count");
  rep->add("sim.probes_per_task",
           tasks > 0 ? static_cast<double>(l.probe_calls) / tasks : 0.0,
           "ratio");
  rep->add("sim.probe_cache_hit_ratio",
           ratio(p.probe_cache_hits, p.probe_cache_hits + p.probe_cache_misses),
           "ratio");
  rep->add("sim.estimate_cache_hit_ratio",
           ratio(p.estimate_cache_hits,
                 p.estimate_cache_hits + p.estimate_cache_misses),
           "ratio");
  rep->add("sim.avail_cache_hit_ratio",
           ratio(p.avail_cache_hits, p.avail_cache_hits + p.avail_recomputes),
           "ratio");
  rep->add("sim.available_calls", static_cast<double>(l.available_calls),
           "count");
  rep->add("sim.view.runnable_groups_s", l.runnable_groups_s, "s");
  rep->add("sim.view.runnable_groups_calls",
           static_cast<double>(l.runnable_groups_calls), "count");
  rep->add("sim.view.active_jobs_s", l.active_jobs_s, "s");
  rep->add("sim.view.active_jobs_calls",
           static_cast<double>(l.active_jobs_calls), "count");
  rep->add("sim.place_s", l.place_s, "s");
  rep->add("sim.place_calls", static_cast<double>(l.place_calls), "count");
  rep->add("sim.place_ok_ratio", ratio(l.place_ok, l.place_calls), "ratio");
  rep->add("sim.take_reports_s", l.take_reports_s, "s");

  // Everything in the run that is neither a scheduling pass nor a pull
  // from the job source: the event loop, rate recomputes, tracker
  // updates, result assembly (and on fed16 the driver and dispatcher,
  // which interleave with the cells' engines).
  const double engine_self_s = run.wall_s - schedule_s - l.pull_s;
  rep->add("sim.engine_self_s", engine_self_s, "s");
  rep->add("sim.engine_self_us_per_task",
           tasks > 0 ? engine_self_s / tasks * 1e6 : 0.0, "us");

  rep->add("workload.gen_s", gen_s, "s");
  rep->add("workload.pull_s", l.pull_s, "s");
  rep->add("workload.pull_calls", static_cast<double>(l.pull_calls), "count");

  rep->add("federation.cell_schedule_s", federated ? schedule_s : 0.0, "s");
  rep->add("federation.cell_passes", federated ? passes : 0.0, "count");
  rep->add("federation.driver_self_s", federated ? engine_self_s : 0.0, "s");
  rep->add("federation.idle_cell_skips",
           static_cast<double>(p.idle_cell_skips), "count");

  // Untraced over traced tasks_per_s, from the fastest whole runs.
  rep->add("bench.trace_overhead_ratio", run.wall_s / in.fastest_plain_s,
           "ratio");
}

void print_env(const Args& a, int inputs) {
  std::cout << "env {\"workload\": " << quoted(a.workload)
            << ", \"seed\": " << a.seed << ", \"inputs\": " << inputs
            << ", \"seconds\": " << number(a.seconds)
            << ", \"trace\": " << (a.trace ? 1 : 0)
            << ", \"isa\": " << quoted(std::string(core::simd::isa_name()))
            << ", \"lane_width\": " << core::simd::lane_width()
            << ", \"hardware_concurrency\": "
            << std::thread::hardware_concurrency()
            << ", \"build_type\": " << quoted(PERFBENCH_BUILD_TYPE)
            << ", \"git_sha\": " << quoted(a.git_sha)
            << ", \"source_sha\": " << quoted(a.source_sha) << "}\n";
}

int run(const Args& args) {
  const int num_inputs = args.trace ? 1 : inputs_per_call(args.workload);
  print_env(args, num_inputs);
  const Size size = default_size(args.workload);

  // Input j of seed s is re-dealt from seed s * num_inputs + j, so a call
  // with one input uses the seed itself. The per-layer call (--trace 1)
  // runs the first input only.
  std::vector<Input> inputs(static_cast<std::size_t>(num_inputs));
  for (int j = 0; j < num_inputs; ++j) {
    inputs[j].seed = args.seed * static_cast<std::uint64_t>(num_inputs) +
                     static_cast<std::uint64_t>(j);
  }

  // Set-ups are spread over the whole call, one before every run, so that
  // their minimum, like the runs', is taken over the call's quiet spells.
  std::vector<double> setups;
  std::vector<double> gens;
  // Every set-up, and the run after it, moves to the next CPU the process
  // may use. Neighbours slowed single CPUs for seconds at a time; left
  // alone, the kernel keeps a busy thread on one CPU, slowed or not. One
  // CPU is skipped after each full round, so that when there are as many
  // inputs as CPUs each input still visits every CPU.
  const std::vector<int> cpus = allowed_cpus();
  std::size_t set_ups = 0;
  int cpu = -1;
  const auto set_up = [&](Input& in) {
    if (!cpus.empty()) {
      const std::size_t k = set_ups++;
      cpu = pin_to(cpus[(k + k / cpus.size()) % cpus.size()]);
    }
    in.workload.reset();
    const auto t0 = Clock::now();
    in.workload = make_workload(args.workload, in.seed, size);
    const core::TetrisScheduler scheduler;
    setups.push_back(seconds_since(t0));
    gens.push_back(in.workload->gen_s());
  };
  for (int i = 0; i < kSetupReps; ++i) set_up(inputs[i % num_inputs]);

  long attempted = 0;
  long failed = 0;
  // Every run is checked and counted. The warm-up run fills caches and the
  // heap and is left out of the metrics.
  const auto record = [&](int j, Mode mode, bool warm_up) {
    Input& in = inputs[j];
    RunOutcome r = in.workload->run(mode);
    in.check(&r);
    attempted++;
    if (!r.error.empty()) {
      failed++;
      std::cerr << "perfbench: run " << attempted << " failed: " << r.error
                << "\n";
    }
    std::cout << "run " << attempted << " "
              << (warm_up                  ? "warm-up"
                  : mode == Mode::kTraced ? "traced"
                                          : "untraced")
              << " input=" << j << " cpu=" << cpu
              << " wall_s=" << number(r.wall_s) << " tasks=" << r.tasks
              << " passes=" << r.pass_seconds.size()
              << " passes_s=" << number(sum(r.pass_seconds))
              << " digest=" << r.digest << "\n";
    if (!warm_up && r.error.empty()) {
      in.keep(std::move(r), mode == Mode::kTraced);
    }
  };

  record(0, Mode::kPlain, /*warm_up=*/true);
  const auto start = Clock::now();
  const auto time_left = [&] { return seconds_since(start) < args.seconds; };
  for (long round = 0; round < kMinRuns * num_inputs || time_left(); ++round) {
    const int j = static_cast<int>(round % num_inputs);
    set_up(inputs[j]);
    record(j, Mode::kPlain, false);
    if (args.trace) record(j, Mode::kTraced, false);
  }

  const double gen_s = *std::min_element(gens.begin(), gens.end());
  const double setup_s = *std::min_element(setups.begin(), setups.end());
  Report report;
  if (args.trace) {
    per_layer_metrics(inputs[0], gen_s, inputs[0].workload->federated(),
                      &report);
  } else {
    end_to_end_metrics(inputs, setup_s, &report);
  }
  for (const Metric& m : report.metrics()) {
    std::cout << "metric " << m.name << " = " << number(m.value) << " "
              << m.unit << "\n";
  }
  std::cout << "metric failed_run_frac = "
            << number(static_cast<double>(failed) /
                      static_cast<double>(attempted))
            << " ratio\n";
  std::cout << "{\"correct\": " << (failed == 0 ? "true" : "false")
            << ", \"attempted\": " << attempted << ", \"failed\": " << failed
            << ", \"metrics\": " << report.json() << "}" << std::endl;
  return failed == 0 ? 0 : 1;
}

}  // namespace
}  // namespace tetris::perfbench

int main(int argc, char** argv) {
  const auto args = tetris::perfbench::parse_args(argc, argv);
  try {
    return tetris::perfbench::run(args);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 1;
  }
}
