// Shared plumbing for the experiment drivers in bench/: standard cluster
// configs, scheduler factories, result capture and CDF printing. Each
// bench binary regenerates one of the paper's tables or figures (see
// DESIGN.md's per-experiment index) and writes machine-readable CSVs under
// bench_results/ alongside the human-readable stdout tables.
#pragma once

#include <cctype>
#include <climits>
#include <cstdlib>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "analysis/export.h"
#include "analysis/metrics.h"
#include "core/tetris_scheduler.h"
#include "sched/drf_scheduler.h"
#include "sched/slot_scheduler.h"
#include "sched/srtf_scheduler.h"
#include "sched/upper_bound.h"
#include "sim/simulator.h"
#include "util/args.h"
#include "util/stats.h"
#include "util/table.h"
#include "workload/facebook.h"
#include "workload/profiles.h"
#include "workload/suite.h"

namespace tetris::bench {

// Simulation scale knobs, overridable from the command line as
// "[jobs] [machines] [seed]" so the benches can be re-run bigger. Each
// number must parse whole; junk, or a job or machine count below 1,
// prints the usage line and exits 2.
struct Scale {
  int jobs = 120;
  int machines = 30;
  std::uint64_t seed = 1;

  static Scale from_args(int argc, char** argv, Scale def) {
    Scale s = def;
    int pos = 0;
    for (int i = 1; i < argc; ++i) {
      // Leftover flags (gbench's, --cells=, --trace=) are skipped; a
      // negative number is junk, not a flag.
      if (argv[i][0] == '-' &&
          !std::isdigit(static_cast<unsigned char>(argv[i][1])))
        continue;
      const auto v = pos < 2 ? util::parse_whole(argv[i], 1, INT_MAX)
                             : util::parse_whole(argv[i]);
      if (!v) {
        std::cerr << "usage: " << argv[0] << " [jobs] [machines] [seed]\n";
        std::exit(2);
      }
      switch (pos++) {
        case 0: s.jobs = static_cast<int>(*v); break;
        case 1: s.machines = static_cast<int>(*v); break;
        case 2: s.seed = *v; break;
        default: break;
      }
    }
    return s;
  }
  static Scale from_args(int argc, char** argv) {
    return from_args(argc, argv, Scale{});
  }
};

// The Facebook-simulation cluster (paper §5.1): every machine 16 cores,
// 32 GB, 4x50 MB/s disks, 1 Gbps.
inline sim::SimConfig facebook_cluster(const Scale& scale) {
  sim::SimConfig cfg;
  cfg.num_machines = scale.machines;
  cfg.machine_capacity = workload::facebook_machine();
  cfg.seed = scale.seed;
  return cfg;
}

// The §5.1 workload suite at a simulation-friendly scale.
inline sim::Workload suite_workload(const Scale& scale,
                                    double arrival_window = 1500,
                                    double task_scale = 0.1) {
  workload::SuiteConfig wcfg;
  wcfg.num_jobs = scale.jobs;
  wcfg.num_machines = scale.machines;
  wcfg.task_scale = task_scale;
  wcfg.arrival_window = arrival_window;
  wcfg.seed = scale.seed;
  return workload::make_suite_workload(wcfg);
}

// The Facebook-like heavy-tailed trace at a simulation-friendly scale.
inline sim::Workload facebook_workload(const Scale& scale,
                                       double arrival_window = 1200,
                                       double task_scale = 1.0) {
  workload::FacebookConfig wcfg;
  wcfg.num_jobs = scale.jobs;
  wcfg.num_machines = scale.machines;
  wcfg.task_scale = task_scale;
  wcfg.arrival_window = arrival_window;
  wcfg.seed = scale.seed;
  return workload::make_facebook_workload(wcfg);
}

// Baseline and Tetris runs share the workload; Tetris additionally runs
// with the usage-based tracker (its §4 resource tracker).
inline sim::SimResult run_baseline(sim::SimConfig cfg, const sim::Workload& w,
                                   sim::Scheduler& s) {
  cfg.tracker = sim::TrackerMode::kAllocation;
  return sim::simulate(cfg, w, s);
}

inline sim::SimResult run_tetris(sim::SimConfig cfg, const sim::Workload& w,
                                 core::TetrisConfig tcfg = {}) {
  cfg.tracker = sim::TrackerMode::kUsage;
  core::TetrisScheduler tetris(std::move(tcfg));
  return sim::simulate(cfg, w, tetris);
}

// The §2.2.3 aggregate upper bound for this config/workload.
inline sim::SimResult run_upper_bound(const sim::SimConfig& cfg,
                                      const sim::Workload& w) {
  core::TetrisConfig tcfg;
  tcfg.name = "upper-bound";
  tcfg.fairness_knob = 0;   // most efficient schedule
  tcfg.barrier_knob = 1.0;  // no machine-level effects to hint around
  core::TetrisScheduler tetris(tcfg);
  return sim::simulate(sched::aggregate_config(cfg),
                       sched::aggregate_workload(w), tetris);
}

// Prints an improvement CDF at the percentiles the paper discusses.
inline void print_improvement_cdf(const std::string& title,
                                  std::vector<double> improvements) {
  Table t({"percentile", "JCT improvement (%)"});
  for (double p : {10.0, 25.0, 50.0, 75.0, 90.0, 99.0}) {
    t.add_row({format_double(p, 0), format_double(
                                        percentile(improvements, p), 1)});
  }
  std::cout << title << "\n" << t.to_string() << "\n";
}

// CSV dump of a full empirical CDF for plotting.
inline std::string cdf_csv(const std::vector<double>& xs) {
  std::string out = "value,fraction\n";
  for (const auto& p : empirical_cdf(xs)) {
    out += format_double(p.value, 4) + "," + format_double(p.fraction, 6) +
           "\n";
  }
  return out;
}

// The self-describing row tag for the bench_results CSVs: which scheduler
// variant and whether event tracing was on for the run.
inline analysis::RunTag run_tag(const std::string& scheduler,
                                const sim::SimConfig& cfg) {
  analysis::RunTag tag;
  tag.scheduler = scheduler;
  tag.trace = cfg.trace.enabled;
  return tag;
}

inline void warn_if_incomplete(const sim::SimResult& r) {
  if (!r.completed) {
    std::cerr << "warning: scheduler '" << r.scheduler_name
              << "' did not drain the workload before max_time\n";
  }
}

}  // namespace tetris::bench
