// Trace-driven simulation from the command line:
//
//   ./examples/trace_replay generate <out.bin> [jobs] [machines] [seed]
//       Synthesizes a Facebook-like trace and writes it, sorted by
//       arrival, as a binary trace file (workload/trace_binary.h).
//   ./examples/trace_replay run <in.bin> <scheduler> [machines]
//       Replays a trace under one of: tetris, slot, drf, srtf, random.
//
// Together the two subcommands demonstrate the full trace pipeline the
// evaluation uses: generate once, replay under every scheduler, diff.
// A bad argument (a count that is not a whole number of at least 1, a
// seed that is not a whole number, an unknown scheduler) prints the usage
// line and exits 2; a file that cannot be read or written, or a cluster
// the trace does not fit (a replica on a machine it lacks), prints the
// error and exits 1.
#include <cstdint>
#include <iostream>
#include <memory>
#include <string>

#include "core/tetris_scheduler.h"
#include "sched/drf_scheduler.h"
#include "sched/random_scheduler.h"
#include "sched/slot_scheduler.h"
#include "sched/srtf_scheduler.h"
#include "sim/job_source.h"
#include "sim/simulator.h"
#include "util/args.h"
#include "util/table.h"
#include "workload/facebook.h"
#include "workload/profiles.h"
#include "workload/trace_binary.h"

using namespace tetris;

namespace {

int usage() {
  std::cerr
      << "usage:\n"
         "  trace_replay generate <out.bin> [jobs] [machines] [seed]\n"
         "  trace_replay run <in.bin> <tetris|slot|drf|srtf|random> "
         "[machines]\n";
  return 2;
}

int generate(int argc, char** argv) {
  if (argc < 3) return usage();
  const auto jobs = argc > 3 ? util::parse_count(argv[3]) : 80;
  const auto machines = argc > 4 ? util::parse_count(argv[4]) : 20;
  const auto seed =
      argc > 5 ? util::parse_whole(argv[5]) : std::uint64_t{7};
  if (!jobs || !machines || !seed) return usage();
  workload::FacebookConfig cfg;
  cfg.num_jobs = *jobs;
  cfg.num_machines = *machines;
  cfg.seed = *seed;
  cfg.task_scale = 0.5;
  cfg.arrival_window = 800;
  // Facebook arrivals are unsorted; the trace file stores arrival order.
  const auto w = sim::sorted_by_arrival(workload::make_facebook_workload(cfg));
  workload::write_binary_trace_file(argv[2], w);
  std::cout << "wrote " << w.jobs.size() << " jobs / " << w.total_tasks()
            << " tasks to " << argv[2] << " (for a " << cfg.num_machines
            << "-machine cluster)\n";
  return 0;
}

std::unique_ptr<sim::Scheduler> make_scheduler(const std::string& name) {
  if (name == "tetris") return std::make_unique<core::TetrisScheduler>();
  if (name == "slot") return std::make_unique<sched::SlotScheduler>();
  if (name == "drf") return std::make_unique<sched::DrfScheduler>();
  if (name == "srtf") return std::make_unique<sched::SrtfScheduler>();
  if (name == "random") return std::make_unique<sched::RandomScheduler>();
  return nullptr;
}

int run(int argc, char** argv) {
  if (argc < 4) return usage();
  auto scheduler = make_scheduler(argv[3]);
  const auto machines = argc > 4 ? util::parse_count(argv[4]) : 20;
  if (!scheduler || !machines) return usage();
  sim::SimConfig cfg;
  cfg.num_machines = *machines;
  const sim::Workload w = workload::read_binary_trace_file(argv[2]);

  cfg.machine_capacity = workload::facebook_machine();
  if (std::string(argv[3]) == "tetris") {
    cfg.tracker = sim::TrackerMode::kUsage;
  }
  const auto r = sim::simulate(cfg, w, *scheduler);
  if (!r.completed) {
    std::cerr << "warning: workload did not drain before max_time\n";
  }

  Table t({"metric", "value"});
  t.add_row({"scheduler", r.scheduler_name});
  t.add_row({"jobs", std::to_string(r.jobs.size())});
  t.add_row({"tasks", std::to_string(r.tasks.size())});
  t.add_row({"makespan (s)", format_double(r.makespan, 1)});
  t.add_row({"avg JCT (s)", format_double(r.avg_jct(), 1)});
  t.add_row({"median JCT (s)", format_double(r.median_jct(), 1)});
  t.add_row({"scheduler passes",
             std::to_string(r.scheduler_cost.invocations)});
  t.add_row({"mean pass (ms)",
             format_double(r.scheduler_cost.mean_seconds() * 1e3, 3)});
  std::cout << t.to_string();
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string cmd = argv[1];
  try {
    if (cmd == "generate") return generate(argc, argv);
    if (cmd == "run") return run(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "trace_replay: " << e.what() << "\n";
    return 1;
  }
  return usage();
}
