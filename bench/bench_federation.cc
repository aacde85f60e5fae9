// E26 — federated packing-quality loss (DESIGN.md §14). Sweeps the cell
// count {1, 2, 4, 8, 16} x dispatch policy over the heavy Facebook trace
// and measures what federating the cluster costs against the single
// global Tetris scheduler: makespan, avg JCT, fragmentation, utilization
// skew across cells, plus a min-of-3 sched_wall_ms + tasks/sec per row.
// The 1-cell federation is asserted BIT-IDENTICAL to the global run (job
// finishes, task placements, makespan) — the sweep's baseline is proven,
// not assumed.
//
// Usage: bench_federation [jobs] [machines] [seed] [--cells=K]
//   --cells=K restricts the sweep to K cells (plus the global baseline
//   and the 1-cell identity check); CI uses --cells=2 as a smoke run.
// Rows land in bench_results/federation_sweep.csv (packing loss) and
// bench_results/federation_perf_counters.csv (merged per-cell counters
// incl. idle_cell_skips, one least-loaded row per cell count), both with
// the standard scheduler,trace,cells,dispatcher prefix (the global
// baseline reports cells=0, dispatcher=global).
#include <chrono>
#include <cstring>
#include <iostream>
#include <string>
#include <vector>

#include "bench/harness.h"
#include "federation/federated_simulator.h"

namespace {

using tetris::Table;
using tetris::format_double;
namespace bench = tetris::bench;
namespace federation = tetris::federation;
namespace sim = tetris::sim;

// Mean dominant-resource utilization over the timeline — the same
// statistic FederatedResult reports per cell, computed for the global run.
double dominant_utilization(const sim::SimResult& r) {
  if (r.timeline.empty()) return 0.0;
  double sum = 0;
  for (const auto& s : r.timeline) {
    double dominant = 0;
    for (double u : s.utilization) dominant = std::max(dominant, u);
    sum += dominant;
  }
  return sum / static_cast<double>(r.timeline.size());
}

long count_tasks(const sim::Workload& w) {
  long n = 0;
  for (const auto& job : w.jobs) {
    for (const auto& stage : job.stages) {
      n += static_cast<long>(stage.tasks.size());
    }
  }
  return n;
}

double now_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Min-of-3 wall clock around a deterministic run: the result is the same
// every repeat (federated runs are pure functions of config x workload),
// so the minimum is the honest "how fast can this config go" number, with
// scheduler warm-up and OS noise filtered out.
constexpr int kRepeats = 3;

federation::FederatedResult timed_federated(
    const federation::FederationConfig& fc, const sim::Workload& w,
    double* min_wall_seconds) {
  federation::FederatedResult res;
  double best = -1;
  for (int r = 0; r < kRepeats; ++r) {
    const double t0 = now_seconds();
    res = federation::simulate_federated(fc, w);
    const double wall = now_seconds() - t0;
    if (best < 0 || wall < best) best = wall;
  }
  *min_wall_seconds = best;
  return res;
}

std::string csv_row(const tetris::analysis::RunTag& tag, long jobs,
                    int machines, bool completed, long reassigned, long lost,
                    double makespan, double avg_jct, double util,
                    double fragmentation, double skew, double makespan_loss,
                    double jct_loss, double wall_ms, double tasks_per_sec) {
  return tag.scheduler + "," + (tag.trace ? "1" : "0") + "," +
         std::to_string(tag.cells) + "," + tag.dispatcher + "," +
         std::to_string(jobs) + "," +
         std::to_string(machines) + "," + (completed ? "1" : "0") + "," +
         std::to_string(reassigned) + "," + std::to_string(lost) + "," +
         format_double(makespan, 2) + "," + format_double(avg_jct, 2) + "," +
         format_double(util, 4) + "," + format_double(fragmentation, 4) +
         "," + format_double(skew, 4) + "," +
         format_double(makespan_loss, 2) + "," + format_double(jct_loss, 2) +
         "," + format_double(wall_ms, 3) + "," +
         format_double(tasks_per_sec, 1) + "\n";
}

bool check_one_cell_identity(const federation::FederatedResult& fed,
                             const sim::SimResult& global) {
  bool ok = true;
  if (fed.makespan != global.makespan) {
    std::cerr << "IDENTITY FAIL: 1-cell makespan " << fed.makespan
              << " != global " << global.makespan << "\n";
    ok = false;
  }
  if (fed.job_records.size() != global.jobs.size()) {
    std::cerr << "IDENTITY FAIL: job record counts "
              << fed.job_records.size() << " vs " << global.jobs.size()
              << "\n";
    return false;
  }
  for (std::size_t i = 0; i < global.jobs.size(); ++i) {
    if (fed.job_records[i].finish != global.jobs[i].finish) {
      std::cerr << "IDENTITY FAIL: job " << i << " finish "
                << fed.job_records[i].finish << " != "
                << global.jobs[i].finish << "\n";
      return false;
    }
  }
  if (fed.tasks.size() != global.tasks.size()) {
    std::cerr << "IDENTITY FAIL: task record counts " << fed.tasks.size()
              << " vs " << global.tasks.size() << "\n";
    return false;
  }
  for (std::size_t i = 0; i < global.tasks.size(); ++i) {
    const auto& a = global.tasks[i];
    const auto& b = fed.tasks[i];
    if (a.job != b.job || a.stage != b.stage || a.index != b.index ||
        a.host != b.host || a.start != b.start || a.finish != b.finish) {
      std::cerr << "IDENTITY FAIL: task[" << i << "] global job=" << a.job
                << " host=" << a.host << " start=" << a.start
                << ", federated job=" << b.job << " host=" << b.host
                << " start=" << b.start << "\n";
      return false;
    }
  }
  return ok;
}

}  // namespace

int main(int argc, char** argv) {
  const bench::Scale scale =
      bench::Scale::from_args(argc, argv, bench::Scale{160, 64, 1});
  int only_cells = 0;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--cells=", 8) == 0) {
      only_cells = std::atoi(argv[i] + 8);
    }
  }

  // Rack-aligned partitions for every cell count in the sweep: racks of
  // machines/16 (>= 1), so 16 cells = one rack each.
  const int per_rack = std::max(1, scale.machines / 16);
  sim::SimConfig base = bench::facebook_cluster(scale);
  base.machines_per_rack = per_rack;
  base.tracker = sim::TrackerMode::kUsage;
  base.collect_timeline = true;
  const sim::Workload w = sim::sorted_by_arrival(
      bench::facebook_workload(scale, /*arrival_window=*/600));
  const long total_tasks = count_tasks(w);

  // The global baseline: one Tetris over the whole cluster, min-of-3.
  double g_wall = -1;
  sim::SimResult global;
  for (int r = 0; r < kRepeats; ++r) {
    const double t0 = now_seconds();
    global = bench::run_tetris(base, w);
    const double wall = now_seconds() - t0;
    if (g_wall < 0 || wall < g_wall) g_wall = wall;
  }
  bench::warn_if_incomplete(global);
  const double g_util = dominant_utilization(global);

  Table t({"cells", "dispatcher", "completed", "reassigned", "makespan (s)",
           "avg JCT (s)", "avg util", "fragmentation", "util skew",
           "makespan loss (%)", "JCT loss (%)", "wall (ms)", "tasks/s"});
  tetris::analysis::RunTag gtag = bench::run_tag("tetris-federated", base);
  std::string csv =
      "scheduler,trace,cells,dispatcher,jobs,machines,completed,"
      "reassigned,lost,makespan,avg_jct,avg_utilization,fragmentation,"
      "utilization_skew,makespan_loss_pct,jct_loss_pct,sched_wall_ms,"
      "tasks_per_sec\n";
  const double g_jct = global.avg_jct();
  const double g_tps = g_wall > 0 ? total_tasks / g_wall : 0.0;
  t.add_row({"0 (global)", "-", global.completed ? "yes" : "no", "0",
             format_double(global.makespan, 1), format_double(g_jct, 1),
             format_double(g_util, 3), format_double(1.0 - g_util, 3), "-",
             "0.0", "0.0", format_double(g_wall * 1e3, 1),
             format_double(g_tps, 0)});
  csv += csv_row(gtag, static_cast<long>(w.jobs.size()), scale.machines,
                 global.completed, 0, 0, global.makespan, g_jct, g_util,
                 1.0 - g_util, 0.0, 0.0, 0.0, g_wall * 1e3, g_tps);

  const std::vector<federation::DispatchPolicy> policies = {
      federation::DispatchPolicy::kLeastLoaded,
      federation::DispatchPolicy::kRoundRobin,
      federation::DispatchPolicy::kPowerOfTwo,
      federation::DispatchPolicy::kLocalityAware,
  };

  bool identity_checked = false;
  bool identity_ok = true;
  std::string pcsv;
  for (int cells : {1, 2, 4, 8, 16}) {
    if (cells > scale.machines || scale.machines % cells != 0) continue;
    const int cell_size = scale.machines / cells;
    if (cell_size % per_rack != 0) continue;
    if (only_cells > 0 && cells != 1 && cells != only_cells) continue;

    federation::FederationConfig fc;
    fc.base = base;
    for (int c = 0; c < cells; ++c) {
      fc.base.cells.push_back({c * cell_size, (c + 1) * cell_size});
    }

    for (const auto policy : policies) {
      fc.policy = policy;
      double wall = 0;
      const federation::FederatedResult fed = timed_federated(fc, w, &wall);
      if (cells == 1 && !identity_checked) {
        // Every policy degenerates to the same single cell; check once.
        identity_checked = true;
        identity_ok = check_one_cell_identity(fed, global);
        std::cout << "1-cell identity vs global scheduler: "
                  << (identity_ok ? "BIT-IDENTICAL" : "DIVERGED") << "\n";
      }
      const double mk_loss =
          global.makespan > 0
              ? 100.0 * (fed.makespan - global.makespan) / global.makespan
              : 0.0;
      const double jct_loss =
          g_jct > 0 ? 100.0 * (fed.avg_jct - g_jct) / g_jct : 0.0;
      const double tps = wall > 0 ? total_tasks / wall : 0.0;
      tetris::analysis::RunTag tag = gtag;
      tag.cells = cells;
      tag.dispatcher = federation::policy_name(policy);
      t.add_row({std::to_string(cells), tag.dispatcher,
                 fed.completed ? "yes" : "no",
                 std::to_string(fed.reassigned_jobs),
                 format_double(fed.makespan, 1),
                 format_double(fed.avg_jct, 1),
                 format_double(fed.avg_utilization, 3),
                 format_double(fed.fragmentation, 3),
                 format_double(fed.utilization_skew, 3),
                 format_double(mk_loss, 1), format_double(jct_loss, 1),
                 format_double(wall * 1e3, 1), format_double(tps, 0)});
      csv += csv_row(tag, fed.jobs, scale.machines, fed.completed,
                     fed.reassigned_jobs, fed.lost_jobs, fed.makespan,
                     fed.avg_jct, fed.avg_utilization, fed.fragmentation,
                     fed.utilization_skew, mk_loss, jct_loss, wall * 1e3,
                     tps);
      if (policy == federation::DispatchPolicy::kLeastLoaded) {
        // Merged per-cell counters (FederatedResult::perf) through the
        // shared exporter — the column set single-cell runs use.
        pcsv += tetris::analysis::perf_counters_csv(tag, fed.perf,
                                                    pcsv.empty());
      }
      if (cells == 1) break;  // policies are indistinguishable at 1 cell
    }
  }

  std::cout << "\nFederation sweep — packing-quality loss vs the global "
               "scheduler (E26):\n"
            << t.to_string() << "\n";
  std::cout << "(expected: losses grow with the cell count as packing "
               "fragments across dispatcher-isolated slices; least-loaded "
               "and p2c track each other, round-robin pays the most at "
               "high cell counts, locality trades a little balance for "
               "local reads)\n";
  tetris::write_file("bench_results/federation_sweep.csv", csv);
  tetris::write_file("bench_results/federation_perf_counters.csv", pcsv);
  if (!identity_checked) {
    std::cerr << "ERROR: sweep never ran the 1-cell identity check\n";
    return 1;
  }
  return identity_ok ? 0 : 1;
}
