// E10 — Table 8 (scheduling overheads) plus micro-benchmarks.
//
// The paper measures the resource manager's time to process node-manager
// and application-master heartbeats with 10K / 50K pending tasks and finds
// Tetris comparable to stock YARN (sub-millisecond). We report (a)
// google-benchmark micro-benchmarks of the hot scoring paths and (b) the
// measured per-pass scheduling latency from full simulations, comparing
// the naive recompute-everything oracle against the optimized hot path
// (DESIGN.md §8) on the same workload — the schedules are bit-identical,
// so the latency gap is pure bookkeeping cost.
//
// Usage: bench_overheads [gbench flags] [jobs] [machines] [seed]
//   jobs/machines size the heavy backlog run (default 230 jobs x 30
//   machines ~ 10K pending tasks at t=0). Per-pass samples land in
//   bench_results/table8_overheads.csv, counter totals in
//   bench_results/table8_perf_counters.csv and the trace on/off sweep in
//   bench_results/table8_trace_overhead.csv. All rows are prefixed with
//   scheduler,trace,cells,dispatcher so they are self-describing
//   (cells=0, dispatcher=global: these runs are not federated).
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cmath>
#include <iostream>
#include <string>

#include "analysis/export.h"
#include "bench/harness.h"

using namespace tetris;

namespace {

void BM_AlignmentScore(benchmark::State& state) {
  const auto kind = static_cast<core::AlignmentKind>(state.range(0));
  const Resources demand = Resources::of(0.2, 0.1, 0.3, 0.4);
  const Resources avail = Resources::of(0.7, 0.9, 0.5, 0.6);
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::alignment_score(kind, demand, avail));
  }
}
BENCHMARK(BM_AlignmentScore)->DenseRange(0, 4);

void BM_PlacementComputation(benchmark::State& state) {
  sim::TaskSpec task;
  task.cpu_cycles = 20;
  task.peak_cores = 2;
  task.peak_mem = 2 * kGB;
  task.output_bytes = 100 * kMB;
  for (int i = 0; i < 4; ++i) {
    sim::InputSplit split;
    split.bytes = 64 * kMB;
    split.replicas = {i, i + 1, i + 2};
    task.inputs.push_back(split);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(sim::compute_placement(task, 7, 42));
  }
}
BENCHMARK(BM_PlacementComputation);

// Mean pass latency restricted to the heavy passes (backlog at least
// `cut`): the regime Table 8 talks about. Returns {mean_ms, passes}.
std::pair<double, long> heavy_mean_ms(const sim::SimResult& r, int cut) {
  double total = 0;
  long n = 0;
  for (const auto& s : r.pass_samples) {
    if (s.backlog < cut) continue;
    total += s.seconds;
    n++;
  }
  return {n ? total / static_cast<double>(n) * 1e3 : 0.0, n};
}

// The schedules are deterministic, so repeated runs do identical work;
// keeping the repetition with the lowest mean pass latency filters
// scheduler-exogenous noise on a shared box the same way benchmark
// frameworks report min-of-N.
template <typename RunFn>
sim::SimResult best_of_3(RunFn run) {
  sim::SimResult best;
  for (int rep = 0; rep < 3; ++rep) {
    sim::SimResult r = run();
    if (rep == 0 || r.scheduler_cost.mean_seconds() <
                        best.scheduler_cost.mean_seconds()) {
      best = std::move(r);
    }
  }
  return best;
}

// Table 8: naive vs optimized per-pass latency from full runs, plus the
// slot-fair baseline for context. All three drain the same workload; the
// two Tetris runs produce bit-identical schedules (the equivalence test
// enforces it — here we spot-check makespan).
void print_pass_latency_table(const bench::Scale& heavy_scale,
                              std::string* samples_csv,
                              std::string* counters_csv) {
  std::cout << "\nTable 8 — per-pass scheduling latency (one pass matches "
               "tasks to all machines; the paper reports per-heartbeat RM "
               "costs of ~0.1-1 ms). arrival_window=0: every job is "
               "pending at t=0, so the first passes see the full backlog.\n";
  Table t({"scheduler", "backlog (tasks)", "passes", "mean pass (ms)",
           "max pass (ms)", "mean @ heavy backlog (ms)", "placements"});

  bool first = true;
  for (const bench::Scale& scale :
       {bench::Scale{60, heavy_scale.machines, heavy_scale.seed},
        heavy_scale}) {
    const sim::Workload w =
        bench::facebook_workload(scale, /*arrival_window=*/0);
    sim::SimConfig cfg = bench::facebook_cluster(scale);
    cfg.collect_pass_samples = true;
    // Heavy = at least half the workload's tasks still runnable. (The
    // very-first-pass backlog is a single sample and too noisy to quote;
    // this cut keeps enough passes for a stable mean.)
    const int cut = static_cast<int>(0.5 * static_cast<double>(
                                               w.total_tasks()));

    sched::SlotScheduler fair;
    const auto r_fair =
        best_of_3([&] { return bench::run_baseline(cfg, w, fair); });

    sim::SimConfig naive_cfg = cfg;
    naive_cfg.naive_scheduler_view = true;
    core::TetrisConfig naive_tcfg;
    naive_tcfg.naive_scoring = true;
    naive_tcfg.name = "tetris-naive";
    const auto r_naive = best_of_3(
        [&] { return bench::run_tetris(naive_cfg, w, naive_tcfg); });

    core::TetrisConfig opt_tcfg;
    opt_tcfg.name = "tetris-opt";
    const auto r_opt =
        best_of_3([&] { return bench::run_tetris(cfg, w, opt_tcfg); });

    if (r_naive.makespan != r_opt.makespan) {
      std::cerr << "ERROR: optimized schedule diverged from naive oracle "
                   "(makespan "
                << r_opt.makespan << " vs " << r_naive.makespan << ")\n";
    }

    for (const auto* r : {&r_fair, &r_naive, &r_opt}) {
      bench::warn_if_incomplete(*r);
      const auto& c = r->scheduler_cost;
      const auto [heavy_ms, heavy_n] = heavy_mean_ms(*r, cut);
      t.add_row({r->scheduler_name, std::to_string(w.total_tasks()),
                 std::to_string(c.invocations),
                 format_double(c.mean_seconds() * 1e3, 3),
                 format_double(c.max_seconds * 1e3, 3),
                 format_double(heavy_ms, 3) + " (" +
                     std::to_string(heavy_n) + "p)",
                 std::to_string(c.placements)});
      const analysis::RunTag tag = bench::run_tag(
          r->scheduler_name + "-" + std::to_string(scale.jobs) + "j", cfg);
      *samples_csv += analysis::pass_samples_csv(tag, *r, first);
      *counters_csv += analysis::perf_counters_csv(tag, *r, first);
      first = false;
    }

    const auto [naive_heavy, nn] = heavy_mean_ms(r_naive, cut);
    const auto [opt_heavy, on] = heavy_mean_ms(r_opt, cut);
    std::cout << "  " << w.total_tasks() << " pending tasks: naive "
              << format_double(r_naive.scheduler_cost.mean_seconds() * 1e3, 3)
              << " ms/pass vs optimized "
              << format_double(r_opt.scheduler_cost.mean_seconds() * 1e3, 3)
              << " ms/pass ("
              << format_double(r_naive.scheduler_cost.mean_seconds() /
                                   std::max(1e-12,
                                            r_opt.scheduler_cost
                                                .mean_seconds()),
                               2)
              << "x overall";
    if (nn > 0 && on > 0 && opt_heavy > 0) {
      std::cout << ", " << format_double(naive_heavy / opt_heavy, 2)
                << "x at >=" << cut << "-task backlog";
    }
    std::cout << ")\n";
  }
  std::cout << t.to_string();
}

// Trace-overhead sweep (DESIGN.md §10): the optimized pass with event
// tracing off vs on, heavy scale. Tracing must not change decisions
// (spot-checked on makespan; the replay tests enforce event-level
// equality), so the only number that may move is pass latency — the
// acceptance bar is <2% on the heavy-backlog mean.
void print_trace_overhead_table(const bench::Scale& heavy_scale,
                                std::string* trace_csv) {
  std::cout << "\nTrace overhead — optimized pass with the event recorder "
               "off vs on (DESIGN.md §10). Identical schedules; the delta "
               "is the cost of recording placements, passes and task "
               "lifecycle events.\n";
  Table t({"trace", "passes", "mean pass (ms)", "mean @ heavy backlog (ms)",
           "max pass (ms)", "events", "overhead @ heavy (%)"});
  *trace_csv =
      "scheduler,trace,cells,dispatcher,"
      "backlog_tasks,passes,mean_pass_ms,"
      "heavy_mean_pass_ms,max_pass_ms,events,dropped,heavy_overhead_pct,"
      "makespan\n";

  const sim::Workload w =
      bench::facebook_workload(heavy_scale, /*arrival_window=*/0);
  const int cut =
      static_cast<int>(0.5 * static_cast<double>(w.total_tasks()));

  double off_heavy_ms = 0;
  double off_makespan = -1;
  for (const bool traced : {false, true}) {
    sim::SimConfig cfg = bench::facebook_cluster(heavy_scale);
    cfg.collect_pass_samples = true;
    cfg.trace.enabled = traced;
    // Large enough that nothing is dropped mid-run: the comparison
    // should price recording, not ring-buffer recycling.
    cfg.trace.max_chunks = 4096;
    core::TetrisConfig tcfg;
    tcfg.name = "tetris-opt";
    const sim::SimResult best =
        best_of_3([&] { return bench::run_tetris(cfg, w, tcfg); });
    bench::warn_if_incomplete(best);
    if (!traced) {
      off_makespan = best.makespan;
    } else if (best.makespan != off_makespan) {
      std::cerr << "ERROR: traced run diverged from untraced (makespan "
                << best.makespan << " vs " << off_makespan << ")\n";
    }
    const auto& c = best.scheduler_cost;
    const auto [heavy_ms, heavy_n] = heavy_mean_ms(best, cut);
    if (!traced) off_heavy_ms = heavy_ms;
    const double overhead_pct =
        traced && off_heavy_ms > 0
            ? (heavy_ms - off_heavy_ms) / off_heavy_ms * 100.0
            : 0.0;
    const std::size_t events = best.trace_log.events.size();
    t.add_row({traced ? "on" : "off", std::to_string(c.invocations),
               format_double(c.mean_seconds() * 1e3, 3),
               format_double(heavy_ms, 3) + " (" + std::to_string(heavy_n) +
                   "p)",
               format_double(c.max_seconds * 1e3, 3), std::to_string(events),
               traced ? format_double(overhead_pct, 2) : "-"});
    *trace_csv += std::string("tetris-opt,") + (traced ? "1," : "0,") +
                  "0,global," + std::to_string(w.total_tasks()) + "," +
                  std::to_string(c.invocations) + "," +
                  format_double(c.mean_seconds() * 1e3, 4) + "," +
                  format_double(heavy_ms, 4) + "," +
                  format_double(c.max_seconds * 1e3, 4) + "," +
                  std::to_string(events) + "," +
                  std::to_string(best.trace_log.dropped) + "," +
                  format_double(overhead_pct, 3) + "," +
                  format_double(best.makespan, 3) + "\n";
  }
  std::cout << t.to_string();
}

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();

  bench::Scale def;
  def.jobs = 230;  // ~10K tasks at t=0 on the default Facebook mix
  def.machines = 30;
  const bench::Scale scale = bench::Scale::from_args(argc, argv, def);

  std::string samples_csv;
  std::string counters_csv;
  print_pass_latency_table(scale, &samples_csv, &counters_csv);
  write_file("bench_results/table8_overheads.csv", samples_csv);
  write_file("bench_results/table8_perf_counters.csv", counters_csv);

  std::string trace_csv;
  print_trace_overhead_table(scale, &trace_csv);
  write_file("bench_results/table8_trace_overhead.csv", trace_csv);
  return 0;
}
