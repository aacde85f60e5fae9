// Federated multi-cell scheduling (DESIGN.md §14): a dispatcher admits
// each arriving job to exactly one cell; every cell runs its own Tetris
// scheduler over its slice of the cluster via the stepped SimEngine, all
// advanced in lockstep on the shared clock. Cell kills re-admit the dead
// cell's unfinished jobs to survivors through the same dispatcher. The
// 1-cell configuration is bit-identical to the global scheduler —
// placements, makespan and decision trace — so the federation sweep
// (bench_federation, E26) measures pure dispatcher-induced packing loss.
#pragma once

#include <cstdint>
#include <vector>

#include "core/tetris_scheduler.h"
#include "federation/dispatcher.h"
#include "sim/config.h"
#include "sim/result.h"
#include "sim/spec.h"
#include "util/histogram.h"
#include "util/perf_counters.h"

namespace tetris::federation {

// Kills every machine of `cell` at time `at` (scripted churn under the
// hood, so per-cell ChurnStats account the outage) and fails the cell's
// unfinished jobs over to the surviving cells.
struct CellKill {
  int cell = 0;
  SimTime at = 0;
};

struct FederationConfig {
  // The global cluster; base.cells must define the partition
  // (sim::validate_cells rules), and simulate_federated checks all of
  // base with sim::validate before slicing it. Tracker/estimation/trace
  // knobs are inherited by every cell; each cell seeds its RNG with
  // base.seed + cell_index (cell 0 keeps the base seed).
  sim::SimConfig base;
  // Per-cell scheduler template.
  core::TetrisConfig tetris;
  DispatchPolicy policy = DispatchPolicy::kLeastLoaded;
  std::uint64_t dispatch_seed = 1;
  std::vector<CellKill> kills;
};

struct FederatedResult {
  bool completed = false;  // every job finished on some cell
  SimTime makespan = 0;  // last finish minus first *original* arrival
  long jobs = 0;
  long reassigned_jobs = 0;  // failover re-admissions across all kills
  long lost_jobs = 0;        // no surviving cell to re-admit to
  long unfinished_jobs = 0;  // dispatched but never finished (doomed/cut off)
  double avg_jct = 0;        // completed jobs, from the original arrival

  // Packing-quality metrics (E26). Per-cell utilization is the mean over
  // the cell's timeline samples of its dominant-resource usage fraction;
  // avg_utilization weights cells by capacity x busy span over the
  // federated horizon, so a cell idling after an early finish counts as
  // waste. fragmentation = 1 - avg_utilization; utilization_skew is the
  // max-min spread of the per-cell means.
  double avg_utilization = 0;
  double fragmentation = 0;
  double utilization_skew = 0;

  sim::ChurnStats churn;  // summed across cells (capacity-weighted
                          // effective_capacity)

  // Hot-path accounting, merged across every cell instead of being
  // dropped at the cell boundary: summed util::PerfCounters (plus the
  // driver's own idle_cell_skips) and the combined
  // pass-latency histogram, so analysis::perf_counters_csv and p50/p99
  // reporting work on federated runs exactly as on single-cell ones.
  util::PerfCounters perf;
  util::LatencyHistogram pass_latency;

  // Global views: job records keyed by global job id with original
  // arrivals; task records from each job's *final* cell with hosts mapped
  // back to global machine ids (abandoned executions on killed cells are
  // dropped). job_cell[g] is the final cell of job g, -1 if lost.
  std::vector<sim::JobRecord> job_records;
  std::vector<sim::TaskRecord> tasks;
  std::vector<int> job_cell;

  std::vector<double> cell_utilization;
  // Raw per-cell results (local machine/job ids), index == cell index.
  std::vector<sim::SimResult> cells;

  std::vector<double> jcts() const;
};

// Runs `workload` through the federation described by `config`. The
// workload is sorted by arrival internally; global job ids are positions
// in that sorted order (the same ids sim::simulate assigns when handed the
// sorted workload). Throws std::invalid_argument on an invalid partition,
// kill list, or workload.
FederatedResult simulate_federated(const FederationConfig& config,
                                   const sim::Workload& workload);

}  // namespace tetris::federation
