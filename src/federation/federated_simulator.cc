#include "federation/federated_simulator.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>

#include "federation/cell.h"
#include "sim/job_source.h"
#include "sim/simulator.h"

namespace tetris::federation {

namespace {

// One entry of the driver's merged global timeline. Kills sort before
// arrivals at the same instant: a job arriving exactly when a cell dies
// must be dispatched among the survivors.
struct DriverEvent {
  SimTime time = 0;
  int kind = 0;  // 0 = kill, 1 = arrival
  int index = 0;

  bool operator<(const DriverEvent& o) const {
    if (time != o.time) return time < o.time;
    if (kind != o.kind) return kind < o.kind;
    return index < o.index;
  }
};

long count_tasks(const sim::JobSpec& job) {
  long n = 0;
  for (const auto& stage : job.stages) {
    n += static_cast<long>(stage.tasks.size());
  }
  return n;
}

}  // namespace

std::vector<double> FederatedResult::jcts() const {
  std::vector<double> out;
  out.reserve(job_records.size());
  for (const auto& j : job_records) {
    if (j.finish >= 0) out.push_back(j.finish - j.arrival);
  }
  return out;
}

FederatedResult simulate_federated(const FederationConfig& config,
                                   const sim::Workload& workload) {
  const sim::SimConfig& base = config.base;
  if (base.cells.empty()) {
    throw std::invalid_argument(
        "FederationConfig: base.cells must define the cell partition");
  }
  if (auto msg = sim::validate(base); !msg.empty()) {
    throw std::invalid_argument("FederationConfig: invalid base: " + msg);
  }
  const int num_cells = static_cast<int>(base.cells.size());
  // A kill's scripted outage needs a finite recovery after it, so the
  // largest double is not a kill time.
  for (const auto& kill : config.kills) {
    if (kill.cell < 0 || kill.cell >= num_cells ||
        !(0 <= kill.at && kill.at < std::numeric_limits<double>::max())) {
      throw std::invalid_argument(
          "FederationConfig: kill needs a valid cell and a finite time >= 0 "
          "below the largest double");
    }
  }
  // Global job ids are positions in arrival-sorted order — the ids
  // sim::simulate would assign the same sorted workload, which is what
  // makes the 1-cell case comparable record for record.
  const sim::Workload sorted = sim::sorted_by_arrival(workload);
  const long num_jobs = static_cast<long>(sorted.jobs.size());

  // Per-cell engines. Every engine reserves the *global* arrival-seq block
  // (expected_jobs = num_jobs): a job can visit a given cell at most once
  // (it only leaves a cell by that cell dying), so no cell ever sees more
  // than num_jobs submissions even across failovers.
  std::vector<std::unique_ptr<core::TetrisScheduler>> schedulers;
  std::vector<std::unique_ptr<sim::SimEngine>> engines;
  schedulers.reserve(static_cast<std::size_t>(num_cells));
  engines.reserve(static_cast<std::size_t>(num_cells));
  for (int c = 0; c < num_cells; ++c) {
    sim::SimConfig cfg = make_cell_config(base, base.cells[c], c);
    // The packing-loss metrics need utilization samples from every cell.
    cfg.collect_timeline = true;
    for (const auto& kill : config.kills) {
      if (kill.cell != c) continue;
      // Whole-cell outage as scripted churn, so the existing machine-down
      // machinery (task kill/requeue, counters, traces) does the work. A
      // dead cell stays dead: the driver halts it at the kill, before the
      // recovery, so any finite recovery time after the kill will do.
      const SimTime recovery =
          std::nextafter(kill.at, std::numeric_limits<double>::infinity());
      for (int m = 0; m < base.cells[c].size(); ++m) {
        cfg.churn.scripted.push_back({m, kill.at, recovery});
      }
    }
    schedulers.push_back(
        std::make_unique<core::TetrisScheduler>(config.tetris));
    engines.push_back(
        std::make_unique<sim::SimEngine>(cfg, *schedulers.back(), num_jobs));
  }

  Dispatcher dispatcher(config.policy, config.dispatch_seed);
  const bool by_locality = config.policy == DispatchPolicy::kLocalityAware;
  std::vector<char> alive(static_cast<std::size_t>(num_cells), 1);
  // cell_jobs[c][local_id] = global id; job_local[g] = final local id.
  std::vector<std::vector<long>> cell_jobs(
      static_cast<std::size_t>(num_cells));
  std::vector<int> job_cell(static_cast<std::size_t>(num_jobs), -1);
  std::vector<long> job_local(static_cast<std::size_t>(num_jobs), -1);
  long reassigned = 0;
  long lost = 0;

  auto dispatch = [&](long g, const sim::JobSpec& spec) -> bool {
    std::vector<int> candidates;
    for (int c = 0; c < num_cells; ++c) {
      if (alive[static_cast<std::size_t>(c)] &&
          cell_feasible(spec, base, base.cells[c])) {
        candidates.push_back(c);
      }
    }
    if (candidates.empty()) {
      // Feasible nowhere (or constraints fit only dead cells): any
      // surviving cell dooms it with the usual InfeasibleGroup report.
      for (int c = 0; c < num_cells; ++c) {
        if (alive[static_cast<std::size_t>(c)]) candidates.push_back(c);
      }
    }
    if (candidates.empty()) {
      job_cell[static_cast<std::size_t>(g)] = -1;
      job_local[static_cast<std::size_t>(g)] = -1;
      lost++;
      return false;
    }
    std::vector<sim::EngineLoad> loads(static_cast<std::size_t>(num_cells));
    std::vector<double> bytes(static_cast<std::size_t>(num_cells), 0.0);
    for (int c = 0; c < num_cells; ++c) {
      if (!alive[static_cast<std::size_t>(c)]) continue;
      loads[static_cast<std::size_t>(c)] = engines[c]->load();
      // Only the locality policy reads the bytes; the walk over every
      // task's input replicas is the costly part of a dispatch.
      if (by_locality) {
        bytes[static_cast<std::size_t>(c)] =
            cell_input_bytes(spec, base.cells[c]);
      }
    }
    const int c = dispatcher.pick(candidates, loads, bytes);
    engines[c]->submit(remap_job_for_cell(spec, base.cells[c]));
    job_cell[static_cast<std::size_t>(g)] = c;
    job_local[static_cast<std::size_t>(g)] =
        static_cast<long>(cell_jobs[static_cast<std::size_t>(c)].size());
    cell_jobs[static_cast<std::size_t>(c)].push_back(g);
    return true;
  };

  // Merged global timeline: arrivals and kills in time order, advanced in
  // lockstep across every live cell.
  std::vector<DriverEvent> events;
  events.reserve(static_cast<std::size_t>(num_jobs) + config.kills.size());
  for (std::size_t k = 0; k < config.kills.size(); ++k) {
    events.push_back({config.kills[k].at, 0, static_cast<int>(k)});
  }
  for (long g = 0; g < num_jobs; ++g) {
    events.push_back({sorted.jobs[static_cast<std::size_t>(g)].arrival, 1,
                      static_cast<int>(g)});
  }
  std::sort(events.begin(), events.end());

  // Idle-cell skip (DESIGN.md §14.5): a quiescent cell's advance_before
  // would mutate nothing (SimEngine::quiescent_until), so skipping it
  // changes no schedule and spares the driver a call per live cell per
  // event.
  long idle_cell_skips = 0;

  for (const DriverEvent& ev : events) {
    for (int c = 0; c < num_cells; ++c) {
      if (!alive[static_cast<std::size_t>(c)]) continue;
      if (engines[c]->quiescent_until(ev.time)) {
        idle_cell_skips++;
        continue;
      }
      engines[c]->advance_before(ev.time);
    }
    if (ev.kind == 1) {
      dispatch(ev.index, sorted.jobs[static_cast<std::size_t>(ev.index)]);
      continue;
    }
    const int dead = config.kills[static_cast<std::size_t>(ev.index)].cell;
    if (!alive[static_cast<std::size_t>(dead)]) continue;
    // Deliver the machine-down events (and any co-temporal finishes) at
    // the kill instant, then harvest what is left and fail it over.
    engines[dead]->advance_through(ev.time);
    alive[static_cast<std::size_t>(dead)] = 0;
    const std::vector<sim::JobId> unfinished = engines[dead]->halt();
    for (sim::JobId local : unfinished) {
      const long g =
          cell_jobs[static_cast<std::size_t>(dead)][static_cast<std::size_t>(
              local)];
      sim::JobSpec moved = sorted.jobs[static_cast<std::size_t>(g)];
      // Failover restarts the job from scratch on the new cell (its state
      // died with the cell's scheduler); it re-arrives at the kill time.
      moved.arrival = ev.time;
      if (dispatch(g, moved)) reassigned++;
    }
  }

  FederatedResult res;
  res.jobs = num_jobs;
  res.reassigned_jobs = reassigned;
  res.lost_jobs = lost;
  res.job_cell = job_cell;
  res.cells.reserve(static_cast<std::size_t>(num_cells));
  for (int c = 0; c < num_cells; ++c) res.cells.push_back(engines[c]->finish());

  // Global job records: the final cell's outcome under the original
  // arrival, so JCT charges failover re-runs to the job end to end.
  SimTime first_arrival = std::numeric_limits<double>::infinity();
  SimTime last_finish = 0;
  double jct_sum = 0;
  long jct_n = 0;
  res.job_records.reserve(static_cast<std::size_t>(num_jobs));
  for (long g = 0; g < num_jobs; ++g) {
    const sim::JobSpec& spec = sorted.jobs[static_cast<std::size_t>(g)];
    sim::JobRecord rec;
    rec.id = static_cast<sim::JobId>(g);
    rec.name = spec.name;
    rec.template_id = spec.template_id;
    rec.arrival = spec.arrival;
    rec.total_tasks = static_cast<int>(count_tasks(spec));
    first_arrival = std::min(first_arrival, spec.arrival);
    const int c = job_cell[static_cast<std::size_t>(g)];
    if (c >= 0) {
      const auto l =
          static_cast<std::size_t>(job_local[static_cast<std::size_t>(g)]);
      const auto& local_jobs = res.cells[static_cast<std::size_t>(c)].jobs;
      if (l < local_jobs.size() &&
          local_jobs[l].id == static_cast<sim::JobId>(l)) {
        rec.finish = local_jobs[l].finish;
        rec.unfairness_integral = local_jobs[l].unfairness_integral;
      }
    }
    if (rec.finish >= 0) {
      last_finish = std::max(last_finish, rec.finish);
      jct_sum += rec.finish - rec.arrival;
      jct_n++;
    } else {
      res.unfinished_jobs++;
    }
    res.job_records.push_back(std::move(rec));
  }
  res.makespan =
      last_finish - (std::isfinite(first_arrival) ? first_arrival : 0.0);
  res.avg_jct = jct_n > 0 ? jct_sum / static_cast<double>(jct_n) : 0.0;
  res.completed = lost == 0 && res.unfinished_jobs == 0;

  // Task records from each job's final cell, remapped to global ids.
  // Abandoned executions on killed cells are dropped — their attempts are
  // already accounted in that cell's churn counters.
  for (int c = 0; c < num_cells; ++c) {
    for (const sim::TaskRecord& t : res.cells[static_cast<std::size_t>(c)]
                                        .tasks) {
      const long g = cell_jobs[static_cast<std::size_t>(c)]
                              [static_cast<std::size_t>(t.job)];
      if (job_cell[static_cast<std::size_t>(g)] != c) continue;
      sim::TaskRecord out = t;
      out.job = static_cast<sim::JobId>(g);
      out.host = t.host >= 0 ? t.host + base.cells[c].begin : t.host;
      res.tasks.push_back(out);
    }
  }

  // Churn rollup and the packing-quality metrics.
  const int total_machines =
      static_cast<int>(base.resolved_capacities().size());
  SimTime horizon = 0;
  for (const auto& cell : res.cells) {
    horizon = std::max(horizon, cell.end_time);
  }
  double weighted_eff = 0;
  double busy_weighted_util = 0;
  double util_min = std::numeric_limits<double>::infinity();
  double util_max = -std::numeric_limits<double>::infinity();
  res.cell_utilization.reserve(static_cast<std::size_t>(num_cells));
  for (int c = 0; c < num_cells; ++c) {
    const sim::SimResult& r = res.cells[static_cast<std::size_t>(c)];
    // Hot-path accounting crosses the cell boundary instead of being
    // dropped with the per-cell results: counters sum (peaks max) and
    // the pass-latency histograms merge bucket-wise.
    res.perf += r.perf;
    res.pass_latency += r.pass_latency;
    res.churn.machines_failed += r.churn.machines_failed;
    res.churn.machines_recovered += r.churn.machines_recovered;
    res.churn.task_attempts_lost += r.churn.task_attempts_lost;
    res.churn.read_failovers += r.churn.read_failovers;
    res.churn.work_lost_seconds += r.churn.work_lost_seconds;
    const double weight = base.cells[c].size();
    weighted_eff += weight * r.churn.effective_capacity;

    double util = 0;
    for (const auto& s : r.timeline) {
      double dominant = 0;
      for (double u : s.utilization) dominant = std::max(dominant, u);
      util += dominant;
    }
    util = r.timeline.empty()
               ? 0.0
               : util / static_cast<double>(r.timeline.size());
    res.cell_utilization.push_back(util);
    util_min = std::min(util_min, util);
    util_max = std::max(util_max, util);
    busy_weighted_util += weight * util * r.end_time;
  }
  res.churn.effective_capacity =
      total_machines > 0 ? weighted_eff / total_machines : 1.0;
  res.avg_utilization =
      horizon > 0 && total_machines > 0
          ? busy_weighted_util / (static_cast<double>(total_machines) *
                                  horizon)
          : 0.0;
  res.fragmentation = 1.0 - res.avg_utilization;
  res.utilization_skew =
      num_cells > 0 && std::isfinite(util_min) ? util_max - util_min : 0.0;
  res.perf.idle_cell_skips = idle_cell_skips;
  return res;
}

}  // namespace tetris::federation
