// The discrete-event cluster simulator.
//
// Continuous-time, flow-level model: running tasks register demand rates on
// the machines they touch (host + remote input sources); each machine
// shares contended resources proportionally with interference-degraded
// capacity (machine.h); a task's speed is the minimum grant ratio across
// its footprint and its finish time is re-predicted whenever that changes
// (lazy event invalidation). Scheduling passes run at heartbeats and job
// arrivals, so schedulers learn about freed resources in batches, exactly
// like the prototype in paper §4.4.
#pragma once

#include <memory>

#include "sim/config.h"
#include "sim/job_source.h"
#include "sim/result.h"
#include "sim/scheduler.h"
#include "sim/spec.h"

namespace tetris::sim {

// Runs `workload` under `scheduler` and returns the measured result.
// Throws std::invalid_argument on a config that fails validate() and on
// malformed workloads. When config.stream.enabled is set, the workload
// (which must be sorted by arrival) is driven through the streaming path
// below instead of being materialized upfront.
SimResult simulate(const SimConfig& config, const Workload& workload,
                   Scheduler& scheduler);

// Streaming entry point (DESIGN.md §11): pulls jobs from `source`
// incrementally through StreamConfig's look-ahead window and retires
// completed jobs from memory as it goes. With no resident ceilings (or
// ceilings never hit — PerfCounters::stream_deferrals == 0) the result is
// bit-identical to simulate() on the equivalent in-memory workload.
// config.stream.enabled is implied.
SimResult simulate_stream(const SimConfig& config, JobSource& source,
                          Scheduler& scheduler);

// Deterministic load snapshot of a stepped simulation, read by the
// federated dispatcher between events (DESIGN.md §14). Every field is pure
// simulation state, so dispatch decisions built on it are reproducible.
struct EngineLoad {
  int machines = 0;        // real machines owned by this engine
  int up_machines = 0;     // machines currently up
  int runnable_tasks = 0;  // cluster-wide pending backlog
  int running_tasks = 0;
  long active_jobs = 0;    // admitted minus retired (complete jobs retire)
  // Dominant-resource fraction of *up* capacity currently allocated
  // (scheduler-visible bookings); 0 when everything is down or idle.
  double alloc_share = 0;
};

// Externally-clocked driver over the same event loop simulate() runs
// (DESIGN.md §14). A SimEngine owns one cell of a federated cluster: the
// federation layer constructs one engine per cell, submits jobs as its
// dispatcher admits them, and advances every engine in lockstep on a
// shared clock. Internally this is the streaming path (DESIGN.md §11) fed
// by a push queue, so a 1-cell engine driven with the global workload is
// bit-identical to simulate() on it — placements, makespan and decision
// trace alike.
//
// Protocol: interleave submit() (non-decreasing arrivals, at most
// `expected_jobs` in total — pass the global job count) with
// advance_before()/advance_through(); then call finish() exactly once to
// drain the remaining work and collect the result. halt() abandons every
// unfinished job (cell failure) — finish() then skips the drain and
// reports the abandoned jobs with finish = -1.
class SimEngine {
 public:
  // `scheduler` must outlive the engine. `expected_jobs` reserves the
  // deterministic arrival-sequence block (the analogue of a JobSource's
  // total_jobs()); submitting more than that many jobs throws.
  SimEngine(const SimConfig& config, Scheduler& scheduler,
            long expected_jobs);
  ~SimEngine();
  SimEngine(const SimEngine&) = delete;
  SimEngine& operator=(const SimEngine&) = delete;

  // Enqueues a job for admission. `spec.arrival` must be >= every arrival
  // submitted before (the JobSource contract) and >= the engine's clock.
  void submit(const JobSpec& spec);

  // Processes every event strictly before `t` (exclusive), so the caller
  // can submit arrivals at t and have them ordered ahead of the engine's
  // own events at t — exactly where batch mode's upfront pushes would sit.
  void advance_before(SimTime t);

  // Processes events through `t` inclusive; used to deliver scripted
  // machine-down events at a cell-kill instant before harvesting the
  // survivors' work.
  void advance_through(SimTime t);

  // Abandons every unfinished (and not doomed) job and returns their ids
  // in submission order — the dispatcher re-admits them elsewhere. Ids are
  // assigned in submission order starting at 0, including jobs still
  // queued for admission. After halt() the engine schedules nothing more.
  std::vector<JobId> halt();

  // Drains the engine to completion (unless halted) and returns the
  // result. Call exactly once, after the last submit().
  SimResult finish();

  EngineLoad load() const;
  long submitted() const;

  // True when advance_before(t) would process nothing: no job is queued
  // for admission and the engine's next internal event (if any) lies at
  // or beyond `t`. The check is read-only and advance_before on a
  // quiescent engine mutates nothing, so a driver may skip the call
  // entirely — the idle-cell fast path that makes sparse cells cost
  // ~nothing per driver event (DESIGN.md §14.5).
  bool quiescent_until(SimTime t) const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace tetris::sim
