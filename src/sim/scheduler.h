// The scheduler abstraction. The simulator drives a Scheduler at every
// heartbeat / job arrival with a SchedulerContext; the scheduler probes
// (task-group, machine) pairs and commits placements. This mirrors the
// architecture of Figure 3: node managers report availability, job managers
// report demands per pending task, and the cluster-wide resource manager
// matches tasks to machines.
//
// Schedulers see *estimated* demands (per the simulation's estimation
// model, §4.1) and the tracker-reported availability view; the simulator
// always charges true demands. This gap is deliberate: it is where
// over-allocation and reclaim behaviour come from.
#pragma once

#include <string>
#include <vector>

#include "sim/placement.h"
#include "sim/spec.h"
#include "util/perf_counters.h"
#include "util/resources.h"
#include "util/soa_planes.h"
#include "util/units.h"

namespace tetris::trace {
class Recorder;
}  // namespace tetris::trace

namespace tetris::sim {

// Identifies a stage of a job ("task group"): tasks of a stage are
// statistically similar (§4.1), so schedulers reason at group granularity
// and let the context pick the best-locality concrete task.
struct GroupRef {
  JobId job = -1;
  int stage = -1;

  friend bool operator==(const GroupRef&, const GroupRef&) = default;
};

// Read-only snapshot of a runnable group handed to schedulers.
struct GroupView {
  GroupRef ref;
  int runnable = 0;
  int running = 0;
  int finished = 0;
  int total = 0;
  // True iff some other stage of the job consumes this stage's output
  // (i.e. a strict barrier follows it). The end of a job also acts as a
  // barrier (§3.5), so Tetris's barrier hint treats every stage as
  // barrier-preceding; this flag lets variants distinguish.
  bool has_dependents = false;
  // Representative estimated demand of one task, assuming local reads
  // (placement-independent view; probe() refines per machine).
  Resources est_demand;
  double est_duration = 0;
  // Estimated "resource consumption" of one task: sum of capacity-
  // normalized demand dimensions x duration (the SRTF score unit, §3.3.1).
  double est_task_work = 0;
  // How long the group's longest-waiting runnable task has been runnable;
  // feeds starvation detection (§3.5 leaves reservations to future work —
  // Tetris's starvation_threshold knob implements them).
  double longest_wait = 0;
  // For imminent_groups() only: predicted time until the stage's barrier
  // breaks and its tasks become runnable (0 for already-runnable groups).
  double eta = 0;
};

// Read-only snapshot of a job for fairness and SRTF logic.
struct JobView {
  JobId id = -1;
  SimTime arrival = 0;
  int template_id = -1;
  int queue = 0;
  int total_tasks = 0;
  int finished_tasks = 0;
  int running_tasks = 0;
  int runnable_tasks = 0;
  // Sum of demand vectors currently allocated to the job's running tasks.
  Resources current_alloc;
  // Multi-resource SRTF score p: total estimated resource consumption of
  // all remaining (unfinished) tasks (§3.3.1).
  double remaining_work = 0;
};

// Result of probing one (group, machine) pair: the concrete best-locality
// candidate task, its estimated placement-dependent demands, and estimated
// duration. `valid` is false when the group has no runnable task left.
struct Probe {
  bool valid = false;
  GroupRef group;
  MachineId machine = -1;
  int task_index = -1;
  Resources demand;                // estimated local demand rates at machine
  std::vector<RemoteLeg> remote;   // estimated demands at remote sources
  double duration = 0;             // estimated
  double local_fraction = 1.0;     // fraction of input read locally
  double task_work = 0;            // this task's estimated resource use
};

// A task currently running, as visible to schedulers that preempt.
struct RunningTaskView {
  int uid = -1;
  JobId job = -1;
  int stage = -1;
  MachineId machine = -1;
  SimTime started = 0;
  // The demands booked for it at placement (estimated values).
  Resources demand;
};

// Usage report for a finished task, the input a demand estimator would
// learn recurring jobs and running phases from (§4.1). The simulator
// models that learning with EstimationMode instead and reports none.
struct TaskReport {
  JobId job = -1;
  int stage = -1;
  int template_id = -1;
  Resources peak_usage;  // true local demand rates the task exhibited
  double duration = 0;   // true runtime
};

class SchedulerContext {
 public:
  virtual ~SchedulerContext() = default;

  virtual SimTime now() const = 0;
  virtual int num_machines() const = 0;
  virtual const Resources& capacity(MachineId m) const = 0;
  // Cluster-wide total capacity (for dominant-share computations).
  virtual const Resources& cluster_capacity() const = 0;
  // Tracker-reported availability of machine `m`, already net of
  // placements committed earlier in this scheduling pass.
  virtual Resources available(MachineId m) const = 0;
  virtual int running_tasks_on(MachineId m) const = 0;

  // Structure-of-arrays views (DESIGN.md §12): one contiguous zero-padded
  // lane array per resource dimension, lane = machine id, covering every
  // id available()/capacity() accept (real machines first, rack uplinks
  // after). A context that returns them guarantees coherence with
  // available()/capacity() through every in-pass mutation — place() and
  // preempt() update the planes as their source of truth — and across
  // passes through churn, completions and tracker updates. Null by
  // default: the SIMD scoring path then gathers per machine through the
  // virtuals, which stays bit-identical, just slower.
  virtual const util::ResourcePlanes* availability_planes() const {
    return nullptr;
  }
  virtual const util::ResourcePlanes* capacity_planes() const {
    return nullptr;
  }

  // Churn admission filter: false while machine `m` is down (failed and
  // not yet recovered). Down machines report zero availability and refuse
  // probes and placements regardless, so no scheduler can admit to one;
  // checking the flag first merely skips the wasted work. Ids past the
  // real machines (rack uplinks) are always up.
  virtual bool machine_up(MachineId /*m*/) const { return true; }

  // Placement-constraint admission filter (DESIGN.md §13), the companion
  // of machine_up: false when machine `m` cannot legally host a task of
  // `group` — label require/forbid clauses, within-job anti-affinity, or
  // same-rack-as-input. Every scan path (naive oracle, optimized scan,
  // baselines) must consult it *before* probing, exactly
  // where it checks machine_up: an inadmissible machine is a plain
  // rejection of the pair, never a drained group. Within one pass the
  // predicate can only flip admissible→inadmissible (placements add
  // anti-affinity hosts; labels and rack sets are pass-constant), so a
  // false result is safe to cache sticky alongside availability
  // rejections. place() re-validates independently, so a scheduler that
  // skips this check loses placements, not correctness. Ids past the real
  // machines (rack uplinks) are never admissible hosts.
  virtual bool constraints_admit(const GroupRef& /*group*/,
                                 MachineId /*m*/) const {
    return true;
  }

  // Retirement watermark (streaming, DESIGN.md §11): every job with id
  // strictly below this has completed and been folded out of the resident
  // set; no group of such a job will ever appear again. Schedulers may
  // drop any per-group state they keep for them (group ids are never
  // reused), which is what keeps scheduler-side memory flat on streaming
  // runs. Always 0 in batch mode — pruning nothing is the default.
  virtual JobId retired_before() const { return 0; }

  // Groups with at least one runnable task, and all arrived-but-unfinished
  // jobs. Snapshots: re-fetch after placements to see updated counts.
  virtual std::vector<GroupView> runnable_groups() const = 0;
  virtual std::vector<JobView> active_jobs() const = 0;

  // Future knowledge (paper §3.5 "Future Demands"): stages whose barrier
  // is about to break — every dependency stage is fully placed and its
  // last tasks have predicted finish times. Each returned view carries the
  // estimated demands of the soon-runnable tasks and `eta`, the predicted
  // seconds until they become runnable. Imperfect by design: predictions
  // move as contention changes.
  virtual std::vector<GroupView> imminent_groups() const = 0;

  virtual Probe probe(const GroupRef& group, MachineId machine) const = 0;
  // Identical result to probe(), written into *out so the caller's heap
  // buffers (the remote-leg vector) keep their capacity across re-probes.
  // The tetris scan re-acquires probes at every runnable-set bump, which
  // made the per-call vector churn a measurable slice of pass latency.
  // Default forwards to probe() for contexts that don't override.
  virtual void probe_into(const GroupRef& group, MachineId machine,
                          Probe* out) const {
    *out = probe(group, machine);
  }
  // Commits a probe: starts the probed task on the probed machine. Returns
  // false if the probe is stale (task no longer runnable).
  virtual bool place(const Probe& probe) = 0;

  // Preemption support (extension; paper §3.1 excludes preemption "for
  // simplicity", YARN's Capacity scheduler has it for fairness
  // enforcement). Killing a task loses its work: it re-queues and
  // re-executes from scratch. The freed resources are reflected in
  // available() immediately.
  virtual std::vector<RunningTaskView> running_tasks() const = 0;
  virtual bool preempt(int task_uid) = 0;

  // Drains completion reports accumulated since the last call; none by
  // default.
  virtual std::vector<TaskReport> take_reports() { return {}; }

  // Hot-path instrumentation sink (DESIGN.md §8): schedulers add their
  // per-pass counters here so they surface in SimResult::perf. May be
  // null (contexts that do not collect). Strictly write-only for
  // schedulers — decisions must never read it.
  virtual util::PerfCounters* perf_counters() { return nullptr; }

  // Event-trace sink (DESIGN.md §10): schedulers record placement
  // decisions here. Null when tracing is disabled.
  // Write-only for schedulers, like perf_counters().
  virtual trace::Recorder* tracer() { return nullptr; }
};

class Scheduler {
 public:
  virtual ~Scheduler() = default;
  virtual std::string name() const = 0;
  // One scheduling pass: examine the context, commit zero or more
  // placements via ctx.place().
  virtual void schedule(SchedulerContext& ctx) = 0;
};

}  // namespace tetris::sim
