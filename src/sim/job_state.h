// Runtime state of jobs, stages and tasks inside a simulation. These are
// owned and mutated by the Simulator; schedulers see them only through the
// read-only views in scheduler.h.
#pragma once

#include <cstdint>
#include <deque>
#include <utility>
#include <vector>

#include "sim/candidate_index.h"
#include "sim/placement.h"
#include "sim/scheduler.h"
#include "sim/spec.h"
#include "util/resources.h"
#include "util/units.h"

namespace tetris::sim {

// Multipliers from true to estimated demands and duration (§4.1
// estimation model); identity unless the estimation mode perturbs them.
struct EstFactors {
  Resources demand = Resources::uniform(1.0);
  double duration = 1.0;
};

// One machine's probe of a stage (DESIGN.md §8.3): a pure function of the
// chosen candidate, the churn epoch (replica masks, uplink capacities)
// and the estimation epoch, so it replays verbatim while all three
// stamps match.
struct ProbeSlot {
  static constexpr int kEmpty = -2;
  int candidate = kEmpty;  // task index probed; -1 = no viable candidate
  std::uint64_t churn_version = 0;
  std::uint64_t estimate_epoch = 0;
  Probe probe;
};

// The stage's group estimate (est_demand / est_duration / est_task_work),
// valid while its representative task and estimation epoch match.
struct EstimateSlot {
  static constexpr int kEmpty = -2;
  int rep = kEmpty;  // StageState::first_runnable it was computed for
  std::uint64_t estimate_epoch = 0;
  Resources est_demand;
  double est_duration = 0;
  double est_task_work = 0;
};

enum class TaskStatus {
  kBlocked,   // upstream stage not finished
  kRunnable,  // ready, waiting for placement
  kRunning,
  kFinished,
};

struct TaskState {
  // The task's spec with shuffle splits materialized (rewritten to concrete
  // sources once the upstream stage finished).
  TaskSpec spec;
  TaskStatus status = TaskStatus::kBlocked;
  int uid = -1;            // globally unique across the simulation
  int index_in_stage = -1;
  // Position in the owning stage's runnable_indices while runnable.
  int runnable_pos = -1;
  // When the task last became runnable; feeds starvation detection.
  SimTime runnable_since = -1;
  MachineId host = -1;
  SimTime start_time = -1;
  SimTime finish_time = -1;
  // Demands registered on machines while running.
  PlacementDemand placement;
  // Progress in [0,1] of the task's natural duration; advances at `speed`
  // (the min grant ratio over all machines the task touches).
  double progress = 0;
  SimTime progress_updated_at = 0;
  double speed = 0;
  // Bumped whenever speed changes; finish events carry the generation they
  // were computed under and are dropped if stale (lazy deletion).
  long generation = 0;
  // The refresh_dirty call that last visited the task (Simulator's
  // refresh_epoch_), so a task on several dirty machines is visited once.
  long refresh_epoch = 0;
  int attempts = 0;  // > 1 after failure-injected re-execution
  bool will_fail = false;
  double fail_at_progress = 1.0;
  // The *estimated* demands booked for the running attempt at placement
  // time (what the scheduler was charged); completion subtracts the same
  // values. True demands live in `placement`.
  Resources est_local;
  std::vector<RemoteLeg> est_remote;
};

struct StageState {
  std::vector<TaskState> tasks;
  std::vector<int> deps;
  // Placement constraint shared by every task of the stage (DESIGN.md
  // §13), copied from the spec at admission.
  PlacementConstraint constraint;
  // Static admissibility per real machine: label clauses folded in at
  // admission, the same-rack-as-input clause folded in when the stage's
  // inputs materialize. Empty = every machine admissible (the common,
  // constraint-free case costs nothing). The dynamic anti-affinity clause
  // is checked against JobState::hosted_per_machine instead.
  std::vector<unsigned char> admit_mask;
  int unfinished_deps = 0;
  bool materialized = false;  // shuffle splits rewritten
  int runnable = 0;
  int running = 0;
  int finished = 0;
  // Indices (into `tasks`) of the currently runnable tasks, so probes scan
  // runnable candidates directly instead of walking finished ones.
  std::vector<int> runnable_indices;

  // ---- scheduler-view state (DESIGN.md §8.3); untouched under
  // naive_scheduler_view ----
  // Best-locality candidate per machine over the first kMaxLocalityScan
  // runnable_indices, and one probe slot per real machine. Both live
  // while the runnable set is non-empty and are freed when it empties.
  CandidateIndex locality;
  std::vector<ProbeSlot> probe_slots;
  // Smallest runnable task index (-1 when none): the group-estimate
  // representative.
  int first_runnable = -1;
  EstimateSlot estimate;
  // kNoisy estimation error, drawn at admission.
  EstFactors noise;
  // (task index, runnable_since) in push order. Entries are appended with
  // non-decreasing timestamps and never erased eagerly; a query pops
  // stale fronts (task no longer runnable, or requeued since) and the
  // surviving front is the stage's longest-waiting runnable task — an
  // O(1)-amortized replacement for scanning every runnable task per pass.
  std::deque<std::pair<int, SimTime>> wait_fifo;
  // Where this stage's outputs landed, aggregated per machine; feeds the
  // materialization of downstream shuffle splits.
  std::vector<std::pair<MachineId, double>> output_locations;

  int total() const { return static_cast<int>(tasks.size()); }
  bool done() const { return finished == total(); }
};

struct JobState {
  JobId id = -1;
  std::string name;
  int template_id = -1;
  int queue = 0;
  SimTime arrival = 0;
  SimTime finish = -1;  // -1 while incomplete
  bool arrived = false;
  // In streaming mode (DESIGN.md §11): the job's record has been folded
  // into SimResult and its stages freed; only this shell remains until the
  // retired prefix is popped off the resident window. complete() stays
  // true for a shell, so iteration skips it exactly like a finished job.
  bool retired = false;
  std::vector<StageState> stages;
  // First task uid of this job; uids are contiguous per job in id order.
  int uid_base = 0;
  int total_tasks = 0;
  int finished_tasks = 0;
  int running_tasks = 0;
  // Sum of local demand vectors of the job's running tasks (true values);
  // the basis for fairness shares.
  Resources current_alloc;
  // Running tasks of this job per real machine, maintained by
  // start_task/complete_task; sized only when some stage of the job
  // carries an anti-affinity constraint (empty otherwise). Within one
  // scheduling pass counts only grow — completions land between passes —
  // so an anti-affinity rejection is sticky-safe like any other.
  std::vector<int> hosted_per_machine;
  // The job can never finish: some stage's placement constraints admit no
  // machine in this cluster (reported in SimResult::infeasible).
  bool doomed = false;
  // Relative integral unfairness accumulator (paper §5.3.2): integrates
  // (a(t) - f(t)) / f(t) over the job's active lifetime.
  double unfairness_integral = 0;

  bool complete() const { return finished_tasks == total_tasks; }
};

}  // namespace tetris::sim
