// The discrete-event simulator behind simulate(), simulate_stream() and
// SimEngine (simulator.h). Private to src/sim: only the stage files that
// define its members include this header, and it carries the standard
// headers they share.
//
// One class, defined across five stage files:
//   engine.cc     the event queue and loop, heartbeats and passes (§4.4),
//                 the stepped SimEngine (DESIGN.md §14) and the entry points;
//   books.cc      the per-machine books: true demands, the scheduler's
//                 estimate bookings, rate recompute and the §4.1 tracker;
//   view.cc       the scheduler's view of one §3 pass (ContextImpl);
//   admission.cc  job admission and retirement (DESIGN.md §11), stage
//                 materialization, constraints (§13), task start and finish;
//   churn.cc      §4.3 background activities, machine failure and recovery.
#pragma once

#include <cstdint>
#include <deque>
#include <limits>
#include <memory>
#include <queue>
#include <string>
#include <unordered_set>
#include <vector>

#include "sim/job_state.h"
#include "sim/machine.h"
#include "sim/simulator.h"
#include "trace/event.h"
#include "trace/recorder.h"
#include "util/perf_counters.h"
#include "util/rng.h"

namespace tetris::sim {

struct Event {
  enum class Type {
    kArrival,
    kFinish,
    kHeartbeat,
    kTimeline,
    kActivity,
    kMachineDown,
    kMachineUp,
  };
  SimTime time = 0;
  long seq = 0;  // FIFO tie-break for equal times
  Type type = Type::kHeartbeat;
  int a = 0;   // arrival: job id; finish: task uid; activity: index;
               // machine down/up: machine id
  long b = 0;  // finish: generation; activity: 1=start, 0=stop
};

struct EventLater {
  bool operator()(const Event& x, const Event& y) const {
    if (x.time != y.time) return x.time > y.time;
    return x.seq > y.seq;
  }
};

struct TaskLoc {
  JobId job;
  int stage;
  int index;
};

class Simulator {
 public:
  // Batch mode: the whole workload is materialized upfront.
  Simulator(const SimConfig& config, const Workload& workload);
  // Streaming mode (DESIGN.md §11): jobs are pulled from `source`
  // incrementally and retired on completion. `source` must outlive the run.
  Simulator(const SimConfig& config, JobSource& source);
  SimResult run(Scheduler& scheduler);

  // ---- stepped execution (DESIGN.md §14) ----
  // run() is prepare() + drain() + finalize(); SimEngine drives the same
  // phases under an external clock. step_one() processes one event and
  // returns true, or returns false when there is none to process: the
  // queue is empty after pumping, the run is past max_time or halted, or
  // the next event lies at/after `limit` (exclusive) or strictly after it
  // (inclusive) and stays queued for a later step.
  void prepare(Scheduler& scheduler);
  bool step_one(Scheduler& scheduler, SimTime limit, bool inclusive);
  // Steps until `jobs` jobs are completed or doomed, or nothing is left
  // to process.
  void drain(Scheduler& scheduler, long jobs);
  SimResult finalize();
  // Abandons every unfinished, undoomed resident job (the still-queued
  // tail of the source is the caller's to account) and stops scheduling.
  std::vector<JobId> halt_resident();
  EngineLoad engine_load() const;
  // True when step_one(scheduler, t, /*inclusive=*/false) would be a pure
  // no-op: the run is over (past max_time or halted), or every queued
  // event lies at or beyond `t`. Callers must separately know that no
  // admission is pending (a non-empty source can create events below t);
  // SimEngine::quiescent_until folds that in. The check mutates nothing,
  // so skipping the advance of a quiescent simulator is bit-identical to
  // performing it — the idle-cell fast path of DESIGN.md §14.5.
  bool quiescent_until(SimTime t) const {
    return past_max_time_ || halted_ || events_.empty() ||
           events_.top().time >= t;
  }
  long completed_jobs() const { return completed_jobs_; }
  bool halted() const { return halted_; }

 private:
  class ContextImpl;

  // ---- setup and the loop (engine.cc) ----
  // The body both public constructors share; `source` is null in batch
  // mode.
  Simulator(const SimConfig& config, JobSource* source, long total_jobs);
  void init_cluster();
  void push(Event e) {
    e.seq = next_seq_++;
    events_.push(e);
  }
  void run_pass(Scheduler& scheduler);
  void sample_fairness(double dt);

  // ---- admission and retirement (admission.cc, DESIGN.md §11) ----
  // Validates `spec`, builds its JobState, assigns contiguous uids, extends
  // locs_, and (kNoisy) draws the job's noise factors — the single path
  // both modes use, so draw order and uid layout agree bit for bit.
  JobState& append_job(const JobSpec& spec);
  bool streaming() const { return source_ != nullptr; }
  // Admits every job that is due (its arrival precedes the next event) or
  // within the look-ahead window, subject to the resident ceilings.
  void pump_admissions();
  void admit_job(JobSpec&& spec);
  // Folds a completed job into SimResult, drops its stage/task state
  // (scheduler-view state included), and pops the contiguous retired
  // prefix.
  void retire_job(JobState& job);
  void pop_retired_prefix();
  // fold_record() folds a job's record into the makespan bounds and,
  // unless records are dropped, appends it. record_job() passes it the
  // record of a resident job, at retirement or at finalize(); finalize()
  // also passes it a finish = -1 record for each job the source never
  // released.
  void record_job(const JobState& job);
  void fold_record(JobRecord rec);

  // ---- event handlers ----
  void on_arrival(JobId job);
  void on_finish(int uid, long generation);
  void on_heartbeat(Scheduler& scheduler);
  void on_timeline();
  void on_activity(int index, bool start);
  void on_machine_down(MachineId m);
  void on_machine_up(MachineId m);
  // The transition both share once nesting has settled it: churn
  // counters, up capacity, replica mask, localities, external usage and
  // the rack uplink; going down, every attempt touching the machine is
  // killed or fails its reads over first.
  void set_machine_up(MachineId m, bool up);
  void failover_reads(int uid);

  // ---- churn helpers (churn.cc) ----
  bool machine_is_up(MachineId m) const {
    return machines_[static_cast<std::size_t>(m)].up();
  }
  // Replica mask for placement resolution; null while everything is up so
  // the no-churn hot path keeps the original (cheaper) replica pick.
  const std::vector<char>* up_mask() const {
    return down_count_ > 0 ? &machine_up_ : nullptr;
  }
  void update_rack_uplink(MachineId member);
  // Folds the elapsed interval into the effective-capacity integral; call
  // before every change to the set of up machines.
  void account_up_capacity() {
    up_capacity_integral_ += (now_ - last_up_change_) * up_fraction_;
    last_up_change_ = now_;
  }
  double compute_up_fraction() const;

  // ---- job / task addressing ----
  // Both containers are deques with a base offset: streaming pops the
  // retired prefix while ids and uids keep indexing in O(1). In batch mode
  // the bases stay 0 and these are plain indexed lookups.
  JobState& job_at(JobId id) {
    return jobs_[static_cast<std::size_t>(static_cast<long>(id) -
                                          jobs_base_)];
  }
  const JobState& job_at(JobId id) const {
    return const_cast<Simulator*>(this)->job_at(id);
  }
  bool has_job(JobId id) const {
    const long i = static_cast<long>(id);
    return i >= jobs_base_ && i < jobs_base_ + static_cast<long>(jobs_.size());
  }
  bool has_task(int uid) const {
    const long i = static_cast<long>(uid) - locs_base_;
    if (i < 0 || i >= static_cast<long>(locs_.size())) return false;
    // A job retired mid-deque (an older job still resident blocks the
    // prefix pop) keeps its locs entries but its stages are a shell:
    // its tasks are gone too.
    const TaskLoc& l = locs_[static_cast<std::size_t>(i)];
    return !jobs_[static_cast<std::size_t>(static_cast<long>(l.job) -
                                           jobs_base_)]
                .retired;
  }

  // ---- task lifecycle (admission.cc) ----
  TaskState& task_at(int uid) {
    const TaskLoc& l =
        locs_[static_cast<std::size_t>(static_cast<long>(uid) - locs_base_)];
    return job_at(l.job)
        .stages[static_cast<std::size_t>(l.stage)]
        .tasks[static_cast<std::size_t>(l.index)];
  }
  const TaskState& task_at(int uid) const {
    return const_cast<Simulator*>(this)->task_at(uid);
  }
  const TaskLoc& loc_at(int uid) const {
    return locs_[static_cast<std::size_t>(static_cast<long>(uid) -
                                          locs_base_)];
  }
  void start_task(const Probe& probe);
  void complete_task(int uid, bool failed,
                     trace::KillReason reason = trace::KillReason::kFault);
  void materialize_stage(JobState& job, int stage_index);
  void make_stage_runnable(JobState& job, int stage_index);
  // Folds the same-rack-as-input clause into the stage's static admit
  // mask (inputs are final once materialized); returns false — dooming
  // the job — when the combined mask admits no machine (DESIGN.md §13).
  bool finalize_admit_mask(JobState& job, int stage_index);
  void doom_job(JobState& job, int stage_index);

  // ---- the books (books.cc) ----
  // The true books of a running attempt: its placement's demand on the
  // host and on every remote leg (each machine marked dirty) and its
  // job's current allocation. Every Machine add/remove of a demand goes
  // through this pair; the scheduler's estimate books do not.
  void charge(JobState& job, const TaskState& task);
  void release(JobState& job, const TaskState& task);
  // The scheduler's estimate books of an attempt: the allocations the
  // allocation tracker reports, hosted counts and anti-affinity hosts.
  void book_estimates(JobState& job, const TaskState& task);
  void unbook_estimates(JobState& job, const TaskState& task);
  // Uids of every running attempt with a demand on machine m (hosted or a
  // remote leg), sorted.
  std::vector<int> tasks_touching(MachineId m) const;
  // Capacity of `rack`'s uplink: the NIC bandwidth of its up members over
  // the oversubscription factor.
  Resources rack_uplink(int rack) const;
  // Adds rack-uplink legs for cross-rack remote reads (no-op with rack
  // modeling disabled).
  void add_rack_legs(MachineId host, PlacementDemand& pd) const;
  // Machine m's availability as its tracker reports it (§4.1).
  Resources tracker_available(MachineId m) const;
  // ---- rate recomputation ----
  void mark_dirty(MachineId m);
  // Re-predicts the finish of every task whose speed can have moved and
  // clears the dirty set (DESIGN.md §4, "Rate recompute"): each task on a
  // dirty machine that is not quiet, and each attempt charged since the
  // last call. A quiet dirty machine only logs the call's time.
  void refresh_dirty();
  // One task's re-prediction, at most once per refresh_dirty call.
  void repredict(int uid);
  // Drops the logged times that no task on machine m still has to bank.
  void trim_refresh_log(MachineId m);
  // Puts one refresh's finish events in the tie order the golden digests
  // pin (books.cc); called only when two of them have the same time.
  void order_as_hash_set(std::vector<Event>& events) const;
  // Banks the progress running task t earned at the refreshes that logged
  // rather than visited it: the logged times after t.progress_updated_at
  // on its host and legs, in time order, as those visits would have. Every
  // read of t.progress comes after a call.
  void bank_progress(TaskState& t);
  // bank_progress, then on up to now_.
  void update_progress(TaskState& t);
  double compute_speed(const TaskState& t) const;
  double target_progress(const TaskState& t) const {
    return t.will_fail ? t.fail_at_progress : 1.0;
  }

  // ---- the scheduler's view (view.cc) ----
  // The admission predicate every scan path shares; see
  // SchedulerContext::constraints_admit for the contract (DESIGN.md §13).
  bool constraints_admit(const GroupRef& group, MachineId m) const;
  // Runnable-set upkeep, including the stage's locality index and probe
  // slots (DESIGN.md §8.3) outside naive_scheduler_view.
  void add_runnable(StageState& stage, int task_index);
  void remove_runnable(StageState& stage, int task_index);
  // Whether a runnable task may be a probe candidate: tasks whose every
  // replica of some input is down cannot run anywhere until a recovery;
  // they stay runnable but are not candidates.
  bool candidate_viable(const TaskState& task) const {
    return down_count_ == 0 || inputs_available(task.spec, machine_up_);
  }
  // A churn epoch changed viability: re-evaluate every live locality
  // index (uplink capacities reach the probes through their slot stamps;
  // the naive view has no index to revalidate).
  void revalidate_localities();
  // Longest-waiting runnable task of `stage` via its wait FIFO (pops
  // stale fronts); exact equal of the naive scan over runnable_indices.
  double stage_longest_wait(StageState& stage) const;
  EstFactors est_factors(const JobState& job, int stage_index) const;
  // Everything est_factors() reads that can change while a stage is
  // resident, as one stamp for the stage's probe and estimate slots:
  // nothing under kOracle and kNoisy (their factors are fixed at
  // admission); under kLearnedProfile, the profiling epoch and whether
  // the stage has finished enough tasks to be profiled itself.
  std::uint64_t estimate_epoch(const StageState& stage) const {
    if (config_.estimation.mode != EstimationMode::kLearnedProfile) return 0;
    return profile_version_ * 2 +
           (stage.finished >= config_.estimation.profile_after ? 1 : 0);
  }
  // The probe of candidate `task_index` on `machine`, whose local fraction
  // is `local_frac`; reuses p's remote-leg buffer.
  void build_probe(const JobState& job, int stage_index, int task_index,
                   MachineId machine, double local_frac, Probe& p) const;

  // ---- members ----
  SimConfig config_;
  InterferenceModel interference_;
  std::vector<Machine> machines_;  // real machines, then rack uplinks
  int num_real_machines_ = 0;
  std::vector<Resources> alloc_est_;  // scheduler-visible allocations
  std::vector<int> hosted_count_;
  // The latest start_task time per machine (-inf before the first; uplinks
  // host nothing). A value newer than any hosted start only costs the
  // tracker a walk, so a finish or kill leaves it be.
  std::vector<SimTime> newest_start_;
  Resources cluster_capacity_;
  Resources avg_capacity_;
  Resources max_capacity_;  // component-wise max over machines

  std::deque<JobState> jobs_;
  long jobs_base_ = 0;  // id of jobs_.front(); retired prefix popped
  std::deque<TaskLoc> locs_;
  long locs_base_ = 0;  // uid of locs_.front()
  std::unordered_set<int> profiled_templates_;

  // ---- streaming state (DESIGN.md §11); inert in batch mode ----
  JobSource* source_ = nullptr;
  long total_jobs_ = 0;   // source_->total_jobs(), or workload size
  int next_uid_ = 0;
  // Arrival events carry reserved sequence numbers arrival_seq_base_ + id,
  // laid out exactly where batch mode's upfront pushes would have put
  // them, so (time, seq) ordering — and with it every tie-break — is
  // identical no matter when a job is actually admitted.
  long arrival_seq_base_ = 0;
  long resident_jobs_ = 0;   // admitted minus retired
  long resident_tasks_ = 0;
  bool next_deferred_ = false;  // current head-of-source already counted
  // Incremental makespan accounting (batch recomputes these at the end;
  // streaming cannot, the records are folded away).
  SimTime first_arrival_ = std::numeric_limits<double>::infinity();
  SimTime last_finish_ = 0;
  long total_finished_tasks_ = 0;

  std::priority_queue<Event, std::vector<Event>, EventLater> events_;
  long next_seq_ = 0;
  SimTime now_ = 0;
  // Set when a popped event lies beyond max_time: the run is over, stepped
  // drivers must not process further (run() breaks out of its loop).
  bool past_max_time_ = false;
  // Set by halt_resident(): the cell died; no further scheduling, and
  // finalize() reports the abandoned jobs with finish = -1.
  bool halted_ = false;

  std::vector<char> dirty_flags_;
  std::vector<MachineId> dirty_list_;
  // refresh_dirty's call count (TaskState::refresh_epoch stamps a task
  // visited in the current call), its reused event buffer, and the uids
  // of the attempts charged (started or failed over) since its last call.
  long refresh_epoch_ = 0;
  std::vector<Event> finishes_;
  std::vector<int> charged_;
  // One per machine (real machines, then rack uplinks). A dirty machine is
  // quiet when it was uncontended at its last refresh and still is: every
  // grant ratio on it was and is 1.0, so no task's speed moves on its
  // account, and the refresh logs the time instead of visiting its tasks.
  struct RefreshLog {
    static constexpr std::size_t kMinTrim = 64;
    std::vector<SimTime> times;      // non-decreasing
    std::size_t trim_at = kMinTrim;  // size at which trim_refresh_log runs
    bool uncontended = true;         // at the machine's last refresh
  };
  std::vector<RefreshLog> refresh_logs_;
  std::vector<SimTime> replay_;  // bank_progress's merge buffer

  // ---- scheduler-view state (DESIGN.md §8.3; naive_scheduler_view
  // bypasses it). Probes and group estimates are served from state each
  // stage owns (StageState: locality index, probe slots, estimate slot),
  // stamped with these versions; a served value is always the
  // bit-identical output of the naive recomputation it replaced.
  std::uint64_t churn_version_ = 0;
  std::uint64_t profile_version_ = 0;
  int runnable_total_ = 0;  // cluster-wide runnable tasks (pass backlog)
  mutable util::PerfCounters perf_;

  // ---- churn state (real machines only; uplinks never fail) ----
  std::vector<char> machine_up_;
  std::vector<int> down_depth_;  // overlapping down windows nest
  int down_count_ = 0;
  std::vector<MachineEvent> churn_events_;  // scripted + generated
  // Per-machine sum of currently-active background activities; applied to
  // the machine only while it is up (activities suspend with it).
  std::vector<Resources> external_active_;
  Resources up_capacity_;  // capacity sum over up machines
  double up_fraction_ = 1.0;
  double up_capacity_integral_ = 0;
  SimTime last_up_change_ = 0;

  // Sorted union of labels any machine declares; the universe the
  // workload's constraints are validated against.
  std::vector<std::string> declared_labels_;

  Rng rng_;
  // kNoisy factor stream, forked from rng_ after the churn stream in both
  // modes; streaming draws from it lazily at admission, in job-id order —
  // the same sequence batch mode consumes upfront.
  Rng noise_rng_;
  int running_total_ = 0;
  long completed_jobs_ = 0;
  // Jobs abandoned because a stage's constraints admit no machine; they
  // count toward loop termination but never toward completion.
  long doomed_jobs_ = 0;

  // Event tracing (DESIGN.md §10); null unless SimConfig::trace.enabled.
  // Every record happens on the event-loop thread (the scheduler's
  // placement records included), so the stream order is deterministic.
  std::unique_ptr<trace::Recorder> tracer_;
  long pass_index_ = 0;

  SimResult result_;
};

// The scheduler-facing context of one pass (view.cc).
class Simulator::ContextImpl final : public SchedulerContext {
 public:
  // The pass's availability view: one entry per machine (real machines,
  // then rack uplinks), built from every machine's tracker report and
  // mutated only by place()/preempt() below. It is built here when the
  // backlog is non-empty or under naive_scheduler_view, otherwise on
  // first use.
  explicit ContextImpl(Simulator& sim);

  SimTime now() const override { return sim_.now_; }
  int num_machines() const override { return sim_.num_real_machines_; }
  const Resources& capacity(MachineId m) const override {
    return sim_.machines_[static_cast<std::size_t>(m)].capacity();
  }
  const Resources& cluster_capacity() const override {
    return sim_.cluster_capacity_;
  }
  Resources available(MachineId m) const override {
    if (avail_.empty()) build_avail();
    return avail_[static_cast<std::size_t>(m)];
  }
  int running_tasks_on(MachineId m) const override {
    return sim_.hosted_count_[static_cast<std::size_t>(m)];
  }
  bool machine_up(MachineId m) const override {
    return m >= 0 && m < static_cast<int>(sim_.machines_.size()) &&
           sim_.machine_is_up(m);
  }
  bool constraints_admit(const GroupRef& group, MachineId m) const override {
    return sim_.constraints_admit(group, m);
  }
  JobId retired_before() const override {
    return static_cast<JobId>(sim_.jobs_base_);
  }

  std::vector<GroupView> runnable_groups() const override;
  std::vector<JobView> active_jobs() const override;
  std::vector<GroupView> imminent_groups() const override;
  Probe probe(const GroupRef& group, MachineId machine) const override;
  void probe_into(const GroupRef& group, MachineId machine,
                  Probe* out) const override;
  bool place(const Probe& probe) override;
  std::vector<RunningTaskView> running_tasks() const override;
  bool preempt(int task_uid) override;
  util::PerfCounters* perf_counters() override { return &sim_.perf_; }
  trace::Recorder* tracer() override { return sim_.tracer_.get(); }

  long placements = 0;

 private:
  // Representative estimated per-task demand for a stage (local view).
  void fill_group_estimates(JobState& job, int stage_index,
                            GroupView& view) const;
  // Fills avail_ from every machine's tracker report; empty until then.
  void build_avail() const;

  Simulator& sim_;
  mutable std::vector<Resources> avail_;
};

}  // namespace tetris::sim
