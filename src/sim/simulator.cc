#include "sim/simulator.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <deque>
#include <limits>
#include <memory>
#include <queue>
#include <sstream>
#include <stdexcept>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "sim/job_state.h"
#include "sim/machine.h"
#include "trace/event.h"
#include "trace/recorder.h"
#include "util/perf_counters.h"
#include "util/rng.h"

namespace tetris::sim {

namespace {

constexpr double kSpeedEps = 1e-9;
// Progress target slack: a task whose progress is within this of its target
// is considered done (floating-point rounding of event times).
constexpr double kProgressEps = 1e-9;
// Cap on distinct shuffle sources per downstream split; real shuffles read
// from every map machine, but the heaviest sources dominate bandwidth.
constexpr std::size_t kMaxShuffleSources = 8;

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

class Simulator;

class Simulator {
 public:
  // Batch mode: the whole workload is materialized upfront.
  Simulator(const SimConfig& config, const Workload& workload);
  // Streaming mode (DESIGN.md §11): jobs are pulled from `source`
  // incrementally and retired on completion. `source` must outlive the run.
  Simulator(const SimConfig& config, JobSource& source);
  SimResult run(Scheduler& scheduler);

  // ---- stepped execution (DESIGN.md §14) ----
  // run() is prepare() + a step_one() loop + finalize(); SimEngine drives
  // the same three phases under an external clock. One event is processed
  // per step; `limit` leaves events at/after it (exclusive) or strictly
  // after it (inclusive) in the queue for a later step.
  enum class StepStatus {
    kProcessed,  // one event consumed
    kIdle,       // queue empty after pumping, or past max_time
    kCutoff,     // next event lies beyond `limit`
  };
  void prepare(Scheduler& scheduler);
  StepStatus step_one(Scheduler& scheduler, SimTime limit, bool inclusive);
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
  long completed_or_doomed() const { return completed_jobs_ + doomed_jobs_; }
  long completed_jobs() const { return completed_jobs_; }
  bool halted() const { return halted_; }

 private:
  friend class ContextImpl;
  class ContextImpl;

  // ---- setup ----
  void init_cluster();
  void init_states(const Workload& workload);
  // Builds the JobState for `spec`, assigns contiguous uids, extends
  // locs_, and (kNoisy) draws the job's noise factors — the single path
  // both modes use, so draw order and uid layout agree bit for bit.
  JobState& append_job(const JobSpec& spec);
  void validate_job_spec(const JobSpec& spec) const;
  void push(Event e) {
    e.seq = next_seq_++;
    events_.push(e);
  }

  // ---- streaming ingestion / retirement ----
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

  // ---- event handlers ----
  void on_arrival(JobId job);
  void on_finish(int uid, long generation);
  void on_heartbeat(Scheduler& scheduler);
  void on_timeline();
  void on_activity(int index, bool start);
  void on_machine_down(MachineId m);
  void on_machine_up(MachineId m);
  void failover_reads(int uid);

  // ---- churn helpers ----
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

  // ---- task lifecycle ----
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

  // ---- placement constraints (DESIGN.md §13) ----
  // The admission predicate every scan path shares; see
  // SchedulerContext::constraints_admit for the contract.
  bool constraints_admit(const GroupRef& group, MachineId m) const;
  // Label-clause admissibility of machine m (true when the stage has no
  // label clauses).
  bool labels_admit(const PlacementConstraint& c, MachineId m) const;
  // Folds the same-rack-as-input clause into the stage's static admit
  // mask (inputs are final once materialized); returns false — dooming
  // the job — when the combined mask admits no machine.
  bool finalize_admit_mask(JobState& job, int stage_index);
  void doom_job(JobState& job, int stage_index);
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

  // ---- rate recomputation ----
  void mark_dirty(MachineId m);
  void refresh_dirty();
  void update_progress(TaskState& t);
  double compute_speed(const TaskState& t) const;
  double target_progress(const TaskState& t) const {
    return t.will_fail ? t.fail_at_progress : 1.0;
  }

  // ---- estimation / tracker ----
  // Adds rack-uplink legs for cross-rack remote reads (no-op with rack
  // modeling disabled).
  void add_rack_legs(MachineId host, PlacementDemand& pd) const;
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
  // When `has_young` is non-null it is set to whether the machine hosts a
  // task still inside the ramp-up window — i.e. whether the kUsage view
  // of this machine is time-dependent and must be recomputed next pass
  // even without a demand change.
  Resources tracker_available(MachineId m, bool* has_young = nullptr) const;

  void run_pass(Scheduler& scheduler);
  void sample_fairness(double dt);

  // ---- members ----
  SimConfig config_;
  InterferenceModel interference_;
  std::vector<Machine> machines_;  // real machines, then rack uplinks
  int num_real_machines_ = 0;
  // SoA mirror of every machine's capacity (DESIGN.md §12), lane =
  // machine id; kept coherent with set_capacity by update_rack_uplink.
  util::ResourcePlanes cap_planes_;
  std::vector<Resources> alloc_est_;  // scheduler-visible allocations
  std::vector<int> hosted_count_;
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

  // ---- scheduler-view caches (DESIGN.md §8; naive_scheduler_view
  // bypasses them all). Caches are lazy recompute-on-dirty, never
  // incremental arithmetic: a served value is always the bit-identical
  // output of the naive recomputation it replaced.
  //
  // Availability cache: tracker_available(m) from the previous pass,
  // reusable while nothing changed the machine's books. avail_dirty_ is
  // set by mark_dirty() and by the est-book updates that do not touch
  // true demands; unlike dirty_flags_ it survives until the next pass
  // consumes it. ramping_ flags machines whose kUsage view decays with
  // time (a hosted task inside the ramp-up window): they recompute every
  // pass until the youngster ages out.
  std::vector<Resources> avail_cache_;
  std::vector<char> avail_dirty_;
  std::vector<char> ramping_;
  // Probes and group estimates are served from state each stage owns
  // (StageState: locality index, probe slots, estimate slot; DESIGN.md
  // §8.3).
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
  // kNoisy factor stream, forked from rng_ at the same point in both
  // modes; streaming draws from it lazily at admission, in job-id order —
  // the same sequence batch mode consumes upfront.
  Rng noise_rng_;
  int running_total_ = 0;
  long completed_jobs_ = 0;
  // Jobs abandoned because a stage's constraints admit no machine; they
  // count toward loop termination but never toward completion.
  long doomed_jobs_ = 0;
  std::vector<TaskReport> reports_;

  // Event tracing (DESIGN.md §10); null unless SimConfig::trace.enabled.
  // Every record happens on the event-loop thread (the scheduler's
  // placement records included), so the stream order is deterministic.
  std::unique_ptr<trace::Recorder> tracer_;
  long pass_index_ = 0;

  SimResult result_;
};

// ---------------------------------------------------------------------------
// Scheduler-facing context

class Simulator::ContextImpl final : public SchedulerContext {
 public:
  // The pass's availability view lives in SoA planes (DESIGN.md §12):
  // one lane per machine (real machines, then rack uplinks), built here
  // from the tracker caches and mutated only by place()/preempt() below —
  // so the planes stay coherent with available() by construction, through
  // every placement commit. Cross-pass mutations (task completion, churn
  // up/down, tracker usage updates) land in avail_cache_/avail_dirty_ and
  // flow in at the next pass's rebuild.
  explicit ContextImpl(Simulator& sim) : sim_(sim) {
    const std::size_t n = sim_.machines_.size();
    avail_.reset(n);
    if (sim_.config_.naive_scheduler_view) {
      for (std::size_t m = 0; m < n; ++m) {
        avail_.set(m, sim_.tracker_available(static_cast<MachineId>(m)));
        sim_.perf_.avail_recomputes++;
      }
      return;
    }
    const bool usage = sim_.config_.tracker == TrackerMode::kUsage;
    for (std::size_t m = 0; m < n; ++m) {
      if (sim_.avail_dirty_[m] || (usage && sim_.ramping_[m])) {
        bool young = false;
        sim_.avail_cache_[m] =
            sim_.tracker_available(static_cast<MachineId>(m), &young);
        sim_.ramping_[m] = young ? 1 : 0;
        sim_.avail_dirty_[m] = 0;
        sim_.perf_.avail_recomputes++;
      } else {
        sim_.perf_.avail_cache_hits++;
      }
      avail_.set(m, sim_.avail_cache_[m]);
    }
  }

  SimTime now() const override { return sim_.now_; }
  int num_machines() const override { return sim_.num_real_machines_; }
  const Resources& capacity(MachineId m) const override {
    return sim_.machines_[static_cast<std::size_t>(m)].capacity();
  }
  const Resources& cluster_capacity() const override {
    return sim_.cluster_capacity_;
  }
  Resources available(MachineId m) const override {
    return avail_.gather(static_cast<std::size_t>(m));
  }
  const util::ResourcePlanes* availability_planes() const override {
    return &avail_;
  }
  const util::ResourcePlanes* capacity_planes() const override {
    return &sim_.cap_planes_;
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
  std::vector<TaskReport> take_reports() override {
    return std::exchange(sim_.reports_, {});
  }
  util::PerfCounters* perf_counters() override { return &sim_.perf_; }
  trace::Recorder* tracer() override { return sim_.tracer_.get(); }

  long placements = 0;

 private:
  // Representative estimated per-task demand for a stage (local view).
  void fill_group_estimates(JobState& job, int stage_index,
                            GroupView& view) const;

  Simulator& sim_;
  util::ResourcePlanes avail_;
};

std::vector<GroupView> Simulator::ContextImpl::runnable_groups() const {
  const bool naive = sim_.config_.naive_scheduler_view;
  std::vector<GroupView> out;
  for (auto& job : sim_.jobs_) {
    if (!job.arrived || job.complete()) continue;
    for (int s = 0; s < static_cast<int>(job.stages.size()); ++s) {
      StageState& stage = job.stages[static_cast<std::size_t>(s)];
      if (stage.runnable <= 0) continue;
      GroupView v;
      v.ref = {job.id, s};
      v.runnable = stage.runnable;
      v.running = stage.running;
      v.finished = stage.finished;
      v.total = stage.total();
      if (naive) {
        for (int idx : stage.runnable_indices) {
          const auto& task = stage.tasks[static_cast<std::size_t>(idx)];
          if (task.runnable_since >= 0) {
            v.longest_wait =
                std::max(v.longest_wait, sim_.now_ - task.runnable_since);
          }
        }
      } else {
        v.longest_wait = sim_.stage_longest_wait(stage);
      }
      fill_group_estimates(job, s, v);
      out.push_back(std::move(v));
    }
  }
  // Flag stages that feed other stages.
  for (auto& v : out) {
    const auto& job = sim_.job_at(v.ref.job);
    for (const auto& st : job.stages) {
      if (std::find(st.deps.begin(), st.deps.end(), v.ref.stage) !=
          st.deps.end()) {
        v.has_dependents = true;
        break;
      }
    }
  }
  return out;
}

std::vector<GroupView> Simulator::ContextImpl::imminent_groups() const {
  std::vector<GroupView> out;
  for (auto& job : sim_.jobs_) {
    if (!job.arrived || job.complete()) continue;
    for (int s = 0; s < static_cast<int>(job.stages.size()); ++s) {
      const StageState& stage = job.stages[static_cast<std::size_t>(s)];
      if (stage.unfinished_deps == 0) continue;  // runnable or running
      // Imminent iff every dependency stage is fully placed (no runnable
      // or blocked tasks left) — only running tasks gate the barrier.
      double eta = 0;
      bool imminent = true;
      for (int d : stage.deps) {
        const StageState& dep = job.stages[static_cast<std::size_t>(d)];
        if (dep.done()) continue;
        if (dep.runnable > 0 || dep.running + dep.finished < dep.total()) {
          imminent = false;
          break;
        }
        for (const auto& task : dep.tasks) {
          if (task.status != TaskStatus::kRunning) continue;
          if (task.speed <= 0 || task.placement.duration <= 0) {
            imminent = false;
            break;
          }
          const double remaining =
              (1.0 - task.progress) * task.placement.duration / task.speed;
          eta = std::max(eta,
                         task.progress_updated_at + remaining - sim_.now_);
        }
        if (!imminent) break;
      }
      if (!imminent) continue;
      GroupView v;
      v.ref = {job.id, s};
      v.total = stage.total();
      v.eta = std::max(0.0, eta);
      fill_group_estimates(job, s, v);
      out.push_back(std::move(v));
    }
  }
  return out;
}

void Simulator::ContextImpl::fill_group_estimates(JobState& job,
                                                  int stage_index,
                                                  GroupView& view) const {
  StageState& stage = job.stages[static_cast<std::size_t>(stage_index)];
  const bool naive = sim_.config_.naive_scheduler_view;
  if (!naive) {
    // The estimate is a pure function of the representative task and the
    // estimation inputs, so it replays while those stay put.
    const EstimateSlot& e = stage.estimate;
    if (e.rep == stage.first_runnable &&
        e.estimate_epoch == sim_.estimate_epoch(stage)) {
      view.est_demand = e.est_demand;
      view.est_duration = e.est_duration;
      view.est_task_work = e.est_task_work;
      sim_.perf_.estimate_cache_hits++;
      return;
    }
  }
  // Representative: the first runnable task (tasks of a stage are
  // statistically similar, §4.1).
  const TaskState* rep = nullptr;
  if (naive) {
    for (const auto& t : stage.tasks) {
      if (t.status == TaskStatus::kRunnable) {
        rep = &t;
        break;
      }
    }
  } else if (stage.first_runnable >= 0) {
    rep = &stage.tasks[static_cast<std::size_t>(stage.first_runnable)];
  }
  if (rep == nullptr) rep = &stage.tasks.front();
  const PlacementDemand pd = compute_local_placement(rep->spec);
  const EstFactors f = sim_.est_factors(job, stage_index);
  view.est_demand = pd.local;
  for (std::size_t i = 0; i < kNumResources; ++i)
    view.est_demand.at(i) *= f.demand.at(i);
  // Keep group estimates placeable on the largest machine (matches the
  // per-machine clamp in probe()), or prefilters would starve the group.
  view.est_demand = view.est_demand.cwise_min(sim_.max_capacity_);
  view.est_duration = pd.duration * f.duration;
  view.est_task_work =
      view.est_demand.normalized_by(sim_.avg_capacity_).sum() *
      view.est_duration;
  if (!naive) {
    stage.estimate = {stage.first_runnable, sim_.estimate_epoch(stage),
                      view.est_demand, view.est_duration, view.est_task_work};
    sim_.perf_.estimate_cache_misses++;
  }
}

std::vector<JobView> Simulator::ContextImpl::active_jobs() const {
  std::vector<JobView> out;
  for (auto& job : sim_.jobs_) {
    if (!job.arrived || job.complete()) continue;
    JobView v;
    v.id = job.id;
    v.arrival = job.arrival;
    v.template_id = job.template_id;
    v.queue = job.queue;
    v.total_tasks = job.total_tasks;
    v.finished_tasks = job.finished_tasks;
    v.running_tasks = job.running_tasks;
    v.current_alloc = job.current_alloc;
    for (int s = 0; s < static_cast<int>(job.stages.size()); ++s) {
      const StageState& stage = job.stages[static_cast<std::size_t>(s)];
      v.runnable_tasks += stage.runnable;
      const int remaining = stage.total() - stage.finished;
      if (remaining == 0) continue;
      GroupView g;
      fill_group_estimates(job, s, g);
      v.remaining_work += g.est_task_work * remaining;
    }
    out.push_back(std::move(v));
  }
  return out;
}

Probe Simulator::ContextImpl::probe(const GroupRef& group,
                                    MachineId machine) const {
  Probe p;
  probe_into(group, machine, &p);
  return p;
}

void Simulator::ContextImpl::probe_into(const GroupRef& group,
                                        MachineId machine, Probe* out) const {
  // Reset in place: everything but the remote vector's capacity.
  Probe& p = *out;
  p.valid = false;
  p.group = group;
  p.machine = machine;
  p.task_index = -1;
  p.demand = Resources{};
  p.remote.clear();
  p.duration = 0;
  p.local_fraction = 1.0;
  p.task_work = 0;
  // Down machines admit nothing; uplink ids are not placement targets.
  if (machine < 0 || machine >= sim_.num_real_machines_ ||
      !sim_.machine_is_up(machine))
    return;
  if (!sim_.has_job(group.job)) return;
  JobState& job = sim_.job_at(group.job);
  if (group.stage < 0 || group.stage >= static_cast<int>(job.stages.size()))
    return;
  StageState& stage = job.stages[static_cast<std::size_t>(group.stage)];

  if (sim_.config_.naive_scheduler_view) {
    // The oracle recomputes from scratch: a bounded scan over the first
    // runnable candidates, one split scan per (candidate, machine).
    int best = -1;
    double best_frac = -1;
    const std::size_t scan =
        std::min(stage.runnable_indices.size(), kMaxLocalityScan);
    for (std::size_t i = 0; i < scan; ++i) {
      const int idx = stage.runnable_indices[i];
      const TaskState& t = stage.tasks[static_cast<std::size_t>(idx)];
      if (!sim_.candidate_viable(t)) continue;
      const double frac = local_fraction(t.spec, machine);
      if (frac > best_frac) {
        best_frac = frac;
        best = idx;
      }
      if (best_frac >= 1.0) break;
    }
    if (best >= 0)
      sim_.build_probe(job, group.stage, best, machine, best_frac, p);
    return;
  }

  // The stage's own state answers: its locality index names the
  // candidate, and this machine's slot replays the probe while the
  // candidate and every other input of the probe are unchanged.
  const auto m = static_cast<std::size_t>(machine);
  if (stage.probe_slots.empty()) {  // no runnable task left
    sim_.perf_.probe_cache_misses++;
    return;
  }
  const int pos = stage.locality.best(machine);
  const int candidate =
      pos < 0 ? -1 : stage.runnable_indices[static_cast<std::size_t>(pos)];
  ProbeSlot& slot = stage.probe_slots[m];
  if (slot.churn_version == sim_.churn_version_ &&
      slot.estimate_epoch == sim_.estimate_epoch(stage) &&
      (slot.candidate == candidate ||
       (slot.candidate >= 0 && candidate >= 0 &&
        placement_twins(
            stage.tasks[static_cast<std::size_t>(slot.candidate)].spec,
            stage.tasks[static_cast<std::size_t>(candidate)].spec)))) {
    // A twin of the slot's candidate probes identically but for its index.
    slot.candidate = candidate;
    slot.probe.task_index = candidate;
    sim_.perf_.probe_cache_hits++;
    p = slot.probe;
    return;
  }
  sim_.perf_.probe_cache_misses++;
  if (candidate >= 0) {
    sim_.build_probe(job, group.stage, candidate, machine,
                     stage.locality.best_frac(machine), p);
  }
  slot.candidate = candidate;
  slot.churn_version = sim_.churn_version_;
  slot.estimate_epoch = sim_.estimate_epoch(stage);
  slot.probe = p;
}

void Simulator::build_probe(const JobState& job, int stage_index,
                            int task_index, MachineId machine,
                            double local_frac, Probe& p) const {
  const TaskState& task = job.stages[static_cast<std::size_t>(stage_index)]
                              .tasks[static_cast<std::size_t>(task_index)];
  // The true legs are computed straight into the probe's own buffer and
  // turned into estimates in place.
  PlacementDemand pd;
  pd.remote.swap(p.remote);
  compute_placement_into(task.spec, machine,
                         static_cast<unsigned long long>(task.uid), up_mask(),
                         &pd);
  add_rack_legs(machine, pd);
  const EstFactors f = est_factors(job, stage_index);

  p.valid = true;
  p.task_index = task_index;
  p.demand = pd.local;
  for (std::size_t i = 0; i < kNumResources; ++i)
    p.demand.at(i) *= f.demand.at(i);
  // An over-estimate must never exceed the whole machine, or the task
  // could become permanently unplaceable.
  p.demand = p.demand.cwise_min(
      machines_[static_cast<std::size_t>(machine)].capacity());
  for (auto& leg : pd.remote) {
    // As with the local clamp above: a demand beyond the path's capacity
    // (e.g. an oversubscribed rack uplink) would make the task permanently
    // unplaceable; it is admitted at full path rate and just runs slower.
    const Resources& leg_cap =
        machines_[static_cast<std::size_t>(leg.machine)].capacity();
    leg.disk_read = std::min(leg.disk_read * f.demand[Resource::kDiskRead],
                             leg_cap[Resource::kDiskRead]);
    leg.net_out = std::min(leg.net_out * f.demand[Resource::kNetOut],
                           leg_cap[Resource::kNetOut]);
    leg.net_in = std::min(leg.net_in * f.demand[Resource::kNetIn],
                          leg_cap[Resource::kNetIn]);
  }
  p.remote.swap(pd.remote);
  p.duration = pd.duration * f.duration;
  p.local_fraction = local_frac;
  p.task_work = p.demand.normalized_by(avg_capacity_).sum() * p.duration;
}

bool Simulator::ContextImpl::place(const Probe& probe) {
  if (!probe.valid) return false;
  if (probe.machine < 0 || probe.machine >= sim_.num_real_machines_ ||
      !sim_.machine_is_up(probe.machine))
    return false;
  if (!sim_.has_job(probe.group.job)) return false;
  JobState& job = sim_.job_at(probe.group.job);
  StageState& stage = job.stages[static_cast<std::size_t>(probe.group.stage)];
  TaskState& task = stage.tasks[static_cast<std::size_t>(probe.task_index)];
  if (task.status != TaskStatus::kRunnable) return false;
  // Independent re-validation of the placement constraints: a scheduler
  // that never consulted constraints_admit loses the placement here, so
  // constraint violations are impossible, not merely unlikely.
  if (!sim_.constraints_admit(probe.group, probe.machine)) return false;

  sim_.start_task(probe);
  ++placements;

  // Keep this pass's availability view in sync with the commitment.
  // sub_max_zero is per-lane `(avail - demand).max_zero()` — the same
  // component ops in the same order the Resources expression performed.
  avail_.sub_max_zero(static_cast<std::size_t>(probe.machine), probe.demand);
  for (const auto& leg : probe.remote) {
    avail_.sub_max_zero(static_cast<std::size_t>(leg.machine),
                        leg_resources(leg));
  }
  return true;
}

std::vector<RunningTaskView> Simulator::ContextImpl::running_tasks() const {
  std::vector<RunningTaskView> out;
  for (const auto& job : sim_.jobs_) {
    if (!job.arrived || job.complete()) continue;
    for (std::size_t s = 0; s < job.stages.size(); ++s) {
      for (const auto& task : job.stages[s].tasks) {
        if (task.status != TaskStatus::kRunning) continue;
        RunningTaskView v;
        v.uid = task.uid;
        v.job = job.id;
        v.stage = static_cast<int>(s);
        v.machine = task.host;
        v.started = task.start_time;
        v.demand = task.est_local;
        out.push_back(v);
      }
    }
  }
  return out;
}

bool Simulator::ContextImpl::preempt(int task_uid) {
  if (!sim_.has_task(task_uid)) return false;
  TaskState& task = sim_.task_at(task_uid);
  if (task.status != TaskStatus::kRunning) return false;
  // Capture the booked estimates before the requeue clears the machines,
  // so this pass's availability view regains what the kill frees.
  const auto est_local = task.est_local;
  const auto est_remote = task.est_remote;
  const MachineId host = task.host;
  sim_.complete_task(task_uid, /*failed=*/true, trace::KillReason::kPreempt);
  // add_cwise_min is per-lane `(avail + freed).cwise_min(capacity)`,
  // matching the Resources expression it replaced bit for bit.
  avail_.add_cwise_min(
      static_cast<std::size_t>(host), est_local,
      sim_.machines_[static_cast<std::size_t>(host)].capacity());
  for (const auto& leg : est_remote) {
    avail_.add_cwise_min(
        static_cast<std::size_t>(leg.machine), leg_resources(leg),
        sim_.machines_[static_cast<std::size_t>(leg.machine)].capacity());
  }
  return true;
}

// ---------------------------------------------------------------------------
// Simulator

Simulator::Simulator(const SimConfig& config, const Workload& workload)
    : config_(config), interference_(config.interference), rng_(config.seed) {
  init_cluster();

  if (auto msg = validate(workload, declared_labels_); !msg.empty())
    throw std::invalid_argument("invalid workload: " + msg);
  // Replica locations must refer to machines this cluster actually has
  // (a workload generated for a bigger cluster would index out of range).
  const auto n = static_cast<MachineId>(num_real_machines_);
  for (const auto& job : workload.jobs) {
    for (const auto& stage : job.stages) {
      for (const auto& task : stage.tasks) {
        for (const auto& split : task.inputs) {
          for (MachineId r : split.replicas) {
            if (r < 0 || r >= n) {
              throw std::invalid_argument(
                  "invalid workload: job '" + job.name +
                  "' references replica machine " + std::to_string(r) +
                  " but the cluster has " + std::to_string(n) + " machines");
            }
          }
        }
      }
    }
  }
  init_states(workload);

  if (config_.trace.enabled) {
    tracer_ = std::make_unique<trace::Recorder>(config_.trace);
  }
}

Simulator::Simulator(const SimConfig& config, JobSource& source)
    : config_(config), interference_(config.interference), rng_(config.seed) {
  init_cluster();

  source_ = &source;
  total_jobs_ = source.total_jobs();
  if (total_jobs_ < 0)
    throw std::invalid_argument("JobSource reports a negative job count");
  // Same fork point as init_states' batch draw: the noise stream must be
  // derived after the churn stream (if any), or enabling streaming would
  // perturb the factor sequence.
  if (config_.estimation.mode == EstimationMode::kNoisy) {
    noise_rng_ = rng_.fork();
  }

  if (config_.trace.enabled) {
    tracer_ = std::make_unique<trace::Recorder>(config_.trace);
  }
}

void Simulator::init_cluster() {
  // An explicit machine_capacities that contradicts an explicit
  // num_machines is a config bug: resolved_capacities() silently prefers
  // the vector, so the caller would simulate a different cluster than the
  // one they asked for. The default num_machines counts as "unspecified".
  if (!config_.machine_capacities.empty() &&
      config_.num_machines != kDefaultNumMachines &&
      config_.num_machines !=
          static_cast<int>(config_.machine_capacities.size())) {
    throw std::invalid_argument(
        "SimConfig: num_machines=" + std::to_string(config_.num_machines) +
        " contradicts machine_capacities.size()=" +
        std::to_string(config_.machine_capacities.size()));
  }
  const auto caps = config_.resolved_capacities();
  if (caps.empty()) throw std::invalid_argument("no machines configured");
  // Each check states the legal range positively, so NaN — which fails
  // every comparison — is rejected along with out-of-range values.
  constexpr double kInf = std::numeric_limits<double>::infinity();
  // An uplink's capacity is the rack's NIC total / rack_oversubscription.
  if (config_.machines_per_rack < 0 ||
      (config_.machines_per_rack > 0 &&
       !(0 < config_.rack_oversubscription &&
         config_.rack_oversubscription < kInf))) {
    throw std::invalid_argument(
        "bad rack topology configuration: machines_per_rack must be >= 0 "
        "and rack_oversubscription finite and > 0");
  }
  // Heartbeats and timeline samples re-arm at now + period: a zero,
  // negative or NaN period would stall virtual time, and with it
  // max_time, forever.
  if (!(0 < config_.heartbeat_period && config_.heartbeat_period < kInf)) {
    throw std::invalid_argument(
        "SimConfig: heartbeat_period must be finite and > 0");
  }
  if (!(0 < config_.timeline_period && config_.timeline_period < kInf)) {
    throw std::invalid_argument(
        "SimConfig: timeline_period must be finite and > 0");
  }
  // The hard stop: NaN would disable it, +inf would let churn
  // pre-generation run until memory runs out, and <= 0 ends the run
  // before its first event.
  if (!(0 < config_.max_time && config_.max_time < kInf)) {
    throw std::invalid_argument("SimConfig: max_time must be finite and > 0");
  }
  if (!(0 <= config_.churn.mttf && config_.churn.mttf < kInf)) {
    throw std::invalid_argument("ChurnConfig: mttf must be finite and >= 0");
  }
  if (config_.churn.mttf > 0 &&
      !(0 < config_.churn.mttr && config_.churn.mttr < kInf)) {
    throw std::invalid_argument(
        "ChurnConfig: mttr must be finite and > 0 when mttf > 0");
  }
  // Machine labels must cover the cluster exactly or not at all — a
  // partial list would silently leave machines unlabeled, the same class
  // of bug as the num_machines vs machine_capacities contradiction.
  if (!config_.machine_labels.empty() &&
      config_.machine_labels.size() != caps.size()) {
    throw std::invalid_argument(
        "SimConfig: machine_labels.size()=" +
        std::to_string(config_.machine_labels.size()) +
        " must match the machine count " + std::to_string(caps.size()));
  }
  // Cell partitions are validated even when this simulator runs globally:
  // a config that would mis-shard the federated layer is a bug worth
  // rejecting wherever it first reaches a simulator (DESIGN.md §14).
  if (auto msg = validate_cells(config_); !msg.empty()) {
    throw std::invalid_argument("SimConfig: invalid cell partition: " + msg);
  }
  for (const auto& labels : config_.machine_labels) {
    for (const auto& label : labels) {
      if (label.empty())
        throw std::invalid_argument(
            "SimConfig: machine_labels contains an empty label");
      declared_labels_.push_back(label);
    }
  }
  std::sort(declared_labels_.begin(), declared_labels_.end());
  declared_labels_.erase(
      std::unique(declared_labels_.begin(), declared_labels_.end()),
      declared_labels_.end());
  num_real_machines_ = static_cast<int>(caps.size());
  machines_.reserve(caps.size());
  for (std::size_t m = 0; m < caps.size(); ++m) {
    machines_.emplace_back(static_cast<MachineId>(m), caps[m],
                           &interference_);
    cluster_capacity_ += caps[m];
    max_capacity_ = max_capacity_.cwise_max(caps[m]);
  }
  avg_capacity_ = cluster_capacity_ / static_cast<double>(caps.size());

  // Rack uplinks as pseudo-machines past the real ids: they carry only
  // network capacity and appear in remote legs, never as placement hosts.
  if (config_.machines_per_rack > 0) {
    const int k = config_.machines_per_rack;
    const int racks = (num_real_machines_ + k - 1) / k;
    for (int rack = 0; rack < racks; ++rack) {
      Resources uplink;
      for (int m = rack * k;
           m < std::min((rack + 1) * k, num_real_machines_); ++m) {
        uplink[Resource::kNetIn] += caps[static_cast<std::size_t>(m)]
                                        [Resource::kNetIn];
        uplink[Resource::kNetOut] += caps[static_cast<std::size_t>(m)]
                                         [Resource::kNetOut];
      }
      uplink /= config_.rack_oversubscription;
      machines_.emplace_back(
          static_cast<MachineId>(num_real_machines_ + rack), uplink,
          &interference_);
    }
  }

  alloc_est_.assign(machines_.size(), Resources{});
  hosted_count_.assign(machines_.size(), 0);
  dirty_flags_.assign(machines_.size(), 0);
  avail_cache_.assign(machines_.size(), Resources{});
  avail_dirty_.assign(machines_.size(), 1);  // first pass computes all
  ramping_.assign(machines_.size(), 0);

  // SoA mirror of machines_[*].capacity() (DESIGN.md §12). Real machine
  // capacities never change; uplink lanes are refreshed by
  // update_rack_uplink on churn, the only set_capacity site.
  cap_planes_.reset(machines_.size());
  for (std::size_t m = 0; m < machines_.size(); ++m)
    cap_planes_.set(m, machines_[m].capacity());

  machine_up_.assign(static_cast<std::size_t>(num_real_machines_), 1);
  down_depth_.assign(static_cast<std::size_t>(num_real_machines_), 0);
  external_active_.assign(static_cast<std::size_t>(num_real_machines_),
                          Resources{});
  up_capacity_ = cluster_capacity_;

  churn_events_ = config_.churn.scripted;
  for (const auto& ev : churn_events_) {
    if (ev.machine < 0 || ev.machine >= num_real_machines_ ||
        !(0 <= ev.down_at && ev.down_at < ev.up_at && ev.up_at < kInf)) {
      throw std::invalid_argument(
          "ChurnConfig: scripted event needs a valid machine and "
          "finite 0 <= down_at < up_at");
    }
  }
  if (config_.churn.mttf > 0) {
    // Dedicated stream, one sub-stream per machine: enabling churn or
    // resizing the cluster must not perturb task-failure or estimation
    // draws, and one machine's timeline must not perturb another's.
    Rng churn_rng = rng_.fork();
    for (MachineId m = 0; m < num_real_machines_; ++m) {
      Rng mrng = churn_rng.fork();
      SimTime t = mrng.exponential(config_.churn.mttf);
      while (t < config_.max_time) {
        const SimTime back = t + mrng.exponential(config_.churn.mttr);
        churn_events_.push_back({m, t, back});
        t = back + mrng.exponential(config_.churn.mttf);
      }
    }
  }

}

void Simulator::init_states(const Workload& workload) {
  total_jobs_ = static_cast<long>(workload.jobs.size());
  if (config_.estimation.mode == EstimationMode::kNoisy) {
    noise_rng_ = rng_.fork();
  }
  for (const JobSpec& spec : workload.jobs) append_job(spec);
}

JobState& Simulator::append_job(const JobSpec& spec) {
  JobState job;
  job.id = static_cast<JobId>(jobs_base_ + static_cast<long>(jobs_.size()));
  job.name = spec.name;
  job.template_id = spec.template_id;
  job.queue = spec.queue;
  job.arrival = spec.arrival;
  job.uid_base = next_uid_;
  job.stages.reserve(spec.stages.size());
  bool any_anti_affinity = false;
  for (std::size_t s = 0; s < spec.stages.size(); ++s) {
    const StageSpec& sspec = spec.stages[s];
    StageState stage;
    stage.deps = sspec.deps;
    stage.constraint = sspec.constraint;
    any_anti_affinity |= sspec.constraint.anti_affinity;
    // Label clauses are static: bake them into the admit mask now. The
    // same-rack clause waits for materialization (finalize_admit_mask).
    if (!sspec.constraint.require_labels.empty() ||
        !sspec.constraint.forbid_labels.empty()) {
      stage.admit_mask.assign(
          static_cast<std::size_t>(num_real_machines_), 0);
      for (MachineId m = 0; m < num_real_machines_; ++m) {
        stage.admit_mask[static_cast<std::size_t>(m)] =
            labels_admit(sspec.constraint, m) ? 1 : 0;
      }
    }
    stage.unfinished_deps = static_cast<int>(sspec.deps.size());
    stage.tasks.reserve(sspec.tasks.size());
    for (std::size_t t = 0; t < sspec.tasks.size(); ++t) {
      TaskState task;
      task.spec = sspec.tasks[t];
      task.uid = next_uid_++;
      task.index_in_stage = static_cast<int>(t);
      locs_.push_back({job.id, static_cast<int>(s), static_cast<int>(t)});
      stage.tasks.push_back(std::move(task));
    }
    job.total_tasks += stage.total();
    job.stages.push_back(std::move(stage));
  }
  if (any_anti_affinity) {
    job.hosted_per_machine.assign(
        static_cast<std::size_t>(num_real_machines_), 0);
  }

  if (config_.estimation.mode == EstimationMode::kNoisy) {
    for (std::size_t s = 0; s < job.stages.size(); ++s) {
      EstFactors f;
      for (std::size_t i = 0; i < kNumResources; ++i) {
        f.demand.at(i) =
            noise_rng_.lognormal_mean_cov(1.0, config_.estimation.noise_cov);
      }
      f.duration =
          noise_rng_.lognormal_mean_cov(1.0, config_.estimation.noise_cov);
      job.stages[s].noise = f;
    }
  }

  jobs_.push_back(std::move(job));
  return jobs_.back();
}

void Simulator::validate_job_spec(const JobSpec& spec) const {
  if (auto msg = validate(spec, declared_labels_); !msg.empty())
    throw std::invalid_argument("invalid workload: " + msg);
  const auto n = static_cast<MachineId>(num_real_machines_);
  for (const auto& stage : spec.stages) {
    for (const auto& task : stage.tasks) {
      for (const auto& split : task.inputs) {
        for (MachineId r : split.replicas) {
          if (r < 0 || r >= n) {
            throw std::invalid_argument(
                "invalid workload: job '" + spec.name +
                "' references replica machine " + std::to_string(r) +
                " but the cluster has " + std::to_string(n) + " machines");
          }
        }
      }
    }
  }
}

void Simulator::pump_admissions() {
  if (!streaming()) return;
  JobPeek peek;
  while (source_->peek(peek)) {
    // "Due": the arrival precedes (or ties) the next event to be
    // processed, so it must enter the queue now to keep event order
    // exact. "Prefetch": merely within the look-ahead horizon.
    const bool due = events_.empty() || peek.arrival <= events_.top().time;
    const bool prefetch = peek.arrival <= now_ + config_.stream.lookahead;
    if (!due && !prefetch) break;
    const auto& sc = config_.stream;
    if (sc.max_resident_tasks > 0 && peek.tasks > sc.max_resident_tasks) {
      throw std::invalid_argument(
          "StreamConfig::max_resident_tasks=" +
          std::to_string(sc.max_resident_tasks) +
          " is smaller than a single job with " + std::to_string(peek.tasks) +
          " tasks; it can never be admitted");
    }
    const bool job_cap =
        sc.max_resident_jobs > 0 && resident_jobs_ >= sc.max_resident_jobs;
    const bool task_cap =
        sc.max_resident_tasks > 0 &&
        resident_tasks_ + peek.tasks > sc.max_resident_tasks;
    if (job_cap || task_cap) {
      // Ceiling hit: hold the job back until a retirement frees space. A
      // *due* job held back arrives late — count it, once per job.
      if (due && !next_deferred_) {
        perf_.stream_deferrals++;
        next_deferred_ = true;
      }
      break;
    }
    next_deferred_ = false;
    JobSpec spec;
    source_->next(spec);
    admit_job(std::move(spec));
  }
}

void Simulator::admit_job(JobSpec&& spec) {
  validate_job_spec(spec);
  JobState& job = append_job(spec);
  first_arrival_ = std::min(first_arrival_, job.arrival);
  resident_jobs_++;
  resident_tasks_ += job.total_tasks;
  perf_.jobs_admitted++;
  perf_.peak_resident_jobs =
      std::max(perf_.peak_resident_jobs, resident_jobs_);
  perf_.peak_resident_tasks =
      std::max(perf_.peak_resident_tasks, resident_tasks_);
  // Reserved sequence number: exactly the seq batch mode's upfront push
  // loop would have assigned this arrival. Bypasses push()/next_seq_.
  Event e;
  e.time = job.arrival;
  e.seq = arrival_seq_base_ + static_cast<long>(job.id);
  e.type = Event::Type::kArrival;
  e.a = job.id;
  events_.push(e);
}

void Simulator::retire_job(JobState& job) {
  if (!config_.stream.drop_job_records) {
    JobRecord rec;
    rec.id = job.id;
    rec.name = job.name;
    rec.template_id = job.template_id;
    rec.arrival = job.arrival;
    rec.finish = job.finish;
    rec.total_tasks = job.total_tasks;
    rec.unfairness_integral = job.unfairness_integral;
    result_.jobs.push_back(std::move(rec));
  }
  last_finish_ = std::max(last_finish_, job.finish);

  resident_jobs_--;
  resident_tasks_ -= job.total_tasks;
  perf_.jobs_retired++;

  // Shrink to a shell: counts survive (complete() must stay true) but the
  // per-task state — the actual memory, the stages' scheduler-view state
  // included — goes. The shell itself is popped once it reaches the front
  // of the resident window.
  job.stages.clear();
  job.stages.shrink_to_fit();
  job.retired = true;
  pop_retired_prefix();
}

void Simulator::pop_retired_prefix() {
  while (!jobs_.empty() && jobs_.front().retired) {
    const int nt = jobs_.front().total_tasks;
    for (int i = 0; i < nt; ++i) locs_.pop_front();
    locs_base_ += nt;
    jobs_.pop_front();
    jobs_base_++;
  }
}

void Simulator::add_rack_legs(MachineId host, PlacementDemand& pd) const {
  const int k = config_.machines_per_rack;
  if (k <= 0) return;
  const int host_rack = host / k;
  // Aggregate cross-rack outbound per source rack; everything inbound
  // funnels through the host rack's uplink.
  std::unordered_map<int, double> outbound;
  double inbound = 0;
  for (const auto& leg : pd.remote) {
    if (leg.machine >= num_real_machines_) continue;  // already an uplink
    const int src_rack = leg.machine / k;
    if (src_rack == host_rack) continue;
    outbound[src_rack] += leg.net_out;
    inbound += leg.net_out;
  }
  for (const auto& [rack, rate] : outbound) {
    if (rate <= 0) continue;
    RemoteLeg leg;
    leg.machine = num_real_machines_ + rack;
    leg.net_out = rate;
    pd.remote.push_back(leg);
  }
  if (inbound > 0) {
    RemoteLeg leg;
    leg.machine = num_real_machines_ + host_rack;
    leg.net_in = inbound;
    pd.remote.push_back(leg);
  }
}

EstFactors Simulator::est_factors(const JobState& job,
                                  int stage_index) const {
  switch (config_.estimation.mode) {
    case EstimationMode::kOracle:
      return {};
    case EstimationMode::kNoisy:
      return job.stages[static_cast<std::size_t>(stage_index)].noise;
    case EstimationMode::kLearnedProfile: {
      if (job.template_id >= 0 && profiled_templates_.contains(job.template_id))
        return {};
      const StageState& stage =
          job.stages[static_cast<std::size_t>(stage_index)];
      if (stage.finished >= config_.estimation.profile_after) return {};
      EstFactors f;
      f.demand = Resources::uniform(config_.estimation.overestimate_factor);
      // Memory over-estimation is the norm (slot sizing); keep cpu share
      // over-estimated too. Duration over-estimated alike.
      f.duration = config_.estimation.overestimate_factor;
      return f;
    }
  }
  return {};
}

Resources Simulator::tracker_available(MachineId m, bool* has_young) const {
  if (has_young != nullptr) *has_young = false;
  const auto& machine = machines_[static_cast<std::size_t>(m)];
  if (!machine.up()) return Resources{};  // a down machine offers nothing
  if (config_.tracker == TrackerMode::kAllocation) {
    return (machine.capacity() - alloc_est_[static_cast<std::size_t>(m)])
        .max_zero();
  }
  // Usage view: observed consumption plus a decaying ramp-up allowance for
  // recently started tasks hosted here (§4.1).
  Resources used = machine.usage();
  for (const auto& [uid, demand] : machine.demands()) {
    const TaskState& t = task_at(uid);
    if (t.host != m) continue;  // remote leg, not a hosted task
    const double age = now_ - t.start_time;
    if (age >= config_.ramp_up_window) continue;
    if (has_young != nullptr) *has_young = true;
    const double scale = config_.ramp_allowance_fraction *
                         (1.0 - age / config_.ramp_up_window);
    used += t.est_local * scale;
  }
  return (machine.capacity() - used).max_zero();
}

SimResult Simulator::run(Scheduler& scheduler) {
  prepare(scheduler);
  while (completed_jobs_ + doomed_jobs_ < total_jobs_) {
    if (step_one(scheduler, std::numeric_limits<double>::infinity(),
                 /*inclusive=*/true) != StepStatus::kProcessed) {
      break;
    }
  }
  return finalize();
}

void Simulator::prepare(Scheduler& scheduler) {
  result_ = SimResult{};
  result_.scheduler_name = scheduler.name();
  if (tracer_) {
    trace::Event ev;
    ev.kind = trace::EventKind::kRunBegin;
    ev.a = static_cast<std::int64_t>(config_.seed);
    ev.b = num_real_machines_;
    ev.c = static_cast<std::int64_t>(total_jobs_);
    ev.e = config_.naive_scheduler_view ? 1 : 0;
    tracer_->record(ev);
  }

  // Machine events and activities first: a failure or activity at time t
  // must be visible to a scheduling pass at the same instant (FIFO
  // tie-break is by push order).
  for (const auto& ev : churn_events_) {
    push({ev.down_at, 0, Event::Type::kMachineDown, ev.machine, 0});
    push({ev.up_at, 0, Event::Type::kMachineUp, ev.machine, 0});
  }
  for (std::size_t i = 0; i < config_.activities.size(); ++i) {
    const auto& act = config_.activities[i];
    push({act.start, 0, Event::Type::kActivity, static_cast<int>(i), 1});
    push({act.end, 0, Event::Type::kActivity, static_cast<int>(i), 0});
  }
  if (streaming()) {
    // Reserve the seq block batch mode's upfront arrival pushes would
    // occupy; each admission fills its own slot (arrival_seq_base_ + id),
    // so later pushes (heartbeats, finish predictions) line up exactly.
    arrival_seq_base_ = next_seq_;
    next_seq_ += total_jobs_;
    pump_admissions();
  } else {
    for (const auto& job : jobs_) {
      push({job.arrival, 0, Event::Type::kArrival, job.id, 0});
    }
  }
  push({0, 0, Event::Type::kHeartbeat, 0, 0});
  if (config_.collect_timeline) {
    push({0, 0, Event::Type::kTimeline, 0, 0});
  }
}

Simulator::StepStatus Simulator::step_one(Scheduler& scheduler,
                                          SimTime limit, bool inclusive) {
  if (past_max_time_ || halted_) return StepStatus::kIdle;
  // Streaming: every job due before (or at) the next event must be in
  // the queue before that event pops, or ordering would drift from
  // batch. No-op in batch mode.
  pump_admissions();
  if (events_.empty()) return StepStatus::kIdle;
  // A cutoff leaves the event queued: a stepped driver submits arrivals at
  // `limit` before advancing through it, so those arrivals order ahead of
  // co-temporal events exactly as batch mode's upfront pushes would.
  if (inclusive ? events_.top().time > limit : events_.top().time >= limit) {
    return StepStatus::kCutoff;
  }
  const Event e = events_.top();
  events_.pop();
  if (e.time > config_.max_time) {
    past_max_time_ = true;
    return StepStatus::kIdle;
  }
  now_ = std::max(now_, e.time);
  switch (e.type) {
    case Event::Type::kArrival:
      on_arrival(e.a);
      // Coalesce simultaneous arrivals into one scheduling pass, or the
      // first job of a batch would grab the whole cluster before its
      // peers even exist (fairness would be meaningless at t=0). The
      // pump keeps feeding same-instant admissions in streaming mode.
      for (;;) {
        pump_admissions();
        if (events_.empty() ||
            events_.top().type != Event::Type::kArrival ||
            events_.top().time > now_)
          break;
        on_arrival(events_.top().a);
        events_.pop();
      }
      run_pass(scheduler);
      break;
    case Event::Type::kFinish:
      on_finish(e.a, e.b);
      break;
    case Event::Type::kHeartbeat:
      on_heartbeat(scheduler);
      break;
    case Event::Type::kTimeline:
      on_timeline();
      break;
    case Event::Type::kActivity:
      on_activity(e.a, e.b != 0);
      break;
    case Event::Type::kMachineDown:
      on_machine_down(e.a);
      // React immediately: killed tasks may fit on surviving machines.
      run_pass(scheduler);
      break;
    case Event::Type::kMachineUp:
      on_machine_up(e.a);
      // React immediately: restored capacity (and restored replicas) can
      // unblock waiting tasks before the next heartbeat.
      run_pass(scheduler);
      break;
  }
  return StepStatus::kProcessed;
}

std::vector<JobId> Simulator::halt_resident() {
  halted_ = true;
  std::vector<JobId> unfinished;
  for (const auto& job : jobs_) {
    if (job.retired || job.doomed) continue;  // done, or infeasible anywhere
    if (job.finish >= 0) continue;            // complete but not yet retired
    unfinished.push_back(job.id);
  }
  return unfinished;
}

EngineLoad Simulator::engine_load() const {
  EngineLoad l;
  l.machines = num_real_machines_;
  l.up_machines = num_real_machines_ - down_count_;
  l.runnable_tasks = runnable_total_;
  l.running_tasks = running_total_;
  l.active_jobs = resident_jobs_;
  Resources alloc;
  for (int m = 0; m < num_real_machines_; ++m) {
    alloc += alloc_est_[static_cast<std::size_t>(m)];
  }
  for (std::size_t i = 0; i < kNumResources; ++i) {
    const double cap = up_capacity_.at(i);
    if (cap > 0) l.alloc_share = std::max(l.alloc_share, alloc.at(i) / cap);
  }
  return l;
}

SimResult Simulator::finalize() {
  result_.completed = completed_jobs_ == total_jobs_;
  result_.end_time = now_;
  account_up_capacity();
  result_.churn.effective_capacity =
      now_ > 0 ? up_capacity_integral_ / now_ : 1.0;
  // Fold the jobs still resident (all of them in batch mode; the
  // incomplete remainder in streaming — retired jobs are in result_.jobs
  // already). Then, streaming only: drain the never-admitted tail of the
  // source into finish = -1 records so incomplete runs report the same
  // record set batch mode would.
  for (const auto& job : jobs_) {
    if (job.retired) continue;
    first_arrival_ = std::min(first_arrival_, job.arrival);
    if (!config_.stream.drop_job_records) {
      JobRecord rec;
      rec.id = job.id;
      rec.name = job.name;
      rec.template_id = job.template_id;
      rec.arrival = job.arrival;
      rec.finish = job.finish;
      rec.total_tasks = job.total_tasks;
      rec.unfairness_integral = job.unfairness_integral;
      result_.jobs.push_back(std::move(rec));
    }
    if (job.finish >= 0) last_finish_ = std::max(last_finish_, job.finish);
  }
  if (streaming()) {
    JobSpec spec;
    JobId drained_id =
        static_cast<JobId>(jobs_base_ + static_cast<long>(jobs_.size()));
    while (source_->next(spec)) {
      first_arrival_ = std::min(first_arrival_, spec.arrival);
      if (!config_.stream.drop_job_records) {
        JobRecord rec;
        rec.id = drained_id;
        rec.name = spec.name;
        rec.template_id = spec.template_id;
        rec.arrival = spec.arrival;
        rec.finish = -1;
        for (const auto& stage : spec.stages)
          rec.total_tasks += static_cast<int>(stage.tasks.size());
        result_.jobs.push_back(std::move(rec));
      }
      drained_id++;
    }
    // Retirement appends in completion order; batch emits in id order.
    std::sort(result_.jobs.begin(), result_.jobs.end(),
              [](const JobRecord& x, const JobRecord& y) {
                return x.id < y.id;
              });
  }
  result_.perf = perf_;
  result_.makespan =
      last_finish_ -
      (std::isfinite(first_arrival_) ? first_arrival_ : 0.0);
  if (tracer_) {
    trace::Event ev;
    ev.kind = trace::EventKind::kRunEnd;
    ev.time = now_;
    ev.a = total_finished_tasks_;
    ev.b = completed_jobs_;
    ev.x = result_.makespan;
    tracer_->record(ev);
    result_.trace_log = tracer_->take_log();
    result_.trace_log.scheduler = result_.scheduler_name;
    result_.trace_log.seed = config_.seed;
  }
  return result_;
}

void Simulator::on_arrival(JobId job_id) {
  JobState& job = job_at(job_id);
  job.arrived = true;
  if (tracer_) {
    trace::Event ev;
    ev.kind = trace::EventKind::kJobArrival;
    ev.time = now_;
    ev.a = job_id;
    tracer_->record(ev);
  }
  for (int s = 0; s < static_cast<int>(job.stages.size()); ++s) {
    if (job.stages[static_cast<std::size_t>(s)].unfinished_deps == 0) {
      make_stage_runnable(job, s);
    }
  }
}

void Simulator::make_stage_runnable(JobState& job, int stage_index) {
  if (job.doomed) return;  // abandoned: schedule no further stages
  materialize_stage(job, stage_index);
  // The stage's inputs are final now, so its static admit mask is too; a
  // stage no machine can host dooms the job here — reported, never
  // silently starved in the runnable set until max_time.
  if (!finalize_admit_mask(job, stage_index)) {
    doom_job(job, stage_index);
    return;
  }
  StageState& stage = job.stages[static_cast<std::size_t>(stage_index)];
  for (auto& task : stage.tasks) {
    if (task.status == TaskStatus::kBlocked) {
      task.status = TaskStatus::kRunnable;
      stage.runnable++;
      add_runnable(stage, task.index_in_stage);
    }
  }
}

bool Simulator::labels_admit(const PlacementConstraint& c, MachineId m) const {
  static const std::vector<std::string> kNoLabels;
  const auto& labels =
      config_.machine_labels.empty()
          ? kNoLabels
          : config_.machine_labels[static_cast<std::size_t>(m)];
  for (const auto& need : c.require_labels) {
    if (std::find(labels.begin(), labels.end(), need) == labels.end())
      return false;
  }
  for (const auto& ban : c.forbid_labels) {
    if (std::find(labels.begin(), labels.end(), ban) != labels.end())
      return false;
  }
  return true;
}

bool Simulator::finalize_admit_mask(JobState& job, int stage_index) {
  StageState& stage = job.stages[static_cast<std::size_t>(stage_index)];
  if (stage.constraint.same_rack_as_input) {
    // Group-level predicate, identical for admission and place(): a
    // machine is rack-admissible iff its rack (the machine itself with
    // rack modeling off) holds a replica of at least one input split of
    // at least one task of the stage. Defined over the spec's replica
    // lists regardless of up/down state, so the mask is pass-constant
    // under churn (a constraint rejection stays sticky-safe; a down
    // admissible machine is rejected by machine_up instead).
    const int k = config_.machines_per_rack;
    std::vector<unsigned char> rack_ok(
        static_cast<std::size_t>(num_real_machines_), 0);
    bool any_replica = false;
    for (const auto& task : stage.tasks) {
      for (const auto& split : task.spec.inputs) {
        for (MachineId r : split.replicas) {
          if (r < 0 || r >= num_real_machines_) continue;
          any_replica = true;
          if (k > 0) {
            const int rack = r / k;
            for (int m = rack * k;
                 m < std::min((rack + 1) * k, num_real_machines_); ++m) {
              rack_ok[static_cast<std::size_t>(m)] = 1;
            }
          } else {
            rack_ok[static_cast<std::size_t>(r)] = 1;
          }
        }
      }
    }
    // Stages with no located inputs (generated data, empty shuffles) are
    // unconstrained by the clause — there is no rack to match.
    if (any_replica) {
      if (stage.admit_mask.empty()) {
        stage.admit_mask = std::move(rack_ok);
      } else {
        for (std::size_t m = 0; m < stage.admit_mask.size(); ++m) {
          stage.admit_mask[m] &= rack_ok[m];
        }
      }
    }
  }
  if (stage.admit_mask.empty()) return true;
  for (unsigned char ok : stage.admit_mask) {
    if (ok) return true;
  }
  return false;
}

void Simulator::doom_job(JobState& job, int stage_index) {
  const StageState& stage = job.stages[static_cast<std::size_t>(stage_index)];
  InfeasibleGroup rec;
  rec.job = job.id;
  rec.stage = stage_index;
  rec.tasks = stage.total();
  std::ostringstream reason;
  reason << "no machine satisfies the placement constraint of job '"
         << job.name << "' stage " << stage_index << " (";
  const PlacementConstraint& c = stage.constraint;
  const char* sep = "";
  if (!c.require_labels.empty()) {
    reason << "require:";
    for (const auto& l : c.require_labels) reason << " " << l;
    sep = "; ";
  }
  if (!c.forbid_labels.empty()) {
    reason << sep << "forbid:";
    for (const auto& l : c.forbid_labels) reason << " " << l;
    sep = "; ";
  }
  if (c.same_rack_as_input) reason << sep << "same-rack-as-input";
  reason << ")";
  rec.reason = reason.str();
  result_.infeasible.push_back(std::move(rec));
  if (!job.doomed) {
    job.doomed = true;
    doomed_jobs_++;
  }
}

bool Simulator::constraints_admit(const GroupRef& group, MachineId m) const {
  // Rack-uplink pseudo-machines are never placement hosts; schedulers do
  // not scan them, but the predicate stays total.
  if (m < 0 || m >= num_real_machines_) return false;
  if (!has_job(group.job)) return false;
  const JobState& job = job_at(group.job);
  if (group.stage < 0 ||
      group.stage >= static_cast<int>(job.stages.size()))
    return false;
  const StageState& stage =
      job.stages[static_cast<std::size_t>(group.stage)];
  if (!stage.admit_mask.empty() &&
      !stage.admit_mask[static_cast<std::size_t>(m)])
    return false;
  if (stage.constraint.anti_affinity && !job.hosted_per_machine.empty() &&
      job.hosted_per_machine[static_cast<std::size_t>(m)] > 0)
    return false;
  return true;
}

void Simulator::add_runnable(StageState& stage, int task_index) {
  TaskState& task = stage.tasks[static_cast<std::size_t>(task_index)];
  task.runnable_pos = static_cast<int>(stage.runnable_indices.size());
  task.runnable_since = now_;
  stage.runnable_indices.push_back(task_index);
  stage.wait_fifo.emplace_back(task_index, now_);
  runnable_total_++;
  if (config_.naive_scheduler_view) return;
  if (stage.runnable_indices.size() == 1) {
    // First runnable task: the stage's view state comes (back) to life.
    stage.locality.reset(num_real_machines_);
    stage.probe_slots.resize(static_cast<std::size_t>(num_real_machines_));
  }
  if (!stage.locality.full())
    stage.locality.push(task.spec, candidate_viable(task));
  if (stage.first_runnable < 0 || task_index < stage.first_runnable)
    stage.first_runnable = task_index;
}

void Simulator::remove_runnable(StageState& stage, int task_index) {
  TaskState& task = stage.tasks[static_cast<std::size_t>(task_index)];
  const int pos = task.runnable_pos;
  const int last = stage.runnable_indices.back();
  stage.runnable_indices[static_cast<std::size_t>(pos)] = last;
  stage.tasks[static_cast<std::size_t>(last)].runnable_pos = pos;
  stage.runnable_indices.pop_back();
  task.runnable_pos = -1;
  runnable_total_--;
  if (config_.naive_scheduler_view) return;
  if (stage.runnable_indices.empty()) {
    // Nothing left to probe: free the view state until a requeue.
    stage.locality = {};
    stage.probe_slots = {};
    stage.first_runnable = -1;
    return;
  }
  // The index mirrors the swap-and-pop on the first kMaxLocalityScan
  // positions: a task from beyond the window refills `pos`, or, when the
  // window is the whole runnable set, the window shrinks.
  const auto p = static_cast<std::size_t>(pos);
  if (p < stage.locality.size()) {
    if (stage.runnable_indices.size() >= stage.locality.size()) {
      stage.locality.replace(
          p, stage.tasks[static_cast<std::size_t>(last)].spec,
          candidate_viable(stage.tasks[static_cast<std::size_t>(last)]));
    } else {
      stage.locality.erase(p);
    }
  }
  if (task_index == stage.first_runnable) {
    int next = task_index + 1;
    while (stage.tasks[static_cast<std::size_t>(next)].status !=
           TaskStatus::kRunnable)
      ++next;
    stage.first_runnable = next;
  }
}

void Simulator::revalidate_localities() {
  for (auto& job : jobs_) {
    for (auto& stage : job.stages) {
      if (stage.probe_slots.empty()) continue;
      stage.locality.revalidate([&](std::size_t pos) {
        return candidate_viable(
            stage.tasks[static_cast<std::size_t>(stage.runnable_indices[pos])]);
      });
    }
  }
}

double Simulator::stage_longest_wait(StageState& stage) const {
  while (!stage.wait_fifo.empty()) {
    const auto& [idx, since] = stage.wait_fifo.front();
    const TaskState& t = stage.tasks[static_cast<std::size_t>(idx)];
    // Entries are lazily deleted: drop fronts whose task left the
    // runnable set or was re-queued since (a newer entry exists for it).
    if (t.status == TaskStatus::kRunnable && t.runnable_since == since)
      break;
    stage.wait_fifo.pop_front();
  }
  if (stage.wait_fifo.empty()) return 0;
  // Pushes happen in non-decreasing simulation time, so the surviving
  // front carries the minimum runnable_since over runnable tasks.
  return now_ - stage.wait_fifo.front().second;
}

void Simulator::materialize_stage(JobState& job, int stage_index) {
  StageState& stage = job.stages[static_cast<std::size_t>(stage_index)];
  if (stage.materialized) return;
  stage.materialized = true;
  // The rewrite changes the specs a cached group estimate was drawn from.
  stage.estimate.rep = EstimateSlot::kEmpty;
  for (auto& task : stage.tasks) {
    bool needs_rewrite = false;
    for (const auto& split : task.spec.inputs) {
      if (split.from_stage >= 0) {
        needs_rewrite = true;
        break;
      }
    }
    if (!needs_rewrite) continue;
    std::vector<InputSplit> rewritten;
    rewritten.reserve(task.spec.inputs.size());
    for (const auto& split : task.spec.inputs) {
      if (split.from_stage < 0) {
        rewritten.push_back(split);
        continue;
      }
      auto sources =
          job.stages[static_cast<std::size_t>(split.from_stage)]
              .output_locations;
      if (sources.empty() || split.bytes <= 0) {
        // Upstream produced nothing: the bytes become generated input.
        InputSplit gen;
        gen.bytes = split.bytes;
        rewritten.push_back(std::move(gen));
        continue;
      }
      std::sort(sources.begin(), sources.end(),
                [](const auto& x, const auto& y) { return x.second > y.second; });
      if (sources.size() > kMaxShuffleSources)
        sources.resize(kMaxShuffleSources);
      double total = 0;
      for (const auto& [m, b] : sources) total += b;
      for (const auto& [m, b] : sources) {
        if (b <= 0) continue;
        InputSplit piece;
        piece.bytes = split.bytes * (b / total);
        piece.replicas = {m};
        rewritten.push_back(std::move(piece));
      }
    }
    task.spec.inputs = std::move(rewritten);
  }
}

void Simulator::start_task(const Probe& probe) {
  JobState& job = job_at(probe.group.job);
  StageState& stage = job.stages[static_cast<std::size_t>(probe.group.stage)];
  TaskState& task = stage.tasks[static_cast<std::size_t>(probe.task_index)];

  PlacementDemand pd =
      compute_placement(task.spec, probe.machine,
                        static_cast<unsigned long long>(task.uid), up_mask());
  add_rack_legs(probe.machine, pd);

  task.status = TaskStatus::kRunning;
  task.host = probe.machine;
  task.start_time = now_;
  task.attempts++;
  task.placement = pd;
  task.progress = 0;
  task.progress_updated_at = now_;
  task.speed = 0;
  task.generation++;
  task.will_fail = config_.task_failure_prob > 0 &&
                   rng_.bernoulli(config_.task_failure_prob);
  task.fail_at_progress = task.will_fail ? rng_.uniform(0.05, 0.95) : 1.0;

  task.est_local = probe.demand;
  task.est_remote = probe.remote;

  machines_[static_cast<std::size_t>(probe.machine)].add_demand(task.uid,
                                                                pd.local);
  mark_dirty(probe.machine);
  alloc_est_[static_cast<std::size_t>(probe.machine)] += task.est_local;
  hosted_count_[static_cast<std::size_t>(probe.machine)]++;
  if (!job.hosted_per_machine.empty())
    job.hosted_per_machine[static_cast<std::size_t>(probe.machine)]++;
  for (const auto& leg : pd.remote) {
    const Resources r = leg_resources(leg);
    machines_[static_cast<std::size_t>(leg.machine)].add_demand(task.uid, r);
    mark_dirty(leg.machine);
  }
  for (const auto& leg : task.est_remote) {
    const Resources r = leg_resources(leg);
    alloc_est_[static_cast<std::size_t>(leg.machine)] += r;
    // est legs normally coincide with pd.remote (already marked), but the
    // kAllocation view reads alloc_est_, so flag them explicitly.
    avail_dirty_[static_cast<std::size_t>(leg.machine)] = 1;
  }

  remove_runnable(stage, probe.task_index);
  stage.runnable--;
  stage.running++;
  job.running_tasks++;
  job.current_alloc += pd.local;
  running_total_++;

  if (tracer_) {
    trace::Event ev;
    ev.kind = trace::EventKind::kTaskStart;
    ev.time = now_;
    ev.a = task.uid;
    ev.b = job.id;
    ev.c = probe.group.stage;
    ev.d = probe.task_index;
    ev.e = probe.machine;
    tracer_->record(ev);
  }
}

void Simulator::on_finish(int uid, long generation) {
  // A prediction for a task whose job has since retired is stale by
  // definition (the task finished; its generation moved on).
  if (!has_task(uid)) return;
  TaskState& task = task_at(uid);
  if (task.status != TaskStatus::kRunning || task.generation != generation)
    return;  // stale prediction
  update_progress(task);
  complete_task(uid, /*failed=*/task.will_fail);
}

void Simulator::complete_task(int uid, bool failed,
                              trace::KillReason reason) {
  const TaskLoc loc = loc_at(uid);
  JobState& job = job_at(loc.job);
  StageState& stage = job.stages[static_cast<std::size_t>(loc.stage)];
  TaskState& task = stage.tasks[static_cast<std::size_t>(loc.index)];

  if (tracer_) {
    trace::Event ev;
    ev.kind = failed ? trace::EventKind::kTaskKill
                     : trace::EventKind::kTaskFinish;
    ev.time = now_;
    ev.a = uid;
    ev.b = loc.job;
    ev.c = loc.stage;
    ev.d = loc.index;
    ev.e = task.host;
    if (failed) ev.f = static_cast<std::int64_t>(reason);
    tracer_->record(ev);
  }

  machines_[static_cast<std::size_t>(task.host)].remove_demand(uid);
  mark_dirty(task.host);
  alloc_est_[static_cast<std::size_t>(task.host)] =
      (alloc_est_[static_cast<std::size_t>(task.host)] - task.est_local)
          .max_zero();
  hosted_count_[static_cast<std::size_t>(task.host)]--;
  if (!job.hosted_per_machine.empty())
    job.hosted_per_machine[static_cast<std::size_t>(task.host)]--;
  for (const auto& leg : task.placement.remote) {
    machines_[static_cast<std::size_t>(leg.machine)].remove_demand(uid);
    mark_dirty(leg.machine);
  }
  for (const auto& leg : task.est_remote) {
    const Resources r = leg_resources(leg);
    alloc_est_[static_cast<std::size_t>(leg.machine)] =
        (alloc_est_[static_cast<std::size_t>(leg.machine)] - r).max_zero();
    // After a read failover the est legs can differ from placement.remote
    // (marked above): flag them for the availability cache explicitly.
    avail_dirty_[static_cast<std::size_t>(leg.machine)] = 1;
  }

  stage.running--;
  job.running_tasks--;
  job.current_alloc = (job.current_alloc - task.placement.local).max_zero();
  running_total_--;

  if (failed) {
    task.status = TaskStatus::kRunnable;
    task.host = -1;
    task.progress = 0;
    task.generation++;
    stage.runnable++;
    add_runnable(stage, loc.index);
    refresh_dirty();
    return;
  }

  task.status = TaskStatus::kFinished;
  task.finish_time = now_;
  task.generation++;
  stage.finished++;
  job.finished_tasks++;
  total_finished_tasks_++;

  if (task.spec.output_bytes > 0) {
    auto it = std::find_if(
        stage.output_locations.begin(), stage.output_locations.end(),
        [&](const auto& p) { return p.first == task.host; });
    if (it == stage.output_locations.end()) {
      stage.output_locations.emplace_back(task.host, task.spec.output_bytes);
    } else {
      it->second += task.spec.output_bytes;
    }
  }

  if (config_.collect_task_records) {
    TaskRecord rec;
    rec.job = job.id;
    rec.stage = loc.stage;
    rec.index = loc.index;
    rec.host = task.host;
    rec.start = task.start_time;
    rec.finish = now_;
    rec.attempts = task.attempts;
    rec.local_fraction = local_fraction(task.spec, task.host);
    rec.natural_duration = task.placement.duration;
    result_.tasks.push_back(std::move(rec));
  }
  TaskReport report;
  report.job = job.id;
  report.stage = loc.stage;
  report.template_id = job.template_id;
  report.peak_usage = task.placement.local;
  report.duration = now_ - task.start_time;
  reports_.push_back(std::move(report));

  if (stage.done()) {
    for (int s2 = 0; s2 < static_cast<int>(job.stages.size()); ++s2) {
      StageState& other = job.stages[static_cast<std::size_t>(s2)];
      if (std::find(other.deps.begin(), other.deps.end(), loc.stage) ==
          other.deps.end())
        continue;
      if (--other.unfinished_deps == 0) make_stage_runnable(job, s2);
    }
  }
  if (job.complete()) {
    job.finish = now_;
    completed_jobs_++;
    if (job.template_id >= 0 &&
        profiled_templates_.insert(job.template_id).second) {
      profile_version_++;  // kLearnedProfile estimates may snap to truth
    }
    // Streaming: fold the finished job into its record and free its
    // state. Only the success path can complete a job, so retirement
    // never happens mid-pass (preemption requeues, it never finishes).
    if (streaming()) retire_job(job);
  }
  refresh_dirty();
}

void Simulator::mark_dirty(MachineId m) {
  // Anything that changes a machine's true demands, capacity or external
  // usage also changes its tracker view: flag it for the next pass's
  // availability cache (consumed there, unlike dirty_flags_ which
  // refresh_dirty() clears).
  avail_dirty_[static_cast<std::size_t>(m)] = 1;
  if (!dirty_flags_[static_cast<std::size_t>(m)]) {
    dirty_flags_[static_cast<std::size_t>(m)] = 1;
    dirty_list_.push_back(m);
  }
}

void Simulator::update_progress(TaskState& t) {
  if (t.status != TaskStatus::kRunning) return;
  const double dt = now_ - t.progress_updated_at;
  if (dt > 0 && t.speed > 0 && t.placement.duration > 0) {
    t.progress =
        std::min(1.0, t.progress + dt * t.speed / t.placement.duration);
  }
  t.progress_updated_at = now_;
}

double Simulator::compute_speed(const TaskState& t) const {
  const auto& host = machines_[static_cast<std::size_t>(t.host)];
  double speed = host.grant_ratio(t.placement.local);
  for (const auto& leg : t.placement.remote) {
    const Resources r = leg_resources(leg);
    speed = std::min(
        speed,
        machines_[static_cast<std::size_t>(leg.machine)].grant_ratio(r));
  }
  return speed;
}

void Simulator::refresh_dirty() {
  if (dirty_list_.empty()) return;
  // Collect the tasks touching any dirty machine.
  std::unordered_set<int> affected;
  for (MachineId m : dirty_list_) {
    for (const auto& [uid, demand] : machines_[static_cast<std::size_t>(m)]
                                         .demands()) {
      affected.insert(uid);
    }
    dirty_flags_[static_cast<std::size_t>(m)] = 0;
  }
  dirty_list_.clear();

  for (int uid : affected) {
    TaskState& t = task_at(uid);
    if (t.status != TaskStatus::kRunning) continue;
    update_progress(t);
    const double new_speed = compute_speed(t);
    const bool first_prediction = t.speed == 0 && t.progress == 0;
    if (!first_prediction &&
        std::abs(new_speed - t.speed) <= kSpeedEps * std::max(1.0, t.speed))
      continue;
    t.speed = new_speed;
    t.generation++;
    if (t.speed <= kSpeedEps) continue;  // stalled; re-predicted later
    const double target = target_progress(t);
    const double remaining =
        std::max(0.0, target - t.progress + kProgressEps) *
        t.placement.duration / t.speed;
    push({now_ + remaining, 0, Event::Type::kFinish, uid, t.generation});
  }
}

void Simulator::on_heartbeat(Scheduler& scheduler) {
  if (config_.collect_fairness) sample_fairness(config_.heartbeat_period);
  run_pass(scheduler);
  push({now_ + config_.heartbeat_period, 0, Event::Type::kHeartbeat, 0, 0});
}

void Simulator::sample_fairness(double dt) {
  // A job's purported fair allocation is an equal split among the jobs
  // that currently demand resources (running or runnable tasks); jobs
  // blocked at a barrier demand nothing and are excluded, matching how a
  // fair scheduler would treat them.
  const auto demanding = [](const JobState& job) {
    if (!job.arrived || job.complete()) return false;
    if (job.running_tasks > 0) return true;
    for (const auto& stage : job.stages) {
      if (stage.runnable > 0) return true;
    }
    return false;
  };
  int active = 0;
  for (const auto& job : jobs_) {
    if (demanding(job)) active++;
  }
  if (active == 0) return;
  const double fair = 1.0 / static_cast<double>(active);
  for (auto& job : jobs_) {
    if (!demanding(job)) continue;
    const double share =
        job.current_alloc.normalized_by(cluster_capacity_).max_component();
    job.unfairness_integral += dt * (share - fair) / fair;
  }
}

void Simulator::run_pass(Scheduler& scheduler) {
  const int backlog = runnable_total_;
  const long pass = pass_index_++;
  if (tracer_) {
    trace::Event ev;
    ev.kind = trace::EventKind::kPassBegin;
    ev.time = now_;
    ev.a = pass;
    ev.b = backlog;
    tracer_->record(ev);
  }
  ContextImpl ctx(*this);
  const auto t0 = std::chrono::steady_clock::now();
  scheduler.schedule(ctx);
  const auto t1 = std::chrono::steady_clock::now();
  const double secs = std::chrono::duration<double>(t1 - t0).count();
  if (tracer_) {
    trace::Event ev;
    ev.kind = trace::EventKind::kPassEnd;
    ev.time = now_;
    ev.a = pass;
    ev.b = ctx.placements;
    ev.timing =
        std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0)
            .count();
    tracer_->record(ev);
  }
  result_.scheduler_cost.invocations++;
  result_.scheduler_cost.placements += ctx.placements;
  result_.scheduler_cost.total_seconds += secs;
  result_.scheduler_cost.max_seconds =
      std::max(result_.scheduler_cost.max_seconds, secs);
  result_.pass_latency.add_seconds(secs);
  if (config_.collect_pass_samples) {
    result_.pass_samples.push_back(
        {now_, backlog, static_cast<int>(ctx.placements), secs});
  }
  refresh_dirty();
}

void Simulator::on_timeline() {
  TimelineSample sample;
  sample.time = now_;
  sample.running_tasks = running_total_;
  Resources usage;
  for (int mi = 0; mi < num_real_machines_; ++mi) {
    const auto& machine = machines_[static_cast<std::size_t>(mi)];
    const Resources u = machine.usage();
    usage += u;
    const Resources frac = u.normalized_by(machine.capacity());
    for (std::size_t i = 0; i < kNumResources; ++i) {
      result_.machine_usage_samples[i].push_back(frac.at(i));
    }
  }
  const Resources frac = usage.normalized_by(cluster_capacity_);
  for (std::size_t i = 0; i < kNumResources; ++i)
    sample.utilization[i] = frac.at(i);
  result_.timeline.push_back(sample);
  push({now_ + config_.timeline_period, 0, Event::Type::kTimeline, 0, 0});
}

void Simulator::on_activity(int index, bool start) {
  const auto& act = config_.activities[static_cast<std::size_t>(index)];
  // Overlapping activities on one machine stack; the machine carries their
  // sum while it is up. A down machine's activities are suspended — the
  // accumulator keeps tracking so recovery resumes whatever is still in
  // its window.
  auto& ext = external_active_[static_cast<std::size_t>(act.machine)];
  ext = start ? ext + act.usage : (ext - act.usage).max_zero();
  if (!machine_up_[static_cast<std::size_t>(act.machine)]) return;
  machines_[static_cast<std::size_t>(act.machine)].set_external_usage(ext);
  mark_dirty(act.machine);
  refresh_dirty();
}

double Simulator::compute_up_fraction() const {
  double sum = 0;
  int dims = 0;
  for (std::size_t i = 0; i < kNumResources; ++i) {
    if (cluster_capacity_.at(i) <= 0) continue;
    sum += up_capacity_.at(i) / cluster_capacity_.at(i);
    dims++;
  }
  return dims > 0 ? sum / dims : 1.0;
}

void Simulator::update_rack_uplink(MachineId member) {
  const int k = config_.machines_per_rack;
  if (k <= 0) return;
  const int rack = member / k;
  // The uplink is the aggregate NIC bandwidth of the rack's *up* members,
  // divided by the oversubscription factor; a failed member takes its
  // share of the uplink with it and running cross-rack flows re-share.
  Resources uplink;
  for (int m = rack * k; m < std::min((rack + 1) * k, num_real_machines_);
       ++m) {
    if (!machine_up_[static_cast<std::size_t>(m)]) continue;
    const Resources& cap = machines_[static_cast<std::size_t>(m)].capacity();
    uplink[Resource::kNetIn] += cap[Resource::kNetIn];
    uplink[Resource::kNetOut] += cap[Resource::kNetOut];
  }
  uplink /= config_.rack_oversubscription;
  const auto u = static_cast<std::size_t>(num_real_machines_ + rack);
  machines_[u].set_capacity(uplink);
  cap_planes_.set(u, uplink);  // keep the SoA capacity mirror coherent
  mark_dirty(static_cast<MachineId>(u));
}

void Simulator::on_machine_down(MachineId m) {
  if (down_depth_[static_cast<std::size_t>(m)]++ > 0) return;  // nested
  down_count_++;
  churn_version_++;  // probes depend on replica masks and uplink capacity
  result_.churn.machines_failed++;
  if (tracer_) {
    trace::Event ev;
    ev.kind = trace::EventKind::kMachineDown;
    ev.time = now_;
    ev.a = m;
    tracer_->record(ev);
  }
  account_up_capacity();
  up_capacity_ =
      (up_capacity_ - machines_[static_cast<std::size_t>(m)].capacity())
          .max_zero();
  up_fraction_ = compute_up_fraction();

  machine_up_[static_cast<std::size_t>(m)] = 0;
  revalidate_localities();
  machines_[static_cast<std::size_t>(m)].set_up(false);
  machines_[static_cast<std::size_t>(m)].set_external_usage(Resources{});

  // Every running attempt touching the machine is affected (sorted for a
  // deterministic order — the demands map iteration order is not part of
  // the simulation contract). Tasks hosted on it lose their attempt and
  // re-queue. Tasks merely streaming input from it fail the read over to
  // a surviving replica (HDFS-style) and keep their progress; only when
  // no replica of some input survives is the reader killed too.
  std::vector<int> victims;
  victims.reserve(machines_[static_cast<std::size_t>(m)].demands().size());
  for (const auto& [uid, demand] :
       machines_[static_cast<std::size_t>(m)].demands()) {
    victims.push_back(uid);
  }
  std::sort(victims.begin(), victims.end());
  for (int uid : victims) {
    TaskState& t = task_at(uid);
    if (t.status != TaskStatus::kRunning) continue;
    if (t.host != m && inputs_available(t.spec, machine_up_)) {
      failover_reads(uid);
      continue;
    }
    result_.churn.task_attempts_lost++;
    result_.churn.work_lost_seconds += now_ - t.start_time;
    complete_task(uid, /*failed=*/true, trace::KillReason::kMachineFailure);
  }

  update_rack_uplink(m);
  mark_dirty(m);
  refresh_dirty();
}

void Simulator::failover_reads(int uid) {
  const TaskLoc& loc = loc_at(uid);
  JobState& job = job_at(loc.job);
  TaskState& t = job.stages[static_cast<std::size_t>(loc.stage)]
                     .tasks[static_cast<std::size_t>(loc.index)];
  // Bank progress earned under the old placement, then swap every demand
  // the attempt holds for ones resolved against the surviving replica
  // set. The scheduler's estimate books are left alone: completion
  // subtracts the same estimates that were added at start.
  update_progress(t);
  machines_[static_cast<std::size_t>(t.host)].remove_demand(uid);
  mark_dirty(t.host);
  for (const auto& leg : t.placement.remote) {
    machines_[static_cast<std::size_t>(leg.machine)].remove_demand(uid);
    mark_dirty(leg.machine);
  }
  job.current_alloc = (job.current_alloc - t.placement.local).max_zero();

  PlacementDemand pd = compute_placement(
      t.spec, t.host, static_cast<unsigned long long>(t.uid), &machine_up_);
  add_rack_legs(t.host, pd);
  t.placement = pd;
  job.current_alloc += pd.local;
  machines_[static_cast<std::size_t>(t.host)].add_demand(uid, pd.local);
  for (const auto& leg : pd.remote) {
    machines_[static_cast<std::size_t>(leg.machine)].add_demand(
        uid, leg_resources(leg));
    mark_dirty(leg.machine);
  }
  // Both the natural duration and the share ratios may have changed;
  // the sentinel defeats refresh_dirty's same-speed shortcut so a fresh
  // finish prediction is always issued.
  t.speed = -1;
  result_.churn.read_failovers++;
}

void Simulator::on_machine_up(MachineId m) {
  auto& depth = down_depth_[static_cast<std::size_t>(m)];
  if (depth <= 0) return;  // unmatched up event (defensive)
  if (--depth > 0) return;  // another down window still holds it
  down_count_--;
  churn_version_++;  // probes depend on replica masks and uplink capacity
  result_.churn.machines_recovered++;
  if (tracer_) {
    trace::Event ev;
    ev.kind = trace::EventKind::kMachineUp;
    ev.time = now_;
    ev.a = m;
    tracer_->record(ev);
  }
  account_up_capacity();
  up_capacity_ += machines_[static_cast<std::size_t>(m)].capacity();
  up_fraction_ = compute_up_fraction();

  machine_up_[static_cast<std::size_t>(m)] = 1;
  revalidate_localities();
  machines_[static_cast<std::size_t>(m)].set_up(true);
  // Resume whatever background activity windows are still open.
  machines_[static_cast<std::size_t>(m)].set_external_usage(
      external_active_[static_cast<std::size_t>(m)]);

  update_rack_uplink(m);
  mark_dirty(m);
  refresh_dirty();
}

// Push-queue JobSource feeding a stepped engine (DESIGN.md §14): the
// federated dispatcher pushes each job it admits to this cell, in global
// arrival order. total_jobs() reports the driver's *expected* total (the
// global job count), which only sizes the reserved arrival-seq block —
// every arrival seq stays below every heartbeat/finish seq regardless of
// how many jobs this particular cell ends up receiving, so event ordering
// matches a batch run of the same job sequence bit for bit.
class QueueJobSource final : public JobSource {
 public:
  explicit QueueJobSource(long expected_jobs) : expected_(expected_jobs) {}

  long total_jobs() const override { return expected_; }

  bool peek(JobPeek& out) override {
    if (queue_.empty()) return false;
    const JobSpec& job = queue_.front();
    out.arrival = job.arrival;
    out.tasks = 0;
    for (const auto& stage : job.stages) {
      out.tasks += static_cast<long>(stage.tasks.size());
    }
    return true;
  }

  bool next(JobSpec& out) override {
    if (queue_.empty()) return false;
    out = std::move(queue_.front());
    queue_.pop_front();
    return true;
  }

  void push(const JobSpec& spec) {
    if (spec.arrival < last_arrival_) {
      throw std::runtime_error(
          "SimEngine: job '" + spec.name + "' submitted out of order (" +
          std::to_string(spec.arrival) + " after " +
          std::to_string(last_arrival_) + ")");
    }
    last_arrival_ = spec.arrival;
    queue_.push_back(spec);
  }

  long queued() const { return static_cast<long>(queue_.size()); }

 private:
  long expected_ = 0;
  SimTime last_arrival_ = -std::numeric_limits<double>::infinity();
  std::deque<JobSpec> queue_;
};

}  // namespace

struct SimEngine::Impl {
  QueueJobSource source;
  Simulator sim;
  Scheduler* scheduler;
  long expected = 0;
  long submitted = 0;
  bool finished = false;

  static SimConfig streamed(SimConfig config) {
    config.stream.enabled = true;
    return config;
  }

  Impl(const SimConfig& config, Scheduler& sched, long expected_jobs)
      : source(expected_jobs),
        sim(streamed(config), source),
        scheduler(&sched),
        expected(expected_jobs) {
    sim.prepare(sched);
  }
};

SimEngine::SimEngine(const SimConfig& config, Scheduler& scheduler,
                     long expected_jobs)
    : impl_(std::make_unique<Impl>(config, scheduler, expected_jobs)) {
  if (expected_jobs < 0) {
    throw std::invalid_argument("SimEngine: negative expected_jobs");
  }
}

SimEngine::~SimEngine() = default;

void SimEngine::submit(const JobSpec& spec) {
  if (impl_->finished) {
    throw std::logic_error("SimEngine: submit() after finish()");
  }
  if (impl_->submitted >= impl_->expected) {
    throw std::invalid_argument(
        "SimEngine: more than expected_jobs=" +
        std::to_string(impl_->expected) + " jobs submitted");
  }
  impl_->source.push(spec);
  impl_->submitted++;
}

void SimEngine::advance_before(SimTime t) {
  while (impl_->sim.step_one(*impl_->scheduler, t, /*inclusive=*/false) ==
         Simulator::StepStatus::kProcessed) {
  }
}

void SimEngine::advance_through(SimTime t) {
  while (impl_->sim.step_one(*impl_->scheduler, t, /*inclusive=*/true) ==
         Simulator::StepStatus::kProcessed) {
  }
}

std::vector<JobId> SimEngine::halt() {
  std::vector<JobId> unfinished = impl_->sim.halt_resident();
  // Jobs still queued for admission are unfinished too; ids are assigned
  // in submission order, so the queued tail occupies the last `queued`
  // ids. The queue itself stays put — finalize() folds it into the
  // finish = -1 records an aborted batch run would produce.
  const long queued = impl_->source.queued();
  for (long id = impl_->submitted - queued; id < impl_->submitted; ++id) {
    unfinished.push_back(static_cast<JobId>(id));
  }
  return unfinished;
}

SimResult SimEngine::finish() {
  if (impl_->finished) {
    throw std::logic_error("SimEngine: finish() called twice");
  }
  impl_->finished = true;
  Simulator& sim = impl_->sim;
  if (!sim.halted()) {
    // Same loop shape as run(), with the engine's own termination bound:
    // every *submitted* job accounted for, rather than the global
    // expectation (this cell may only ever see a share of it).
    while (sim.completed_or_doomed() < impl_->submitted) {
      if (sim.step_one(*impl_->scheduler,
                       std::numeric_limits<double>::infinity(),
                       /*inclusive=*/true) !=
          Simulator::StepStatus::kProcessed) {
        break;
      }
    }
  }
  SimResult result = sim.finalize();
  // finalize() judged completion against the global expectation; the
  // engine's contract is "every job submitted to it finished".
  result.completed =
      !sim.halted() && sim.completed_jobs() == impl_->submitted;
  return result;
}

EngineLoad SimEngine::load() const {
  EngineLoad l = impl_->sim.engine_load();
  l.active_jobs += impl_->source.queued();
  return l;
}

long SimEngine::submitted() const { return impl_->submitted; }

bool SimEngine::quiescent_until(SimTime t) const {
  return impl_->source.queued() == 0 && impl_->sim.quiescent_until(t);
}

SimResult simulate(const SimConfig& config, const Workload& workload,
                   Scheduler& scheduler) {
  if (config.stream.enabled) {
    WorkloadJobSource source(workload);
    Simulator sim(config, source);
    return sim.run(scheduler);
  }
  Simulator sim(config, workload);
  return sim.run(scheduler);
}

SimResult simulate_stream(const SimConfig& config, JobSource& source,
                          Scheduler& scheduler) {
  SimConfig cfg = config;
  cfg.stream.enabled = true;
  Simulator sim(cfg, source);
  return sim.run(scheduler);
}

}  // namespace tetris::sim
