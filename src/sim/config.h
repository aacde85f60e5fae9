// Simulation configuration: cluster shape, heartbeat cadence, tracker and
// estimation behaviour, interference constants, failure injection, and
// measurement collection.
#pragma once

#include <cstdint>
#include <vector>

#include "sim/interference.h"
#include "sim/spec.h"
#include "trace/recorder.h"
#include "util/resources.h"
#include "util/units.h"

namespace tetris::sim {

// The num_machines a default-constructed SimConfig carries; treated as
// "unspecified" when machine_capacities pins the cluster shape instead.
inline constexpr int kDefaultNumMachines = 50;

// How the resource tracker reports availability to the scheduler (§4.1).
enum class TrackerMode {
  // Bookkeeping view: capacity minus the demands the scheduler allocated.
  // Blind to external activity and to estimation error — the view the
  // baseline schedulers (and Fig. 6's capacity scheduler) hold.
  kAllocation,
  // Observed view: capacity minus usage reported by per-node trackers,
  // minus a decaying ramp-up allowance for freshly placed tasks. Sees
  // ingestion/evacuation and reclaims over-estimated demands.
  kUsage,
};

// How schedulers' demand estimates relate to truth (§4.1).
enum class EstimationMode {
  kOracle,   // estimates == true demands
  kNoisy,    // static per-stage multiplicative error on each resource
  // Models the paper's estimator behaviour: a stage's demands are
  // over-estimated until `profile_after` of its tasks complete (statistics
  // from the first few tasks), then snap to truth. Recurring jobs
  // (template_id >= 0) whose template ran before are exact from the start.
  kLearnedProfile,
};

struct EstimationConfig {
  EstimationMode mode = EstimationMode::kOracle;
  // kNoisy: coefficient of variation of the lognormal error factor.
  double noise_cov = 0.25;
  // kLearnedProfile: multiplier applied while a stage is unprofiled.
  double overestimate_factor = 1.4;
  // kLearnedProfile: completions needed before estimates become exact.
  int profile_after = 2;
};

// External cluster activity (data ingestion, evacuation, re-replication;
// §4.3): a constant resource draw on one machine over a time window.
struct BackgroundActivity {
  MachineId machine = 0;
  SimTime start = 0;
  SimTime end = 0;
  Resources usage;
};

// One scripted machine outage: the machine fails at `down_at` (running
// tasks are killed and requeued, its DFS replicas become unreachable, its
// background activities suspend) and recovers with its data at `up_at`.
struct MachineEvent {
  MachineId machine = 0;
  SimTime down_at = 0;
  SimTime up_at = 0;
};

// Machine-churn fault injection (the cluster analogue of
// `task_failure_prob`; paper §4.3 treats machine failure and the ensuing
// re-replication as routine background events). Random churn draws
// per-machine exponential failure/repair times from a dedicated RNG
// stream, so enabling it does not perturb task-failure or workload draws;
// scripted events make outages deterministic for tests. Both may be
// combined; overlapping down windows on one machine nest (the machine is
// up only when every window has closed).
struct ChurnConfig {
  // Mean time to failure per machine, seconds; finite. 0 disables random
  // churn.
  double mttf = 0;
  // Mean time to repair, seconds. Must be finite and > 0 when mttf > 0.
  double mttr = 0;
  std::vector<MachineEvent> scripted;

  bool enabled() const { return mttf > 0 || !scripted.empty(); }
};

// Streaming ingestion (DESIGN.md §11): instead of materializing the whole
// workload upfront, the simulator pulls jobs from a JobSource in arrival
// order through a bounded look-ahead window and retires completed jobs
// from the resident working set, folding them into SimResult records on
// the fly. Memory then tracks the in-flight window, not the trace length.
struct StreamConfig {
  // Selects the streaming path in simulate(), its only reader;
  // simulate_stream() and SimEngine always stream.
  bool enabled = false;
  // Admission horizon in virtual seconds: a job may enter the resident set
  // once its arrival is within `lookahead` of current simulation time.
  // Independent of correctness — the engine always admits at least the
  // next due job so event ordering stays exact; the horizon only controls
  // how much arrival buffer is prefetched.
  double lookahead = 30.0;
  // Hard ceilings on the resident set (admitted minus retired); 0 means
  // unbounded. When a *due* arrival would cross a ceiling, admission is
  // deferred until retirement frees space. Deferrals shift that job's
  // effective arrival and are counted in PerfCounters::stream_deferrals;
  // streaming is bit-identical to batch only while that counter stays 0.
  long max_resident_tasks = 0;
  long max_resident_jobs = 0;
  // Drop per-job JobRecords for retired jobs (keeps only the aggregate
  // makespan/completion accounting) — for soak runs where even one small
  // record per job is unwanted. Off by default: records are the compact
  // summaries retirement is supposed to produce.
  bool drop_job_records = false;
};

// One cell of a federated cluster (DESIGN.md §14): a contiguous,
// rack-aligned slice of machines [begin, end) owned by exactly one
// per-cell scheduler instance. Cells must tile the cluster — sorted,
// non-overlapping, gap-free, first begin == 0, last end == num_machines —
// and when rack modeling is on every boundary must fall on a rack
// boundary, so no rack's uplink is shared between two schedulers.
struct CellSpec {
  int begin = 0;  // first machine id owned by the cell (inclusive)
  int end = 0;    // one past the last machine id owned (exclusive)

  int size() const { return end - begin; }
  bool contains(MachineId m) const { return m >= begin && m < end; }
};

struct SimConfig;

// Fail-fast validation of every SimConfig knob: cluster shape, capacities,
// periods and times, churn, labels, the cell partition (validate_cells),
// activities, failure probability, tracker ramp-up, estimation, streaming
// and interference ranges. Returns an empty string when the config is
// valid, otherwise a description of the first problem found. Every
// simulator and simulate_federated() reject an invalid config with it.
std::string validate(const SimConfig& config);

// Fail-fast validation of SimConfig::cells against the resolved cluster
// shape. Returns an empty string when the partition is valid (or empty),
// otherwise a description of the first problem found: out-of-range or
// inverted spans, overlaps, skipped machines, or a cell boundary that
// splits a rack. validate() includes this check.
std::string validate_cells(const SimConfig& config);

struct SimConfig {
  // Homogeneous cluster unless `machine_capacities` is set explicitly.
  // When `machine_capacities` is set, leave this at its default or set it
  // to the matching count — simulate() rejects a contradiction.
  int num_machines = kDefaultNumMachines;
  Resources machine_capacity = Resources::full(
      16, 32 * kGB, 4 * 50 * kMB, 4 * 50 * kMB, 1 * kGbps, 1 * kGbps);
  std::vector<Resources> machine_capacities;  // overrides the two above

  // Heterogeneous machine classes (DESIGN.md §13): machine_labels[m] is
  // the set of class labels machine m carries (e.g. "gpu", "highmem",
  // "rack0"). Empty = unlabeled cluster (every constraint-free stage can
  // run anywhere, label-requiring stages are rejected at validation).
  // When non-empty, the outer vector must have exactly one entry per
  // machine — simulate() rejects a size mismatch the same way it rejects
  // the num_machines vs machine_capacities contradiction.
  std::vector<std::vector<std::string>> machine_labels;

  // Rack-level network topology (paper Table 1: cross-rack bandwidth is
  // oversubscribed — ~10x at Facebook, <2x at Bing). 0 disables rack
  // modeling (flat network). With k machines per rack, each rack gets an
  // uplink of (sum of member NIC bandwidth) / rack_oversubscription per
  // direction; every cross-rack read additionally consumes uplink
  // bandwidth at both ends, and schedulers see the uplinks through the
  // same remote-leg admission path as source machines.
  int machines_per_rack = 0;
  double rack_oversubscription = 4.0;

  double heartbeat_period = 1.0;
  InterferenceModel interference;

  TrackerMode tracker = TrackerMode::kAllocation;
  // Ramp-up allowance (§4.1): window over which the tracker pads observed
  // usage of a new task, and the initial pad as a fraction of its demand.
  double ramp_up_window = 10.0;
  double ramp_allowance_fraction = 0.5;

  EstimationConfig estimation;

  // Probability that a task attempt fails partway and re-executes.
  double task_failure_prob = 0.0;

  // Federated cell partition (DESIGN.md §14): when non-empty, the cells
  // must tile [0, num_machines) exactly and respect rack boundaries —
  // validate_cells() spells out the rules and simulate() enforces them
  // fail-fast. The global simulator itself ignores the partition beyond
  // validation; src/federation/ slices per-cell configs from it.
  std::vector<CellSpec> cells;

  // Machine-level failure injection; see ChurnConfig.
  ChurnConfig churn;

  // Streaming ingestion knobs; see StreamConfig.
  StreamConfig stream;

  std::uint64_t seed = 1;

  // Oracle switch for the hot-path caches (DESIGN.md §8): when true, the
  // simulator recomputes the scheduler's view (probes, group estimates,
  // longest waits) from scratch on every call instead of serving it from
  // the stages' incrementally-invalidated state, and keeps the eager rate
  // recompute: every refresh re-predicts every task on every dirty
  // machine and banks its progress there, where the default path skips
  // quiet machines and replays their logged refresh times (DESIGN.md §4,
  // "Rate recompute"). Slower, but trivially correct — the equivalence
  // property test pins the default path to it bit for bit. Availability
  // is rebuilt every pass on both paths.
  bool naive_scheduler_view = false;

  // Structured event tracing (DESIGN.md §10): when trace.enabled, the
  // simulator records every arrival, pass, placement, task transition and
  // churn edge into SimResult::trace_log. Off by default — the disabled
  // path is a single branch per hook.
  trace::TraceConfig trace;

  bool collect_timeline = false;
  double timeline_period = 10.0;
  bool collect_fairness = false;  // per-job relative integral unfairness
  bool collect_task_records = true;
  // Record one PassSample per scheduling pass (pass latency vs backlog);
  // feeds bench_overheads' Table 8 CSV. Off by default: long runs make
  // many passes.
  bool collect_pass_samples = false;

  std::vector<BackgroundActivity> activities;

  // Hard stop: a run that has not drained by this virtual time is reported
  // as incomplete rather than looping forever. Must be finite and > 0.
  SimTime max_time = 14 * 24 * kHours;

  std::vector<Resources> resolved_capacities() const {
    if (!machine_capacities.empty()) return machine_capacities;
    return std::vector<Resources>(static_cast<std::size_t>(num_machines),
                                  machine_capacity);
  }
};

// Label admission (DESIGN.md §13): machine m of `config` carries every
// label `c` requires and none it forbids. An unlabeled cluster fails every
// require clause; a constraint without label clauses admits every machine.
bool labels_admit(const SimConfig& config, const PlacementConstraint& c,
                  MachineId m);

}  // namespace tetris::sim
