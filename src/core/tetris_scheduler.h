// The Tetris scheduler (paper §3) — the primary contribution.
//
// Per scheduling pass it walks machines with free resources and repeatedly
// places the best task on each until nothing more fits:
//   * Admission (§3.2): a task is considered only if its *peak* estimated
//     demands fit — every dimension locally, plus disk-read / net-out at
//     each remote input source. Over-allocation is therefore impossible.
//   * Alignment (§3.2): among admissible tasks, prefer the one whose
//     demand vector best matches the machine's available vector (weighted
//     dot product by default; see alignment.h for the Table 7
//     alternatives). Tasks reading remotely are penalized by
//     `remote_penalty` so local resources are preferred and the network is
//     left for tasks that compulsively need it.
//   * Multi-resource SRTF (§3.3): the alignment score is combined with the
//     job's remaining work p via score = a - eps * p, with
//     eps = srtf_weight * (mean |a|) / (mean p), preferring jobs closer to
//     completion without surrendering packing efficiency.
//   * Fairness knob (§3.4): with knob f, only the ceil((1-f)|J|) jobs
//     furthest from their fair share are considered. f=0 is the most
//     efficient schedule; f -> 1 is strictly fair.
//   * Barrier hint (§3.5): once a stage preceding a barrier is >= b
//     complete, its stragglers get strict priority (they gate the next
//     stage of the DAG while consuming few resources).
#pragma once

#include <cstdint>
#include <limits>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "core/alignment.h"
#include "sim/scheduler.h"
#include "util/perf_counters.h"

namespace tetris::core {

struct TetrisConfig {
  AlignmentKind alignment = AlignmentKind::kCosine;

  // Score multiplier (1 - remote_penalty * remote_fraction); 0.1 in the
  // paper, flat between ~0.05 and ~0.4 per §5.3.3.
  double remote_penalty = 0.10;

  // The m knob of §5.3.3: eps = srtf_weight * mean|a| / mean p. 0 disables
  // the SRTF term (pure packing, the epsilon=0 ablation).
  double srtf_weight = 1.0;

  // Fairness knob f in [0, 1). 0 = most efficient, -> 1 = most fair.
  double fairness_knob = 0.25;
  // Apply the knob at queue granularity (paper §3.4: "jobs (or groups of
  // jobs)"): the first ceil((1-f)·Q) queues furthest below their share are
  // eligible, and any job inside them may be served.
  bool fairness_over_queues = false;

  // Barrier knob b in [0, 1]; stages preceding a barrier whose finished
  // fraction reaches b get priority. 1 disables the hint.
  double barrier_knob = 0.9;

  // Fairness preemption (extension; paper §3.1 excludes preemption "for
  // simplicity" — YARN's Capacity scheduler enforces queue fairness by
  // killing over-share containers). When enabled, if the furthest-below
  // schedulable job's dominant share trails fair share by more than
  // preemption_deficit AND none of its tasks fit anywhere, Tetris kills
  // the most-recently-started task (least work lost) of the most
  // over-share job — at most one kill per pass, so enforcement stays
  // gentle and cannot thrash.
  bool preempt_for_fairness = false;
  double preemption_deficit = 0.25;

  // Starvation reservation (extension; paper §3.5 notes the risk that
  // large tasks never see enough free resources at once and leaves a
  // principled reservation to future work). A task runnable for longer
  // than this threshold marks its group *starved*: starved groups outrank
  // everything else, and while one cannot be placed anywhere, the
  // emptiest machine is reserved — no non-starved task may take it — so
  // resources accumulate there until the starved task fits. Infinity
  // disables the mechanism (the paper's deployed behaviour, which relies
  // on heartbeat batching).
  double starvation_threshold = std::numeric_limits<double>::infinity();

  // Future-demand lookahead in seconds (extension; paper §3.5 "Future
  // Demands" notes that job managers know their DAGs and task finish
  // times can be predicted, and leaves exploiting that to future work).
  // When > 0: a machine's resources are withheld from a candidate if a
  // stage predicted to unblock within the lookahead would align strictly
  // better there — mimicking the offline schedule instead of greedily
  // backfilling with long poorly-aligned work. 0 disables (the paper's
  // deployed behaviour).
  double future_lookahead = 0;

  // Ablation switch (§5.3.1): consider only CPU and memory, like the
  // baselines — reintroduces disk/network over-allocation.
  bool only_cpu_mem = false;

  // Oracle switch for the hot-path shortcuts (DESIGN.md §8): when true,
  // every stale candidate cell is fully recomputed — no sticky
  // rejections, no whole-row skips, no cached row tiers or eligibility
  // mask. Produces bit-identical schedules to the optimized default (the
  // equivalence property test enforces it); exists so the oracle stays
  // runnable.
  bool naive_scoring = false;

  std::string name = "tetris";
};

class TetrisScheduler final : public sim::Scheduler {
 public:
  explicit TetrisScheduler(TetrisConfig config = {});

  std::string name() const override { return config_.name; }
  void schedule(sim::SchedulerContext& ctx) override;

  const TetrisConfig& config() const { return config_; }

  // Lifetime counters, for tests and diagnostics.
  struct Stats {
    long placements = 0;
    long priority_placements = 0;  // won via the barrier hint
    long starved_placements = 0;   // won via the starvation reservation
    long preemptions = 0;          // kills issued by fairness preemption
  };
  const Stats& stats() const { return stats_; }

  // Lifetime hot-path counters (also mirrored into the context's sink,
  // i.e. SimResult::perf, when one is attached).
  const util::PerfCounters& perf() const { return perf_; }

 private:
  // Job in the high 32 bits, stage in the low 32: no two groups share a
  // key whatever their stage count.
  static long long group_key(const sim::GroupRef& ref) {
    return (static_cast<long long>(ref.job) << 32) |
           static_cast<std::uint32_t>(ref.stage);
  }

  // Pass-local state of one schedule() call (defined in the .cc). The
  // stages below run in this order; the scan round and the commit repeat
  // until no candidate remains.
  struct Pass;
  bool begin_pass(Pass& p) const;
  // Tiering: starvation reservation and the per-row selection tiers.
  int tier_of(const Pass& p, const sim::GroupView& g) const;
  void assign_tiers(Pass& p) const;
  // Eligibility: the fairness knob's cut over jobs with pending tasks.
  std::unordered_set<sim::JobId> eligible_set(const Pass& p) const;
  void refresh_eligibility(Pass& p) const;
  void prepare_scan(Pass& p);
  // Scan round: picks the round's best <group, machine> cell into `p`;
  // false when no candidate remains. The oracle's round is scan_naive;
  // the optimized round is scan_optimized, the same row-major walk with
  // the shortcuts of DESIGN.md §8.2. Both refresh a stale cell with
  // refresh_cell and rank it with consider.
  bool scan_round(Pass& p);
  void scan_naive(Pass& p);
  void scan_optimized(Pass& p);
  void refresh_cell(Pass& p, std::size_t g, int m);
  void consider(Pass& p, std::size_t g, int m, int tier, double rem) const;
  // Commit: place the round's winner and invalidate what it changed.
  void commit(Pass& p);
  // Preemption: at most one fairness kill after the last round.
  void preempt(Pass& p);

  TetrisConfig config_;
  Stats stats_;
  util::PerfCounters perf_;
  // Running average of |alignment| across the scheduler's lifetime; the
  // a_bar of eps = a_bar / p_bar. Frozen at the start of every candidate
  // round so simultaneous candidates are compared under one eps.
  double alignment_sum_ = 0;
  long alignment_count_ = 0;
  // When each group last received a placement. A group is starved only if
  // its tasks have waited long AND it has not been served recently — a
  // backlogged group that places tasks every pass is queued, not starved.
  std::unordered_map<long long, double> last_placement_;
  // Highest retirement watermark already pruned from last_placement_.
  sim::JobId pruned_before_ = 0;
  // Persistent <group, machine> cell matrix in structure-of-arrays form
  // (DESIGN.md §8.6): the heavy payload (probe + alignment) lives in
  // slots that survive across passes — so every probe keeps its
  // remote-leg buffer capacity — while the per-pass scan flags are
  // separate byte planes reset with three fills. Constructing and
  // destroying the matrix each pass (megabytes of value-init plus a
  // vector free per probed cell) was a top slice of pass latency.
  // Rows are positional per pass; slot contents are only read after this
  // pass's refresh, so stale payloads are never observed.
  struct CellSlot {
    sim::Probe probe;
    double alignment = 0;
  };
  std::vector<CellSlot> cell_slots_;
  std::vector<unsigned char> cell_fresh_;     // probe + alignment up to date
  std::vector<unsigned char> cell_rejected_;  // does not fit; may be sticky
  std::vector<unsigned char> cell_sticky_;    // rejection monotone in avail
};

}  // namespace tetris::core
