#include "core/tetris_scheduler.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "core/score_kernel.h"
#include "sched/common.h"
#include "sched/fairness.h"
#include "trace/event.h"
#include "trace/recorder.h"
#include "util/soa_planes.h"

namespace tetris::core {

namespace {

// The job order behind the fairness knob (§3.4): dominant resource share.
constexpr sched::FairnessPolicy kFairness = sched::FairnessPolicy::kDrf;

// Full admission (§3.2) of a probed cell against live availability:
// every local dimension, plus disk-read / net-out at each remote source.
bool admits(const TetrisConfig& config, const sim::SchedulerContext& ctx,
            const sim::Probe& p) {
  const Resources avail = ctx.available(p.machine);
  if (config.only_cpu_mem) return sched::fits_cpu_mem(p.demand, avail);
  return sched::fits_all_local(p.demand, avail) &&
         sched::remote_legs_fit(ctx, p);
}

// Per machine, the (alignment, eta) claims of stages about to unblock.
using Claims = std::vector<std::vector<std::pair<double, double>>>;

// Future hold-back: a better-aligned stage unblocks on machine m before
// this (longer) candidate would release the resources.
bool held_back(const Claims& claims, int m, double alignment,
               double duration) {
  for (const auto& [align, eta] : claims[static_cast<std::size_t>(m)]) {
    if (align > alignment && duration > eta) return true;
  }
  return false;
}

}  // namespace

TetrisScheduler::TetrisScheduler(TetrisConfig config)
    : config_(std::move(config)) {
  // Each check states the legal range positively, so NaN — which fails
  // every comparison — is rejected along with out-of-range values.
  constexpr double kInf = std::numeric_limits<double>::infinity();
  if (!(0 <= config_.fairness_knob && config_.fairness_knob < 1.0))
    throw std::invalid_argument("fairness_knob must be in [0, 1)");
  if (!(0 <= config_.barrier_knob && config_.barrier_knob <= 1.0))
    throw std::invalid_argument("barrier_knob must be in [0, 1]");
  if (!(0 <= config_.remote_penalty && config_.remote_penalty <= 1.0))
    throw std::invalid_argument("remote_penalty must be in [0, 1]");
  if (!(0 <= config_.srtf_weight && config_.srtf_weight < kInf))
    throw std::invalid_argument("srtf_weight must be finite and >= 0");
  // +inf is the documented "off".
  if (!(0 < config_.starvation_threshold))
    throw std::invalid_argument("starvation_threshold must be > 0");
  if (!(0 <= config_.future_lookahead && config_.future_lookahead < kInf))
    throw std::invalid_argument("future_lookahead must be finite and >= 0");
  if (!(0 < config_.preemption_deficit && config_.preemption_deficit <= 1))
    throw std::invalid_argument("preemption_deficit must be in (0, 1]");
}

// Everything one schedule() call builds and drops. The scheduler members
// hold only what outlives a pass: the eps normalizer, the starvation
// stamps, the cell matrix and the lifetime counters.
struct TetrisScheduler::Pass {
  // A job's fairness key. The comparator (share, then arrival, then id) is
  // a total order, so the set of jobs ahead of the cut is unique no matter
  // how it is computed.
  struct EligKey {
    double share;
    SimTime arrival;
    sim::JobId id;
    std::uint32_t idx;
  };
  struct ImminentDemand {
    sim::GroupRef ref;
    Resources demand;
    double eta;
    int tasks;  // claim budget: a stage can use at most this many machines
  };
  // A cell of a round's worklists, with its row's SRTF remaining-work
  // term.
  struct RoundCell {
    std::size_t g;
    int m;
    double rem;
  };

  Pass(sim::SchedulerContext& c, bool n) : ctx(c), naive(n) {}

  sim::SchedulerContext& ctx;
  const bool naive;  // TetrisConfig::naive_scoring: the oracle's scan
  // Pass-local counters, folded into the lifetime totals and the
  // context's sink on every exit path. Observation only: nothing may
  // branch on them.
  util::PerfCounters pc;
  // Event-trace sink (DESIGN.md §10); null when tracing is off. Like the
  // counters, write-only.
  trace::Recorder* tracer = nullptr;
  int num_machines = 0;

  std::vector<sim::JobView> jobs;
  std::vector<sim::GroupView> groups;
  std::unordered_map<sim::JobId, std::size_t> job_index;
  double p_bar = 1;  // mean remaining work over active jobs
  // Extra allocation / placements committed during this pass, so the
  // fairness ordering tracks our own placements.
  std::vector<Resources> extra;
  std::vector<int> placed_from;

  // Eligibility. The oracle keeps the job-id set; the optimized scan a
  // byte mask per job plus a per-job share cache: `jobs` is a pass-long
  // snapshot and extra[i] moves only for the job a round places, so every
  // other job's share is the same double at the next refresh.
  std::unordered_set<sim::JobId> eligible;
  std::vector<unsigned char> eligible_job;
  std::size_t eligible_count = 0;  // the fairness cut each placement traces
  std::vector<EligKey> elig_keys;
  std::vector<double> share_val;
  std::vector<unsigned char> share_fresh;

  // Tiering. The optimized scan caches each row's tier and job index for
  // the pass and refreshes only the placed row; the oracle looks both up
  // per row per round.
  int reserved_machine = -1;
  std::vector<int> tier_by_row;
  std::vector<std::uint32_t> row_job;

  // Count of fresh-and-rejected cells per row. When it reaches
  // num_machines a scan of the row would do nothing at all, so the
  // optimized scan skips the row. On a saturated cluster most backlogged
  // rows sit in this state, turning the per-round cost from
  // O(groups * machines) into O(groups).
  std::vector<int> row_rejected;
  // SoA views over availability and capacity; null for contexts that do
  // not maintain them, in which case flushes gather per machine through
  // the virtuals — same values, just slower.
  const util::ResourcePlanes* avail_planes = nullptr;
  const util::ResourcePlanes* cap_planes = nullptr;
  // Future-demand hold-back: stages about to unblock, and the claims
  // they hold this round.
  std::vector<ImminentDemand> imminent;
  Claims claims;

  // The current round: frozen eps, the optimized scan's worklists and
  // the winner.
  double round_eps = 0;
  std::vector<RoundCell> pending;  // admitted cells awaiting the kernel
  std::vector<RoundCell> visit;    // live cells for Phase C
  std::ptrdiff_t best_ci = -1;  // index into cell_slots_, -1 = none
  std::size_t best_g = 0;
  double best_score = 0;
  int best_tier = -1;

  std::size_t cidx(std::size_t g, int m) const {
    return g * static_cast<std::size_t>(num_machines) +
           static_cast<std::size_t>(m);
  }
};

void TetrisScheduler::schedule(sim::SchedulerContext& ctx) {
  Pass p(ctx, config_.naive_scoring);
  struct CounterFlush {
    sim::SchedulerContext& ctx;
    util::PerfCounters& pass;
    util::PerfCounters& lifetime;
    ~CounterFlush() {
      lifetime += pass;
      if (auto* sink = ctx.perf_counters()) *sink += pass;
    }
  } counter_flush{ctx, p.pc, perf_};

  // Streaming retirement watermark: groups of jobs below it can never
  // reappear (ids are never reused), so their starvation timestamps are
  // dead weight — dropping them keeps this map bounded by the resident
  // window without changing any future lookup. Batch contexts report 0.
  if (const sim::JobId retired = ctx.retired_before();
      retired > pruned_before_) {
    std::erase_if(last_placement_, [&](const auto& kv) {
      return (kv.first >> 20) < static_cast<long long>(retired);
    });
    pruned_before_ = retired;
  }

  if (!begin_pass(p)) return;
  assign_tiers(p);
  refresh_eligibility(p);
  prepare_scan(p);
  // Globally greedy rounds over all <task-group, machine> pairs: the paper
  // "picks the <task, machine> pair with the highest dot product value".
  while (scan_round(p)) commit(p);
  if (config_.preempt_for_fairness) preempt(p);
}

bool TetrisScheduler::begin_pass(Pass& p) const {
  p.tracer = p.ctx.tracer();
  p.jobs = p.ctx.active_jobs();
  p.groups = p.ctx.runnable_groups();
  if (p.jobs.empty() || p.groups.empty()) return false;
  p.num_machines = p.ctx.num_machines();
  for (std::size_t i = 0; i < p.jobs.size(); ++i)
    p.job_index[p.jobs[i].id] = i;

  // Mean remaining work over active jobs: the p_bar of eps = a_bar/p_bar.
  double p_bar = 0;
  for (const auto& j : p.jobs) p_bar += j.remaining_work;
  p_bar /= static_cast<double>(p.jobs.size());
  p.p_bar = p_bar <= 0 ? 1 : p_bar;

  p.extra.assign(p.jobs.size(), Resources{});
  p.placed_from.assign(p.jobs.size(), 0);
  return true;
}

// Selection tiers: 2 = starved (reservation extension), 1 = barrier
// stragglers (§3.5), 0 = normal. Higher tiers always win. Starved means
// tasks have waited past the threshold *and* the group received no
// placement within it (a backlogged group served every pass is queued,
// not starved).
int TetrisScheduler::tier_of(const Pass& p, const sim::GroupView& g) const {
  double unserved = g.longest_wait;
  if (const auto it = last_placement_.find(group_key(g.ref));
      it != last_placement_.end()) {
    unserved = std::min(unserved, p.ctx.now() - it->second);
  }
  if (unserved > config_.starvation_threshold) return 2;
  if (config_.barrier_knob < 1.0 &&
      static_cast<double>(g.finished) >=
          config_.barrier_knob * static_cast<double>(g.total)) {
    return 1;
  }
  return 0;
}

void TetrisScheduler::assign_tiers(Pass& p) const {
  // Starvation reservation: while some starved group fits nowhere, fence
  // off the machine with the most free headroom so departing tasks
  // accumulate capacity for it instead of being backfilled.
  const auto starved = [&](const sim::GroupView& g) {
    return g.runnable > 0 && tier_of(p, g) == 2;
  };
  if (std::any_of(p.groups.begin(), p.groups.end(), starved)) {
    double best_headroom = -1;
    for (int m = 0; m < p.num_machines; ++m) {
      if (!p.ctx.machine_up(m)) continue;  // nothing accumulates on a corpse
      // Reserving a machine no starved group may legally use would fence
      // capacity the starved work can never claim.
      const bool usable =
          std::any_of(p.groups.begin(), p.groups.end(), [&](const auto& g) {
            return starved(g) && p.ctx.constraints_admit(g.ref, m);
          });
      if (!usable) continue;
      const double headroom =
          p.ctx.available(m).normalized_by(p.ctx.capacity(m)).sum();
      if (headroom > best_headroom) {
        best_headroom = headroom;
        p.reserved_machine = m;
      }
    }
  }

  if (p.naive) return;
  // Tiers move only through placements (`last_placement_` / runnable), so
  // the optimized scan computes them once per pass and commit() refreshes
  // just the placed row: same tier values as the per-row lookups.
  const std::size_t num_groups = p.groups.size();
  p.tier_by_row.resize(num_groups);
  p.row_job.resize(num_groups);
  for (std::size_t g = 0; g < num_groups; ++g) {
    p.tier_by_row[g] = tier_of(p, p.groups[g]);
    p.row_job[g] =
        static_cast<std::uint32_t>(p.job_index.at(p.groups[g].ref.job));
  }
}

// The fair schedulers Tetris generalizes offer resources among jobs that
// *have pending tasks*; a job waiting at a barrier demands nothing and
// must not occupy an eligibility slot (it would idle the cluster as
// f -> 1).
std::unordered_set<sim::JobId> TetrisScheduler::eligible_set(
    const Pass& p) const {
  std::unordered_set<sim::JobId> out;
  std::vector<sim::JobView> schedulable;
  schedulable.reserve(p.jobs.size());
  for (std::size_t i = 0; i < p.jobs.size(); ++i) {
    if (p.jobs[i].runnable_tasks - p.placed_from[i] <= 0) continue;
    sim::JobView v = p.jobs[i];
    v.current_alloc += p.extra[i];
    schedulable.push_back(std::move(v));
  }
  if (config_.fairness_knob <= 0) {
    for (const auto& j : schedulable) out.insert(j.id);
    return out;
  }
  if (config_.fairness_over_queues) {
    // Queue granularity: all jobs of the furthest-below queues are
    // eligible. Shares aggregate over *all* active jobs of a queue (its
    // running work counts even if momentarily unschedulable), but only
    // queues with schedulable jobs occupy eligibility slots.
    std::unordered_set<int> schedulable_queues;
    for (const auto& j : schedulable) schedulable_queues.insert(j.queue);
    std::vector<sim::JobView> adjusted = p.jobs;
    for (std::size_t i = 0; i < adjusted.size(); ++i)
      adjusted[i].current_alloc += p.extra[i];
    std::vector<sim::JobView> counted;
    for (const auto& j : adjusted) {
      if (schedulable_queues.contains(j.queue)) counted.push_back(j);
    }
    const auto order = sched::furthest_queues_order(
        kFairness, counted, p.ctx.cluster_capacity(), /*slot_mem=*/0);
    const auto cut = static_cast<std::size_t>(std::max(
        1.0, std::ceil((1.0 - config_.fairness_knob) *
                       static_cast<double>(order.size()))));
    std::unordered_set<int> eligible_queues(
        order.begin(),
        order.begin() + static_cast<long>(std::min(cut, order.size())));
    for (const auto& j : schedulable) {
      if (eligible_queues.contains(j.queue)) out.insert(j.id);
    }
    return out;
  }
  const auto order = sched::furthest_from_share_order(
      kFairness, schedulable, p.ctx.cluster_capacity(), /*slot_mem=*/0);
  const auto cut = static_cast<std::size_t>(std::max(
      1.0, std::ceil((1.0 - config_.fairness_knob) *
                     static_cast<double>(schedulable.size()))));
  for (std::size_t k = 0; k < std::min(cut, order.size()); ++k)
    out.insert(schedulable[order[k]].id);
  return out;
}

void TetrisScheduler::refresh_eligibility(Pass& p) const {
  if (p.naive) {
    p.eligible = eligible_set(p);
    p.eligible_count = p.eligible.size();
    return;
  }
  // The same cut, flat: an nth_element partition plus a byte-mask fill
  // gives bit-identical answers to eligible_set() without the per-round
  // JobView copies, the full sort, or the hash-set build. At 10K-task
  // backlogs this runs once per placement round and was a top-three term
  // in pass latency.
  p.eligible_job.assign(p.jobs.size(), 0);
  p.eligible_count = 0;
  p.share_val.resize(p.jobs.size());  // sized once per pass
  p.share_fresh.resize(p.jobs.size(), 0);
  if (config_.fairness_knob > 0 && config_.fairness_over_queues) {
    // Queue granularity aggregates shares across jobs; it is rare and
    // off the hot path, so reuse the generic set computation and
    // project it onto the mask.
    const auto out = eligible_set(p);
    for (const sim::JobId id : out) p.eligible_job[p.job_index.at(id)] = 1;
    p.eligible_count = out.size();
    return;
  }
  if (config_.fairness_knob <= 0) {
    for (std::size_t i = 0; i < p.jobs.size(); ++i) {
      if (p.jobs[i].runnable_tasks - p.placed_from[i] <= 0) continue;
      p.eligible_job[i] = 1;
      p.eligible_count++;
    }
    return;
  }
  p.elig_keys.clear();
  sim::JobView share_scratch;  // job_share reads only current_alloc
  for (std::size_t i = 0; i < p.jobs.size(); ++i) {
    if (p.jobs[i].runnable_tasks - p.placed_from[i] <= 0) continue;
    // Same arithmetic as eligible_set(): copy, then +=, so the share key
    // is the identical double.
    if (!p.share_fresh[i]) {
      share_scratch.current_alloc = p.jobs[i].current_alloc;
      share_scratch.current_alloc += p.extra[i];
      p.share_val[i] =
          sched::job_share(kFairness, share_scratch,
                           p.ctx.cluster_capacity(), /*slot_mem=*/0);
      p.share_fresh[i] = 1;
    }
    p.elig_keys.push_back({p.share_val[i], p.jobs[i].arrival, p.jobs[i].id,
                           static_cast<std::uint32_t>(i)});
  }
  const auto cut = static_cast<std::size_t>(std::max(
      1.0, std::ceil((1.0 - config_.fairness_knob) *
                     static_cast<double>(p.elig_keys.size()))));
  const std::size_t take = std::min(cut, p.elig_keys.size());
  if (take < p.elig_keys.size()) {
    std::nth_element(p.elig_keys.begin(),
                     p.elig_keys.begin() + static_cast<long>(take),
                     p.elig_keys.end(),
                     [](const Pass::EligKey& x, const Pass::EligKey& y) {
                       if (x.share != y.share) return x.share < y.share;
                       if (x.arrival != y.arrival)
                         return x.arrival < y.arrival;
                       return x.id < y.id;
                     });
  }
  for (std::size_t k = 0; k < take; ++k)
    p.eligible_job[p.elig_keys[k].idx] = 1;
  p.eligible_count = take;
}

void TetrisScheduler::prepare_scan(Pass& p) {
  // Persistent SoA cell matrix (members, see tetris_scheduler.h): ensure
  // capacity, then reset only the per-pass scan flags. Slots keep their
  // probes' heap buffers.
  const std::size_t num_groups = p.groups.size();
  const std::size_t num_cells =
      num_groups * static_cast<std::size_t>(p.num_machines);
  if (cell_slots_.size() < num_cells) {
    cell_slots_.resize(num_cells);
    cell_fresh_.resize(num_cells);
    cell_rejected_.resize(num_cells);
    cell_sticky_.resize(num_cells);
  }
  std::fill_n(cell_fresh_.begin(), num_cells, 0);
  std::fill_n(cell_rejected_.begin(), num_cells, 0);
  std::fill_n(cell_sticky_.begin(), num_cells, 0);
  p.row_rejected.assign(num_groups, 0);

  // Future-demand hold-back (§3.5 extension): demands of stages about to
  // unblock within the lookahead window. A tier-0 candidate loses a
  // machine to the future only when BOTH hold: an imminent stage would
  // align strictly better on the machine's current availability, AND the
  // candidate runs longer than that stage's eta — holding back costs at
  // most eta of idleness, while placing blocks the imminent stage for the
  // candidate's whole duration. Without the duration test, deep DAGs
  // (where something is always imminent) would suppress all work.
  if (config_.future_lookahead > 0) {
    for (const auto& g : p.ctx.imminent_groups()) {
      if (g.eta <= config_.future_lookahead)
        p.imminent.push_back({g.ref, g.est_demand, g.eta, g.total});
    }
  }

  if (p.naive) return;
  p.avail_planes = p.ctx.availability_planes();
  p.cap_planes = p.ctx.capacity_planes();
}

bool TetrisScheduler::scan_round(Pass& p) {
  // eps is frozen for this round so all candidates are compared under
  // the same SRTF weight; the running a_bar only feeds later rounds.
  p.round_eps = config_.srtf_weight *
                (alignment_count_ > 0
                     ? alignment_sum_ / static_cast<double>(alignment_count_)
                     : 0.0) /
                p.p_bar;

  // Per-round hold-back claims (availability changes between rounds).
  // Each stage claims only the machines where it aligns best, at most as
  // many as it has tasks — otherwise a small stage would fence the whole
  // cluster.
  if (!p.imminent.empty()) {
    p.claims.assign(static_cast<std::size_t>(p.num_machines), {});
    std::vector<std::pair<double, int>> scored;  // (alignment, machine)
    for (const auto& i : p.imminent) {
      scored.clear();
      for (int m = 0; m < p.num_machines; ++m) {
        if (!p.ctx.machine_up(m)) continue;
        // A stage only ever claims machines it could legally run on once
        // its barrier breaks.
        if (!p.ctx.constraints_admit(i.ref, m)) continue;
        const Resources cap = p.ctx.capacity(m);
        if (!i.demand.fits_within(cap)) continue;
        scored.emplace_back(
            alignment_score(config_.alignment, i.demand.normalized_by(cap),
                            p.ctx.available(m).normalized_by(cap)),
            m);
      }
      const auto budget = static_cast<std::size_t>(
          std::max(1, std::min(i.tasks, p.num_machines)));
      if (scored.size() > budget) {
        std::partial_sort(scored.begin(),
                          scored.begin() + static_cast<long>(budget),
                          scored.end(), std::greater<>());
        scored.resize(budget);
      }
      for (const auto& [align, m] : scored)
        p.claims[static_cast<std::size_t>(m)].emplace_back(align, i.eta);
    }
  }

  p.best_ci = -1;
  p.best_g = 0;
  p.best_score = 0;
  p.best_tier = -1;
  if (p.naive) {
    scan_naive(p);
  } else {
    scan_batched(p);
  }
  return p.best_ci >= 0;
}

// The oracle: one row-major walk that refreshes every stale cell from
// scratch and keeps the best candidate of the highest tier seen so far.
void TetrisScheduler::scan_naive(Pass& p) {
  for (std::size_t g = 0; g < p.groups.size(); ++g) {
    const sim::GroupView& group = p.groups[g];
    if (group.runnable <= 0) continue;
    const int tier = tier_of(p, group);
    // Priority (barrier/starved) groups bypass the fairness
    // restriction: they take only a small amount of resources (§3.5).
    if (tier == 0 && !p.eligible.contains(group.ref.job)) continue;
    // Once a higher-tier candidate exists, lower tiers cannot win.
    if (tier < p.best_tier) continue;
    const double rem =
        config_.srtf_weight > 0
            ? p.jobs[p.job_index.at(group.ref.job)].remaining_work
            : 0.0;
    for (int m = 0; m < p.num_machines; ++m) {
      // A reserved machine only accepts the starved tier.
      if (m == p.reserved_machine && tier < 2) continue;
      const std::size_t ci = p.cidx(g, m);
      if (!cell_fresh_[ci]) {
        refresh_cell_naive(p, g, m);
        if (cell_rejected_[ci]) p.row_rejected[g]++;
      }
      if (cell_rejected_[ci]) continue;
      const CellSlot& c = cell_slots_[ci];
      if (tier == 0 && !p.claims.empty() &&
          held_back(p.claims, m, c.alignment, c.probe.duration))
        continue;
      const double score = c.alignment - p.round_eps * rem;
      if (p.best_ci < 0 || tier > p.best_tier ||
          (tier == p.best_tier && score > p.best_score)) {
        p.best_ci = static_cast<std::ptrdiff_t>(ci);
        p.best_g = g;
        p.best_score = score;
        p.best_tier = tier;
      }
    }
  }
}

void TetrisScheduler::refresh_cell_naive(Pass& p, std::size_t g, int m) {
  const std::size_t ci = p.cidx(g, m);
  CellSlot& c = cell_slots_[ci];
  sim::GroupView& group = p.groups[g];
  cell_fresh_[ci] = 1;
  cell_rejected_[ci] = 1;
  if (group.runnable <= 0) return;
  // A down machine admits nothing; bail before probing — an invalid
  // probe below means "group drained", which a churn outage is not.
  // Constraint-inadmissible machines bail the same way.
  if (!p.ctx.machine_up(m)) return;
  if (!p.ctx.constraints_admit(group.ref, m)) return;
  const Resources avail = p.ctx.available(m);
  // Cheap exact reject on the placement-independent dimensions.
  if (!sched::fits_cpu_mem(group.est_demand, avail)) return;
  // In place: the cell's remote-leg buffer keeps its capacity.
  p.ctx.probe_into(group.ref, m, &c.probe);
  p.pc.probes_issued++;
  if (!c.probe.valid) {
    group.runnable = 0;  // no candidate task left anywhere
    return;
  }
  if (!admits(config_, p.ctx, c.probe)) return;
  const Resources cap = p.ctx.capacity(m);
  double a = alignment_score(config_.alignment,
                             c.probe.demand.normalized_by(cap),
                             avail.normalized_by(cap));
  a *= 1.0 - config_.remote_penalty * (1.0 - c.probe.local_fraction);
  p.pc.score_evals++;
  alignment_sum_ += std::abs(a);
  alignment_count_++;
  c.alignment = a;
  cell_rejected_[ci] = 0;
}

// The optimized scan: one row-major pass per round, in three phases.
// Phase A walks the cells in the naive scan's order and does everything
// before the score; Phase B scores the admitted cells through the kernel;
// Phase C picks the round's best over the known alignments by the naive
// rule. Within a pass availability only falls (place() subtracts;
// preemption runs after the last round), which licenses Phase A's
// shortcuts (DESIGN.md §8.2):
//   * sticky rejection: a cell rejected for fit reasons stays rejected
//     under lower availability, so a column invalidation need not
//     re-evaluate it;
//   * whole-row skip: a row whose cells are all fresh and rejected would
//     do nothing at all.
// Neither changes which cells get *scored*, so the eps normalizer — and
// with it every placement — matches the naive scan bit for bit. A stale
// cell that passes the cheap reject is re-probed; when only its column
// moved, the stage's probe slot replays the probe (DESIGN.md §8.3).
void TetrisScheduler::scan_batched(Pass& p) {
  const int num_machines = p.num_machines;

  // Phase A's half of a refresh: everything the naive refresh does up to
  // the score itself — the sticky shortcut, rejected-until-proven marking,
  // runnable/up/constraint checks, the cheap cpu/mem reject, the probe and
  // the full admission test. Returns true iff the cell passed admission
  // and its alignment must come from the kernel. Gating on the scalar
  // admission here keeps the batch dense: a cell the naive scan rejects
  // with a component compare never pays the gather and lane cost.
  const auto prepare_cell = [&](std::size_t g, int m, std::size_t ci) {
    if (cell_rejected_[ci] && cell_sticky_[ci]) {
      // The rejection was a fit test against availability that has only
      // fallen since (or a pass-constant condition): still rejected.
      cell_fresh_[ci] = 1;
      p.pc.sticky_rejects++;
      return false;
    }
    cell_fresh_[ci] = 1;
    cell_rejected_[ci] = 1;
    // Every rejection below is pass-constant or monotone in availability,
    // so the flag may stand until a score clears it.
    cell_sticky_[ci] = 1;
    sim::GroupView& group = p.groups[g];
    if (group.runnable <= 0) return false;
    if (!p.ctx.machine_up(m)) return false;
    if (!p.ctx.constraints_admit(group.ref, m)) return false;
    if (!sched::fits_cpu_mem(group.est_demand, p.ctx.available(m)))
      return false;
    CellSlot& c = cell_slots_[ci];
    p.ctx.probe_into(group.ref, m, &c.probe);
    p.pc.probes_issued++;
    if (!c.probe.valid) {
      group.runnable = 0;  // no candidate task left anywhere
      return false;
    }
    return admits(config_, p.ctx, c.probe);
  };

  // Phase A: the rows in order, through the naive scan's row filters and
  // the whole-row skip. Each stale cell is refreshed up to its score; a
  // cell that passes full admission joins the pending list, and every
  // live cell joins the visit list — both in scan order. Stale cells
  // count as rejected until Phase B scores them.
  //
  // The naive scan skips a row whose tier is below that of a candidate
  // it has already found. Hold-back applies only to tier 0, so a row of
  // tier >= 1 yields a candidate exactly when it has a live cell (fresh
  // and not rejected, or admitted and awaiting its score); a tier-0
  // candidate skips nothing, as no tier is below 0. `live_tier`, the
  // highest tier of a scanned row with a live cell, therefore gives the
  // naive skip set row for row before any score is known.
  p.pending.clear();
  p.visit.clear();
  int live_tier = 0;
  for (std::size_t g = 0; g < p.groups.size(); ++g) {
    if (p.groups[g].runnable <= 0) continue;
    const int tier = p.tier_by_row[g];
    // Priority tiers bypass the fairness restriction (§3.5).
    if (tier == 0 && !p.eligible_job[p.row_job[g]]) continue;
    if (tier < live_tier) continue;
    if (p.row_rejected[g] == num_machines) {
      p.pc.row_skips += num_machines;
      continue;
    }
    const double rem =
        config_.srtf_weight > 0 ? p.jobs[p.row_job[g]].remaining_work : 0.0;
    // A reserved machine only accepts the starved tier.
    const int reserved = tier < 2 ? p.reserved_machine : -1;
    const std::size_t row = p.cidx(g, 0);
    const std::size_t visited = p.visit.size();
    for (int m = 0; m < num_machines; ++m) {
      if (m == reserved) continue;
      const std::size_t ci = row + static_cast<std::size_t>(m);
      if (!cell_fresh_[ci]) {
        p.row_rejected[g]++;
        if (prepare_cell(g, m, ci)) {
          p.pending.push_back({g, m, rem});
          p.visit.push_back({g, m, rem});
        }
      } else if (!cell_rejected_[ci]) {
        p.visit.push_back({g, m, rem});
      }
    }
    if (p.visit.size() > visited) live_tier = std::max(live_tier, tier);
  }

  // Phase B: the pending cells' alignments, lane_width() lanes per kernel
  // call, in scan order. Every pending cell already passed the full
  // scalar admission, so each lane scores exactly as the naive refresh
  // would: same counter, same cell writeback, and its |a| enters the eps
  // normalizer in the naive (g, m) order. Its provisional rejection is
  // undone.
  const auto width = static_cast<std::size_t>(simd::lane_width());
  simd::ScoreBlock block;
  simd::ScoreOut res;
  for (std::size_t i = 0; i < p.pending.size(); i += block.n) {
    block.n = std::min(width, p.pending.size() - i);
    for (std::size_t l = 0; l < block.n; ++l) {
      const Pass::RoundCell& w = p.pending[i + l];
      const auto mi = static_cast<std::size_t>(w.m);
      const CellSlot& c = cell_slots_[p.cidx(w.g, w.m)];
      for (std::size_t r = 0; r < kNumResources; ++r)
        block.demand[r][l] = c.probe.demand.at(r);
      if (p.avail_planes != nullptr && p.cap_planes != nullptr) {
        for (std::size_t r = 0; r < kNumResources; ++r) {
          block.avail[r][l] = p.avail_planes->plane(r)[mi];
          block.cap[r][l] = p.cap_planes->plane(r)[mi];
        }
      } else {
        const Resources av = p.ctx.available(w.m);
        const Resources cp = p.ctx.capacity(w.m);
        for (std::size_t r = 0; r < kNumResources; ++r) {
          block.avail[r][l] = av.at(r);
          block.cap[r][l] = cp.at(r);
        }
      }
      block.local_fraction[l] = c.probe.local_fraction;
    }
    simd::score_block(config_.alignment, config_.remote_penalty, block, &res,
                      &p.pc.simd_blocks, &p.pc.scalar_tail_evals);
    for (std::size_t l = 0; l < block.n; ++l) {
      const Pass::RoundCell& w = p.pending[i + l];
      const std::size_t ci = p.cidx(w.g, w.m);
      const double a = res.score[l];
      p.pc.score_evals++;
      alignment_sum_ += std::abs(a);
      alignment_count_++;
      cell_slots_[ci].alignment = a;
      cell_rejected_[ci] = 0;
      cell_sticky_[ci] = 0;
      p.row_rejected[w.g]--;
    }
  }

  // Phase C: the naive candidate rule over the visit list, in scan order.
  // A higher tier always wins; strict > keeps the first candidate in
  // row-major order on score ties.
  for (const Pass::RoundCell& v : p.visit) {
    const std::size_t ci = p.cidx(v.g, v.m);
    const CellSlot& c = cell_slots_[ci];
    const int tier = p.tier_by_row[v.g];
    if (tier == 0 && !p.claims.empty() &&
        held_back(p.claims, v.m, c.alignment, c.probe.duration))
      continue;
    const double score = c.alignment - p.round_eps * v.rem;
    if (p.best_ci < 0 || tier > p.best_tier ||
        (tier == p.best_tier && score > p.best_score)) {
      p.best_ci = static_cast<std::ptrdiff_t>(ci);
      p.best_g = v.g;
      p.best_score = score;
      p.best_tier = tier;
    }
  }
}

void TetrisScheduler::commit(Pass& p) {
  const auto best_ci = static_cast<std::size_t>(p.best_ci);
  const std::size_t g = p.best_g;
  const CellSlot& best = cell_slots_[best_ci];
  // Re-validate against live availability: a cached probe's *remote*
  // legs may have been consumed by a placement on a third machine whose
  // column this cell does not share.
  if (!admits(config_, p.ctx, best.probe)) {
    cell_rejected_[best_ci] = 1;
    p.row_rejected[g]++;
    return;
  }
  const sim::Probe placed = best.probe;
  if (!p.ctx.place(placed)) {
    // Stale probe: the candidate set changed under us. Not an
    // availability-monotone rejection — leave sticky unset so the next
    // refresh re-probes, as naive does.
    cell_rejected_[best_ci] = 1;
    p.row_rejected[g]++;
    return;
  }
  p.groups[g].runnable--;
  stats_.placements++;
  if (p.best_tier == 1) stats_.priority_placements++;
  if (p.best_tier == 2) stats_.starved_placements++;
  if (p.tracer != nullptr) {
    // Recorded before the fairness cut refreshes below: `f` is the
    // eligible-job count this decision was made under. score = x - y.
    trace::Event ev;
    ev.kind = trace::EventKind::kPlacement;
    ev.time = p.ctx.now();
    ev.a = placed.group.job;
    ev.b = placed.group.stage;
    ev.c = placed.task_index;
    ev.d = placed.machine;
    ev.e = p.best_tier;
    ev.f = static_cast<std::int64_t>(p.eligible_count);
    ev.x = best.alignment;
    ev.y = best.alignment - p.best_score;  // eps * p_hat SRTF penalty
    p.tracer->record(ev);
  }
  last_placement_[group_key(placed.group)] = p.ctx.now();
  const auto ji = p.job_index.at(placed.group.job);
  p.extra[ji] += placed.demand;
  p.placed_from[ji]++;
  if (!p.naive) {
    p.share_fresh[ji] = 0;  // its share key just moved
    // Only the placed row's tier can have moved (its last_placement_
    // stamp just did); the cached tiers of every other row stand.
    p.tier_by_row[g] = tier_of(p, p.groups[g]);
  }
  if (config_.fairness_knob > 0) refresh_eligibility(p);

  // Invalidate what the placement changed: the group's candidate task,
  // the host machine's availability, and the remote sources' budgets.
  // The placed group's row loses everything — its candidate set changed,
  // so cached rejections are void. Column invalidations only reflect
  // fallen availability: rejections stay sticky, and the re-probe of a
  // live cell is answered by its stage's probe slot.
  for (int m = 0; m < p.num_machines; ++m) {
    const std::size_t ci = p.cidx(g, m);
    cell_fresh_[ci] = 0;
    cell_rejected_[ci] = 0;
    cell_sticky_[ci] = 0;
  }
  p.row_rejected[g] = 0;
  const auto invalidate_column_cell = [&](std::size_t row, int m) {
    const std::size_t ci = p.cidx(row, m);
    if (cell_fresh_[ci] && cell_rejected_[ci]) p.row_rejected[row]--;
    cell_fresh_[ci] = 0;
  };
  for (std::size_t row = 0; row < p.groups.size(); ++row) {
    invalidate_column_cell(row, placed.machine);
    for (const auto& leg : placed.remote) {
      // Rack uplinks carry ids past the placement machines; they have no
      // cell column (the pre-place re-validation catches staleness).
      if (leg.machine < p.num_machines)
        invalidate_column_cell(row, leg.machine);
    }
  }
}

// Fairness preemption (extension): the rounds exhausted every placeable
// candidate, so a schedulable job left with runnable tasks provably fits
// nowhere. If the furthest-below one trails fair share badly, kill the
// newest task of the most over-share job (one per pass).
void TetrisScheduler::preempt(Pass& p) {
  const auto adjusted_share = [&](std::size_t i) {
    sim::JobView adjusted = p.jobs[i];
    adjusted.current_alloc += p.extra[i];
    return sched::job_share(kFairness, adjusted,
                            p.ctx.cluster_capacity(), /*slot_mem=*/0);
  };
  const sim::JobView* starving = nullptr;
  double min_share = 0;
  for (std::size_t i = 0; i < p.jobs.size(); ++i) {
    if (p.jobs[i].runnable_tasks - p.placed_from[i] <= 0) continue;
    const double share = adjusted_share(i);
    if (starving == nullptr || share < min_share) {
      starving = &p.jobs[i];
      min_share = share;
    }
  }
  if (starving == nullptr || p.jobs.size() < 2) return;
  const double fair = 1.0 / static_cast<double>(p.jobs.size());
  if (fair - min_share < config_.preemption_deficit) return;

  const auto running = p.ctx.running_tasks();
  const sim::RunningTaskView* victim = nullptr;
  double victim_share = fair;
  std::unordered_map<sim::JobId, double> shares;
  for (std::size_t i = 0; i < p.jobs.size(); ++i)
    shares[p.jobs[i].id] = adjusted_share(i);
  for (const auto& t : running) {
    if (t.job == starving->id) continue;
    const auto it = shares.find(t.job);
    if (it == shares.end() || it->second <= fair) continue;
    // Most over-share job first; newest task within it (least work lost).
    if (victim == nullptr || it->second > victim_share ||
        (it->second == victim_share && t.started > victim->started)) {
      victim = &t;
      victim_share = it->second;
    }
  }
  if (victim != nullptr && p.ctx.preempt(victim->uid)) {
    stats_.preemptions++;
  }
}

}  // namespace tetris::core
