#include "core/tetris_scheduler.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "sched/common.h"
#include "sched/fairness.h"
#include "trace/event.h"
#include "trace/recorder.h"

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

// A job's dominant share under this pass's own placements. Copy, then +=:
// every caller gets the identical double eligible_set() sorts by.
double adjusted_share(const sim::JobView& job, const Resources& extra,
                      const Resources& cluster_capacity) {
  sim::JobView v;  // job_share reads only current_alloc
  v.current_alloc = job.current_alloc;
  v.current_alloc += extra;
  return sched::job_share(kFairness, v, cluster_capacity, /*slot_mem=*/0);
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
    bool operator<(const EligKey& y) const {
      if (share != y.share) return share < y.share;
      if (arrival != y.arrival) return arrival < y.arrival;
      return id < y.id;
    }
  };
  struct ImminentDemand {
    sim::GroupRef ref;
    Resources demand;
    double eta;
    int tasks;  // claim budget: a stage can use at most this many machines
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
  // byte mask per job over the schedulable jobs' keys, which the pass's
  // first placement sorts so that each placement moves one key (move_cut).
  std::unordered_set<sim::JobId> eligible;
  std::vector<unsigned char> eligible_job;
  std::size_t eligible_count = 0;  // the fairness cut each placement traces
  std::vector<EligKey> elig_keys;
  bool keys_sorted = false;

  // Tiering. The optimized scan caches each row's tier and job index for
  // the pass and refreshes only the placed row; the oracle looks both up
  // per row per round.
  int reserved_machine = -1;
  std::vector<int> tier_by_row;
  std::vector<std::uint32_t> row_job;

  // Live bits: one per cell, ceil(M/64) words per row, set unless the
  // cell is fresh and rejected. The optimized scan visits only set bits;
  // a row whose words are all zero would do nothing at all, so the scan
  // skips it. On a saturated cluster most backlogged rows sit in that
  // state, so a round costs O(groups) plus the cells that can act.
  std::size_t row_words = 0;
  std::vector<std::uint64_t> live;
  // Future-demand hold-back: stages about to unblock, and the claims
  // they hold this round.
  std::vector<ImminentDemand> imminent;
  Claims claims;

  // The current round: frozen eps and the winner.
  double round_eps = 0;
  std::ptrdiff_t best_ci = -1;  // index into cell_slots_, -1 = none
  std::size_t best_g = 0;
  double best_score = 0;
  int best_tier = -1;

  std::size_t cidx(std::size_t g, int m) const {
    return g * static_cast<std::size_t>(num_machines) +
           static_cast<std::size_t>(m);
  }
  static std::uint64_t bit(int m) { return std::uint64_t{1} << (m % 64); }
  std::uint64_t& live_word(std::size_t g, int m) {
    return live[g * row_words + static_cast<std::size_t>(m / 64)];
  }
  void set_live_row(std::size_t g) {
    std::fill_n(live.begin() + static_cast<long>(g * row_words), row_words,
                ~std::uint64_t{0});
    if (num_machines % 64 != 0)
      live[(g + 1) * row_words - 1] = bit(num_machines) - 1;
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
      return (kv.first >> 32) < static_cast<long long>(retired);
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
  // Groups first: a pass with nothing to place never builds the job views.
  p.groups = p.ctx.runnable_groups();
  if (p.groups.empty()) return false;
  p.jobs = p.ctx.active_jobs();
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
    std::unordered_set<int> eligible_queues(
        order.begin(), order.begin() + static_cast<long>(cut(order.size())));
    for (const auto& j : schedulable) {
      if (eligible_queues.contains(j.queue)) out.insert(j.id);
    }
    return out;
  }
  const auto order = sched::furthest_from_share_order(
      kFairness, schedulable, p.ctx.cluster_capacity(), /*slot_mem=*/0);
  for (std::size_t k = 0; k < cut(order.size()); ++k)
    out.insert(schedulable[order[k]].id);
  return out;
}

// The fairness knob's cut over n jobs (or queues): the first
// ceil((1-f)·n) of them, at least one, at most n.
std::size_t TetrisScheduler::cut(std::size_t n) const {
  const double c = std::ceil((1.0 - config_.fairness_knob) *
                             static_cast<double>(n));
  return std::min(n, static_cast<std::size_t>(std::max(1.0, c)));
}

void TetrisScheduler::refresh_eligibility(Pass& p) const {
  if (p.naive) {
    p.eligible = eligible_set(p);
    p.eligible_count = p.eligible.size();
    return;
  }
  // The same cut, flat: an nth_element partition plus a byte-mask fill
  // gives bit-identical answers to eligible_set() without its JobView
  // copies, full sort or hash-set build. Placements then move the cut one
  // key at a time (move_cut).
  p.eligible_job.assign(p.jobs.size(), 0);
  p.eligible_count = 0;
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
  for (std::size_t i = 0; i < p.jobs.size(); ++i) {
    if (p.jobs[i].runnable_tasks - p.placed_from[i] <= 0) continue;
    p.elig_keys.push_back(
        {adjusted_share(p.jobs[i], p.extra[i], p.ctx.cluster_capacity()),
         p.jobs[i].arrival, p.jobs[i].id, static_cast<std::uint32_t>(i)});
  }
  const std::size_t take = cut(p.elig_keys.size());
  std::nth_element(p.elig_keys.begin(),
                   p.elig_keys.begin() + static_cast<long>(take),
                   p.elig_keys.end());
  for (std::size_t k = 0; k < take; ++k)
    p.eligible_job[p.elig_keys[k].idx] = 1;
  p.eligible_count = take;
}

// A placement moves one key, the placed job's share, and may drop that
// job from the schedulable set. With the keys sorted, the cut follows by
// one erase and one insert. Any other job's rank moves by at most one, so
// only the ranks from one below the lower of the old and new cut up to
// the higher one can change sides, besides the moved job itself.
void TetrisScheduler::move_cut(Pass& p, std::size_t ji) const {
  auto& keys = p.elig_keys;
  if (!p.keys_sorted) std::sort(keys.begin(), keys.end());
  p.keys_sorted = true;
  const auto it = std::find_if(keys.begin(), keys.end(), [&](const auto& k) {
    return k.idx == ji;
  });
  if (it == keys.end()) return;  // not schedulable before, nor after
  keys.erase(it);
  std::size_t rank = keys.size();  // past every cut: no longer schedulable
  if (p.jobs[ji].runnable_tasks - p.placed_from[ji] > 0) {
    const Pass::EligKey key{
        adjusted_share(p.jobs[ji], p.extra[ji], p.ctx.cluster_capacity()),
        p.jobs[ji].arrival, p.jobs[ji].id, static_cast<std::uint32_t>(ji)};
    const auto at = std::lower_bound(keys.begin(), keys.end(), key);
    rank = static_cast<std::size_t>(at - keys.begin());
    keys.insert(at, key);
  }
  const std::size_t before = p.eligible_count;
  const std::size_t take = cut(keys.size());
  p.eligible_job[ji] = rank < take;
  const std::size_t hi = std::min(std::max(before, take) + 1, keys.size());
  for (std::size_t k = std::max<std::size_t>(std::min(before, take), 1) - 1;
       k < hi; ++k)
    p.eligible_job[keys[k].idx] = k < take;
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
  p.row_words = (static_cast<std::size_t>(p.num_machines) + 63) / 64;
  p.live.resize(num_groups * p.row_words);
  for (std::size_t g = 0; g < num_groups; ++g) p.set_live_row(g);

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
    scan_optimized(p);
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
      if (!cell_fresh_[ci]) refresh_cell(p, g, m);
      if (!cell_rejected_[ci]) consider(p, g, m, tier, rem);
    }
  }
}

// The optimized round: scan_naive's walk, in its order, with four
// shortcuts. Row tiers and job indices are cached for the pass, and
// eligibility is a byte mask. Within a pass availability only falls
// (place() subtracts; preemption runs after the last round), which
// licenses the other two (DESIGN.md §8.2):
//   * sticky rejection: a cell rejected for fit reasons stays rejected
//     under lower availability, so a column invalidation need not
//     re-evaluate it;
//   * live bits: a fresh and rejected cell would do nothing at all, so
//     the walk visits only the row's set bits, in machine order, and
//     skips a row with none.
// None of the four changes which cells get scored, or in what order, so
// the eps normalizer — and with it every placement — matches the naive
// scan bit for bit. A stale cell that passes the cheap reject is
// re-probed; when only its column moved, the stage's probe slot replays
// the probe (DESIGN.md §8.3).
void TetrisScheduler::scan_optimized(Pass& p) {
  const std::size_t words = p.row_words;
  for (std::size_t g = 0; g < p.groups.size(); ++g) {
    if (p.groups[g].runnable <= 0) continue;
    const int tier = p.tier_by_row[g];
    // Priority tiers bypass the fairness restriction (§3.5).
    if (tier == 0 && !p.eligible_job[p.row_job[g]]) continue;
    if (tier < p.best_tier) continue;
    std::uint64_t* row = p.live.data() + g * words;
    if (std::all_of(row, row + words, [](std::uint64_t w) { return w == 0; })) {
      p.pc.row_skips += p.num_machines;
      continue;
    }
    const double rem =
        config_.srtf_weight > 0 ? p.jobs[p.row_job[g]].remaining_work : 0.0;
    const int reserved = tier < 2 ? p.reserved_machine : -1;
    for (std::size_t w = 0; w < words; ++w) {
      std::uint64_t todo = row[w];
      if (reserved >= 0 && static_cast<std::size_t>(reserved / 64) == w)
        todo &= ~Pass::bit(reserved);
      for (; todo != 0; todo &= todo - 1) {
        const int m = static_cast<int>(w * 64) + std::countr_zero(todo);
        const std::size_t ci = p.cidx(g, m);
        if (!cell_fresh_[ci]) {
          if (cell_rejected_[ci] && cell_sticky_[ci]) {
            // Rejected by a fit test against availability that has only
            // fallen since (or by a pass-constant condition): still
            // rejected.
            cell_fresh_[ci] = 1;
            p.pc.sticky_rejects++;
          } else {
            refresh_cell(p, g, m);
            // Every rejection of a refresh is pass-constant or monotone in
            // availability, so it may stand until the row is invalidated.
            cell_sticky_[ci] = cell_rejected_[ci];
          }
          if (cell_rejected_[ci]) row[w] &= ~Pass::bit(m);
        }
        if (!cell_rejected_[ci]) consider(p, g, m, tier, rem);
      }
    }
  }
}

void TetrisScheduler::refresh_cell(Pass& p, std::size_t g, int m) {
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

// The candidate rule over one live (fresh, not rejected) cell, in scan
// order: a higher tier always wins, and the strict > keeps the first
// candidate in row-major order on score ties. Hold-back applies to tier 0
// only.
void TetrisScheduler::consider(Pass& p, std::size_t g, int m, int tier,
                               double rem) const {
  const std::size_t ci = p.cidx(g, m);
  const CellSlot& c = cell_slots_[ci];
  if (tier == 0 && !p.claims.empty() &&
      held_back(p.claims, m, c.alignment, c.probe.duration))
    return;
  const double score = c.alignment - p.round_eps * rem;
  if (p.best_ci < 0 || tier > p.best_tier ||
      (tier == p.best_tier && score > p.best_score)) {
    p.best_ci = static_cast<std::ptrdiff_t>(ci);
    p.best_g = g;
    p.best_score = score;
    p.best_tier = tier;
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
    p.live_word(g, best.probe.machine) &= ~Pass::bit(best.probe.machine);
    return;
  }
  const sim::Probe placed = best.probe;
  if (!p.ctx.place(placed)) {
    // Stale probe: the candidate set changed under us. Not an
    // availability-monotone rejection — leave sticky unset so the next
    // refresh re-probes, as naive does.
    cell_rejected_[best_ci] = 1;
    p.live_word(g, placed.machine) &= ~Pass::bit(placed.machine);
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
    // Only the placed row's tier can have moved (its last_placement_
    // stamp just did); the cached tiers of every other row stand.
    p.tier_by_row[g] = tier_of(p, p.groups[g]);
  }
  if (config_.fairness_knob > 0) {
    if (p.naive || config_.fairness_over_queues) {
      refresh_eligibility(p);
    } else {
      move_cut(p, ji);
    }
  }

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
  p.set_live_row(g);
  const auto invalidate_column_cell = [&](std::size_t row, int m) {
    cell_fresh_[p.cidx(row, m)] = 0;
    p.live_word(row, m) |= Pass::bit(m);
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
  const auto share_of = [&](std::size_t i) {
    return adjusted_share(p.jobs[i], p.extra[i], p.ctx.cluster_capacity());
  };
  const sim::JobView* starving = nullptr;
  double min_share = 0;
  for (std::size_t i = 0; i < p.jobs.size(); ++i) {
    if (p.jobs[i].runnable_tasks - p.placed_from[i] <= 0) continue;
    const double share = share_of(i);
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
    shares[p.jobs[i].id] = share_of(i);
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
