#include "core/tetris_scheduler.h"

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "core/score_kernel.h"
#include "sched/common.h"
#include "trace/event.h"
#include "trace/recorder.h"
#include "util/soa_planes.h"

namespace tetris::core {

SimdMode simd_mode_from_string(std::string_view s) {
  if (s == "off") return SimdMode::kOff;
  if (s == "on") return SimdMode::kOn;
  throw std::invalid_argument("simd mode must be \"off\" or \"on\", got \"" +
                              std::string(s) + "\"");
}

std::string_view simd_mode_name(SimdMode mode) {
  switch (mode) {
    case SimdMode::kOff:
      return "off";
    case SimdMode::kOn:
      return "on";
  }
  return "?";
}

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
  if (!(0 < config_.slot_mem && config_.slot_mem < kInf))
    throw std::invalid_argument("slot_mem must be finite and > 0");
  // +inf is the documented "off".
  if (!(0 < config_.starvation_threshold))
    throw std::invalid_argument("starvation_threshold must be > 0");
  if (!(0 <= config_.future_lookahead && config_.future_lookahead < kInf))
    throw std::invalid_argument("future_lookahead must be finite and >= 0");
  if (!(0 < config_.preemption_deficit && config_.preemption_deficit <= 1))
    throw std::invalid_argument("preemption_deficit must be in (0, 1]");
  if (config_.num_threads < 0)
    throw std::invalid_argument("num_threads must be >= 0");
  // Configs built from parsed knobs can smuggle any integer into the
  // enum; reject everything but the named modes so a typo'd sweep fails
  // loudly instead of silently scoring scalar (mirrors num_threads).
  if (config_.simd != SimdMode::kOff && config_.simd != SimdMode::kOn)
    throw std::invalid_argument(
        "simd must be SimdMode::kOff or SimdMode::kOn");
}

void TetrisScheduler::schedule(sim::SchedulerContext& ctx) {
  // Keep the report stream drained (a real deployment feeds the demand
  // estimator from it; the simulation's estimation model already reflects
  // that behaviour, see sim/config.h).
  (void)ctx.take_reports();

  // Pass-local instrumentation, folded into the lifetime counters and the
  // context's sink (SimResult::perf) on every exit path. Observation
  // only: nothing below may branch on these.
  util::PerfCounters pc;
  struct CounterFlush {
    sim::SchedulerContext& ctx;
    util::PerfCounters& pass;
    util::PerfCounters& lifetime;
    ~CounterFlush() {
      lifetime += pass;
      if (auto* sink = ctx.perf_counters()) *sink += pass;
    }
  } counter_flush{ctx, pc, perf_};

  // Event-trace sink (DESIGN.md §10); null when tracing is off. Like the
  // perf counters, strictly write-only: decisions never branch on it.
  trace::Recorder* tracer = ctx.tracer();

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

  auto jobs = ctx.active_jobs();
  auto groups = ctx.runnable_groups();
  if (jobs.empty() || groups.empty()) return;

  std::unordered_map<sim::JobId, std::size_t> job_index;
  for (std::size_t i = 0; i < jobs.size(); ++i) job_index[jobs[i].id] = i;

  // Scan-shape selectors, hoisted ahead of the eligibility machinery so
  // the waved path can pick its flat-array variants from the start.
  const bool naive = config_.naive_scoring;
  const int num_machines = ctx.num_machines();
  const std::size_t num_groups = groups.size();
  const bool use_simd = !naive && config_.simd == SimdMode::kOn;
  const int num_shards =
      config_.num_threads > 0 ? std::min(config_.num_threads, num_machines)
                              : 0;
  const bool parallel = num_shards > 0;
  // The wave-structured scan runs for parallel passes (shards scanned by
  // the pool) and for serial SIMD passes (one full-width shard scanned
  // inline): batching needs the deferred best-update that the §9 waves
  // already make exact.
  const bool waved = parallel || use_simd;

  // Mean remaining work over active jobs: the p_bar of eps = a_bar/p_bar.
  double p_bar = 0;
  for (const auto& j : jobs) p_bar += j.remaining_work;
  p_bar = jobs.size() ? p_bar / static_cast<double>(jobs.size()) : 0;
  if (p_bar <= 0) p_bar = 1;

  // Extra allocation / placements committed during this pass, so the
  // fairness ordering tracks our own placements.
  std::vector<Resources> extra(jobs.size());
  std::vector<int> placed_from(jobs.size(), 0);

  // The fair schedulers Tetris generalizes offer resources among jobs that
  // *have pending tasks*; a job waiting at a barrier demands nothing and
  // must not occupy an eligibility slot (it would idle the cluster as
  // f -> 1).
  const auto eligible_jobs = [&]() {
    std::unordered_set<sim::JobId> out;
    std::vector<sim::JobView> schedulable;
    schedulable.reserve(jobs.size());
    for (std::size_t i = 0; i < jobs.size(); ++i) {
      if (jobs[i].runnable_tasks - placed_from[i] <= 0) continue;
      sim::JobView v = jobs[i];
      v.current_alloc += extra[i];
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
      std::vector<sim::JobView> adjusted = jobs;
      for (std::size_t i = 0; i < adjusted.size(); ++i)
        adjusted[i].current_alloc += extra[i];
      std::vector<sim::JobView> counted;
      for (const auto& j : adjusted) {
        if (schedulable_queues.contains(j.queue)) counted.push_back(j);
      }
      const auto order = sched::furthest_queues_order(
          config_.fairness_policy, counted, ctx.cluster_capacity(),
          config_.slot_mem);
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
        config_.fairness_policy, schedulable, ctx.cluster_capacity(),
        config_.slot_mem);
    const auto cut = static_cast<std::size_t>(std::max(
        1.0, std::ceil((1.0 - config_.fairness_knob) *
                       static_cast<double>(schedulable.size()))));
    for (std::size_t k = 0; k < std::min(cut, order.size()); ++k)
      out.insert(schedulable[order[k]].id);
    return out;
  };

  // Waved-path refresh of the same eligibility cut, flat. The fairness
  // comparator is a total order — share, then arrival, then id — so the
  // set of jobs ahead of the cut is unique no matter how it is computed:
  // an nth_element partition plus a byte-mask fill gives bit-identical
  // answers to eligible_jobs() without the per-round JobView copies, the
  // full sort, or the hash-set build. At 10K-task backlogs this runs once
  // per placement round and was a top-three term in pass latency.
  struct EligKey {
    double share;
    SimTime arrival;
    sim::JobId id;
    std::uint32_t idx;
  };
  std::vector<EligKey> elig_keys;
  std::vector<unsigned char> eligible_job(waved ? jobs.size() : 0);
  std::size_t eligible_count = 0;
  sim::JobView share_scratch;  // job_share reads only current_alloc
  // Per-job share cache: `jobs` is a pass-long snapshot and extra[i]
  // moves only for the job a round places, so every other job's share is
  // the same double at the next refresh — recompute just the stale one.
  std::vector<double> share_val(waved ? jobs.size() : 0);
  std::vector<unsigned char> share_fresh(waved ? jobs.size() : 0, 0);
  const auto refresh_eligible_waved = [&] {
    std::fill(eligible_job.begin(), eligible_job.end(), 0);
    eligible_count = 0;
    if (config_.fairness_knob > 0 && config_.fairness_over_queues) {
      // Queue granularity aggregates shares across jobs; it is rare and
      // off the hot path, so reuse the generic set computation and
      // project it onto the mask.
      const auto out = eligible_jobs();
      for (const sim::JobId id : out) eligible_job[job_index.at(id)] = 1;
      eligible_count = out.size();
      return;
    }
    elig_keys.clear();
    for (std::size_t i = 0; i < jobs.size(); ++i) {
      if (jobs[i].runnable_tasks - placed_from[i] <= 0) continue;
      if (config_.fairness_knob <= 0) {
        eligible_job[i] = 1;
        eligible_count++;
        continue;
      }
      // Same arithmetic as eligible_jobs(): copy, then +=, so the share
      // key is the identical double.
      if (!share_fresh[i]) {
        share_scratch.current_alloc = jobs[i].current_alloc;
        share_scratch.current_alloc += extra[i];
        share_val[i] =
            sched::job_share(config_.fairness_policy, share_scratch,
                             ctx.cluster_capacity(), config_.slot_mem);
        share_fresh[i] = 1;
      }
      elig_keys.push_back({share_val[i], jobs[i].arrival, jobs[i].id,
                           static_cast<std::uint32_t>(i)});
    }
    if (config_.fairness_knob <= 0) return;
    const auto cut = static_cast<std::size_t>(std::max(
        1.0, std::ceil((1.0 - config_.fairness_knob) *
                       static_cast<double>(elig_keys.size()))));
    const std::size_t take = std::min(cut, elig_keys.size());
    if (take < elig_keys.size()) {
      std::nth_element(elig_keys.begin(),
                       elig_keys.begin() + static_cast<long>(take),
                       elig_keys.end(),
                       [](const EligKey& x, const EligKey& y) {
                         if (x.share != y.share) return x.share < y.share;
                         if (x.arrival != y.arrival)
                           return x.arrival < y.arrival;
                         return x.id < y.id;
                       });
    }
    for (std::size_t k = 0; k < take; ++k)
      eligible_job[elig_keys[k].idx] = 1;
    eligible_count = take;
  };

  const auto fits = [&](const sim::Probe& p) {
    const Resources avail = ctx.available(p.machine);
    if (config_.only_cpu_mem) return sched::fits_cpu_mem(p.demand, avail);
    return sched::fits_all_local(p.demand, avail) &&
           (!config_.check_remote || sched::remote_legs_fit(ctx, p));
  };

  // Selection tiers: 2 = starved (reservation extension), 1 = barrier
  // stragglers (§3.5), 0 = normal. Higher tiers always win. Starved means
  // tasks have waited past the threshold *and* the group received no
  // placement within it (a backlogged group served every pass is queued,
  // not starved).
  const auto tier_of = [&](const sim::GroupView& g) {
    double unserved = g.longest_wait;
    if (const auto it = last_placement_.find(group_key(g.ref));
        it != last_placement_.end()) {
      unserved = std::min(unserved, ctx.now() - it->second);
    }
    if (unserved > config_.starvation_threshold) return 2;
    if (config_.barrier_knob < 1.0 &&
        static_cast<double>(g.finished) >=
            config_.barrier_knob * static_cast<double>(g.total)) {
      return 1;
    }
    return 0;
  };

  // Starvation reservation: while some starved group fits nowhere, fence
  // off the machine with the most free headroom so departing tasks
  // accumulate capacity for it instead of being backfilled.
  int reserved_machine = -1;
  {
    bool any_starved = false;
    for (const auto& g : groups) {
      if (g.runnable > 0 && tier_of(g) == 2) {
        any_starved = true;
        break;
      }
    }
    if (any_starved) {
      double best_headroom = -1;
      for (int m = 0; m < ctx.num_machines(); ++m) {
        if (!ctx.machine_up(m)) continue;  // nothing accumulates on a corpse
        // Reserving a machine no starved group may legally use would fence
        // capacity the starved work can never claim.
        bool usable = false;
        for (const auto& g : groups) {
          if (g.runnable > 0 && tier_of(g) == 2 &&
              ctx.constraints_admit(g.ref, m)) {
            usable = true;
            break;
          }
        }
        if (!usable) continue;
        const double headroom = ctx.available(m)
                                    .normalized_by(ctx.capacity(m))
                                    .sum();
        if (headroom > best_headroom) {
          best_headroom = headroom;
          reserved_machine = m;
        }
      }
    }
  }

  // The serial loop probes an unordered_set per row; the waved scan reads
  // the byte mask (same answers, no hashing) and skips the set entirely.
  std::unordered_set<sim::JobId> eligible;
  if (waved)
    refresh_eligible_waved();
  else
    eligible = eligible_jobs();

  // Globally greedy rounds over all <task-group, machine> pairs: the paper
  // "picks the <task, machine> pair with the highest dot product value".
  // Probes and alignment scores are cached per pair; a placement only
  // invalidates its machine's column (availability changed), the source
  // machines of its remote legs, and its group's row (the best-locality
  // candidate task changed).
  //
  // Three shortcuts (off under naive_scoring) exploit that availability
  // only falls within a pass — place() subtracts, and preemption runs
  // only after this loop (DESIGN.md §8):
  //   * sticky rejection: a cell rejected for fit reasons stays rejected
  //     under lower availability, so a column invalidation need not
  //     re-evaluate it;
  //   * probe reuse: a column invalidation leaves the group's candidate
  //     set untouched, so the kept probe is bit-identical to a re-probe
  //     and only fits + alignment need recomputing;
  //   * free-capacity index: a group whose cpu/mem estimate exceeds the
  //     component-wise max availability over up machines would cheap-
  //     reject everywhere — skip its whole row before any dot product.
  // None of them changes which cells get *scored*, so the eps normalizer
  // accumulation (alignment_sum_/alignment_count_) — and with it every
  // placement — matches the naive path bit for bit.
  // SIMD batch path (DESIGN.md §12): cells are refreshed in two phases —
  // bookkeeping + probe first, then the fused fit + alignment in
  // vector-width blocks — so it reuses the §9 wave structure (already
  // proven bit-identical to the serial interleaved scan) even when
  // single-threaded. The naive oracle never batches.
  // SoA views over availability and capacity; null for contexts that do
  // not maintain them, in which case batches gather per machine through
  // the virtuals — same values, just slower.
  const util::ResourcePlanes* avail_planes =
      use_simd ? ctx.availability_planes() : nullptr;
  const util::ResourcePlanes* cap_planes =
      use_simd ? ctx.capacity_planes() : nullptr;
  // Persistent SoA cell matrix (members, see tetris_scheduler.h): ensure
  // capacity, then reset only the per-pass scan flags. Slots keep their
  // probes' heap buffers; flags are four byte-plane fills instead of a
  // full matrix reconstruction per pass.
  const std::size_t num_cells =
      num_groups * static_cast<std::size_t>(num_machines);
  if (cell_slots_.size() < num_cells) {
    cell_slots_.resize(num_cells);
    cell_fresh_.resize(num_cells);
    cell_rejected_.resize(num_cells);
    cell_probe_ok_.resize(num_cells);
    cell_sticky_.resize(num_cells);
  }
  std::fill_n(cell_fresh_.begin(), num_cells, 0);
  std::fill_n(cell_rejected_.begin(), num_cells, 0);
  std::fill_n(cell_probe_ok_.begin(), num_cells, 0);
  std::fill_n(cell_sticky_.begin(), num_cells, 0);
  const auto cidx = [num_machines](std::size_t g, int m) {
    return g * static_cast<std::size_t>(num_machines) +
           static_cast<std::size_t>(m);
  };
  const auto cell = [&](std::size_t g, int m) -> CellSlot& {
    return cell_slots_[cidx(g, m)];
  };

  // Count of fresh-and-rejected cells per row. When it reaches
  // num_machines the row scan would do nothing at all (every cell is up
  // to date and skipped), so the round loop jumps the whole row. On a
  // saturated cluster most backlogged rows sit in this state, turning the
  // per-round cost from O(groups * machines) into O(groups).
  std::vector<int> row_rejected(num_groups, 0);
  const auto invalidate_column_cell = [&](std::size_t g, int m) {
    const std::size_t ci = cidx(g, m);
    if (cell_fresh_[ci] && cell_rejected_[ci]) row_rejected[g]--;
    cell_fresh_[ci] = 0;
  };

  // Shared refresh core for the serial and the sharded scan. All mutable
  // state is passed in so a shard worker can keep its own: `rpc` receives
  // the counters, `on_score(|a|)` is invoked for every scored cell in
  // cell-visit order (the serial path accumulates the eps normalizer
  // directly; a worker records for the ordered replay at the barrier),
  // and a probe that finds no candidate sets *drained instead of zeroing
  // group.runnable (a shared write) — the serial wrapper zeroes it
  // immediately, workers flag their shard and merge at the barrier.
  const auto refresh_cell_with = [&](std::size_t g, int m,
                                     util::PerfCounters& rpc,
                                     bool locally_drained, bool* drained,
                                     auto&& on_score) {
    const std::size_t ci = cidx(g, m);
    CellSlot& c = cell_slots_[ci];
    auto& group = groups[g];
    if (!naive && cell_rejected_[ci] && cell_sticky_[ci]) {
      // The rejection was a fit test against availability that has only
      // fallen since (or a pass-constant condition): still rejected.
      cell_fresh_[ci] = 1;
      rpc.sticky_rejects++;
      return;
    }
    cell_fresh_[ci] = 1;
    cell_rejected_[ci] = 1;
    cell_sticky_[ci] = 1;
    if (group.runnable <= 0 || locally_drained) return;
    // A down machine admits nothing; bail before probing — an invalid
    // probe below means "group drained", which a churn outage is not.
    // Constraint-inadmissible machines bail the same way, for the same
    // reason: both rejections are pass-constant (or monotone), so the
    // sticky flag set above may stand.
    if (!ctx.machine_up(m)) return;
    if (!ctx.constraints_admit(group.ref, m)) return;
    const Resources avail = ctx.available(m);
    // Cheap exact reject on the placement-independent dimensions.
    if (!sched::fits_cpu_mem(group.est_demand, avail)) return;
    if (naive || !cell_probe_ok_[ci]) {
      // In place: the cell's remote-leg buffer keeps its capacity.
      ctx.probe_into(group.ref, m, &c.probe);
      rpc.probes_issued++;
      if (!c.probe.valid) {
        *drained = true;
        return;
      }
      cell_probe_ok_[ci] = 1;
    } else {
      rpc.probe_reuses++;
    }
    if (!fits(c.probe)) return;
    const Resources cap = ctx.capacity(m);
    double a = alignment_score(config_.alignment,
                               c.probe.demand.normalized_by(cap),
                               avail.normalized_by(cap));
    a *= 1.0 - config_.remote_penalty * (1.0 - c.probe.local_fraction);
    rpc.score_evals++;
    on_score(std::abs(a));
    c.alignment = a;
    cell_rejected_[ci] = 0;
    cell_sticky_[ci] = 0;
  };
  const auto refresh_cell = [&](std::size_t g, int m) {
    bool drained = false;
    refresh_cell_with(g, m, pc, /*locally_drained=*/false, &drained,
                      [&](double abs_a) {
                        alignment_sum_ += abs_a;
                        alignment_count_++;
                      });
    if (drained) groups[g].runnable = 0;
  };

  // Phase-A half of a refresh under the SIMD path: everything
  // refresh_cell_with does up to the score itself — the sticky shortcut,
  // rejected-until-proven marking, runnable/up checks, the cheap cpu/mem
  // reject, the probe, and the full admission test. Returns true iff the
  // cell passed admission and its alignment must come from the score
  // batch. Gating on the scalar `fits` here keeps the batch dense: a
  // cell the serial loop rejects with a component compare never pays the
  // gather + vector-lane cost (the kernel's own fused mask still covers
  // its lanes, it just never fires on pre-admitted input).
  const auto prepare_cell = [&](std::size_t g, int m,
                                util::PerfCounters& rpc, bool locally_drained,
                                bool* drained) -> bool {
    const std::size_t ci = cidx(g, m);
    CellSlot& c = cell_slots_[ci];
    auto& group = groups[g];
    if (cell_rejected_[ci] && cell_sticky_[ci]) {  // never runs naive
      cell_fresh_[ci] = 1;
      rpc.sticky_rejects++;
      return false;
    }
    cell_fresh_[ci] = 1;
    cell_rejected_[ci] = 1;
    cell_sticky_[ci] = 1;
    if (group.runnable <= 0 || locally_drained) return false;
    if (!ctx.machine_up(m)) return false;
    if (!ctx.constraints_admit(group.ref, m)) return false;
    if (!sched::fits_cpu_mem(group.est_demand, ctx.available(m))) return false;
    if (!cell_probe_ok_[ci]) {
      ctx.probe_into(group.ref, m, &c.probe);
      rpc.probes_issued++;
      if (!c.probe.valid) {
        *drained = true;
        return false;
      }
      cell_probe_ok_[ci] = 1;
    } else {
      rpc.probe_reuses++;
    }
    // Full admission, exactly the serial scan's test: a failing cell
    // stays rejected-and-sticky and never reaches the kernel.
    if (!fits(c.probe)) return false;
    return true;
  };

  // Free-capacity index: component-wise max availability over up
  // machines. fits_cpu_mem failing against it implies the same failure
  // against every individual machine (the predicate is monotone per
  // component), so skipping a row only ever skips would-be rejections.
  // Fresh non-rejected cells cannot hide behind a skip: their machine's
  // availability is unchanged since they were scored (place() invalidates
  // the columns it drains), and the index dominates it.
  // Per-group estimated-demand planes and the row fit mask derived from
  // them (SIMD path only): fits_cpu_mem of every row against the fit
  // index in one vector sweep per recompute, instead of a scalar
  // predicate call per row per round. est_demand is pass-constant, so the
  // planes are built once.
  util::ResourcePlanes group_demand;
  std::vector<unsigned char> row_fit;
  if (use_simd) {
    group_demand.reset(num_groups);
    for (std::size_t g = 0; g < num_groups; ++g)
      group_demand.set(g, groups[g].est_demand);
    row_fit.assign(group_demand.padded_lanes(), 0);
  }
  Resources max_avail;
  const auto recompute_fit_index = [&]() {
    if (use_simd && avail_planes != nullptr) {
      // Down machines hold zero in the availability planes and every
      // plane value is >= 0 (max_zero'd), so folding them in is exact;
      // lanes past num_machines are rack uplinks and stay excluded, as
      // in the scalar loop.
      max_avail = simd::cwise_max_lanes(*avail_planes,
                                        static_cast<std::size_t>(num_machines));
    } else {
      max_avail = Resources{};
      for (int m = 0; m < num_machines; ++m) {
        if (!ctx.machine_up(m)) continue;
        max_avail = max_avail.cwise_max(ctx.available(m));
      }
    }
    if (use_simd)
      simd::fits_cpu_mem_mask(group_demand, max_avail, row_fit.data());
  };
  if (!naive) recompute_fit_index();

  // Future-demand hold-back (§3.5 extension): demands of stages about to
  // unblock within the lookahead window. A tier-0 candidate loses a
  // machine to the future only when BOTH hold: an imminent stage would
  // align strictly better on the machine's current availability, AND the
  // candidate runs longer than that stage's eta — holding back costs at
  // most eta of idleness, while placing blocks the imminent stage for the
  // candidate's whole duration. Without the duration test, deep DAGs
  // (where something is always imminent) would suppress all work.
  struct ImminentDemand {
    sim::GroupRef ref;
    Resources demand;
    double eta;
    int tasks;  // claim budget: a stage can use at most this many machines
  };
  std::vector<ImminentDemand> imminent_demands;
  if (config_.future_lookahead > 0) {
    for (const auto& g : ctx.imminent_groups()) {
      if (g.eta <= config_.future_lookahead) {
        imminent_demands.push_back({g.ref, g.est_demand, g.eta, g.total});
      }
    }
  }
  // Per machine, per round: the (alignment, eta) claims of imminent stages.
  // Each stage claims only the machines where it aligns best, at most as
  // many as it has tasks — otherwise a small stage would fence the whole
  // cluster.
  const int total_machines = ctx.num_machines();
  const auto future_claims = [&]() {
    std::vector<std::vector<std::pair<double, double>>> claims(
        static_cast<std::size_t>(total_machines));
    std::vector<std::pair<double, int>> scored;  // (alignment, machine)
    for (const auto& i : imminent_demands) {
      scored.clear();
      for (int m = 0; m < total_machines; ++m) {
        if (!ctx.machine_up(m)) continue;
        // A stage only ever claims machines it could legally run on once
        // its barrier breaks.
        if (!ctx.constraints_admit(i.ref, m)) continue;
        const Resources cap = ctx.capacity(m);
        if (!i.demand.fits_within(cap)) continue;
        scored.emplace_back(
            alignment_score(config_.alignment, i.demand.normalized_by(cap),
                            ctx.available(m).normalized_by(cap)),
            m);
      }
      const auto budget = static_cast<std::size_t>(
          std::max(1, std::min(i.tasks, total_machines)));
      if (scored.size() > budget) {
        std::partial_sort(scored.begin(),
                          scored.begin() + static_cast<long>(budget),
                          scored.end(), std::greater<>());
        scored.resize(budget);
      }
      for (const auto& [align, m] : scored) {
        claims[static_cast<std::size_t>(m)].emplace_back(align, i.eta);
      }
    }
    return claims;
  };

  // ---- Sharded scan state (DESIGN.md §9) ----
  // With num_threads >= 1 each round's scan is partitioned into
  // min(num_threads, machines) contiguous column shards. Workers write
  // only cells of their own columns plus their ShardState; everything
  // shared (row_rejected, group.runnable, the eps normalizer, the global
  // best) is merged serially at the barrier, in shard order, so the
  // outcome is independent of worker interleaving — and, by the ordered
  // replay below, bit-identical to the serial scan.
  if (parallel && !pool_)
    pool_ = std::make_unique<util::ThreadPool>(config_.num_threads);
  // One scored cell: |alignment| destined for the eps normalizer. Within
  // a shard, records append in (row, column) scan order; the barrier
  // concatenates shards in order and a stable sort by row restores the
  // exact serial accumulation order (columns stay ordered because shards
  // are contiguous and appended ascending; rows of different waves are
  // disjoint).
  struct ScoreRecord {
    std::size_t g;
    double abs_a;
  };
  // One cell whose fused fit + score evaluation is deferred to a batch
  // flush, and one cell to revisit in the post-flush candidate scan;
  // both lists keep the (row, column) scan order.
  struct PendingCell {
    std::size_t g;
    int m;
  };
  struct VisitCell {
    std::size_t g;
    int m;
    double rem;  // the row's SRTF remaining-work term
  };
  struct alignas(64) ShardState {
    int m_lo = 0;
    int m_hi = 0;
    util::PerfCounters pc;
    std::vector<ScoreRecord> records;
    std::vector<int> rej_delta;   // per-row cells newly rejected this wave
    std::vector<char> drained;    // rows whose re-probe found no candidate
    std::vector<PendingCell> pending;  // SIMD path: cells awaiting a flush
    std::vector<VisitCell> visit;      // SIMD path: candidate-scan worklist
    bool has_best = false;
    double best_score = 0;
    std::size_t best_g = 0;
    int best_m = -1;
    std::size_t first_candidate_row = 0;
    // Accumulated worker wall-clock over the pass, for kShardTiming
    // records; only measured while tracing (the clock reads cost).
    long long scan_nanos = 0;
  };
  const int wave_shards = parallel ? num_shards : (waved ? 1 : 0);
  std::vector<ShardState> shards(static_cast<std::size_t>(wave_shards));
  if (waved) {
    const int base = num_machines / wave_shards;
    const int rem = num_machines % wave_shards;
    int lo = 0;
    for (int s = 0; s < wave_shards; ++s) {
      auto& st = shards[static_cast<std::size_t>(s)];
      st.m_lo = lo;
      st.m_hi = lo + base + (s < rem ? 1 : 0);
      lo = st.m_hi;
      st.rej_delta.assign(num_groups, 0);
      st.drained.assign(num_groups, 0);
    }
  }
  if (parallel) {
    pc.parallel_passes++;
    pc.shard_score_evals.assign(static_cast<std::size_t>(num_shards), 0);
  }
  // Waved-scan row metadata, flat arrays instead of per-row hash probes.
  // The serial loop pays tier_of's `last_placement_` lookup and the
  // eligibility set probe per row per round; at 10K-task backlogs that
  // bookkeeping dwarfs the scoring itself. Tiers move only through
  // placements (`last_placement_` / runnable), so the waved path computes
  // them once per pass and refreshes just the placed row; the eligibility
  // byte mask is rebuilt by refresh_eligible_waved only when the serial
  // loop would rebuild its set. All of it is exact: same tier values,
  // same eligibility answers, same counters — only the lookups are
  // cheaper.
  std::vector<int> tier_by_row(waved ? num_groups : 0);
  std::vector<std::uint32_t> row_job(waved ? num_groups : 0);
  if (waved) {
    for (std::size_t g = 0; g < num_groups; ++g) {
      tier_by_row[g] = tier_of(groups[g]);
      row_job[g] =
          static_cast<std::uint32_t>(job_index.at(groups[g].ref.job));
    }
  }
  // Rows of each tier in ascending order, rebuilt per round in one O(G)
  // sweep so each wave walks only its own rows.
  std::array<std::vector<std::size_t>, 3> tier_rows;

  // Drains a shard's pending cells through the vector kernel in scan
  // order, lane_width() lanes per block. Every pending cell already
  // passed the full scalar admission in Phase A, so each lane scores
  // exactly as the scalar path would: same counter bump, same on_score
  // value, same cell writeback — and its provisional rejection is
  // undone. The kernel's fused fit mask is a no-op on this input by the
  // lane-for-lane identity with the scalar predicates (unit-tested); it
  // stays as a guard.
  const auto flush_pending = [&](ShardState& st, auto&& on_score) {
    const auto width = static_cast<std::size_t>(simd::lane_width());
    simd::ScoreBlock block;
    simd::ScoreOut res;
    std::size_t i = 0;
    while (i < st.pending.size()) {
      const std::size_t n = std::min(width, st.pending.size() - i);
      for (std::size_t l = 0; l < n; ++l) {
        const auto [g, m] = st.pending[i + l];
        const CellSlot& c = cell(g, m);
        for (std::size_t r = 0; r < kNumResources; ++r)
          block.demand[r][l] = c.probe.demand.at(r);
        if (avail_planes != nullptr && cap_planes != nullptr) {
          for (std::size_t r = 0; r < kNumResources; ++r) {
            block.avail[r][l] =
                avail_planes->plane(r)[static_cast<std::size_t>(m)];
            block.cap[r][l] = cap_planes->plane(r)[static_cast<std::size_t>(m)];
          }
        } else {
          const Resources av = ctx.available(m);
          const Resources cp = ctx.capacity(m);
          for (std::size_t r = 0; r < kNumResources; ++r) {
            block.avail[r][l] = av.at(r);
            block.cap[r][l] = cp.at(r);
          }
        }
        block.local_fraction[l] = c.probe.local_fraction;
      }
      block.n = n;
      simd::score_block(config_.alignment, config_.remote_penalty,
                        config_.only_cpu_mem, block, &res, &st.pc.simd_blocks,
                        &st.pc.scalar_tail_evals);
      for (std::size_t l = 0; l < n; ++l) {
        const auto [g, m] = st.pending[i + l];
        if (!res.fit[l]) continue;
        const std::size_t ci = cidx(g, m);
        const double a = res.score[l];
        st.pc.score_evals++;
        on_score(g, std::abs(a));
        cell_slots_[ci].alignment = a;
        cell_rejected_[ci] = 0;
        cell_sticky_[ci] = 0;
        st.rej_delta[g]--;  // provisional rejection undone
      }
      i += n;
    }
    st.pending.clear();
  };
  struct ScanRow {
    std::size_t g;
    double rem;  // the job's remaining work, for the SRTF term
  };
  std::vector<ScanRow> scan_rows;
  std::vector<ScoreRecord> round_records;
  using Clock = std::chrono::steady_clock;

  while (true) {
    // eps is frozen for this round so all candidates are compared under
    // the same SRTF weight; the running a_bar only feeds later rounds.
    const double round_eps =
        config_.srtf_weight *
        (alignment_count_ > 0
             ? alignment_sum_ / static_cast<double>(alignment_count_)
             : 0.0) /
        p_bar;

    // Per-round hold-back claims (availability changes between rounds).
    std::vector<std::vector<std::pair<double, double>>> claims;
    if (!imminent_demands.empty()) claims = future_claims();

    std::ptrdiff_t best_ci = -1;  // index into cell_slots_, -1 = none
    std::size_t best_group = 0;
    double best_score = 0;
    int best_tier = -1;

    if (!waved) {
      for (std::size_t g = 0; g < num_groups; ++g) {
        auto& group = groups[g];
        if (group.runnable <= 0) continue;
        const int tier = tier_of(group);
        // Priority (barrier/starved) groups bypass the fairness
        // restriction: they take only a small amount of resources (§3.5).
        if (tier == 0 && !eligible.contains(group.ref.job)) continue;
        // Once a higher-tier candidate exists, lower tiers cannot win.
        if (tier < best_tier) continue;
        const double rem =
            config_.srtf_weight > 0
                ? jobs[job_index.at(group.ref.job)].remaining_work
                : 0.0;
        // Free-capacity index: if the group's cpu/mem estimate exceeds
        // even the component-wise max availability, every machine would
        // cheap-reject it — skip the row without touching a single cell.
        if (!naive && !sched::fits_cpu_mem(group.est_demand, max_avail)) {
          pc.fit_index_skips += num_machines;
          continue;
        }
        // Whole-row skip: every cell is fresh and rejected, so the inner
        // loop below would fall straight through without scoring,
        // refreshing or updating the best candidate. Identical outcome,
        // O(1) cost.
        if (!naive &&
            row_rejected[g] == num_machines) {
          pc.row_skips += num_machines;
          continue;
        }
        for (int m = 0; m < num_machines; ++m) {
          // A reserved machine only accepts the starved tier.
          if (m == reserved_machine && tier < 2) continue;
          const std::size_t ci = cidx(g, m);
          if (!cell_fresh_[ci]) {
            refresh_cell(g, m);
            if (cell_rejected_[ci]) row_rejected[g]++;
          }
          if (cell_rejected_[ci]) continue;
          const CellSlot& c = cell_slots_[ci];
          // Future hold-back: a better-aligned stage unblocks here before
          // this (longer) candidate would release the resources.
          if (tier == 0 && !claims.empty()) {
            bool held = false;
            for (const auto& [align, eta] :
                 claims[static_cast<std::size_t>(m)]) {
              if (align > c.alignment && c.probe.duration > eta) {
                held = true;
                break;
              }
            }
            if (held) continue;
          }
          const double score = c.alignment - round_eps * rem;
          if (best_ci < 0 || tier > best_tier ||
              (tier == best_tier && score > best_score)) {
            best_ci = static_cast<std::ptrdiff_t>(ci);
            best_group = g;
            best_score = score;
            best_tier = tier;
          }
        }
      }
    } else {
      // Sharded scan in tier-descending waves. The serial loop's running
      // best_tier skips a row exactly when a candidate-producing row of a
      // strictly higher tier precedes it, so each wave scans its tier's
      // rows up to `cutoff` — the first candidate-producing row of any
      // higher wave — and the scanned set (hence every refresh, score and
      // eps-normalizer contribution) matches the serial scan exactly.
      round_records.clear();
      // One O(G) sweep buckets the runnable rows by (cached) tier; each
      // wave then walks only its own rows. A wave's barrier can zero
      // `runnable` only for rows of its own tier, so checking it here,
      // once per round, is exact.
      for (auto& rows : tier_rows) rows.clear();
      for (std::size_t g = 0; g < num_groups; ++g) {
        if (groups[g].runnable <= 0) continue;
        tier_rows[static_cast<std::size_t>(tier_by_row[g])].push_back(g);
      }
      std::size_t cutoff = num_groups;
      for (int tier = 2; tier >= 0; --tier) {
        // Row filters, in the serial loop's order and with its counters;
        // row_rejected and group.runnable are barrier-stable, so this
        // pre-pass is exact.
        scan_rows.clear();
        for (const std::size_t g : tier_rows[static_cast<std::size_t>(tier)]) {
          auto& group = groups[g];
          if (tier == 0 && !eligible_job[row_job[g]]) continue;
          if (g >= cutoff) continue;
          // Under SIMD the row fit mask is the same predicate, evaluated
          // by the vector sweep at the last fit-index recompute.
          if (!naive && (use_simd
                             ? !row_fit[g]
                             : !sched::fits_cpu_mem(group.est_demand,
                                                    max_avail))) {
            pc.fit_index_skips += num_machines;
            continue;
          }
          if (!naive && row_rejected[g] == num_machines) {
            pc.row_skips += num_machines;
            continue;
          }
          const double rem = config_.srtf_weight > 0
                                 ? jobs[row_job[g]].remaining_work
                                 : 0.0;
          scan_rows.push_back({g, rem});
        }
        if (scan_rows.empty()) continue;

        const auto scan_shard = [&](int s) {
          ShardState& st = shards[static_cast<std::size_t>(s)];
          const auto shard_start =
              tracer ? Clock::now() : Clock::time_point{};
          st.has_best = false;
          st.best_m = -1;
          st.first_candidate_row = num_groups;
          if (!use_simd) {
            for (const ScanRow& row : scan_rows) {
              const std::size_t g = row.g;
              for (int m = st.m_lo; m < st.m_hi; ++m) {
                // A reserved machine only accepts the starved tier.
                if (m == reserved_machine && tier < 2) continue;
                const std::size_t ci = cidx(g, m);
                if (!cell_fresh_[ci]) {
                  bool drained = false;
                  refresh_cell_with(g, m, st.pc, st.drained[g] != 0, &drained,
                                    [&](double abs_a) {
                                      st.records.push_back({g, abs_a});
                                    });
                  if (drained) st.drained[g] = 1;
                  if (cell_rejected_[ci]) st.rej_delta[g]++;
                }
                if (cell_rejected_[ci]) continue;
                const CellSlot& c = cell_slots_[ci];
                if (tier == 0 && !claims.empty()) {
                  bool held = false;
                  for (const auto& [align, eta] :
                       claims[static_cast<std::size_t>(m)]) {
                    if (align > c.alignment && c.probe.duration > eta) {
                      held = true;
                      break;
                    }
                  }
                  if (held) continue;
                }
                const double score = c.alignment - round_eps * row.rem;
                if (st.first_candidate_row == num_groups)
                  st.first_candidate_row = g;
                // Strict > keeps the first-encountered candidate on score
                // ties, as the serial scan does.
                if (!st.has_best || score > st.best_score) {
                  st.has_best = true;
                  st.best_score = score;
                  st.best_g = g;
                  st.best_m = m;
                }
              }
            }
          } else {
            // SIMD path, three phases per wave. Phase A walks the wave's
            // cells in scan order, does the Phase-A half of each stale
            // cell's refresh, and provisionally counts it rejected;
            // cells whose fit + score are pending join the batch list,
            // and every potentially live cell joins the revisit list —
            // both in walk order.
            st.pending.clear();
            st.visit.clear();
            for (const ScanRow& row : scan_rows) {
              const std::size_t g = row.g;
              for (int m = st.m_lo; m < st.m_hi; ++m) {
                if (m == reserved_machine && tier < 2) continue;
                const std::size_t ci = cidx(g, m);
                if (!cell_fresh_[ci]) {
                  bool drained = false;
                  const bool batch_me =
                      prepare_cell(g, m, st.pc, st.drained[g] != 0, &drained);
                  if (drained) st.drained[g] = 1;
                  st.rej_delta[g]++;  // provisional; the flush undoes it
                  if (batch_me) {
                    st.pending.push_back({g, m});
                    st.visit.push_back({g, m, row.rem});
                  }
                } else if (!cell_rejected_[ci]) {
                  st.visit.push_back({g, m, row.rem});
                }
              }
            }
            // Phase B: fused fit + alignment over the batch, in scan
            // order, recording eps contributions like the per-cell path.
            flush_pending(st, [&](std::size_t g, double abs_a) {
              st.records.push_back({g, abs_a});
            });
            // Phase C: candidate scan over the surviving cells — same
            // hold-back, first-candidate and best-update rules as the
            // interleaved walk, now over known alignments.
            for (const VisitCell& v : st.visit) {
              const std::size_t ci = cidx(v.g, v.m);
              if (cell_rejected_[ci]) continue;
              const CellSlot& c = cell_slots_[ci];
              if (tier == 0 && !claims.empty()) {
                bool held = false;
                for (const auto& [align, eta] :
                     claims[static_cast<std::size_t>(v.m)]) {
                  if (align > c.alignment && c.probe.duration > eta) {
                    held = true;
                    break;
                  }
                }
                if (held) continue;
              }
              const double score = c.alignment - round_eps * v.rem;
              if (st.first_candidate_row == num_groups)
                st.first_candidate_row = v.g;
              if (!st.has_best || score > st.best_score) {
                st.has_best = true;
                st.best_score = score;
                st.best_g = v.g;
                st.best_m = v.m;
              }
            }
          }
          if (tracer) {
            st.scan_nanos +=
                std::chrono::duration_cast<std::chrono::nanoseconds>(
                    Clock::now() - shard_start)
                    .count();
          }
        };
        if (parallel)
          pool_->parallel_for(wave_shards, scan_shard);
        else
          scan_shard(0);

        // Reduction barrier: merge shard results in shard order. Nothing
        // here depends on worker timing, so the outcome is deterministic
        // for any thread count. reduction_nanos stays a parallel-only
        // counter — a serial SIMD pass runs the same merge but reports 0,
        // preserving "serial runs spend nothing in reduction".
        const auto barrier_start =
            parallel ? Clock::now() : Clock::time_point{};
        for (auto& st : shards) {
          round_records.insert(round_records.end(), st.records.begin(),
                               st.records.end());
          st.records.clear();
          for (const ScanRow& row : scan_rows) {
            row_rejected[row.g] += st.rej_delta[row.g];
            st.rej_delta[row.g] = 0;
            if (st.drained[row.g]) groups[row.g].runnable = 0;
          }
          cutoff = std::min(cutoff, st.first_candidate_row);
        }
        // Waves run highest tier first, so the first wave that yields any
        // candidate holds the round's winner: the highest-scoring cell,
        // ties broken by lowest row then lowest column — exactly the
        // first-encountered rule of the serial row-major scan.
        if (best_ci < 0) {
          for (auto& st : shards) {
            if (!st.has_best) continue;
            if (best_ci < 0 || st.best_score > best_score ||
                (st.best_score == best_score && st.best_g < best_group)) {
              best_ci = static_cast<std::ptrdiff_t>(cidx(st.best_g, st.best_m));
              best_group = st.best_g;
              best_score = st.best_score;
              best_tier = tier;
            }
          }
        }
        if (parallel) {
          pc.reduction_nanos +=
              std::chrono::duration_cast<std::chrono::nanoseconds>(
                  Clock::now() - barrier_start)
                  .count();
        }
      }

      // Ordered replay of the eps-normalizer accumulation: the serial
      // scan adds |a| in row-major order over the scanned rows. Shard
      // concatenation already ordered columns within each row, and rows
      // of different waves are disjoint, so a stable sort by row restores
      // the exact serial addition order — FP addition is not associative,
      // and eps feeds every later round's scores.
      const auto replay_start = parallel ? Clock::now() : Clock::time_point{};
      std::stable_sort(round_records.begin(), round_records.end(),
                       [](const ScoreRecord& a, const ScoreRecord& b) {
                         return a.g < b.g;
                       });
      for (const auto& r : round_records) {
        alignment_sum_ += r.abs_a;
        alignment_count_++;
      }
      for (std::size_t s = 0; s < shards.size(); ++s) {
        if (parallel) pc.shard_score_evals[s] += shards[s].pc.score_evals;
        pc += shards[s].pc;
        shards[s].pc = util::PerfCounters{};
      }
      if (parallel) {
        pc.reduction_nanos +=
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                Clock::now() - replay_start)
                .count();
      }
    }

    if (best_ci < 0) break;
    CellSlot& best = cell_slots_[static_cast<std::size_t>(best_ci)];
    // Re-validate against live availability: a cached probe's *remote*
    // legs may have been consumed by a placement on a third machine whose
    // column this cell does not share.
    if (!fits(best.probe)) {
      cell_rejected_[static_cast<std::size_t>(best_ci)] = 1;
      row_rejected[best_group]++;
      continue;
    }
    const sim::Probe placed = best.probe;
    if (!ctx.place(placed)) {
      // Stale probe: the candidate set changed under us. Not an
      // availability-monotone rejection — leave sticky unset and drop the
      // probe so the next refresh recomputes from scratch, as naive does.
      cell_rejected_[static_cast<std::size_t>(best_ci)] = 1;
      cell_probe_ok_[static_cast<std::size_t>(best_ci)] = 0;
      row_rejected[best_group]++;
      continue;
    }
    groups[best_group].runnable--;
    stats_.placements++;
    if (best_tier == 1) stats_.priority_placements++;
    if (best_tier == 2) stats_.starved_placements++;
    if (tracer) {
      // Recorded before the fairness cut refreshes below: `f` is the
      // eligible-job count this decision was made under. score = x - y.
      trace::Event ev;
      ev.kind = trace::EventKind::kPlacement;
      ev.time = ctx.now();
      ev.a = placed.group.job;
      ev.b = placed.group.stage;
      ev.c = placed.task_index;
      ev.d = placed.machine;
      ev.e = best_tier;
      ev.f = static_cast<std::int64_t>(waved ? eligible_count
                                             : eligible.size());
      ev.x = best.alignment;
      ev.y = best.alignment - best_score;  // eps * p_hat SRTF penalty
      tracer->record(ev);
    }
    last_placement_[group_key(placed.group)] = ctx.now();
    const auto ji = job_index.at(placed.group.job);
    extra[ji] += placed.demand;
    placed_from[ji]++;
    if (waved) share_fresh[ji] = 0;  // its share key just moved
    if (config_.fairness_knob > 0) {
      if (waved)
        refresh_eligible_waved();
      else
        eligible = eligible_jobs();
    }
    if (waved) {
      // Only the placed row's tier can have moved (its last_placement_
      // stamp just did); the cached tiers of every other row stand.
      tier_by_row[best_group] = tier_of(groups[best_group]);
    }

    // Invalidate what the placement changed: the group's candidate task,
    // the host machine's availability, and the remote sources' budgets.
    // The placed group's row loses everything — its candidate set changed,
    // so cached probes and rejections are void. Column invalidations only
    // reflect fallen availability: cached probes stay valid (the probe is
    // availability-independent) and rejections stay sticky.
    for (int m = 0; m < num_machines; ++m) {
      const std::size_t ci = cidx(best_group, m);
      cell_fresh_[ci] = 0;
      cell_probe_ok_[ci] = 0;
      cell_rejected_[ci] = 0;
      cell_sticky_[ci] = 0;
    }
    row_rejected[best_group] = 0;
    for (std::size_t g = 0; g < num_groups; ++g) {
      invalidate_column_cell(g, placed.machine);
      for (const auto& leg : placed.remote) {
        // Rack uplinks carry ids past the placement machines; they have no
        // cell column (the pre-place re-validation catches staleness).
        if (leg.machine < num_machines) invalidate_column_cell(g, leg.machine);
      }
    }
    if (!naive) recompute_fit_index();
  }

  // Shard timings are measured inside the workers but emitted here, on
  // the scheduling thread in shard order, so the trace stream's order
  // never depends on worker interleaving (the wall-clock values live in
  // the non-semantic `timing` field).
  if (tracer != nullptr && parallel) {
    for (std::size_t s = 0; s < shards.size(); ++s) {
      trace::Event ev;
      ev.kind = trace::EventKind::kShardTiming;
      ev.time = ctx.now();
      ev.a = static_cast<std::int64_t>(s);
      ev.b = shards[s].m_lo;
      ev.c = shards[s].m_hi;
      ev.d = pc.shard_score_evals[s];
      ev.timing = shards[s].scan_nanos;
      tracer->record(ev);
    }
  }

  // Fairness preemption (extension): the main loop exhausted every
  // placeable candidate, so a schedulable job left with runnable tasks
  // provably fits nowhere. If the furthest-below one trails fair share
  // badly, kill the newest task of the most over-share job (one per pass).
  if (!config_.preempt_for_fairness) return;
  const sim::JobView* starving = nullptr;
  double min_share = 0;
  int schedulable = 0;
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    if (jobs[i].runnable_tasks - placed_from[i] <= 0) continue;
    schedulable++;
    sim::JobView adjusted = jobs[i];
    adjusted.current_alloc += extra[i];
    const double share =
        sched::job_share(config_.fairness_policy, adjusted,
                         ctx.cluster_capacity(), config_.slot_mem);
    if (starving == nullptr || share < min_share) {
      starving = &jobs[i];
      min_share = share;
    }
  }
  if (starving == nullptr || jobs.size() < 2) return;
  const double fair = 1.0 / static_cast<double>(jobs.size());
  if (fair - min_share < config_.preemption_deficit) return;

  const auto running = ctx.running_tasks();
  const sim::RunningTaskView* victim = nullptr;
  double victim_share = fair;
  std::unordered_map<sim::JobId, double> shares;
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    sim::JobView adjusted = jobs[i];
    adjusted.current_alloc += extra[i];
    shares[jobs[i].id] =
        sched::job_share(config_.fairness_policy, adjusted,
                         ctx.cluster_capacity(), config_.slot_mem);
  }
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
  if (victim != nullptr && ctx.preempt(victim->uid)) {
    stats_.preemptions++;
  }
}

}  // namespace tetris::core
