// The scheduler's view of one pass (§3): what a resource manager hands its
// scheduler at a heartbeat. Availability comes from every machine's
// tracker report (§4.1), demands from the estimation model (§4.1), and
// probes resolve a task's placement-dependent demands on one machine
// (§3.2, "incorporating task placement"). Outside naive_scheduler_view,
// probes and group estimates are served from state each stage owns
// (DESIGN.md §8.3), kept by the runnable-set upkeep below; the per-cell
// admission predicates live here too, in the translation unit of the
// context that forwards them (DESIGN.md §13).
#include <algorithm>

#include "sim/simulator_impl.h"

namespace tetris::sim {

Simulator::ContextImpl::ContextImpl(Simulator& sim) : sim_(sim) {
  const std::size_t n = sim_.machines_.size();
  avail_.reserve(n);
  for (std::size_t m = 0; m < n; ++m)
    avail_.push_back(sim_.tracker_available(static_cast<MachineId>(m)));
  sim_.perf_.avail_recomputes += static_cast<long>(n);
}

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
    v.queue = job.queue;
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
  const auto take = [&](MachineId m, const Resources& used) {
    Resources& a = avail_[static_cast<std::size_t>(m)];
    a = (a - used).max_zero();
  };
  take(probe.machine, probe.demand);
  for (const auto& leg : probe.remote) take(leg.machine, leg_resources(leg));
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
  const auto refund = [&](MachineId m, const Resources& freed) {
    Resources& a = avail_[static_cast<std::size_t>(m)];
    a = (a + freed).cwise_min(capacity(m));
  };
  refund(host, est_local);
  for (const auto& leg : est_remote) refund(leg.machine, leg_resources(leg));
  return true;
}

// ---------------------------------------------------------------------------
// Probes, estimates and admission

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

// ---------------------------------------------------------------------------
// Runnable-set upkeep

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

}  // namespace tetris::sim
