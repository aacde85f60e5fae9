// The per-machine books (DESIGN.md §4, "One set of books per machine").
// True demands: every running attempt registers its placement's demand
// rates on its host and on each remote leg, rack uplinks included, and
// each machine shares contended resources among them (machine.h); a
// task's speed is its worst grant ratio, re-predicted whenever a machine
// it touches changes. Estimates: the scheduler's own bookings, which the
// allocation tracker reports. The §4.1 resource tracker reads these books
// at every pass. This file is the only reader and writer of a Machine's
// demand map.
#include <algorithm>
#include <cmath>
#include <limits>
#include <span>
#include <unordered_map>

#include "sim/simulator_impl.h"

namespace tetris::sim {

namespace {

constexpr double kSpeedEps = 1e-9;
// Progress target slack: a task whose progress is within this of its target
// is considered done (floating-point rounding of event times).
constexpr double kProgressEps = 1e-9;

// Banks the progress a task earned at its current speed up to `to`.
void advance_progress(TaskState& t, SimTime to) {
  const double dt = to - t.progress_updated_at;
  if (dt > 0 && t.speed > 0 && t.placement.duration > 0) {
    t.progress =
        std::min(1.0, t.progress + dt * t.speed / t.placement.duration);
  }
  t.progress_updated_at = to;
}

}  // namespace

void Simulator::charge(JobState& job, const TaskState& task) {
  machines_[static_cast<std::size_t>(task.host)].add_demand(
      task.uid, task.placement.local);
  mark_dirty(task.host);
  for (const auto& leg : task.placement.remote) {
    machines_[static_cast<std::size_t>(leg.machine)].add_demand(
        task.uid, leg_resources(leg));
    mark_dirty(leg.machine);
  }
  job.current_alloc += task.placement.local;
  charged_.push_back(task.uid);
}

void Simulator::release(JobState& job, const TaskState& task) {
  machines_[static_cast<std::size_t>(task.host)].remove_demand(task.uid);
  mark_dirty(task.host);
  for (const auto& leg : task.placement.remote) {
    machines_[static_cast<std::size_t>(leg.machine)].remove_demand(task.uid);
    mark_dirty(leg.machine);
  }
  job.current_alloc = (job.current_alloc - task.placement.local).max_zero();
}

void Simulator::book_estimates(JobState& job, const TaskState& task) {
  alloc_est_[static_cast<std::size_t>(task.host)] += task.est_local;
  hosted_count_[static_cast<std::size_t>(task.host)]++;
  if (!job.hosted_per_machine.empty())
    job.hosted_per_machine[static_cast<std::size_t>(task.host)]++;
  for (const auto& leg : task.est_remote)
    alloc_est_[static_cast<std::size_t>(leg.machine)] += leg_resources(leg);
}

void Simulator::unbook_estimates(JobState& job, const TaskState& task) {
  alloc_est_[static_cast<std::size_t>(task.host)] =
      (alloc_est_[static_cast<std::size_t>(task.host)] - task.est_local)
          .max_zero();
  hosted_count_[static_cast<std::size_t>(task.host)]--;
  if (!job.hosted_per_machine.empty())
    job.hosted_per_machine[static_cast<std::size_t>(task.host)]--;
  for (const auto& leg : task.est_remote) {
    auto& booked = alloc_est_[static_cast<std::size_t>(leg.machine)];
    booked = (booked - leg_resources(leg)).max_zero();
  }
}

std::vector<int> Simulator::tasks_touching(MachineId m) const {
  // Sorted for a deterministic order: the demand map's iteration order is
  // not part of the simulation contract.
  const auto& demands = machines_[static_cast<std::size_t>(m)].demands();
  std::vector<int> uids;
  uids.reserve(demands.size());
  for (const auto& [uid, demand] : demands) uids.push_back(uid);
  std::sort(uids.begin(), uids.end());
  return uids;
}

Resources Simulator::rack_uplink(int rack) const {
  // A failed member takes its share of the uplink with it, and running
  // cross-rack flows re-share what is left.
  const int k = config_.machines_per_rack;
  Resources uplink;
  for (int m = rack * k; m < std::min((rack + 1) * k, num_real_machines_);
       ++m) {
    if (!machine_up_[static_cast<std::size_t>(m)]) continue;
    const Resources& cap = machines_[static_cast<std::size_t>(m)].capacity();
    uplink[Resource::kNetIn] += cap[Resource::kNetIn];
    uplink[Resource::kNetOut] += cap[Resource::kNetOut];
  }
  uplink /= config_.rack_oversubscription;
  return uplink;
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

Resources Simulator::tracker_available(MachineId m) const {
  const auto& machine = machines_[static_cast<std::size_t>(m)];
  if (!machine.up()) return Resources{};  // a down machine offers nothing
  if (config_.tracker == TrackerMode::kAllocation) {
    return (machine.capacity() - alloc_est_[static_cast<std::size_t>(m)])
        .max_zero();
  }
  // Usage view: observed consumption plus a decaying ramp-up allowance for
  // recently started tasks hosted here (§4.1). When even the newest start
  // is out of the window, no hosted task earns one and the walk adds
  // nothing; the naive view always walks.
  Resources used = machine.usage();
  if (!config_.naive_scheduler_view &&
      now_ - newest_start_[static_cast<std::size_t>(m)] >=
          config_.ramp_up_window)
    return (machine.capacity() - used).max_zero();
  for (const auto& [uid, demand] : machine.demands()) {
    const TaskState& t = task_at(uid);
    if (t.host != m) continue;  // remote leg, not a hosted task
    const double age = now_ - t.start_time;
    if (age >= config_.ramp_up_window) continue;
    const double scale = config_.ramp_allowance_fraction *
                         (1.0 - age / config_.ramp_up_window);
    used += t.est_local * scale;
  }
  return (machine.capacity() - used).max_zero();
}

void Simulator::mark_dirty(MachineId m) {
  if (!dirty_flags_[static_cast<std::size_t>(m)]) {
    dirty_flags_[static_cast<std::size_t>(m)] = 1;
    dirty_list_.push_back(m);
  }
}

void Simulator::bank_progress(TaskState& t) {
  const SimTime since = t.progress_updated_at;
  const auto skipped = [&](MachineId m) {
    const auto& times = refresh_logs_[static_cast<std::size_t>(m)].times;
    return std::span(std::upper_bound(times.begin(), times.end(), since),
                     times.end());
  };
  if (t.placement.remote.empty()) {
    for (SimTime at : skipped(t.host)) advance_progress(t, at);
    return;
  }
  // A time logged on several of the task's machines replays once with
  // dt > 0 and then as no-ops, as a task visited once per call would.
  replay_.clear();
  const auto gather = [&](MachineId m) {
    const auto s = skipped(m);
    replay_.insert(replay_.end(), s.begin(), s.end());
  };
  gather(t.host);
  for (const auto& leg : t.placement.remote) gather(leg.machine);
  std::sort(replay_.begin(), replay_.end());
  for (SimTime at : replay_) advance_progress(t, at);
}

void Simulator::update_progress(TaskState& t) {
  bank_progress(t);
  advance_progress(t, now_);
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
  // Re-predict each affected task once: the epoch stamp marks a task
  // visited in this call. The body writes only its own task and reads
  // share state nothing here writes, so the visit order reaches no value;
  // it can reach the schedule only through the order of tied finishes.
  ++refresh_epoch_;
  finishes_.clear();
  // The naive view keeps the eager refresh: it finds no machine quiet and
  // visits every task on every dirty machine, so its logs stay empty.
  const bool eager = config_.naive_scheduler_view;
  for (MachineId m : dirty_list_) {
    const Machine& machine = machines_[static_cast<std::size_t>(m)];
    RefreshLog& log = refresh_logs_[static_cast<std::size_t>(m)];
    const bool quiet = !eager && log.uncontended && machine.uncontended();
    log.uncontended = machine.uncontended();
    if (quiet) {
      log.times.push_back(now_);
      if (log.times.size() >= log.trim_at) trim_refresh_log(m);
      continue;
    }
    for (const auto& [uid, demand] : machine.demands()) repredict(uid);
    log.times.clear();  // every task here is banked up to now_
  }
  // A new attempt needs its first prediction, a failed-over one a fresh
  // prediction on its new legs, whether or not its machines are quiet.
  for (int uid : charged_) repredict(uid);
  charged_.clear();
  // The call's events take consecutive seq numbers, and EventLater reads
  // seq only between equal times: only the order of tied events shows.
  if (finishes_.size() > 1) {
    std::sort(finishes_.begin(), finishes_.end(),
              [](const Event& x, const Event& y) { return x.time < y.time; });
    if (std::adjacent_find(finishes_.begin(), finishes_.end(),
                           [](const Event& x, const Event& y) {
                             return x.time == y.time;
                           }) != finishes_.end())
      order_as_hash_set(finishes_);
  }
  for (const Event& e : finishes_) push(e);
  for (MachineId m : dirty_list_) dirty_flags_[static_cast<std::size_t>(m)] = 0;
  dirty_list_.clear();
}

void Simulator::repredict(int uid) {
  TaskState& t = task_at(uid);
  if (t.refresh_epoch == refresh_epoch_) return;
  t.refresh_epoch = refresh_epoch_;
  if (t.status != TaskStatus::kRunning) return;
  update_progress(t);
  const double new_speed = compute_speed(t);
  const bool first_prediction = t.speed == 0 && t.progress == 0;
  if (!first_prediction &&
      std::abs(new_speed - t.speed) <= kSpeedEps * std::max(1.0, t.speed))
    return;
  t.speed = new_speed;
  t.generation++;
  if (t.speed <= kSpeedEps) return;  // stalled; re-predicted later
  const double target = target_progress(t);
  const double remaining = std::max(0.0, target - t.progress + kProgressEps) *
                           t.placement.duration / t.speed;
  finishes_.push_back(
      {now_ + remaining, 0, Event::Type::kFinish, uid, t.generation});
}

void Simulator::trim_refresh_log(MachineId m) {
  // A task banks only the times after its progress_updated_at, so the
  // times up to the oldest of those on this machine are never replayed.
  RefreshLog& log = refresh_logs_[static_cast<std::size_t>(m)];
  SimTime oldest = std::numeric_limits<double>::infinity();
  for (const auto& [uid, demand] :
       machines_[static_cast<std::size_t>(m)].demands())
    oldest = std::min(oldest, task_at(uid).progress_updated_at);
  log.times.erase(log.times.begin(), std::upper_bound(log.times.begin(),
                                                      log.times.end(), oldest));
  log.trim_at = std::max(RefreshLog::kMinTrim, 2 * log.times.size());
}

void Simulator::order_as_hash_set(std::vector<Event>& events) const {
  // Preserves the tie order the golden digests pin: the iteration order
  // of a std::unordered_set<int> filled with every uid on the dirty
  // machines, in dirty_list_ order and then each demand map's, as the
  // refresh once did on every call. A re-pin would replace this helper
  // with uid order (ROADMAP).
  std::unordered_set<int> affected;
  for (MachineId m : dirty_list_) {
    for (const auto& [uid, demand] : machines_[static_cast<std::size_t>(m)]
                                         .demands()) {
      affected.insert(uid);
    }
  }
  // Rank each event by its task's place in the set; push() overwrites seq.
  std::sort(events.begin(), events.end(),
            [](const Event& x, const Event& y) { return x.a < y.a; });
  long rank = 0;
  for (int uid : affected) {
    const auto it = std::lower_bound(
        events.begin(), events.end(), uid,
        [](const Event& e, int key) { return e.a < key; });
    if (it != events.end() && it->a == uid) it->seq = rank++;
  }
  std::sort(events.begin(), events.end(),
            [](const Event& x, const Event& y) { return x.seq < y.seq; });
}

}  // namespace tetris::sim
