// Churn (§4.3, DESIGN.md §7): background activities such as data
// ingestion and evacuation that consume a machine's resources outside the
// scheduler's control, and machine failure and recovery. A failed machine
// loses the attempts it hosts; readers of its data fail over to a
// surviving replica, and its rack uplink shrinks with it.
#include "sim/simulator_impl.h"

namespace tetris::sim {

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
  const auto u = static_cast<std::size_t>(num_real_machines_ + rack);
  machines_[u].set_capacity(rack_uplink(rack));
  mark_dirty(static_cast<MachineId>(u));
}

void Simulator::on_machine_down(MachineId m) {
  if (down_depth_[static_cast<std::size_t>(m)]++ > 0) return;  // nested
  set_machine_up(m, false);
}

void Simulator::on_machine_up(MachineId m) {
  auto& depth = down_depth_[static_cast<std::size_t>(m)];
  if (depth <= 0) return;  // unmatched up event (defensive)
  if (--depth > 0) return;  // another down window still holds it
  set_machine_up(m, true);
}

void Simulator::set_machine_up(MachineId m, bool up) {
  Machine& machine = machines_[static_cast<std::size_t>(m)];
  down_count_ += up ? -1 : 1;
  churn_version_++;  // probes depend on replica masks and uplink capacity
  ++(up ? result_.churn.machines_recovered : result_.churn.machines_failed);
  if (tracer_) {
    trace::Event ev;
    ev.kind =
        up ? trace::EventKind::kMachineUp : trace::EventKind::kMachineDown;
    ev.time = now_;
    ev.a = m;
    tracer_->record(ev);
  }
  account_up_capacity();
  up_capacity_ = up ? up_capacity_ + machine.capacity()
                    : (up_capacity_ - machine.capacity()).max_zero();
  up_fraction_ = compute_up_fraction();

  machine_up_[static_cast<std::size_t>(m)] = up ? 1 : 0;
  revalidate_localities();
  machine.set_up(up);
  // Background activities suspend with the machine; recovery resumes
  // whatever windows are still open.
  machine.set_external_usage(
      up ? external_active_[static_cast<std::size_t>(m)] : Resources{});

  if (!up) {
    // Every running attempt touching the machine is affected. Tasks
    // hosted on it lose their attempt and re-queue. Tasks merely
    // streaming input from it fail the read over to a surviving replica
    // (HDFS-style) and keep their progress; only when no replica of some
    // input survives is the reader killed.
    for (int uid : tasks_touching(m)) {
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
  release(job, t);
  PlacementDemand pd = compute_placement(
      t.spec, t.host, static_cast<unsigned long long>(t.uid), &machine_up_);
  add_rack_legs(t.host, pd);
  t.placement = std::move(pd);
  charge(job, t);
  // Both the natural duration and the share ratios may have changed;
  // the sentinel defeats refresh_dirty's same-speed shortcut so a fresh
  // finish prediction is always issued.
  t.speed = -1;
  result_.churn.read_failovers++;
}

}  // namespace tetris::sim
