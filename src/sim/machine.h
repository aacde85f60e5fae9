// Runtime state of one machine: which tasks demand what here, how the
// contended resources are shared, and the two availability views (by
// allocation vs by observed usage) that the resource tracker reports.
#pragma once

#include <array>
#include <unordered_map>

#include "sim/interference.h"
#include "sim/spec.h"
#include "util/resources.h"

namespace tetris::sim {

// A machine shares each resource proportionally to demand when
// over-subscribed, with interference-degraded effective capacity (see
// interference.h). All state changes go through add/remove; share ratios
// are recomputed lazily.
class Machine {
 public:
  Machine(MachineId id, const Resources& capacity,
          const InterferenceModel* interference);

  MachineId id() const { return id_; }
  const Resources& capacity() const { return capacity_; }

  // Replaces the capacity vector and re-shares demand against it. Used for
  // rack uplinks, whose bandwidth is the aggregate of their *up* members'
  // NICs and therefore shrinks when a member machine fails.
  void set_capacity(const Resources& capacity);

  // Churn state. The simulator kills every demand touching a machine
  // before taking it down, so a down machine holds no task demands; the
  // flag gates the availability views (a down machine offers nothing).
  bool up() const { return up_; }
  void set_up(bool up) { up_ = up; }

  // Registers / removes one task's demand rates on this machine (a task's
  // local demands on its host, or its remote leg on an input source).
  void add_demand(int task_uid, const Resources& demand);
  void remove_demand(int task_uid);

  // External (non-task) resource usage: data ingestion, evacuation,
  // re-replication (paper §4.3). Absolute usage rates, not deltas.
  void set_external_usage(const Resources& usage);
  const Resources& external_usage() const { return external_usage_; }

  // Fraction of its demand a task is granted on this machine: the min over
  // resources it demands of the machine's share ratio, times the thrash
  // factor if memory is over-committed. In (0, 1].
  double grant_ratio(const Resources& demand) const;

  // Per-resource share ratio (grant / demand) currently in force.
  double share_ratio(Resource r) const {
    return ratios_[static_cast<std::size_t>(r)];
  }
  bool memory_thrashing() const { return thrashing_; }

  // Actual consumption: granted rates (demand * share ratio) plus external
  // usage, capped at capacity. This is what the resource tracker's OS
  // counters would observe.
  Resources usage() const;

  // Availability by allocation: capacity - sum of task demands - external
  // usage, floored at zero. The bookkeeping view a scheduler holds.
  Resources available_by_allocation() const;

  int num_tasks() const { return static_cast<int>(task_demands_.size()); }

  // Task uid -> demand rates registered here (hosted tasks and remote legs
  // alike). Exposed for the simulator's rate-refresh and tracker logic.
  const std::unordered_map<int, Resources>& demands() const {
    return task_demands_;
  }

 private:
  void recompute();

  MachineId id_;
  Resources capacity_;
  const InterferenceModel* interference_;
  std::unordered_map<int, Resources> task_demands_;
  Resources total_task_demand_;
  std::array<int, kNumResources> demanding_count_{};
  Resources external_usage_;
  std::array<double, kNumResources> ratios_;
  bool thrashing_ = false;
  bool up_ = true;
};

}  // namespace tetris::sim
