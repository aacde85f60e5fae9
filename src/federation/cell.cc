#include "federation/cell.h"

#include <algorithm>

namespace tetris::federation {

sim::SimConfig make_cell_config(const sim::SimConfig& base,
                                const sim::CellSpec& span, int cell_index) {
  sim::SimConfig cfg = base;
  const auto caps = base.resolved_capacities();
  cfg.machine_capacities.assign(
      caps.begin() + span.begin, caps.begin() + span.end);
  cfg.num_machines = span.size();
  cfg.cells.clear();
  if (!base.machine_labels.empty()) {
    cfg.machine_labels.assign(base.machine_labels.begin() + span.begin,
                              base.machine_labels.begin() + span.end);
  }
  cfg.seed = base.seed + static_cast<std::uint64_t>(cell_index);

  cfg.churn.scripted.clear();
  for (const auto& ev : base.churn.scripted) {
    if (!span.contains(ev.machine)) continue;
    sim::MachineEvent local = ev;
    local.machine = ev.machine - span.begin;
    cfg.churn.scripted.push_back(local);
  }
  cfg.activities.clear();
  for (const auto& act : base.activities) {
    if (!span.contains(act.machine)) continue;
    sim::BackgroundActivity local = act;
    local.machine = act.machine - span.begin;
    cfg.activities.push_back(local);
  }
  return cfg;
}

sim::JobSpec remap_job_for_cell(const sim::JobSpec& job,
                                const sim::CellSpec& span) {
  sim::JobSpec out = job;
  const int size = span.size();
  for (auto& stage : out.stages) {
    for (auto& task : stage.tasks) {
      for (auto& split : task.inputs) {
        for (auto& replica : split.replicas) {
          replica = span.contains(replica) ? replica - span.begin
                                           : replica % size;
        }
      }
    }
  }
  return out;
}

bool cell_feasible(const sim::JobSpec& job, const sim::SimConfig& base,
                   const sim::CellSpec& span) {
  for (const auto& stage : job.stages) {
    const auto& c = stage.constraint;
    if (c.require_labels.empty() && c.forbid_labels.empty()) continue;
    bool admissible = false;
    for (sim::MachineId m = span.begin; m < span.end && !admissible; ++m) {
      admissible = sim::labels_admit(base, c, m);
    }
    if (!admissible) return false;
  }
  return true;
}

double cell_input_bytes(const sim::JobSpec& job, const sim::CellSpec& span) {
  double bytes = 0;
  for (const auto& stage : job.stages) {
    for (const auto& task : stage.tasks) {
      for (const auto& split : task.inputs) {
        const bool local = std::any_of(
            split.replicas.begin(), split.replicas.end(),
            [&](sim::MachineId r) { return span.contains(r); });
        if (local) bytes += split.bytes;
      }
    }
  }
  return bytes;
}

}  // namespace tetris::federation
