#include "sim/config.h"

#include <algorithm>
#include <limits>
#include <string>
#include <vector>

namespace tetris::sim {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

// Each check states the legal range positively, so NaN — which fails
// every comparison — is rejected along with out-of-range values.
bool finite_nonnegative(const Resources& r) {
  for (std::size_t i = 0; i < kNumResources; ++i) {
    if (!(0 <= r.at(i) && r.at(i) < kInf)) return false;
  }
  return true;
}

}  // namespace

std::string validate(const SimConfig& config) {
  // An explicit machine_capacities that contradicts an explicit
  // num_machines is a config bug: resolved_capacities() silently prefers
  // the vector, so the caller would simulate a different cluster than the
  // one they asked for. The default num_machines counts as "unspecified".
  if (!config.machine_capacities.empty() &&
      config.num_machines != kDefaultNumMachines &&
      config.num_machines !=
          static_cast<int>(config.machine_capacities.size())) {
    return "SimConfig: num_machines=" + std::to_string(config.num_machines) +
           " contradicts machine_capacities.size()=" +
           std::to_string(config.machine_capacities.size());
  }
  const int n = config.machine_capacities.empty()
                    ? config.num_machines
                    : static_cast<int>(config.machine_capacities.size());
  if (n <= 0) return "no machines configured";
  if (!finite_nonnegative(config.machine_capacity) ||
      !std::all_of(config.machine_capacities.begin(),
                   config.machine_capacities.end(), finite_nonnegative))
    return "SimConfig: machine capacities must be finite and >= 0";
  // An uplink's capacity is the rack's NIC total / rack_oversubscription.
  if (config.machines_per_rack < 0 ||
      (config.machines_per_rack > 0 &&
       !(0 < config.rack_oversubscription &&
         config.rack_oversubscription < kInf))) {
    return "bad rack topology configuration: machines_per_rack must be >= 0 "
           "and rack_oversubscription finite and > 0";
  }
  // Heartbeats and timeline samples re-arm at now + period: a zero,
  // negative or NaN period would stall virtual time, and with it
  // max_time, forever.
  if (!(0 < config.heartbeat_period && config.heartbeat_period < kInf))
    return "SimConfig: heartbeat_period must be finite and > 0";
  if (!(0 < config.timeline_period && config.timeline_period < kInf))
    return "SimConfig: timeline_period must be finite and > 0";
  // The hard stop: NaN would disable it, +inf would let churn
  // pre-generation run until memory runs out, and <= 0 ends the run
  // before its first event.
  if (!(0 < config.max_time && config.max_time < kInf))
    return "SimConfig: max_time must be finite and > 0";
  if (!(0 <= config.churn.mttf && config.churn.mttf < kInf))
    return "ChurnConfig: mttf must be finite and >= 0";
  if (config.churn.mttf > 0 &&
      !(0 < config.churn.mttr && config.churn.mttr < kInf))
    return "ChurnConfig: mttr must be finite and > 0 when mttf > 0";
  // Machine labels must cover the cluster exactly or not at all — a
  // partial list would silently leave machines unlabeled, the same class
  // of bug as the num_machines vs machine_capacities contradiction.
  if (!config.machine_labels.empty() &&
      static_cast<int>(config.machine_labels.size()) != n) {
    return "SimConfig: machine_labels.size()=" +
           std::to_string(config.machine_labels.size()) +
           " must match the machine count " + std::to_string(n);
  }
  // Cell partitions are validated even when this simulator runs globally:
  // a config that would mis-shard the federated layer is a bug worth
  // rejecting wherever it first reaches a simulator (DESIGN.md §14).
  if (auto msg = validate_cells(config); !msg.empty())
    return "SimConfig: invalid cell partition: " + msg;
  for (const auto& labels : config.machine_labels) {
    for (const auto& label : labels) {
      if (label.empty())
        return "SimConfig: machine_labels contains an empty label";
    }
  }
  for (const auto& ev : config.churn.scripted) {
    if (ev.machine < 0 || ev.machine >= n ||
        !(0 <= ev.down_at && ev.down_at < ev.up_at && ev.up_at < kInf)) {
      return "ChurnConfig: scripted event needs a valid machine and "
             "finite 0 <= down_at < up_at";
    }
  }
  // Activity events index the machine array, and their usage is added to
  // the machine's external draw while the window is open.
  for (std::size_t i = 0; i < config.activities.size(); ++i) {
    const BackgroundActivity& act = config.activities[i];
    if (act.machine < 0 || act.machine >= n ||
        !(0 <= act.start && act.start <= act.end && act.end < kInf) ||
        !finite_nonnegative(act.usage)) {
      return "SimConfig: activity " + std::to_string(i) +
             " needs a machine in [0, " + std::to_string(n) +
             "), finite 0 <= start <= end and finite usage >= 0";
    }
  }
  // A probability of 1 or more re-executes every attempt until max_time
  // (and std::bernoulli_distribution is undefined above 1).
  if (!(0 <= config.task_failure_prob && config.task_failure_prob < 1))
    return "SimConfig: task_failure_prob must be in [0, 1)";
  // The ramp-up allowance (Simulator::tracker_available) divides a task's
  // age by the window and pads by a fraction of its estimated demand.
  if (!(0 < config.ramp_up_window && config.ramp_up_window < kInf))
    return "SimConfig: ramp_up_window must be finite and > 0";
  if (!(0 <= config.ramp_allowance_fraction &&
        config.ramp_allowance_fraction <= 1))
    return "SimConfig: ramp_allowance_fraction must be in [0, 1]";
  const EstimationConfig& est = config.estimation;
  if (!(0 <= est.noise_cov && est.noise_cov < kInf))
    return "EstimationConfig: noise_cov must be finite and >= 0";
  // Below 1 under-estimates, the unsafe direction.
  if (!(1 <= est.overestimate_factor && est.overestimate_factor < kInf))
    return "EstimationConfig: overestimate_factor must be finite and >= 1";
  if (est.profile_after < 0)
    return "EstimationConfig: profile_after must be >= 0";
  const StreamConfig& sc = config.stream;
  if (!(0 <= sc.lookahead && sc.lookahead < kInf))
    return "StreamConfig: lookahead must be finite and >= 0";
  if (sc.max_resident_tasks < 0 || sc.max_resident_jobs < 0)
    return "StreamConfig: resident ceilings must be >= 0 (0 = unbounded)";
  // Zero efficiency or thrash factor would stall tasks forever; a
  // non-positive ramp would raise capacity under over-allocation.
  const InterferenceModel& im = config.interference;
  if (!(0 <= im.disk_seek_alpha && im.disk_seek_alpha <= 1) ||
      !(0 <= im.incast_alpha && im.incast_alpha <= 1) ||
      !(0 < im.min_efficiency && im.min_efficiency <= 1) ||
      !(0 < im.penalty_ramp && im.penalty_ramp < kInf) ||
      !(0 < im.mem_thrash_factor && im.mem_thrash_factor <= 1)) {
    return "InterferenceModel: alphas must be in [0, 1], min_efficiency and "
           "mem_thrash_factor in (0, 1], penalty_ramp finite and > 0";
  }
  return {};
}

std::string validate_cells(const SimConfig& config) {
  if (config.cells.empty()) return {};
  const int n = static_cast<int>(config.resolved_capacities().size());
  int expected_begin = 0;
  for (std::size_t i = 0; i < config.cells.size(); ++i) {
    const CellSpec& cell = config.cells[i];
    const std::string where = "cell " + std::to_string(i) + " [" +
                              std::to_string(cell.begin) + ", " +
                              std::to_string(cell.end) + ")";
    if (cell.begin < 0 || cell.end > n) {
      return where + " references machines outside the cluster of " +
             std::to_string(n);
    }
    if (cell.begin >= cell.end) return where + " is empty or inverted";
    if (cell.begin < expected_begin) {
      return where + " overlaps the previous cell ending at " +
             std::to_string(expected_begin);
    }
    if (cell.begin > expected_begin) {
      return where + " skips machines [" + std::to_string(expected_begin) +
             ", " + std::to_string(cell.begin) + ")";
    }
    // Rack alignment: a cell boundary inside a rack would split the rack's
    // uplink between two schedulers, each booking cross-rack legs on a
    // pseudo-machine the other cannot see.
    const int k = config.machines_per_rack;
    if (k > 0 && cell.begin % k != 0) {
      return where + " splits a rack (machines_per_rack=" +
             std::to_string(k) + ")";
    }
    expected_begin = cell.end;
  }
  if (expected_begin != n) {
    return "cells cover only [0, " + std::to_string(expected_begin) +
           ") of the " + std::to_string(n) + "-machine cluster";
  }
  return {};
}

bool labels_admit(const SimConfig& config, const PlacementConstraint& c,
                  MachineId m) {
  static const std::vector<std::string> kNoLabels;
  const auto& labels = config.machine_labels.empty()
                           ? kNoLabels
                           : config.machine_labels[static_cast<std::size_t>(m)];
  for (const auto& need : c.require_labels) {
    if (std::find(labels.begin(), labels.end(), need) == labels.end())
      return false;
  }
  for (const auto& ban : c.forbid_labels) {
    if (std::find(labels.begin(), labels.end(), ban) != labels.end())
      return false;
  }
  return true;
}

}  // namespace tetris::sim
