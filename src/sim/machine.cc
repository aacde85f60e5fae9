#include "sim/machine.h"

#include <algorithm>
#include <stdexcept>

namespace tetris::sim {

namespace {
constexpr double kDemandEps = 1e-9;
}

Machine::Machine(MachineId id, const Resources& capacity,
                 const InterferenceModel* interference)
    : id_(id), capacity_(capacity), interference_(interference) {
  if (interference_ == nullptr)
    throw std::invalid_argument("machine needs an interference model");
  ratios_.fill(1.0);
}

void Machine::add_demand(int task_uid, const Resources& demand) {
  auto [it, inserted] = task_demands_.emplace(task_uid, demand);
  if (!inserted)
    throw std::logic_error("task already has a demand on this machine");
  total_task_demand_ += demand;
  for (std::size_t i = 0; i < kNumResources; ++i) {
    if (demand.at(i) > kDemandEps) demanding_count_[i]++;
  }
  recompute();
}

void Machine::remove_demand(int task_uid) {
  auto it = task_demands_.find(task_uid);
  if (it == task_demands_.end())
    throw std::logic_error("removing unknown task demand");
  total_task_demand_ -= it->second;
  for (std::size_t i = 0; i < kNumResources; ++i) {
    if (it->second.at(i) > kDemandEps) demanding_count_[i]--;
  }
  task_demands_.erase(it);
  // Guard against drift from repeated add/remove of similar magnitudes.
  total_task_demand_ = total_task_demand_.max_zero();
  recompute();
}

void Machine::set_capacity(const Resources& capacity) {
  capacity_ = capacity;
  external_usage_ = external_usage_.clamped_to(capacity_);
  recompute();
}

void Machine::set_external_usage(const Resources& usage) {
  external_usage_ = usage.clamped_to(capacity_);
  recompute();
}

void Machine::recompute() {
  for (Resource r : all_resources()) {
    const auto i = static_cast<std::size_t>(r);
    if (r == Resource::kMem) {
      // Memory is an occupancy, not a rate: it has no share ratio, but
      // over-commit flips the machine into thrashing.
      ratios_[i] = 1.0;
      continue;
    }
    const double task_demand = total_task_demand_[r];
    const double total = task_demand + external_usage_[r];
    if (total <= kDemandEps) {
      ratios_[i] = 1.0;
      continue;
    }
    // External activity (ingestion, evacuation) is just another stream
    // contending for the resource: over-subscription slows tasks *and* the
    // activity alike (paper §5.2.1: "delays in ingestion"), with the
    // interference-degraded effective capacity shared proportionally.
    const int streams =
        demanding_count_[i] + (external_usage_[r] > kDemandEps ? 1 : 0);
    const double eff =
        interference_->effective_capacity(r, capacity_[r], streams, total);
    ratios_[i] = total <= eff ? 1.0 : eff / total;
  }
  thrashing_ = total_task_demand_[Resource::kMem] + external_usage_[Resource::kMem] >
               capacity_[Resource::kMem] * (1.0 + 1e-9);
  uncontended_ = !thrashing_ && std::all_of(ratios_.begin(), ratios_.end(),
                                            [](double r) { return r == 1.0; });
}

double Machine::grant_ratio(const Resources& demand) const {
  // Exact: the min over ratios of 1.0 is 1.0, and max(1.0, 0) is 1.0.
  if (uncontended_) return 1.0;
  double ratio = 1.0;
  for (Resource r : all_resources()) {
    if (r == Resource::kMem) continue;
    if (demand[r] > kDemandEps)
      ratio = std::min(ratio, ratios_[static_cast<std::size_t>(r)]);
  }
  if (thrashing_) ratio *= interference_->mem_thrash_factor;
  // A task that was admitted always makes some progress: the share ratios
  // are only zero if external usage swallowed the whole resource, in which
  // case progress stalls until the activity subsides.
  return std::max(ratio, 0.0);
}

Resources Machine::usage() const {
  // What OS counters report: a saturated device shows 100% busy even
  // though interference lowers its goodput — offered load capped at
  // capacity. (Reporting goodput instead would make contention *free up*
  // apparent headroom and the tracker would pile more tasks on.)
  return (total_task_demand_ + external_usage_).cwise_min(capacity_);
}

}  // namespace tetris::sim
