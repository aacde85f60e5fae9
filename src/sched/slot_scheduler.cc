#include "sched/slot_scheduler.h"

#include <algorithm>
#include <cmath>
#include <unordered_map>
#include <vector>

#include "sched/common.h"
#include "sched/fairness.h"

namespace tetris::sched {

void SlotScheduler::schedule(sim::SchedulerContext& ctx) {
  auto groups = ctx.runnable_groups();
  if (groups.empty()) return;
  auto jobs = ctx.active_jobs();

  // Runnable groups per job, in stage order.
  std::unordered_map<sim::JobId, std::vector<std::size_t>> groups_of;
  for (std::size_t g = 0; g < groups.size(); ++g)
    groups_of[groups[g].ref.job].push_back(g);

  // Slot admission: the task's (estimated) memory rounded up to whole
  // slots must fit in the machine's free memory. Nothing else is checked.
  const auto slot_fits = [&](const sim::Probe& p) {
    const double need =
        std::ceil(p.demand[Resource::kMem] / config_.slot_mem) *
        config_.slot_mem;
    return need <= ctx.available(p.machine)[Resource::kMem] + 1;
  };

  // Availability only shrinks within a pass, so a group that fits nowhere
  // stays blocked for the rest of the pass.
  std::vector<char> blocked(groups.size(), 0);
  // Local share additions so the fairness order reacts to this pass's own
  // placements.
  std::vector<double> extra_mem(jobs.size(), 0);

  while (true) {
    std::vector<sim::JobView> adjusted = jobs;
    for (std::size_t i = 0; i < adjusted.size(); ++i)
      adjusted[i].current_alloc[Resource::kMem] += extra_mem[i];
    const auto order = furthest_from_share_order(
        FairnessPolicy::kSlots, adjusted, ctx.cluster_capacity(),
        config_.slot_mem);

    bool placed = false;
    for (std::size_t ji : order) {
      auto it = groups_of.find(jobs[ji].id);
      if (it == groups_of.end()) continue;
      // Offer the slot to the job's first stage with runnable tasks.
      for (auto gi_it = it->second.begin(); gi_it != it->second.end();) {
        const std::size_t gi = *gi_it;
        if (groups[gi].runnable <= 0) {
          gi_it = it->second.erase(gi_it);
          continue;
        }
        if (blocked[gi]) {
          ++gi_it;
          continue;
        }
        // Prefilter on memory alone (the only dimension slots see).
        const double mem_need = groups[gi].est_demand[Resource::kMem];
        auto best = best_machine_for_group(
            ctx, groups[gi], slot_fits, [&](const Resources& avail) {
              return mem_need <= avail[Resource::kMem] + 1;
            });
        if (best && ctx.place(*best)) {
          groups[gi].runnable--;
          extra_mem[ji] += best->demand[Resource::kMem];
          placed = true;
          break;
        }
        blocked[gi] = 1;
        ++gi_it;
      }
      if (placed) break;
    }
    if (!placed) break;
  }
}

}  // namespace tetris::sched
