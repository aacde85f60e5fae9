#include "sched/drf_scheduler.h"

#include <algorithm>
#include <unordered_map>
#include <vector>

#include "sched/common.h"
#include "sched/fairness.h"

namespace tetris::sched {

void DrfScheduler::schedule(sim::SchedulerContext& ctx) {
  auto groups = ctx.runnable_groups();
  if (groups.empty()) return;
  auto jobs = ctx.active_jobs();

  std::unordered_map<sim::JobId, std::vector<std::size_t>> groups_of;
  for (std::size_t g = 0; g < groups.size(); ++g)
    groups_of[groups[g].ref.job].push_back(g);

  const auto fits = [&](const sim::Probe& p) {
    const Resources avail = ctx.available(p.machine);
    for (Resource r : config_.dims) {
      if (p.demand[r] > avail[r] * (1 + 1e-9) + 1e-9) return false;
    }
    return true;
  };

  std::vector<char> blocked(groups.size(), 0);
  std::vector<Resources> extra(jobs.size());

  while (true) {
    // Ascending dominant share: lowest share is offered resources first.
    std::vector<std::pair<double, std::size_t>> order;
    order.reserve(jobs.size());
    for (std::size_t i = 0; i < jobs.size(); ++i) {
      order.emplace_back(
          dominant_share(jobs[i].current_alloc + extra[i],
                         ctx.cluster_capacity(), config_.dims),
          i);
    }
    std::sort(order.begin(), order.end(), [&](const auto& x, const auto& y) {
      if (x.first != y.first) return x.first < y.first;
      return jobs[x.second].id < jobs[y.second].id;
    });

    bool placed = false;
    for (const auto& [share, ji] : order) {
      auto it = groups_of.find(jobs[ji].id);
      if (it == groups_of.end()) continue;
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
        auto best = best_machine_for_group(ctx, groups[gi], fits,
                                           cpu_mem_prefilter(groups[gi]));
        if (best && ctx.place(*best)) {
          groups[gi].runnable--;
          extra[ji] += best->demand;
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
