#include "sched/srtf_scheduler.h"

#include <algorithm>
#include <unordered_map>
#include <vector>

#include "sched/common.h"

namespace tetris::sched {

void SrtfScheduler::schedule(sim::SchedulerContext& ctx) {
  auto groups = ctx.runnable_groups();
  if (groups.empty()) return;
  auto jobs = ctx.active_jobs();

  std::sort(jobs.begin(), jobs.end(), [](const auto& x, const auto& y) {
    if (x.remaining_work != y.remaining_work)
      return x.remaining_work < y.remaining_work;
    return x.id < y.id;
  });

  std::unordered_map<sim::JobId, std::vector<std::size_t>> groups_of;
  for (std::size_t g = 0; g < groups.size(); ++g)
    groups_of[groups[g].ref.job].push_back(g);

  const auto fits = [&](const sim::Probe& p) {
    return fits_all_local(p.demand, ctx.available(p.machine)) &&
           remote_legs_fit(ctx, p);
  };

  // Strict SRTF: drain as much of the shortest job as fits, then move on.
  for (const auto& job : jobs) {
    auto it = groups_of.find(job.id);
    if (it == groups_of.end()) continue;
    for (std::size_t gi : it->second) {
      while (groups[gi].runnable > 0) {
        auto best = best_machine_for_group(ctx, groups[gi], fits,
                                           cpu_mem_prefilter(groups[gi]));
        if (!best || !ctx.place(*best)) break;
        groups[gi].runnable--;
      }
    }
  }
}

}  // namespace tetris::sched
