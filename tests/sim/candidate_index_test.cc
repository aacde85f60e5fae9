// The per-stage locality index (sim/candidate_index.h) against the bounded
// per-probe scan it replaces. A seeded driver mirrors the simulator's
// runnable-set upkeep — append on add and requeue, swap-and-pop on remove,
// revalidation on churn — and after every step compares each machine's
// (candidate, local fraction) with the naive scan bit for bit. A counter
// test then checks on a small synthetic stream that the stage-owned probe
// slots actually serve most probes.
#include "sim/candidate_index.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <vector>

#include "core/tetris_scheduler.h"
#include "sim/placement.h"
#include "sim/simulator.h"
#include "util/rng.h"
#include "workload/stream_gen.h"

namespace tetris::sim {
namespace {

constexpr int kMachines = 9;

// Random task inputs with the corners the locality row must match
// local_fraction() on: replicated splits with repeated replicas,
// generated splits, zero-byte splits and input-less tasks.
TaskSpec random_task(Rng& rng) {
  TaskSpec t;
  const int splits = static_cast<int>(rng.uniform_int(0, 4));
  for (int s = 0; s < splits; ++s) {
    InputSplit split;
    const int kind = static_cast<int>(rng.uniform_int(0, 9));
    split.bytes = kind == 0 ? 0.0 : rng.uniform(1.0, 100.0);
    if (kind != 1) {
      const int replicas = static_cast<int>(rng.uniform_int(1, 3));
      for (int r = 0; r < replicas; ++r) {
        split.replicas.push_back(
            static_cast<MachineId>(rng.uniform_int(0, kMachines - 1)));
      }
      if (kind == 2) split.replicas.push_back(split.replicas.front());
    }
    t.inputs.push_back(std::move(split));
  }
  return t;
}

// A stage's runnable order and its index, maintained the way the
// simulator's add_runnable / remove_runnable / churn handlers do.
struct Stage {
  std::vector<TaskSpec> tasks;
  std::vector<int> runnable;  // task indices, in runnable order
  std::vector<int> pos;       // per task: position in `runnable`, or -1
  std::vector<char> up = std::vector<char>(kMachines, 1);
  CandidateIndex index;

  bool viable(int task) const {
    const bool any_down =
        std::find(up.begin(), up.end(), 0) != up.end();
    return !any_down || inputs_available(tasks[static_cast<std::size_t>(task)],
                                          up);
  }

  void add(int task) {
    pos[static_cast<std::size_t>(task)] = static_cast<int>(runnable.size());
    runnable.push_back(task);
    if (runnable.size() == 1) index.reset(kMachines);
    if (!index.full())
      index.push(tasks[static_cast<std::size_t>(task)], viable(task));
  }

  void remove(int task) {
    const auto p = static_cast<std::size_t>(pos[static_cast<std::size_t>(task)]);
    const int last = runnable.back();
    runnable[p] = last;
    pos[static_cast<std::size_t>(last)] = static_cast<int>(p);
    runnable.pop_back();
    pos[static_cast<std::size_t>(task)] = -1;
    if (runnable.empty()) {
      index = {};
      return;
    }
    if (p < index.size()) {
      if (runnable.size() >= index.size()) {
        index.replace(p, tasks[static_cast<std::size_t>(last)], viable(last));
      } else {
        index.erase(p);
      }
    }
  }

  void flip(int machine) {
    up[static_cast<std::size_t>(machine)] ^= 1;
    if (runnable.empty()) return;
    index.revalidate([&](std::size_t p) { return viable(runnable[p]); });
  }

  // The bounded per-probe scan: the simulator's naive_scheduler_view.
  void naive(MachineId m, int* best, double* best_frac) const {
    *best = -1;
    *best_frac = -1;
    const std::size_t scan = std::min(runnable.size(), kMaxLocalityScan);
    for (std::size_t i = 0; i < scan; ++i) {
      const int idx = runnable[i];
      if (!viable(idx)) continue;
      const double frac =
          local_fraction(tasks[static_cast<std::size_t>(idx)], m);
      if (frac > *best_frac) {
        *best_frac = frac;
        *best = idx;
      }
      if (*best_frac >= 1.0) break;
    }
  }

  void check(const char* step, int iteration) const {
    if (runnable.empty()) return;
    ASSERT_EQ(index.size(), std::min(runnable.size(), kMaxLocalityScan));
    for (MachineId m = 0; m < kMachines; ++m) {
      int want = -1;
      double want_frac = -1;
      naive(m, &want, &want_frac);
      const int p = index.best(m);
      const int got = p < 0 ? -1 : runnable[static_cast<std::size_t>(p)];
      const double got_frac = index.best_frac(m);
      ASSERT_EQ(got, want) << step << " at step " << iteration << ", machine "
                           << m;
      if (want >= 0) {
        ASSERT_EQ(std::memcmp(&got_frac, &want_frac, sizeof(double)), 0)
            << step << " at step " << iteration << ", machine " << m;
      }
    }
  }
};

TEST(CandidateIndex, MatchesBoundedScanUnderRandomUpkeep) {
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    Rng rng(seed);
    Stage stage;
    const int n = 60;
    for (int i = 0; i < n; ++i) stage.tasks.push_back(random_task(rng));
    stage.pos.assign(n, -1);
    // Several identical rows force ties, where only the earliest window
    // position may win.
    for (int i = 0; i < 6; ++i) stage.tasks[static_cast<std::size_t>(i + 10)] =
        stage.tasks[10];

    int requeued = -1;
    bool covered[4] = {false, false, false, false};
    for (int step = 0; step < 3000; ++step) {
      // Adds and net removals balance, so the runnable set wanders both
      // below and above the window size.
      const int op = static_cast<int>(rng.uniform_int(0, 19));
      std::vector<int> idle;
      for (int t = 0; t < n; ++t) {
        if (stage.pos[static_cast<std::size_t>(t)] < 0) idle.push_back(t);
      }
      const auto pick_idle = [&]() {
        return idle[static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<long>(idle.size()) - 1))];
      };
      if (op <= 6 && !idle.empty()) {
        stage.add(pick_idle());
        stage.check("add", step);
      } else if (op <= 14 && !stage.runnable.empty()) {
        const auto size = static_cast<long>(stage.runnable.size());
        const auto p = static_cast<std::size_t>(rng.uniform_int(0, size - 1));
        const int t = stage.runnable[p];
        if (t == requeued) covered[3] = true;
        if (p + 1 == stage.runnable.size()) {
          covered[2] = true;
        } else if (p < kMaxLocalityScan) {
          covered[0] = true;
        } else {
          covered[1] = true;
        }
        stage.remove(t);
        stage.check("remove", step);
        if (op == 14) {  // a failed attempt: straight back to the tail
          stage.add(t);
          requeued = t;
          stage.check("requeue", step);
        }
      } else if (op <= 18) {
        stage.flip(static_cast<int>(rng.uniform_int(0, kMachines - 1)));
        stage.check("viability flip", step);
      } else {
        // Drain to empty and refill: the index is freed and rebuilt.
        while (!stage.runnable.empty()) stage.remove(stage.runnable.back());
        const long refill = rng.uniform_int(1, n);
        for (long i = 0; i < refill; ++i) {
          idle.clear();
          for (int t = 0; t < n; ++t) {
            if (stage.pos[static_cast<std::size_t>(t)] < 0) idle.push_back(t);
          }
          stage.add(pick_idle());
        }
        stage.check("rebuild", step);
      }
      if (HasFatalFailure()) return;
    }
    EXPECT_TRUE(covered[0]) << "no remove inside the window";
    EXPECT_TRUE(covered[1]) << "no remove outside the window";
    EXPECT_TRUE(covered[2]) << "no remove of the last element";
    EXPECT_TRUE(covered[3]) << "no remove of a requeued task";
  }
}

// The probe slots must earn their keep on the write-heavy stream the
// index was built for.
TEST(CandidateIndex, ProbeSlotsServeMostProbes) {
  workload::StreamGenConfig gen;
  gen.num_jobs = 60;
  gen.tasks_per_job = 30;
  gen.num_machines = 10;
  gen.arrival_spacing = 1.0;
  SimConfig cfg;
  cfg.num_machines = gen.num_machines;
  cfg.machine_capacity = Resources::full(8, 16 * kGB, 200 * kMB, 200 * kMB,
                                         125 * kMB, 125 * kMB);
  workload::SyntheticJobSource source(gen);
  core::TetrisScheduler sched;
  const SimResult r = simulate_stream(cfg, source, sched);
  ASSERT_TRUE(r.completed);
  const long probes = r.perf.probe_cache_hits + r.perf.probe_cache_misses;
  ASSERT_GT(probes, 0);
  EXPECT_GE(static_cast<double>(r.perf.probe_cache_hits) /
                static_cast<double>(probes),
            0.5);
}

}  // namespace
}  // namespace tetris::sim
