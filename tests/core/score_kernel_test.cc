// The SIMD scoring kernel (DESIGN.md §12) against its scalar oracle, at
// every level: per-lane kernel outputs vs the exact scalar expressions,
// and full-simulation bit-identity at machine counts that are NOT a
// multiple of the vector width (so partial blocks and the scalar tail are
// forced).
#include "core/score_kernel.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <random>
#include <string>
#include <vector>

#include "core/alignment.h"
#include "core/tetris_scheduler.h"
#include "sim/simulator.h"
#include "util/resources.h"
#include "util/soa_planes.h"
#include "workload/profiles.h"
#include "workload/suite.h"

namespace tetris {
namespace {

using core::AlignmentKind;

Resources random_resources(std::mt19937_64& rng, double lo, double hi) {
  std::uniform_real_distribution<double> d(lo, hi);
  Resources r;
  for (std::size_t i = 0; i < kNumResources; ++i) r.at(i) = d(rng);
  return r;
}

// The exact scalar expression the scheduler's serial scan evaluates per
// cell; every kernel lane is held to these 64 bits.
double scalar_score(AlignmentKind kind, double remote_penalty,
                    const Resources& demand, const Resources& avail,
                    const Resources& cap, double local_fraction) {
  double a = core::alignment_score(kind, demand.normalized_by(cap),
                                   avail.normalized_by(cap));
  a *= 1.0 - remote_penalty * (1.0 - local_fraction);
  return a;
}

struct Cell {
  Resources demand, avail, cap;
  double local_fraction = 1.0;
};

core::simd::ScoreBlock gather_block(const std::vector<Cell>& cells) {
  core::simd::ScoreBlock b;
  b.n = cells.size();
  for (std::size_t l = 0; l < cells.size(); ++l) {
    for (std::size_t r = 0; r < kNumResources; ++r) {
      b.demand[r][l] = cells[l].demand.at(r);
      b.avail[r][l] = cells[l].avail.at(r);
      b.cap[r][l] = cells[l].cap.at(r);
    }
    b.local_fraction[l] = cells[l].local_fraction;
  }
  return b;
}

TEST(ScoreKernelTest, LaneWidthMatchesIsa) {
  const int w = core::simd::lane_width();
  const std::string_view isa = core::simd::isa_name();
  if (isa == "avx2") {
    EXPECT_EQ(w, 4);
  } else {
    EXPECT_EQ(isa, "scalar");
    EXPECT_EQ(w, 1);
  }
  EXPECT_LE(static_cast<std::size_t>(w), core::simd::ScoreBlock::kMaxLanes);
}

// Full blocks of every alignment kind, random cells: each lane's score
// must be bit-identical to the scalar expression.
TEST(ScoreKernelTest, BlockLanesAreBitIdenticalToScalar) {
  std::mt19937_64 rng(11);
  const int w = core::simd::lane_width();
  for (const AlignmentKind kind :
       {AlignmentKind::kCosine, AlignmentKind::kL2NormDiff,
        AlignmentKind::kL2NormRatio, AlignmentKind::kFfdProd,
        AlignmentKind::kFfdSum}) {
    for (int round = 0; round < 100; ++round) {
      std::vector<Cell> cells(static_cast<std::size_t>(w));
      for (auto& c : cells) {
        c.cap = random_resources(rng, 1.0, 16.0);
        // Demands may exceed availability (the kernel scores whatever it
        // is given); occasional zero-capacity dims hit the normalized_by
        // guard.
        c.demand = random_resources(rng, 0.0, 8.0);
        c.avail = random_resources(rng, 0.0, 8.0);
        if (round % 7 == 0) c.cap.at(round % kNumResources) = 0.0;
        c.local_fraction =
            std::uniform_real_distribution<double>(0.0, 1.0)(rng);
      }
      const core::simd::ScoreBlock block = gather_block(cells);
      core::simd::ScoreOut out;
      long blocks = 0, tails = 0;
      core::simd::score_block(kind, 0.1, block, &out, &blocks, &tails);
      for (int l = 0; l < w; ++l) {
        const Cell& c = cells[static_cast<std::size_t>(l)];
        const double want = scalar_score(kind, 0.1, c.demand, c.avail, c.cap,
                                         c.local_fraction);
        // Bit-level equality (NaN-safe): the kernel must reproduce the
        // scalar result exactly, not approximately.
        EXPECT_EQ(std::memcmp(&want, &out.score[l], sizeof want), 0)
            << "kind " << static_cast<int>(kind) << " lane " << l
            << ": want " << want << " got " << out.score[l];
      }
      // Every batched lane lands in exactly one counter.
      EXPECT_EQ(blocks * w + tails, w);
    }
  }
}

// Partial blocks (n < lane_width) take the scalar tail and never read the
// unset lanes.
TEST(ScoreKernelTest, PartialBlocksTakeScalarTail) {
  const int w = core::simd::lane_width();
  if (w == 1) GTEST_SKIP() << "scalar build has no partial blocks";
  std::mt19937_64 rng(13);
  std::vector<Cell> cells(static_cast<std::size_t>(w - 1));
  for (auto& c : cells) {
    c.cap = random_resources(rng, 1.0, 16.0);
    c.demand = random_resources(rng, 0.0, 8.0);
    c.avail = random_resources(rng, 0.0, 8.0);
  }
  const core::simd::ScoreBlock block = gather_block(cells);
  core::simd::ScoreOut out;
  long blocks = 0, tails = 0;
  core::simd::score_block(AlignmentKind::kCosine, 0.1, block, &out, &blocks,
                          &tails);
  EXPECT_EQ(blocks, 0);
  EXPECT_EQ(tails, w - 1);
  for (int l = 0; l < w - 1; ++l) {
    const Cell& c = cells[static_cast<std::size_t>(l)];
    EXPECT_EQ(out.score[l], scalar_score(AlignmentKind::kCosine, 0.1,
                                         c.demand, c.avail, c.cap, 1.0));
  }
}

// --- scalar-tail simulation equivalence ---

// Machine counts 7 and 13 are coprime to the lane width (4), so a
// round's batch often ends in a partial block: the scalar tail and the
// vector body must interleave without disturbing bit-identity.
TEST(ScoreKernelTailTest, OddMachineCountsStayBitIdentical) {
  for (const int machines : {7, 13}) {
    workload::SuiteConfig wcfg;
    wcfg.num_jobs = 16;
    wcfg.num_machines = machines;
    wcfg.task_scale = 0.04;
    wcfg.arrival_window = 200;
    wcfg.seed = 5;
    const sim::Workload w = workload::make_suite_workload(wcfg);

    const auto run = [&](bool naive) {
      sim::SimConfig cfg;
      cfg.num_machines = machines;
      cfg.machine_capacity = workload::facebook_machine();
      cfg.naive_scheduler_view = naive;
      core::TetrisConfig tcfg;
      tcfg.naive_scoring = naive;
      core::TetrisScheduler sched(tcfg);
      return sim::simulate(cfg, w, sched);
    };

    const sim::SimResult oracle = run(true);
    const sim::SimResult r = run(false);
    ASSERT_EQ(r.tasks.size(), oracle.tasks.size()) << machines << " machines";
    for (std::size_t i = 0; i < r.tasks.size(); ++i) {
      EXPECT_EQ(r.tasks[i].host, oracle.tasks[i].host) << i;
      EXPECT_EQ(r.tasks[i].start, oracle.tasks[i].start) << i;
      EXPECT_EQ(r.tasks[i].finish, oracle.tasks[i].finish) << i;
    }
    EXPECT_EQ(r.makespan, oracle.makespan);
    EXPECT_EQ(r.perf.simd_blocks * core::simd::lane_width() +
                  r.perf.scalar_tail_evals,
              r.perf.score_evals);
    if (core::simd::lane_width() > 1) {
      // Odd machine counts must actually exercise the tail.
      EXPECT_GT(r.perf.scalar_tail_evals, 0) << machines << " machines";
    }
  }
}

// --- SoA coherence through a live simulation ---

// Wraps the real scheduler and, after every pass (i.e. after placements
// mutated the planes mid-pass), checks the context's SoA views against
// the virtual accessors lane by lane — and against a from-scratch rebuild.
class PlaneCheckingScheduler : public sim::Scheduler {
 public:
  std::string name() const override { return "plane-check"; }
  void schedule(sim::SchedulerContext& ctx) override {
    check(ctx);
    inner_.schedule(ctx);
    check(ctx);
    passes_checked_++;
  }
  int passes_checked() const { return passes_checked_; }

 private:
  void check(sim::SchedulerContext& ctx) {
    const util::ResourcePlanes* avail = ctx.availability_planes();
    const util::ResourcePlanes* cap = ctx.capacity_planes();
    ASSERT_NE(avail, nullptr);
    ASSERT_NE(cap, nullptr);
    const int n = ctx.num_machines();
    ASSERT_GE(avail->lanes(), static_cast<std::size_t>(n));
    ASSERT_GE(cap->lanes(), static_cast<std::size_t>(n));
    std::vector<Resources> avail_aos(avail->lanes());
    std::vector<Resources> cap_aos(cap->lanes());
    for (std::size_t m = 0; m < avail->lanes(); ++m) {
      avail_aos[m] = ctx.available(static_cast<sim::MachineId>(m));
      cap_aos[m] = ctx.capacity(static_cast<sim::MachineId>(m));
      ASSERT_EQ(avail->gather(m), avail_aos[m]) << "machine " << m;
      ASSERT_EQ(cap->gather(m), cap_aos[m]) << "machine " << m;
    }
    // Layout intact: bit-identical to a fresh rebuild.
    ASSERT_TRUE(avail->identical_to(util::ResourcePlanes::rebuilt_from(
        avail_aos)));
    ASSERT_TRUE(cap->identical_to(util::ResourcePlanes::rebuilt_from(
        cap_aos)));
  }

  core::TetrisScheduler inner_;
  int passes_checked_ = 0;
};

TEST(SoACoherenceTest, PlanesTrackVirtualsThroughChurnAndPlacement) {
  workload::SuiteConfig wcfg;
  wcfg.num_jobs = 16;
  wcfg.num_machines = 9;
  wcfg.task_scale = 0.04;
  wcfg.arrival_window = 200;
  wcfg.seed = 3;
  const sim::Workload w = workload::make_suite_workload(wcfg);

  sim::SimConfig cfg;
  cfg.num_machines = 9;
  cfg.machine_capacity = workload::facebook_machine();
  // Churn takes machines down and back up mid-run; completions and
  // preemption-style refunds flow through the same planes.
  cfg.churn.scripted = {{2, 20.0, 80.0}, {5, 50.0, 140.0}};

  PlaneCheckingScheduler sched;
  const sim::SimResult r = sim::simulate(cfg, w, sched);
  EXPECT_TRUE(r.completed);
  EXPECT_GT(sched.passes_checked(), 10);
}

}  // namespace
}  // namespace tetris
