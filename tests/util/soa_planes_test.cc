// ResourcePlanes (DESIGN.md §12): the SoA mirror of an array-of-structs
// `std::vector<Resources>` must track it bit for bit through arbitrary
// mutation sequences — the same ops the scheduler context applies on
// placement commit (sub_max_zero) and preemption refund (add_cwise_min) —
// and each plane must hold exactly `lanes()` doubles, packed back to back.
#include "util/soa_planes.h"

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <random>
#include <vector>

#include "util/resources.h"

namespace tetris::util {
namespace {

Resources random_resources(std::mt19937_64& rng, double lo, double hi) {
  std::uniform_real_distribution<double> d(lo, hi);
  Resources r;
  for (std::size_t i = 0; i < kNumResources; ++i) r.at(i) = d(rng);
  return r;
}

// Planes are packed: plane r + 1 starts right after the lanes() doubles
// of plane r, so no lane is padding.
void expect_packed(const ResourcePlanes& p) {
  for (std::size_t r = 0; r + 1 < kNumResources; ++r) {
    EXPECT_EQ(p.plane(r + 1) - p.plane(r),
              static_cast<std::ptrdiff_t>(p.lanes()))
        << "plane " << r;
  }
}

TEST(ResourcePlanesTest, ResetAllocatesExactLanesAndZeroes) {
  for (const std::size_t lanes : {1u, 7u, 8u, 9u, 13u, 64u}) {
    ResourcePlanes p(lanes);
    EXPECT_EQ(p.lanes(), lanes);
    expect_packed(p);
    for (std::size_t r = 0; r < kNumResources; ++r)
      for (std::size_t l = 0; l < lanes; ++l) EXPECT_EQ(p.plane(r)[l], 0.0);
    for (std::size_t l = 0; l < lanes; ++l)
      EXPECT_EQ(p.gather(l), Resources());
  }
  // Resetting a used set to fewer lanes shrinks it and zeroes every lane.
  ResourcePlanes p(13);
  p.set(12, Resources::uniform(3.0));
  p.reset(5);
  EXPECT_EQ(p.lanes(), 5u);
  expect_packed(p);
  for (std::size_t l = 0; l < 5; ++l) EXPECT_EQ(p.gather(l), Resources());
  EXPECT_EQ(ResourcePlanes(0).lanes(), 0u);
}

TEST(ResourcePlanesTest, SetGatherRoundTrips) {
  ResourcePlanes p(5);
  std::mt19937_64 rng(7);
  std::vector<Resources> want(5);
  for (std::size_t l = 0; l < 5; ++l) {
    want[l] = random_resources(rng, -2.0, 10.0);
    p.set(l, want[l]);
  }
  for (std::size_t l = 0; l < 5; ++l) EXPECT_EQ(p.gather(l), want[l]);
  expect_packed(p);
}

// The core property: a long randomized stream of set / sub_max_zero /
// add_cwise_min against a scalar Resources model stays bit-identical lane
// by lane, and the planes stay identical_to a from-scratch rebuild of the
// model.
TEST(ResourcePlanesTest, RandomizedMutationsMatchScalarModelAndRebuild) {
  for (const std::uint64_t seed : {1u, 2u, 3u}) {
    for (const std::size_t lanes : {3u, 8u, 13u}) {
      std::mt19937_64 rng(seed * 1000 + lanes);
      std::uniform_int_distribution<int> pick_lane(
          0, static_cast<int>(lanes) - 1);
      std::uniform_int_distribution<int> pick_op(0, 2);

      ResourcePlanes p(lanes);
      std::vector<Resources> model(lanes);
      const Resources cap = random_resources(rng, 4.0, 16.0);

      for (int step = 0; step < 500; ++step) {
        const auto l = static_cast<std::size_t>(pick_lane(rng));
        switch (pick_op(rng)) {
          case 0: {
            const Resources v = random_resources(rng, 0.0, 12.0);
            p.set(l, v);
            model[l] = v;
            break;
          }
          case 1: {
            // Oversized deltas exercise the max-zero clamp.
            const Resources d = random_resources(rng, 0.0, 15.0);
            p.sub_max_zero(l, d);
            model[l] = (model[l] - d).max_zero();
            break;
          }
          default: {
            const Resources d = random_resources(rng, 0.0, 15.0);
            p.add_cwise_min(l, d, cap);
            model[l] = (model[l] + d).cwise_min(cap);
            break;
          }
        }
        ASSERT_EQ(p.gather(l), model[l]) << "seed " << seed << " lanes "
                                         << lanes << " step " << step;
      }

      for (std::size_t l = 0; l < lanes; ++l)
        EXPECT_EQ(p.gather(l), model[l]);
      EXPECT_TRUE(p.identical_to(ResourcePlanes::rebuilt_from(model)));
    }
  }
}

TEST(ResourcePlanesTest, IdenticalToIsExactIncludingPadding) {
  std::vector<Resources> v = {Resources::of(1, 2, 3, 4),
                              Resources::of(5, 6, 7, 8)};
  const ResourcePlanes a = ResourcePlanes::rebuilt_from(v);
  ResourcePlanes b = ResourcePlanes::rebuilt_from(v);
  EXPECT_TRUE(a.identical_to(b));

  // Any single-bit lane difference breaks it.
  b.set(1, Resources::of(5, 6, 7, 8.0000000001));
  EXPECT_FALSE(a.identical_to(b));

  // Different lane counts are never identical, even when the shared lanes
  // agree.
  v.push_back(Resources());
  EXPECT_FALSE(a.identical_to(ResourcePlanes::rebuilt_from(v)));
}

TEST(ResourcePlanesTest, PlanesAreContiguousPerDimension) {
  ResourcePlanes p(3);
  p.set(0, Resources::full(1, 2, 3, 4, 5, 6));
  p.set(1, Resources::full(10, 20, 30, 40, 50, 60));
  p.set(2, Resources::full(100, 200, 300, 400, 500, 600));
  for (std::size_t r = 0; r < kNumResources; ++r) {
    const double* lane = p.plane(r);
    EXPECT_EQ(lane[0], p.gather(0).at(r));
    EXPECT_EQ(lane[1], p.gather(1).at(r));
    EXPECT_EQ(lane[2], p.gather(2).at(r));
  }
}

}  // namespace
}  // namespace tetris::util
