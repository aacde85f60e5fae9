#include "util/resources.h"

#include <gtest/gtest.h>

#include <sstream>

namespace tetris {
namespace {

TEST(Resources, DefaultIsZero) {
  Resources r;
  EXPECT_TRUE(r.is_zero());
  for (Resource d : all_resources()) EXPECT_EQ(r[d], 0.0);
}

TEST(Resources, OfShorthandFillsPairedDimensions) {
  const Resources r = Resources::of(4, 16, 100, 125);
  EXPECT_EQ(r.cpu(), 4);
  EXPECT_EQ(r.mem(), 16);
  EXPECT_EQ(r.disk_read(), 100);
  EXPECT_EQ(r.disk_write(), 100);
  EXPECT_EQ(r.net_in(), 125);
  EXPECT_EQ(r.net_out(), 125);
}

TEST(Resources, FullSetsEachDimension) {
  const Resources r = Resources::full(1, 2, 3, 4, 5, 6);
  EXPECT_EQ(r[Resource::kCpu], 1);
  EXPECT_EQ(r[Resource::kMem], 2);
  EXPECT_EQ(r[Resource::kDiskRead], 3);
  EXPECT_EQ(r[Resource::kDiskWrite], 4);
  EXPECT_EQ(r[Resource::kNetIn], 5);
  EXPECT_EQ(r[Resource::kNetOut], 6);
}

TEST(Resources, UniformFillsAll) {
  const Resources r = Resources::uniform(2.5);
  for (Resource d : all_resources()) EXPECT_EQ(r[d], 2.5);
}

TEST(Resources, ArithmeticIsComponentWise) {
  const Resources a = Resources::full(1, 2, 3, 4, 5, 6);
  const Resources b = Resources::full(6, 5, 4, 3, 2, 1);
  const Resources sum = a + b;
  for (Resource d : all_resources()) EXPECT_EQ(sum[d], 7.0);
  const Resources diff = sum - b;
  EXPECT_EQ(diff, a);
  const Resources scaled = a * 2.0;
  EXPECT_EQ(scaled[Resource::kNetOut], 12);
  EXPECT_EQ((2.0 * a), scaled);
  EXPECT_EQ((scaled / 2.0), a);
}

TEST(Resources, FitsWithinExact) {
  const Resources cap = Resources::of(4, 8, 100, 125);
  EXPECT_TRUE(cap.fits_within(cap));
  EXPECT_TRUE(Resources{}.fits_within(cap));
  Resources over = cap;
  over[Resource::kCpu] += 0.01;
  EXPECT_FALSE(over.fits_within(cap));
}

TEST(Resources, FitsWithinToleratesRepresentationNoise) {
  const Resources cap = Resources::of(4, 8e9, 1e8, 1.25e8);
  Resources almost = cap;
  almost[Resource::kMem] += 1e-3;  // far below eps * 8e9
  EXPECT_TRUE(almost.fits_within(cap));
}

TEST(Resources, FitsWithinChecksEveryDimension) {
  const Resources cap = Resources::uniform(10);
  for (Resource d : all_resources()) {
    Resources r;
    r[d] = 11;
    EXPECT_FALSE(r.fits_within(cap)) << resource_name(d);
    r[d] = 9;
    EXPECT_TRUE(r.fits_within(cap)) << resource_name(d);
  }
}

TEST(Resources, NormalizedByDividesComponentWise) {
  const Resources r = Resources::full(2, 4, 8, 16, 32, 64);
  const Resources denom = Resources::uniform(4);
  const Resources n = r.normalized_by(denom);
  EXPECT_DOUBLE_EQ(n[Resource::kCpu], 0.5);
  EXPECT_DOUBLE_EQ(n[Resource::kNetOut], 16);
}

TEST(Resources, NormalizedByZeroDenominatorYieldsZero) {
  const Resources r = Resources::uniform(5);
  Resources denom = Resources::uniform(2);
  denom[Resource::kMem] = 0;
  const Resources n = r.normalized_by(denom);
  EXPECT_EQ(n[Resource::kMem], 0);
  EXPECT_EQ(n[Resource::kCpu], 2.5);
}

TEST(Resources, CwiseMinMax) {
  const Resources a = Resources::full(1, 5, 2, 6, 3, 7);
  const Resources b = Resources::full(4, 2, 5, 3, 6, 4);
  const Resources mn = a.cwise_min(b);
  const Resources mx = a.cwise_max(b);
  EXPECT_EQ(mn, Resources::full(1, 2, 2, 3, 3, 4));
  EXPECT_EQ(mx, Resources::full(4, 5, 5, 6, 6, 7));
}

TEST(Resources, ClampedTo) {
  Resources r = Resources::full(-1, 5, 100, 3, 0, 9);
  const Resources hi = Resources::uniform(4);
  const Resources c = r.clamped_to(hi);
  EXPECT_EQ(c, Resources::full(0, 4, 4, 3, 0, 4));
}

TEST(Resources, MaxZeroFloorsNegatives) {
  Resources r = Resources::full(-1, 2, -3, 4, -5, 6);
  EXPECT_EQ(r.max_zero(), Resources::full(0, 2, 0, 4, 0, 6));
}

TEST(Resources, DotAndSum) {
  const Resources a = Resources::full(1, 2, 3, 4, 5, 6);
  const Resources b = Resources::uniform(2);
  EXPECT_DOUBLE_EQ(a.dot(b), 42);
  EXPECT_DOUBLE_EQ(a.sum(), 21);
}

TEST(Resources, Norms) {
  Resources r;
  r[Resource::kCpu] = 3;
  r[Resource::kMem] = 4;
  EXPECT_DOUBLE_EQ(r.max_component(), 4);
}

TEST(Resources, StreamFormatNamesEveryDimension) {
  std::ostringstream os;
  os << Resources::uniform(1);
  const std::string s = os.str();
  for (Resource d : all_resources()) {
    EXPECT_NE(s.find(resource_name(d)), std::string::npos);
  }
}

TEST(Resources, ResourceNamesAreUniqueAndNonEmpty) {
  std::vector<std::string_view> names;
  for (Resource d : all_resources()) {
    EXPECT_FALSE(resource_name(d).empty());
    names.push_back(resource_name(d));
  }
  std::sort(names.begin(), names.end());
  EXPECT_EQ(std::unique(names.begin(), names.end()), names.end());
}

// Property sweep: a + b - b == a over a grid of magnitudes (no drift at
// the scales the simulator uses, bytes to GB).
class ResourcesScaleTest : public ::testing::TestWithParam<double> {};

TEST_P(ResourcesScaleTest, AddSubRoundTrips) {
  const double scale = GetParam();
  const Resources a = Resources::full(1, 2, 3, 4, 5, 6) * scale;
  const Resources b = Resources::full(6, 5, 4, 3, 2, 1) * scale;
  const Resources round = (a + b) - b;
  for (Resource d : all_resources()) {
    EXPECT_NEAR(round[d], a[d], 1e-9 * scale);
  }
}

TEST_P(ResourcesScaleTest, FitsWithinSelfAtScale) {
  const Resources cap = Resources::uniform(GetParam());
  EXPECT_TRUE(cap.fits_within(cap));
}

INSTANTIATE_TEST_SUITE_P(Scales, ResourcesScaleTest,
                         ::testing::Values(1e-6, 1.0, 1e3, 1e9, 1e12));

}  // namespace
}  // namespace tetris
