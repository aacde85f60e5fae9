#include "util/stats.h"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

namespace tetris {
namespace {

TEST(Stats, MeanAndStdevKnownValues) {
  const std::vector<double> xs = {2, 4, 4, 4, 5, 5, 7, 9};
  EXPECT_DOUBLE_EQ(mean(xs), 5.0);
  EXPECT_NEAR(stdev(xs), 2.138, 1e-3);  // sample stdev
}

TEST(Stats, MeanOfEmptyIsZero) {
  EXPECT_EQ(mean({}), 0.0);
  EXPECT_EQ(stdev({}), 0.0);
  EXPECT_EQ(stdev(std::vector<double>{5.0}), 0.0);
}

TEST(Stats, PercentileInterpolates) {
  const std::vector<double> xs = {10, 20, 30, 40};
  EXPECT_DOUBLE_EQ(percentile(xs, 0), 10);
  EXPECT_DOUBLE_EQ(percentile(xs, 100), 40);
  EXPECT_DOUBLE_EQ(percentile(xs, 50), 25);
  EXPECT_DOUBLE_EQ(percentile(xs, 25), 17.5);
}

TEST(Stats, PercentileHandlesUnsortedInput) {
  const std::vector<double> xs = {40, 10, 30, 20};
  EXPECT_DOUBLE_EQ(percentile(xs, 100), 40);
  EXPECT_DOUBLE_EQ(percentile(xs, 0), 10);
}

TEST(Stats, PercentileClampsOutOfRangeP) {
  const std::vector<double> xs = {1, 2, 3};
  EXPECT_DOUBLE_EQ(percentile(xs, -5), 1);
  EXPECT_DOUBLE_EQ(percentile(xs, 120), 3);
}

TEST(Stats, PercentileOfEmptyIsZero) { EXPECT_EQ(percentile({}, 50), 0.0); }

TEST(Stats, SummarizeFillsEveryField) {
  std::vector<double> xs;
  for (int i = 1; i <= 100; ++i) xs.push_back(i);
  const Summary s = summarize(xs);
  EXPECT_EQ(s.count, 100u);
  EXPECT_DOUBLE_EQ(s.mean, 50.5);
  EXPECT_EQ(s.min, 1);
  EXPECT_EQ(s.max, 100);
  EXPECT_NEAR(s.p50, 50.5, 1e-9);
  EXPECT_NEAR(s.p90, 90.1, 1e-9);
  EXPECT_GT(s.cov, 0);
}

TEST(Stats, CorrelationPerfectPositive) {
  const std::vector<double> xs = {1, 2, 3, 4};
  const std::vector<double> ys = {10, 20, 30, 40};
  EXPECT_NEAR(pearson_correlation(xs, ys), 1.0, 1e-12);
}

TEST(Stats, CorrelationPerfectNegative) {
  const std::vector<double> xs = {1, 2, 3, 4};
  const std::vector<double> ys = {8, 6, 4, 2};
  EXPECT_NEAR(pearson_correlation(xs, ys), -1.0, 1e-12);
}

TEST(Stats, CorrelationOfConstantIsZero) {
  const std::vector<double> xs = {5, 5, 5};
  const std::vector<double> ys = {1, 2, 3};
  EXPECT_EQ(pearson_correlation(xs, ys), 0.0);
}

TEST(Stats, CorrelationRejectsLengthMismatch) {
  EXPECT_THROW(pearson_correlation(std::vector<double>{1.0},
                                   std::vector<double>{1.0, 2.0}),
               std::invalid_argument);
}

TEST(Stats, EmpiricalCdfIsSortedAndEndsAtOne) {
  const std::vector<double> xs = {3, 1, 2};
  const auto cdf = empirical_cdf(xs);
  ASSERT_EQ(cdf.size(), 3u);
  EXPECT_EQ(cdf[0].value, 1);
  EXPECT_EQ(cdf[2].value, 3);
  EXPECT_NEAR(cdf[0].fraction, 1.0 / 3, 1e-12);
  EXPECT_DOUBLE_EQ(cdf[2].fraction, 1.0);
}

TEST(Stats, FractionAboveCountsStrictly) {
  const std::vector<double> xs = {1, 2, 3, 4};
  EXPECT_DOUBLE_EQ(fraction_above(xs, 2), 0.5);
  EXPECT_DOUBLE_EQ(fraction_above(xs, 0), 1.0);
  EXPECT_DOUBLE_EQ(fraction_above(xs, 4), 0.0);
  EXPECT_DOUBLE_EQ(fraction_above({}, 1), 0.0);
}

TEST(Histogram2D, BinsAndCounts) {
  Histogram2D h(2, 2);
  h.add(0.1, 0.1);
  h.add(0.9, 0.1);
  h.add(0.9, 0.9);
  h.add(0.9, 0.9);
  EXPECT_EQ(h.count(0, 0), 1u);
  EXPECT_EQ(h.count(1, 0), 1u);
  EXPECT_EQ(h.count(1, 1), 2u);
  EXPECT_EQ(h.count(0, 1), 0u);
  EXPECT_EQ(h.total(), 4u);
}

TEST(Histogram2D, ClampsOutOfRangeInput) {
  Histogram2D h(4, 4);
  h.add(-1.0, 2.0);
  EXPECT_EQ(h.count(0, 3), 1u);
  h.add(1.0, 1.0);  // exactly 1.0 lands in the last bin
  EXPECT_EQ(h.count(3, 3), 1u);
}

TEST(Histogram2D, CsvListsOnlyNonEmptyCells) {
  Histogram2D h(3, 3);
  h.add(0.5, 0.5);
  const std::string csv = h.to_csv();
  EXPECT_NE(csv.find("bin_x,bin_y,count"), std::string::npos);
  EXPECT_NE(csv.find("1,1,1"), std::string::npos);
  // header + 1 row + trailing newline
  EXPECT_EQ(std::count(csv.begin(), csv.end(), '\n'), 2);
}

TEST(Histogram2D, RejectsZeroBins) {
  EXPECT_THROW(Histogram2D(0, 3), std::invalid_argument);
  EXPECT_THROW(Histogram2D(3, 0), std::invalid_argument);
}

// Property sweep: percentile is monotone in p for random-ish data.
class PercentileMonotoneTest : public ::testing::TestWithParam<int> {};

TEST_P(PercentileMonotoneTest, MonotoneInP) {
  std::vector<double> xs;
  unsigned long long h = static_cast<unsigned long long>(GetParam());
  for (int i = 0; i < 50; ++i) {
    h = h * 6364136223846793005ull + 1442695040888963407ull;
    xs.push_back(static_cast<double>(h % 1000));
  }
  double prev = percentile(xs, 0);
  for (double p = 5; p <= 100; p += 5) {
    const double cur = percentile(xs, p);
    EXPECT_GE(cur, prev);
    prev = cur;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PercentileMonotoneTest,
                         ::testing::Values(1, 2, 3, 4, 5));

}  // namespace
}  // namespace tetris
