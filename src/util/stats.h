// Descriptive statistics used throughout the evaluation harness: summary
// moments, percentiles, empirical CDFs, Pearson correlation (Table 2) and
// 2-D histograms (Figure 2 heatmaps).
#pragma once

#include <cstddef>
#include <span>
#include <string>
#include <vector>

namespace tetris {

struct Summary {
  std::size_t count = 0;
  double mean = 0;
  double stdev = 0;
  double min = 0;
  double max = 0;
  double p25 = 0;
  double p50 = 0;
  double p75 = 0;
  double p90 = 0;
  double p99 = 0;
  // Coefficient of variation, stdev / mean (0 when mean == 0).
  double cov = 0;
};

Summary summarize(std::span<const double> xs);

double mean(std::span<const double> xs);
double stdev(std::span<const double> xs);

// Interpolated percentile; p in [0, 100]. Empty input yields 0.
double percentile(std::span<const double> xs, double p);

// Pearson correlation coefficient; 0 when either side is constant.
double pearson_correlation(std::span<const double> xs,
                           std::span<const double> ys);

// Empirical CDF as sorted (value, cumulative fraction) points, one per
// sample, suitable for plotting the paper's CDF figures (Figs. 4, 7).
struct CdfPoint {
  double value;
  double fraction;  // P(X <= value)
};
std::vector<CdfPoint> empirical_cdf(std::span<const double> xs);

// Fraction of samples satisfying a threshold test; the building block for
// the "tightness" probabilities in Tables 3 and 6.
double fraction_above(std::span<const double> xs, double threshold);

// Fixed-bin 2-D histogram over [0,1]^2 for demand heatmaps (Figure 2).
// Inputs are clamped into range.
class Histogram2D {
 public:
  Histogram2D(std::size_t bins_x, std::size_t bins_y);

  void add(double x, double y);
  std::size_t count(std::size_t bx, std::size_t by) const;
  std::size_t bins_x() const { return bins_x_; }
  std::size_t bins_y() const { return bins_y_; }
  std::size_t total() const { return total_; }

  // CSV rows "bin_x,bin_y,count" (only non-empty cells).
  std::string to_csv() const;

 private:
  std::size_t bins_x_;
  std::size_t bins_y_;
  std::vector<std::size_t> cells_;
  std::size_t total_ = 0;
};

}  // namespace tetris
