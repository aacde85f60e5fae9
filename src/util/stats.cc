#include "util/stats.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <sstream>
#include <stdexcept>

namespace tetris {

double mean(std::span<const double> xs) {
  if (xs.empty()) return 0;
  return std::accumulate(xs.begin(), xs.end(), 0.0) /
         static_cast<double>(xs.size());
}

double stdev(std::span<const double> xs) {
  if (xs.size() < 2) return 0;
  const double m = mean(xs);
  double s = 0;
  for (double x : xs) s += (x - m) * (x - m);
  return std::sqrt(s / static_cast<double>(xs.size() - 1));
}

double percentile(std::span<const double> xs, double p) {
  if (xs.empty()) return 0;
  std::vector<double> sorted(xs.begin(), xs.end());
  std::sort(sorted.begin(), sorted.end());
  const double rank =
      std::clamp(p, 0.0, 100.0) / 100.0 * static_cast<double>(sorted.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return sorted[lo] * (1.0 - frac) + sorted[hi] * frac;
}

Summary summarize(std::span<const double> xs) {
  Summary s;
  s.count = xs.size();
  if (xs.empty()) return s;
  s.mean = mean(xs);
  s.stdev = stdev(xs);
  s.min = *std::min_element(xs.begin(), xs.end());
  s.max = *std::max_element(xs.begin(), xs.end());
  s.p25 = percentile(xs, 25);
  s.p50 = percentile(xs, 50);
  s.p75 = percentile(xs, 75);
  s.p90 = percentile(xs, 90);
  s.p99 = percentile(xs, 99);
  s.cov = s.mean != 0 ? s.stdev / s.mean : 0.0;
  return s;
}

double pearson_correlation(std::span<const double> xs,
                           std::span<const double> ys) {
  if (xs.size() != ys.size())
    throw std::invalid_argument("correlation inputs differ in length");
  if (xs.size() < 2) return 0;
  const double mx = mean(xs);
  const double my = mean(ys);
  double sxy = 0, sxx = 0, syy = 0;
  for (std::size_t i = 0; i < xs.size(); ++i) {
    const double dx = xs[i] - mx;
    const double dy = ys[i] - my;
    sxy += dx * dy;
    sxx += dx * dx;
    syy += dy * dy;
  }
  if (sxx == 0 || syy == 0) return 0;
  return sxy / std::sqrt(sxx * syy);
}

std::vector<CdfPoint> empirical_cdf(std::span<const double> xs) {
  std::vector<double> sorted(xs.begin(), xs.end());
  std::sort(sorted.begin(), sorted.end());
  std::vector<CdfPoint> cdf;
  cdf.reserve(sorted.size());
  for (std::size_t i = 0; i < sorted.size(); ++i) {
    cdf.push_back({sorted[i], static_cast<double>(i + 1) /
                                  static_cast<double>(sorted.size())});
  }
  return cdf;
}

double fraction_above(std::span<const double> xs, double threshold) {
  if (xs.empty()) return 0;
  const auto n = std::count_if(xs.begin(), xs.end(),
                               [threshold](double x) { return x > threshold; });
  return static_cast<double>(n) / static_cast<double>(xs.size());
}

Histogram2D::Histogram2D(std::size_t bins_x, std::size_t bins_y)
    : bins_x_(bins_x), bins_y_(bins_y), cells_(bins_x * bins_y, 0) {
  if (bins_x == 0 || bins_y == 0)
    throw std::invalid_argument("histogram needs at least one bin per axis");
}

void Histogram2D::add(double x, double y) {
  const auto bin = [](double v, std::size_t bins) {
    const double c = std::clamp(v, 0.0, 1.0);
    return std::min(static_cast<std::size_t>(c * static_cast<double>(bins)),
                    bins - 1);
  };
  cells_[bin(x, bins_x_) * bins_y_ + bin(y, bins_y_)]++;
  total_++;
}

std::size_t Histogram2D::count(std::size_t bx, std::size_t by) const {
  return cells_.at(bx * bins_y_ + by);
}

std::string Histogram2D::to_csv() const {
  std::ostringstream os;
  os << "bin_x,bin_y,count\n";
  for (std::size_t x = 0; x < bins_x_; ++x) {
    for (std::size_t y = 0; y < bins_y_; ++y) {
      if (const auto c = cells_[x * bins_y_ + y]; c > 0) {
        os << x << "," << y << "," << c << "\n";
      }
    }
  }
  return os.str();
}

}  // namespace tetris
