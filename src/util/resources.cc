#include "util/resources.h"

#include <algorithm>
#include <cmath>
#include <ostream>
#include <sstream>

namespace tetris {

std::string_view resource_name(Resource r) {
  switch (r) {
    case Resource::kCpu:
      return "cpu";
    case Resource::kMem:
      return "mem";
    case Resource::kDiskRead:
      return "disk_r";
    case Resource::kDiskWrite:
      return "disk_w";
    case Resource::kNetIn:
      return "net_in";
    case Resource::kNetOut:
      return "net_out";
  }
  return "?";
}

Resources& Resources::operator+=(const Resources& o) {
  for (std::size_t i = 0; i < kNumResources; ++i) v_[i] += o.v_[i];
  return *this;
}

Resources& Resources::operator-=(const Resources& o) {
  for (std::size_t i = 0; i < kNumResources; ++i) v_[i] -= o.v_[i];
  return *this;
}

Resources& Resources::operator*=(double s) {
  for (double& x : v_) x *= s;
  return *this;
}

Resources& Resources::operator/=(double s) {
  for (double& x : v_) x /= s;
  return *this;
}

bool Resources::fits_within(const Resources& capacity, double eps) const {
  for (std::size_t i = 0; i < kNumResources; ++i) {
    // Scale the slack with the magnitude so large bandwidth numbers do not
    // fail the test on representation noise.
    const double slack = eps * std::max(1.0, std::abs(capacity.v_[i]));
    if (v_[i] > capacity.v_[i] + slack) return false;
  }
  return true;
}

Resources Resources::normalized_by(const Resources& denom) const {
  Resources out;
  for (std::size_t i = 0; i < kNumResources; ++i) {
    out.v_[i] = denom.v_[i] > 0 ? v_[i] / denom.v_[i] : 0.0;
  }
  return out;
}

Resources Resources::cwise_min(const Resources& o) const {
  Resources out;
  for (std::size_t i = 0; i < kNumResources; ++i)
    out.v_[i] = std::min(v_[i], o.v_[i]);
  return out;
}

Resources Resources::cwise_max(const Resources& o) const {
  Resources out;
  for (std::size_t i = 0; i < kNumResources; ++i)
    out.v_[i] = std::max(v_[i], o.v_[i]);
  return out;
}

Resources Resources::clamped_to(const Resources& hi) const {
  Resources out;
  for (std::size_t i = 0; i < kNumResources; ++i)
    out.v_[i] = std::clamp(v_[i], 0.0, hi.v_[i]);
  return out;
}

Resources Resources::max_zero() const {
  Resources out;
  for (std::size_t i = 0; i < kNumResources; ++i)
    out.v_[i] = std::max(0.0, v_[i]);
  return out;
}

double Resources::dot(const Resources& o) const {
  double s = 0;
  for (std::size_t i = 0; i < kNumResources; ++i) s += v_[i] * o.v_[i];
  return s;
}

double Resources::sum() const {
  double s = 0;
  for (double x : v_) s += x;
  return s;
}

double Resources::max_component() const {
  return *std::max_element(v_.begin(), v_.end());
}

bool Resources::is_zero(double eps) const {
  return std::all_of(v_.begin(), v_.end(),
                     [eps](double x) { return std::abs(x) <= eps; });
}

std::string Resources::to_string() const {
  std::ostringstream os;
  os << *this;
  return os.str();
}

std::ostream& operator<<(std::ostream& os, const Resources& r) {
  os << "{";
  bool first = true;
  for (Resource d : all_resources()) {
    if (!first) os << ", ";
    first = false;
    os << resource_name(d) << "=" << r[d];
  }
  return os << "}";
}

}  // namespace tetris
