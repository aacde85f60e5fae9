// Fixed-dimension resource vectors for multi-resource scheduling.
//
// The paper (Tables 4 and 5) schedules along six resource dimensions:
// CPU cores, memory, disk read/write bandwidth and network in/out
// bandwidth. `Resources` is a small value type holding one quantity per
// dimension with the vector arithmetic the packing heuristics need
// (component-wise ops, dominance tests, dot products, norms).
#pragma once

#include <array>
#include <cstddef>
#include <iosfwd>
#include <string>
#include <string_view>

namespace tetris {

// The resource dimensions, in a fixed order used by every vector below.
enum class Resource : int {
  kCpu = 0,      // cores
  kMem = 1,      // bytes (we use GB in configs for readability)
  kDiskRead = 2, // bytes/sec
  kDiskWrite = 3,
  kNetIn = 4,    // bytes/sec, last-hop link into the machine
  kNetOut = 5,   // bytes/sec, last-hop link out of the machine
};

inline constexpr std::size_t kNumResources = 6;

// Short lowercase name for a dimension ("cpu", "mem", ...).
std::string_view resource_name(Resource r);

// All dimensions, for range-for loops.
constexpr std::array<Resource, kNumResources> all_resources() {
  return {Resource::kCpu,      Resource::kMem,    Resource::kDiskRead,
          Resource::kDiskWrite, Resource::kNetIn, Resource::kNetOut};
}

// A point in the d=6 resource space. Used for machine capacities, machine
// availabilities, task peak demands and allocations alike.
class Resources {
 public:
  constexpr Resources() : v_{} {}
  constexpr explicit Resources(const std::array<double, kNumResources>& v)
      : v_(v) {}

  // Named constructor covering the common "cpu/mem/disk/net" shorthand where
  // disk read == write and net in == out.
  static constexpr Resources of(double cpu, double mem, double disk,
                                double net) {
    return Resources({cpu, mem, disk, disk, net, net});
  }
  static constexpr Resources full(double cpu, double mem, double disk_r,
                                  double disk_w, double net_in,
                                  double net_out) {
    return Resources({cpu, mem, disk_r, disk_w, net_in, net_out});
  }
  // A vector with the same value in every dimension.
  static constexpr Resources uniform(double x) {
    return Resources({x, x, x, x, x, x});
  }

  constexpr double operator[](Resource r) const {
    return v_[static_cast<std::size_t>(r)];
  }
  constexpr double& operator[](Resource r) {
    return v_[static_cast<std::size_t>(r)];
  }
  constexpr double at(std::size_t i) const { return v_[i]; }
  constexpr double& at(std::size_t i) { return v_[i]; }

  double cpu() const { return v_[0]; }
  double mem() const { return v_[1]; }
  double disk_read() const { return v_[2]; }
  double disk_write() const { return v_[3]; }
  double net_in() const { return v_[4]; }
  double net_out() const { return v_[5]; }

  Resources& operator+=(const Resources& o);
  Resources& operator-=(const Resources& o);
  Resources& operator*=(double s);
  Resources& operator/=(double s);

  friend Resources operator+(Resources a, const Resources& b) {
    return a += b;
  }
  friend Resources operator-(Resources a, const Resources& b) {
    return a -= b;
  }
  friend Resources operator*(Resources a, double s) { return a *= s; }
  friend Resources operator*(double s, Resources a) { return a *= s; }
  friend Resources operator/(Resources a, double s) { return a /= s; }
  friend bool operator==(const Resources& a, const Resources& b) {
    return a.v_ == b.v_;
  }

  // True iff every component of this vector fits within `capacity`,
  // tolerating tiny floating-point slack. This is the paper's
  // "peak usage of each resource can be accommodated" test; using it as the
  // admission gate is what makes over-allocation impossible under Tetris.
  bool fits_within(const Resources& capacity, double eps = 1e-9) const;

  // Component-wise division: this[i] / denom[i]. Dimensions where denom is
  // zero yield zero (a machine with no capacity for a resource contributes
  // nothing to a normalized score). Used to normalize demands and
  // availabilities by machine capacity before computing alignment.
  Resources normalized_by(const Resources& denom) const;

  // Component-wise min / max.
  Resources cwise_min(const Resources& o) const;
  Resources cwise_max(const Resources& o) const;
  // Component-wise clamp to [0, hi].
  Resources clamped_to(const Resources& hi) const;
  // Component-wise max(0, x): negatives arise transiently from accounting
  // and must never reach scoring code.
  Resources max_zero() const;

  double dot(const Resources& o) const;
  // Sum of all components; with normalized vectors this is the paper's
  // "resource consumption of a task ... sum across all the (normalized)
  // resource dimensions".
  double sum() const;
  double max_component() const;

  bool is_zero(double eps = 1e-12) const;

  std::string to_string() const;

 private:
  std::array<double, kNumResources> v_;
};

std::ostream& operator<<(std::ostream& os, const Resources& r);

}  // namespace tetris
