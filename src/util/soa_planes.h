// Structure-of-arrays storage for per-lane resource vectors (DESIGN.md
// §12). Where `std::vector<Resources>` interleaves the six dimensions of
// every machine (array-of-structs), `ResourcePlanes` keeps one contiguous
// double array *per resource dimension* — a "plane" — of exactly
// `lanes()` doubles.
//
// The mutation ops mirror the scheduler-context bookkeeping expressions
// bit for bit: `sub_max_zero` is `(lane - d).max_zero()`,
// `add_cwise_min` is `(lane + d).cwise_min(cap)` — identical per-component
// operations in identical order, so a context backed by planes produces
// exactly the availability values the array-of-structs code did.
#pragma once

#include <cstddef>
#include <vector>

#include "util/resources.h"

namespace tetris::util {

class ResourcePlanes {
 public:
  ResourcePlanes() = default;
  explicit ResourcePlanes(std::size_t lanes) { reset(lanes); }

  // Reset to `lanes` all-zero lanes.
  void reset(std::size_t lanes);

  std::size_t lanes() const { return lanes_; }

  // Contiguous plane for resource dimension `r`: `lanes()` doubles.
  const double* plane(std::size_t r) const { return data_.data() + r * lanes_; }

  // Read or write one lane as a `Resources` value.
  void set(std::size_t lane, const Resources& v);
  Resources gather(std::size_t lane) const;

  // lane = (lane - d).max_zero()  — the placement-commit expression.
  void sub_max_zero(std::size_t lane, const Resources& d);
  // lane = (lane + d).cwise_min(cap)  — the preemption-refund expression.
  void add_cwise_min(std::size_t lane, const Resources& d,
                     const Resources& cap);

  // Build planes from an array-of-structs snapshot. The coherence
  // property tests compare a mutated ResourcePlanes against
  // `rebuilt_from` of the equivalent Resources vector.
  static ResourcePlanes rebuilt_from(const std::vector<Resources>& v);

  // Exact (via ==) equality of the lane count and every lane.
  bool identical_to(const ResourcePlanes& o) const;

 private:
  double* mutable_plane(std::size_t r) { return data_.data() + r * lanes_; }

  std::size_t lanes_ = 0;
  std::vector<double> data_;  // kNumResources planes of lanes_ doubles
};

}  // namespace tetris::util
