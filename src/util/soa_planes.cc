#include "util/soa_planes.h"

#include <algorithm>
#include <cmath>

namespace tetris::util {

void ResourcePlanes::reset(std::size_t lanes) {
  lanes_ = lanes;
  data_.assign(kNumResources * lanes, 0.0);
}

void ResourcePlanes::set(std::size_t lane, const Resources& v) {
  for (std::size_t r = 0; r < kNumResources; ++r)
    mutable_plane(r)[lane] = v.at(r);
}

Resources ResourcePlanes::gather(std::size_t lane) const {
  Resources out;
  for (std::size_t r = 0; r < kNumResources; ++r) out.at(r) = plane(r)[lane];
  return out;
}

void ResourcePlanes::sub_max_zero(std::size_t lane, const Resources& d) {
  for (std::size_t r = 0; r < kNumResources; ++r) {
    double* p = mutable_plane(r) + lane;
    *p = std::max(0.0, *p - d.at(r));
  }
}

void ResourcePlanes::add_cwise_min(std::size_t lane, const Resources& d,
                                   const Resources& cap) {
  for (std::size_t r = 0; r < kNumResources; ++r) {
    double* p = mutable_plane(r) + lane;
    *p = std::min(*p + d.at(r), cap.at(r));
  }
}

ResourcePlanes ResourcePlanes::rebuilt_from(const std::vector<Resources>& v) {
  ResourcePlanes out(v.size());
  for (std::size_t i = 0; i < v.size(); ++i) out.set(i, v[i]);
  return out;
}

bool ResourcePlanes::identical_to(const ResourcePlanes& o) const {
  return lanes_ == o.lanes_ && data_ == o.data_;
}

}  // namespace tetris::util
