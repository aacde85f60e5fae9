// Machine profiles for the clusters the paper evaluates on (§5.1).
#pragma once

#include "util/resources.h"
#include "util/units.h"

namespace tetris::workload {

// The Facebook cluster machine the trace-driven simulator mimics:
// 16 cores, 32 GB, four disks at ~50 MB/s each, 1 Gbps NIC.
inline Resources facebook_machine() {
  return Resources::full(16, 32 * kGB, 4 * 50 * kMB, 4 * 50 * kMB, 1 * kGbps,
                         1 * kGbps);
}

// The 250-server deployment cluster: beefier nodes, 10 Gbps NICs, four
// 2 TB drives.
inline Resources deployment_machine() {
  return Resources::full(16, 64 * kGB, 4 * 120 * kMB, 4 * 120 * kMB,
                         10 * kGbps, 10 * kGbps);
}

}  // namespace tetris::workload
