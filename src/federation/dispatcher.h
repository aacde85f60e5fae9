// The federated dispatcher (DESIGN.md §14): a thin, stateless-per-job
// admission layer that sends each arriving job to exactly one cell. It
// sees only deterministic cell load snapshots (sim::EngineLoad) and the
// job's locality/feasibility signals, so for a fixed seed every policy is
// bit-reproducible.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "sim/simulator.h"
#include "util/rng.h"

namespace tetris::federation {

enum class DispatchPolicy {
  // Cycles through cells in index order, skipping infeasible/dead ones —
  // the control arm: load- and locality-blind.
  kRoundRobin,
  // Minimizes (runnable + running tasks) / up machines; ties break to the
  // lowest cell index.
  kLeastLoaded,
  // Power-of-two-choices: two distinct candidates drawn from the seeded
  // RNG, the less loaded wins (ties to the lower index).
  kPowerOfTwo,
  // Maximizes the job's input bytes resident in the cell; ties break
  // least-loaded, then lowest index. Feasibility already pins jobs whose
  // label constraints fit only one cell — every policy honours that.
  kLocalityAware,
};

// Stable short names for CSV columns ("rr", "least-loaded", "p2c",
// "locality").
std::string policy_name(DispatchPolicy policy);

class Dispatcher {
 public:
  Dispatcher(DispatchPolicy policy, std::uint64_t seed)
      : policy_(policy), rng_(seed) {}

  // Picks a cell from `candidates` (ascending cell indices: the alive,
  // feasible cells — never empty). `loads` and `locality_bytes` are
  // indexed by cell id and cover every cell; only kLocalityAware reads
  // `locality_bytes`.
  int pick(const std::vector<int>& candidates,
           const std::vector<sim::EngineLoad>& loads,
           const std::vector<double>& locality_bytes);

  DispatchPolicy policy() const { return policy_; }

 private:
  static double load_metric(const sim::EngineLoad& load);

  DispatchPolicy policy_;
  Rng rng_;
  int rr_cursor_ = 0;
};

}  // namespace tetris::federation
