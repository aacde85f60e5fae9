// Placement-dependent task demands (paper §3.1 Eq. 5 and §3.2
// "Incorporating task placement").
//
// CPU and memory are purely local to the host, but disk and network demands
// depend on where the task runs relative to its input: a split read locally
// costs disk-read bandwidth at the host; a split read remotely costs
// disk-read + network-out at the source machine and network-in at the host.
// Both the simulator (with true specs) and the schedulers (with estimated
// specs) derive demands through this one module, which is exactly the
// paper's observation that "given the locations and sizes of a task's
// inputs, its resource demands can be inferred for any potential placement".
#pragma once

#include <vector>

#include "sim/spec.h"
#include "util/resources.h"

namespace tetris::sim {

// A split whose source machine has been fixed for a candidate placement.
// source == kGeneratedSource means the task synthesizes this input.
inline constexpr MachineId kGeneratedSource = -1;

struct ResolvedSplit {
  double bytes = 0;
  MachineId source = kGeneratedSource;
};

// Demand rates at one remote entity involved in a task's reads: a source
// machine (disk_read + net_out) or, with rack modeling enabled, a rack
// uplink (net_out on the source rack, net_in on the destination rack).
struct RemoteLeg {
  MachineId machine;
  double disk_read = 0;  // bytes/sec
  double net_out = 0;    // bytes/sec
  double net_in = 0;     // bytes/sec (rack uplinks only)
};

// The demand vector a leg registers on its machine/uplink.
inline Resources leg_resources(const RemoteLeg& leg) {
  Resources r;
  r[Resource::kDiskRead] = leg.disk_read;
  r[Resource::kNetOut] = leg.net_out;
  r[Resource::kNetIn] = leg.net_in;
  return r;
}

// The full demand picture for one (task, host) pair.
struct PlacementDemand {
  MachineId host = -1;
  // Rates demanded at the host: cpu cores, memory, disk r/w, net in.
  Resources local;
  // Rates demanded at remote input sources, aggregated per machine.
  std::vector<RemoteLeg> remote;
  // Natural duration: the max over Eq. 5 legs at peak rates. The task
  // finishes in exactly this time when granted all its demands.
  double duration = 0;
  double local_bytes = 0;
  double remote_bytes = 0;
};

// Tasks shorter than this are clamped up; it stands in for container
// startup and bookkeeping overheads and keeps durations strictly positive.
inline constexpr double kMinTaskDuration = 0.25;

// Chooses a concrete source per split for a task placed on `host`: local if
// the host holds a replica, else a deterministic pseudo-random replica
// (hash-based, so probe and commit agree without shared state).
//
// `machine_up`, when non-null, is the churn mask indexed by MachineId:
// replicas on down machines are skipped, charging the read against the
// surviving replica set. Callers must first check inputs_available() —
// resolving a split whose replicas are all down is a logic error.
std::vector<ResolvedSplit> resolve_splits(
    const std::vector<InputSplit>& splits, MachineId host,
    unsigned long long salt, const std::vector<char>* machine_up = nullptr);

// Computes the demand rates and natural duration of `task` on `host` with
// the given resolved inputs.
PlacementDemand compute_placement(const TaskSpec& task, MachineId host,
                                  const std::vector<ResolvedSplit>& splits);

// Convenience: resolve + compute in one call.
PlacementDemand compute_placement(const TaskSpec& task, MachineId host,
                                  unsigned long long salt,
                                  const std::vector<char>* machine_up = nullptr);

// The same result written into *out, whose remote vector keeps its
// capacity: the probe path's allocation-free form of the call above.
void compute_placement_into(const TaskSpec& task, MachineId host,
                            unsigned long long salt,
                            const std::vector<char>* machine_up,
                            PlacementDemand* out);

// True when compute_placement() gives `a` and `b` bit-identical demands on
// every host, whatever their salts and the churn mask: the specs are
// bit-identical and each replicated split names a single machine, so no
// replica pick is hashed. Tasks of a shuffle stage, materialized from one
// set of upstream outputs, are typically twins.
bool placement_twins(const TaskSpec& a, const TaskSpec& b);

// True iff every replicated split still has a replica on an up machine.
// Tasks whose data is entirely offline cannot run anywhere and must wait
// for a recovery (the simulator keeps them runnable but never places
// them). Generated and not-yet-materialized shuffle splits are always
// available.
bool inputs_available(const TaskSpec& task, const std::vector<char>& machine_up);

// Fraction of input bytes that would be read locally if the task ran on
// `host`. Schedulers use this to pick the best-locality candidate within a
// stage before scoring.
double local_fraction(const TaskSpec& task, MachineId host);

// Placement-independent demand view: pretends every input byte is local.
// Used for group-level representative demands and the SRTF remaining-work
// score, where no host has been chosen yet. Works on unmaterialized
// (from_stage) splits too, since only byte counts matter.
PlacementDemand compute_local_placement(const TaskSpec& task);

}  // namespace tetris::sim
