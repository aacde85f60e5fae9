#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace tetris::trace {

// One record per scheduling-relevant occurrence. The schema is deliberately
// flat: a fixed kind, the simulation timestamp, six integer slots (a..f),
// four double slots (x..w) and one wall-clock slot (timing). Per-kind field
// meaning is documented next to each enumerator; unused slots stay zero and
// are elided on the wire (see wire.h). Keeping the record POD-flat lets the
// recorder encode without allocation and keeps replay comparison trivial.
enum class EventKind : std::uint8_t {
  // a=seed, b=num_machines, c=num_jobs, e=naive(0/1)
  kRunBegin = 0,
  // a=job id
  kJobArrival = 1,
  // a=pass index, b=backlog (runnable tasks at pass start)
  kPassBegin = 2,
  // 3 is retired (per-shard scan timing); never reuse it.
  // Baseline schedulers' machine scan (sched/common.cc):
  // a=job, b=stage, c=chosen machine (-1 none), d=machines scanned
  kGroupScan = 4,
  // Committed Tetris placement: a=job, b=stage, c=task index, d=machine,
  // e=tier, f=fairness cut (eligible-job count);
  // x=alignment score, y=eps*p_hat penalty term (so score = x - y)
  kPlacement = 5,
  // a=attempt uid, b=job, c=stage, d=task index, e=machine
  kTaskStart = 6,
  // a=attempt uid, b=job, c=stage, d=task index, e=machine
  kTaskFinish = 7,
  // a=attempt uid, b=job, c=stage, d=task index, e=machine,
  // f=KillReason
  kTaskKill = 8,
  // a=machine id (churn transition, recorded only on real down edges)
  kMachineDown = 9,
  // a=machine id
  kMachineUp = 10,
  // 11 is retired (per-node tracker usage report); never reuse it.
  // a=pass index, b=placements this pass; timing=pass wall-clock nanos
  kPassEnd = 12,
  // a=tasks completed, b=jobs completed; x=makespan
  kRunEnd = 13,
};

inline constexpr int kNumEventKinds = 14;

// True for the wire numbers of the kinds above: below kNumEventKinds and
// not the retired 3 or 11. Decoders reject every other kind byte.
inline constexpr bool is_known_kind(int kind) {
  return kind >= 0 && kind < kNumEventKinds && kind != 3 && kind != 11;
}

// Why a task attempt was killed (kTaskKill field f).
enum class KillReason : std::uint8_t {
  kFault = 0,           // injected task failure
  kPreempt = 1,         // scheduler preemption
  kMachineFailure = 2,  // hosting machine went down
};

struct Event {
  EventKind kind = EventKind::kRunBegin;
  double time = 0.0;  // simulation seconds
  std::int64_t a = 0, b = 0, c = 0, d = 0, e = 0, f = 0;
  double x = 0.0, y = 0.0, z = 0.0, w = 0.0;
  // Wall-clock nanoseconds. Non-semantic: two deterministic runs differ
  // here, so every comparison mode ignores this field's value.
  std::int64_t timing = 0;
};

// A drained, decoded, globally-ordered event stream plus run metadata.
struct TraceLog {
  std::string scheduler;
  std::uint64_t seed = 0;
  std::uint64_t dropped = 0;  // records lost to ring-buffer overflow
  std::vector<Event> events;
};

const char* kind_name(EventKind kind);

// True when the two events agree on every semantic field (everything
// except `timing`). Doubles are compared with ==, matching the repo's
// bit-identical determinism contract.
bool semantic_equal(const Event& lhs, const Event& rhs);

// One-line human-readable rendering, e.g.
// "placement t=12.5 job=3 stage=1 task=4 machine=7 tier=0 cut=5 align=1.25".
std::string describe(const Event& event);

}  // namespace tetris::trace

