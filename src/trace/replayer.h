#pragma once

#include <cstddef>
#include <functional>
#include <string>
#include <vector>

#include "trace/event.h"

namespace tetris::trace {

// How two logs are lined up before comparison.
//
// kFull compares every event's semantic fields (wall-clock `timing` values
// are always ignored). This is the replay contract: same config + same seed
// must reproduce the identical stream.
//
// kDecisions first filters both streams down to schedule-derived events —
// arrivals, pass begin/end, placements, task start/finish/kill, machine
// down/up, run end — dropping kGroupScan and kRunBegin (whose naive-mode
// metadata differs between configurations by construction). This is the
// cross-configuration contract: the naive oracle and the optimized scan
// must agree on every decision even though their instrumentation differs.
enum class CompareMode { kFull, kDecisions };

bool is_decision_event(EventKind kind);

std::vector<Event> filtered_events(const TraceLog& log, CompareMode mode);

struct Divergence {
  bool identical = true;
  // Index into the filtered streams where they first disagree (== the
  // shorter stream's size when one is a strict prefix of the other).
  std::size_t index = 0;
  std::string description;  // empty when identical
};

Divergence first_divergence(const TraceLog& lhs, const TraceLog& rhs,
                            CompareMode mode = CompareMode::kFull);

struct ReplayReport {
  bool ok = false;
  std::size_t events_compared = 0;
  Divergence divergence;
  std::string message;
};

// Re-executes a recorded run and asserts event-for-event equality. The
// replayer never constructs a simulation itself (that would invert the
// trace <- sim dependency); the caller supplies `rerun`, which must rebuild
// the run from the recorded seed + config and return its fresh log.
class Replayer {
 public:
  explicit Replayer(TraceLog recorded);

  const TraceLog& recorded() const { return recorded_; }

  ReplayReport replay(const std::function<TraceLog()>& rerun,
                      CompareMode mode = CompareMode::kFull) const;

 private:
  TraceLog recorded_;
};

}  // namespace tetris::trace

