#include "trace/replayer.h"

#include <algorithm>
#include <sstream>
#include <utility>

namespace tetris::trace {

bool is_decision_event(EventKind kind) {
  switch (kind) {
    case EventKind::kGroupScan:
      return false;
    case EventKind::kRunBegin:
      // Run *metadata*, not a decision: its naive-mode field differs
      // between configurations whose schedules must still compare
      // identical under kDecisions.
      return false;
    default:
      return true;
  }
}

std::vector<Event> filtered_events(const TraceLog& log, CompareMode mode) {
  std::vector<Event> out;
  out.reserve(log.events.size());
  for (const Event& ev : log.events) {
    if (mode == CompareMode::kFull || is_decision_event(ev.kind)) {
      out.push_back(ev);
    }
  }
  return out;
}

Divergence first_divergence(const TraceLog& lhs, const TraceLog& rhs,
                            CompareMode mode) {
  const std::vector<Event> a = filtered_events(lhs, mode);
  const std::vector<Event> b = filtered_events(rhs, mode);
  Divergence div;
  const std::size_t common = std::min(a.size(), b.size());
  for (std::size_t i = 0; i < common; ++i) {
    if (!semantic_equal(a[i], b[i])) {
      div.identical = false;
      div.index = i;
      std::ostringstream out;
      out << "event " << i << " differs:\n  lhs: " << describe(a[i])
          << "\n  rhs: " << describe(b[i]);
      div.description = out.str();
      return div;
    }
  }
  if (a.size() != b.size()) {
    div.identical = false;
    div.index = common;
    std::ostringstream out;
    out << "stream lengths differ: lhs has " << a.size() << ", rhs has "
        << b.size() << " events; first extra: "
        << describe(a.size() > b.size() ? a[common] : b[common]);
    div.description = out.str();
  }
  return div;
}

Replayer::Replayer(TraceLog recorded) : recorded_(std::move(recorded)) {}

ReplayReport Replayer::replay(const std::function<TraceLog()>& rerun,
                              CompareMode mode) const {
  ReplayReport report;
  const TraceLog fresh = rerun();
  report.divergence = first_divergence(recorded_, fresh, mode);
  report.events_compared =
      std::min(filtered_events(recorded_, mode).size(),
               filtered_events(fresh, mode).size());
  report.ok = report.divergence.identical;
  std::ostringstream out;
  if (report.ok) {
    out << "replay ok: " << report.events_compared
        << " events reproduced for scheduler '" << recorded_.scheduler
        << "' seed " << recorded_.seed;
  } else {
    out << "replay DIVERGED at event " << report.divergence.index << ": "
        << report.divergence.description;
  }
  report.message = out.str();
  return report;
}

}  // namespace tetris::trace
