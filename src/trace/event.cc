#include "trace/event.h"

#include <sstream>

namespace tetris::trace {

const char* kind_name(EventKind kind) {
  switch (kind) {
    case EventKind::kRunBegin: return "run_begin";
    case EventKind::kJobArrival: return "job_arrival";
    case EventKind::kPassBegin: return "pass_begin";
    case EventKind::kGroupScan: return "group_scan";
    case EventKind::kPlacement: return "placement";
    case EventKind::kTaskStart: return "task_start";
    case EventKind::kTaskFinish: return "task_finish";
    case EventKind::kTaskKill: return "task_kill";
    case EventKind::kMachineDown: return "machine_down";
    case EventKind::kMachineUp: return "machine_up";
    case EventKind::kPassEnd: return "pass_end";
    case EventKind::kRunEnd: return "run_end";
  }
  return "unknown";
}

bool semantic_equal(const Event& lhs, const Event& rhs) {
  return lhs.kind == rhs.kind && lhs.time == rhs.time && lhs.a == rhs.a &&
         lhs.b == rhs.b && lhs.c == rhs.c && lhs.d == rhs.d &&
         lhs.e == rhs.e && lhs.f == rhs.f && lhs.x == rhs.x &&
         lhs.y == rhs.y && lhs.z == rhs.z && lhs.w == rhs.w;
}

namespace {

const char* kill_reason_name(std::int64_t reason) {
  switch (static_cast<KillReason>(reason)) {
    case KillReason::kFault: return "fault";
    case KillReason::kPreempt: return "preempt";
    case KillReason::kMachineFailure: return "machine_failure";
  }
  return "unknown";
}

}  // namespace

std::string describe(const Event& ev) {
  std::ostringstream out;
  out << kind_name(ev.kind) << " t=" << ev.time;
  switch (ev.kind) {
    case EventKind::kRunBegin:
      out << " seed=" << ev.a << " machines=" << ev.b << " jobs=" << ev.c
          << " naive=" << ev.e;
      break;
    case EventKind::kJobArrival:
      out << " job=" << ev.a;
      break;
    case EventKind::kPassBegin:
      out << " pass=" << ev.a << " backlog=" << ev.b;
      break;
    case EventKind::kGroupScan:
      out << " job=" << ev.a << " stage=" << ev.b << " machine=" << ev.c
          << " scanned=" << ev.d;
      break;
    case EventKind::kPlacement:
      out << " job=" << ev.a << " stage=" << ev.b << " task=" << ev.c
          << " machine=" << ev.d << " tier=" << ev.e << " cut=" << ev.f
          << " align=" << ev.x << " eps_p=" << ev.y;
      break;
    case EventKind::kTaskStart:
    case EventKind::kTaskFinish:
    case EventKind::kTaskKill:
      out << " uid=" << ev.a << " job=" << ev.b << " stage=" << ev.c
          << " task=" << ev.d << " machine=" << ev.e;
      if (ev.kind == EventKind::kTaskKill) {
        out << " reason=" << kill_reason_name(ev.f);
      }
      break;
    case EventKind::kMachineDown:
    case EventKind::kMachineUp:
      out << " machine=" << ev.a;
      break;
    case EventKind::kPassEnd:
      out << " pass=" << ev.a << " placements=" << ev.b
          << " nanos=" << ev.timing;
      break;
    case EventKind::kRunEnd:
      out << " tasks=" << ev.a << " jobs=" << ev.b << " makespan=" << ev.x;
      break;
  }
  return out.str();
}

}  // namespace tetris::trace
