#include "analysis/trace_export.h"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <unordered_map>

namespace tetris::analysis {

namespace {

// Process id of the synthetic "scheduler" track; machine ids are small, so
// any large constant keeps them disjoint.
constexpr std::int64_t kSchedulerPid = 1000000;

std::string num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  std::string s(buf);
  // JSON has no inf/nan literals; trace files should never contain them,
  // but emit something parseable if one sneaks in.
  if (s.find("inf") != std::string::npos ||
      s.find("nan") != std::string::npos) {
    return "null";
  }
  return s;
}

std::int64_t micros(double sim_seconds) {
  return static_cast<std::int64_t>(sim_seconds * 1e6);
}

const char* kill_label(std::int64_t reason) {
  switch (static_cast<trace::KillReason>(reason)) {
    case trace::KillReason::kFault: return "fault";
    case trace::KillReason::kPreempt: return "preempt";
    case trace::KillReason::kMachineFailure: return "machine_failure";
  }
  return "unknown";
}

struct JsonWriter {
  std::ostringstream out;
  bool first = true;

  void open() { out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":["; }
  void event(const std::string& body) {
    if (!first) out << ",";
    first = false;
    out << "\n" << body;
  }
  std::string close() {
    out << "\n]}\n";
    return out.str();
  }
};

}  // namespace

std::string chrome_trace_json(const trace::TraceLog& log) {
  JsonWriter w;
  w.open();

  // Track every start so finish/kill events can close the slice; slices
  // still open at the end of the log are closed at the last timestamp.
  struct OpenTask {
    trace::Event start;
  };
  std::unordered_map<std::int64_t, OpenTask> open_tasks;
  std::map<std::int64_t, bool> seen_machines;  // ordered for stable output
  double last_time = 0;

  const auto task_slice = [&](const trace::Event& start, double end_time,
                              const char* outcome, std::int64_t reason) {
    std::ostringstream os;
    os << "{\"ph\":\"X\",\"pid\":" << start.e << ",\"tid\":" << start.b
       << ",\"ts\":" << micros(start.time)
       << ",\"dur\":" << micros(end_time - start.time) << ",\"name\":\"job"
       << start.b << ".s" << start.c << "[" << start.d << "]\""
       << ",\"args\":{\"uid\":" << start.a << ",\"outcome\":\"" << outcome
       << "\"";
    if (reason >= 0) os << ",\"reason\":\"" << kill_label(reason) << "\"";
    os << "}}";
    w.event(os.str());
  };

  for (const trace::Event& ev : log.events) {
    last_time = std::max(last_time, ev.time);
    std::ostringstream os;
    switch (ev.kind) {
      case trace::EventKind::kRunBegin:
        os << "{\"ph\":\"i\",\"s\":\"g\",\"pid\":" << kSchedulerPid
           << ",\"tid\":0,\"ts\":" << micros(ev.time)
           << ",\"name\":\"run begin\",\"args\":{\"seed\":" << ev.a
           << ",\"machines\":" << ev.b << ",\"jobs\":" << ev.c << "}}";
        w.event(os.str());
        break;
      case trace::EventKind::kJobArrival:
        os << "{\"ph\":\"i\",\"s\":\"g\",\"pid\":" << kSchedulerPid
           << ",\"tid\":0,\"ts\":" << micros(ev.time)
           << ",\"name\":\"job " << ev.a << " arrives\",\"args\":{\"job\":"
           << ev.a << "}}";
        w.event(os.str());
        break;
      case trace::EventKind::kPassBegin:
        os << "{\"ph\":\"i\",\"s\":\"t\",\"pid\":" << kSchedulerPid
           << ",\"tid\":0,\"ts\":" << micros(ev.time)
           << ",\"name\":\"pass " << ev.a << " begin\",\"args\":{\"pass\":"
           << ev.a << ",\"backlog\":" << ev.b << "}}";
        w.event(os.str());
        break;
      case trace::EventKind::kPassEnd:
        os << "{\"ph\":\"i\",\"s\":\"t\",\"pid\":" << kSchedulerPid
           << ",\"tid\":0,\"ts\":" << micros(ev.time)
           << ",\"name\":\"pass " << ev.a << " end\",\"args\":{\"pass\":"
           << ev.a << ",\"placements\":" << ev.b << ",\"latency_ms\":"
           << num(static_cast<double>(ev.timing) * 1e-6) << "}}";
        w.event(os.str());
        break;
      case trace::EventKind::kGroupScan:
        os << "{\"ph\":\"i\",\"s\":\"t\",\"pid\":" << kSchedulerPid
           << ",\"tid\":0,\"ts\":" << micros(ev.time)
           << ",\"name\":\"scan job" << ev.a << ".s" << ev.b
           << "\",\"args\":{\"chosen_machine\":" << ev.c << ",\"scanned\":"
           << ev.d << ",\"local_fraction\":" << num(ev.x) << "}}";
        w.event(os.str());
        break;
      case trace::EventKind::kPlacement:
        seen_machines[ev.d] = true;
        os << "{\"ph\":\"i\",\"s\":\"p\",\"pid\":" << ev.d << ",\"tid\":"
           << ev.a << ",\"ts\":" << micros(ev.time)
           << ",\"name\":\"place job" << ev.a << ".s" << ev.b
           << "\",\"args\":{\"task\":" << ev.c << ",\"tier\":" << ev.e
           << ",\"fairness_cut\":" << ev.f << ",\"alignment\":" << num(ev.x)
           << ",\"eps_p\":" << num(ev.y) << "}}";
        w.event(os.str());
        break;
      case trace::EventKind::kTaskStart:
        seen_machines[ev.e] = true;
        open_tasks[ev.a] = OpenTask{ev};
        break;
      case trace::EventKind::kTaskFinish:
      case trace::EventKind::kTaskKill: {
        const auto it = open_tasks.find(ev.a);
        if (it != open_tasks.end()) {
          const bool killed = ev.kind == trace::EventKind::kTaskKill;
          task_slice(it->second.start, ev.time,
                     killed ? "killed" : "finished", killed ? ev.f : -1);
          open_tasks.erase(it);
        }
        break;
      }
      case trace::EventKind::kMachineDown:
      case trace::EventKind::kMachineUp:
        seen_machines[ev.a] = true;
        os << "{\"ph\":\"i\",\"s\":\"p\",\"pid\":" << ev.a
           << ",\"tid\":0,\"ts\":" << micros(ev.time) << ",\"name\":\""
           << (ev.kind == trace::EventKind::kMachineDown ? "machine down"
                                                         : "machine up")
           << "\",\"args\":{\"machine\":" << ev.a << "}}";
        w.event(os.str());
        break;
      case trace::EventKind::kRunEnd:
        os << "{\"ph\":\"i\",\"s\":\"g\",\"pid\":" << kSchedulerPid
           << ",\"tid\":0,\"ts\":" << micros(ev.time)
           << ",\"name\":\"run end\",\"args\":{\"tasks\":" << ev.a
           << ",\"jobs\":" << ev.b << ",\"makespan\":" << num(ev.x) << "}}";
        w.event(os.str());
        break;
    }
  }

  // Close any slice that never saw its finish (still running at log end,
  // or the finish fell off the ring buffer).
  for (const auto& [uid, open] : open_tasks) {
    task_slice(open.start, std::max(last_time, open.start.time),
               "unclosed", -1);
  }

  // Name the processes so the viewer shows "machine N" / "scheduler"
  // instead of bare pids.
  {
    std::ostringstream os;
    os << "{\"ph\":\"M\",\"pid\":" << kSchedulerPid
       << ",\"name\":\"process_name\",\"args\":{\"name\":\"scheduler ("
       << log.scheduler << ", seed " << log.seed << ")\"}}";
    w.event(os.str());
  }
  for (const auto& [m, _] : seen_machines) {
    std::ostringstream os;
    os << "{\"ph\":\"M\",\"pid\":" << m
       << ",\"name\":\"process_name\",\"args\":{\"name\":\"machine " << m
       << "\"}}";
    w.event(os.str());
  }
  return w.close();
}

std::string trace_events_csv(const trace::TraceLog& log) {
  std::ostringstream os;
  os << "seq,kind,time,a,b,c,d,e,f,x,y,z,w,timing_nanos\n";
  for (std::size_t i = 0; i < log.events.size(); ++i) {
    const trace::Event& ev = log.events[i];
    os << i << "," << trace::kind_name(ev.kind) << "," << num(ev.time)
       << "," << ev.a << "," << ev.b << "," << ev.c << "," << ev.d << ","
       << ev.e << "," << ev.f << "," << num(ev.x) << "," << num(ev.y)
       << "," << num(ev.z) << "," << num(ev.w) << "," << ev.timing << "\n";
  }
  return os.str();
}

namespace {

bool write_file(const std::string& path, const std::string& content) {
  std::ofstream out(path, std::ios::trunc);
  if (!out) return false;
  out << content;
  return static_cast<bool>(out);
}

}  // namespace

bool write_chrome_trace(const std::string& path,
                        const trace::TraceLog& log) {
  return write_file(path, chrome_trace_json(log));
}

bool write_trace_csv(const std::string& path, const trace::TraceLog& log) {
  return write_file(path, trace_events_csv(log));
}

}  // namespace tetris::analysis
