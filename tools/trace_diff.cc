// trace_diff — print the first divergent event between two trace logs.
//
//   trace_diff [--decisions] <a.trace> <b.trace>
//
// With --decisions the streams are first filtered to schedule-derived
// events (the cross-configuration contract: group scans and the run
// header are instrumentation detail and may legitimately differ between
// e.g. the naive oracle and the optimized scan). Without it every event
// must match (the replay contract).
//
// Exit status: 0 identical, 1 divergent, 2 usage or I/O error.
#include <exception>
#include <iostream>
#include <string>

#include "trace/event.h"
#include "trace/io.h"
#include "trace/replayer.h"

using namespace tetris;

namespace {

int usage() {
  std::cerr << "usage: trace_diff [--decisions] <a.trace> <b.trace>\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  trace::CompareMode mode = trace::CompareMode::kFull;
  int pos = 1;
  if (pos < argc && std::string(argv[pos]) == "--decisions") {
    mode = trace::CompareMode::kDecisions;
    pos++;
  }
  if (argc - pos != 2) return usage();

  trace::TraceLog a, b;
  try {
    a = trace::read_log_file(argv[pos]);
    b = trace::read_log_file(argv[pos + 1]);
  } catch (const std::exception& e) {
    std::cerr << "trace_diff: " << e.what() << "\n";
    return 2;
  }

  const auto describe_log = [&](const char* path, const trace::TraceLog& l) {
    std::cout << path << ": " << l.events.size() << " events (scheduler '"
              << l.scheduler << "', seed " << l.seed;
    if (l.dropped > 0) std::cout << ", " << l.dropped << " dropped";
    std::cout << ")\n";
  };
  describe_log(argv[pos], a);
  describe_log(argv[pos + 1], b);

  const trace::Divergence d = trace::first_divergence(a, b, mode);
  const std::size_t compared =
      trace::filtered_events(a, mode).size();
  if (d.identical) {
    std::cout << "identical: " << compared << " events match"
              << (mode == trace::CompareMode::kDecisions
                      ? " (decision events only)"
                      : "")
              << "\n";
    return 0;
  }
  std::cout << "DIVERGED at event " << d.index << ":\n" << d.description
            << "\n";
  return 1;
}
