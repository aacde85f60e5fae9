// Exporters for trace::TraceLog event streams (DESIGN.md §10): a Chrome
// trace_event JSON document loadable in Perfetto (ui.perfetto.dev) or
// chrome://tracing, and a flat CSV for pandas/gnuplot.
#pragma once

#include <string>

#include "trace/event.h"

namespace tetris::analysis {

// Chrome trace_event JSON ("JSON Object Format"):
//  - each machine is a process; a task attempt is a complete ("X") slice
//    on its host machine's track from start to finish/kill, grouped by
//    job id (tid);
//  - placements, machine down/up edges and job arrivals are instant
//    events carrying their decision fields (tier, fairness cut,
//    alignment, eps*p_hat) as args;
//  - scheduling passes live on a dedicated "scheduler" process, with
//    measured wall-clock latencies as args;
//  - tracker usage reports become counter ("C") tracks per node.
// Timestamps are simulation seconds scaled to microseconds.
std::string chrome_trace_json(const trace::TraceLog& log);

// One row per event: seq, kind, time, a..f, x..w, timing_nanos.
std::string trace_events_csv(const trace::TraceLog& log);

// Convenience file writers; return false on I/O failure.
bool write_chrome_trace(const std::string& path, const trace::TraceLog& log);
bool write_trace_csv(const std::string& path, const trace::TraceLog& log);

}  // namespace tetris::analysis
