// Plain-text (de)serialization of workloads, so generated traces can be
// saved, inspected, diffed and replayed — the "trace-driven" part of the
// evaluation harness.
//
// Format (one record per line, every line ends with a newline, '#'
// comments ignored; fields are separated by blanks, and a number must
// fill its whole field):
//   job <arrival> <template_id> <queue> <name>
//   stage <name> [dep ...]
//   task <cpu_cycles> <cores> <mem> <out_bytes> <io_bw> <nsplits>
//   split <bytes> <from_stage> [replica ...]
//   end <jobs> <tasks>
// Stages belong to the most recent job, tasks to the most recent stage,
// splits to the most recent task; `nsplits` split lines follow each task.
// One `end` record closes the trace with its job and task counts, so a
// file cut short anywhere fails to parse rather than losing records or
// reading a shortened number.
#pragma once

#include <iosfwd>
#include <string>

#include "sim/spec.h"

namespace tetris::workload {

void write_trace(std::ostream& os, const sim::Workload& workload);
std::string trace_to_string(const sim::Workload& workload);

// Throws std::runtime_error with a line number on malformed input.
sim::Workload read_trace(std::istream& is);
sim::Workload trace_from_string(const std::string& text);

bool write_trace_file(const std::string& path, const sim::Workload& workload);
sim::Workload read_trace_file(const std::string& path);

}  // namespace tetris::workload
