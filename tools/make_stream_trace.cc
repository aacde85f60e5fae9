// Writes a synthetic job stream (workload/stream_gen.h) to a binary trace
// file (workload/trace_binary.h), one job at a time — generator and
// writer are both streaming, so a 10M-task trace is produced in constant
// memory. The file then feeds bench_streaming --trace=<file> or any
// BinaryTraceReader consumer.
//
// Usage: make_stream_trace <out.bin> [jobs] [machines] [seed]
// Jobs or machines that are not a whole number of at least 1, or a seed
// that is not a whole number, print the usage line and exit 2; a file
// that cannot be written exits 1.
#include <iostream>
#include <string>

#include "util/args.h"
#include "workload/stream_gen.h"
#include "workload/trace_binary.h"

using namespace tetris;

namespace {

int usage() {
  std::cerr << "usage: make_stream_trace <out.bin> [jobs] [machines] "
               "[seed]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  workload::StreamGenConfig gen;
  const auto jobs = argc > 2 ? util::parse_count(argv[2]) : gen.num_jobs;
  const auto machines =
      argc > 3 ? util::parse_count(argv[3]) : gen.num_machines;
  const auto seed = argc > 4 ? util::parse_whole(argv[4]) : gen.seed;
  if (!jobs || !machines || !seed) return usage();
  gen.num_jobs = *jobs;
  gen.num_machines = *machines;
  gen.seed = *seed;
  gen.arrival_spacing = 1300.0 / (0.65 * 16.0 * gen.num_machines);

  try {
    // make_stream_job trusts its config; the source's constructor checks
    // it, so the direct calls below check it here.
    workload::validate(gen);
    workload::BinaryTraceWriter writer(argv[1]);
    long tasks = 0;
    for (long i = 0; i < gen.num_jobs; ++i) {
      const sim::JobSpec job = workload::make_stream_job(gen, i);
      for (const auto& s : job.stages) tasks += long(s.tasks.size());
      writer.add(job);
    }
    writer.finalize();
    std::cout << "wrote " << argv[1] << ": " << writer.jobs_written()
              << " jobs, " << tasks << " tasks\n";
  } catch (const std::exception& e) {
    std::cerr << "make_stream_trace: " << e.what() << "\n";
    return 1;
  }
  return 0;
}
