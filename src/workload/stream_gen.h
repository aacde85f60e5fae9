// Synthetic job stream for the streaming engine (DESIGN.md §11): a
// deterministic arrival process whose jobs are generated on demand, one
// at a time, so traces of tens of millions of tasks can be simulated —
// or written to a binary trace file — without ever materializing the
// workload. Job `i` is a pure function of (config, i): the source can be
// rewound, sampled, or generated in pieces and always yields the same
// stream.
//
// The shape follows the suite generators in spirit (map/reduce jobs,
// heterogeneous multi-resource demands, DFS-replicated inputs) but keeps
// per-job variation mild and arrivals evenly spaced, so a fixed cluster
// sustains a steady in-flight window — the property the bounded-memory
// soak tests and throughput benches need.
#pragma once

#include <cstdint>

#include "sim/job_source.h"
#include "sim/spec.h"
#include "util/units.h"

namespace tetris::workload {

struct StreamGenConfig {
  long num_jobs = 1000;
  // Mean map-stage width; actual widths jitter in [0.6, 1.4] of this and
  // every job adds a reduce stage of about a quarter the width.
  int tasks_per_job = 100;
  int num_machines = 20;
  // Seconds between consecutive job arrivals. Pick it above
  // (tasks per job) x task_seconds / (cluster cores) to keep the cluster
  // draining as fast as jobs arrive (flat resident window).
  double arrival_spacing = 4.0;
  // Natural task duration scale, seconds.
  double task_seconds = 8.0;
  int dfs_replication = 3;
  std::uint64_t seed = 42;
};

// The number of tasks job `index` will carry, without building it; the
// same draw make_stream_job() uses, so the two always agree.
long stream_job_tasks(const StreamGenConfig& config, long index);

// Total task count of the whole stream (sums stream_job_tasks; O(jobs)).
long stream_total_tasks(const StreamGenConfig& config);

// Builds job `index` of the stream. Deterministic in (config, index).
sim::JobSpec make_stream_job(const StreamGenConfig& config, long index);

// JobSource over the generator: what simulate_stream() consumes and what
// tools/make_stream_trace serializes.
class SyntheticJobSource final : public sim::JobSource {
 public:
  explicit SyntheticJobSource(const StreamGenConfig& config)
      : config_(config) {}

  long total_jobs() const override { return config_.num_jobs; }
  // The admission gate peeks about once per simulated event, so the
  // head's task count is computed once per job, not once per peek.
  bool peek(sim::JobPeek& out) override;
  bool next(sim::JobSpec& out) override;
  void reset() { next_ = 0; }

 private:
  StreamGenConfig config_;
  long next_ = 0;
  // stream_job_tasks(config_, peeked_) — a pure function of the index,
  // so the cache stays valid across reset(); -1 = nothing cached.
  long peeked_ = -1;
  long peeked_tasks_ = 0;
};

// The whole stream as an in-memory workload — the batch-mode oracle for
// equivalence tests. Only sensible at small num_jobs.
sim::Workload materialize_stream(const StreamGenConfig& config);

}  // namespace tetris::workload
