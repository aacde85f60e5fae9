#include "workload/stream_gen.h"

#include <algorithm>
#include <cmath>
#include <string>

#include "util/rng.h"

namespace tetris::workload {

namespace {

// Independent per-job RNG streams: job i's draws never depend on whether
// jobs before it were generated (the source must be rewindable and
// sliceable). The salt separates the shape draw (consulted by peek)
// from the body draws.
Rng job_rng(const StreamGenConfig& config, long index, std::uint64_t salt) {
  const std::uint64_t mix =
      (static_cast<std::uint64_t>(index) + 1) * 0x9e3779b97f4a7c15ull;
  return Rng(config.seed ^ mix ^ salt);
}

struct JobShape {
  int map_tasks = 1;
  int reduce_tasks = 1;
};

JobShape job_shape(const StreamGenConfig& config, long index) {
  Rng rng = job_rng(config, index, /*salt=*/0x5353);
  JobShape shape;
  const double scale = rng.uniform(0.6, 1.4);
  shape.map_tasks = std::max(
      1, static_cast<int>(std::lround(config.tasks_per_job * scale)));
  shape.reduce_tasks = std::max(1, shape.map_tasks / 4);
  return shape;
}

}  // namespace

long stream_job_tasks(const StreamGenConfig& config, long index) {
  const JobShape shape = job_shape(config, index);
  return static_cast<long>(shape.map_tasks) + shape.reduce_tasks;
}

long stream_total_tasks(const StreamGenConfig& config) {
  long total = 0;
  for (long i = 0; i < config.num_jobs; ++i)
    total += stream_job_tasks(config, i);
  return total;
}

sim::JobSpec make_stream_job(const StreamGenConfig& config, long index) {
  const JobShape shape = job_shape(config, index);
  Rng rng = job_rng(config, index, /*salt=*/0xb0d1);

  sim::JobSpec job;
  job.name = "stream-" + std::to_string(index);
  job.arrival = static_cast<double>(index) * config.arrival_spacing;
  job.queue = 0;
  job.template_id = -1;

  // Stage-mean demands, heterogeneous across jobs so packing matters but
  // with bounded spread so the cluster's drain rate stays predictable.
  const double cores = rng.uniform(0.5, 2.0);
  const double mem = rng.uniform(0.5, 3.0) * kGB;
  const double io_bw = rng.uniform(20, 80) * kMB;
  const double input_bytes = rng.uniform(0.3, 1.5) * 64 * kMB;
  const double duration = config.task_seconds * rng.uniform(0.5, 1.5);

  sim::StageSpec map;
  map.name = "map";
  map.tasks.reserve(static_cast<std::size_t>(shape.map_tasks));
  for (int t = 0; t < shape.map_tasks; ++t) {
    sim::TaskSpec task;
    task.peak_cores = cores;
    task.peak_mem = mem;
    task.max_io_bw = io_bw;
    task.cpu_cycles = cores * duration;
    sim::InputSplit split;
    split.bytes = input_bytes;
    const int first = static_cast<int>(
        rng.uniform_int(0, config.num_machines - 1));
    for (int r = 0; r < config.dfs_replication; ++r) {
      split.replicas.push_back(
          static_cast<sim::MachineId>((first + r * 7) % config.num_machines));
    }
    task.inputs.push_back(std::move(split));
    task.output_bytes = input_bytes * 0.25;
    map.tasks.push_back(std::move(task));
  }
  job.stages.push_back(std::move(map));

  sim::StageSpec reduce;
  reduce.name = "reduce";
  reduce.deps = {0};
  reduce.tasks.reserve(static_cast<std::size_t>(shape.reduce_tasks));
  const double shuffle_bytes = input_bytes * 0.25 *
                               static_cast<double>(shape.map_tasks) /
                               static_cast<double>(shape.reduce_tasks);
  for (int t = 0; t < shape.reduce_tasks; ++t) {
    sim::TaskSpec task;
    task.peak_cores = cores;
    task.peak_mem = mem;
    task.max_io_bw = io_bw;
    task.cpu_cycles = cores * duration * 0.5;
    sim::InputSplit split;
    split.bytes = shuffle_bytes;
    split.from_stage = 0;
    task.inputs.push_back(std::move(split));
    task.output_bytes = shuffle_bytes * 0.1;
    reduce.tasks.push_back(std::move(task));
  }
  job.stages.push_back(std::move(reduce));
  return job;
}

bool SyntheticJobSource::peek(sim::JobPeek& out) {
  if (next_ >= config_.num_jobs) return false;
  if (peeked_ != next_) {
    peeked_tasks_ = stream_job_tasks(config_, next_);
    peeked_ = next_;
  }
  out.arrival = static_cast<double>(next_) * config_.arrival_spacing;
  out.tasks = peeked_tasks_;
  return true;
}

bool SyntheticJobSource::next(sim::JobSpec& out) {
  if (next_ >= config_.num_jobs) return false;
  out = make_stream_job(config_, next_++);
  return true;
}

sim::Workload materialize_stream(const StreamGenConfig& config) {
  sim::Workload workload;
  workload.jobs.reserve(static_cast<std::size_t>(config.num_jobs));
  for (long i = 0; i < config.num_jobs; ++i)
    workload.jobs.push_back(make_stream_job(config, i));
  return workload;
}

}  // namespace tetris::workload
