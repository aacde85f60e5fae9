// Lightweight hot-path instrumentation for the scheduling pass (paper
// §5.5, Table 8): plain counters bumped by the scheduler and by the
// simulator's context caches, aggregated into SimResult so benches can
// report *why* a pass was fast (cache hits, index skips) next to how fast
// it was. Counting is observation only — no counter may influence a
// scheduling decision, or the naive/optimized equivalence oracle breaks.
#pragma once

#include <cstddef>
#include <vector>

namespace tetris::util {

struct PerfCounters {
  // Scheduler-side (per candidate <group, machine> cell):
  long score_evals = 0;      // alignment scores computed
  long probes_issued = 0;    // ctx.probe() calls made by the scheduler
  long probe_reuses = 0;     // stale cells rescored from a kept probe
  long sticky_rejects = 0;   // stale cells skipped: rejection is monotone
  long fit_index_skips = 0;  // cells skipped by the free-capacity index
  long row_skips = 0;        // cells skipped: whole row fresh-and-rejected

  // SIMD scoring kernel (DESIGN.md §12). Unlike every other scan counter
  // these two depend on how cells group into vector blocks, which follows
  // shard boundaries — so they are stable for a fixed configuration but
  // legitimately differ across thread counts (and are excluded from the
  // cross-thread-count counter assertions).
  long simd_blocks = 0;        // full-width vector blocks evaluated
  long scalar_tail_evals = 0;  // batch lanes evaluated on the scalar tail

  // Simulator-side (SchedulerContext caches):
  long probe_cache_hits = 0;       // probes replayed from a stage's slot
  long probe_cache_misses = 0;     // probes computed into a slot
  long estimate_cache_hits = 0;    // group estimates replayed from a slot
  long estimate_cache_misses = 0;  // group-estimate recomputes
  long avail_cache_hits = 0;       // machines whose availability was reused
  long avail_recomputes = 0;       // machines rescanned by the tracker

  // Parallel-pass bookkeeping (DESIGN.md §9). reduction_nanos is wall
  // clock inside the reduction barriers (merge + ordered replay), so it
  // is the one counter that legitimately varies between repeated runs;
  // everything else is deterministic for a fixed thread count.
  long parallel_passes = 0;  // passes scanned with the sharded path
  long reduction_nanos = 0;  // wall clock spent in reduction barriers
  // score_evals split by column shard; empty when every pass ran serial.
  std::vector<long> shard_score_evals;

  // Streaming-ingestion bookkeeping (DESIGN.md §11); all zero in batch
  // mode. Peaks merge with max under +=, so aggregated counters report
  // the worst resident footprint any run reached.
  long jobs_admitted = 0;        // jobs ingested from the JobSource
  long jobs_retired = 0;         // completed jobs folded into records
  long peak_resident_jobs = 0;   // high-water mark of admitted - retired
  long peak_resident_tasks = 0;  // high-water mark of resident task count
  // Due arrivals held back because admission would cross a resident
  // ceiling. Streaming runs are bit-identical to batch only while this
  // stays 0 — a deferral shifts the job's effective arrival.
  long stream_deferrals = 0;

  // Federated driver bookkeeping (DESIGN.md §14.5); all zero outside
  // simulate_federated. cell_advance_nanos is wall clock inside the
  // per-event advance fan-out (serial loop or pool barrier), so like
  // reduction_nanos it varies between repeated runs; idle_cell_skips —
  // live cells whose advance was skipped because they were quiescent up
  // to the event time with an empty admission queue — is deterministic
  // for a fixed configuration and identical at every cell_threads count.
  long cell_advance_nanos = 0;  // wall clock advancing cells per event
  long idle_cell_skips = 0;     // quiescent cells skipped by the driver

  PerfCounters& operator+=(const PerfCounters& o) {
    score_evals += o.score_evals;
    probes_issued += o.probes_issued;
    probe_reuses += o.probe_reuses;
    sticky_rejects += o.sticky_rejects;
    fit_index_skips += o.fit_index_skips;
    row_skips += o.row_skips;
    simd_blocks += o.simd_blocks;
    scalar_tail_evals += o.scalar_tail_evals;
    probe_cache_hits += o.probe_cache_hits;
    probe_cache_misses += o.probe_cache_misses;
    estimate_cache_hits += o.estimate_cache_hits;
    estimate_cache_misses += o.estimate_cache_misses;
    avail_cache_hits += o.avail_cache_hits;
    avail_recomputes += o.avail_recomputes;
    parallel_passes += o.parallel_passes;
    reduction_nanos += o.reduction_nanos;
    jobs_admitted += o.jobs_admitted;
    jobs_retired += o.jobs_retired;
    peak_resident_jobs = peak_resident_jobs > o.peak_resident_jobs
                             ? peak_resident_jobs
                             : o.peak_resident_jobs;
    peak_resident_tasks = peak_resident_tasks > o.peak_resident_tasks
                              ? peak_resident_tasks
                              : o.peak_resident_tasks;
    stream_deferrals += o.stream_deferrals;
    cell_advance_nanos += o.cell_advance_nanos;
    idle_cell_skips += o.idle_cell_skips;
    if (shard_score_evals.size() < o.shard_score_evals.size())
      shard_score_evals.resize(o.shard_score_evals.size(), 0);
    for (std::size_t i = 0; i < o.shard_score_evals.size(); ++i)
      shard_score_evals[i] += o.shard_score_evals[i];
    return *this;
  }
};

}  // namespace tetris::util
