// Lightweight hot-path instrumentation for the scheduling pass (paper
// §5.5, Table 8): plain counters bumped by the scheduler and by the
// simulator's context caches, aggregated into SimResult so benches can
// report *why* a pass was fast (cache hits, skipped cells) next to how
// fast it was. Counting is observation only — no counter may influence a
// scheduling decision, or the naive/optimized equivalence oracle breaks.
#pragma once

namespace tetris::util {

struct PerfCounters {
  // Scheduler-side (per candidate <group, machine> cell):
  long score_evals = 0;     // alignment scores computed
  long probes_issued = 0;   // ctx.probe() calls made by the scheduler
  long sticky_rejects = 0;  // stale cells skipped: rejection is monotone
  long row_skips = 0;       // cells skipped: whole row fresh-and-rejected
  // Always 0: the scan's probe reuse and free-capacity index are gone
  // (DESIGN.md §8.2); the stage's probe slot answers every re-probe. Kept
  // only because perfbench reads them.
  long probe_reuses = 0;
  long fit_index_skips = 0;

  // Always 0: the SIMD scoring kernel is gone (DESIGN.md §12) and both
  // scans score each cell in place. Kept only because perfbench reads
  // them.
  long simd_blocks = 0;
  long scalar_tail_evals = 0;

  // Simulator-side (SchedulerContext caches):
  long probe_cache_hits = 0;       // probes replayed from a stage's slot
  long probe_cache_misses = 0;     // probes computed into a slot
  long estimate_cache_hits = 0;    // group estimates replayed from a slot
  long estimate_cache_misses = 0;  // group-estimate recomputes
  // Always 0: the availability cache is gone (DESIGN.md §8.3). Kept only
  // because perfbench reads it.
  long avail_cache_hits = 0;
  long avail_recomputes = 0;  // machines whose availability a pass built

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

  // Federated driver bookkeeping (DESIGN.md §14.5); zero outside
  // simulate_federated. Live cells whose advance was skipped because they
  // were quiescent up to the event time with an empty admission queue.
  long idle_cell_skips = 0;

  friend bool operator==(const PerfCounters&, const PerfCounters&) = default;

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
    jobs_admitted += o.jobs_admitted;
    jobs_retired += o.jobs_retired;
    peak_resident_jobs = peak_resident_jobs > o.peak_resident_jobs
                             ? peak_resident_jobs
                             : o.peak_resident_jobs;
    peak_resident_tasks = peak_resident_tasks > o.peak_resident_tasks
                              ? peak_resident_tasks
                              : o.peak_resident_tasks;
    stream_deferrals += o.stream_deferrals;
    idle_cell_skips += o.idle_cell_skips;
    return *this;
  }
};

}  // namespace tetris::util
