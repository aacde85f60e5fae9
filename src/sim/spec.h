// Workload model: jobs are DAGs of stages, stages are sets of tasks, and
// tasks carry the multi-resource work/demand description of paper §3.1
// (Tables 4 and 5). Specs are immutable inputs to the simulator; runtime
// state lives in job_state.h.
#pragma once

#include <string>
#include <vector>

#include "util/resources.h"
#include "util/units.h"

namespace tetris::sim {

using MachineId = int;
using JobId = int;

// One contiguous piece of task input.
//
// Three kinds, distinguished by fields:
//  * DFS block: `replicas` lists machines holding a copy (HDFS-style). The
//    task reads locally if placed on a replica, remotely otherwise.
//  * Shuffle input: `from_stage >= 0`; the bytes come from the outputs of
//    that upstream stage. Concrete sources are only known once the upstream
//    stage has run, so the simulator materializes these splits when the
//    stage becomes runnable.
//  * Generated data: no replicas and no from_stage — the task synthesizes
//    its input (no read leg).
struct InputSplit {
  double bytes = 0;
  std::vector<MachineId> replicas;
  int from_stage = -1;
};

// Static description of one task (paper Table 4).
//
// Work terms (the f's of Eq. 5): cpu_cycles (core-seconds), input bytes (per
// split), output_bytes (written to the local disk). Demand terms (the d's):
// peak_cores and peak_mem are allocated at the host for the task's whole
// lifetime; the I/O bandwidth demands are *derived from placement* — given
// the host, the task's natural duration is the max over work legs at peak
// rates, and the per-resource rates follow (see placement.h). max_io_bw
// caps how fast the task's pipeline can drive any single I/O leg.
struct TaskSpec {
  double cpu_cycles = 0;    // core-seconds of compute
  double peak_cores = 1;    // d_cpu
  double peak_mem = 1 * kGB;  // d_mem, all-or-nothing (footnote to Eq. 5)
  std::vector<InputSplit> inputs;
  double output_bytes = 0;
  // Peak bytes/sec the task's pipeline can drive: caps its total read rate
  // (local + remote streams merged) and, separately, its write rate.
  double max_io_bw = 100 * kMB;
};

// Task→machine placement constraint (DESIGN.md §13). All clauses AND
// together; an empty constraint admits every machine, so unconstrained
// workloads pay nothing. Labels reference `SimConfig::machine_labels`
// (e.g. "gpu", "highmem", "rack0"); a constraint naming a label no
// machine declares is rejected at simulation start, not silently
// unsatisfiable (same fail-fast contract as the num_machines vs
// machine_capacities contradiction).
struct PlacementConstraint {
  // Machine must carry every one of these labels (require-class).
  std::vector<std::string> require_labels;
  // Machine must carry none of these labels.
  std::vector<std::string> forbid_labels;
  // At most one task of this job per machine (anti-affinity within the
  // job — spread for fault tolerance).
  bool anti_affinity = false;
  // Machine must sit in the same rack (SimConfig::machines_per_rack; the
  // machine itself when rack modeling is off) as at least one replica of
  // at least one input split of the stage, evaluated after shuffle splits
  // materialize. Stages without materialized inputs are unconstrained by
  // this clause.
  bool same_rack_as_input = false;

  bool empty() const {
    return require_labels.empty() && forbid_labels.empty() &&
           !anti_affinity && !same_rack_as_input;
  }
};

// A stage: tasks performing the same computation on different partitions
// (so their resource profiles are statistically similar, §4.1). `deps` are
// indices of stages in the same job that must fully finish first (strict
// barrier, as in map -> reduce). `constraint` applies to every task of the
// stage (tasks of a stage run the same computation, so they share
// placement requirements).
struct StageSpec {
  std::string name;
  std::vector<TaskSpec> tasks;
  std::vector<int> deps;
  PlacementConstraint constraint;
};

// A job: a DAG of stages plus an arrival time. `template_id` identifies
// recurring jobs (same computation on new data); the kLearnedProfile
// estimation model treats a template with a finished run as profiled
// (§4.1). `queue` groups jobs for
// queue-level fairness (paper §3.4 applies its policies to "jobs (or
// groups of jobs)", as YARN's Capacity scheduler does with queues).
struct JobSpec {
  std::string name;
  SimTime arrival = 0;
  std::vector<StageSpec> stages;
  int template_id = -1;  // -1: not recurring
  int queue = 0;
};

// Whole-workload input to a simulation run.
struct Workload {
  std::vector<JobSpec> jobs;

  std::size_t total_tasks() const;
};

// Validates DAG shape (deps in range, acyclic, no self-dep), non-negative
// work and demands, shuffle references pointing at true dependencies, and
// internally-consistent placement constraints (no empty label names, no
// label both required and forbidden). Returns an empty string when valid,
// else a description of the first problem found.
std::string validate(const JobSpec& job);
std::string validate(const Workload& workload);

// Same, plus every label a constraint references must appear in
// `declared_labels` — the set of labels some machine actually carries
// (SimConfig::machine_labels). A constraint naming an undeclared label is
// a spec bug, not an unsatisfiable-but-legal request; the simulator calls
// this overload so it fails fast with a clear error.
std::string validate(const JobSpec& job,
                     const std::vector<std::string>& declared_labels);
std::string validate(const Workload& workload,
                     const std::vector<std::string>& declared_labels);

}  // namespace tetris::sim
