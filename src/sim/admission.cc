// Admission and retirement of jobs, and the life of their tasks. Batch
// mode materializes the workload upfront; streaming (DESIGN.md §11) admits
// each job through the look-ahead window and folds it into its record on
// completion. A stage becomes runnable when its DAG barrier breaks, with
// shuffle inputs resolved to where upstream output landed (DESIGN.md §4,
// placement dependence) and its placement constraints baked into an
// admit mask (DESIGN.md §13). A task starts on a placement and finishes,
// or fails and re-queues.
#include <algorithm>
#include <sstream>
#include <stdexcept>

#include "sim/simulator_impl.h"

namespace tetris::sim {

namespace {

// Cap on distinct shuffle sources per downstream split; real shuffles read
// from every map machine, but the heaviest sources dominate bandwidth.
constexpr std::size_t kMaxShuffleSources = 8;

}  // namespace

// ---------------------------------------------------------------------------
// Admission and retirement

JobState& Simulator::append_job(const JobSpec& spec) {
  if (auto msg = validate(spec, declared_labels_); !msg.empty())
    throw std::invalid_argument("invalid workload: " + msg);
  // Replica locations must refer to machines this cluster actually has
  // (a workload generated for a bigger cluster would index out of range).
  const auto n = static_cast<MachineId>(num_real_machines_);
  for (const auto& stage : spec.stages) {
    for (const auto& task : stage.tasks) {
      for (const auto& split : task.inputs) {
        for (MachineId r : split.replicas) {
          if (r < 0 || r >= n) {
            throw std::invalid_argument(
                "invalid workload: job '" + spec.name +
                "' references replica machine " + std::to_string(r) +
                " but the cluster has " + std::to_string(n) + " machines");
          }
        }
      }
    }
  }

  JobState job;
  job.id = static_cast<JobId>(jobs_base_ + static_cast<long>(jobs_.size()));
  job.name = spec.name;
  job.template_id = spec.template_id;
  job.queue = spec.queue;
  job.arrival = spec.arrival;
  job.stages.reserve(spec.stages.size());
  bool any_anti_affinity = false;
  for (std::size_t s = 0; s < spec.stages.size(); ++s) {
    const StageSpec& sspec = spec.stages[s];
    StageState stage;
    stage.deps = sspec.deps;
    stage.constraint = sspec.constraint;
    any_anti_affinity |= sspec.constraint.anti_affinity;
    // Label clauses are static: bake them into the admit mask now. The
    // same-rack clause waits for materialization (finalize_admit_mask).
    if (!sspec.constraint.require_labels.empty() ||
        !sspec.constraint.forbid_labels.empty()) {
      stage.admit_mask.assign(
          static_cast<std::size_t>(num_real_machines_), 0);
      for (MachineId m = 0; m < num_real_machines_; ++m) {
        stage.admit_mask[static_cast<std::size_t>(m)] =
            labels_admit(config_, sspec.constraint, m) ? 1 : 0;
      }
    }
    stage.unfinished_deps = static_cast<int>(sspec.deps.size());
    stage.tasks.reserve(sspec.tasks.size());
    for (std::size_t t = 0; t < sspec.tasks.size(); ++t) {
      TaskState task;
      task.spec = sspec.tasks[t];
      task.uid = next_uid_++;
      task.index_in_stage = static_cast<int>(t);
      locs_.push_back({job.id, static_cast<int>(s), static_cast<int>(t)});
      stage.tasks.push_back(std::move(task));
    }
    job.total_tasks += stage.total();
    job.stages.push_back(std::move(stage));
  }
  if (any_anti_affinity) {
    job.hosted_per_machine.assign(
        static_cast<std::size_t>(num_real_machines_), 0);
  }

  if (config_.estimation.mode == EstimationMode::kNoisy) {
    for (std::size_t s = 0; s < job.stages.size(); ++s) {
      EstFactors f;
      for (std::size_t i = 0; i < kNumResources; ++i) {
        f.demand.at(i) =
            noise_rng_.lognormal_mean_cov(1.0, config_.estimation.noise_cov);
      }
      f.duration =
          noise_rng_.lognormal_mean_cov(1.0, config_.estimation.noise_cov);
      job.stages[s].noise = f;
    }
  }

  jobs_.push_back(std::move(job));
  return jobs_.back();
}

void Simulator::pump_admissions() {
  if (!streaming()) return;
  JobPeek peek;
  while (source_->peek(peek)) {
    // "Due": the arrival precedes (or ties) the next event to be
    // processed, so it must enter the queue now to keep event order
    // exact. "Prefetch": merely within the look-ahead horizon.
    const bool due = events_.empty() || peek.arrival <= events_.top().time;
    const bool prefetch = peek.arrival <= now_ + config_.stream.lookahead;
    if (!due && !prefetch) break;
    const auto& sc = config_.stream;
    if (sc.max_resident_tasks > 0 && peek.tasks > sc.max_resident_tasks) {
      throw std::invalid_argument(
          "StreamConfig::max_resident_tasks=" +
          std::to_string(sc.max_resident_tasks) +
          " is smaller than a single job with " + std::to_string(peek.tasks) +
          " tasks; it can never be admitted");
    }
    const bool job_cap =
        sc.max_resident_jobs > 0 && resident_jobs_ >= sc.max_resident_jobs;
    const bool task_cap =
        sc.max_resident_tasks > 0 &&
        resident_tasks_ + peek.tasks > sc.max_resident_tasks;
    if (job_cap || task_cap) {
      // Ceiling hit: hold the job back until a retirement frees space. A
      // *due* job held back arrives late — count it, once per job.
      if (due && !next_deferred_) {
        perf_.stream_deferrals++;
        next_deferred_ = true;
      }
      break;
    }
    next_deferred_ = false;
    JobSpec spec;
    source_->next(spec);
    admit_job(std::move(spec));
  }
}

void Simulator::admit_job(JobSpec&& spec) {
  JobState& job = append_job(spec);
  first_arrival_ = std::min(first_arrival_, job.arrival);
  resident_jobs_++;
  resident_tasks_ += job.total_tasks;
  perf_.jobs_admitted++;
  perf_.peak_resident_jobs =
      std::max(perf_.peak_resident_jobs, resident_jobs_);
  perf_.peak_resident_tasks =
      std::max(perf_.peak_resident_tasks, resident_tasks_);
  // Reserved sequence number: exactly the seq batch mode's upfront push
  // loop would have assigned this arrival. Bypasses push()/next_seq_.
  Event e;
  e.time = job.arrival;
  e.seq = arrival_seq_base_ + static_cast<long>(job.id);
  e.type = Event::Type::kArrival;
  e.a = job.id;
  events_.push(e);
}

void Simulator::retire_job(JobState& job) {
  record_job(job);
  resident_jobs_--;
  resident_tasks_ -= job.total_tasks;
  perf_.jobs_retired++;

  // Shrink to a shell: counts survive (complete() must stay true) but the
  // per-task state — the actual memory, the stages' scheduler-view state
  // included — goes. The shell itself is popped once it reaches the front
  // of the resident window.
  job.stages.clear();
  job.stages.shrink_to_fit();
  job.retired = true;
  pop_retired_prefix();
}

void Simulator::pop_retired_prefix() {
  while (!jobs_.empty() && jobs_.front().retired) {
    const int nt = jobs_.front().total_tasks;
    for (int i = 0; i < nt; ++i) locs_.pop_front();
    locs_base_ += nt;
    jobs_.pop_front();
    jobs_base_++;
  }
}

void Simulator::record_job(const JobState& job) {
  fold_record({job.id, job.name, job.template_id, job.arrival, job.finish,
               job.total_tasks, job.unfairness_integral});
}

void Simulator::fold_record(JobRecord rec) {
  first_arrival_ = std::min(first_arrival_, rec.arrival);
  if (rec.finish >= 0) last_finish_ = std::max(last_finish_, rec.finish);
  if (!config_.stream.drop_job_records) result_.jobs.push_back(std::move(rec));
}

// ---------------------------------------------------------------------------
// Stages

void Simulator::on_arrival(JobId job_id) {
  JobState& job = job_at(job_id);
  job.arrived = true;
  if (tracer_) {
    trace::Event ev;
    ev.kind = trace::EventKind::kJobArrival;
    ev.time = now_;
    ev.a = job_id;
    tracer_->record(ev);
  }
  for (int s = 0; s < static_cast<int>(job.stages.size()); ++s) {
    if (job.stages[static_cast<std::size_t>(s)].unfinished_deps == 0) {
      make_stage_runnable(job, s);
    }
  }
}

void Simulator::make_stage_runnable(JobState& job, int stage_index) {
  if (job.doomed) return;  // abandoned: schedule no further stages
  materialize_stage(job, stage_index);
  // The stage's inputs are final now, so its static admit mask is too; a
  // stage no machine can host dooms the job here — reported, never
  // silently starved in the runnable set until max_time.
  if (!finalize_admit_mask(job, stage_index)) {
    doom_job(job, stage_index);
    return;
  }
  StageState& stage = job.stages[static_cast<std::size_t>(stage_index)];
  for (auto& task : stage.tasks) {
    if (task.status == TaskStatus::kBlocked) {
      task.status = TaskStatus::kRunnable;
      stage.runnable++;
      add_runnable(stage, task.index_in_stage);
    }
  }
}

bool Simulator::finalize_admit_mask(JobState& job, int stage_index) {
  StageState& stage = job.stages[static_cast<std::size_t>(stage_index)];
  if (stage.constraint.same_rack_as_input) {
    // Group-level predicate, identical for admission and place(): a
    // machine is rack-admissible iff its rack (the machine itself with
    // rack modeling off) holds a replica of at least one input split of
    // at least one task of the stage. Defined over the spec's replica
    // lists regardless of up/down state, so the mask is pass-constant
    // under churn (a constraint rejection stays sticky-safe; a down
    // admissible machine is rejected by machine_up instead).
    const int k = config_.machines_per_rack;
    std::vector<unsigned char> rack_ok(
        static_cast<std::size_t>(num_real_machines_), 0);
    bool any_replica = false;
    for (const auto& task : stage.tasks) {
      for (const auto& split : task.spec.inputs) {
        for (MachineId r : split.replicas) {
          if (r < 0 || r >= num_real_machines_) continue;
          any_replica = true;
          if (k > 0) {
            const int rack = r / k;
            for (int m = rack * k;
                 m < std::min((rack + 1) * k, num_real_machines_); ++m) {
              rack_ok[static_cast<std::size_t>(m)] = 1;
            }
          } else {
            rack_ok[static_cast<std::size_t>(r)] = 1;
          }
        }
      }
    }
    // Stages with no located inputs (generated data, empty shuffles) are
    // unconstrained by the clause — there is no rack to match.
    if (any_replica) {
      if (stage.admit_mask.empty()) {
        stage.admit_mask = std::move(rack_ok);
      } else {
        for (std::size_t m = 0; m < stage.admit_mask.size(); ++m) {
          stage.admit_mask[m] &= rack_ok[m];
        }
      }
    }
  }
  if (stage.admit_mask.empty()) return true;
  for (unsigned char ok : stage.admit_mask) {
    if (ok) return true;
  }
  return false;
}

void Simulator::doom_job(JobState& job, int stage_index) {
  const StageState& stage = job.stages[static_cast<std::size_t>(stage_index)];
  InfeasibleGroup rec;
  rec.job = job.id;
  rec.stage = stage_index;
  rec.tasks = stage.total();
  std::ostringstream reason;
  reason << "no machine satisfies the placement constraint of job '"
         << job.name << "' stage " << stage_index << " (";
  const PlacementConstraint& c = stage.constraint;
  const char* sep = "";
  if (!c.require_labels.empty()) {
    reason << "require:";
    for (const auto& l : c.require_labels) reason << " " << l;
    sep = "; ";
  }
  if (!c.forbid_labels.empty()) {
    reason << sep << "forbid:";
    for (const auto& l : c.forbid_labels) reason << " " << l;
    sep = "; ";
  }
  if (c.same_rack_as_input) reason << sep << "same-rack-as-input";
  reason << ")";
  rec.reason = reason.str();
  result_.infeasible.push_back(std::move(rec));
  if (!job.doomed) {
    job.doomed = true;
    doomed_jobs_++;
  }
}

void Simulator::materialize_stage(JobState& job, int stage_index) {
  StageState& stage = job.stages[static_cast<std::size_t>(stage_index)];
  if (stage.materialized) return;
  stage.materialized = true;
  // The rewrite changes the specs a cached group estimate was drawn from.
  stage.estimate.rep = EstimateSlot::kEmpty;
  for (auto& task : stage.tasks) {
    bool needs_rewrite = false;
    for (const auto& split : task.spec.inputs) {
      if (split.from_stage >= 0) {
        needs_rewrite = true;
        break;
      }
    }
    if (!needs_rewrite) continue;
    std::vector<InputSplit> rewritten;
    rewritten.reserve(task.spec.inputs.size());
    for (const auto& split : task.spec.inputs) {
      if (split.from_stage < 0) {
        rewritten.push_back(split);
        continue;
      }
      auto sources =
          job.stages[static_cast<std::size_t>(split.from_stage)]
              .output_locations;
      if (sources.empty() || split.bytes <= 0) {
        // Upstream produced nothing: the bytes become generated input.
        InputSplit gen;
        gen.bytes = split.bytes;
        rewritten.push_back(std::move(gen));
        continue;
      }
      std::sort(sources.begin(), sources.end(),
                [](const auto& x, const auto& y) { return x.second > y.second; });
      if (sources.size() > kMaxShuffleSources)
        sources.resize(kMaxShuffleSources);
      double total = 0;
      for (const auto& [m, b] : sources) total += b;
      for (const auto& [m, b] : sources) {
        if (b <= 0) continue;
        InputSplit piece;
        piece.bytes = split.bytes * (b / total);
        piece.replicas = {m};
        rewritten.push_back(std::move(piece));
      }
    }
    task.spec.inputs = std::move(rewritten);
  }
}

// ---------------------------------------------------------------------------
// Tasks

void Simulator::start_task(const Probe& probe) {
  JobState& job = job_at(probe.group.job);
  StageState& stage = job.stages[static_cast<std::size_t>(probe.group.stage)];
  TaskState& task = stage.tasks[static_cast<std::size_t>(probe.task_index)];

  PlacementDemand pd =
      compute_placement(task.spec, probe.machine,
                        static_cast<unsigned long long>(task.uid), up_mask());
  add_rack_legs(probe.machine, pd);

  task.status = TaskStatus::kRunning;
  task.host = probe.machine;
  task.start_time = now_;
  newest_start_[static_cast<std::size_t>(probe.machine)] = now_;
  task.attempts++;
  task.placement = pd;
  task.progress = 0;
  task.progress_updated_at = now_;
  task.speed = 0;
  task.generation++;
  task.will_fail = config_.task_failure_prob > 0 &&
                   rng_.bernoulli(config_.task_failure_prob);
  task.fail_at_progress = task.will_fail ? rng_.uniform(0.05, 0.95) : 1.0;

  task.est_local = probe.demand;
  task.est_remote = probe.remote;

  charge(job, task);
  book_estimates(job, task);

  remove_runnable(stage, probe.task_index);
  stage.runnable--;
  stage.running++;
  job.running_tasks++;
  running_total_++;

  if (tracer_) {
    trace::Event ev;
    ev.kind = trace::EventKind::kTaskStart;
    ev.time = now_;
    ev.a = task.uid;
    ev.b = job.id;
    ev.c = probe.group.stage;
    ev.d = probe.task_index;
    ev.e = probe.machine;
    tracer_->record(ev);
  }
}

void Simulator::on_finish(int uid, long generation) {
  // A prediction for a task whose job has since retired is stale by
  // definition (the task finished; its generation moved on).
  if (!has_task(uid)) return;
  TaskState& task = task_at(uid);
  if (task.status != TaskStatus::kRunning || task.generation != generation)
    return;  // stale prediction
  complete_task(uid, /*failed=*/task.will_fail);
}

void Simulator::complete_task(int uid, bool failed,
                              trace::KillReason reason) {
  const TaskLoc loc = loc_at(uid);
  JobState& job = job_at(loc.job);
  StageState& stage = job.stages[static_cast<std::size_t>(loc.stage)];
  TaskState& task = stage.tasks[static_cast<std::size_t>(loc.index)];

  if (tracer_) {
    trace::Event ev;
    ev.kind = failed ? trace::EventKind::kTaskKill
                     : trace::EventKind::kTaskFinish;
    ev.time = now_;
    ev.a = uid;
    ev.b = loc.job;
    ev.c = loc.stage;
    ev.d = loc.index;
    ev.e = task.host;
    if (failed) ev.f = static_cast<std::int64_t>(reason);
    tracer_->record(ev);
  }

  release(job, task);
  unbook_estimates(job, task);

  stage.running--;
  job.running_tasks--;
  running_total_--;

  if (failed) {
    task.status = TaskStatus::kRunnable;
    task.host = -1;
    task.progress = 0;
    task.generation++;
    stage.runnable++;
    add_runnable(stage, loc.index);
    refresh_dirty();
    return;
  }

  task.status = TaskStatus::kFinished;
  task.generation++;
  stage.finished++;
  job.finished_tasks++;
  total_finished_tasks_++;

  if (task.spec.output_bytes > 0) {
    auto it = std::find_if(
        stage.output_locations.begin(), stage.output_locations.end(),
        [&](const auto& p) { return p.first == task.host; });
    if (it == stage.output_locations.end()) {
      stage.output_locations.emplace_back(task.host, task.spec.output_bytes);
    } else {
      it->second += task.spec.output_bytes;
    }
  }

  if (config_.collect_task_records) {
    TaskRecord rec;
    rec.job = job.id;
    rec.stage = loc.stage;
    rec.index = loc.index;
    rec.host = task.host;
    rec.start = task.start_time;
    rec.finish = now_;
    rec.attempts = task.attempts;
    rec.local_fraction = local_fraction(task.spec, task.host);
    rec.natural_duration = task.placement.duration;
    result_.tasks.push_back(std::move(rec));
  }

  if (stage.done()) {
    for (int s2 = 0; s2 < static_cast<int>(job.stages.size()); ++s2) {
      StageState& other = job.stages[static_cast<std::size_t>(s2)];
      if (std::find(other.deps.begin(), other.deps.end(), loc.stage) ==
          other.deps.end())
        continue;
      if (--other.unfinished_deps == 0) make_stage_runnable(job, s2);
    }
  }
  if (job.complete()) {
    job.finish = now_;
    completed_jobs_++;
    if (job.template_id >= 0 &&
        profiled_templates_.insert(job.template_id).second) {
      profile_version_++;  // kLearnedProfile estimates may snap to truth
    }
    // Streaming: fold the finished job into its record and free its
    // state. Only the success path can complete a job, so retirement
    // never happens mid-pass (preemption requeues, it never finishes).
    if (streaming()) retire_job(job);
  }
  refresh_dirty();
}

}  // namespace tetris::sim
