// The event engine: the queue and loop that stand in for the paper's
// 250-node YARN cluster (§4.4, DESIGN.md §2, §4). Scheduling passes run at
// heartbeats and job arrivals, so schedulers learn of freed resources in
// batches as the prototype's resource manager does. Also here: setup, the
// stepped SimEngine over the same loop (DESIGN.md §14), and the
// simulate()/simulate_stream() entry points.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>

#include "sim/simulator_impl.h"

namespace tetris::sim {

namespace {

// Push-queue JobSource feeding a stepped engine (DESIGN.md §14): the
// federated dispatcher pushes each job it admits to this cell, in global
// arrival order. total_jobs() reports the driver's *expected* total (the
// global job count), which only sizes the reserved arrival-seq block —
// every arrival seq stays below every heartbeat/finish seq regardless of
// how many jobs this particular cell ends up receiving, so event ordering
// matches a batch run of the same job sequence bit for bit.
class QueueJobSource final : public JobSource {
 public:
  explicit QueueJobSource(long expected_jobs) : expected_(expected_jobs) {}

  long total_jobs() const override { return expected_; }

  bool peek(JobPeek& out) override {
    if (queue_.empty()) return false;
    const JobSpec& job = queue_.front();
    out.arrival = job.arrival;
    out.tasks = 0;
    for (const auto& stage : job.stages) {
      out.tasks += static_cast<long>(stage.tasks.size());
    }
    return true;
  }

  bool next(JobSpec& out) override {
    if (queue_.empty()) return false;
    out = std::move(queue_.front());
    queue_.pop_front();
    return true;
  }

  void push(const JobSpec& spec) {
    if (spec.arrival < last_arrival_) {
      throw std::runtime_error(
          "SimEngine: job '" + spec.name + "' submitted out of order (" +
          std::to_string(spec.arrival) + " after " +
          std::to_string(last_arrival_) + ")");
    }
    last_arrival_ = spec.arrival;
    queue_.push_back(spec);
  }

  long queued() const { return static_cast<long>(queue_.size()); }

 private:
  long expected_ = 0;
  SimTime last_arrival_ = -std::numeric_limits<double>::infinity();
  std::deque<JobSpec> queue_;
};

}  // namespace

// ---------------------------------------------------------------------------
// Setup

Simulator::Simulator(const SimConfig& config, const Workload& workload)
    : Simulator(config, nullptr, static_cast<long>(workload.jobs.size())) {
  for (const JobSpec& spec : workload.jobs) append_job(spec);
}

Simulator::Simulator(const SimConfig& config, JobSource& source)
    : Simulator(config, &source, source.total_jobs()) {}

Simulator::Simulator(const SimConfig& config, JobSource* source,
                     long total_jobs)
    : config_(config),
      interference_(config.interference),
      source_(source),
      total_jobs_(total_jobs),
      rng_(config.seed) {
  init_cluster();
  if (total_jobs_ < 0)
    throw std::invalid_argument("JobSource reports a negative job count");
  // Jobs are numbered 0..total_jobs_ - 1 as JobIds, and streaming reserves
  // one event sequence number per declared job (prepare).
  if (total_jobs_ > std::numeric_limits<JobId>::max())
    throw std::invalid_argument(
        "JobSource declares more jobs than a JobId can number");
  // The noise stream forks after the churn stream (if any, init_cluster),
  // at the same point in both modes, or enabling streaming would perturb
  // the factor sequence.
  if (config_.estimation.mode == EstimationMode::kNoisy) {
    noise_rng_ = rng_.fork();
  }
  if (config_.trace.enabled) {
    tracer_ = std::make_unique<trace::Recorder>(config_.trace);
  }
}

void Simulator::init_cluster() {
  if (auto msg = validate(config_); !msg.empty())
    throw std::invalid_argument(msg);
  const auto caps = config_.resolved_capacities();
  for (const auto& labels : config_.machine_labels)
    declared_labels_.insert(declared_labels_.end(), labels.begin(),
                            labels.end());
  std::sort(declared_labels_.begin(), declared_labels_.end());
  declared_labels_.erase(
      std::unique(declared_labels_.begin(), declared_labels_.end()),
      declared_labels_.end());
  num_real_machines_ = static_cast<int>(caps.size());
  machines_.reserve(caps.size());
  for (std::size_t m = 0; m < caps.size(); ++m) {
    machines_.emplace_back(static_cast<MachineId>(m), caps[m],
                           &interference_);
    cluster_capacity_ += caps[m];
    max_capacity_ = max_capacity_.cwise_max(caps[m]);
  }
  avg_capacity_ = cluster_capacity_ / static_cast<double>(caps.size());
  machine_up_.assign(static_cast<std::size_t>(num_real_machines_), 1);

  // Rack uplinks as pseudo-machines past the real ids: they carry only
  // network capacity and appear in remote legs, never as placement hosts.
  if (const int k = config_.machines_per_rack; k > 0) {
    for (int rack = 0; rack < (num_real_machines_ + k - 1) / k; ++rack) {
      machines_.emplace_back(
          static_cast<MachineId>(num_real_machines_ + rack), rack_uplink(rack),
          &interference_);
    }
  }

  alloc_est_.assign(machines_.size(), Resources{});
  hosted_count_.assign(machines_.size(), 0);
  dirty_flags_.assign(machines_.size(), 0);

  down_depth_.assign(static_cast<std::size_t>(num_real_machines_), 0);
  external_active_.assign(static_cast<std::size_t>(num_real_machines_),
                          Resources{});
  up_capacity_ = cluster_capacity_;

  churn_events_ = config_.churn.scripted;
  if (config_.churn.mttf > 0) {
    // Dedicated stream, one sub-stream per machine: enabling churn or
    // resizing the cluster must not perturb task-failure or estimation
    // draws, and one machine's timeline must not perturb another's.
    Rng churn_rng = rng_.fork();
    for (MachineId m = 0; m < num_real_machines_; ++m) {
      Rng mrng = churn_rng.fork();
      SimTime t = mrng.exponential(config_.churn.mttf);
      while (t < config_.max_time) {
        const SimTime back = t + mrng.exponential(config_.churn.mttr);
        churn_events_.push_back({m, t, back});
        t = back + mrng.exponential(config_.churn.mttf);
      }
    }
  }
}

// ---------------------------------------------------------------------------
// The loop

SimResult Simulator::run(Scheduler& scheduler) {
  prepare(scheduler);
  drain(scheduler, total_jobs_);
  return finalize();
}

void Simulator::drain(Scheduler& scheduler, long jobs) {
  while (completed_jobs_ + doomed_jobs_ < jobs &&
         step_one(scheduler, std::numeric_limits<double>::infinity(),
                  /*inclusive=*/true)) {
  }
}

void Simulator::prepare(Scheduler& scheduler) {
  result_ = SimResult{};
  result_.scheduler_name = scheduler.name();
  if (tracer_) {
    trace::Event ev;
    ev.kind = trace::EventKind::kRunBegin;
    ev.a = static_cast<std::int64_t>(config_.seed);
    ev.b = num_real_machines_;
    ev.c = static_cast<std::int64_t>(total_jobs_);
    ev.e = config_.naive_scheduler_view ? 1 : 0;
    tracer_->record(ev);
  }

  // Machine events and activities first: a failure or activity at time t
  // must be visible to a scheduling pass at the same instant (FIFO
  // tie-break is by push order).
  for (const auto& ev : churn_events_) {
    push({ev.down_at, 0, Event::Type::kMachineDown, ev.machine, 0});
    push({ev.up_at, 0, Event::Type::kMachineUp, ev.machine, 0});
  }
  for (std::size_t i = 0; i < config_.activities.size(); ++i) {
    const auto& act = config_.activities[i];
    push({act.start, 0, Event::Type::kActivity, static_cast<int>(i), 1});
    push({act.end, 0, Event::Type::kActivity, static_cast<int>(i), 0});
  }
  if (streaming()) {
    // Reserve the seq block batch mode's upfront arrival pushes would
    // occupy; each admission fills its own slot (arrival_seq_base_ + id),
    // so later pushes (heartbeats, finish predictions) line up exactly.
    arrival_seq_base_ = next_seq_;
    next_seq_ += total_jobs_;
    pump_admissions();
  } else {
    for (const auto& job : jobs_) {
      push({job.arrival, 0, Event::Type::kArrival, job.id, 0});
    }
  }
  push({0, 0, Event::Type::kHeartbeat, 0, 0});
  if (config_.collect_timeline) {
    push({0, 0, Event::Type::kTimeline, 0, 0});
  }
}

bool Simulator::step_one(Scheduler& scheduler, SimTime limit,
                         bool inclusive) {
  if (past_max_time_ || halted_) return false;
  // Streaming: every job due before (or at) the next event must be in
  // the queue before that event pops, or ordering would drift from
  // batch. No-op in batch mode.
  pump_admissions();
  if (events_.empty()) return false;
  // A cutoff leaves the event queued: a stepped driver submits arrivals at
  // `limit` before advancing through it, so those arrivals order ahead of
  // co-temporal events exactly as batch mode's upfront pushes would.
  if (inclusive ? events_.top().time > limit : events_.top().time >= limit)
    return false;
  const Event e = events_.top();
  events_.pop();
  if (e.time > config_.max_time) {
    past_max_time_ = true;
    return false;
  }
  now_ = std::max(now_, e.time);
  switch (e.type) {
    case Event::Type::kArrival:
      on_arrival(e.a);
      // Coalesce simultaneous arrivals into one scheduling pass, or the
      // first job of a batch would grab the whole cluster before its
      // peers even exist (fairness would be meaningless at t=0). The
      // pump keeps feeding same-instant admissions in streaming mode.
      for (;;) {
        pump_admissions();
        if (events_.empty() ||
            events_.top().type != Event::Type::kArrival ||
            events_.top().time > now_)
          break;
        on_arrival(events_.top().a);
        events_.pop();
      }
      run_pass(scheduler);
      break;
    case Event::Type::kFinish:
      on_finish(e.a, e.b);
      break;
    case Event::Type::kHeartbeat:
      on_heartbeat(scheduler);
      break;
    case Event::Type::kTimeline:
      on_timeline();
      break;
    case Event::Type::kActivity:
      on_activity(e.a, e.b != 0);
      break;
    case Event::Type::kMachineDown:
      on_machine_down(e.a);
      // React immediately: killed tasks may fit on surviving machines.
      run_pass(scheduler);
      break;
    case Event::Type::kMachineUp:
      on_machine_up(e.a);
      // React immediately: restored capacity (and restored replicas) can
      // unblock waiting tasks before the next heartbeat.
      run_pass(scheduler);
      break;
  }
  return true;
}

std::vector<JobId> Simulator::halt_resident() {
  halted_ = true;
  std::vector<JobId> unfinished;
  for (const auto& job : jobs_) {
    if (job.retired || job.doomed) continue;  // done, or infeasible anywhere
    if (job.finish >= 0) continue;            // complete but not yet retired
    unfinished.push_back(job.id);
  }
  return unfinished;
}

EngineLoad Simulator::engine_load() const {
  EngineLoad l;
  l.machines = num_real_machines_;
  l.up_machines = num_real_machines_ - down_count_;
  l.runnable_tasks = runnable_total_;
  l.running_tasks = running_total_;
  l.active_jobs = resident_jobs_;
  Resources alloc;
  for (int m = 0; m < num_real_machines_; ++m) {
    alloc += alloc_est_[static_cast<std::size_t>(m)];
  }
  for (std::size_t i = 0; i < kNumResources; ++i) {
    const double cap = up_capacity_.at(i);
    if (cap > 0) l.alloc_share = std::max(l.alloc_share, alloc.at(i) / cap);
  }
  return l;
}

SimResult Simulator::finalize() {
  result_.completed = completed_jobs_ == total_jobs_;
  result_.end_time = now_;
  account_up_capacity();
  result_.churn.effective_capacity =
      now_ > 0 ? up_capacity_integral_ / now_ : 1.0;
  // Fold the jobs still resident (all of them in batch mode; the
  // incomplete remainder in streaming — retired jobs are in result_.jobs
  // already). Then, streaming only: drain the never-admitted tail of the
  // source into finish = -1 records so incomplete runs report the same
  // record set batch mode would.
  for (const auto& job : jobs_) {
    if (!job.retired) record_job(job);
  }
  if (streaming()) {
    long id = jobs_base_ + static_cast<long>(jobs_.size());
    for (JobSpec spec; source_->next(spec); ++id) {
      int tasks = 0;
      for (const auto& stage : spec.stages)
        tasks += static_cast<int>(stage.tasks.size());
      fold_record({.id = static_cast<JobId>(id),
                   .name = spec.name,
                   .template_id = spec.template_id,
                   .arrival = spec.arrival,
                   .total_tasks = tasks});
    }
    // Retirement appends in completion order; batch emits in id order.
    std::sort(result_.jobs.begin(), result_.jobs.end(),
              [](const JobRecord& x, const JobRecord& y) {
                return x.id < y.id;
              });
  }
  result_.perf = perf_;
  result_.makespan =
      last_finish_ -
      (std::isfinite(first_arrival_) ? first_arrival_ : 0.0);
  if (tracer_) {
    trace::Event ev;
    ev.kind = trace::EventKind::kRunEnd;
    ev.time = now_;
    ev.a = total_finished_tasks_;
    ev.b = completed_jobs_;
    ev.x = result_.makespan;
    tracer_->record(ev);
    result_.trace_log = tracer_->take_log();
    result_.trace_log.scheduler = result_.scheduler_name;
    result_.trace_log.seed = config_.seed;
  }
  return result_;
}

// ---------------------------------------------------------------------------
// Heartbeats and passes

void Simulator::on_heartbeat(Scheduler& scheduler) {
  if (config_.collect_fairness) sample_fairness(config_.heartbeat_period);
  run_pass(scheduler);
  push({now_ + config_.heartbeat_period, 0, Event::Type::kHeartbeat, 0, 0});
}

void Simulator::sample_fairness(double dt) {
  // A job's purported fair allocation is an equal split among the jobs
  // that currently demand resources (running or runnable tasks); jobs
  // blocked at a barrier demand nothing and are excluded, matching how a
  // fair scheduler would treat them.
  const auto demanding = [](const JobState& job) {
    if (!job.arrived || job.complete()) return false;
    if (job.running_tasks > 0) return true;
    for (const auto& stage : job.stages) {
      if (stage.runnable > 0) return true;
    }
    return false;
  };
  int active = 0;
  for (const auto& job : jobs_) {
    if (demanding(job)) active++;
  }
  if (active == 0) return;
  const double fair = 1.0 / static_cast<double>(active);
  for (auto& job : jobs_) {
    if (!demanding(job)) continue;
    const double share =
        job.current_alloc.normalized_by(cluster_capacity_).max_component();
    job.unfairness_integral += dt * (share - fair) / fair;
  }
}

void Simulator::run_pass(Scheduler& scheduler) {
  const int backlog = runnable_total_;
  const long pass = pass_index_++;
  if (tracer_) {
    trace::Event ev;
    ev.kind = trace::EventKind::kPassBegin;
    ev.time = now_;
    ev.a = pass;
    ev.b = backlog;
    tracer_->record(ev);
  }
  ContextImpl ctx(*this);
  const auto t0 = std::chrono::steady_clock::now();
  scheduler.schedule(ctx);
  const auto t1 = std::chrono::steady_clock::now();
  const double secs = std::chrono::duration<double>(t1 - t0).count();
  if (tracer_) {
    trace::Event ev;
    ev.kind = trace::EventKind::kPassEnd;
    ev.time = now_;
    ev.a = pass;
    ev.b = ctx.placements;
    ev.timing =
        std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0)
            .count();
    tracer_->record(ev);
  }
  result_.scheduler_cost.invocations++;
  result_.scheduler_cost.placements += ctx.placements;
  result_.scheduler_cost.total_seconds += secs;
  result_.scheduler_cost.max_seconds =
      std::max(result_.scheduler_cost.max_seconds, secs);
  result_.pass_latency.add_seconds(secs);
  if (config_.collect_pass_samples) {
    result_.pass_samples.push_back(
        {now_, backlog, static_cast<int>(ctx.placements), secs});
  }
  refresh_dirty();
}

void Simulator::on_timeline() {
  TimelineSample sample;
  sample.time = now_;
  sample.running_tasks = running_total_;
  Resources usage;
  for (int mi = 0; mi < num_real_machines_; ++mi) {
    const auto& machine = machines_[static_cast<std::size_t>(mi)];
    const Resources u = machine.usage();
    usage += u;
    const Resources frac = u.normalized_by(machine.capacity());
    for (std::size_t i = 0; i < kNumResources; ++i) {
      result_.machine_usage_samples[i].push_back(frac.at(i));
    }
  }
  const Resources frac = usage.normalized_by(cluster_capacity_);
  for (std::size_t i = 0; i < kNumResources; ++i)
    sample.utilization[i] = frac.at(i);
  result_.timeline.push_back(sample);
  push({now_ + config_.timeline_period, 0, Event::Type::kTimeline, 0, 0});
}

// ---------------------------------------------------------------------------
// SimEngine and the entry points

struct SimEngine::Impl {
  QueueJobSource source;
  Simulator sim;
  Scheduler* scheduler;
  long expected = 0;
  long submitted = 0;
  bool finished = false;

  Impl(const SimConfig& config, Scheduler& sched, long expected_jobs)
      : source(expected_jobs),
        sim(config, source),
        scheduler(&sched),
        expected(expected_jobs) {
    sim.prepare(sched);
  }
};

SimEngine::SimEngine(const SimConfig& config, Scheduler& scheduler,
                     long expected_jobs)
    : impl_(std::make_unique<Impl>(config, scheduler, expected_jobs)) {}

SimEngine::~SimEngine() = default;

void SimEngine::submit(const JobSpec& spec) {
  if (impl_->finished) {
    throw std::logic_error("SimEngine: submit() after finish()");
  }
  if (impl_->submitted >= impl_->expected) {
    throw std::invalid_argument(
        "SimEngine: more than expected_jobs=" +
        std::to_string(impl_->expected) + " jobs submitted");
  }
  impl_->source.push(spec);
  impl_->submitted++;
}

void SimEngine::advance_before(SimTime t) {
  while (impl_->sim.step_one(*impl_->scheduler, t, /*inclusive=*/false)) {
  }
}

void SimEngine::advance_through(SimTime t) {
  while (impl_->sim.step_one(*impl_->scheduler, t, /*inclusive=*/true)) {
  }
}

std::vector<JobId> SimEngine::halt() {
  std::vector<JobId> unfinished = impl_->sim.halt_resident();
  // Jobs still queued for admission are unfinished too; ids are assigned
  // in submission order, so the queued tail occupies the last `queued`
  // ids. The queue itself stays put — finalize() folds it into the
  // finish = -1 records an aborted batch run would produce.
  const long queued = impl_->source.queued();
  for (long id = impl_->submitted - queued; id < impl_->submitted; ++id) {
    unfinished.push_back(static_cast<JobId>(id));
  }
  return unfinished;
}

SimResult SimEngine::finish() {
  if (impl_->finished) {
    throw std::logic_error("SimEngine: finish() called twice");
  }
  impl_->finished = true;
  Simulator& sim = impl_->sim;
  // run()'s drain with the engine's own termination bound: every
  // *submitted* job accounted for, rather than the global expectation
  // (this cell may only ever see a share of it). A halted engine steps
  // nothing.
  sim.drain(*impl_->scheduler, impl_->submitted);
  SimResult result = sim.finalize();
  // finalize() judged completion against the global expectation; the
  // engine's contract is "every job submitted to it finished".
  result.completed =
      !sim.halted() && sim.completed_jobs() == impl_->submitted;
  return result;
}

EngineLoad SimEngine::load() const {
  EngineLoad l = impl_->sim.engine_load();
  l.active_jobs += impl_->source.queued();
  return l;
}

long SimEngine::submitted() const { return impl_->submitted; }

bool SimEngine::quiescent_until(SimTime t) const {
  return impl_->source.queued() == 0 && impl_->sim.quiescent_until(t);
}

SimResult simulate(const SimConfig& config, const Workload& workload,
                   Scheduler& scheduler) {
  if (config.stream.enabled) {
    WorkloadJobSource source(workload);
    return simulate_stream(config, source, scheduler);
  }
  Simulator sim(config, workload);
  return sim.run(scheduler);
}

SimResult simulate_stream(const SimConfig& config, JobSource& source,
                          Scheduler& scheduler) {
  Simulator sim(config, source);
  return sim.run(scheduler);
}

}  // namespace tetris::sim
