// The benchmark's three workloads and the forwarding decorators that time
// the calls into each layer from outside the program (README.md in this
// directory has the metric -> layer -> workload map).
//
// Every workload drives one public entry point with default knobs and one
// thread: sim::simulate (batch_heavy), sim::simulate_stream (stream) and
// federation::simulate_federated (fed16). Inputs are a pure function of
// the seed, so repeated runs in one process do identical work and must
// produce identical schedules.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "sim/job_source.h"
#include "sim/scheduler.h"
#include "util/perf_counters.h"

namespace tetris::perfbench {

// Host time and call counts at the layer boundaries, filled by the
// decorators below. available() is only counted: it is called millions of
// times per run, and reading the clock around each call would cost more
// than the call itself.
struct LayerStats {
  double schedule_s = 0;
  long passes = 0;
  double probe_s = 0;
  long probe_calls = 0;
  long available_calls = 0;
  double runnable_groups_s = 0;
  long runnable_groups_calls = 0;
  double active_jobs_s = 0;
  long active_jobs_calls = 0;
  double place_s = 0;
  long place_calls = 0;
  long place_ok = 0;
  double take_reports_s = 0;
  double pull_s = 0;  // JobSource::peek + next
  long pull_calls = 0;

  // Time inside schedule() not spent in the timed context calls.
  double scan_self_s() const {
    return schedule_s - probe_s - runnable_groups_s - active_jobs_s -
           place_s - take_reports_s;
  }
};

// Forwards every virtual of the wrapped context, so the scheduler keeps
// its fast paths (SoA planes, perf and trace sinks), and times the calls
// that do real work.
class TimedContext final : public sim::SchedulerContext {
 public:
  TimedContext(sim::SchedulerContext& inner, LayerStats& stats)
      : inner_(inner), stats_(stats) {}

  SimTime now() const override;
  int num_machines() const override;
  const Resources& capacity(sim::MachineId m) const override;
  const Resources& cluster_capacity() const override;
  Resources available(sim::MachineId m) const override;
  int running_tasks_on(sim::MachineId m) const override;
  const util::ResourcePlanes* availability_planes() const override;
  const util::ResourcePlanes* capacity_planes() const override;
  bool machine_up(sim::MachineId m) const override;
  bool constraints_admit(const sim::GroupRef& group,
                         sim::MachineId m) const override;
  sim::JobId retired_before() const override;
  std::vector<sim::GroupView> runnable_groups() const override;
  std::vector<sim::JobView> active_jobs() const override;
  std::vector<sim::GroupView> imminent_groups() const override;
  sim::Probe probe(const sim::GroupRef& group,
                   sim::MachineId machine) const override;
  void probe_into(const sim::GroupRef& group, sim::MachineId machine,
                  sim::Probe* out) const override;
  bool place(const sim::Probe& probe) override;
  std::vector<sim::RunningTaskView> running_tasks() const override;
  bool preempt(int task_uid) override;
  std::vector<sim::TaskReport> take_reports() override;
  util::PerfCounters* perf_counters() override;
  trace::Recorder* tracer() override;

 private:
  sim::SchedulerContext& inner_;
  LayerStats& stats_;
};

// Times each scheduling pass and hands the scheduler a TimedContext.
class TimedScheduler final : public sim::Scheduler {
 public:
  TimedScheduler(sim::Scheduler& inner, LayerStats& stats)
      : inner_(inner), stats_(stats) {}

  std::string name() const override { return inner_.name(); }
  void schedule(sim::SchedulerContext& ctx) override;

 private:
  sim::Scheduler& inner_;
  LayerStats& stats_;
};

// Times the streaming engine's pulls from its job source.
class TimedSource final : public sim::JobSource {
 public:
  TimedSource(sim::JobSource& inner, LayerStats& stats)
      : inner_(inner), stats_(stats) {}

  long total_jobs() const override { return inner_.total_jobs(); }
  bool peek(sim::JobPeek& out) override;
  bool next(sim::JobSpec& out) override;

 private:
  sim::JobSource& inner_;
  LayerStats& stats_;
};

// How one run drives the entry point.
enum class Mode {
  kPlain,   // untraced: no decorators
  kTraced,  // decorators around scheduler, context and job source
  kNaive,   // naive_scoring + naive_scheduler_view oracle, untraced
};

// Outcome of one run, with the checks applied.
struct RunOutcome {
  std::string error;  // empty when every check passed
  double wall_s = 0;  // host time of the entry-point call
  long tasks = 0;     // task records of completed tasks
  std::uint64_t digest = 0;
  double makespan = 0;  // simulated seconds
  double avg_jct = 0;   // simulated seconds
  // Host seconds of every scheduling pass in order (SimResult::pass_samples,
  // exact; on fed16 cell after cell), and whether it started with a
  // non-empty backlog.
  std::vector<double> pass_seconds;
  std::vector<bool> pass_busy;
  util::PerfCounters perf;
  LayerStats layers;  // zero unless traced (never on fed16)
  // Sum over every cell (or the one global simulator) of the simulator's
  // own schedule() timing and pass count.
  double sim_schedule_s = 0;
  long sim_passes = 0;
};

struct Size {
  int jobs = 0;
  int machines = 0;
};

class Workload {
 public:
  virtual ~Workload() = default;
  Workload() = default;
  Workload(const Workload&) = delete;
  Workload& operator=(const Workload&) = delete;

  virtual RunOutcome run(Mode mode) const = 0;
  virtual bool federated() const { return false; }

  long expected_tasks() const { return expected_tasks_; }
  double gen_s() const { return gen_s_; }

 protected:
  long expected_tasks_ = 0;
  double gen_s_ = 0;  // host time generating the inputs
};

const std::vector<std::string>& workload_names();
Size default_size(const std::string& name);

// Generates the inputs and cluster config of `name` for `seed`. Throws
// std::invalid_argument on an unknown name.
std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed, Size size);

}  // namespace tetris::perfbench
