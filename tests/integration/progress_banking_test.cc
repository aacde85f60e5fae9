// Progress banking (DESIGN.md §4, "Rate recompute"): on the default path a
// refresh skips the tasks on quiet machines and logs the time instead, and
// each read of a task's progress first replays the logged times it missed.
// The naive view keeps the eager refresh, which banks every task on every
// dirty machine at every call. Progress is a piecewise sum, so a read that
// skips the replay gets a value off in its last bits. The schedules rarely
// show that: with the replay dropped at either of these two read sites,
// every golden digest and equivalence case still passed. So these tests
// compare what the reads feed, the lookahead's etas and the records of
// readers whose input failed over, on both paths.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "core/tetris_scheduler.h"
#include "sim/simulator.h"
#include "workload/facebook.h"
#include "workload/profiles.h"
#include "workload/suite.h"

namespace tetris {
namespace {

// The equivalence matrix's two generated loads on its 10-machine cluster.
sim::Workload facebook_load(std::uint64_t seed) {
  workload::FacebookConfig cfg;
  cfg.num_jobs = 30;
  cfg.num_machines = 10;
  cfg.task_scale = 0.3;
  cfg.arrival_window = 250.0;
  cfg.seed = seed;
  return workload::make_facebook_workload(cfg);
}

sim::Workload suite_load(std::uint64_t seed) {
  workload::SuiteConfig cfg;
  cfg.num_jobs = 24;
  cfg.num_machines = 10;
  cfg.task_scale = 0.04;
  cfg.arrival_window = 250.0;
  cfg.seed = seed;
  return workload::make_suite_workload(cfg);
}

sim::SimConfig cluster(bool naive) {
  sim::SimConfig cfg;
  cfg.num_machines = 10;
  cfg.machine_capacity = workload::facebook_machine();
  cfg.tracker = sim::TrackerMode::kUsage;
  cfg.naive_scheduler_view = naive;
  return cfg;
}

// Forwards every call to the simulator's context and records the eta of
// each group imminent_groups() returns.
class EtaRecordingContext final : public sim::SchedulerContext {
 public:
  EtaRecordingContext(sim::SchedulerContext& inner, std::vector<double>& etas)
      : inner_(inner), etas_(etas) {}

  SimTime now() const override { return inner_.now(); }
  int num_machines() const override { return inner_.num_machines(); }
  const Resources& capacity(sim::MachineId m) const override {
    return inner_.capacity(m);
  }
  const Resources& cluster_capacity() const override {
    return inner_.cluster_capacity();
  }
  Resources available(sim::MachineId m) const override {
    return inner_.available(m);
  }
  int running_tasks_on(sim::MachineId m) const override {
    return inner_.running_tasks_on(m);
  }
  bool machine_up(sim::MachineId m) const override {
    return inner_.machine_up(m);
  }
  bool constraints_admit(const sim::GroupRef& group,
                         sim::MachineId m) const override {
    return inner_.constraints_admit(group, m);
  }
  sim::JobId retired_before() const override {
    return inner_.retired_before();
  }
  std::vector<sim::GroupView> runnable_groups() const override {
    return inner_.runnable_groups();
  }
  std::vector<sim::JobView> active_jobs() const override {
    return inner_.active_jobs();
  }
  std::vector<sim::GroupView> imminent_groups() const override {
    std::vector<sim::GroupView> groups = inner_.imminent_groups();
    for (const auto& g : groups) etas_.push_back(g.eta);
    return groups;
  }
  sim::Probe probe(const sim::GroupRef& group,
                   sim::MachineId machine) const override {
    return inner_.probe(group, machine);
  }
  void probe_into(const sim::GroupRef& group, sim::MachineId machine,
                  sim::Probe* out) const override {
    inner_.probe_into(group, machine, out);
  }
  bool place(const sim::Probe& probe) override { return inner_.place(probe); }
  std::vector<sim::RunningTaskView> running_tasks() const override {
    return inner_.running_tasks();
  }
  bool preempt(int task_uid) override { return inner_.preempt(task_uid); }
  util::PerfCounters* perf_counters() override {
    return inner_.perf_counters();
  }
  trace::Recorder* tracer() override { return inner_.tracer(); }

 private:
  sim::SchedulerContext& inner_;
  std::vector<double>& etas_;
};

// Tetris with a 15-second lookahead, which reads imminent_groups() once
// per pass, seen through an EtaRecordingContext.
class EtaRecordingTetris final : public sim::Scheduler {
 public:
  EtaRecordingTetris() : inner_([] {
    core::TetrisConfig t;
    t.future_lookahead = 15;
    return t;
  }()) {}

  std::string name() const override { return inner_.name(); }
  void schedule(sim::SchedulerContext& ctx) override {
    EtaRecordingContext recording(ctx, etas);
    inner_.schedule(recording);
  }

  std::vector<double> etas;

 private:
  core::TetrisScheduler inner_;
};

std::vector<double> lookahead_etas(const sim::Workload& w, bool naive) {
  EtaRecordingTetris sched;
  const sim::SimResult r = sim::simulate(cluster(naive), w, sched);
  EXPECT_TRUE(r.completed);
  return sched.etas;
}

void expect_same_etas(const std::string& load, const std::vector<double>& eager,
                      const std::vector<double>& got) {
  ASSERT_EQ(eager.size(), got.size()) << load;
  for (std::size_t i = 0; i < eager.size(); ++i) {
    ASSERT_EQ(eager[i], got[i]) << load << ": eta " << i << " of "
                                << eager.size();
  }
}

TEST(ProgressBanking, LookaheadEtasMatchTheEagerRefresh) {
  std::size_t etas = 0;
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    for (const bool facebook : {true, false}) {
      const sim::Workload w = facebook ? facebook_load(seed) : suite_load(seed);
      const std::string load = std::string(facebook ? "facebook" : "suite") +
                               " seed " + std::to_string(seed);
      const std::vector<double> eager = lookahead_etas(w, /*naive=*/true);
      expect_same_etas(load, eager, lookahead_etas(w, /*naive=*/false));
      etas += eager.size();
    }
  }
  EXPECT_GT(etas, 1000u);
}

TEST(ProgressBanking, FailoverRecordsMatchTheEagerRefresh) {
  long failovers = 0;
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    const sim::Workload w = facebook_load(seed);
    const auto run = [&](bool naive) {
      sim::SimConfig cfg = cluster(naive);
      cfg.seed = seed;
      cfg.churn.mttf = 400;
      cfg.churn.mttr = 60;
      core::TetrisScheduler sched;
      return sim::simulate(cfg, w, sched);
    };
    const sim::SimResult eager = run(/*naive=*/true);
    const sim::SimResult r = run(/*naive=*/false);
    SCOPED_TRACE("seed " + std::to_string(seed));
    EXPECT_EQ(eager.churn.read_failovers, r.churn.read_failovers);
    EXPECT_EQ(eager.makespan, r.makespan);
    ASSERT_EQ(eager.tasks.size(), r.tasks.size());
    for (std::size_t i = 0; i < eager.tasks.size(); ++i) {
      const auto& a = eager.tasks[i];
      const auto& b = r.tasks[i];
      EXPECT_EQ(a.job, b.job) << "task " << i;
      EXPECT_EQ(a.stage, b.stage) << "task " << i;
      EXPECT_EQ(a.index, b.index) << "task " << i;
      EXPECT_EQ(a.host, b.host) << "task " << i;
      EXPECT_EQ(a.start, b.start) << "task " << i;
      EXPECT_EQ(a.finish, b.finish) << "task " << i;
      EXPECT_EQ(a.attempts, b.attempts) << "task " << i;
    }
    failovers += r.churn.read_failovers;
  }
  // Without a failover the second site is never read.
  EXPECT_GT(failovers, 0);
}

}  // namespace
}  // namespace tetris
