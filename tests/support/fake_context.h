// A hand-rolled SchedulerContext for unit tests: fixed machines, fixed
// task groups with explicit per-(group, machine) demands, and a recorded
// placement log. Lets tests pin down scheduler decision logic (ordering,
// admission, fairness cuts) without running the simulator.
#pragma once

#include <map>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "sim/scheduler.h"

namespace tetris::test {

class FakeContext final : public sim::SchedulerContext {
 public:
  struct FakeGroup {
    sim::GroupView view;
    // Demand when placed on machine m; defaults to view.est_demand.
    std::map<sim::MachineId, Resources> demand_on;
    std::map<sim::MachineId, std::vector<sim::RemoteLeg>> remote_on;
    std::map<sim::MachineId, double> local_fraction_on;
  };

  explicit FakeContext(std::vector<Resources> machine_caps)
      : caps_(std::move(machine_caps)), avail_(caps_) {
    for (const auto& cap : caps_) cluster_capacity_ += cap;
  }

  // --- setup ---
  FakeGroup& add_group(sim::JobId job, int stage, int runnable,
                       const Resources& demand, double duration = 10) {
    sim::JobView* jv = nullptr;
    for (auto& j : jobs_) {
      if (j.id == job) jv = &j;
    }
    if (jv == nullptr) {
      sim::JobView j;
      j.id = job;
      jobs_.push_back(j);
      jv = &jobs_.back();
    }
    jv->runnable_tasks += runnable;
    jv->total_tasks += runnable;

    FakeGroup g;
    g.view.ref = {job, stage};
    g.view.runnable = runnable;
    g.view.total = runnable;
    g.view.est_demand = demand;
    g.view.est_duration = duration;
    g.view.est_task_work =
        demand.normalized_by(caps_.at(0)).sum() * duration;
    groups_.push_back(std::move(g));
    return groups_.back();
  }

  sim::JobView& job(sim::JobId id) {
    for (auto& j : jobs_) {
      if (j.id == id) return j;
    }
    throw std::out_of_range("no such job");
  }

  void set_available(sim::MachineId m, const Resources& avail) {
    avail_.at(static_cast<std::size_t>(m)) = avail;
  }
  void add_imminent(const sim::GroupView& v) { imminent_.push_back(v); }

  // --- SchedulerContext ---
  SimTime now() const override { return now_; }
  void set_now(SimTime t) { now_ = t; }
  int num_machines() const override { return static_cast<int>(caps_.size()); }
  const Resources& capacity(sim::MachineId m) const override {
    return caps_.at(static_cast<std::size_t>(m));
  }
  const Resources& cluster_capacity() const override {
    return cluster_capacity_;
  }
  Resources available(sim::MachineId m) const override {
    return avail_.at(static_cast<std::size_t>(m));
  }
  int running_tasks_on(sim::MachineId) const override { return 0; }
  bool machine_up(sim::MachineId m) const override {
    return down_.count(m) == 0;
  }
  void set_machine_up(sim::MachineId m, bool up) {
    if (up) {
      down_.erase(m);
    } else {
      down_.insert(m);
    }
  }

  std::vector<sim::GroupView> runnable_groups() const override {
    std::vector<sim::GroupView> out;
    for (const auto& g : groups_) {
      if (g.view.runnable > 0) out.push_back(g.view);
    }
    return out;
  }
  std::vector<sim::JobView> active_jobs() const override { return jobs_; }
  std::vector<sim::GroupView> imminent_groups() const override {
    return imminent_;
  }

  sim::Probe probe(const sim::GroupRef& ref,
                   sim::MachineId machine) const override {
    probes_++;
    sim::Probe p;
    p.group = ref;
    p.machine = machine;
    for (const auto& g : groups_) {
      if (!(g.view.ref == ref) || g.view.runnable <= 0) continue;
      p.valid = true;
      p.task_index = g.view.total - g.view.runnable;  // next unplaced
      const auto it = g.demand_on.find(machine);
      p.demand = it != g.demand_on.end() ? it->second : g.view.est_demand;
      if (const auto rit = g.remote_on.find(machine);
          rit != g.remote_on.end()) {
        p.remote = rit->second;
      }
      if (const auto lit = g.local_fraction_on.find(machine);
          lit != g.local_fraction_on.end()) {
        p.local_fraction = lit->second;
      }
      p.duration = g.view.est_duration;
      p.task_work = g.view.est_task_work;
      return p;
    }
    return p;
  }

  bool place(const sim::Probe& p) override {
    for (auto& g : groups_) {
      if (!(g.view.ref == p.group)) continue;
      if (g.view.runnable <= 0) return false;
      g.view.runnable--;
      auto& avail = avail_.at(static_cast<std::size_t>(p.machine));
      avail = (avail - p.demand).max_zero();
      for (const auto& leg : p.remote) {
        auto& ravail = avail_.at(static_cast<std::size_t>(leg.machine));
        ravail = (ravail - sim::leg_resources(leg)).max_zero();
      }
      for (auto& j : jobs_) {
        if (j.id == p.group.job) {
          j.current_alloc += p.demand;
          j.running_tasks++;
          j.runnable_tasks--;
        }
      }
      placements.push_back(p);
      return true;
    }
    return false;
  }

  std::vector<sim::RunningTaskView> running_tasks() const override {
    return running_;
  }
  bool preempt(int task_uid) override {
    for (std::size_t i = 0; i < running_.size(); ++i) {
      if (running_[i].uid == task_uid) {
        preempted.push_back(task_uid);
        auto& avail = avail_.at(static_cast<std::size_t>(
            running_[i].machine));
        avail += running_[i].demand;
        running_.erase(running_.begin() + static_cast<long>(i));
        return true;
      }
    }
    return false;
  }
  void add_running(const sim::RunningTaskView& v) { running_.push_back(v); }

  trace::Recorder* tracer() override { return tracer_; }
  void set_tracer(trace::Recorder* tracer) { tracer_ = tracer; }

  // --- inspection ---
  std::vector<sim::Probe> placements;
  std::vector<int> preempted;
  long probe_count() const { return probes_; }

 private:
  std::vector<Resources> caps_;
  std::vector<Resources> avail_;
  Resources cluster_capacity_;
  std::vector<FakeGroup> groups_;
  std::vector<sim::JobView> jobs_;
  std::vector<sim::GroupView> imminent_;
  std::vector<sim::RunningTaskView> running_;
  std::set<sim::MachineId> down_;
  SimTime now_ = 0;
  trace::Recorder* tracer_ = nullptr;
  mutable long probes_ = 0;
};

}  // namespace tetris::test
