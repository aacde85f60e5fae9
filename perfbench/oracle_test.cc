// The benchmark's own test: at a reduced size, every workload must pass
// the run checks and give one schedule digest on the default path,
// through the timing decorators, and on the naive oracle
// (naive_scoring + naive_scheduler_view). A decorator that dropped a
// forwarded virtual, or a digest that missed part of the schedule, shows
// up here as a mismatch.
//
// Usage: perfbench_oracle_test   (exit 0 = pass; also run by ctest)
#include <iostream>
#include <string>

#include "workloads.h"

using namespace tetris::perfbench;

namespace {

Size reduced_size(const std::string& name) {
  if (name == "batch_heavy") return {60, 10};
  if (name == "stream") return {150, 10};
  return {160, 64};  // fed16: E26's own size, 16 cells of 4 machines
}

}  // namespace

int main() {
  int failures = 0;
  for (const std::string& name : workload_names()) {
    for (std::uint64_t seed : {3, 11}) {
      const auto w = make_workload(name, seed, reduced_size(name));
      const RunOutcome plain = w->run(Mode::kPlain);
      const RunOutcome traced = w->run(Mode::kTraced);
      const RunOutcome naive = w->run(Mode::kNaive);
      std::string error = plain.error;
      if (error.empty()) error = traced.error;
      if (error.empty()) error = naive.error;
      if (error.empty() && plain.tasks != w->expected_tasks()) {
        error = "completed tasks differ from the workload's";
      }
      if (error.empty() && traced.digest != plain.digest) {
        error = "traced digest differs from untraced";
      }
      if (error.empty() && naive.digest != plain.digest) {
        error = "naive oracle digest differs from the default path";
      }
      if (error.empty() && !w->federated() && traced.layers.passes == 0) {
        error = "decorators saw no scheduling pass";
      }
      std::cout << (error.empty() ? "PASS " : "FAIL ") << name << " seed "
                << seed << " tasks " << plain.tasks << " digest "
                << plain.digest << (error.empty() ? "" : ": " + error)
                << "\n";
      if (!error.empty()) failures++;
    }
  }
  return failures == 0 ? 0 : 1;
}
