// Per-stage locality index (DESIGN.md §8.3): for every machine, the
// best-locality candidate among the first kMaxLocalityScan tasks of a
// stage's runnable order, kept current as that order changes instead of
// being recomputed per probe.
//
// The answer for machine m is the *first* window position holding the
// maximum local_fraction(task, m) over viable entries — exactly what the
// bounded per-probe scan returns (strict `>` argmax with an early exit at
// 1.0; the two agree because a local fraction never exceeds 1). Positions
// mirror the caller's runnable order: the caller reports every change to
// the order's first kMaxLocalityScan entries through push / replace /
// erase, and every viability change through revalidate.
#pragma once

#include <cstddef>
#include <vector>

#include "sim/spec.h"

namespace tetris::sim {

// Cap on candidate tasks considered per (stage, machine) probe when
// hunting for the best-locality task: the first kMaxLocalityScan entries
// of the stage's runnable order.
inline constexpr std::size_t kMaxLocalityScan = 24;

class CandidateIndex {
 public:
  // Empty window over a cluster of `machines` real machines. A
  // default-constructed index holds no memory; reset() precedes use.
  void reset(int machines);

  std::size_t size() const { return viable_.size(); }
  bool full() const { return size() >= kMaxLocalityScan; }

  // Window position of machine m's best candidate (-1 when no entry is
  // viable) and its local fraction (-1 when there is none).
  int best(MachineId m) const {
    return best_[static_cast<std::size_t>(m)];
  }
  double best_frac(MachineId m) const {
    return best_frac_[static_cast<std::size_t>(m)];
  }

  // Appends `spec` at position size(); requires !full().
  void push(const TaskSpec& spec, bool viable);
  // Position `pos` receives a task from outside the window.
  void replace(std::size_t pos, const TaskSpec& spec, bool viable);
  // Swap-and-pop: the window's last entry moves into `pos`.
  void erase(std::size_t pos);
  // Re-evaluates every entry's viability as viable(pos) and recomputes
  // every machine's answer; the locality rows are churn-independent and
  // stay as they are.
  template <class Viable>
  void revalidate(Viable&& viable) {
    for (std::size_t pos = 0; pos < size(); ++pos)
      viable_[pos] = viable(pos) ? 1 : 0;
    for (std::size_t m = 0; m < machines_; ++m) rescan(m);
  }

 private:
  // local_fraction(spec, m) for every machine into row `pos`.
  void fill_row(std::size_t pos, const TaskSpec& spec);
  // Machine m's answer from scratch: the bounded scan's argmax.
  void rescan(std::size_t m);
  // Entry `pos` is new at its position and every other entry kept its
  // place: it wins machines where it is strictly better, or as good at
  // an earlier position. A machine whose best was the entry it replaced
  // keeps `pos` if the newcomer is at least as good (nothing before `pos`
  // ties the old best, nothing after beats it), and rescans otherwise.
  void offer(std::size_t pos, std::size_t m);

  std::size_t machines_ = 0;
  std::vector<double> frac_;           // position-major: [pos * machines_ + m]
  std::vector<unsigned char> viable_;  // per position
  std::vector<int> best_;              // per machine
  std::vector<double> best_frac_;      // per machine
};

}  // namespace tetris::sim
