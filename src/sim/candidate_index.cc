#include "sim/candidate_index.h"

#include <algorithm>

namespace tetris::sim {

void CandidateIndex::reset(int machines) {
  machines_ = static_cast<std::size_t>(machines);
  frac_.clear();
  viable_.clear();
  best_.assign(machines_, -1);
  best_frac_.assign(machines_, -1.0);
}

void CandidateIndex::fill_row(std::size_t pos, const TaskSpec& spec) {
  // Accumulate each machine's local bytes split-major — the exact
  // addition order local_fraction() uses per machine — then divide, so
  // every value is bit-identical to that function's.
  double* local = frac_.data() + pos * machines_;
  std::fill(local, local + machines_, 0.0);
  double total = 0;
  for (const auto& split : spec.inputs) {
    if (split.bytes <= 0) continue;
    total += split.bytes;
    if (split.replicas.empty()) {
      // Generated input: local everywhere, costing no remote read.
      for (std::size_t m = 0; m < machines_; ++m) local[m] += split.bytes;
      continue;
    }
    for (auto it = split.replicas.begin(); it != split.replicas.end(); ++it) {
      // First occurrence only: local_fraction() counts a split once per
      // machine however many times a replica repeats.
      if (std::find(split.replicas.begin(), it, *it) != it) continue;
      if (*it >= 0 && static_cast<std::size_t>(*it) < machines_)
        local[static_cast<std::size_t>(*it)] += split.bytes;
    }
  }
  if (total > 0) {
    for (std::size_t m = 0; m < machines_; ++m) local[m] /= total;
  } else {
    std::fill(local, local + machines_, 1.0);
  }
}

void CandidateIndex::rescan(std::size_t m) {
  int best = -1;
  double best_frac = -1;
  for (std::size_t pos = 0; pos < size(); ++pos) {
    if (!viable_[pos]) continue;
    const double frac = frac_[pos * machines_ + m];
    if (frac > best_frac) {
      best_frac = frac;
      best = static_cast<int>(pos);
    }
    if (best_frac >= 1.0) break;
  }
  best_[m] = best;
  best_frac_[m] = best_frac;
}

void CandidateIndex::offer(std::size_t pos, std::size_t m) {
  const double frac = frac_[pos * machines_ + m];
  const int p = static_cast<int>(pos);
  if (best_[m] == p) {
    if (viable_[pos] && frac >= best_frac_[m]) {
      best_frac_[m] = frac;
    } else {
      rescan(m);
    }
    return;
  }
  if (!viable_[pos]) return;
  if (frac > best_frac_[m] || (frac == best_frac_[m] && p < best_[m])) {
    best_[m] = p;
    best_frac_[m] = frac;
  }
}

void CandidateIndex::push(const TaskSpec& spec, bool viable) {
  const std::size_t pos = size();
  frac_.resize((pos + 1) * machines_);
  viable_.push_back(viable ? 1 : 0);
  fill_row(pos, spec);
  for (std::size_t m = 0; m < machines_; ++m) offer(pos, m);
}

void CandidateIndex::replace(std::size_t pos, const TaskSpec& spec,
                             bool viable) {
  fill_row(pos, spec);
  viable_[pos] = viable ? 1 : 0;
  for (std::size_t m = 0; m < machines_; ++m) offer(pos, m);
}

void CandidateIndex::erase(std::size_t pos) {
  const std::size_t last = size() - 1;
  if (pos != last) {
    std::copy_n(frac_.data() + last * machines_, machines_,
                frac_.data() + pos * machines_);
    viable_[pos] = viable_[last];
  }
  frac_.resize(last * machines_);
  viable_.pop_back();
  // A machine whose best was the moved entry re-finds it, as good and
  // now earlier, through offer() like any other newcomer.
  const int p = static_cast<int>(pos);
  for (std::size_t m = 0; m < machines_; ++m) {
    if (pos != last) {
      offer(pos, m);
    } else if (best_[m] == p) {
      rescan(m);  // the best candidate left, nothing took its place
    }
  }
}

}  // namespace tetris::sim
