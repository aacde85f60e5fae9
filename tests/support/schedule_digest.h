// Schedule digest: FNV-1a over (job, stage, index, host, start, finish) of
// every task record, in record order, then the makespan. Doubles enter by
// their bits, so two digests are equal only for bit-identical schedules.
// The same digest as perfbench's, so a golden here and a perfbench digest
// of the same run agree.
#pragma once

#include <cstdint>
#include <cstring>
#include <vector>

#include "sim/result.h"

namespace tetris::test {

class Fnv1a {
 public:
  template <class T>
  void add(T v) {
    unsigned char bytes[sizeof(T)];
    std::memcpy(bytes, &v, sizeof(T));
    for (unsigned char b : bytes) {
      h_ = (h_ ^ b) * 1099511628211ULL;
    }
  }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 14695981039346656037ULL;
};

inline std::uint64_t schedule_digest(const std::vector<sim::TaskRecord>& tasks,
                                     double makespan) {
  Fnv1a d;
  for (const sim::TaskRecord& t : tasks) {
    d.add(t.job);
    d.add(t.stage);
    d.add(t.index);
    d.add(t.host);
    d.add(t.start);
    d.add(t.finish);
  }
  d.add(makespan);
  return d.value();
}

}  // namespace tetris::test
