// Fixed-size thread pool for the federated simulator's per-cell fan-out
// (DESIGN.md §14.5): one blocking parallel_for at a time, no task queue,
// no work stealing. Workers are started once and reused across arrival
// and kill events — thread creation per event would dwarf the advance it
// runs.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace tetris::util {

// parallel_for(n, fn) runs fn(0) .. fn(n-1) across the pool's workers
// plus the calling thread and returns once every index completed. If any
// indices threw, the exception of the lowest-numbered failing index is
// rethrown (the rest of the batch still runs to completion first, so the
// caller never races a half-finished batch). A parallel_for issued from
// inside a worker — a nested submit — runs inline on that worker instead
// of blocking on pool threads that may never free up, so it cannot
// deadlock. n == 0 returns immediately without touching the pool.
class ThreadPool {
 public:
  // Starts `num_threads` (>= 1) workers immediately.
  explicit ThreadPool(int num_threads);
  // Joins all workers; must not be called while a parallel_for is live.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int num_threads() const { return static_cast<int>(workers_.size()); }

  void parallel_for(int n, const std::function<void(int)>& fn);

  // Barrier helper for callers with an *optional* pool (DESIGN.md §14.5):
  // fans fn(0) .. fn(n-1) out on `pool` when one is given, or runs them
  // inline on the calling thread when `pool` is null. Either way it
  // returns only after every index completed — the code after the call
  // observes exactly the state a serial loop would have produced, which
  // is what lets the federated driver swap its per-cell advance loop for
  // a pool fan-out without perturbing anything downstream.
  static void run_barrier(ThreadPool* pool, int n,
                          const std::function<void(int)>& fn);

 private:
  // One batch lives on the caller's stack for the duration of its
  // parallel_for; batch_ is nulled before the call returns, so a worker
  // waking late sees nullptr rather than a dangling frame.
  struct Batch {
    const std::function<void(int)>* fn = nullptr;
    int n = 0;
    std::atomic<int> next{0};  // next unclaimed index
    int in_flight = 0;         // workers currently inside the batch
    std::exception_ptr error;
    int error_index = 0;
  };

  void worker_loop();
  void drain(Batch& b);

  std::mutex mu_;
  std::condition_variable work_cv_;  // workers: a new batch was published
  std::condition_variable done_cv_;  // caller: a worker left the batch
  Batch* batch_ = nullptr;
  std::uint64_t epoch_ = 0;  // bumped per batch so workers run each once
  bool stop_ = false;
  std::vector<std::thread> workers_;
};

}  // namespace tetris::util
