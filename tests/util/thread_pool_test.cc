// ThreadPool unit layer (DESIGN.md §14.5): lifecycle, exception
// propagation out of workers, and the deadlock-prone corners — empty
// batches and nested submits from inside a worker. All tests must also run
// clean under TSan (`ctest -L tsan`).
#include "util/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <mutex>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

namespace tetris::util {
namespace {

TEST(ThreadPoolTest, RejectsNonPositiveThreadCounts) {
  EXPECT_THROW(ThreadPool(0), std::invalid_argument);
  EXPECT_THROW(ThreadPool(-3), std::invalid_argument);
}

TEST(ThreadPoolTest, StartupAndShutdownWithoutWork) {
  // The destructor must join idle workers promptly: constructing and
  // destroying pools repeatedly may not deadlock or leak threads.
  for (int i = 0; i < 10; ++i) {
    ThreadPool pool(4);
    EXPECT_EQ(pool.num_threads(), 4);
  }
}

TEST(ThreadPoolTest, RunsEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  constexpr int kN = 1000;
  std::vector<std::atomic<int>> hits(kN);
  pool.parallel_for(kN, [&](int i) { hits[static_cast<std::size_t>(i)]++; });
  for (int i = 0; i < kN; ++i)
    EXPECT_EQ(hits[static_cast<std::size_t>(i)].load(), 1) << "index " << i;
}

TEST(ThreadPoolTest, ReusableAcrossBatches) {
  // The scheduler reuses one pool for every pass; state from one batch
  // must not bleed into the next.
  ThreadPool pool(3);
  for (int round = 0; round < 50; ++round) {
    std::atomic<int> sum{0};
    pool.parallel_for(round + 1, [&](int i) { sum += i + 1; });
    EXPECT_EQ(sum.load(), (round + 1) * (round + 2) / 2) << "round " << round;
  }
}

TEST(ThreadPoolTest, ZeroAndNegativeTaskCountsReturnImmediately) {
  ThreadPool pool(2);
  int calls = 0;
  pool.parallel_for(0, [&](int) { calls++; });
  pool.parallel_for(-5, [&](int) { calls++; });
  EXPECT_EQ(calls, 0);
  // The pool must still be usable afterwards.
  std::atomic<int> ran{0};
  pool.parallel_for(4, [&](int) { ran++; });
  EXPECT_EQ(ran.load(), 4);
}

TEST(ThreadPoolTest, PropagatesWorkerExceptionWithLowestIndex) {
  ThreadPool pool(4);
  // Several indices throw; the batch still completes every non-throwing
  // index, and the lowest failing index's exception surfaces.
  std::atomic<int> completed{0};
  try {
    pool.parallel_for(100, [&](int i) {
      if (i % 30 == 7) throw std::runtime_error("boom " + std::to_string(i));
      completed++;
    });
    FAIL() << "expected the worker exception to propagate";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "boom 7");
  }
  EXPECT_EQ(completed.load(), 96);  // 100 minus indices 7, 37, 67, 97
  // The pool survives a throwing batch.
  std::atomic<int> ran{0};
  pool.parallel_for(8, [&](int) { ran++; });
  EXPECT_EQ(ran.load(), 8);
}

TEST(ThreadPoolTest, NestedSubmitRunsInlineWithoutDeadlock) {
  // A nested parallel_for from inside a worker cannot wait on the pool —
  // every worker may already be busy in the outer batch — so it must run
  // inline on the submitting thread and still cover every index.
  ThreadPool pool(2);
  std::atomic<int> inner_total{0};
  pool.parallel_for(8, [&](int) {
    pool.parallel_for(5, [&](int j) { inner_total += j + 1; });
  });
  EXPECT_EQ(inner_total.load(), 8 * 15);
}

TEST(ThreadPoolTest, NestedSubmitPropagatesExceptions) {
  ThreadPool pool(2);
  std::atomic<int> outer_failures{0};
  pool.parallel_for(4, [&](int) {
    try {
      pool.parallel_for(3, [&](int j) {
        if (j == 1) throw std::logic_error("inner");
      });
    } catch (const std::logic_error&) {
      outer_failures++;
    }
  });
  EXPECT_EQ(outer_failures.load(), 4);
}

TEST(ThreadPoolTest, WorkIsSharedAcrossThreads) {
  // Not a scheduling guarantee — indices are claimed dynamically — but
  // with many slow tasks and several workers, more than one thread must
  // participate, or the pool is a pessimization.
  ThreadPool pool(4);
  std::mutex mu;
  std::set<std::thread::id> seen;
  pool.parallel_for(64, [&](int) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    std::lock_guard<std::mutex> lock(mu);
    seen.insert(std::this_thread::get_id());
  });
  EXPECT_GE(seen.size(), 2u);
}

}  // namespace
}  // namespace tetris::util
