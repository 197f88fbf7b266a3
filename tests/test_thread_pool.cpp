// Regression tests for ThreadPool::parallel_for_index, in particular the
// exception contract: a throwing body must propagate its exception to the
// caller instead of deadlocking the loop (or terminating a worker), and the
// pool must stay usable afterwards.
#include <atomic>
#include <chrono>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "util/thread_pool.hpp"

namespace rta {
namespace {

TEST(ThreadPool, ParallelForCoversEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  for (const std::size_t count : {std::size_t{1}, std::size_t{7},
                                  std::size_t{64}, std::size_t{1000}}) {
    std::vector<std::atomic<int>> visits(count);
    pool.parallel_for_index(count, [&](std::size_t i) {
      visits[i].fetch_add(1, std::memory_order_relaxed);
    });
    for (std::size_t i = 0; i < count; ++i) {
      EXPECT_EQ(visits[i].load(), 1) << "count " << count << " index " << i;
    }
  }
}

TEST(ThreadPool, ResultsIndependentOfWorkerCount) {
  constexpr std::size_t kCount = 257;
  std::vector<long long> reference(kCount);
  for (std::size_t i = 0; i < kCount; ++i) {
    reference[i] = static_cast<long long>(i * i + 3 * i);
  }
  for (const std::size_t workers : {std::size_t{1}, std::size_t{2},
                                    std::size_t{8}}) {
    ThreadPool pool(workers);
    std::vector<long long> out(kCount, -1);
    pool.parallel_for_index(kCount, [&](std::size_t i) {
      out[i] = static_cast<long long>(i * i + 3 * i);
    });
    EXPECT_EQ(out, reference) << "workers " << workers;
  }
}

// A pool's width is its whole concurrency: width - 1 helpers plus the
// calling thread, so a width-w loop never has more than w bodies in flight.
TEST(ThreadPool, WidthBoundsBodiesInFlight) {
  for (const std::size_t width : {std::size_t{1}, std::size_t{2},
                                  std::size_t{4}}) {
    ThreadPool pool(width);
    std::atomic<int> in_flight{0};
    std::atomic<int> peak{0};
    pool.parallel_for_index(64, [&](std::size_t) {
      const int now = in_flight.fetch_add(1) + 1;
      int seen = peak.load();
      while (now > seen && !peak.compare_exchange_weak(seen, now)) {
      }
      std::this_thread::sleep_for(std::chrono::microseconds(200));
      in_flight.fetch_sub(1);
    });
    EXPECT_GE(peak.load(), 1) << "width " << width;
    EXPECT_LE(peak.load(), static_cast<int>(width)) << "width " << width;
  }
}

// The original deadlock scenario: a body throws while sibling shards are
// still pulling indices. The exception must surface on the calling thread
// and the wait must terminate.
TEST(ThreadPool, ExceptionPropagatesWithoutDeadlock) {
  ThreadPool pool(4);
  std::atomic<int> ran{0};
  EXPECT_THROW(
      pool.parallel_for_index(100,
                              [&](std::size_t i) {
                                ran.fetch_add(1, std::memory_order_relaxed);
                                if (i == 13) {
                                  throw std::runtime_error("boom at 13");
                                }
                              }),
      std::runtime_error);
  // Some indices may be abandoned after the throw, but none run twice and
  // the throwing index itself ran.
  EXPECT_GE(ran.load(), 1);
  EXPECT_LE(ran.load(), 100);
}

TEST(ThreadPool, ExceptionMessageIsTheFirstFailure) {
  ThreadPool pool(2);
  try {
    pool.parallel_for_index(1, [](std::size_t) {
      throw std::runtime_error("solo failure");
    });
    FAIL() << "expected throw";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "solo failure");
  }
}

TEST(ThreadPool, PoolSurvivesAnException) {
  ThreadPool pool(4);
  for (int round = 0; round < 5; ++round) {
    EXPECT_THROW(pool.parallel_for_index(
                     50, [](std::size_t i) {
                       if (i % 7 == 3) throw std::logic_error("recurring");
                     }),
                 std::logic_error);
    // Immediately after a failed loop the pool must run a clean one.
    std::atomic<long long> sum{0};
    pool.parallel_for_index(100, [&](std::size_t i) {
      sum.fetch_add(static_cast<long long>(i), std::memory_order_relaxed);
    });
    EXPECT_EQ(sum.load(), 4950);
  }
}

// Nested parallel_for_index: every outer body starts an inner loop on the
// same pool. The caller-participates design means this completes even when
// the outer loop occupies every worker.
TEST(ThreadPool, NestedLoopsMakeProgress) {
  ThreadPool pool(2);
  constexpr std::size_t kOuter = 8;
  constexpr std::size_t kInner = 16;
  std::vector<std::atomic<int>> cells(kOuter * kInner);
  pool.parallel_for_index(kOuter, [&](std::size_t o) {
    pool.parallel_for_index(kInner, [&, o](std::size_t i) {
      cells[o * kInner + i].fetch_add(1, std::memory_order_relaxed);
    });
  });
  for (const auto& c : cells) EXPECT_EQ(c.load(), 1);
}

TEST(ThreadPool, ExceptionInsideNestedLoopPropagatesToOuterCaller) {
  ThreadPool pool(2);
  EXPECT_THROW(pool.parallel_for_index(4,
                                       [&](std::size_t o) {
                                         pool.parallel_for_index(
                                             4, [o](std::size_t i) {
                                               if (o == 2 && i == 2) {
                                                 throw std::runtime_error(
                                                     "nested");
                                               }
                                             });
                                       }),
               std::runtime_error);
}

TEST(ThreadPool, ZeroCountIsANoOp) {
  ThreadPool pool(2);
  bool ran = false;
  pool.parallel_for_index(0, [&](std::size_t) { ran = true; });
  EXPECT_FALSE(ran);
}

TEST(ThreadPool, StatsCountCleanLoops) {
  ThreadPool pool(3);
  const ThreadPool::Stats before = pool.stats();
  EXPECT_EQ(before.loops, 0u);
  EXPECT_EQ(before.indices_executed, 0u);
  EXPECT_EQ(before.worker_busy_ns.size(), 2u);  // width 3: two helpers

  pool.parallel_for_index(64, [](std::size_t) {});
  pool.parallel_for_index(10, [](std::size_t) {});
  const ThreadPool::Stats after = pool.stats();
  EXPECT_EQ(after.loops, 2u);
  EXPECT_EQ(after.indices_executed, 74u);
  EXPECT_EQ(after.indices_abandoned, 0u);
}

// The exception path must keep the books balanced: every index of the loop
// is either executed (ran to completion or threw) or abandoned, and the
// counts are final by the time parallel_for_index returns.
TEST(ThreadPool, StatsAccountForEveryIndexAfterAnException) {
  ThreadPool pool(4);
  for (int round = 0; round < 5; ++round) {
    const ThreadPool::Stats before = pool.stats();
    EXPECT_THROW(pool.parallel_for_index(
                     200,
                     [](std::size_t i) {
                       if (i == 50) throw std::runtime_error("boom at 50");
                     }),
                 std::runtime_error);
    const ThreadPool::Stats after = pool.stats();
    EXPECT_EQ(after.loops, before.loops + 1);
    const std::uint64_t executed =
        after.indices_executed - before.indices_executed;
    const std::uint64_t abandoned =
        after.indices_abandoned - before.indices_abandoned;
    EXPECT_EQ(executed + abandoned, 200u);
    EXPECT_GE(executed, 1u);  // the throwing index itself ran
  }
}

TEST(ThreadPool, StatsQueueHighWaterAndBusyTimeAdvance) {
  ThreadPool pool(2);
  std::atomic<int> sink{0};
  pool.parallel_for_index(256, [&](std::size_t) {
    // Enough work per index for the workers to pick up tasks.
    for (int i = 0; i < 1000; ++i) {
      sink.fetch_add(1, std::memory_order_relaxed);
    }
  });
  const ThreadPool::Stats s = pool.stats();
  EXPECT_EQ(s.indices_executed, 256u);
  // The loop submits one helper task per worker at most.
  EXPECT_LE(s.queue_high_water, 2u);
  EXPECT_LE(s.tasks_executed, 2u);
}

TEST(ForEachIndex, NullPoolRunsInlineInOrder) {
  std::vector<std::size_t> order;
  for_each_index(nullptr, 5, [&](std::size_t i) { order.push_back(i); });
  EXPECT_EQ(order, (std::vector<std::size_t>{0, 1, 2, 3, 4}));
}

TEST(ForEachIndex, NullPoolPropagatesExceptions) {
  EXPECT_THROW(for_each_index(nullptr, 3,
                              [](std::size_t i) {
                                if (i == 1) throw std::runtime_error("inline");
                              }),
               std::runtime_error);
}

}  // namespace
}  // namespace rta
