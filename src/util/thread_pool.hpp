// Fixed-size worker pool for embarrassingly-parallel work: Monte-Carlo
// evaluation (eval/experiment.cpp), the parallel analysis engines
// (analysis/bounds.cpp, analysis/iterative.cpp), region probe columns
// (service/region.cpp) and tenant shards (service/sharded_scheduler.cpp).
// parallel_for_index is its one entry point.
//
// Determinism contract: parallel_for_index hands each index to exactly one
// shard; bodies write only per-index state (callers derive per-index RNG
// streams from util/rng.hpp where randomness is involved), so the results do
// not depend on the number of workers or on scheduling order.
//
// Exception contract: the first exception thrown by a body is captured and
// rethrown on the calling thread after every in-flight index has retired;
// remaining unstarted indices are abandoned. The pool itself survives and
// stays usable. The calling thread always participates as a shard, so a loop
// makes progress even when every worker is busy (nested parallel_for_index
// cannot deadlock).
//
// Locking protocol (proved by -Wthread-safety on Clang, see
// util/thread_annotations.hpp): the task queue, the stop flag, and the
// queue high-water mark are guarded by mutex_; a loop's first-exception
// slot is guarded by its ForState mutex. Everything else is atomics.
#pragma once

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <queue>
#include <thread>
#include <vector>

#include "util/thread_annotations.hpp"

namespace rta {

/// A minimal task-queue thread pool.
class ThreadPool {
 public:
  /// Monotone lifetime counters; snapshot via stats(). Exists so the
  /// exception path of parallel_for_index is observable: indices handed out
  /// and completed vs. abandoned after a throw always satisfy
  /// indices_executed + indices_abandoned == sum of loop counts.
  struct Stats {
    std::uint64_t tasks_executed = 0;     ///< queue tasks run by workers
    std::uint64_t loops = 0;              ///< parallel_for_index calls
    std::uint64_t indices_executed = 0;   ///< loop bodies that completed/threw
    std::uint64_t indices_abandoned = 0;  ///< retired unrun after a throw
    std::size_t queue_high_water = 0;     ///< max pending queue depth seen
    std::vector<std::uint64_t> worker_busy_ns;  ///< per-worker task time
  };

  explicit ThreadPool(std::size_t workers = std::thread::hardware_concurrency()) {
    if (workers == 0) workers = 1;
    workers_.reserve(workers);
    busy_ns_ = std::make_unique<std::atomic<std::uint64_t>[]>(workers);
    for (std::size_t i = 0; i < workers; ++i) {
      busy_ns_[i].store(0, std::memory_order_relaxed);
      workers_.emplace_back([this, i] { worker_loop(i); });
    }
  }

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  ~ThreadPool() {
    {
      MutexLock lock(mutex_);
      stopping_ = true;
    }
    cv_.notify_all();
    for (auto& t : workers_) t.join();
  }

  [[nodiscard]] std::size_t size() const { return workers_.size(); }

  /// Point-in-time copy of the lifetime counters.
  [[nodiscard]] Stats stats() const {
    Stats s;
    s.tasks_executed = tasks_executed_.load(std::memory_order_relaxed);
    s.loops = loops_.load(std::memory_order_relaxed);
    s.indices_executed = indices_executed_.load(std::memory_order_relaxed);
    s.indices_abandoned = indices_abandoned_.load(std::memory_order_relaxed);
    {
      MutexLock lock(mutex_);
      s.queue_high_water = queue_high_water_;
    }
    s.worker_busy_ns.reserve(workers_.size());
    for (std::size_t i = 0; i < workers_.size(); ++i) {
      s.worker_busy_ns.push_back(busy_ns_[i].load(std::memory_order_relaxed));
    }
    return s;
  }

  /// Run body(i) for i in [0, count) across the pool and the calling thread;
  /// blocks until every handed-out index has retired. If a body throws, the
  /// first exception is rethrown here once the loop has quiesced.
  void parallel_for_index(std::size_t count,
                          std::function<void(std::size_t)> body) {
    if (count == 0) return;

    // Shared ownership: the caller returns as soon as every index is
    // accounted for, while sibling shard tasks may still be probing `next`,
    // so the state must outlive this frame.
    struct ForState {
      std::atomic<std::size_t> next{0};
      /// Indices retired: completed, thrown, or abandoned after a throw.
      std::atomic<std::size_t> accounted{0};
      Mutex mutex;
      CondVar cv;
      std::exception_ptr error RTA_GUARDED_BY(mutex);  ///< first failure
      std::size_t count = 0;
      std::function<void(std::size_t)> body;
      std::atomic<std::uint64_t>* executed_sink = nullptr;
      std::atomic<std::uint64_t>* abandoned_sink = nullptr;

      void account(std::size_t n) {
        if (accounted.fetch_add(n, std::memory_order_acq_rel) + n == count) {
          MutexLock lock(mutex);
          cv.notify_all();
        }
      }

      void run_shard() {
        for (;;) {
          const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
          if (i >= count) break;
          try {
            body(i);
          } catch (...) {
            {
              MutexLock lock(mutex);
              if (!error) error = std::current_exception();
            }
            // Stop handing out new indices; everything not yet handed out is
            // abandoned and retired here in one step. In-flight indices on
            // sibling shards retire themselves. Sinks are bumped BEFORE the
            // retiring account() so that once the caller's wait finishes,
            // the pool's stats already satisfy
            // indices_executed + indices_abandoned == sum of loop counts.
            const std::size_t handed =
                next.exchange(count, std::memory_order_relaxed);
            const std::size_t abandoned =
                handed < count ? count - handed : 0;
            if (abandoned_sink != nullptr && abandoned > 0) {
              abandoned_sink->fetch_add(abandoned, std::memory_order_relaxed);
            }
            executed_sink->fetch_add(1, std::memory_order_relaxed);
            account(1 + abandoned);
            return;
          }
          executed_sink->fetch_add(1, std::memory_order_relaxed);
          account(1);
        }
      }
    };
    auto state = std::make_shared<ForState>();
    state->count = count;
    state->body = std::move(body);
    state->executed_sink = &indices_executed_;
    state->abandoned_sink = &indices_abandoned_;
    loops_.fetch_add(1, std::memory_order_relaxed);

    // The calling thread is a shard too, so at most count - 1 helpers are
    // useful.
    const std::size_t helpers = std::min(count - 1, workers_.size());
    for (std::size_t s = 0; s < helpers; ++s) {
      submit([state] { state->run_shard(); });
    }
    state->run_shard();

    std::exception_ptr error;
    {
      MutexLock lock(state->mutex);
      while (state->accounted.load(std::memory_order_acquire) !=
             state->count) {
        state->cv.wait(state->mutex);
      }
      error = state->error;
    }
    if (error) std::rethrow_exception(error);
  }

 private:
  /// Enqueue a task; it runs on some worker eventually. Tasks must not throw.
  void submit(std::function<void()> task) {
    {
      MutexLock lock(mutex_);
      tasks_.push(std::move(task));
      if (tasks_.size() > queue_high_water_) queue_high_water_ = tasks_.size();
    }
    cv_.notify_one();
  }

  void worker_loop(std::size_t worker_index) {
    for (;;) {
      std::function<void()> task;
      {
        MutexLock lock(mutex_);
        while (!stopping_ && tasks_.empty()) cv_.wait(mutex_);
        if (stopping_ && tasks_.empty()) return;
        task = std::move(tasks_.front());
        tasks_.pop();
      }
      const auto start = std::chrono::steady_clock::now();
      task();
      const auto elapsed = std::chrono::steady_clock::now() - start;
      busy_ns_[worker_index].fetch_add(
          static_cast<std::uint64_t>(
              std::chrono::duration_cast<std::chrono::nanoseconds>(elapsed)
                  .count()),
          std::memory_order_relaxed);
      tasks_executed_.fetch_add(1, std::memory_order_relaxed);
    }
  }

  std::vector<std::thread> workers_;
  mutable Mutex mutex_;
  std::queue<std::function<void()>> tasks_ RTA_GUARDED_BY(mutex_);
  CondVar cv_;
  bool stopping_ RTA_GUARDED_BY(mutex_) = false;
  std::size_t queue_high_water_ RTA_GUARDED_BY(mutex_) = 0;
  std::unique_ptr<std::atomic<std::uint64_t>[]> busy_ns_;
  std::atomic<std::uint64_t> tasks_executed_{0};
  std::atomic<std::uint64_t> loops_{0};
  std::atomic<std::uint64_t> indices_executed_{0};
  std::atomic<std::uint64_t> indices_abandoned_{0};
};

/// Run body(i) for i in [0, count): on `pool` when one is provided, inline
/// otherwise. The serial path performs the indices in order; the parallel
/// path requires bodies that write only per-index state, in which case the
/// results are identical (the engine's determinism contract).
inline void for_each_index(ThreadPool* pool, std::size_t count,
                           const std::function<void(std::size_t)>& body) {
  if (pool != nullptr) {
    pool->parallel_for_index(count, body);
    return;
  }
  for (std::size_t i = 0; i < count; ++i) body(i);
}

}  // namespace rta
