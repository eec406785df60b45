#pragma once
// Task engine: fixed-size worker pool with typed futures, a grain-size-aware
// parallel_for, and a deterministic ordered-reduce pipeline helper.
//
// Canopus' refactoring is embarrassingly parallel across mesh partitions
// (planes, chunks, delta levels); this pool is the single place where that
// parallelism is expressed, so benches can pin the worker count to model
// different compute allocations. Two invariants the helpers guarantee:
//
//  * Exceptions thrown by tasks propagate into the caller (submit via the
//    returned future; parallel_for/ordered_reduce rethrow the first one).
//  * ordered_reduce feeds results to the reducer in strictly ascending index
//    order on the calling thread, so a multithreaded map-reduce produces
//    output bitwise-identical to the serial loop `for (i) reduce(i, map(i))`
//    no matter how many workers run the maps.

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <future>
#include <mutex>
#include <queue>
#include <thread>
#include <type_traits>
#include <vector>

namespace canopus::util {

class ThreadPool {
 public:
  /// Spawns `threads` workers (defaults to hardware concurrency, minimum 1).
  explicit ThreadPool(std::size_t threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t size() const { return workers_.size(); }

  /// Enqueues a task and returns a typed future for its result; an exception
  /// thrown by the task surfaces at future.get().
  template <typename F>
  std::future<std::invoke_result_t<std::decay_t<F>>> submit(F&& fn) {
    using R = std::invoke_result_t<std::decay_t<F>>;
    auto task = std::make_shared<std::packaged_task<R()>>(std::forward<F>(fn));
    auto fut = task->get_future();
    enqueue([task] { (*task)(); });
    return fut;
  }

  /// Splits [begin, end) into chunks of at least `grain` iterations
  /// (grain == 0 picks ~2x oversubscription) and runs fn(chunk_begin,
  /// chunk_end) on the pool, blocking until all complete. Exceptions from
  /// workers propagate to the caller (first one wins).
  void parallel_for(std::size_t begin, std::size_t end,
                    const std::function<void(std::size_t, std::size_t)>& fn,
                    std::size_t grain = 0);

  /// Deterministic ordered map-reduce: computes map(i) for i in [0, n) on
  /// the pool while feeding completed results to reduce(i, std::move(result))
  /// on the calling thread in strictly ascending index order — the reduce
  /// sequence is identical to the serial loop regardless of worker count. At
  /// most `window` maps are in flight (0 = 2x pool size), bounding memory for
  /// pipeline stages whose products are large (encoded delta chunks). An
  /// exception from map(i) surfaces in the caller at position i, after every
  /// in-flight map has drained (so no task outlives the callables).
  template <typename Map, typename Reduce>
  void ordered_reduce(std::size_t n, Map&& map, Reduce&& reduce,
                      std::size_t window = 0) {
    using R = std::invoke_result_t<Map&, std::size_t>;
    if (n == 0) return;
    // Re-entrancy guard: a worker blocking on its own pool's futures would
    // deadlock, so nested calls degrade to inline execution (same order).
    if (on_worker_thread()) {
      for (std::size_t i = 0; i < n; ++i) reduce(i, map(i));
      return;
    }
    if (window == 0) window = 2 * size();
    if (window == 0) window = 1;
    std::deque<std::future<R>> inflight;
    std::size_t next_submit = 0;
    try {
      for (std::size_t i = 0; i < n; ++i) {
        while (next_submit < n && inflight.size() < window) {
          inflight.push_back(
              submit([&map, idx = next_submit]() -> R { return map(idx); }));
          ++next_submit;
        }
        R result = inflight.front().get();
        inflight.pop_front();
        reduce(i, std::move(result));
      }
    } catch (...) {
      // Drain before rethrowing: queued tasks reference the caller's map.
      for (auto& f : inflight) {
        if (f.valid()) f.wait();
      }
      throw;
    }
  }

  /// Global pool shared by library internals; sized to hardware concurrency.
  static ThreadPool& global();

  /// True when the calling thread is one of this pool's workers.
  bool on_worker_thread() const;

 private:
  /// One queued task; `enqueue_ns` is stamped only while observability is
  /// enabled (0 otherwise) so the disabled path never reads the clock.
  struct QueuedTask {
    std::function<void()> fn;
    std::int64_t enqueue_ns = 0;
  };

  /// Type-erased enqueue: pushes, updates the pool metrics (task count,
  /// queue depth) when enabled, and wakes a worker.
  void enqueue(std::function<void()> fn);
  void worker_loop();

  std::vector<std::thread> workers_;
  std::queue<QueuedTask> queue_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
};

}  // namespace canopus::util
