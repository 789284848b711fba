#ifndef STMAKER_COMMON_PARALLEL_H_
#define STMAKER_COMMON_PARALLEL_H_

/// \file
/// Thread pool with bounded admission, deterministic parallel-for, and
/// thread-count resolution.

#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

namespace stmaker {

/// Resolves a requested worker count: values >= 1 pass through; 0 (and
/// negatives) select the hardware concurrency, never less than 1.
int ResolveThreadCount(int requested);

/// \brief A small fixed-size pool of worker threads with a drain barrier.
///
/// Tasks submitted with Submit() run on the workers in FIFO submission
/// order (each worker pulls the oldest pending task); Wait() blocks the
/// caller until every submitted task has finished. The pool is the
/// substrate for ParallelFor below — most code should use that helper
/// rather than the pool directly.
///
/// Thread-safety: Submit() and Wait() may be called from any thread, but
/// tasks must not Submit() to the pool they run on while the owner is in
/// Wait() (the drain barrier would count the nested task late). Task
/// exceptions are not caught: the library is exception-free by convention
/// (Status/Result), so a throwing task is a programming error and
/// std::terminate is acceptable.
class ThreadPool {
 public:
  /// Spawns workers for `num_threads` (resolved via ResolveThreadCount),
  /// capped at the hardware concurrency: the pool only ever runs CPU-bound
  /// tasks, so oversubscribing cores cannot add throughput and only
  /// inflates per-task latency tails. `num_threads()` reports the actual
  /// (possibly capped) worker count.
  explicit ThreadPool(int num_threads);

  /// Joins all workers; pending tasks are completed first.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int num_threads() const { return static_cast<int>(workers_.size()); }

  /// Enqueues one task.
  void Submit(std::function<void()> task);

  /// Bounded-admission enqueue: accepts only while fewer than
  /// `max_inflight` tasks are queued or executing, else returns false
  /// without taking the task. This is the load-shedding primitive behind
  /// serve mode's --max_inflight: a request that cannot be admitted is
  /// rejected immediately (kResourceExhausted) instead of queueing without
  /// bound. Admission/rejection totals are tracked (admitted()/rejected()).
  bool TrySubmit(std::function<void()> task, size_t max_inflight);

  /// Tasks accepted / rejected by TrySubmit since construction (Submit()
  /// counts as admitted). Thread-safe.
  size_t admitted() const;
  size_t rejected() const;

  /// Blocks until the queue is empty and every in-flight task returned.
  void Wait();

 private:
  void WorkerLoop();

  mutable std::mutex mu_;
  std::condition_variable task_ready_;
  std::condition_variable drained_;
  /// Each task carries its enqueue time so the worker can observe queue
  /// wait (threadpool.queue_wait_ms) on dequeue — no extra allocation.
  std::deque<std::pair<std::function<void()>,
                       std::chrono::steady_clock::time_point>>
      queue_;
  size_t in_flight_ = 0;  // queued + currently executing
  size_t admitted_ = 0;
  size_t rejected_ = 0;
  bool stopping_ = false;
  std::vector<std::thread> workers_;
};

/// \brief Deterministic parallel loop over [0, n).
///
/// The index range is split into at most `threads` contiguous blocks (block
/// s covers indices [s*ceil(n/threads), ...)) and `fn(begin, end, shard)`
/// runs once per non-empty block. Work assignment depends only on (n,
/// threads) — never on scheduling — so a caller that writes results by
/// index or merges per-shard state in shard order gets output identical to
/// the serial loop. With threads <= 1 (or n <= 1) `fn` runs inline on the
/// caller's thread with no pool.
///
/// `fn` must be safe to call concurrently from different threads for
/// disjoint blocks.
void ParallelFor(size_t n, int threads,
                 const std::function<void(size_t begin, size_t end,
                                          int shard)>& fn);

/// Same, scheduling the blocks on an existing pool (one block per pool
/// thread at most). Blocks until all shards complete.
void ParallelFor(ThreadPool* pool, size_t n,
                 const std::function<void(size_t begin, size_t end,
                                          int shard)>& fn);

}  // namespace stmaker

#endif  // STMAKER_COMMON_PARALLEL_H_
