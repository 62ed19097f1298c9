// A small fixed-size thread pool plus the parallel_for helper the
// analysis pipeline shards work with (see docs/CONCURRENCY.md).
//
// Design constraints, in order:
//  1. Determinism: parallel_for hands each worker a disjoint set of index
//     slots; callers write results only into per-index storage, so the
//     result is independent of scheduling. There is no work stealing and
//     no reduction inside the pool — deterministic folds happen in the
//     caller, in index order.
//  2. Deadlock freedom: a parallel_for issued from inside a pool task
//     (nested parallelism) runs inline on the calling worker instead of
//     queueing — the pool never waits on itself.
//  3. Exception transparency: an exception thrown by a parallel_for body
//     cancels the remaining un-started indices and is rethrown on the
//     calling thread (the lowest-index exception wins when several throw).
#pragma once

#include <cstddef>
#include <functional>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

#include <condition_variable>

namespace hs::util {

class ThreadPool {
 public:
  /// Spin up `threads` workers; 0 means std::thread::hardware_concurrency().
  explicit ThreadPool(unsigned threads = 0);
  ~ThreadPool();
  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  [[nodiscard]] unsigned size() const { return static_cast<unsigned>(workers_.size()); }

  /// True on a thread currently owned by any ThreadPool (used by
  /// parallel_for to run nested loops inline instead of deadlocking).
  [[nodiscard]] static bool on_worker_thread();

  /// Enqueue a fire-and-forget task. Tasks run in FIFO submission order
  /// (each worker dequeues from the front). Tasks must not throw — use
  /// parallel_for for exception-safe fan-out.
  void submit(std::function<void()> task);

 private:
  void worker_loop();

  std::vector<std::thread> workers_;
  std::queue<std::function<void()>> tasks_;
  std::mutex mutex_;
  std::condition_variable cv_;
  bool stopping_ = false;
};

/// Resolve a PipelineOptions-style thread knob: 0 -> hardware_concurrency
/// (at least 1), anything else verbatim.
[[nodiscard]] unsigned resolve_threads(unsigned requested);

/// Run fn(0) ... fn(n-1), cooperatively on `pool` plus the calling thread:
/// up to pool->size() + 1 bodies run at once, so a pool built with
/// `threads = N` runs up to N + 1 (docs/CONCURRENCY.md). Runs serially
/// (plain loop, in index order) when pool is null, has fewer than two
/// workers, n < 2, or the caller is itself a pool worker (nested
/// parallelism). Blocks until every started index finished; rethrows the
/// lowest-index exception if any body threw, after cancelling un-started
/// indices.
void parallel_for(ThreadPool* pool, std::size_t n, const std::function<void(std::size_t)>& fn);

}  // namespace hs::util
