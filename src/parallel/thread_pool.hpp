// A fixed-size work-sharing thread pool.
//
// All CPU kernels in this repository parallelize through this pool rather
// than spawning ad-hoc threads, so thread creation cost is paid once per
// process and kernel performance is predictable.  The pool exposes a
// fork-join `run` primitive: the caller's thread participates in the work,
// and `run` returns only when every task has finished — kernels therefore
// never observe concurrent invocations of themselves.
//
// Nesting: a task may itself call `run` (on this or any other pool) — e.g. a
// kernel's parallel_for inside a serving worker's task, where the worker runs
// a whole Executor::run.  The nested call detects it is running on a pool
// thread (`in_task`) and executes its tasks inline, serially, on that
// thread: the fork-join machinery supports one batch at a time per pool, and
// the outer batch already owns the workers.  Results are identical either
// way — work decomposition never changes accumulation order.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace temco {

namespace detail {
/// parallel.task_throw failpoint hook (support/failpoint.hpp): throws
/// NumericError when armed, otherwise a no-op.  ThreadPool::run calls it per
/// task; parallel_for_ranges calls it on its serial fallback so fault
/// injection reaches ranges too small to fork.
void maybe_inject_task_fault(std::size_t index);
}  // namespace detail

class ThreadPool {
 public:
  /// Creates a pool with `num_threads` workers; 0 means hardware concurrency.
  explicit ThreadPool(std::size_t num_threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Number of threads that participate in `run` (workers + caller).
  std::size_t concurrency() const { return workers_.size() + 1; }

  /// Invokes `task(index)` for every index in [0, num_tasks), distributing
  /// indices across the workers and the calling thread.  Blocks until all
  /// invocations complete.  Exceptions thrown by tasks are rethrown on the
  /// caller (the first one observed).
  ///
  /// Safe to call from multiple threads: the fork-join machinery handles one
  /// batch at a time, so a caller that finds the pool already owned by
  /// another thread's batch runs its tasks inline, serially, on itself.
  /// Results are identical either way — see the nesting note above.
  void run(std::size_t num_tasks, const std::function<void(std::size_t)>& task);

  /// Drains and joins the workers.  Idempotent (the destructor calls it);
  /// after shutdown, `run` executes every batch inline on the caller, so a
  /// pool can be retired early — e.g. when a server stops its long-running
  /// worker loops — without invalidating later (now serial) use.  Must not
  /// be called concurrently with `run` on another thread: make the loops
  /// running on the pool exit first, then shut down.
  void shutdown();

  /// Process-wide shared pool, sized to the hardware.
  static ThreadPool& global();

  /// True on a thread that is currently inside a pool task (of any pool).
  /// `run` checks this to execute nested batches inline.
  static bool in_task();

  /// Batches this pool has handed to its workers.  Batches `run` executes
  /// inline (no workers, one task, nested or contended calls) do not count,
  /// so a test can tell a fork from serial execution.
  std::uint64_t forked_batches() const;

 private:
  struct Batch;

  void worker_loop();
  void work_on(Batch& batch);

  std::vector<std::thread> workers_;
  std::mutex owner_mutex_;  // held by the thread whose batch owns the workers
  mutable std::mutex mutex_;
  std::condition_variable wake_;
  std::condition_variable done_;
  Batch* current_ = nullptr;          // guarded by mutex_
  std::uint64_t epoch_ = 0;           // guarded by mutex_; bumped per run
  std::uint64_t epoch_retired_ = 0;   // guarded by mutex_; last finished run
  std::size_t active_workers_ = 0;    // guarded by mutex_; workers inside work_on
  bool shutdown_ = false;             // guarded by mutex_
};

}  // namespace temco
