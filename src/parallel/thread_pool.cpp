#include "parallel/thread_pool.hpp"

#include <atomic>
#include <cstdint>
#include <exception>

#include "support/failpoint.hpp"

namespace temco {

namespace {

failpoints::Site fp_task_throw{"parallel.task_throw"};

// Task-context marker: nonzero while the thread is executing a pool task, so
// a nested `run` can detect it must not fork (the fork-join machinery handles
// one batch per pool at a time, and the outer batch already owns the
// workers).
thread_local int tl_task_depth = 0;

struct TaskScope {
  TaskScope() { ++tl_task_depth; }
  ~TaskScope() { --tl_task_depth; }
};

}  // namespace

namespace detail {

/// Models a kernel body faulting mid-parallel_for; the pool must surface
/// exactly one structured error and stay reusable (tested in
/// tests/test_failpoints.cpp).  Also called from parallel_for_ranges' serial
/// fallback so injection covers ranges too small to fork.
void maybe_inject_task_fault(std::size_t index) {
  if (fp_task_throw.fire()) {
    throw NumericError("parallel.task_throw failpoint: injected fault in task " +
                       std::to_string(index));
  }
}

}  // namespace detail

using detail::maybe_inject_task_fault;

// One fork-join episode.  Indices are claimed with a shared atomic cursor so
// imbalanced tasks (e.g. convolution rows with different amounts of padding)
// still load-balance; completion is tracked with a separate counter because a
// claimed index is not yet a finished index.
struct ThreadPool::Batch {
  std::size_t num_tasks = 0;
  const std::function<void(std::size_t)>* task = nullptr;
  std::atomic<std::size_t> next{0};
  std::atomic<std::size_t> finished{0};
  std::exception_ptr error;  // first exception observed
  std::mutex error_mutex;
};

ThreadPool::ThreadPool(std::size_t num_threads) {
  std::size_t n = num_threads;
  if (n == 0) {
    const unsigned hw = std::thread::hardware_concurrency();
    n = hw > 0 ? hw : 1;
  }
  // The calling thread is a participant, so spawn one fewer worker.
  for (std::size_t i = 1; i < n; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() { shutdown(); }

void ThreadPool::shutdown() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (shutdown_ && workers_.empty()) return;  // already retired
    shutdown_ = true;
  }
  // Workers can be parked on either condition variable (waiting for a batch
  // on wake_, or for batch retirement on done_); both predicates test
  // shutdown_, so notify both.
  wake_.notify_all();
  done_.notify_all();
  for (auto& worker : workers_) worker.join();
  workers_.clear();  // concurrency() == 1 from here on; run() goes inline
}

void ThreadPool::work_on(Batch& batch) {
  for (;;) {
    const std::size_t index = batch.next.fetch_add(1, std::memory_order_relaxed);
    if (index >= batch.num_tasks) break;
    try {
      TaskScope scope;
      maybe_inject_task_fault(index);
      (*batch.task)(index);
    } catch (...) {
      std::lock_guard<std::mutex> lock(batch.error_mutex);
      if (!batch.error) batch.error = std::current_exception();
    }
    batch.finished.fetch_add(1, std::memory_order_acq_rel);
  }
}

void ThreadPool::worker_loop() {
  // Each `run` bumps `epoch_`; a worker only considers a batch it has not
  // seen, which makes stack-address reuse across runs harmless.
  std::uint64_t seen = 0;
  for (;;) {
    Batch* batch = nullptr;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      wake_.wait(lock, [this, seen] { return shutdown_ || epoch_ != seen; });
      if (shutdown_) return;
      seen = epoch_;
      batch = current_;  // may already be null if the batch drained quickly
      // Registering under the same lock as the `current_` read means the
      // owner cannot retire the batch — and pop its stack frame — while we
      // hold a pointer into it: `run` waits for active_workers_ to drain, not
      // just for the finished count.  (The finished count alone is not
      // enough: a worker that loses the race for the last index still reads
      // batch.next/num_tasks after the last task completes.)
      if (batch != nullptr) ++active_workers_;
    }
    if (batch == nullptr) continue;
    work_on(*batch);
    // Deregister before notifying so a completion that races with the
    // owner's predicate check cannot become a lost wakeup.
    {
      std::lock_guard<std::mutex> lock(mutex_);
      --active_workers_;
    }
    done_.notify_all();
    // Park until the owner retires the batch; `epoch_retired_ >= seen` means
    // the batch we worked on is gone and `current_` no longer points at it.
    std::unique_lock<std::mutex> lock(mutex_);
    done_.wait(lock, [this, seen] { return shutdown_ || epoch_retired_ >= seen; });
  }
}

void ThreadPool::run(std::size_t num_tasks, const std::function<void(std::size_t)>& task) {
  if (num_tasks == 0) return;
  if (workers_.empty() || num_tasks == 1 || in_task()) {
    // Single-threaded fast path: no synchronization at all.  Nested calls
    // (a parallel_for inside a task of an outer batch) take this path too —
    // the outer batch owns the workers, so the nested batch runs inline on
    // the current thread, with identical results.
    for (std::size_t i = 0; i < num_tasks; ++i) {
      maybe_inject_task_fault(i);
      task(i);
    }
    return;
  }

  // One batch owns the workers at a time.  A second thread calling run()
  // concurrently (e.g. two serving sessions whose kernels share the global
  // pool) must not touch the fork-join state mid-batch; rather than queue
  // behind the owner it runs its batch inline — work decomposition never
  // changes results, so this only trades parallelism, not correctness.
  std::unique_lock<std::mutex> owner(owner_mutex_, std::try_to_lock);
  if (!owner.owns_lock()) {
    for (std::size_t i = 0; i < num_tasks; ++i) {
      maybe_inject_task_fault(i);
      task(i);
    }
    return;
  }

  Batch batch;
  batch.num_tasks = num_tasks;
  batch.task = &task;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    current_ = &batch;
    ++epoch_;
  }
  wake_.notify_all();
  work_on(batch);
  {
    std::unique_lock<std::mutex> lock(mutex_);
    // Both conditions matter: every index ran to completion, and no worker
    // still holds a pointer into the (stack-allocated) batch.
    done_.wait(lock, [this, &batch] {
      return batch.finished.load(std::memory_order_acquire) == batch.num_tasks &&
             active_workers_ == 0;
    });
    current_ = nullptr;
    epoch_retired_ = epoch_;
  }
  done_.notify_all();
  if (batch.error) std::rethrow_exception(batch.error);
}

bool ThreadPool::in_task() { return tl_task_depth > 0; }

std::uint64_t ThreadPool::forked_batches() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return epoch_;
}

ThreadPool& ThreadPool::global() {
  static ThreadPool pool;
  return pool;
}

}  // namespace temco
