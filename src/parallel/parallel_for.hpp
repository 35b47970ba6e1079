// Grain-controlled parallel loops on top of ThreadPool.
//
// Kernels express parallelism as ranges; this header chunks them so that
// per-task overhead stays negligible even for fine-grained bodies, and falls
// back to a plain serial loop when the range is too small to be worth forking.
#pragma once

#include <algorithm>
#include <cstddef>
#include <functional>

#include "parallel/thread_pool.hpp"

namespace temco {

struct ParallelOptions {
  /// Minimum number of iterations per chunk; below `grain` total the loop
  /// runs serially on the caller.
  std::size_t grain = 1024;
  /// Pool to run on; nullptr selects the calling thread's scoped intra-op
  /// pool (ScopedIntraOpPool) if one is installed, else the process-global
  /// pool.
  ThreadPool* pool = nullptr;
};

/// Thread-local intra-op pool override: while alive, parallel loops on this
/// thread that did not name a pool explicitly run on `pool` instead of the
/// process-global pool (nullptr = keep/restore the default).  The executor
/// installs one around node execution to honor its configured intra-op width
/// (ExecutorOptions::intra_op_threads) without threading a pool pointer
/// through every kernel signature.  Scopes nest and restore on destruction.
/// Thread-local on purpose: executors running on different threads (serving
/// workers) each install their own scope, so overrides never leak across
/// threads.
class ScopedIntraOpPool {
 public:
  explicit ScopedIntraOpPool(ThreadPool* pool) : previous_(current()) { current() = pool; }
  ~ScopedIntraOpPool() { current() = previous_; }
  ScopedIntraOpPool(const ScopedIntraOpPool&) = delete;
  ScopedIntraOpPool& operator=(const ScopedIntraOpPool&) = delete;

  /// The pool unqualified parallel loops on this thread currently resolve
  /// to; nullptr = the process-global pool.
  static ThreadPool* active() { return current(); }

 private:
  static ThreadPool*& current() {
    thread_local ThreadPool* pool = nullptr;
    return pool;
  }
  ThreadPool* previous_;
};

/// The pool a parallel loop on this thread runs on: `pool` when given, else
/// the scoped intra-op pool, else the process-global pool.  Every kernel
/// that forks resolves its pool here.
inline ThreadPool& resolve_pool(ThreadPool* pool = nullptr) {
  if (pool == nullptr) pool = ScopedIntraOpPool::active();
  return pool != nullptr ? *pool : ThreadPool::global();
}

/// Invokes `body(begin, end)` over disjoint sub-ranges covering [0, count).
/// The two-argument form lets bodies hoist per-chunk setup (e.g. pointer
/// arithmetic) out of the inner loop.
template <typename Body>
void parallel_for_ranges(std::size_t count, const Body& body, ParallelOptions options = {}) {
  if (count == 0) return;
  ThreadPool& pool = resolve_pool(options.pool);
  const std::size_t grain = std::max<std::size_t>(1, options.grain);
  if (count <= grain || pool.concurrency() == 1) {
    detail::maybe_inject_task_fault(0);
    body(std::size_t{0}, count);
    return;
  }
  // Aim for a few chunks per thread so the atomic cursor can load-balance.
  const std::size_t target_chunks = pool.concurrency() * 4;
  const std::size_t chunk = std::max(grain, (count + target_chunks - 1) / target_chunks);
  const std::size_t num_chunks = (count + chunk - 1) / chunk;
  pool.run(num_chunks, [&](std::size_t index) {
    const std::size_t begin = index * chunk;
    const std::size_t end = std::min(count, begin + chunk);
    body(begin, end);
  });
}

/// Invokes `body(i)` for each i in [0, count).
template <typename Body>
void parallel_for(std::size_t count, const Body& body, ParallelOptions options = {}) {
  parallel_for_ranges(
      count,
      [&body](std::size_t begin, std::size_t end) {
        for (std::size_t i = begin; i < end; ++i) body(i);
      },
      options);
}

/// Parallelizes over the outer dimension of a 2-D iteration space; the body
/// receives (outer, inner_begin, inner_end) and is expected to loop inner.
template <typename Body>
void parallel_for_2d(std::size_t outer, std::size_t inner, const Body& body,
                     ParallelOptions options = {}) {
  // Treat one outer slice as `inner` iterations for grain purposes.
  ParallelOptions outer_options = options;
  outer_options.grain = std::max<std::size_t>(1, options.grain / std::max<std::size_t>(1, inner));
  parallel_for(
      outer, [&](std::size_t o) { body(o, std::size_t{0}, inner); }, outer_options);
}

}  // namespace temco
