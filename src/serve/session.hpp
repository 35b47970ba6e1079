// Arena serving sessions and the session pool.
//
// A Session is the mutable half of the serving runtime: one preallocated
// arena slab plus one bound arena executor per batch variant of a shared
// CompiledModel, all on the model's one arena plan.  Everything a run needs
// — the slab, the staging tensors batched requests are gathered into, the
// executors' bound views — is allocated at construction, so the steady-state
// path performs zero heap allocations and zero re-planning: check out a
// session, gather, run, split.
//
// Sessions are NOT thread-safe (the batch variants deliberately share one
// slab); the SessionPool provides the checkout protocol that keeps each
// session owned by at most one thread at a time.  Checkout is a Lease — an
// RAII handle that returns the session on destruction — so a session can
// never leak out of the pool on an exception path.
//
// Fault tolerance: every session carries a CancelToken wired into all of its
// executors, so the serving layer can deadline or abandon an in-flight run
// at the next node/wave boundary.  When a run ends in a corrupting fault
// (NumericError, MemoryCorruptionError) the pool's quarantine path retires
// the session — slab poison-scrubbed and canary-audited for a blast-radius
// diagnostic — and replaces it with a freshly constructed one rather than
// ever re-leasing possibly-corrupt memory.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <vector>

#include "runtime/executor.hpp"
#include "serve/compiled_model.hpp"
#include "support/cancel.hpp"

namespace temco::serve {

/// How a batch should execute.  kDegraded is the circuit breaker's isolation
/// regime: the batch-1 variant with kernels pinned serial and numeric checks
/// forced on — slower, but each request fails alone and a fault is caught at
/// the node that produced it.
enum class RunMode { kNormal, kDegraded };

class Session {
 public:
  /// Allocates the slab (poison-filled when the model compiled with
  /// arena_canaries, zeroed otherwise) and binds one arena executor per
  /// batch variant to it and the one plan.  All expensive work is done here.
  explicit Session(std::shared_ptr<const CompiledModel> model);

  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  const CompiledModel& model() const { return *model_; }

  /// Bytes of arena slab this session keeps resident.
  std::int64_t arena_bytes() const { return model_->slab_bytes(); }

  /// The stop token every executor of this session polls.  The serving layer
  /// sets a deadline (or cancels) before/while a run is in flight and MUST
  /// reset() it between checkouts; the session never touches it on its own.
  support::CancelToken& cancel_token() { return token_; }

  /// Executes one micro-batch: gathers each request's inputs into the
  /// batch-k staging rows, runs the batch-k variant once, and splits the
  /// batched outputs back into one freshly allocated per-request tensor
  /// list.  `requests` must be non-empty, at most max_batch long, and every
  /// request must satisfy the model's compatibility predicate.  Outputs are
  /// bit-identical to running each request alone at batch 1 — kernels fix
  /// per-element accumulation order by geometry, independent of batch count
  /// (asserted across the zoo in tests/test_batched.cpp).  kDegraded
  /// requires a singleton batch and runs the hardened batch-1 executor.
  std::vector<std::vector<Tensor>> run_batch(
      const std::vector<const std::vector<Tensor>*>& requests,
      RunMode mode = RunMode::kNormal);

  /// Single-request sugar: run_batch of one, unwrapped.
  std::vector<Tensor> run(const std::vector<Tensor>& inputs);

  /// Quarantine hygiene: audits every batch variant's guard bands for bytes
  /// that no longer hold the canary pattern (a blast-radius estimate of what
  /// a corrupting fault touched; 0 when the model compiled without
  /// canaries), then poison-fills the whole slab so stale data can never be
  /// read as valid.  Called by SessionPool::quarantine before the session
  /// is destroyed; harmless to call on a healthy session.
  std::int64_t quarantine_scrub();

 private:
  std::shared_ptr<const CompiledModel> model_;
  /// Declared before the executors that hold its address: they die first.
  support::CancelToken token_;
  std::unique_ptr<float, void (*)(float*)> slab_;
  /// executors_[k-1] runs the batch-k variant; all bind the one slab_.
  std::vector<std::unique_ptr<runtime::Executor>> executors_;
  /// Hardened batch-1 variant for RunMode::kDegraded (serial kernels,
  /// check_numerics on); binds the same slab as the normal executors.
  std::unique_ptr<runtime::Executor> degraded_executor_;
  /// Max-batch staging storage; the batch-k views below alias its rows.
  std::vector<Tensor> staging_in_;
  std::vector<Tensor> staging_out_;
  /// views_in_[k-1][i]: the first k rows of staging_in_[i], shaped for batch
  /// k — prebuilt so steady-state runs allocate nothing but response tensors.
  std::vector<std::vector<Tensor>> views_in_;
  std::vector<std::vector<Tensor>> views_out_;
};

/// Fixed set of reusable sessions with blocking checkout.  The pool is the
/// serving runtime's memory ceiling: resident arena bytes are
/// size() * slab_bytes, decided at construction, independent of load.
class SessionPool {
 public:
  /// Monotonic counters for the quarantine path.
  struct Stats {
    std::uint64_t quarantined = 0;        ///< sessions retired after corrupting faults
    std::uint64_t replaced = 0;           ///< successfully rebuilt replacements
    std::uint64_t replace_failures = 0;   ///< replacement construction threw; pool shrank
    std::int64_t corrupt_band_bytes = 0;  ///< guard-band bytes found stomped at scrub time
  };

  SessionPool(std::shared_ptr<const CompiledModel> model, std::size_t size);

  /// RAII checkout: returns the session to the pool on destruction.
  class Lease {
   public:
    Lease() = default;
    Lease(SessionPool* pool, Session* session) : pool_(pool), session_(session) {}
    Lease(Lease&& other) noexcept { *this = std::move(other); }
    Lease& operator=(Lease&& other) noexcept {
      release();
      pool_ = other.pool_;
      session_ = other.session_;
      other.pool_ = nullptr;
      other.session_ = nullptr;
      return *this;
    }
    Lease(const Lease&) = delete;
    Lease& operator=(const Lease&) = delete;
    ~Lease() { release(); }

    explicit operator bool() const { return session_ != nullptr; }
    Session* operator->() const { return session_; }
    Session& operator*() const { return *session_; }

    void release();

   private:
    friend class SessionPool;
    SessionPool* pool_ = nullptr;
    Session* session_ = nullptr;
  };

  /// Blocks until a session is free.  Throws ResourceExhaustedError if the
  /// pool has become defunct (every session quarantined and no replacement
  /// could be built) — blocking forever on a pool that can never refill is
  /// the one outcome worse than failing.
  Lease acquire();

  /// Non-blocking checkout; empty optional when every session is out.
  std::optional<Lease> try_acquire();

  /// Sessions currently owned by the pool (shrinks only on replacement
  /// failure during quarantine).
  std::size_t size() const;

  /// Sessions currently checked in (free).
  std::size_t available() const;

  /// Total arena bytes held resident by the pool.
  std::int64_t resident_bytes() const;

  /// The artifact every session of this pool serves.
  const CompiledModel& model() const { return *model_; }

  Stats stats() const;

  /// Retires the leased session after a corrupting fault: the slab is
  /// poison-scrubbed and canary-audited (Session::quarantine_scrub), the
  /// session destroyed, and a freshly constructed replacement takes its
  /// place in the pool — corrupt memory is never re-leased.  The Lease is
  /// consumed; it must be live and must belong to this pool.  Replacement
  /// construction happens outside the pool lock, so other sessions keep
  /// serving meanwhile; if construction throws, the pool shrinks instead
  /// (counted in Stats::replace_failures).
  void quarantine(Lease&& lease);

 private:
  friend class Lease;
  void put_back(Session* session);

  std::shared_ptr<const CompiledModel> model_;
  std::vector<std::unique_ptr<Session>> sessions_;
  mutable std::mutex mutex_;
  std::condition_variable free_cv_;
  std::vector<Session*> free_;
  Stats counters_;
};

}  // namespace temco::serve
