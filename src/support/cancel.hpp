// Cooperative cancellation and deadlines.
//
// A CancelToken is a tiny shared flag that long-running work polls between
// natural preemption points — the Executor checks it before every node; the
// serving layer checks it at admission and batch formation.  Cancellation is
// one-way and sticky until reset(): the owner of the computation (a serving
// Session) resets the token between checkouts, workers only ever observe or
// raise it.
//
// Two independent stop sources share the token so poll sites stay single:
//   - cancel(): an external actor (the watchdog, shutdown) abandons the work;
//     surfaces as CancelledError.
//   - set_deadline(t): the work outlives its SLO; surfaces as
//     DeadlineExceededError once steady_clock passes t.
// stop_requested() folds both; raise_if_stopped() converts the state into the
// matching typed error so every poll site classifies identically.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <limits>

#include "support/error.hpp"

namespace temco::support {

class CancelToken {
 public:
  using Clock = std::chrono::steady_clock;

  CancelToken() = default;
  CancelToken(const CancelToken&) = delete;
  CancelToken& operator=(const CancelToken&) = delete;

  /// Requests cancellation.  Sticky until reset(); safe from any thread.
  void cancel() { cancelled_.store(true, std::memory_order_release); }

  /// Sets (or replaces) the absolute deadline.  Clock::time_point::max()
  /// means "none" and is what reset() restores.
  void set_deadline(Clock::time_point deadline) {
    deadline_ns_.store(to_ns(deadline), std::memory_order_release);
  }

  /// Clears both stop sources.  Only the owner between units of work — never
  /// concurrently with a poller that might still raise.
  void reset() {
    cancelled_.store(false, std::memory_order_release);
    deadline_ns_.store(kNoDeadline, std::memory_order_release);
  }

  bool cancelled() const { return cancelled_.load(std::memory_order_acquire); }

  /// True once the deadline (if any) has passed.  Disarmed cost: one load.
  bool expired() const {
    const std::int64_t deadline = deadline_ns_.load(std::memory_order_acquire);
    return deadline != kNoDeadline && to_ns(Clock::now()) >= deadline;
  }

  bool stop_requested() const { return cancelled() || expired(); }

  /// Throws the typed error matching the stop source, if any.  Cancellation
  /// wins over expiry when both are set: an explicit cancel carries intent
  /// (the watchdog already resolved the futures), expiry is circumstance.
  void raise_if_stopped() const {
    if (cancelled()) throw CancelledError("execution cancelled by token");
    if (expired()) throw DeadlineExceededError("execution deadline exceeded");
  }

 private:
  static constexpr std::int64_t kNoDeadline = std::numeric_limits<std::int64_t>::max();

  static std::int64_t to_ns(Clock::time_point t) {
    if (t == Clock::time_point::max()) return kNoDeadline;
    return std::chrono::duration_cast<std::chrono::nanoseconds>(t.time_since_epoch()).count();
  }

  std::atomic<bool> cancelled_{false};
  std::atomic<std::int64_t> deadline_ns_{kNoDeadline};
};

}  // namespace temco::support
