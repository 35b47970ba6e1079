// Serving fault-tolerance semantics: deadlines (admission, batch formation,
// cooperative executor stops), transient-fault retry with a budget, session
// quarantine after corrupting faults, the circuit breaker's degrade/restore
// cycle, the hang-budget watchdog, and shutdown racing everything else.
//
// Determinism without sleeps-as-synchronization, same idiom as
// tests/test_serve.cpp: failpoints inject the faults at exact hit counts,
// the single worker is stalled at a known point by holding the pool's only
// session lease, in_flight/stats counters are the cross-thread sync points,
// and eventually() is a bounded observation spin, never a schedule.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <functional>
#include <future>
#include <thread>
#include <vector>

#include "decomp/pass.hpp"
#include "models/zoo.hpp"
#include "runtime/executor.hpp"
#include "serve/server.hpp"
#include "serve/session.hpp"
#include "support/cancel.hpp"
#include "support/failpoint.hpp"
#include "support/rng.hpp"

namespace temco {
namespace {

using namespace std::chrono_literals;
using serve::CompiledModel;
using serve::CompileOptions;
using serve::Server;
using serve::ServerOptions;
using serve::Session;
using serve::SessionPool;
using serve::SubmitOptions;

models::ModelConfig serve_config() {
  models::ModelConfig config;
  config.batch = 1;
  config.image = 32;
  config.width = 0.125;
  config.classes = 10;
  config.seed = 123;
  return config;
}

std::shared_ptr<const CompiledModel> compile_zoo_model(const std::string& name,
                                                       CompileOptions options) {
  const auto& spec = models::find_model(name);
  const ir::Graph graph = spec.build(serve_config());
  const ir::Graph decomposed = decomp::decompose(graph, {.ratio = 0.25}).graph;
  return CompiledModel::compile(decomposed, options);
}

/// One hardened artifact shared by every test in this file: numeric checks
/// and canaries on, so injected poison surfaces as NumericError at the
/// faulting node and quarantine has guard bands to audit.
std::shared_ptr<const CompiledModel> tolerant_model() {
  static std::shared_ptr<const CompiledModel> model = [] {
    CompileOptions options;
    options.max_batch = 4;
    options.check_numerics = true;
    options.arena_canaries = true;
    return compile_zoo_model("alexnet", options);
  }();
  return model;
}

std::vector<Tensor> random_request(const CompiledModel& model, Rng& rng) {
  std::vector<Tensor> inputs;
  for (std::size_t i = 0; i < model.num_inputs(); ++i) {
    inputs.push_back(Tensor::random_normal(model.input_shape(i), rng));
  }
  return inputs;
}

/// Bounded spin-wait for cross-thread state the server exposes via stats.
bool eventually(const std::function<bool()>& predicate, std::chrono::milliseconds limit = 10s) {
  const auto deadline = std::chrono::steady_clock::now() + limit;
  while (!predicate()) {
    if (std::chrono::steady_clock::now() > deadline) return false;
    std::this_thread::sleep_for(1ms);
  }
  return true;
}

void expect_bitwise_equal(const std::vector<Tensor>& got, const std::vector<Tensor>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t o = 0; o < got.size(); ++o) {
    ASSERT_EQ(got[o].shape(), want[o].shape());
    for (std::int64_t i = 0; i < got[o].numel(); ++i) {
      ASSERT_EQ(got[o][i], want[o][i]) << "output " << o << " diverges at element " << i;
    }
  }
}

/// Once drained, every accepted request must have resolved into exactly one
/// terminal bucket.
void expect_resolution_partition(const serve::ServerStats& stats) {
  EXPECT_EQ(stats.accepted, stats.completed + stats.failed + stats.cancelled +
                                stats.deadline_expired + stats.hung_requests)
      << "accepted requests must partition into the terminal outcome counters";
  EXPECT_EQ(stats.in_flight, 0u);
}

/// Server options tuned for deterministic single-worker tests: no batching
/// window, no backoff naps, breaker off unless the test turns it on.
ServerOptions strict_options() {
  ServerOptions options;
  options.workers = 1;
  options.sessions = 1;
  options.max_batch = 2;
  options.batch_timeout = 0us;
  options.retry_backoff = 0us;
  options.breaker_threshold = 0;
  return options;
}

class FaultToleranceTest : public ::testing::Test {
 protected:
  void TearDown() override { failpoints::disarm_all(); }
};

using DeadlineTest = FaultToleranceTest;
using CancelTokenTest = FaultToleranceTest;
using RetryTest = FaultToleranceTest;
using QuarantineTest = FaultToleranceTest;
using BreakerTest = FaultToleranceTest;
using WatchdogTest = FaultToleranceTest;
using ShutdownStressTest = FaultToleranceTest;

// ---- deadlines -------------------------------------------------------------

TEST_F(DeadlineTest, ExpiredAtAdmissionIsRejectedTyped) {
  auto model = tolerant_model();
  Server server(model, strict_options());
  Rng rng(1);
  SubmitOptions submit;
  submit.deadline = std::chrono::steady_clock::now() - 1ms;
  EXPECT_THROW(server.submit(random_request(*model, rng), submit), DeadlineExceededError);
  const auto stats = server.stats();
  EXPECT_EQ(stats.deadline_rejected, 1u);
  EXPECT_EQ(stats.accepted, 0u) << "a dead-on-arrival request must not consume queue capacity";
}

TEST_F(DeadlineTest, ExpiredBeforeExecutionResolvesTypedWithoutRunning) {
  auto model = tolerant_model();
  Server server(model, strict_options());
  // Stall the single worker by holding the pool's only session.
  SessionPool::Lease stall = server.session_pool().acquire();
  Rng rng(2);
  const auto deadline = std::chrono::steady_clock::now() + 5ms;
  SubmitOptions submit;
  submit.deadline = deadline;
  auto future = server.submit(random_request(*model, rng), submit);
  // The worker has claimed the request and is blocked on session checkout.
  ASSERT_TRUE(eventually([&] { return server.stats().in_flight >= 1; }));
  // Let the deadline genuinely lapse before execution can begin (bounded
  // observation of the clock, not a synchronization sleep).
  while (std::chrono::steady_clock::now() <= deadline) std::this_thread::yield();
  stall.release();
  ASSERT_EQ(future.wait_for(30s), std::future_status::ready);
  EXPECT_THROW(future.get(), DeadlineExceededError);
  ASSERT_TRUE(eventually([&] { return server.stats().in_flight == 0; }));
  const auto stats = server.stats();
  EXPECT_EQ(stats.deadline_expired, 1u);
  EXPECT_EQ(stats.completed, 0u);
  EXPECT_EQ(stats.failed, 0u);
  server.shutdown(true);
  expect_resolution_partition(server.stats());
}

TEST_F(DeadlineTest, TimeoutSugarSetsTheDeadline) {
  auto model = tolerant_model();
  Server server(model, strict_options());
  Rng rng(3);
  // A generous timeout completes normally.
  SubmitOptions submit;
  submit.timeout = std::chrono::duration_cast<std::chrono::microseconds>(60s);
  auto future = server.submit(random_request(*model, rng), submit);
  ASSERT_EQ(future.wait_for(60s), std::future_status::ready);
  EXPECT_NO_THROW(future.get());
  EXPECT_EQ(server.stats().completed, 1u);
}

// ---- the cancel token inside the executor ----------------------------------

TEST_F(CancelTokenTest, SessionRunStopsOnExpiredDeadlineAndResetsClean) {
  auto model = tolerant_model();
  Session session(model);
  Rng rng(4);
  const auto inputs = random_request(*model, rng);
  session.cancel_token().set_deadline(std::chrono::steady_clock::now());
  EXPECT_THROW(session.run(inputs), DeadlineExceededError);
  session.cancel_token().reset();
  std::vector<Tensor> outputs;
  ASSERT_NO_THROW(outputs = session.run(inputs));
  // The abandoned run left no damage: a fresh session agrees bitwise.
  Session fresh(model);
  expect_bitwise_equal(outputs, fresh.run(inputs));
}

TEST_F(CancelTokenTest, SessionRunStopsOnCancel) {
  auto model = tolerant_model();
  Session session(model);
  Rng rng(5);
  const auto inputs = random_request(*model, rng);
  session.cancel_token().cancel();
  EXPECT_THROW(session.run(inputs), CancelledError);
  session.cancel_token().reset();
  EXPECT_NO_THROW(session.run(inputs));
}

// ---- retry with a budget ---------------------------------------------------

TEST_F(RetryTest, TransientFaultRetriesOnSameBatchAndSucceeds) {
  auto model = tolerant_model();
  ServerOptions options = strict_options();
  options.max_retries = 2;
  Server server(model, options);
  Rng rng(7);
  const auto inputs = random_request(*model, rng);
  failpoints::arm("serve.exec_transient", 1);  // exactly the first attempt fails
  auto future = server.submit(inputs);
  ASSERT_EQ(future.wait_for(60s), std::future_status::ready);
  std::vector<Tensor> outputs;
  ASSERT_NO_THROW(outputs = future.get()) << "one transient fault within budget must be retried";
  const auto stats = server.stats();
  EXPECT_EQ(stats.retries, 1u);
  EXPECT_EQ(stats.completed, 1u);
  EXPECT_EQ(stats.failed, 0u);
  // The retried result is the correct one.
  Session reference(model);
  expect_bitwise_equal(outputs, reference.run(inputs));
}

TEST_F(RetryTest, ExhaustedRetryBudgetFailsTyped) {
  auto model = tolerant_model();
  ServerOptions options = strict_options();
  options.max_retries = 2;
  Server server(model, options);
  Rng rng(8);
  failpoints::arm("serve.exec_transient", 3);  // initial + both retries all fault
  auto future = server.submit(random_request(*model, rng));
  ASSERT_EQ(future.wait_for(60s), std::future_status::ready);
  EXPECT_THROW(future.get(), TransientFaultError);
  const auto stats = server.stats();
  EXPECT_EQ(stats.retries, 2u) << "the budget is max_retries re-executions, no more";
  EXPECT_EQ(stats.failed, 1u);
  EXPECT_EQ(stats.completed, 0u);
  // The site is spent: the server keeps serving cleanly afterwards.
  auto clean = server.submit(random_request(*model, rng));
  ASSERT_EQ(clean.wait_for(60s), std::future_status::ready);
  EXPECT_NO_THROW(clean.get());
  server.shutdown(true);
  expect_resolution_partition(server.stats());
}

// ---- quarantine ------------------------------------------------------------

TEST_F(QuarantineTest, CorruptingFaultRetiresTheSessionAndThePoolReplacesIt) {
  auto model = tolerant_model();
  ServerOptions options = strict_options();
  options.max_retries = 2;  // corrupting faults must NOT consume retries
  Server server(model, options);
  Rng rng(9);
  const auto inputs = random_request(*model, rng);
  failpoints::arm("kernels.poison_nan", 1);
  auto poisoned = server.submit(inputs);
  ASSERT_EQ(poisoned.wait_for(60s), std::future_status::ready);
  EXPECT_THROW(poisoned.get(), NumericError) << "corrupting faults are terminal, never retried";

  const auto stats = server.stats();
  EXPECT_EQ(stats.retries, 0u);
  EXPECT_EQ(stats.failed, 1u);
  EXPECT_EQ(stats.quarantined, 1u);
  const auto pool_stats = server.session_pool().stats();
  EXPECT_EQ(pool_stats.quarantined, 1u);
  EXPECT_EQ(pool_stats.replaced, 1u);
  EXPECT_EQ(pool_stats.replace_failures, 0u);
  EXPECT_EQ(server.session_pool().size(), 1u) << "the pool must not shrink on replacement";

  // The replacement session serves correct results immediately.
  auto clean = server.submit(inputs);
  ASSERT_EQ(clean.wait_for(60s), std::future_status::ready);
  std::vector<Tensor> outputs;
  ASSERT_NO_THROW(outputs = clean.get());
  Session reference(model);
  expect_bitwise_equal(outputs, reference.run(inputs));
  server.shutdown(true);
  expect_resolution_partition(server.stats());
}

TEST_F(QuarantineTest, ScrubCountsStompedGuardBands) {
  auto model = tolerant_model();
  SessionPool pool(model, 1);
  {
    SessionPool::Lease lease = pool.acquire();
    Rng rng(10);
    // Stomp one guard band via the executor's oob failpoint, swallowing the
    // MemoryCorruptionError it raises at free time.
    failpoints::arm("executor.oob_write", 1);
    EXPECT_THROW(lease->run(random_request(*model, rng)), MemoryCorruptionError);
    pool.quarantine(std::move(lease));
  }
  const auto stats = pool.stats();
  EXPECT_EQ(stats.quarantined, 1u);
  EXPECT_EQ(stats.replaced, 1u);
  EXPECT_GT(stats.corrupt_band_bytes, 0) << "the audit must see the stomped canary byte";
  EXPECT_EQ(pool.available(), 1u);
}

// ---- circuit breaker -------------------------------------------------------

TEST_F(BreakerTest, ConsecutiveFailuresDegradeThenCleanProbesRestore) {
  auto model = tolerant_model();
  ServerOptions options = strict_options();
  options.max_batch = 2;
  options.batch_timeout = std::chrono::duration_cast<std::chrono::microseconds>(1s);
  options.max_retries = 0;  // each transient fault fails its batch outright
  options.breaker_threshold = 2;
  options.breaker_recovery = 2;
  Server server(model, options);
  Rng rng(11);
  const auto inputs = random_request(*model, rng);

  // Two consecutive batch failures trip the breaker.
  failpoints::arm("serve.exec_transient", 2);
  for (int i = 0; i < 2; ++i) {
    auto future = server.submit(inputs);
    ASSERT_EQ(future.wait_for(60s), std::future_status::ready);
    EXPECT_THROW(future.get(), TransientFaultError);
  }
  auto stats = server.stats();
  EXPECT_EQ(stats.breaker_trips, 1u);
  EXPECT_TRUE(stats.degraded);

  // Degraded mode: two requests that would normally coalesce into one batch
  // of 2 must run as singleton batches.  Stall the worker, queue both, then
  // let them through.
  {
    SessionPool::Lease stall = server.session_pool().acquire();
    auto first = server.submit(inputs);
    auto second = server.submit(inputs);
    ASSERT_TRUE(eventually([&] { return server.stats().in_flight >= 1; }));
    stall.release();
    ASSERT_EQ(first.wait_for(60s), std::future_status::ready);
    ASSERT_EQ(second.wait_for(60s), std::future_status::ready);
    EXPECT_NO_THROW(first.get());
    EXPECT_NO_THROW(second.get());
  }
  stats = server.stats();
  EXPECT_EQ(stats.max_batch_seen, 1u) << "degraded mode must not coalesce";
  EXPECT_GE(stats.degraded_batches, 2u);
  EXPECT_EQ(stats.breaker_restores, 1u) << "two clean probes must close the breaker";
  EXPECT_FALSE(stats.degraded);

  // Restored: the same two-request pattern now coalesces into one batch.
  {
    SessionPool::Lease stall = server.session_pool().acquire();
    auto first = server.submit(inputs);
    auto second = server.submit(inputs);
    ASSERT_TRUE(eventually([&] { return server.stats().in_flight >= 2; }));
    stall.release();
    ASSERT_EQ(first.wait_for(60s), std::future_status::ready);
    ASSERT_EQ(second.wait_for(60s), std::future_status::ready);
    EXPECT_NO_THROW(first.get());
    EXPECT_NO_THROW(second.get());
  }
  EXPECT_EQ(server.stats().max_batch_seen, 2u) << "normal batching must be restored";
  server.shutdown(true);
  expect_resolution_partition(server.stats());
}

// ---- watchdog --------------------------------------------------------------

TEST_F(WatchdogTest, HungBatchFailsFastAndTheServerSurvives) {
  auto model = tolerant_model();
  ServerOptions options = strict_options();
  options.hang_budget = 100ms;
  options.watchdog_interval = 5ms;
  Server server(model, options);
  Rng rng(12);
  const auto inputs = random_request(*model, rng);

  failpoints::arm("serve.wedge_batch", 1);  // the next batch parks until cancelled
  auto hung = server.submit(inputs);
  ASSERT_EQ(hung.wait_for(60s), std::future_status::ready)
      << "the watchdog must fail a hung batch fast, not wait for it";
  EXPECT_THROW(hung.get(), DeadlineExceededError);
  auto stats = server.stats();
  EXPECT_EQ(stats.hung_batches, 1u);
  EXPECT_EQ(stats.hung_requests, 1u);

  // The worker came back (the cancel unwedged it) and keeps serving.
  auto clean = server.submit(inputs);
  ASSERT_EQ(clean.wait_for(60s), std::future_status::ready);
  std::vector<Tensor> outputs;
  ASSERT_NO_THROW(outputs = clean.get());
  Session reference(model);
  expect_bitwise_equal(outputs, reference.run(inputs));
  server.shutdown(true);
  expect_resolution_partition(server.stats());
}

// ---- shutdown racing everything --------------------------------------------

TEST_F(ShutdownStressTest, ConcurrentSubmittersAndShutdownsResolveEveryFutureExactlyOnce) {
  auto model = tolerant_model();
  Rng rng(13);
  const auto inputs = random_request(*model, rng);
  for (int round = 0; round < 6; ++round) {
    ServerOptions options = strict_options();
    options.workers = 2;
    options.sessions = 1;  // checkout contention widens the claimed-vs-queued race window
    Server server(model, options);

    std::vector<std::future<std::vector<Tensor>>> futures;
    std::mutex futures_mutex;
    std::atomic<bool> go{false};
    auto submitter = [&] {
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      for (int i = 0; i < 16; ++i) {
        try {
          auto future = server.submit(inputs);
          std::lock_guard<std::mutex> lock(futures_mutex);
          futures.push_back(std::move(future));
        } catch (const Error&) {
          break;  // stopping or backpressure: typed, expected mid-shutdown
        }
      }
    };
    // Drain and abort shutdowns race each other and the submitters; a
    // request grabbed by the batcher after a drain started must still
    // resolve exactly once.
    auto drainer = [&] {
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      server.shutdown(true);
    };
    auto aborter = [&] {
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      server.shutdown(false);
    };
    std::vector<std::thread> threads;
    threads.emplace_back(submitter);
    threads.emplace_back(submitter);
    threads.emplace_back(drainer);
    threads.emplace_back(aborter);
    go.store(true, std::memory_order_release);
    for (std::thread& thread : threads) thread.join();

    for (auto& future : futures) {
      ASSERT_EQ(future.wait_for(60s), std::future_status::ready)
          << "round " << round << ": a future was abandoned";
      try {
        future.get();  // value or typed error both fine
      } catch (const Error&) {
      } catch (...) {
        ADD_FAILURE() << "round " << round
                      << ": a future resolved with a non-temco exception "
                         "(double-resolution corrupts promises into future_error)";
      }
    }
    expect_resolution_partition(server.stats());
  }
}

}  // namespace
}  // namespace temco
