// Serving fault-tolerance semantics on a one-model fleet: deadlines
// (admission, batch formation, cooperative executor stops), transient-fault
// retry with a budget, session quarantine after corrupting faults, the
// circuit breaker's degrade/restore cycle, the hang-budget watchdog, and
// shutdown racing everything else.
//
// Determinism without sleeps-as-synchronization, same idiom as
// tests/test_serve.cpp: failpoints inject the faults at exact hit counts,
// the single lane is stalled by holding the pool's only session lease (so
// submitted requests stay queued until it frees), and the metrics snapshot
// or a resolved future is the cross-thread sync point, never a sleep.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "decomp/pass.hpp"
#include "models/zoo.hpp"
#include "runtime/executor.hpp"
#include "serve/fleet.hpp"
#include "serve/session.hpp"
#include "serve_invariants.hpp"
#include "support/cancel.hpp"
#include "support/failpoint.hpp"
#include "support/rng.hpp"

namespace temco {
namespace {

using namespace std::chrono_literals;
using serve::CompiledModel;
using serve::CompileOptions;
using serve::FleetOptions;
using serve::FleetServer;
using serve::Session;
using serve::SessionPool;
using serve::SubmitOptions;
namespace metrics = serve::metrics;

constexpr const char* kName = "clf";

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

void expect_bitwise_equal(const std::vector<Tensor>& got, const std::vector<Tensor>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t o = 0; o < got.size(); ++o) {
    ASSERT_EQ(got[o].shape(), want[o].shape());
    for (std::int64_t i = 0; i < got[o].numel(); ++i) {
      ASSERT_EQ(got[o][i], want[o][i]) << "output " << o << " diverges at element " << i;
    }
  }
}

/// The one installed model's metrics.
metrics::ModelSnapshot stats(const FleetServer& fleet) {
  const auto all = fleet.snapshot();
  EXPECT_EQ(all.size(), 1u);
  return all.empty() ? metrics::ModelSnapshot{} : all.front();
}

/// Fleet options tuned for deterministic single-lane tests: no batching
/// window, no backoff naps, no admission forecasts, breaker off unless the
/// test turns it on.
FleetOptions strict_options() {
  FleetOptions options;
  options.workers = 1;
  options.sessions_per_model = 1;
  options.max_batch_timeout = 0us;
  options.slo_admission = false;
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
  FleetServer fleet(strict_options());
  fleet.install(kName, model);
  Rng rng(1);
  SubmitOptions submit;
  submit.deadline = std::chrono::steady_clock::now() - 1ms;
  EXPECT_THROW(fleet.submit(kName, random_request(*model, rng), submit), DeadlineExceededError);
  const auto snap = stats(fleet);
  EXPECT_EQ(snap.rejected_deadline, 1u);
  EXPECT_EQ(snap.accepted, 0u) << "a dead-on-arrival request must not consume queue capacity";
}

TEST_F(DeadlineTest, ExpiredBeforeExecutionResolvesTypedWithoutRunning) {
  auto model = tolerant_model();
  FleetServer fleet(strict_options());
  fleet.install(kName, model);
  // Stall the single lane by holding the pool's only session: the request
  // stays queued.
  SessionPool::Lease stall = fleet.session_pool(kName).acquire();
  Rng rng(2);
  const auto deadline = std::chrono::steady_clock::now() + 5ms;
  SubmitOptions submit;
  submit.deadline = deadline;
  auto future = fleet.submit(kName, random_request(*model, rng), submit);
  EXPECT_EQ(stats(fleet).queue_depth, 1);
  // Let the deadline genuinely lapse before execution can begin (bounded
  // observation of the clock, not a synchronization sleep).
  while (std::chrono::steady_clock::now() <= deadline) std::this_thread::yield();
  stall.release();
  ASSERT_EQ(future.wait_for(30s), std::future_status::ready);
  EXPECT_THROW(future.get(), DeadlineExceededError);
  fleet.shutdown(true);
  const auto snap = stats(fleet);
  EXPECT_EQ(snap.deadline_expired, 1u);
  EXPECT_EQ(snap.completed, 0u);
  EXPECT_EQ(snap.failed, 0u);
  EXPECT_EQ(snap.batches, 0u) << "an expired request must not burn a session";
  expect_resolution_partition(fleet);
}

TEST_F(DeadlineTest, TimeoutSugarSetsTheDeadline) {
  auto model = tolerant_model();
  FleetServer fleet(strict_options());
  fleet.install(kName, model);
  Rng rng(3);
  // A generous timeout completes normally.
  SubmitOptions submit;
  submit.timeout = std::chrono::duration_cast<std::chrono::microseconds>(60s);
  auto future = fleet.submit(kName, random_request(*model, rng), submit);
  ASSERT_EQ(future.wait_for(60s), std::future_status::ready);
  EXPECT_NO_THROW(future.get());
  EXPECT_EQ(stats(fleet).completed, 1u);
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
  FleetOptions options = strict_options();
  options.max_retries = 2;
  FleetServer fleet(options);
  fleet.install(kName, model);
  Rng rng(7);
  const auto inputs = random_request(*model, rng);
  failpoints::arm("serve.exec_transient", 1);  // exactly the first attempt fails
  auto future = fleet.submit(kName, inputs);
  ASSERT_EQ(future.wait_for(60s), std::future_status::ready);
  std::vector<Tensor> outputs;
  ASSERT_NO_THROW(outputs = future.get()) << "one transient fault within budget must be retried";
  const auto snap = stats(fleet);
  EXPECT_EQ(snap.retries, 1u);
  EXPECT_EQ(snap.completed, 1u);
  EXPECT_EQ(snap.failed, 0u);
  // The retried result is the correct one.
  Session reference(model);
  expect_bitwise_equal(outputs, reference.run(inputs));
}

TEST_F(RetryTest, ExhaustedRetryBudgetFailsTyped) {
  auto model = tolerant_model();
  FleetOptions options = strict_options();
  options.max_retries = 2;
  FleetServer fleet(options);
  fleet.install(kName, model);
  Rng rng(8);
  failpoints::arm("serve.exec_transient", 3);  // initial + both retries all fault
  auto future = fleet.submit(kName, random_request(*model, rng));
  ASSERT_EQ(future.wait_for(60s), std::future_status::ready);
  EXPECT_THROW(future.get(), TransientFaultError);
  const auto snap = stats(fleet);
  EXPECT_EQ(snap.retries, 2u) << "the budget is max_retries re-executions, no more";
  EXPECT_EQ(snap.failed, 1u);
  EXPECT_EQ(snap.completed, 0u);
  // The site is spent: the fleet keeps serving cleanly afterwards.
  auto clean = fleet.submit(kName, random_request(*model, rng));
  ASSERT_EQ(clean.wait_for(60s), std::future_status::ready);
  EXPECT_NO_THROW(clean.get());
  fleet.shutdown(true);
  expect_resolution_partition(fleet);
}

// ---- quarantine ------------------------------------------------------------

TEST_F(QuarantineTest, CorruptingFaultRetiresTheSessionAndThePoolReplacesIt) {
  auto model = tolerant_model();
  FleetOptions options = strict_options();
  options.max_retries = 2;  // corrupting faults must NOT consume retries
  FleetServer fleet(options);
  fleet.install(kName, model);
  Rng rng(9);
  const auto inputs = random_request(*model, rng);
  failpoints::arm("kernels.poison_nan", 1);
  auto poisoned = fleet.submit(kName, inputs);
  ASSERT_EQ(poisoned.wait_for(60s), std::future_status::ready);
  EXPECT_THROW(poisoned.get(), NumericError) << "corrupting faults are terminal, never retried";

  const auto snap = stats(fleet);
  EXPECT_EQ(snap.retries, 0u);
  EXPECT_EQ(snap.failed, 1u);
  EXPECT_EQ(snap.quarantined, 1u);
  SessionPool& pool = fleet.session_pool(kName);
  const auto pool_stats = pool.stats();
  EXPECT_EQ(pool_stats.quarantined, 1u);
  EXPECT_EQ(pool_stats.replaced, 1u);
  EXPECT_EQ(pool_stats.replace_failures, 0u);
  EXPECT_EQ(pool.size(), 1u) << "the pool must not shrink on replacement";

  // The replacement session serves correct results immediately.
  auto clean = fleet.submit(kName, inputs);
  ASSERT_EQ(clean.wait_for(60s), std::future_status::ready);
  std::vector<Tensor> outputs;
  ASSERT_NO_THROW(outputs = clean.get());
  Session reference(model);
  expect_bitwise_equal(outputs, reference.run(inputs));
  fleet.shutdown(true);
  expect_resolution_partition(fleet);
}

TEST_F(QuarantineTest, ScrubCountsStompedGuardBands) {
  auto model = tolerant_model();
  ASSERT_GE(model->max_batch(), 2u);
  // Every variant binds the one max-batch plan, and each variant's bands sit
  // after its own payloads: the narrowest and the widest batch must both
  // detect the stomp and count it at scrub time.
  for (const std::size_t batch : {std::size_t{1}, model->max_batch()}) {
    SCOPED_TRACE("batch " + std::to_string(batch));
    SessionPool pool(model, 1);
    {
      SessionPool::Lease lease = pool.acquire();
      Rng rng(10);
      std::vector<std::vector<Tensor>> requests;
      for (std::size_t r = 0; r < batch; ++r) requests.push_back(random_request(*model, rng));
      std::vector<const std::vector<Tensor>*> pointers;
      for (const auto& request : requests) pointers.push_back(&request);
      // Stomp one guard band via the executor's oob failpoint, swallowing the
      // MemoryCorruptionError it raises at free time.
      failpoints::arm("executor.oob_write", 1);
      EXPECT_THROW(lease->run_batch(pointers), MemoryCorruptionError);
      pool.quarantine(std::move(lease));
    }
    const auto stats = pool.stats();
    EXPECT_EQ(stats.quarantined, 1u);
    EXPECT_EQ(stats.replaced, 1u);
    EXPECT_GT(stats.corrupt_band_bytes, 0) << "the audit must see the stomped canary byte";
    EXPECT_EQ(pool.available(), 1u);
  }
}

// ---- circuit breaker -------------------------------------------------------

TEST_F(BreakerTest, ConsecutiveFailuresDegradeThenCleanProbesRestore) {
  auto model = tolerant_model();
  FleetOptions options = strict_options();
  options.max_retries = 0;  // each transient fault fails its batch outright
  options.breaker_threshold = 2;
  options.breaker_recovery = 2;
  FleetServer fleet(options);
  fleet.install(kName, model);
  Rng rng(11);
  const auto inputs = random_request(*model, rng);

  // Two consecutive batch failures trip the breaker.
  failpoints::arm("serve.exec_transient", 2);
  for (int i = 0; i < 2; ++i) {
    auto future = fleet.submit(kName, inputs);
    ASSERT_EQ(future.wait_for(60s), std::future_status::ready);
    EXPECT_THROW(future.get(), TransientFaultError);
  }
  auto snap = stats(fleet);
  EXPECT_EQ(snap.breaker_trips, 1u);
  EXPECT_TRUE(snap.degraded);

  // Degraded mode: two requests that would normally coalesce into one batch
  // of 2 must run as singleton batches.  Stall the lane, queue both, then
  // let them through.
  {
    SessionPool::Lease stall = fleet.session_pool(kName).acquire();
    auto first = fleet.submit(kName, inputs);
    auto second = fleet.submit(kName, inputs);
    EXPECT_EQ(stats(fleet).queue_depth, 2);
    stall.release();
    ASSERT_EQ(first.wait_for(60s), std::future_status::ready);
    ASSERT_EQ(second.wait_for(60s), std::future_status::ready);
    EXPECT_NO_THROW(first.get());
    EXPECT_NO_THROW(second.get());
  }
  snap = stats(fleet);
  EXPECT_EQ(snap.max_batch_seen, 1u) << "degraded mode must not coalesce";
  EXPECT_GE(snap.degraded_batches, 2u);
  EXPECT_EQ(snap.breaker_restores, 1u) << "two clean probes must close the breaker";
  EXPECT_FALSE(snap.degraded);

  // Restored: the same two-request pattern now coalesces into one batch.
  {
    SessionPool::Lease stall = fleet.session_pool(kName).acquire();
    auto first = fleet.submit(kName, inputs);
    auto second = fleet.submit(kName, inputs);
    EXPECT_EQ(stats(fleet).queue_depth, 2);
    stall.release();
    ASSERT_EQ(first.wait_for(60s), std::future_status::ready);
    ASSERT_EQ(second.wait_for(60s), std::future_status::ready);
    EXPECT_NO_THROW(first.get());
    EXPECT_NO_THROW(second.get());
  }
  EXPECT_EQ(stats(fleet).max_batch_seen, 2u) << "normal batching must be restored";
  fleet.shutdown(true);
  expect_resolution_partition(fleet);
}

// ---- watchdog --------------------------------------------------------------

TEST_F(WatchdogTest, HungBatchFailsFastAndTheServerSurvives) {
  auto model = tolerant_model();
  FleetOptions options = strict_options();
  options.hang_budget = 100ms;
  FleetServer fleet(options);
  fleet.install(kName, model);
  Rng rng(12);
  const auto inputs = random_request(*model, rng);

  failpoints::arm("serve.wedge_batch", 1);  // the next batch parks until cancelled
  auto hung = fleet.submit(kName, inputs);
  ASSERT_EQ(hung.wait_for(60s), std::future_status::ready)
      << "the watchdog must fail a hung batch fast, not wait for it";
  EXPECT_THROW(hung.get(), DeadlineExceededError);
  auto snap = stats(fleet);
  EXPECT_EQ(snap.hung_batches, 1u);
  EXPECT_EQ(snap.hung_requests, 1u);

  // The worker came back (the cancel unwedged it) and keeps serving.
  auto clean = fleet.submit(kName, inputs);
  ASSERT_EQ(clean.wait_for(60s), std::future_status::ready);
  std::vector<Tensor> outputs;
  ASSERT_NO_THROW(outputs = clean.get());
  Session reference(model);
  expect_bitwise_equal(outputs, reference.run(inputs));
  fleet.shutdown(true);
  EXPECT_EQ(stats(fleet).completed, 1u);
  expect_resolution_partition(fleet);
}

// ---- shutdown racing everything --------------------------------------------

TEST_F(ShutdownStressTest, ConcurrentSubmittersAndShutdownsResolveEveryFutureExactlyOnce) {
  auto model = tolerant_model();
  Rng rng(13);
  const auto inputs = random_request(*model, rng);
  for (int round = 0; round < 6; ++round) {
    FleetOptions options = strict_options();
    options.workers = 2;
    options.sessions_per_model = 1;  // lease contention widens the claimed-vs-queued race window
    FleetServer fleet(options);
    fleet.install(kName, model);

    std::vector<std::future<std::vector<Tensor>>> futures;
    std::mutex futures_mutex;
    std::atomic<bool> go{false};
    auto submitter = [&] {
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      for (int i = 0; i < 16; ++i) {
        try {
          auto future = fleet.submit(kName, inputs);
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
      fleet.shutdown(true);
    };
    auto aborter = [&] {
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      fleet.shutdown(false);
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
    EXPECT_EQ(stats(fleet).accepted, futures.size()) << "round " << round;
    expect_resolution_partition(fleet);
  }
}

}  // namespace
}  // namespace temco
