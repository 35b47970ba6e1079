// Serving runtime semantics: compile-once artifacts, the session pool's
// checkout protocol, and a one-model fleet's batching/backpressure/shutdown/
// fault and hot-swap contracts.
//
// The timing-sensitive scenarios are made deterministic without sleeps by
// construction: tests stall the single lane by holding the pool's only
// session lease, so every submitted request is still queued when the lane
// frees and lands in the intended batch; queue_depth and in_flight in the
// metrics snapshot are the cross-thread sync points.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <functional>
#include <thread>

#include "core/temco.hpp"
#include "decomp/pass.hpp"
#include "models/zoo.hpp"
#include "runtime/executor.hpp"
#include "serve/fleet.hpp"
#include "serve/session.hpp"
#include "serve_invariants.hpp"
#include "support/failpoint.hpp"
#include "support/rng.hpp"
#include "tensor/compare.hpp"

namespace temco {
namespace {

using namespace std::chrono_literals;
using serve::CompiledModel;
using serve::CompileOptions;
using serve::FleetOptions;
using serve::FleetServer;
using serve::Session;
using serve::SessionPool;
namespace metrics = serve::metrics;

models::ModelConfig serve_config() {
  models::ModelConfig config;
  config.batch = 1;  // serving templates are batch-1; variants are stamped
  config.image = 32;
  config.width = 0.125;
  config.classes = 10;
  config.seed = 123;
  return config;
}

CompileOptions compile_options(std::size_t max_batch, bool check_numerics = false) {
  CompileOptions options;
  options.max_batch = max_batch;
  options.check_numerics = check_numerics;
  return options;
}

std::shared_ptr<const CompiledModel> compile_zoo_model(const std::string& name,
                                                       CompileOptions options = {}) {
  const auto& spec = models::find_model(name);
  const ir::Graph graph = spec.build(serve_config());
  const ir::Graph decomposed = decomp::decompose(graph, {.ratio = 0.25}).graph;
  return CompiledModel::compile(decomposed, options);
}

std::vector<Tensor> random_request(const CompiledModel& model, Rng& rng) {
  std::vector<Tensor> inputs;
  for (std::size_t i = 0; i < model.num_inputs(); ++i) {
    inputs.push_back(Tensor::random_normal(model.input_shape(i), rng));
  }
  return inputs;
}

/// Bounded spin-wait for cross-thread state the fleet exposes via metrics.
bool eventually(const std::function<bool()>& predicate, std::chrono::milliseconds limit = 5s) {
  const auto deadline = std::chrono::steady_clock::now() + limit;
  while (!predicate()) {
    if (std::chrono::steady_clock::now() > deadline) return false;
    std::this_thread::sleep_for(1ms);
  }
  return true;
}

// ---- CompiledModel ---------------------------------------------------------

TEST(CompiledModelTest, StampsOneVariantPerBatchWithSharedArtifacts) {
  auto model = compile_zoo_model("resnet18", compile_options(4));
  EXPECT_EQ(model->max_batch(), 4u);
  EXPECT_GT(model->stats().fused_kernels, 0) << "pipeline did not run";
  for (std::size_t k = 1; k <= 4; ++k) {
    const ir::Graph& variant = model->graph(k);
    for (const auto& node : variant.nodes()) {
      if (node.kind == ir::OpKind::kInput) {
        EXPECT_EQ(node.out_shape[0], static_cast<std::int64_t>(k));
      }
    }
    // The one plan, packed for batch 4, holds every narrower variant.
    EXPECT_NO_THROW(runtime::validate_arena_plan(variant, model->plan())) << "batch " << k;
  }
  EXPECT_GT(model->packed_weight_bytes(), 0);
}

TEST(CompiledModelTest, CompatibilityPredicateIsTheBatchOneTemplate) {
  auto model = compile_zoo_model("alexnet");
  Rng rng(1);
  const auto good = random_request(*model, rng);
  EXPECT_TRUE(model->compatible(good));
  EXPECT_NO_THROW(model->check_compatible(good));

  EXPECT_FALSE(model->compatible({}));
  EXPECT_THROW(model->check_compatible({}), InvalidGraphError);

  std::vector<Tensor> undefined(1);
  EXPECT_FALSE(model->compatible(undefined));
  EXPECT_THROW(model->check_compatible(undefined), InvalidGraphError);

  const Shape wrong = model->input_shape(0).with_dim(0, 2);
  std::vector<Tensor> batched{Tensor::zeros(wrong)};
  EXPECT_FALSE(model->compatible(batched));
  EXPECT_THROW(model->check_compatible(batched), ShapeError);
}

// ---- Session ---------------------------------------------------------------

class ZooSessionTest : public ::testing::TestWithParam<const char*> {};

TEST_P(ZooSessionTest, BatchSplitMergeMatchesSequentialBitForBit) {
  auto model = compile_zoo_model(GetParam(), compile_options(4));
  Session session(model);

  Rng rng(7);
  std::vector<std::vector<Tensor>> requests;
  for (int r = 0; r < 3; ++r) requests.push_back(random_request(*model, rng));
  std::vector<const std::vector<Tensor>*> pointers;
  for (const auto& request : requests) pointers.push_back(&request);

  const auto batched = session.run_batch(pointers);
  ASSERT_EQ(batched.size(), requests.size());

  // Sequential truth: a plain batch-1 arena executor, fresh per request.
  runtime::Executor single(model->graph(1), {.use_arena = true});
  for (std::size_t r = 0; r < requests.size(); ++r) {
    const auto want = single.run(requests[r]);
    ASSERT_EQ(batched[r].size(), want.outputs.size());
    for (std::size_t o = 0; o < want.outputs.size(); ++o) {
      EXPECT_EQ(max_abs_diff(batched[r][o], want.outputs[o]), 0.0f)
          << GetParam() << ": request " << r << " output " << o;
    }
  }

  // The same session must serve a different batch size (and the single-
  // request sugar) off the same slab without cross-variant contamination.
  const auto solo = session.run(requests[0]);
  const auto want = single.run(requests[0]);
  for (std::size_t o = 0; o < want.outputs.size(); ++o) {
    EXPECT_EQ(max_abs_diff(solo[o], want.outputs[o]), 0.0f);
  }
}

INSTANTIATE_TEST_SUITE_P(Models, ZooSessionTest,
                         ::testing::Values("alexnet", "resnet18", "densenet121", "unet_half"));

TEST(SessionTest, RejectsOversizedAndIncompatibleBatches) {
  auto model = compile_zoo_model("alexnet", compile_options(2));
  Session session(model);
  Rng rng(8);
  const auto a = random_request(*model, rng);
  const auto b = random_request(*model, rng);
  const auto c = random_request(*model, rng);
  EXPECT_THROW(session.run_batch({&a, &b, &c}), ResourceExhaustedError);
  EXPECT_THROW(session.run_batch({}), InvalidGraphError);
  const std::vector<Tensor> empty;
  EXPECT_THROW(session.run_batch({&empty}), InvalidGraphError);
}

// ---- SessionPool -----------------------------------------------------------

TEST(SessionPoolTest, CheckoutExhaustionAndReturn) {
  auto model = compile_zoo_model("alexnet", compile_options(2));
  SessionPool pool(model, 2);
  EXPECT_EQ(pool.size(), 2u);
  EXPECT_EQ(pool.available(), 2u);
  EXPECT_EQ(pool.resident_bytes(), 2 * model->slab_bytes());

  auto first = pool.try_acquire();
  auto second = pool.try_acquire();
  ASSERT_TRUE(first.has_value());
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(pool.available(), 0u);
  EXPECT_FALSE(pool.try_acquire().has_value()) << "pool exhausted, checkout must not block";

  first->release();
  EXPECT_EQ(pool.available(), 1u);
  SessionPool::Lease reacquired = pool.acquire();
  EXPECT_TRUE(static_cast<bool>(reacquired));
  EXPECT_EQ(pool.available(), 0u);
}

// ---- one-model fleet ----------------------------------------------------------
//
// A single-model deployment is a FleetServer with one model installed.  The
// fleet claims a request only once a worker has leased a session for it, so
// holding the pool's only lease leaves submitted requests queued
// (queue_depth), never claimed (in_flight).

constexpr const char* kName = "clf";

/// The one installed model's metrics.
metrics::ModelSnapshot stats(const FleetServer& fleet) {
  const auto all = fleet.snapshot();
  EXPECT_EQ(all.size(), 1u);
  return all.empty() ? metrics::ModelSnapshot{} : all.front();
}

/// One worker, one session: a test holding the lease stalls the whole lane.
FleetOptions one_lane() {
  FleetOptions options;
  options.workers = 1;
  options.sessions_per_model = 1;
  return options;
}

TEST(OneModelFleetTest, ManyRequestsMatchSequentialExecutionBitForBit) {
  auto model = compile_zoo_model("resnet18", compile_options(4));
  FleetOptions options;
  options.workers = 2;
  options.max_batch_timeout = 100us;
  FleetServer fleet(options);
  fleet.install(kName, model);

  Rng rng(21);
  constexpr int kRequests = 24;
  std::vector<std::vector<Tensor>> inputs;
  std::vector<std::future<std::vector<Tensor>>> futures;
  for (int r = 0; r < kRequests; ++r) {
    inputs.push_back(random_request(*model, rng));
    futures.push_back(fleet.submit(kName, inputs.back()));
  }

  runtime::Executor single(model->graph(1), {.use_arena = true});
  for (int r = 0; r < kRequests; ++r) {
    const auto got = futures[r].get();  // whatever batch it landed in
    const auto want = single.run(inputs[r]);
    ASSERT_EQ(got.size(), want.outputs.size());
    for (std::size_t o = 0; o < want.outputs.size(); ++o) {
      EXPECT_EQ(max_abs_diff(got[o], want.outputs[o]), 0.0f) << "request " << r;
    }
  }
  const auto snap = stats(fleet);
  EXPECT_EQ(snap.accepted, static_cast<std::uint64_t>(kRequests));
  EXPECT_EQ(snap.completed, static_cast<std::uint64_t>(kRequests));
  EXPECT_EQ(snap.failed, 0u);
  fleet.shutdown(true);
  expect_resolution_partition(fleet);
}

TEST(OneModelFleetTest, RejectsIncompatibleRequestAtSubmission) {
  auto model = compile_zoo_model("alexnet");
  FleetServer fleet(one_lane());
  fleet.install(kName, model);
  EXPECT_THROW(fleet.submit(kName, {}), InvalidGraphError);
  EXPECT_THROW(fleet.submit(kName, {Tensor::zeros(model->input_shape(0).with_dim(0, 2))}),
               ShapeError);
  EXPECT_EQ(stats(fleet).accepted, 0u);
}

TEST(OneModelFleetTest, FullQueueAppliesBackpressure) {
  auto model = compile_zoo_model("alexnet", compile_options(2));
  FleetOptions options = one_lane();
  options.queue_capacity = 3;
  FleetServer fleet(options);
  fleet.install(kName, model);

  Rng rng(31);
  const auto request = random_request(*model, rng);

  // Stall the lane: with the only session leased out, nothing is claimed.
  SessionPool::Lease stall = fleet.session_pool(kName).acquire();
  std::vector<std::future<std::vector<Tensor>>> futures;
  for (int i = 0; i < 3; ++i) futures.push_back(fleet.submit(kName, request));
  EXPECT_EQ(stats(fleet).queue_depth, 3);
  EXPECT_EQ(stats(fleet).in_flight, 0);

  EXPECT_THROW(fleet.submit(kName, request), ResourceExhaustedError);
  EXPECT_EQ(stats(fleet).rejected_queue_full, 1u);

  stall.release();
  for (auto& future : futures) EXPECT_NO_THROW(future.get());
  fleet.shutdown(true);
  const auto snap = stats(fleet);
  EXPECT_EQ(snap.completed, 3u);
  EXPECT_EQ(snap.accepted, 3u);
  expect_resolution_partition(fleet);
}

TEST(OneModelFleetTest, DestructionCancelsQueuedButCompletesClaimedRequests) {
  auto model = compile_zoo_model("alexnet", compile_options(2));
  FleetOptions options = one_lane();
  options.max_retries = 1;
  options.retry_backoff = 10s;  // shutdown cuts the nap short
  FleetServer fleet(options);
  fleet.install(kName, model);

  Rng rng(41);
  const auto request = random_request(*model, rng);

  // Stall a *claimed* request: its first attempt hits a transient fault,
  // which hands the session back and backs off before retrying.  Taking the
  // free session during the backoff parks the retry at checkout while the
  // request stays claimed.
  failpoints::ScopedArm fault("serve.exec_transient", 1);
  auto claimed = fleet.submit(kName, request);
  ASSERT_TRUE(eventually([&] { return stats(fleet).retries == 1; }));
  SessionPool::Lease stall = fleet.session_pool(kName).acquire();
  EXPECT_EQ(stats(fleet).in_flight, 1);
  auto queued_a = fleet.submit(kName, request);
  auto queued_b = fleet.submit(kName, request);

  // Shutdown from another thread while the retry is wedged on checkout:
  // queued requests must fail fast with the typed cancellation, the claimed
  // one must still complete, and neither side may deadlock.
  std::thread closer([&] { fleet.shutdown(false); });
  ASSERT_TRUE(eventually([&] { return stats(fleet).cancelled == 2; }));
  EXPECT_THROW(queued_a.get(), CancelledError);
  EXPECT_THROW(queued_b.get(), CancelledError);
  EXPECT_THROW(fleet.submit(kName, request), CancelledError) << "admission closed during shutdown";

  stall.release();
  EXPECT_NO_THROW(claimed.get()) << "claimed requests are never dropped";
  closer.join();
  const auto snap = stats(fleet);
  EXPECT_EQ(snap.completed, 1u);
  EXPECT_EQ(snap.cancelled, 2u);
  expect_resolution_partition(fleet);
}

TEST(OneModelFleetTest, DrainShutdownCompletesEverythingAccepted) {
  auto model = compile_zoo_model("alexnet", compile_options(2));
  FleetServer fleet(one_lane());
  fleet.install(kName, model);

  Rng rng(51);
  const auto request = random_request(*model, rng);

  SessionPool::Lease stall = fleet.session_pool(kName).acquire();
  std::vector<std::future<std::vector<Tensor>>> futures;
  for (int i = 0; i < 5; ++i) futures.push_back(fleet.submit(kName, request));
  EXPECT_EQ(stats(fleet).queue_depth, 5);

  std::thread closer([&] { fleet.shutdown(true); });
  stall.release();
  closer.join();
  for (auto& future : futures) EXPECT_NO_THROW(future.get());
  const auto snap = stats(fleet);
  EXPECT_EQ(snap.completed, 5u);
  EXPECT_EQ(snap.cancelled, 0u);
  expect_resolution_partition(fleet);
}

TEST(OneModelFleetTest, CoalescesQueuedRequestsIntoMicroBatches) {
  auto model = compile_zoo_model("resnet18", compile_options(4));
  FleetServer fleet(one_lane());
  fleet.install(kName, model);

  Rng rng(61);
  std::vector<std::vector<Tensor>> inputs;
  std::vector<std::future<std::vector<Tensor>>> futures;

  // With the session held, all 8 requests queue; once it frees, the lane
  // drains them as two full batches at the compiled ceiling of 4.
  SessionPool::Lease stall = fleet.session_pool(kName).acquire();
  for (int r = 0; r < 8; ++r) {
    inputs.push_back(random_request(*model, rng));
    futures.push_back(fleet.submit(kName, inputs.back()));
  }
  EXPECT_EQ(stats(fleet).queue_depth, 8);
  stall.release();

  runtime::Executor single(model->graph(1), {.use_arena = true});
  for (int r = 0; r < 8; ++r) {
    const auto got = futures[r].get();
    const auto want = single.run(inputs[r]);
    for (std::size_t o = 0; o < want.outputs.size(); ++o) {
      EXPECT_EQ(max_abs_diff(got[o], want.outputs[o]), 0.0f)
          << "request " << r << ": batching changed the bits";
    }
  }
  fleet.shutdown(true);
  const auto snap = stats(fleet);
  EXPECT_EQ(snap.batches, 2u) << "8 requests at max_batch 4 must form exactly 2 batches";
  EXPECT_EQ(snap.batched_requests, 8u);
  EXPECT_EQ(snap.max_batch_seen, 4u);
}

TEST(OneModelFleetTest, InjectedKernelFaultFailsExactlyThatBatch) {
  // check_numerics compiled into the sessions: the poisoned NaN surfaces as
  // a NumericError naming the node, which must land on every request of the
  // faulted batch and no other.
  auto model = compile_zoo_model("alexnet", compile_options(4, /*check_numerics=*/true));
  FleetServer fleet(one_lane());
  fleet.install(kName, model);

  Rng rng(71);
  const auto request = random_request(*model, rng);

  SessionPool::Lease stall = fleet.session_pool(kName).acquire();
  std::vector<std::future<std::vector<Tensor>>> doomed;
  for (int r = 0; r < 4; ++r) doomed.push_back(fleet.submit(kName, request));
  EXPECT_EQ(stats(fleet).queue_depth, 4);

  {
    failpoints::ScopedArm arm("kernels.poison_nan", 1);
    stall.release();
    for (auto& future : doomed) EXPECT_THROW(future.get(), NumericError);
  }

  // The worker, the (replaced) session, and the fleet survive: the next
  // batch is clean.
  auto survivor = fleet.submit(kName, request);
  EXPECT_NO_THROW(survivor.get());
  const auto snap = stats(fleet);
  EXPECT_EQ(snap.failed, 4u);
  EXPECT_EQ(snap.completed, 1u);
  EXPECT_EQ(snap.quarantined, 1u);
}

TEST(OneModelFleetTest, StatsExposeQueueDepthAndArenaResidency) {
  auto model = compile_zoo_model("alexnet", compile_options(2));
  FleetServer fleet(one_lane());
  fleet.install(kName, model);
  EXPECT_EQ(stats(fleet).arena_resident_bytes, fleet.session_pool(kName).resident_bytes());
  EXPECT_GT(stats(fleet).arena_resident_bytes, 0);
  EXPECT_EQ(stats(fleet).queue_depth, 0);

  // Stall the lane: every request measurably queued, none claimed.
  Rng rng(41);
  const auto request = random_request(*model, rng);
  SessionPool::Lease stall = fleet.session_pool(kName).acquire();
  std::vector<std::future<std::vector<Tensor>>> futures;
  for (int i = 0; i < 4; ++i) futures.push_back(fleet.submit(kName, request));
  EXPECT_EQ(stats(fleet).queue_depth, 4);
  EXPECT_EQ(stats(fleet).in_flight, 0);

  stall.release();
  for (auto& future : futures) future.get();
  fleet.shutdown(true);
  EXPECT_EQ(stats(fleet).queue_depth, 0);
  expect_resolution_partition(fleet);
}

// ---- hot swap -----------------------------------------------------------------

TEST(FleetHotSwapTest, UnknownNamesAreTypedErrors) {
  FleetServer fleet;
  auto model = compile_zoo_model("alexnet", compile_options(2));
  Rng rng(81);
  auto request = random_request(*model, rng);
  EXPECT_THROW(fleet.submit("ghost", request), InvalidGraphError);
  EXPECT_THROW(fleet.model("ghost"), InvalidGraphError);
  EXPECT_THROW(fleet.session_pool("ghost"), InvalidGraphError);
  EXPECT_THROW(fleet.swap("ghost", model), InvalidGraphError)
      << "swap is a replacement, not a first deploy";
  EXPECT_NO_THROW(fleet.remove("ghost"));
  fleet.install(kName, model);
  EXPECT_EQ(fleet.names(), std::vector<std::string>{kName});
  EXPECT_NO_THROW(fleet.swap(kName, model));
}

TEST(FleetHotSwapTest, HotSwapUnderConcurrentClientsDropsNothing) {
  // Two models with identical signatures but different weights, so every
  // response is attributable: bitwise model-A output, bitwise model-B output,
  // or a misroute (which fails the test).  Model B travels through the full
  // artifact path — saved to disk, then swapped in via swap_file — so the
  // swap exercises load-time validation and zero-copy weights too.
  auto model_a = compile_zoo_model("alexnet", compile_options(2));
  models::ModelConfig config_b = serve_config();
  config_b.seed = 999;
  const ir::Graph graph_b = models::find_model("alexnet").build(config_b);
  const auto model_b = CompiledModel::compile(
      decomp::decompose(graph_b, {.ratio = 0.25}).graph, compile_options(2));
  const std::string path = ::testing::TempDir() + "temco_swap_artifact.bin";
  model_b->save(path);

  Rng rng(91);
  const auto request = random_request(*model_a, rng);
  runtime::Executor single_a(model_a->graph(1), {.use_arena = true});
  runtime::Executor single_b(model_b->graph(1), {.use_arena = true});
  const auto want_a = single_a.run(request).outputs;
  const auto want_b = single_b.run(request).outputs;
  ASSERT_GT(max_abs_diff(want_a[0], want_b[0]), 0.0f) << "models must be distinguishable";

  FleetOptions options;
  options.workers = 2;
  options.max_batch_timeout = 100us;
  FleetServer fleet(options);
  fleet.install(kName, model_a);

  constexpr int kClients = 4;
  constexpr int kPerClient = 16;
  constexpr int kSwapAfter = 4;  ///< client 0 swaps after this many responses
  std::atomic<int> completed{0};
  std::atomic<int> from_a{0};
  std::atomic<int> from_b{0};
  std::atomic<int> misrouted{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      for (int r = 0; r < kPerClient; ++r) {
        // Swap mid-traffic, in-thread, once the old model has demonstrably
        // served requests: the other clients are in flight, and client 0's
        // later requests must reach model B however slow the load is.
        if (c == 0 && r == kSwapAfter) fleet.swap_file(kName, path);
        // submit() must absorb the swap: no CancelledError, no drop.
        const auto got = fleet.submit(kName, request).get();
        if (max_abs_diff(got[0], want_a[0]) == 0.0f) {
          from_a.fetch_add(1);
        } else if (max_abs_diff(got[0], want_b[0]) == 0.0f) {
          from_b.fetch_add(1);
        } else {
          misrouted.fetch_add(1);
        }
        completed.fetch_add(1);
      }
    });
  }

  for (auto& client : clients) client.join();

  EXPECT_EQ(completed.load(), kClients * kPerClient) << "a request was dropped";
  EXPECT_EQ(misrouted.load(), 0) << "a response matched neither model";
  EXPECT_GT(from_a.load(), 0) << "swap happened before any old-model traffic";
  EXPECT_GT(from_b.load(), 0) << "swap never took effect";

  // The displaced generation drains: everything it accepted resolves, and
  // the name now maps to the loaded artifact with every lease home.
  fleet.wait_drained();
  EXPECT_NE(fleet.model(kName).get(), model_a.get());
  EXPECT_EQ(fleet.session_pool(kName).available(), fleet.session_pool(kName).size());

  // Post-swap steady state: responses are bitwise the fresh compile of
  // model B (the artifact round-trip changed nothing).
  const auto settled = fleet.submit(kName, request).get();
  ASSERT_EQ(settled.size(), want_b.size());
  for (std::size_t o = 0; o < want_b.size(); ++o) {
    EXPECT_EQ(max_abs_diff(settled[o], want_b[o]), 0.0f) << "output " << o;
  }
  std::remove(path.c_str());
}

TEST(FleetHotSwapTest, TwoModelHotSwapUnderDeadlineTrafficAttributesEveryResponse) {
  // Two names served concurrently, every request deadline-laden, both names
  // hot-swapped mid-traffic to a different-seed compile.  The contract under
  // test: every response is bitwise the old or the new weights of ITS name
  // (never the other name's, never a blend), and every accepted future
  // resolves — to a value or DeadlineExceededError, nothing dropped.
  const char* kNames[2] = {"alex", "res"};
  const char* kArchs[2] = {"alexnet", "resnet18"};
  std::shared_ptr<const CompiledModel> old_model[2], new_model[2];
  std::vector<Tensor> request[2], want_old[2], want_new[2];
  Rng rng(77);
  for (int m = 0; m < 2; ++m) {
    old_model[m] = compile_zoo_model(kArchs[m], compile_options(2));
    models::ModelConfig config = serve_config();
    config.seed = 999;
    const ir::Graph graph = models::find_model(kArchs[m]).build(config);
    new_model[m] = CompiledModel::compile(decomp::decompose(graph, {.ratio = 0.25}).graph,
                                          compile_options(2));
    request[m] = random_request(*old_model[m], rng);
    runtime::Executor exec_old(old_model[m]->graph(1), {.use_arena = true});
    runtime::Executor exec_new(new_model[m]->graph(1), {.use_arena = true});
    want_old[m] = exec_old.run(request[m]).outputs;
    want_new[m] = exec_new.run(request[m]).outputs;
    ASSERT_GT(max_abs_diff(want_old[m][0], want_new[m][0]), 0.0f);
  }

  FleetOptions options;
  options.workers = 2;
  options.max_batch_timeout = 100us;
  options.slo_admission = false;  // every submit is accepted: the swap is under test
  FleetServer fleet(options);
  for (int m = 0; m < 2; ++m) fleet.install(kNames[m], old_model[m]);

  constexpr int kClientsPerModel = 2;
  constexpr int kPerClient = 12;
  std::atomic<int> resolved{0}, misrouted{0}, deadline_errors{0};
  std::atomic<int> from_old[2]{{0}, {0}}, from_new[2]{{0}, {0}};
  std::vector<std::thread> clients;
  for (int m = 0; m < 2; ++m) {
    for (int c = 0; c < kClientsPerModel; ++c) {
      clients.emplace_back([&, m] {
        for (int r = 0; r < kPerClient; ++r) {
          serve::SubmitOptions submit_options;
          submit_options.timeout = 500ms;  // generous: present, not binding
          try {
            const auto got = fleet.submit(kNames[m], request[m], submit_options).get();
            if (max_abs_diff(got[0], want_old[m][0]) == 0.0f) {
              from_old[m].fetch_add(1);
            } else if (max_abs_diff(got[0], want_new[m][0]) == 0.0f) {
              from_new[m].fetch_add(1);
            } else {
              misrouted.fetch_add(1);
            }
          } catch (const DeadlineExceededError&) {
            deadline_errors.fetch_add(1);
          }
          resolved.fetch_add(1);
        }
      });
    }
  }
  // Swap both names once each has demonstrably served old-model traffic.
  for (int m = 0; m < 2; ++m) {
    ASSERT_TRUE(eventually([&] { return from_old[m].load() >= 2; }));
    fleet.swap(kNames[m], new_model[m]);
  }
  for (auto& client : clients) client.join();

  EXPECT_EQ(resolved.load(), 2 * kClientsPerModel * kPerClient) << "a request was dropped";
  EXPECT_EQ(misrouted.load(), 0) << "a response matched neither generation of its name";
  for (int m = 0; m < 2; ++m) {
    EXPECT_GT(from_old[m].load(), 0) << kNames[m] << " swapped before any old traffic";
    // Post-swap, both names answer with the new weights.
    const auto settled = fleet.submit(kNames[m], request[m]).get();
    EXPECT_EQ(max_abs_diff(settled[0], want_new[m][0]), 0.0f) << kNames[m];
  }
}

}  // namespace
}  // namespace temco
