// Thread pool and parallel_for: coverage, exception propagation, reuse.
#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <memory>
#include <numeric>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "kernels/gemm.hpp"
#include "kernels/kernels.hpp"
#include "models/zoo.hpp"
#include "parallel/parallel_for.hpp"
#include "parallel/thread_pool.hpp"
#include "runtime/executor.hpp"
#include "support/rng.hpp"
#include "tensor/compare.hpp"

namespace temco {
namespace {

TEST(ThreadPoolTest, RunsEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  constexpr std::size_t kTasks = 1000;
  std::vector<std::atomic<int>> counts(kTasks);
  pool.run(kTasks, [&](std::size_t i) { counts[i].fetch_add(1); });
  for (const auto& c : counts) EXPECT_EQ(c.load(), 1);
}

TEST(ThreadPoolTest, ZeroTasksIsNoOp) {
  ThreadPool pool(2);
  EXPECT_NO_THROW(pool.run(0, [](std::size_t) { FAIL(); }));
}

TEST(ThreadPoolTest, SingleThreadPoolStillWorks) {
  ThreadPool pool(1);
  std::atomic<int> sum{0};
  pool.run(100, [&](std::size_t i) { sum.fetch_add(static_cast<int>(i)); });
  EXPECT_EQ(sum.load(), 4950);
}

TEST(ThreadPoolTest, ReusableAcrossManyBatches) {
  // Regression guard for the epoch logic: back-to-back batches whose Batch
  // objects reuse the same stack slot must each run to completion.
  ThreadPool pool(4);
  for (int round = 0; round < 200; ++round) {
    std::atomic<int> count{0};
    pool.run(16, [&](std::size_t) { count.fetch_add(1); });
    ASSERT_EQ(count.load(), 16) << "round " << round;
  }
}

TEST(ThreadPoolTest, ExceptionPropagatesToCaller) {
  ThreadPool pool(4);
  EXPECT_THROW(
      pool.run(64,
               [](std::size_t i) {
                 if (i == 13) throw std::runtime_error("boom");
               }),
      std::runtime_error);
  // Pool remains usable afterwards.
  std::atomic<int> count{0};
  pool.run(8, [&](std::size_t) { count.fetch_add(1); });
  EXPECT_EQ(count.load(), 8);
}

TEST(ThreadPoolTest, ConcurrencyCountsCaller) {
  ThreadPool pool(3);
  EXPECT_EQ(pool.concurrency(), 3u);
  ThreadPool solo(1);
  EXPECT_EQ(solo.concurrency(), 1u);
}

TEST(ThreadPoolTest, NestedRunExecutesInlineAndCompletes) {
  // A task may itself call run (a serving worker's task runs an Executor
  // whose kernels' parallel_for targets the global pool).  The nested batch
  // must detect the task context, run inline, and never deadlock.
  ThreadPool outer(4);
  ThreadPool inner(4);
  std::atomic<int> count{0};
  outer.run(8, [&](std::size_t) {
    EXPECT_TRUE(ThreadPool::in_task());
    inner.run(16, [&](std::size_t) {
      EXPECT_TRUE(ThreadPool::in_task());
      count.fetch_add(1);
    });
    // Self-nesting on the same pool must be inline too.
    outer.run(4, [&](std::size_t) { count.fetch_add(1); });
  });
  EXPECT_EQ(count.load(), 8 * (16 + 4));
  EXPECT_FALSE(ThreadPool::in_task());
}

TEST(ThreadPoolTest, StressManyBatchesWithRacingExceptions) {
  // Exactly-once propagation under contention: every round throws from a
  // different index while other lanes keep claiming work; the pool must
  // surface one error per round and stay fully usable.
  ThreadPool pool(4);
  for (int round = 0; round < 100; ++round) {
    std::atomic<int> done{0};
    const std::size_t bad = static_cast<std::size_t>(round) % 32;
    try {
      pool.run(32, [&](std::size_t i) {
        if (i == bad) throw std::runtime_error("boom");
        done.fetch_add(1);
      });
      FAIL() << "round " << round << " swallowed the error";
    } catch (const std::runtime_error&) {
    }
    ASSERT_LE(done.load(), 31) << "round " << round;
    std::atomic<int> count{0};
    pool.run(8, [&](std::size_t) { count.fetch_add(1); });
    ASSERT_EQ(count.load(), 8) << "round " << round;
  }
}

TEST(ParallelForTest, SumMatchesSerial) {
  ThreadPool pool(4);
  constexpr std::size_t kN = 100000;
  std::vector<int> data(kN, 1);
  std::atomic<long long> sum{0};
  ParallelOptions options;
  options.pool = &pool;
  options.grain = 128;
  parallel_for_ranges(
      kN,
      [&](std::size_t begin, std::size_t end) {
        long long local = 0;
        for (std::size_t i = begin; i < end; ++i) local += data[i];
        sum.fetch_add(local);
      },
      options);
  EXPECT_EQ(sum.load(), static_cast<long long>(kN));
}

TEST(ParallelForTest, RangesAreDisjointAndCovering) {
  ThreadPool pool(4);
  constexpr std::size_t kN = 4097;  // deliberately not a multiple of anything
  std::vector<std::atomic<int>> touched(kN);
  ParallelOptions options;
  options.pool = &pool;
  options.grain = 64;
  parallel_for(
      kN, [&](std::size_t i) { touched[i].fetch_add(1); }, options);
  for (std::size_t i = 0; i < kN; ++i) ASSERT_EQ(touched[i].load(), 1) << i;
}

TEST(ParallelForTest, SmallRangeRunsSerially) {
  ThreadPool pool(4);
  ParallelOptions options;
  options.pool = &pool;
  options.grain = 1000;
  const auto caller = std::this_thread::get_id();
  std::vector<std::thread::id> seen(10);
  parallel_for(
      10, [&](std::size_t i) { seen[i] = std::this_thread::get_id(); }, options);
  for (const auto id : seen) EXPECT_EQ(id, caller);
}

TEST(ParallelFor2dTest, CoversOuterTimesInner) {
  ThreadPool pool(4);
  std::atomic<int> count{0};
  ParallelOptions options;
  options.pool = &pool;
  options.grain = 1;
  parallel_for_2d(
      17, 11,
      [&](std::size_t, std::size_t begin, std::size_t end) {
        count.fetch_add(static_cast<int>(end - begin));
      },
      options);
  EXPECT_EQ(count.load(), 17 * 11);
}

TEST(GlobalPoolTest, IsSingletonAndUsable) {
  ThreadPool& a = ThreadPool::global();
  ThreadPool& b = ThreadPool::global();
  EXPECT_EQ(&a, &b);
  std::atomic<int> count{0};
  a.run(32, [&](std::size_t) { count.fetch_add(1); });
  EXPECT_EQ(count.load(), 32);
}

TEST(ThreadPoolShutdownTest, IsIdempotentAndLeavesPoolUsableInline) {
  ThreadPool pool(4);
  std::atomic<int> count{0};
  pool.run(64, [&](std::size_t) { count.fetch_add(1); });
  EXPECT_EQ(count.load(), 64);

  pool.shutdown();
  pool.shutdown();  // second call must be a no-op, not a double-join
  EXPECT_EQ(pool.concurrency(), 1u) << "workers retired";

  // A retired pool still runs batches — serially, on the caller.
  count.store(0);
  const auto caller = std::this_thread::get_id();
  std::vector<std::thread::id> seen(16);
  pool.run(16, [&](std::size_t i) {
    count.fetch_add(1);
    seen[i] = std::this_thread::get_id();
  });
  EXPECT_EQ(count.load(), 16);
  for (const auto id : seen) EXPECT_EQ(id, caller);
}

TEST(ThreadPoolShutdownTest, DestructionAfterShutdownIsClean) {
  auto pool = std::make_unique<ThreadPool>(3);
  pool->run(8, [](std::size_t) {});
  pool->shutdown();
  pool.reset();  // destructor re-enters shutdown(); must not hang or throw
}

TEST(ThreadPoolConcurrentTest, RacingCallersBothCompleteAllTasks) {
  // Two threads sharing one pool (the serving pattern: concurrent sessions
  // whose kernels share the global pool).  The loser of the ownership race
  // runs inline; both must execute every index exactly once.
  ThreadPool pool(4);
  constexpr std::size_t kTasks = 2000;
  std::atomic<int> a_count{0};
  std::atomic<int> b_count{0};
  std::thread other([&] {
    pool.run(kTasks, [&](std::size_t) { b_count.fetch_add(1); });
  });
  pool.run(kTasks, [&](std::size_t) { a_count.fetch_add(1); });
  other.join();
  EXPECT_EQ(a_count.load(), static_cast<int>(kTasks));
  EXPECT_EQ(b_count.load(), static_cast<int>(kTasks));
}

// ---- scoped intra-op pool override ------------------------------------------

TEST(ScopedIntraOpPoolTest, OverridesResolveNestAndRestore) {
  EXPECT_EQ(ScopedIntraOpPool::active(), nullptr);
  ThreadPool outer(2);
  ThreadPool inner(3);
  {
    ScopedIntraOpPool a(&outer);
    EXPECT_EQ(ScopedIntraOpPool::active(), &outer);
    {
      ScopedIntraOpPool b(&inner);
      EXPECT_EQ(ScopedIntraOpPool::active(), &inner);
    }
    EXPECT_EQ(ScopedIntraOpPool::active(), &outer);
  }
  EXPECT_EQ(ScopedIntraOpPool::active(), nullptr);
}

TEST(ScopedIntraOpPoolTest, UnqualifiedParallelForRunsOnTheScopedPool) {
  // A 1-thread scoped pool forces serial execution: every chunk runs on the
  // calling thread even for a range far above the fork threshold.
  ThreadPool serial(1);
  ScopedIntraOpPool scope(&serial);
  const std::thread::id caller = std::this_thread::get_id();
  std::atomic<int> off_thread{0};
  parallel_for(
      100000,
      [&](std::size_t) {
        if (std::this_thread::get_id() != caller) off_thread.fetch_add(1);
      },
      {.grain = 1});
  EXPECT_EQ(off_thread.load(), 0);
}

TEST(ScopedIntraOpPoolTest, ArenaFusedKernelHonoursTheExecutorsIntraOpWidth) {
  // The arena path of the fused kernel stripes rows over scratch slots
  // planned for the global pool.  At intra_op_threads = 1 it must still run
  // every stripe on the caller, with no pool batch at all.  The probe is the
  // global pool's fork count: only a batch handed to its workers advances
  // it, while the serial GEMM calls inside each row leave it alone.  The
  // fused node has 2 × 16 row tasks, enough to fork.
  Rng rng(5);
  ir::Graph g;
  const auto x = g.input(Shape{2, 4, 16, 4}, "x");
  const auto fused = g.fused_conv_act_conv(
      x, Tensor::random_normal(Shape{12, 4, 1, 1}, rng, 0.4f),
      Tensor::random_normal(Shape{12}, rng, 0.1f),
      Tensor::random_normal(Shape{4, 12, 1, 1}, rng, 0.4f),
      Tensor::random_normal(Shape{4}, rng, 0.1f), ir::ActKind::kRelu, false, ir::PoolKind::kMax,
      2, 2, "fused");
  g.set_outputs({fused});
  g.infer_shapes();
  const Tensor input = Tensor::random_normal(Shape{2, 4, 16, 4}, rng);

  runtime::Executor serial(g, {.use_arena = true, .intra_op_threads = 1});
  runtime::Executor pooled(g, {.use_arena = true});
  const Tensor expected = pooled.run({input}).outputs[0];
  ThreadPool& global = ThreadPool::global();
  const std::uint64_t before = global.forked_batches();
  const Tensor got = serial.run({input}).outputs[0];
  EXPECT_EQ(global.forked_batches(), before) << "the fused kernel forked at width 1";
  EXPECT_EQ(max_abs_diff(expected, got), 0.0f);
  // The probe sees a fork when one is due: on a multi-lane global pool the
  // default-width executor stripes the same node across it.
  if (global.concurrency() > 1) {
    pooled.run({input});
    EXPECT_GT(global.forked_batches(), before);
  }
}

TEST(ScopedIntraOpPoolTest, DirectConvIsBitInvariantToIntraOpWidthAndBatchSize) {
  // Tucker cores run on the direct conv kernel, one task per (image, output
  // row, channel group).  Each output element is owned by one task with a
  // fixed chain, so neither the intra-op width nor the batch the image
  // arrives in may change a bit — on any tier.
  struct Core { std::int64_t c_in, c_out, side; };
  const Core cores[] = {{2, 1, 64}, {6, 3, 16}, {13, 13, 1}, {2, 2, 7}};
  const std::int64_t batch = 4;
  ThreadPool narrow(1);
  ThreadPool wide(4);
  Rng rng(11);
  for (const Core& c : cores) {
    const Tensor x = Tensor::random_normal(Shape{batch, c.c_in, c.side, c.side}, rng);
    const Tensor w = Tensor::random_normal(Shape{c.c_out, c.c_in, 3, 3}, rng, 0.3f);
    const Tensor b = Tensor::random_normal(Shape{c.c_out}, rng, 0.1f);
    const Shape out_shape{batch, c.c_out, c.side, c.side};
    for (const kernels::gemm::Isa isa : kernels::gemm::reachable_isas()) {
      kernels::gemm::ScopedIsa forced(isa);
      const std::string where = std::string(support::isa_name(isa)) + " " +
                                std::to_string(c.c_in) + "->" + std::to_string(c.c_out) + " @" +
                                std::to_string(c.side);
      Tensor serial = Tensor::zeros(out_shape);
      {
        ScopedIntraOpPool scope(&narrow);
        kernels::conv2d(x, w, b, 1, 1, 1, 1, serial);
      }
      Tensor pooled = Tensor::zeros(out_shape);
      const std::uint64_t forks = wide.forked_batches();
      {
        ScopedIntraOpPool scope(&wide);
        kernels::conv2d(x, w, b, 1, 1, 1, 1, pooled);
      }
      if (c.side > 1) {
        EXPECT_GT(wide.forked_batches(), forks) << where << ": never forked";
      }
      EXPECT_EQ(std::memcmp(serial.data(), pooled.data(),
                            static_cast<std::size_t>(serial.numel()) * sizeof(float)),
                0)
          << where << ": intra-op width 4 changed the output";

      // Each image alone, as a batch of one, reproduces its slice.
      const std::int64_t in_image = c.c_in * c.side * c.side;
      const std::int64_t out_image = c.c_out * c.side * c.side;
      for (std::int64_t n = 0; n < batch; ++n) {
        Tensor xi = Tensor::zeros(Shape{1, c.c_in, c.side, c.side});
        std::memcpy(xi.data(), x.data() + n * in_image,
                    static_cast<std::size_t>(in_image) * sizeof(float));
        Tensor single = Tensor::zeros(Shape{1, c.c_out, c.side, c.side});
        kernels::conv2d(xi, w, b, 1, 1, 1, 1, single);
        EXPECT_EQ(std::memcmp(single.data(), serial.data() + n * out_image,
                              static_cast<std::size_t>(out_image) * sizeof(float)),
                  0)
            << where << ": image " << n << " alone differs from its batch slice";
      }
    }
  }
}

TEST(ScopedIntraOpPoolTest, RetiredScopedPoolRunsForcedIsaKernelsInlineWithoutDeadlock) {
  // The serving shutdown order can leave a kernel's unqualified parallel_for
  // resolving to a pool whose workers are already retired (ScopedIntraOpPool
  // installed by a worker task that outlives the pool's shutdown).  The
  // contract: the batch runs inline on the caller — same results, no
  // deadlock — for every kernel tier this machine can execute.
  namespace gemm = kernels::gemm;
  const std::int64_t m = 64, n = 256, k = 128;
  Rng rng(7);
  std::vector<float> a(static_cast<std::size_t>(m * k));
  std::vector<float> b(static_cast<std::size_t>(k * n));
  for (float& x : a) x = rng.normal();
  for (float& x : b) x = rng.normal();

  for (gemm::Isa isa : gemm::reachable_isas()) {
    gemm::ScopedIsa forced(isa);
    gemm::GemmOptions serial;
    serial.parallel = false;
    std::vector<float> baseline(static_cast<std::size_t>(m * n));
    gemm::gemm_direct(a.data(), k, m, k, b.data(), n, n, baseline.data(), n, serial);

    ThreadPool retired(4);
    retired.shutdown();
    ScopedIntraOpPool scope(&retired);
    gemm::GemmOptions options;
    options.parallel = true;  // no explicit pool: resolves to the retired scoped one
    std::vector<float> c(static_cast<std::size_t>(m * n));
    gemm::gemm_direct(a.data(), k, m, k, b.data(), n, n, c.data(), n, options);
    for (std::size_t i = 0; i < c.size(); ++i) {
      ASSERT_EQ(baseline[i], c[i]) << support::isa_name(isa)
                                   << " tier through a retired pool changed element " << i;
    }
  }

  // And the inline guarantee itself: through a retired scoped pool, every
  // chunk of an unqualified parallel_for stays on the calling thread.
  ThreadPool retired(2);
  retired.shutdown();
  ScopedIntraOpPool scope(&retired);
  const std::thread::id caller = std::this_thread::get_id();
  std::atomic<int> off_thread{0};
  parallel_for(
      50000,
      [&](std::size_t) {
        if (std::this_thread::get_id() != caller) off_thread.fetch_add(1);
      },
      {.grain = 1});
  EXPECT_EQ(off_thread.load(), 0);
}

// ---- bit-determinism across thread counts -----------------------------------

/// The property the arena differential tests and the serving runtime both
/// lean on: for a fixed kernel tier, the GEMM block grid assigns every output
/// element a geometry-determined owner and accumulation order, so thread
/// count must never change a single bit.
TEST(ThreadInvarianceTest, MultithreadedGemmBitwiseIdenticalToSingleThread) {
  namespace gemm = kernels::gemm;
  const std::int64_t m = 96, n = 1024, k = 300;  // spans blocks and k-strips
  Rng rng(42);
  std::vector<float> a(static_cast<std::size_t>(m * k));
  std::vector<float> b(static_cast<std::size_t>(k * n));
  std::vector<float> bias(static_cast<std::size_t>(m));
  for (float& x : a) x = rng.normal();
  for (float& x : b) x = rng.normal();
  for (float& x : bias) x = rng.normal();

  for (gemm::Isa isa : gemm::reachable_isas()) {
    gemm::ScopedIsa forced(isa);
    gemm::GemmOptions serial;
    serial.parallel = false;
    serial.init = gemm::Init::kRowBias;
    serial.bias = bias.data();
    std::vector<float> baseline(static_cast<std::size_t>(m * n));
    gemm::gemm_direct(a.data(), k, m, k, b.data(), n, n, baseline.data(), n, serial);

    for (std::size_t threads : {1u, 4u, 8u}) {
      ThreadPool pool(threads);
      gemm::GemmOptions options = serial;
      options.parallel = true;
      options.pool = &pool;
      std::vector<float> c(static_cast<std::size_t>(m * n));
      gemm::gemm_direct(a.data(), k, m, k, b.data(), n, n, c.data(), n, options);
      for (std::size_t i = 0; i < c.size(); ++i) {
        ASSERT_EQ(baseline[i], c[i])
            << support::isa_name(isa) << " tier with " << threads
            << " intra-op threads changed element " << i;
      }
    }
  }
}

TEST(ThreadInvarianceTest, ExecutorIntraOpWidthIsBitInvariantAcrossZoo) {
  // Full graphs, both memory regimes: any configured intra-op width must
  // reproduce the default-pool run bit-for-bit.
  for (const char* name : {"vgg11", "resnet18", "densenet121"}) {
    models::ModelConfig config;
    config.batch = 1;
    config.image = 32;
    config.width = 0.25;
    config.classes = 10;
    config.seed = 7;
    const ir::Graph graph = models::find_model(name).build(config);
    Rng rng(11);
    const Tensor x = Tensor::random_normal(graph.node(0).out_shape, rng);

    for (bool arena : {false, true}) {
      runtime::ExecutorOptions base_options;
      base_options.use_arena = arena;
      const Tensor baseline = runtime::execute(graph, {x}, base_options).outputs[0];
      for (std::size_t width : {1u, 4u, 8u}) {
        runtime::ExecutorOptions options = base_options;
        options.intra_op_threads = width;
        const Tensor got = runtime::execute(graph, {x}, options).outputs[0];
        ASSERT_EQ(got.shape(), baseline.shape());
        for (std::int64_t i = 0; i < got.numel(); ++i) {
          ASSERT_EQ(baseline[i], got[i])
              << name << (arena ? " (arena)" : " (reference)") << " intra_op_threads=" << width
              << " changed output element " << i;
        }
      }
    }
  }
}

}  // namespace
}  // namespace temco
