// GEMM micro-kernel engine: correctness on ragged shapes, the determinism
// contract (bit-identical across thread counts and packing forms), and the
// executor's plan-time weight packing.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "kernels/gemm.hpp"
#include "kernels/kernels.hpp"
#include "kernels/naive.hpp"
#include "linalg/matmul.hpp"
#include "models/zoo.hpp"
#include "parallel/thread_pool.hpp"
#include "runtime/executor.hpp"
#include "support/rng.hpp"
#include "tensor/compare.hpp"

namespace temco {
namespace {

namespace gemm = kernels::gemm;

Tensor random(const Shape& shape, std::uint64_t seed, float scale = 1.0f) {
  Rng rng(seed);
  return Tensor::random_normal(shape, rng, scale);
}

/// Runs the engine (packed A, serial) on a [m,k]×[k,n] product with kZero
/// init, returning C.
Tensor gemm_serial(const Tensor& a, const Tensor& b) {
  const std::int64_t m = a.shape()[0];
  const std::int64_t k = a.shape()[1];
  const std::int64_t n = b.shape()[1];
  Tensor c = Tensor::zeros(Shape{m, n});
  std::vector<float> packed(static_cast<std::size_t>(gemm::packed_a_floats(m, k)));
  gemm::pack_a(a.data(), k, 1, m, k, packed.data());
  gemm::GemmOptions options;
  options.init = gemm::Init::kZero;
  options.parallel = false;
  gemm::gemm_packed(packed.data(), m, k, b.data(), n, n, c.data(), n, options);
  return c;
}

// ---- correctness: ragged shape sweep vs the naive i-k-j baseline -----------

TEST(GemmTest, MatchesNaiveAcrossRaggedShapes) {
  // Every combination of below/at/above the register tile (kMR=4, kNR=8) and
  // a k that crosses the kKC=256 strip boundary.
  const std::int64_t ms[] = {1, 3, 4, 5, 8, 31, 32, 33};
  const std::int64_t ns[] = {1, 7, 8, 9, 16, 33, 511, 513};
  const std::int64_t ks[] = {1, 2, 17, 256, 300};
  for (const std::int64_t m : ms) {
    for (const std::int64_t n : ns) {
      for (const std::int64_t k : ks) {
        if (m * n * k > 4'000'000) continue;  // keep the sweep fast
        const Tensor a = random(Shape{m, k}, 100 + static_cast<std::uint64_t>(m * k));
        const Tensor b = random(Shape{k, n}, 200 + static_cast<std::uint64_t>(n * k));
        const Tensor expected = kernels::naive::matmul(a, b);
        const Tensor got = gemm_serial(a, b);
        // Same per-element k-ascending order up to kKC-strip association;
        // values have magnitude ~sqrt(k), so scale the tolerance with it.
        const float tol = 1e-5f * std::sqrt(static_cast<float>(k)) * 4.0f;
        EXPECT_LT(max_abs_diff(got, expected), tol) << m << "x" << k << "x" << n;
      }
    }
  }
}

TEST(GemmTest, ZeroExtentsAreNoOps) {
  const Tensor a = random(Shape{4, 8}, 1);
  const Tensor b = random(Shape{8, 0}, 2);
  const Tensor c = gemm_serial(a, b);
  EXPECT_EQ(c.numel(), 0);
  Tensor empty_rows = gemm_serial(random(Shape{0, 8}, 3), random(Shape{8, 4}, 4));
  EXPECT_EQ(empty_rows.numel(), 0);
}

TEST(GemmTest, ColBiasInitializesPerColumn) {
  const std::int64_t m = 5, k = 9, n = 11;
  const Tensor a = random(Shape{m, k}, 5);
  const Tensor b = random(Shape{k, n}, 6);
  const Tensor bias = random(Shape{n}, 7);
  Tensor c = Tensor::zeros(Shape{m, n});
  gemm::GemmOptions options;
  options.init = gemm::Init::kColBias;
  options.bias = bias.data();
  options.parallel = false;
  gemm::gemm_direct(a.data(), k, m, k, b.data(), n, n, c.data(), n, options);
  const Tensor product = kernels::naive::matmul(a, b);
  for (std::int64_t i = 0; i < m; ++i) {
    for (std::int64_t j = 0; j < n; ++j) {
      EXPECT_NEAR(c.at(i, j), product.at(i, j) + bias[j], 1e-4f);
    }
  }
}

// ---- determinism contract --------------------------------------------------

TEST(GemmTest, BitIdenticalAcrossThreadCounts) {
  // Geometry spanning multiple row blocks (kMC=32), column blocks (kNC=512),
  // and k strips (kKC=256), so the task grid is genuinely parallel.
  const std::int64_t m = 70, k = 300, n = 1100;
  const Tensor a = random(Shape{m, k}, 11);
  const Tensor b = random(Shape{k, n}, 12);
  const Tensor baseline = gemm_serial(a, b);

  std::vector<float> packed(static_cast<std::size_t>(gemm::packed_a_floats(m, k)));
  gemm::pack_a(a.data(), k, 1, m, k, packed.data());
  for (const std::size_t threads : {1u, 2u, 8u}) {
    ThreadPool pool(threads);
    Tensor c = Tensor::zeros(Shape{m, n});
    gemm::GemmOptions options;
    options.init = gemm::Init::kZero;
    options.pool = &pool;
    gemm::gemm_packed(packed.data(), m, k, b.data(), n, n, c.data(), n, options);
    EXPECT_EQ(max_abs_diff(c, baseline), 0.0f) << threads << " threads";
  }
}

TEST(GemmTest, PackedAndDirectAreBitIdentical) {
  const std::int64_t m = 37, k = 65, n = 101;
  const Tensor a = random(Shape{m, k}, 13);
  const Tensor b = random(Shape{k, n}, 14);
  const Tensor packed_result = gemm_serial(a, b);
  Tensor direct = Tensor::zeros(Shape{m, n});
  gemm::GemmOptions options;
  options.init = gemm::Init::kZero;
  options.parallel = false;
  gemm::gemm_direct(a.data(), k, m, k, b.data(), n, n, direct.data(), n, options);
  EXPECT_EQ(max_abs_diff(direct, packed_result), 0.0f);
}

// ---- conv1x1 degenerate and tail shapes vs the retained naive kernel -------

struct Conv1x1Case {
  std::int64_t n, c_in, c_out, h, w;
};

class Conv1x1TailTest : public ::testing::TestWithParam<Conv1x1Case> {};

TEST_P(Conv1x1TailTest, MatchesRetainedNaiveKernel) {
  const Conv1x1Case p = GetParam();
  const Tensor x = random(Shape{p.n, p.c_in, p.h, p.w}, 21, 1.0f);
  const Tensor w = random(Shape{p.c_out, p.c_in, 1, 1}, 22, 0.3f);
  const Tensor b = random(Shape{p.c_out}, 23, 0.1f);
  Tensor expected = Tensor::zeros(Shape{p.n, p.c_out, p.h, p.w});
  kernels::naive::conv1x1(x, w, b, expected);
  Tensor got = Tensor::zeros(expected.shape());
  kernels::conv2d(x, w, b, 1, 1, 0, 0, got);
  EXPECT_LT(max_abs_diff(got, expected), 1e-5f);

  // Determinism across parallelism: the engine's pooled grid must reproduce
  // its own output bit-for-bit for any thread count.
  for (const std::size_t threads : {1u, 2u, 8u}) {
    ThreadPool pool(threads);
    std::vector<float> packed(static_cast<std::size_t>(
        kernels::conv2d_prepack_floats(w, 1, 1, p.w)));
    kernels::conv2d_prepack(w, 1, 1, p.w, packed.data());
    Tensor pooled_out = Tensor::zeros(expected.shape());
    gemm::GemmOptions options;
    options.bias = b.data();
    options.init = gemm::Init::kRowBias;
    options.pool = &pool;
    options.batch = p.n;
    options.b_batch_stride = p.c_in * p.h * p.w;
    options.c_batch_stride = p.c_out * p.h * p.w;
    gemm::gemm_packed(packed.data(), p.c_out, p.c_in, x.data(), p.h * p.w, p.h * p.w,
                      pooled_out.data(), p.h * p.w, options);
    EXPECT_EQ(max_abs_diff(pooled_out, got), 0.0f)
        << threads << " threads on " << p.c_in << "->" << p.c_out;
  }
}

INSTANTIATE_TEST_SUITE_P(
    DegenerateAndTails, Conv1x1TailTest,
    ::testing::Values(Conv1x1Case{1, 1, 1, 1, 1},    // everything degenerate
                      Conv1x1Case{1, 1, 4, 3, 3},    // c_in=1, hw%kNR!=0
                      Conv1x1Case{1, 4, 1, 5, 5},    // c_out=1
                      Conv1x1Case{2, 3, 5, 1, 7},    // c_out%kMR!=0, w%kNR!=0
                      Conv1x1Case{1, 8, 64, 1, 1},   // hw=1
                      Conv1x1Case{1, 16, 7, 3, 5},   // ragged everything
                      Conv1x1Case{3, 5, 9, 4, 9},    // batch>1 with tails
                      Conv1x1Case{1, 128, 130, 6, 6}));  // multi-row-block m

TEST(Conv1x1Test, PrepackedMatchesOnTheFlyBitwise) {
  const Tensor x = random(Shape{2, 24, 9, 7}, 31);
  const Tensor w = random(Shape{40, 24, 1, 1}, 32, 0.3f);
  const Tensor b = random(Shape{40}, 33, 0.1f);
  Tensor on_the_fly = Tensor::zeros(Shape{2, 40, 9, 7});
  kernels::conv2d(x, w, b, 1, 1, 0, 0, on_the_fly);
  std::vector<float> packed(
      static_cast<std::size_t>(kernels::conv2d_prepack_floats(w, 1, 1, 7)));
  kernels::conv2d_prepack(w, 1, 1, 7, packed.data());
  Tensor prepacked = Tensor::zeros(on_the_fly.shape());
  kernels::conv2d(x, w, b, 1, 1, 0, 0, prepacked, packed.data());
  EXPECT_EQ(max_abs_diff(prepacked, on_the_fly), 0.0f);
}

// ---- general conv2d through the shifted-GEMM path --------------------------

TEST(ShiftedGemmConvTest, MatchesRetainedNaiveKernel) {
  struct Case { std::int64_t n, c_in, c_out, h, w, kh, kw, pad; };
  const Case cases[] = {
      {1, 3, 5, 8, 8, 3, 3, 1},   {2, 4, 4, 7, 9, 3, 3, 1},  {1, 1, 1, 5, 5, 3, 3, 1},
      {1, 6, 2, 10, 6, 5, 5, 2},  {1, 2, 3, 6, 6, 1, 3, 1},  {2, 3, 4, 6, 6, 3, 1, 0},
      {1, 5, 7, 4, 4, 1, 1, 1},   // padded pointwise: not the 1×1 fast path
  };
  for (const Case& c : cases) {
    const std::int64_t h_out = c.h + 2 * c.pad - c.kh + 1;
    const std::int64_t w_out = c.w + 2 * c.pad - c.kw + 1;
    const Tensor x = random(Shape{c.n, c.c_in, c.h, c.w}, 41);
    const Tensor w = random(Shape{c.c_out, c.c_in, c.kh, c.kw}, 42, 0.3f);
    const Tensor b = random(Shape{c.c_out}, 43, 0.1f);
    Tensor expected = Tensor::zeros(Shape{c.n, c.c_out, h_out, w_out});
    kernels::naive::conv2d(x, w, b, 1, 1, c.pad, c.pad, expected);
    Tensor got = Tensor::zeros(expected.shape());
    kernels::conv2d(x, w, b, 1, 1, c.pad, c.pad, got);
    // The shifted-GEMM path sums taps in (r,s,ci) order vs naive's (ci,r,s):
    // same additions, different association.
    EXPECT_LT(max_abs_diff(got, expected), 2e-4f)
        << c.c_in << "->" << c.c_out << " k" << c.kh << "x" << c.kw;
  }
}

TEST(ShiftedGemmConvTest, StridedPathMatchesRetainedNaiveKernel) {
  const Tensor x = random(Shape{2, 5, 11, 11}, 51);
  const Tensor w = random(Shape{6, 5, 3, 3}, 52, 0.3f);
  const Tensor b = random(Shape{6}, 53, 0.1f);
  const std::int64_t h_out = (11 + 2 - 3) / 2 + 1;
  Tensor expected = Tensor::zeros(Shape{2, 6, h_out, h_out});
  kernels::naive::conv2d(x, w, b, 2, 2, 1, 1, expected);
  Tensor got = Tensor::zeros(expected.shape());
  kernels::conv2d(x, w, b, 2, 2, 1, 1, got);
  EXPECT_LT(max_abs_diff(got, expected), 2e-4f);
  // w_out = 6 < kNR: a narrow strided conv still packs the flattened
  // W[c_out, c_in·kh·kw] for its im2col GEMM, like every strided conv.
  EXPECT_EQ(kernels::conv2d_prepack_floats(w, 2, 2, h_out), gemm::packed_a_floats(6, 45));
}

// ---- linalg::matmul now rides the engine -----------------------------------

TEST(LinalgMatmulTest, MatchesNaiveOnOddShapes) {
  const Tensor a = random(Shape{33, 100}, 61);
  const Tensor b = random(Shape{100, 65}, 62);
  const Tensor expected = kernels::naive::matmul(a, b);
  const Tensor got = linalg::matmul(a, b);
  EXPECT_LT(max_abs_diff(got, expected), 1e-4f);
}

// ---- executor plan-time packing --------------------------------------------

TEST(ExecutorPrepackTest, PackedBytesReportedSeparatelyAndOutputsBitIdentical) {
  models::ModelConfig config;
  config.batch = 1;
  config.width = 0.25;
  // Large enough that stride-1 convs keep w_out >= kNR after the stem
  // downsampling — otherwise they all dispatch to the direct kernel and only
  // the strided convs pack.
  config.image = 64;
  const ir::Graph graph = models::build_resnet(18, config);
  Rng rng(71);
  Tensor x;
  for (const auto& node : graph.nodes()) {
    if (node.kind == ir::OpKind::kInput) x = Tensor::random_normal(node.out_shape, rng);
  }

  const auto reference = runtime::execute(graph, {x});
  EXPECT_GT(reference.packed_weight_bytes, 0);
  // Packed weights are weight-side state: the internal-tensor accounting and
  // the planner-facing weight_bytes stay exactly as before.
  EXPECT_EQ(reference.weight_bytes, graph.total_weight_bytes());

  const auto arena = runtime::execute(graph, {x}, {.use_arena = true});
  EXPECT_EQ(arena.packed_weight_bytes, reference.packed_weight_bytes);
  EXPECT_EQ(arena.heap_allocations, 0);
  ASSERT_EQ(arena.outputs.size(), reference.outputs.size());
  for (std::size_t i = 0; i < arena.outputs.size(); ++i) {
    EXPECT_EQ(max_abs_diff(arena.outputs[i], reference.outputs[i]), 0.0f);
  }
}

}  // namespace
}  // namespace temco
