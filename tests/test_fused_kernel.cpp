// Fused lconv-act-[pool]-fconv kernel vs the unfused layer sequence.
//
// This is the paper's central semantics-preservation claim for §3.2: the
// fused kernel must produce the same values as running lconv, activation,
// (pool,) fconv through separate full-width tensors.  On a vector ISA tier
// both paths give every output element the same accumulation chain, so they
// must agree byte for byte; the scalar tier adds the bias at different points
// in its skinny and full tiles and is held to a tolerance.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <vector>

#include "kernels/gemm.hpp"
#include "kernels/kernels.hpp"
#include "support/rng.hpp"
#include "tensor/compare.hpp"

namespace temco {
namespace {

struct FusedCase {
  std::int64_t n, c_reduced, h, w, c_restored, c_out;
  ir::ActKind act;
  bool has_pool;
  ir::PoolKind pool_kind;
  std::int64_t pool_k, pool_s;
};

/// Names a case by its geometry, activation and pool, e.g.
/// "n1_c2_8x8_r8_o3_relu_max2s2", so ctest lists a readable name instead of
/// gtest's byte dump.
void PrintTo(const FusedCase& c, std::ostream* os) {
  *os << 'n' << c.n << "_c" << c.c_reduced << '_' << c.h << 'x' << c.w << "_r" << c.c_restored
      << "_o" << c.c_out << (c.act == ir::ActKind::kRelu ? "_relu" : "_silu");
  if (c.has_pool) {
    *os << (c.pool_kind == ir::PoolKind::kMax ? "_max" : "_avg") << c.pool_k << 's' << c.pool_s;
  }
}

/// Runs the unfused reference: conv1x1 → act → [pool] → conv1x1 with fully
/// materialized intermediates.
Tensor unfused_reference(const Tensor& x, const Tensor& w1, const Tensor& b1, const Tensor& w2,
                         const Tensor& b2, const FusedCase& p) {
  Tensor restored = Tensor::zeros(Shape{p.n, p.c_restored, p.h, p.w});
  kernels::conv2d(x, w1, b1, 1, 1, 0, 0, restored);
  Tensor activated = Tensor::zeros(restored.shape());
  if (p.act == ir::ActKind::kRelu) {
    kernels::relu(restored, activated);
  } else {
    kernels::silu(restored, activated);
  }
  Tensor pre_fconv = activated;
  if (p.has_pool) {
    const std::int64_t h_out = (p.h - p.pool_k) / p.pool_s + 1;
    const std::int64_t w_out = (p.w - p.pool_k) / p.pool_s + 1;
    Tensor pooled = Tensor::zeros(Shape{p.n, p.c_restored, h_out, w_out});
    kernels::pool(activated, p.pool_kind, p.pool_k, p.pool_k, p.pool_s, p.pool_s, pooled);
    pre_fconv = pooled;
  }
  Tensor out = Tensor::zeros(
      Shape{p.n, p.c_out, pre_fconv.shape()[2], pre_fconv.shape()[3]});
  kernels::conv2d(pre_fconv, w2, b2, 1, 1, 0, 0, out);
  return out;
}

class FusedKernelTest : public ::testing::TestWithParam<FusedCase> {};

bool same_bytes(const Tensor& a, const Tensor& b) {
  return a.shape() == b.shape() &&
         std::memcmp(a.data(), b.data(), static_cast<std::size_t>(a.bytes())) == 0;
}

TEST_P(FusedKernelTest, MatchesUnfusedSequence) {
  const FusedCase p = GetParam();
  Rng rng(31 + p.c_reduced + p.c_restored * 3 + (p.has_pool ? 1 : 0));
  const Tensor x = Tensor::random_normal(Shape{p.n, p.c_reduced, p.h, p.w}, rng);
  const Tensor w1 = Tensor::random_normal(Shape{p.c_restored, p.c_reduced, 1, 1}, rng, 0.4f);
  const Tensor b1 = Tensor::random_uniform(Shape{p.c_restored}, rng, -0.3f, 0.3f);
  const Tensor w2 = Tensor::random_normal(Shape{p.c_out, p.c_restored, 1, 1}, rng, 0.4f);
  const Tensor b2 = Tensor::random_uniform(Shape{p.c_out}, rng, -0.3f, 0.3f);

  for (const kernels::gemm::Isa isa : kernels::gemm::reachable_isas()) {
    kernels::gemm::ScopedIsa forced(isa);
    const Tensor expected = unfused_reference(x, w1, b1, w2, b2, p);
    Tensor got = Tensor::zeros(expected.shape());
    kernels::fused_conv_act_conv(x, w1, b1, w2, b2, p.act, p.has_pool, p.pool_kind, p.pool_k,
                                 p.pool_s, got);
    if (isa == support::Isa::kAvx2 || isa == support::Isa::kAvx512) {
      EXPECT_TRUE(same_bytes(got, expected))
          << support::isa_name(isa) << ": fused kernel differs from the unfused sequence by up to "
          << max_abs_diff(got, expected);
    } else {
      EXPECT_LT(max_abs_diff(got, expected), 5e-4f)
          << support::isa_name(isa) << ": fused kernel diverged from the unfused sequence";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    NoPool, FusedKernelTest,
    ::testing::Values(
        FusedCase{1, 2, 4, 4, 8, 3, ir::ActKind::kRelu, false, ir::PoolKind::kMax, 2, 2},
        FusedCase{2, 3, 8, 8, 16, 4, ir::ActKind::kRelu, false, ir::PoolKind::kMax, 2, 2},
        FusedCase{2, 5, 7, 9, 20, 6, ir::ActKind::kRelu, false, ir::PoolKind::kMax, 2, 2},
        FusedCase{1, 4, 6, 6, 12, 3, ir::ActKind::kSilu, false, ir::PoolKind::kMax, 2, 2},
        FusedCase{4, 8, 10, 10, 32, 8, ir::ActKind::kSilu, false, ir::PoolKind::kMax, 2, 2},
        FusedCase{1, 1, 3, 3, 4, 1, ir::ActKind::kRelu, false, ir::PoolKind::kMax, 2, 2}));

INSTANTIATE_TEST_SUITE_P(
    WithPool, FusedKernelTest,
    ::testing::Values(
        FusedCase{1, 2, 8, 8, 8, 3, ir::ActKind::kRelu, true, ir::PoolKind::kMax, 2, 2},
        FusedCase{2, 3, 8, 8, 16, 4, ir::ActKind::kRelu, true, ir::PoolKind::kAvg, 2, 2},
        FusedCase{1, 4, 9, 9, 12, 5, ir::ActKind::kRelu, true, ir::PoolKind::kMax, 3, 2},
        FusedCase{2, 4, 9, 9, 12, 5, ir::ActKind::kSilu, true, ir::PoolKind::kAvg, 3, 2},
        FusedCase{1, 6, 12, 12, 24, 6, ir::ActKind::kSilu, true, ir::PoolKind::kMax, 2, 2},
        FusedCase{3, 2, 10, 14, 10, 4, ir::ActKind::kRelu, true, ir::PoolKind::kAvg, 2, 2}));

INSTANTIATE_TEST_SUITE_P(
    EdgeCases, FusedKernelTest,
    ::testing::Values(
        // Odd H/W not divisible by the pool tile: trailing rows/columns fall
        // outside every window (floor semantics), matching the unfused pool.
        FusedCase{2, 3, 9, 7, 12, 4, ir::ActKind::kRelu, true, ir::PoolKind::kMax, 2, 2},
        FusedCase{1, 4, 11, 13, 16, 5, ir::ActKind::kSilu, true, ir::PoolKind::kAvg, 2, 2},
        FusedCase{2, 2, 7, 5, 8, 3, ir::ActKind::kRelu, true, ir::PoolKind::kMax, 3, 2},
        // Stride-2 pooling where stride < kernel (overlapping windows).
        FusedCase{1, 3, 10, 10, 12, 4, ir::ActKind::kRelu, true, ir::PoolKind::kAvg, 3, 2},
        // Single-row tiles: H == 1 without pooling, and H == pool_k so the
        // whole map collapses to one pooled output row.
        FusedCase{2, 3, 1, 7, 12, 4, ir::ActKind::kRelu, false, ir::PoolKind::kMax, 2, 2},
        FusedCase{1, 4, 1, 16, 8, 2, ir::ActKind::kSilu, false, ir::PoolKind::kMax, 2, 2},
        FusedCase{1, 3, 2, 8, 8, 3, ir::ActKind::kRelu, true, ir::PoolKind::kMax, 2, 2},
        FusedCase{2, 2, 3, 9, 10, 4, ir::ActKind::kSilu, true, ir::PoolKind::kAvg, 3, 2},
        // Single-column maps.
        FusedCase{1, 2, 5, 1, 8, 3, ir::ActKind::kRelu, false, ir::PoolKind::kMax, 2, 2},
        // Pool window larger than the input extent: the window is clipped to
        // the valid area (one pooled row/column), never read out of bounds.
        FusedCase{2, 3, 1, 5, 12, 4, ir::ActKind::kRelu, true, ir::PoolKind::kMax, 2, 2},
        FusedCase{1, 2, 3, 1, 8, 3, ir::ActKind::kSilu, true, ir::PoolKind::kAvg, 2, 2},
        FusedCase{2, 4, 1, 1, 16, 5, ir::ActKind::kRelu, true, ir::PoolKind::kAvg, 2, 2}));

// DenseNet-121's restore nodes at width 0.25, image 32, batch 4: the 1×1, 3×3
// and 7×7 dense-block rows, all narrower than one register tile, and the
// pooled stem node (16×16 max-pooled k3 s2 to 7×7).
INSTANTIATE_TEST_SUITE_P(
    DenseNet121, FusedKernelTest,
    ::testing::Values(
        FusedCase{4, 1, 1, 1, 8, 32, ir::ActKind::kRelu, false, ir::PoolKind::kMax, 2, 2},
        FusedCase{4, 1, 3, 3, 8, 32, ir::ActKind::kRelu, false, ir::PoolKind::kMax, 2, 2},
        FusedCase{4, 1, 7, 7, 8, 32, ir::ActKind::kRelu, false, ir::PoolKind::kMax, 2, 2},
        FusedCase{4, 2, 16, 16, 16, 32, ir::ActKind::kRelu, true, ir::PoolKind::kMax, 3, 2}));

TEST(FusedReluTest, EdgeValuesMatchTheScalarTernaryOnBothPaths) {
  // Identity lconv/fconv (one channel, weight 1, bias -0.0) carry every input
  // into the activation and back out unchanged, so the fused epilogue and
  // kernels::relu can be held to `v > 0 ? v : 0` bit for bit.  A vector max
  // with swapped operands would keep -0.0 and NaN instead of giving +0.0.
  // One wide row runs the activation's vector body; one-pixel rows reach it
  // through the scalar tier's skinny tile, which starts from the bias and so
  // passes -0.0 through as well.
  const float inf = std::numeric_limits<float>::infinity();
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const float denormal = std::numeric_limits<float>::denorm_min() * 3.0f;
  const std::vector<float> values = {-0.0f, 0.0f,  nan,   -nan,  inf,  -inf,    denormal, -denormal,
                                     1.5f,  -2.5f, 0.25f, -0.0f, 3.0f, -inf,    nan,      -1e-30f,
                                     7.0f};
  const auto count = static_cast<std::int64_t>(values.size());
  Tensor weight = Tensor::zeros(Shape{1, 1, 1, 1});
  weight[0] = 1.0f;
  Tensor bias = Tensor::zeros(Shape{1});
  bias[0] = -0.0f;
  for (const Shape& shape : {Shape{1, 1, 1, count}, Shape{1, 1, count, 1}}) {
    Tensor x = Tensor::zeros(shape);
    Tensor expected = Tensor::zeros(shape);
    for (std::int64_t i = 0; i < count; ++i) {
      x[i] = values[static_cast<std::size_t>(i)];
      expected[i] = x[i] > 0.0f ? x[i] : 0.0f;
    }
    Tensor relu_out = Tensor::zeros(shape);
    kernels::relu(x, relu_out);
    EXPECT_TRUE(same_bytes(relu_out, expected)) << "kernels::relu";

    for (const kernels::gemm::Isa isa : kernels::gemm::reachable_isas()) {
      kernels::gemm::ScopedIsa forced(isa);
      Tensor fused_out = Tensor::zeros(shape);
      kernels::fused_conv_act_conv(x, weight, bias, weight, bias, ir::ActKind::kRelu, false,
                                   ir::PoolKind::kMax, 2, 2, fused_out);
      EXPECT_TRUE(same_bytes(fused_out, expected))
          << support::isa_name(isa) << ": fused epilogue, rows of " << shape[3];
      EXPECT_TRUE(same_bytes(fused_out, relu_out)) << support::isa_name(isa);
    }
  }
}

TEST(FusedScratchModeTest, ExternalScratchMatchesInternalBitwise) {
  // The arena executor passes a preplanned scratch region instead of letting
  // workers allocate row buffers.  Both modes must agree bit for bit, even
  // when the external region starts filled with garbage.
  const FusedCase p{3, 4, 9, 7, 16, 5, ir::ActKind::kSilu, true, ir::PoolKind::kMax, 2, 2};
  Rng rng(77);
  const Tensor x = Tensor::random_normal(Shape{p.n, p.c_reduced, p.h, p.w}, rng);
  const Tensor w1 = Tensor::random_normal(Shape{p.c_restored, p.c_reduced, 1, 1}, rng, 0.4f);
  const Tensor b1 = Tensor::random_uniform(Shape{p.c_restored}, rng, -0.3f, 0.3f);
  const Tensor w2 = Tensor::random_normal(Shape{p.c_out, p.c_restored, 1, 1}, rng, 0.4f);
  const Tensor b2 = Tensor::random_uniform(Shape{p.c_out}, rng, -0.3f, 0.3f);

  const std::int64_t h_out = (p.h - p.pool_k) / p.pool_s + 1;
  const std::int64_t w_out = (p.w - p.pool_k) / p.pool_s + 1;
  Tensor internal = Tensor::zeros(Shape{p.n, p.c_out, h_out, w_out});
  kernels::fused_conv_act_conv(x, w1, b1, w2, b2, p.act, p.has_pool, p.pool_kind, p.pool_k,
                               p.pool_s, internal);

  const std::int64_t slot_floats =
      kernels::fused_scratch_bytes(p.c_restored, p.w, p.has_pool, w_out) /
      static_cast<std::int64_t>(sizeof(float));
  const std::size_t slots = 3;
  std::vector<float> scratch(static_cast<std::size_t>(slot_floats) * slots, -123.5f);
  Tensor external = Tensor::zeros(internal.shape());
  kernels::fused_conv_act_conv(x, w1, b1, w2, b2, p.act, p.has_pool, p.pool_kind, p.pool_k,
                               p.pool_s, external, scratch.data(), slot_floats, slots);
  EXPECT_EQ(max_abs_diff(internal, external), 0.0f);
}

TEST(FusedScratchModeTest, RejectsUndersizedScratch) {
  Rng rng(78);
  const Tensor x = Tensor::random_normal(Shape{1, 2, 4, 4}, rng);
  const Tensor w1 = Tensor::random_normal(Shape{8, 2, 1, 1}, rng, 0.4f);
  const Tensor b1 = Tensor::zeros(Shape{8});
  const Tensor w2 = Tensor::random_normal(Shape{3, 8, 1, 1}, rng, 0.4f);
  const Tensor b2 = Tensor::zeros(Shape{3});
  Tensor out = Tensor::zeros(Shape{1, 3, 4, 4});
  std::vector<float> tiny(4);
  EXPECT_THROW(kernels::fused_conv_act_conv(x, w1, b1, w2, b2, ir::ActKind::kRelu, false,
                                            ir::PoolKind::kMax, 2, 2, out, tiny.data(), 4, 1),
               Error);
}

TEST(FusedScratchTest, ScratchIsRowGranular) {
  // The fused kernel's scratch must scale with W (one restored row), not H·W
  // (the full restored map) — otherwise fusion would not save memory.
  const std::int64_t c_restored = 64;
  const std::int64_t width = 32;
  const std::int64_t bytes = kernels::fused_scratch_bytes(c_restored, width, false, width);
  EXPECT_EQ(bytes, c_restored * width * static_cast<std::int64_t>(sizeof(float)));
  const std::int64_t with_pool = kernels::fused_scratch_bytes(c_restored, width, true, width / 2);
  EXPECT_EQ(with_pool, (c_restored * width + c_restored * width / 2) *
                           static_cast<std::int64_t>(sizeof(float)));
}

}  // namespace
}  // namespace temco
