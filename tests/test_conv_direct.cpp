// Direct stride-1 convolution kernel (KernelOps::conv_direct_rows) vs the
// per-tap shifted GEMM it replaces for Tucker cores.
//
// The reference is built here, not taken from conv2d: one gemm_packed call
// per in-bounds tap per output row, accumulating into a bias-filled row with
// Init::kNone — the shifted-GEMM lowering.  On the AVX2 and AVX-512 tiers
// the direct kernel gives every output element the same FMA chain (bias,
// then taps (r,s) ascending, then ci ascending, in kKCVec strips), so the
// two must agree byte for byte.  The scalar tier is held to a tolerance.
// The suite runs under the forced-ISA `simd` matrix as well as in-process
// over every reachable tier.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <string>
#include <vector>

#include "kernels/gemm.hpp"
#include "kernels/kernels.hpp"
#include "support/error.hpp"
#include "support/rng.hpp"
#include "tensor/compare.hpp"

namespace temco {
namespace {

namespace gemm = kernels::gemm;

struct CoreCase {
  std::int64_t n, c_in, c_out, h, w, k, pad;
};

/// The Tucker cores of the fig11 models (resnet18, densenet121, unet_half at
/// width 0.25), plus a 5×5 tap, ragged widths, several channel groups, a
/// c_in deep enough to split into two kKCVec strips, and a 17×17 kernel,
/// wider than the tap columns a chunk caches masks for.
const CoreCase kCases[] = {
    {2, 1, 1, 64, 64, 3, 1},  {2, 2, 1, 64, 64, 3, 1},   {2, 3, 2, 32, 32, 3, 1},
    {2, 6, 3, 16, 16, 3, 1},  {2, 2, 2, 7, 7, 3, 1},     {2, 13, 13, 1, 1, 3, 1},
    {2, 3, 1, 7, 7, 3, 1},    {1, 3, 2, 12, 12, 5, 2},   {1, 3, 2, 9, 13, 3, 1},
    {1, 2, 3, 5, 33, 3, 1},   {1, 6, 6, 2, 2, 3, 1},     {1, 5, 4, 6, 20, 3, 0},
    {1, 130, 3, 5, 18, 3, 1}, {1, 7, 9, 4, 5, 3, 1},     {1, 1, 2, 20, 40, 17, 8},
};

struct Operands {
  Tensor x, w, b;
  std::int64_t h_out, w_out;
};

Operands make(const CoreCase& c, std::uint64_t seed) {
  Rng rng(seed);
  Operands o;
  o.x = Tensor::random_normal(Shape{c.n, c.c_in, c.h, c.w}, rng);
  // Scale so every output stays O(1) whatever c_in·k², keeping the scalar
  // tier's absolute tolerance meaningful.
  const float scale = 1.0f / std::sqrt(static_cast<float>(c.c_in * c.k * c.k));
  o.w = Tensor::random_normal(Shape{c.c_out, c.c_in, c.k, c.k}, rng, scale);
  o.b = Tensor::random_uniform(Shape{c.c_out}, rng, -0.5f, 0.5f);
  o.h_out = c.h + 2 * c.pad - c.k + 1;
  o.w_out = c.w + 2 * c.pad - c.k + 1;
  return o;
}

/// The shifted-GEMM lowering on the active tier: per output row, fill with
/// the bias, then one gemm_packed per in-bounds tap over its valid columns.
Tensor per_tap_gemm(const Operands& o, std::int64_t pad) {
  const std::int64_t n_batch = o.x.shape()[0], c_in = o.x.shape()[1];
  const std::int64_t h_in = o.x.shape()[2], w_in = o.x.shape()[3];
  const std::int64_t c_out = o.w.shape()[0], kh = o.w.shape()[2], kw = o.w.shape()[3];
  const std::int64_t panel = gemm::packed_a_floats(c_out, c_in);
  std::vector<float> packed(static_cast<std::size_t>(kh * kw * panel));
  for (std::int64_t t = 0; t < kh * kw; ++t) {
    gemm::pack_a(o.w.data() + t, c_in * kh * kw, kh * kw, c_out, c_in, packed.data() + t * panel);
  }
  Tensor out = Tensor::zeros(Shape{n_batch, c_out, o.h_out, o.w_out});
  gemm::GemmOptions options;
  options.init = gemm::Init::kNone;
  options.parallel = false;
  for (std::int64_t n = 0; n < n_batch; ++n) {
    for (std::int64_t oh = 0; oh < o.h_out; ++oh) {
      float* crow = out.data() + n * c_out * o.h_out * o.w_out + oh * o.w_out;
      for (std::int64_t co = 0; co < c_out; ++co) {
        std::fill_n(crow + co * o.h_out * o.w_out, o.w_out, o.b[co]);
      }
      for (std::int64_t r = 0; r < kh; ++r) {
        const std::int64_t ih = oh - pad + r;
        if (ih < 0 || ih >= h_in) continue;
        for (std::int64_t s = 0; s < kw; ++s) {
          const std::int64_t lo = std::max<std::int64_t>(0, pad - s);
          const std::int64_t hi = std::min(o.w_out, w_in + pad - s);
          if (lo >= hi) continue;
          gemm::gemm_packed(packed.data() + (r * kw + s) * panel, c_out, c_in,
                            o.x.data() + n * c_in * h_in * w_in + ih * w_in + (s - pad) + lo,
                            h_in * w_in, hi - lo, crow + lo, o.h_out * o.w_out, options);
        }
      }
    }
  }
  return out;
}

bool same_bytes(const Tensor& a, const Tensor& b) {
  return a.numel() == b.numel() &&
         std::memcmp(a.data(), b.data(), static_cast<std::size_t>(a.numel()) * sizeof(float)) ==
             0;
}

TEST(ConvDirectTest, EveryCoreShapeTakesTheDirectPath) {
  // The direct path has no packed form, so this is the dispatch rule seen
  // from outside: stride 1, more than one tap, and c_out ≤ kMR or w_out < kNR.
  for (const CoreCase& c : kCases) {
    const Operands o = make(c, 1);
    ASSERT_TRUE(c.c_out <= gemm::kMR || o.w_out < gemm::kNR);
    EXPECT_EQ(kernels::conv2d_prepack_floats(o.w, 1, 1, o.w_out), 0)
        << c.c_in << "->" << c.c_out << " w_out " << o.w_out;
  }
  // Wide, many-channel stride-1 convs keep the per-tap panels.
  const Tensor wide = Tensor::zeros(Shape{5, 3, 3, 3});
  EXPECT_EQ(kernels::conv2d_prepack_floats(wide, 1, 1, gemm::kNR),
            9 * gemm::packed_a_floats(5, 3));
}

TEST(ConvDirectTest, MatchesPerTapShiftedGemmOnEveryTier) {
  std::uint64_t seed = 100;
  for (const CoreCase& c : kCases) {
    const Operands o = make(c, seed++);
    for (const gemm::Isa isa : gemm::reachable_isas()) {
      gemm::ScopedIsa forced(isa);
      const Tensor expected = per_tap_gemm(o, c.pad);
      Tensor got = Tensor::zeros(expected.shape());
      kernels::conv2d(o.x, o.w, o.b, 1, 1, c.pad, c.pad, got);
      const std::string where = std::string(support::isa_name(isa)) + " " +
                                std::to_string(c.c_in) + "->" + std::to_string(c.c_out) + " " +
                                std::to_string(o.h_out) + "x" + std::to_string(o.w_out) + " k" +
                                std::to_string(c.k);
      if (isa == gemm::Isa::kScalar) {
        EXPECT_LT(max_abs_diff(got, expected), 2e-4f) << where;
      } else {
        EXPECT_TRUE(same_bytes(got, expected)) << where << ": max |diff| "
                                               << max_abs_diff(got, expected);
      }
    }
  }
}

TEST(ConvDirectTest, PaddedLanesKeepTheirValueExactly) {
  // A tap outside its column window must leave the accumulator untouched, not
  // add w·0: with an infinite weight on a padding tap, w·0 would be NaN.
  // Column 0 never reads that tap, so it stays finite.
  const CoreCase c{1, 1, 1, 4, 16, 3, 1};
  Operands o = make(c, 7);
  o.w.at(0, 0, 1, 0) = INFINITY;  // tap s = 0 reads column -1 at ow = 0
  for (const gemm::Isa isa : gemm::reachable_isas()) {
    gemm::ScopedIsa forced(isa);
    Tensor got = Tensor::zeros(Shape{1, 1, o.h_out, o.w_out});
    kernels::conv2d(o.x, o.w, o.b, 1, 1, c.pad, c.pad, got);
    for (std::int64_t oh = 0; oh < o.h_out; ++oh) {
      EXPECT_TRUE(std::isfinite(got.at(0, 0, oh, 0))) << support::isa_name(isa) << " row " << oh;
    }
  }
}

TEST(ConvDirectTest, PrepackIsANoOpWithoutAPackedForm) {
  const Tensor core = Tensor::zeros(Shape{2, 3, 3, 3});
  EXPECT_EQ(kernels::conv2d_prepack_floats(core, 1, 1, 32), 0);
  EXPECT_NO_THROW(kernels::conv2d_prepack(core, 1, 1, 32, nullptr));
  const Tensor wide = Tensor::zeros(Shape{8, 3, 3, 3});
  ASSERT_GT(kernels::conv2d_prepack_floats(wide, 1, 1, 32), 0);
  EXPECT_THROW(kernels::conv2d_prepack(wide, 1, 1, 32, nullptr), Error);
}

}  // namespace
}  // namespace temco
