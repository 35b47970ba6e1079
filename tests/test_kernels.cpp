// Kernel correctness against independent naive references.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "kernels/kernels.hpp"
#include "support/rng.hpp"
#include "tensor/compare.hpp"

namespace temco {
namespace {

/// Textbook convolution used as the oracle for every conv-kernel test.
Tensor naive_conv2d(const Tensor& x, const Tensor& w, const Tensor& b, std::int64_t sh,
                    std::int64_t sw, std::int64_t ph, std::int64_t pw) {
  const std::int64_t n_batch = x.shape()[0];
  const std::int64_t c_in = x.shape()[1];
  const std::int64_t h_in = x.shape()[2];
  const std::int64_t w_in = x.shape()[3];
  const std::int64_t c_out = w.shape()[0];
  const std::int64_t kh = w.shape()[2];
  const std::int64_t kw = w.shape()[3];
  const std::int64_t h_out = (h_in + 2 * ph - kh) / sh + 1;
  const std::int64_t w_out = (w_in + 2 * pw - kw) / sw + 1;
  Tensor out = Tensor::zeros(Shape{n_batch, c_out, h_out, w_out});
  for (std::int64_t n = 0; n < n_batch; ++n) {
    for (std::int64_t co = 0; co < c_out; ++co) {
      for (std::int64_t oh = 0; oh < h_out; ++oh) {
        for (std::int64_t ow = 0; ow < w_out; ++ow) {
          double acc = b[co];
          for (std::int64_t ci = 0; ci < c_in; ++ci) {
            for (std::int64_t r = 0; r < kh; ++r) {
              for (std::int64_t s = 0; s < kw; ++s) {
                const std::int64_t ih = oh * sh - ph + r;
                const std::int64_t iw = ow * sw - pw + s;
                if (ih < 0 || ih >= h_in || iw < 0 || iw >= w_in) continue;
                acc += static_cast<double>(w.at(co, ci, r, s)) * x.at(n, ci, ih, iw);
              }
            }
          }
          out.at(n, co, oh, ow) = static_cast<float>(acc);
        }
      }
    }
  }
  return out;
}

struct ConvCase {
  std::int64_t n, c_in, h, w, c_out, k, stride, pad;
};

class ConvParamTest : public ::testing::TestWithParam<ConvCase> {};

TEST_P(ConvParamTest, MatchesNaiveReference) {
  const ConvCase p = GetParam();
  Rng rng(1000 + p.c_in * 7 + p.k);
  const Tensor x = Tensor::random_normal(Shape{p.n, p.c_in, p.h, p.w}, rng);
  const Tensor w = Tensor::random_normal(Shape{p.c_out, p.c_in, p.k, p.k}, rng, 0.3f);
  const Tensor b = Tensor::random_uniform(Shape{p.c_out}, rng, -0.5f, 0.5f);

  const Tensor expected = naive_conv2d(x, w, b, p.stride, p.stride, p.pad, p.pad);
  Tensor got = Tensor::zeros(expected.shape());
  kernels::conv2d(x, w, b, p.stride, p.stride, p.pad, p.pad, got);
  EXPECT_LT(max_abs_diff(got, expected), 2e-4f);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ConvParamTest,
    ::testing::Values(ConvCase{1, 1, 5, 5, 1, 3, 1, 1},   // minimal
                      ConvCase{2, 3, 8, 8, 4, 3, 1, 1},   // pad same
                      ConvCase{2, 4, 9, 9, 6, 3, 2, 1},   // stride 2, odd size
                      ConvCase{1, 8, 12, 12, 16, 1, 1, 0},// pointwise fast path
                      ConvCase{2, 5, 11, 13, 7, 5, 1, 2}, // rectangular input, k=5
                      ConvCase{1, 3, 17, 17, 2, 7, 2, 3}, // k=7 stride 2 (ResNet stem)
                      ConvCase{1, 2, 16, 16, 3, 11, 4, 2},// k=11 stride 4 (AlexNet)
                      ConvCase{3, 6, 6, 6, 6, 3, 1, 0},   // no padding
                      ConvCase{1, 16, 4, 4, 4, 1, 1, 0},  // reducing 1x1 (fconv)
                      ConvCase{1, 4, 4, 4, 16, 1, 1, 0},  // expanding 1x1 (lconv)
                      // Tucker cores of the zoo: the direct stride-1 kernel.
                      ConvCase{2, 1, 64, 64, 1, 3, 1, 1},  // UNet 1->1 at 64x64
                      ConvCase{2, 2, 64, 64, 1, 3, 1, 1},  // UNet 2->1 at 64x64
                      ConvCase{2, 3, 32, 32, 2, 3, 1, 1},  // UNet 3->2 at 32x32
                      ConvCase{2, 6, 16, 16, 3, 3, 1, 1},  // UNet 6->3 at 16x16
                      ConvCase{2, 2, 7, 7, 2, 3, 1, 1},    // ResNet 2->2 at 7x7
                      ConvCase{2, 13, 1, 1, 13, 3, 1, 1},  // ResNet 13->13 at 1x1
                      ConvCase{2, 3, 7, 7, 1, 3, 1, 1},    // DenseNet 3->1 at 7x7
                      // Narrow strided cores of the zoo (w_out < kNR): the
                      // im2col GEMM on the per-tier skinny tile.
                      ConvCase{2, 2, 7, 7, 3, 3, 2, 1},     // ResNet 2->3 at 7x7
                      ConvCase{2, 3, 4, 4, 6, 3, 2, 1},     // ResNet 3->6 at 4x4
                      ConvCase{2, 6, 2, 2, 13, 3, 2, 1},    // ResNet 6->13 at 2x2
                      ConvCase{2, 1, 32, 32, 6, 11, 4, 2},  // AlexNet 1->6 stem, w_out 7
                      ConvCase{1, 3, 12, 12, 2, 5, 1, 2},  // 5x5 tap
                      ConvCase{1, 3, 9, 13, 2, 3, 1, 1},   // ragged width 13
                      ConvCase{1, 2, 5, 33, 3, 3, 1, 1})); // ragged width 33

TEST(Conv2dTest, AsymmetricKernelAndStride) {
  Rng rng(7);
  const Tensor x = Tensor::random_normal(Shape{2, 3, 9, 9}, rng);
  const Tensor w = Tensor::random_normal(Shape{4, 3, 3, 1}, rng, 0.3f);
  const Tensor b = Tensor::zeros(Shape{4});
  const Tensor expected = naive_conv2d(x, w, b, 2, 1, 1, 0);
  Tensor got = Tensor::zeros(expected.shape());
  kernels::conv2d(x, w, b, 2, 1, 1, 0, got);
  EXPECT_LT(max_abs_diff(got, expected), 1e-4f);
}

TEST(Conv2dTest, OneByKwKernel) {
  Rng rng(8);
  const Tensor x = Tensor::random_normal(Shape{1, 4, 6, 10}, rng);
  const Tensor w = Tensor::random_normal(Shape{5, 4, 1, 3}, rng, 0.3f);
  const Tensor b = Tensor::random_uniform(Shape{5}, rng, -0.1f, 0.1f);
  const Tensor expected = naive_conv2d(x, w, b, 1, 2, 0, 1);
  Tensor got = Tensor::zeros(expected.shape());
  kernels::conv2d(x, w, b, 1, 2, 0, 1, got);
  EXPECT_LT(max_abs_diff(got, expected), 1e-4f);
}

TEST(DepthwiseConvTest, MatchesPerChannelNaive) {
  Rng rng(9);
  const std::int64_t channels = 6;
  const Tensor x = Tensor::random_normal(Shape{2, channels, 8, 8}, rng);
  const Tensor w = Tensor::random_normal(Shape{channels, 1, 3, 3}, rng, 0.3f);
  const Tensor b = Tensor::random_uniform(Shape{channels}, rng, -0.1f, 0.1f);
  Tensor got = Tensor::zeros(Shape{2, channels, 8, 8});
  kernels::depthwise_conv2d(x, w, b, 1, 1, 1, 1, got);

  // Oracle: dense conv with a block-diagonal weight (zero cross-channel taps).
  Tensor dense = Tensor::zeros(Shape{channels, channels, 3, 3});
  for (std::int64_t c = 0; c < channels; ++c) {
    for (std::int64_t r = 0; r < 3; ++r) {
      for (std::int64_t s = 0; s < 3; ++s) dense.at(c, c, r, s) = w.at(c, 0, r, s);
    }
  }
  const Tensor expected = naive_conv2d(x, dense, b, 1, 1, 1, 1);
  EXPECT_LT(max_abs_diff(got, expected), 1e-4f);
}

TEST(PoolTest, MaxPoolSelectsWindowMaximum) {
  Tensor x = Tensor::zeros(Shape{1, 1, 4, 4});
  for (std::int64_t i = 0; i < 16; ++i) x[i] = static_cast<float>(i);
  Tensor out = Tensor::zeros(Shape{1, 1, 2, 2});
  kernels::pool(x, ir::PoolKind::kMax, 2, 2, 2, 2, out);
  EXPECT_FLOAT_EQ(out[0], 5.0f);
  EXPECT_FLOAT_EQ(out[1], 7.0f);
  EXPECT_FLOAT_EQ(out[2], 13.0f);
  EXPECT_FLOAT_EQ(out[3], 15.0f);
}

TEST(PoolTest, AvgPoolAveragesWindow) {
  Tensor x = Tensor::full(Shape{1, 2, 4, 4}, 3.0f);
  Tensor out = Tensor::zeros(Shape{1, 2, 2, 2});
  kernels::pool(x, ir::PoolKind::kAvg, 2, 2, 2, 2, out);
  for (const float v : out.span()) EXPECT_FLOAT_EQ(v, 3.0f);
}

TEST(PoolTest, OverlappingWindows) {
  // 3x3 kernel stride 2 (AlexNet/ResNet style) on a ramp.
  Tensor x = Tensor::zeros(Shape{1, 1, 7, 7});
  for (std::int64_t i = 0; i < 49; ++i) x[i] = static_cast<float>(i);
  Tensor out = Tensor::zeros(Shape{1, 1, 3, 3});
  kernels::pool(x, ir::PoolKind::kMax, 3, 3, 2, 2, out);
  EXPECT_FLOAT_EQ(out.at(0, 0, 0, 0), 16.0f);   // max of rows 0-2, cols 0-2
  EXPECT_FLOAT_EQ(out.at(0, 0, 2, 2), 48.0f);   // bottom-right window
}

TEST(PoolTest, WindowLargerThanInputIsClipped) {
  // A 2x2 window over a 1x1 map (DenseNet transition at small image sizes)
  // must read only the single valid element — both kinds act as identity.
  Tensor x = Tensor::from_values(Shape{2, 2, 1, 1}, {1.5f, -2.0f, 0.25f, 4.0f});
  Tensor out_max = Tensor::zeros(x.shape());
  kernels::pool(x, ir::PoolKind::kMax, 2, 2, 2, 2, out_max);
  Tensor out_avg = Tensor::zeros(x.shape());
  kernels::pool(x, ir::PoolKind::kAvg, 2, 2, 2, 2, out_avg);
  for (std::int64_t i = 0; i < x.numel(); ++i) {
    EXPECT_EQ(out_max[i], x[i]);
    EXPECT_EQ(out_avg[i], x[i]);
  }
}

TEST(PoolTest, RectangularClipAveragesValidAreaOnly) {
  // 1x3 input with a 2x2 window: only the horizontal extent is full; the
  // average divides by the 1x2 clipped area, not the nominal 2x2.
  Tensor x = Tensor::from_values(Shape{1, 1, 1, 3}, {2.0f, 6.0f, 10.0f});
  Tensor out = Tensor::zeros(Shape{1, 1, 1, 1});
  kernels::pool(x, ir::PoolKind::kAvg, 2, 2, 2, 2, out);
  EXPECT_FLOAT_EQ(out[0], 4.0f);  // (2 + 6) / 2, rows clipped to one
}

TEST(ActivationTest, ReluClampsNegatives) {
  Tensor x = Tensor::from_values(Shape{1, 4}, {-2.0f, -0.5f, 0.0f, 3.0f});
  Tensor out = Tensor::zeros(x.shape());
  kernels::relu(x, out);
  EXPECT_FLOAT_EQ(out[0], 0.0f);
  EXPECT_FLOAT_EQ(out[1], 0.0f);
  EXPECT_FLOAT_EQ(out[2], 0.0f);
  EXPECT_FLOAT_EQ(out[3], 3.0f);
}

TEST(ActivationTest, SiluMatchesDefinition) {
  Rng rng(11);
  Tensor x = Tensor::random_normal(Shape{2, 50}, rng);
  Tensor out = Tensor::zeros(x.shape());
  kernels::silu(x, out);
  for (std::int64_t i = 0; i < x.numel(); ++i) {
    const float expected = x[i] / (1.0f + std::exp(-x[i]));
    EXPECT_NEAR(out[i], expected, 1e-6f);
  }
}

TEST(AddTest, SumsAllInputs) {
  Tensor a = Tensor::full(Shape{2, 3}, 1.0f);
  Tensor b = Tensor::full(Shape{2, 3}, 2.0f);
  Tensor c = Tensor::full(Shape{2, 3}, 4.0f);
  Tensor out = Tensor::zeros(Shape{2, 3});
  kernels::add_n({&a, &b, &c}, out);
  for (const float v : out.span()) EXPECT_FLOAT_EQ(v, 7.0f);
}

TEST(ConcatTest, ChannelOrderPreserved) {
  Tensor a = Tensor::full(Shape{2, 2, 3, 3}, 1.0f);
  Tensor b = Tensor::full(Shape{2, 1, 3, 3}, 2.0f);
  Tensor out = Tensor::zeros(Shape{2, 3, 3, 3});
  kernels::concat_channels({&a, &b}, out);
  for (std::int64_t n = 0; n < 2; ++n) {
    EXPECT_FLOAT_EQ(out.at(n, 0, 0, 0), 1.0f);
    EXPECT_FLOAT_EQ(out.at(n, 1, 2, 2), 1.0f);
    EXPECT_FLOAT_EQ(out.at(n, 2, 1, 1), 2.0f);
  }
}

TEST(UpsampleTest, NearestReplication) {
  Tensor x = Tensor::from_values(Shape{1, 1, 2, 2}, {1.0f, 2.0f, 3.0f, 4.0f});
  Tensor out = Tensor::zeros(Shape{1, 1, 4, 4});
  kernels::upsample_nearest(x, 2, out);
  EXPECT_FLOAT_EQ(out.at(0, 0, 0, 0), 1.0f);
  EXPECT_FLOAT_EQ(out.at(0, 0, 0, 1), 1.0f);
  EXPECT_FLOAT_EQ(out.at(0, 0, 1, 1), 1.0f);
  EXPECT_FLOAT_EQ(out.at(0, 0, 0, 2), 2.0f);
  EXPECT_FLOAT_EQ(out.at(0, 0, 3, 3), 4.0f);
}

TEST(GlobalAvgPoolTest, SpatialMean) {
  Tensor x = Tensor::zeros(Shape{1, 2, 2, 2});
  for (std::int64_t i = 0; i < 4; ++i) x[i] = static_cast<float>(i);        // ch 0: 0..3
  for (std::int64_t i = 4; i < 8; ++i) x[i] = 10.0f;                        // ch 1: all 10
  Tensor out = Tensor::zeros(Shape{1, 2, 1, 1});
  kernels::global_avg_pool(x, out);
  EXPECT_FLOAT_EQ(out[0], 1.5f);
  EXPECT_FLOAT_EQ(out[1], 10.0f);
}

TEST(LinearTest, MatchesMatrixProduct) {
  Rng rng(13);
  const Tensor x = Tensor::random_normal(Shape{3, 10}, rng);
  const Tensor w = Tensor::random_normal(Shape{4, 10}, rng);
  const Tensor b = Tensor::random_uniform(Shape{4}, rng, -1.0f, 1.0f);
  Tensor out = Tensor::zeros(Shape{3, 4});
  kernels::linear(x, w, b, out);
  for (std::int64_t n = 0; n < 3; ++n) {
    for (std::int64_t o = 0; o < 4; ++o) {
      float acc = b[o];
      for (std::int64_t i = 0; i < 10; ++i) acc += x.at(n, i) * w.at(o, i);
      EXPECT_NEAR(out.at(n, o), acc, 1e-5f);
    }
  }
}

TEST(SoftmaxTest, RowsSumToOneAndOrderPreserved) {
  Rng rng(14);
  const Tensor x = Tensor::random_normal(Shape{4, 9}, rng, 3.0f);
  Tensor out = Tensor::zeros(x.shape());
  kernels::softmax(x, out);
  for (std::int64_t r = 0; r < 4; ++r) {
    float sum = 0.0f;
    for (std::int64_t c = 0; c < 9; ++c) {
      sum += out.at(r, c);
      EXPECT_GT(out.at(r, c), 0.0f);
    }
    EXPECT_NEAR(sum, 1.0f, 1e-5f);
  }
  // argmax is preserved.
  for (std::int64_t r = 0; r < 4; ++r) {
    std::int64_t arg_in = 0;
    std::int64_t arg_out = 0;
    for (std::int64_t c = 1; c < 9; ++c) {
      if (x.at(r, c) > x.at(r, arg_in)) arg_in = c;
      if (out.at(r, c) > out.at(r, arg_out)) arg_out = c;
    }
    EXPECT_EQ(arg_in, arg_out);
  }
}

}  // namespace
}  // namespace temco
