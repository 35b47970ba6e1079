// Convolution kernels, routed through the GEMM micro-kernel engine.
//
//   * 1×1 stride-1 convolution is a batched GEMM: C[co,hw] = W[co,ci]·X[ci,hw]
//     + b, with the weight packed into micro-kernel panels (at plan time by
//     the executor, or on the fly for standalone calls).
//   * Wide, many-channel stride-1 convolution is an im2col-free shifted GEMM:
//     for each kernel tap (r,s), the tap's weight slice W[:,:,r,s] —
//     pre-packed as its own panel set — multiplies the input rows shifted by
//     (r,s) and accumulates into the clipped output column range.  No
//     intermediate buffer exists; padding falls out of the per-tap column
//     clipping.
//   * Stride-1 convolution with at most kMR output channels or rows narrower
//     than kNR — the Tucker cores — runs on the direct vector kernel
//     (KernelOps::conv_direct_rows), which reads the weight in place and keeps
//     a row of up to kMR channels in registers across every tap.  Per-tap
//     GEMM calls cost more in setup than such a call's arithmetic.
//   * Strided convolution lowers to an im2col implicit GEMM at every row
//     width; narrow rows run on the GEMM's per-tier skinny tile.
//
// Accumulation order per output element is fixed by geometry alone (taps in
// (r,s) order, channels ascending), so every path is bit-deterministic
// across thread counts.
#include <algorithm>
#include <vector>

#include "kernels/gemm.hpp"
#include "kernels/gemm_dispatch.hpp"
#include "kernels/kernels.hpp"
#include "parallel/parallel_for.hpp"
#include "support/check.hpp"

namespace temco::kernels {

namespace {

bool is_pointwise(std::int64_t kh, std::int64_t kw, std::int64_t sh, std::int64_t sw,
                  std::int64_t ph, std::int64_t pw) {
  return kh == 1 && kw == 1 && sh == 1 && sw == 1 && ph == 0 && pw == 0;
}

/// The conv paths, by weight layout: the two GEMM paths consume a packed
/// blob, the direct path reads w in place.
enum class ConvPath : std::uint8_t {
  kShiftedGemm,  ///< stride 1: one panel set per tap (a pointwise conv is the 1-tap case)
  kIm2colGemm,   ///< strided: one panel set over the flattened W[c_out, c_in·kh·kw]
  kDirect,       ///< stride 1, multi-tap, c_out ≤ kMR or w_out < kNR: direct vector kernel
};

/// The one dispatch rule.  conv2d, conv2d_prepack_floats and conv2d_prepack
/// all derive from it, so a packed blob exists exactly when the path that
/// runs consumes one.  Geometry only: the choice never depends on the thread
/// count, the ISA tier or the batch size.
ConvPath conv_path(const Tensor& w, std::int64_t stride_h, std::int64_t stride_w,
                   std::int64_t w_out) {
  if (stride_h != 1 || stride_w != 1) return ConvPath::kIm2colGemm;
  const bool one_tap = w.shape()[2] == 1 && w.shape()[3] == 1;
  return !one_tap && (w.shape()[0] <= gemm::kMR || w_out < gemm::kNR) ? ConvPath::kDirect
                                                                      : ConvPath::kShiftedGemm;
}

/// 1×1 stride-1 convolution: one batched GEMM over the packed weight.
void conv1x1(const Tensor& x, const Tensor& w, const Tensor& b, Tensor& out,
             const float* prepacked) {
  const std::int64_t n_batch = x.shape()[0];
  const std::int64_t c_in = x.shape()[1];
  const std::int64_t hw = x.shape()[2] * x.shape()[3];
  const std::int64_t c_out = w.shape()[0];

  std::vector<float> local;
  if (prepacked == nullptr) {
    local.resize(static_cast<std::size_t>(gemm::packed_a_floats(c_out, c_in)));
    gemm::pack_a(w.data(), c_in, 1, c_out, c_in, local.data());
    prepacked = local.data();
  }
  gemm::GemmOptions options;
  options.bias = b.data();
  options.init = gemm::Init::kRowBias;
  options.batch = n_batch;
  options.b_batch_stride = c_in * hw;
  options.c_batch_stride = c_out * hw;
  gemm::gemm_packed(prepacked, c_out, c_in, x.data(), hw, hw, out.data(), hw, options);
}

/// Stride-1 dense convolution as per-tap shifted GEMMs.  One task per output
/// row: the row is initialized to the bias, then every in-bounds tap (r,s)
/// accumulates W[:,:,r,s] · (input row ih shifted by s−pad) into the tap's
/// valid output columns.  Edge rows/columns simply receive fewer taps.
void conv2d_unit_stride(const Tensor& x, const Tensor& w, const Tensor& b, std::int64_t pad_h,
                        std::int64_t pad_w, Tensor& out, const float* prepacked) {
  const std::int64_t n_batch = x.shape()[0];
  const std::int64_t c_in = x.shape()[1];
  const std::int64_t h_in = x.shape()[2];
  const std::int64_t w_in = x.shape()[3];
  const std::int64_t c_out = out.shape()[1];
  const std::int64_t h_out = out.shape()[2];
  const std::int64_t w_out = out.shape()[3];
  const std::int64_t kh = w.shape()[2];
  const std::int64_t kw = w.shape()[3];
  const std::int64_t panel_floats = gemm::packed_a_floats(c_out, c_in);

  std::vector<float> local;
  if (prepacked == nullptr) {
    local.resize(static_cast<std::size_t>(conv2d_prepack_floats(w, 1, 1, w_out)));
    conv2d_prepack(w, 1, 1, w_out, local.data());
    prepacked = local.data();
  }
  const float* px = x.data();
  const float* pb = b.data();
  float* po = out.data();

  parallel_for_2d(
      static_cast<std::size_t>(n_batch * h_out), static_cast<std::size_t>(c_out * w_out),
      [&](std::size_t task, std::size_t, std::size_t) {
        const std::int64_t n = static_cast<std::int64_t>(task) / h_out;
        const std::int64_t oh = static_cast<std::int64_t>(task) % h_out;
        // C for this task: column range [0, w_out) of every co's row oh.
        float* crow = po + n * c_out * h_out * w_out + oh * w_out;
        for (std::int64_t co = 0; co < c_out; ++co) {
          std::fill(crow + co * h_out * w_out, crow + co * h_out * w_out + w_out, pb[co]);
        }
        const float* xbase = px + n * c_in * h_in * w_in;
        gemm::GemmOptions options;
        options.init = gemm::Init::kNone;
        options.parallel = false;
        for (std::int64_t r = 0; r < kh; ++r) {
          const std::int64_t ih = oh - pad_h + r;
          if (ih < 0 || ih >= h_in) continue;
          for (std::int64_t s = 0; s < kw; ++s) {
            const std::int64_t lo = std::max<std::int64_t>(0, pad_w - s);
            const std::int64_t hi = std::min(w_out, w_in + pad_w - s);
            if (lo >= hi) continue;
            gemm::gemm_packed(prepacked + (r * kw + s) * panel_floats, c_out, c_in,
                              xbase + ih * w_in + (s - pad_w) + lo, h_in * w_in, hi - lo,
                              crow + lo, h_out * w_out, options);
          }
        }
      });
}

/// Output columns one direct-conv task covers at least: enough rows that the
/// task's fixed cost (the call and each chunk's tap masks) is amortized, few
/// enough that a batch-1 conv still spreads over the intra-op pool.
constexpr std::int64_t kDirectTaskCols = 256;

/// Stride-1 convolution on the direct vector kernel: one task per (image,
/// block of output rows), one conv_direct_rows call per group of kMR output
/// channels, all on the tier resolved once for the whole conv.  Every output
/// element is computed the same way whatever the block, so neither the
/// pool width nor the batch size changes a bit.
void conv2d_direct(const Tensor& x, const Tensor& w, const Tensor& b, std::int64_t pad_h,
                   std::int64_t pad_w, Tensor& out) {
  const gemm::detail::DirectConv conv{
      .x = x.data(), .w = w.data(), .bias = b.data(), .out = out.data(),
      .c_in = x.shape()[1], .h_in = x.shape()[2], .w_in = x.shape()[3],
      .c_out = out.shape()[1], .h_out = out.shape()[2], .w_out = out.shape()[3],
      .kh = w.shape()[2], .kw = w.shape()[3], .pad_h = pad_h, .pad_w = pad_w};
  if (out.numel() == 0) return;
  const gemm::detail::KernelOps& ops = gemm::detail::active_ops();
  const std::int64_t block = std::min(conv.h_out, (kDirectTaskCols + conv.w_out - 1) / conv.w_out);
  const std::int64_t blocks = (conv.h_out + block - 1) / block;
  parallel_for_2d(
      static_cast<std::size_t>(x.shape()[0] * blocks),
      static_cast<std::size_t>(conv.c_out * block * conv.w_out * conv.c_in * conv.kh * conv.kw),
      [&](std::size_t task, std::size_t, std::size_t) {
        const std::int64_t n = static_cast<std::int64_t>(task) / blocks;
        const std::int64_t oh0 = static_cast<std::int64_t>(task) % blocks * block;
        const std::int64_t oh1 = std::min(conv.h_out, oh0 + block);
        for (std::int64_t co0 = 0; co0 < conv.c_out; co0 += gemm::kMR) {
          ops.conv_direct_rows(conv, n, co0, std::min(gemm::kMR, conv.c_out - co0), oh0, oh1);
        }
      });
}

/// Per-thread im2col scratch for the strided GEMM path.  Grows monotonically
/// to the largest c_in·kh·kw × w_out column matrix a thread has built and is
/// then reused for every subsequent output row, so steady-state inference
/// performs no allocation (the arena executor's zero-steady-state-malloc
/// property holds after the first pass over each shape).
float* im2col_buffer(std::int64_t floats) {
  thread_local std::vector<float> buf;
  if (buf.size() < static_cast<std::size_t>(floats)) {
    buf.resize(static_cast<std::size_t>(floats));
  }
  return buf.data();
}

/// Strided K×K convolution as implicit GEMM: one task per output row (n, oh)
/// materializes the row's column matrix col[ck, w_out] with ck = c_in·kh·kw —
/// col[(ci·kh+r)·kw+s, ow] = x[ci, oh·sh−ph+r, ow·sw−pw+s], zero outside the
/// input — and multiplies it by the flattened weight W[c_out, ck] packed as a
/// single GEMM panel set.  Row order (ci, r, s) matches the weight's native
/// column order, so packing the weight is a plain pack_a of the 2-D view.
/// Accumulation order per output element is ascending ck per the GEMM strip
/// contract — geometry-only, bit-deterministic across thread counts.
void conv2d_im2col_strided(const Tensor& x, const Tensor& w, const Tensor& b,
                           std::int64_t stride_h, std::int64_t stride_w, std::int64_t pad_h,
                           std::int64_t pad_w, Tensor& out, const float* prepacked) {
  const std::int64_t n_batch = x.shape()[0];
  const std::int64_t c_in = x.shape()[1];
  const std::int64_t h_in = x.shape()[2];
  const std::int64_t w_in = x.shape()[3];
  const std::int64_t c_out = out.shape()[1];
  const std::int64_t h_out = out.shape()[2];
  const std::int64_t w_out = out.shape()[3];
  const std::int64_t kh = w.shape()[2];
  const std::int64_t kw = w.shape()[3];
  const std::int64_t ck = c_in * kh * kw;

  std::vector<float> local;
  if (prepacked == nullptr) {
    local.resize(static_cast<std::size_t>(gemm::packed_a_floats(c_out, ck)));
    gemm::pack_a(w.data(), ck, 1, c_out, ck, local.data());
    prepacked = local.data();
  }
  const float* px = x.data();
  const float* pb = b.data();
  float* po = out.data();

  parallel_for_2d(
      static_cast<std::size_t>(n_batch * h_out), static_cast<std::size_t>(ck * w_out),
      [&](std::size_t task, std::size_t, std::size_t) {
        const std::int64_t n = static_cast<std::int64_t>(task) / h_out;
        const std::int64_t oh = static_cast<std::int64_t>(task) % h_out;
        float* col = im2col_buffer(ck * w_out);
        const float* xbase = px + n * c_in * h_in * w_in;
        for (std::int64_t ci = 0; ci < c_in; ++ci) {
          const float* xmap = xbase + ci * h_in * w_in;
          for (std::int64_t r = 0; r < kh; ++r) {
            const std::int64_t ih = oh * stride_h - pad_h + r;
            float* crow0 = col + ((ci * kh + r) * kw) * w_out;
            if (ih < 0 || ih >= h_in) {
              std::fill(crow0, crow0 + kw * w_out, 0.0f);
              continue;
            }
            const float* xrow = xmap + ih * w_in;
            for (std::int64_t s = 0; s < kw; ++s) {
              float* crow = crow0 + s * w_out;
              const std::int64_t base = s - pad_w;  // iw = ow·sw + base
              std::int64_t ow_lo = 0;
              if (base < 0) ow_lo = (-base + stride_w - 1) / stride_w;
              std::int64_t ow_hi = w_out;
              if (base + (w_out - 1) * stride_w >= w_in) {
                ow_hi = (w_in - base + stride_w - 1) / stride_w;
              }
              std::fill(crow, crow + ow_lo, 0.0f);
              for (std::int64_t ow = ow_lo; ow < ow_hi; ++ow) {
                crow[ow] = xrow[ow * stride_w + base];
              }
              std::fill(crow + std::max(ow_lo, ow_hi), crow + w_out, 0.0f);
            }
          }
        }
        gemm::GemmOptions options;
        options.bias = pb;
        options.init = gemm::Init::kRowBias;
        options.parallel = false;  // already inside the (n, oh) task grid
        gemm::gemm_packed(prepacked, c_out, ck, col, w_out, w_out,
                          po + n * c_out * h_out * w_out + oh * w_out, h_out * w_out, options);
      });
}

}  // namespace

std::int64_t conv2d_prepack_floats(const Tensor& w, std::int64_t stride_h, std::int64_t stride_w,
                                   std::int64_t w_out) {
  const std::int64_t c_out = w.shape()[0];
  const std::int64_t c_in = w.shape()[1];
  const std::int64_t taps = w.shape()[2] * w.shape()[3];
  switch (conv_path(w, stride_h, stride_w, w_out)) {
    case ConvPath::kShiftedGemm: return taps * gemm::packed_a_floats(c_out, c_in);
    case ConvPath::kIm2colGemm: return gemm::packed_a_floats(c_out, c_in * taps);
    case ConvPath::kDirect: return 0;
  }
  return 0;
}

void conv2d_prepack(const Tensor& w, std::int64_t stride_h, std::int64_t stride_w,
                    std::int64_t w_out, float* out) {
  const std::int64_t c_out = w.shape()[0];
  const std::int64_t c_in = w.shape()[1];
  const std::int64_t kh = w.shape()[2];
  const std::int64_t kw = w.shape()[3];
  const ConvPath path = conv_path(w, stride_h, stride_w, w_out);
  if (path == ConvPath::kDirect) return;  // no packed form
  TEMCO_CHECK(out != nullptr) << "conv2d_prepack: this geometry has a packed form ("
                              << conv2d_prepack_floats(w, stride_h, stride_w, w_out)
                              << " floats) but no buffer was given";
  if (path == ConvPath::kIm2colGemm) {
    // The flattened 2-D weight view W[c_out, ck] (native row-major order)
    // packed as one panel set.
    const std::int64_t ck = c_in * kh * kw;
    gemm::pack_a(w.data(), ck, 1, c_out, ck, out);
    return;
  }
  const std::int64_t panel_floats = gemm::packed_a_floats(c_out, c_in);
  // One panel set per tap: entry (r,s) packs the weight slice W[:,:,r,s],
  // whose (co, ci) element sits at stride (c_in·kh·kw, kh·kw) from w+r·kw+s.
  for (std::int64_t r = 0; r < kh; ++r) {
    for (std::int64_t s = 0; s < kw; ++s) {
      gemm::pack_a(w.data() + r * kw + s, c_in * kh * kw, kh * kw, c_out, c_in,
                   out + (r * kw + s) * panel_floats);
    }
  }
}

void conv2d(const Tensor& x, const Tensor& w, const Tensor& b, std::int64_t stride_h,
            std::int64_t stride_w, std::int64_t pad_h, std::int64_t pad_w, Tensor& out,
            const float* prepacked) {
  TEMCO_CHECK(x.shape()[1] == w.shape()[1]) << "conv2d channel mismatch";
  switch (conv_path(w, stride_h, stride_w, out.shape()[3])) {
    case ConvPath::kShiftedGemm:
      if (is_pointwise(w.shape()[2], w.shape()[3], stride_h, stride_w, pad_h, pad_w)) {
        conv1x1(x, w, b, out, prepacked);
      } else {
        conv2d_unit_stride(x, w, b, pad_h, pad_w, out, prepacked);
      }
      break;
    case ConvPath::kIm2colGemm:
      conv2d_im2col_strided(x, w, b, stride_h, stride_w, pad_h, pad_w, out, prepacked);
      break;
    case ConvPath::kDirect:
      conv2d_direct(x, w, b, pad_h, pad_w, out);
      break;
  }
}

void depthwise_conv2d(const Tensor& x, const Tensor& w, const Tensor& b, std::int64_t stride_h,
                      std::int64_t stride_w, std::int64_t pad_h, std::int64_t pad_w, Tensor& out) {
  const std::int64_t n_batch = x.shape()[0];
  const std::int64_t channels = x.shape()[1];
  TEMCO_CHECK(w.shape()[0] == channels && w.shape()[1] == 1) << "depthwise weight shape";
  const std::int64_t h_in = x.shape()[2];
  const std::int64_t w_in = x.shape()[3];
  const std::int64_t kh = w.shape()[2];
  const std::int64_t kw = w.shape()[3];
  const std::int64_t h_out = out.shape()[2];
  const std::int64_t w_out = out.shape()[3];
  const float* px = x.data();
  const float* pw = w.data();
  const float* pb = b.data();
  float* po = out.data();

  parallel_for_2d(
      static_cast<std::size_t>(n_batch * channels), static_cast<std::size_t>(h_out * w_out),
      [&](std::size_t task, std::size_t, std::size_t) {
        const std::int64_t n = static_cast<std::int64_t>(task) / channels;
        const std::int64_t c = static_cast<std::int64_t>(task) % channels;
        const float* xmap = px + (n * channels + c) * h_in * w_in;
        const float* wmap = pw + c * kh * kw;
        float* omap = po + (n * channels + c) * h_out * w_out;
        const float bias = pb[c];
        for (std::int64_t oh = 0; oh < h_out; ++oh) {
          for (std::int64_t ow = 0; ow < w_out; ++ow) {
            float acc = bias;
            for (std::int64_t r = 0; r < kh; ++r) {
              const std::int64_t ih = oh * stride_h - pad_h + r;
              if (ih < 0 || ih >= h_in) continue;
              for (std::int64_t s = 0; s < kw; ++s) {
                const std::int64_t iw = ow * stride_w - pad_w + s;
                if (iw < 0 || iw >= w_in) continue;
                acc += wmap[r * kw + s] * xmap[ih * w_in + iw];
              }
            }
            omap[oh * w_out + ow] = acc;
          }
        }
      });
}

void linear(const Tensor& x, const Tensor& w, const Tensor& b, Tensor& out) {
  const std::int64_t n_batch = x.shape()[0];
  const std::int64_t in_features = x.shape()[1];
  const std::int64_t out_features = w.shape()[0];
  const float* px = x.data();
  const float* pw = w.data();
  const float* pb = b.data();
  float* po = out.data();

  parallel_for_2d(
      static_cast<std::size_t>(n_batch * out_features), static_cast<std::size_t>(in_features),
      [&](std::size_t task, std::size_t, std::size_t) {
        const std::int64_t n = static_cast<std::int64_t>(task) / out_features;
        const std::int64_t o = static_cast<std::int64_t>(task) % out_features;
        const float* xrow = px + n * in_features;
        const float* wrow = pw + o * in_features;
        float acc = pb[o];
        for (std::int64_t i = 0; i < in_features; ++i) acc += xrow[i] * wrow[i];
        po[n * out_features + o] = acc;
      });
}

}  // namespace temco::kernels
