// Element-wise kernels, pooling, and data-movement ops.
#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>

#include "kernels/kernels.hpp"
#include "parallel/parallel_for.hpp"

namespace temco::kernels {

void activate(ir::ActKind act, const float* x, float* out, std::int64_t n) {
  if (act == ir::ActKind::kRelu) {
    // Forced vectorization turns the ternary into a compare-and-mask (or a
    // max with zero as the second operand): no per-element branch, and the
    // same values as the scalar ternary, -0.0 and NaN included.
#pragma omp simd
    for (std::int64_t i = 0; i < n; ++i) out[i] = x[i] > 0.0f ? x[i] : 0.0f;
    return;
  }
  for (std::int64_t i = 0; i < n; ++i) out[i] = x[i] / (1.0f + std::exp(-x[i]));
}

namespace {

void activate_tensor(ir::ActKind act, const Tensor& x, Tensor& out) {
  const float* px = x.data();
  float* po = out.data();
  parallel_for_ranges(static_cast<std::size_t>(x.numel()), [&](std::size_t begin, std::size_t end) {
    activate(act, px + begin, po + begin, static_cast<std::int64_t>(end - begin));
  });
}

}  // namespace

void relu(const Tensor& x, Tensor& out) { activate_tensor(ir::ActKind::kRelu, x, out); }

void silu(const Tensor& x, Tensor& out) { activate_tensor(ir::ActKind::kSilu, x, out); }

void pool(const Tensor& x, ir::PoolKind kind, std::int64_t kh, std::int64_t kw, std::int64_t sh,
          std::int64_t sw, Tensor& out) {
  const std::int64_t n_batch = x.shape()[0];
  const std::int64_t channels = x.shape()[1];
  const std::int64_t h_in = x.shape()[2];
  const std::int64_t w_in = x.shape()[3];
  const std::int64_t h_out = out.shape()[2];
  const std::int64_t w_out = out.shape()[3];
  const float* px = x.data();
  float* po = out.data();

  parallel_for_2d(
      static_cast<std::size_t>(n_batch * channels), static_cast<std::size_t>(h_out * w_out),
      [&](std::size_t task, std::size_t, std::size_t) {
        const float* xmap = px + static_cast<std::int64_t>(task) * h_in * w_in;
        float* omap = po + static_cast<std::int64_t>(task) * h_out * w_out;
        for (std::int64_t oh = 0; oh < h_out; ++oh) {
          // Windows are clipped to the input extent (an input smaller than the
          // kernel produces one clipped window — see pool_out_extent); average
          // pooling divides by the clipped window area.
          const std::int64_t r_hi = std::min(kh, h_in - oh * sh);
          for (std::int64_t ow = 0; ow < w_out; ++ow) {
            const std::int64_t s_hi = std::min(kw, w_in - ow * sw);
            if (kind == ir::PoolKind::kMax) {
              float best = -std::numeric_limits<float>::infinity();
              for (std::int64_t r = 0; r < r_hi; ++r) {
                const float* xrow = xmap + (oh * sh + r) * w_in + ow * sw;
                for (std::int64_t s = 0; s < s_hi; ++s) best = std::max(best, xrow[s]);
              }
              omap[oh * w_out + ow] = best;
            } else {
              float acc = 0.0f;
              for (std::int64_t r = 0; r < r_hi; ++r) {
                const float* xrow = xmap + (oh * sh + r) * w_in + ow * sw;
                for (std::int64_t s = 0; s < s_hi; ++s) acc += xrow[s];
              }
              omap[oh * w_out + ow] = acc * (1.0f / static_cast<float>(r_hi * s_hi));
            }
          }
        }
      });
}

void global_avg_pool(const Tensor& x, Tensor& out) {
  const std::int64_t maps = x.shape()[0] * x.shape()[1];
  const std::int64_t hw = x.shape()[2] * x.shape()[3];
  const float* px = x.data();
  float* po = out.data();
  const float inv = 1.0f / static_cast<float>(hw);
  parallel_for(static_cast<std::size_t>(maps), [&](std::size_t m) {
    const float* xmap = px + static_cast<std::int64_t>(m) * hw;
    float acc = 0.0f;
    for (std::int64_t i = 0; i < hw; ++i) acc += xmap[i];
    po[m] = acc * inv;
  });
}

void upsample_nearest(const Tensor& x, std::int64_t factor, Tensor& out) {
  const std::int64_t maps = x.shape()[0] * x.shape()[1];
  const std::int64_t h_in = x.shape()[2];
  const std::int64_t w_in = x.shape()[3];
  const std::int64_t w_out = w_in * factor;
  const float* px = x.data();
  float* po = out.data();
  parallel_for(static_cast<std::size_t>(maps), [&](std::size_t m) {
    const float* xmap = px + static_cast<std::int64_t>(m) * h_in * w_in;
    float* omap = po + static_cast<std::int64_t>(m) * h_in * factor * w_out;
    for (std::int64_t ih = 0; ih < h_in; ++ih) {
      float* orow0 = omap + ih * factor * w_out;
      const float* xrow = xmap + ih * w_in;
      for (std::int64_t iw = 0; iw < w_in; ++iw) {
        const float v = xrow[iw];
        for (std::int64_t f = 0; f < factor; ++f) orow0[iw * factor + f] = v;
      }
      for (std::int64_t f = 1; f < factor; ++f) {
        std::memcpy(orow0 + f * w_out, orow0, static_cast<std::size_t>(w_out) * sizeof(float));
      }
    }
  });
}

void add_n(const std::vector<const Tensor*>& xs, Tensor& out) {
  TEMCO_CHECK(!xs.empty());
  const std::int64_t n = out.numel();
  float* po = out.data();
  parallel_for_ranges(static_cast<std::size_t>(n), [&](std::size_t begin, std::size_t end) {
    // Each element is summed in input order, so the vector loops below give
    // the same bits as scalar code.
    const float* first = xs[0]->data();
#pragma omp simd
    for (std::size_t i = begin; i < end; ++i) po[i] = first[i];
    for (std::size_t t = 1; t < xs.size(); ++t) {
      const float* px = xs[t]->data();
#pragma omp simd
      for (std::size_t i = begin; i < end; ++i) po[i] += px[i];
    }
  });
}

void concat_channels(const std::vector<const Tensor*>& xs, Tensor& out) {
  TEMCO_CHECK(!xs.empty());
  const std::int64_t n_batch = out.shape()[0];
  const std::int64_t c_out = out.shape()[1];
  const std::int64_t hw = out.shape()[2] * out.shape()[3];
  float* po = out.data();
  for (std::int64_t n = 0; n < n_batch; ++n) {
    std::int64_t c_off = 0;
    for (const Tensor* x : xs) {
      const std::int64_t c = x->shape()[1];
      const float* src = x->data() + n * c * hw;
      std::memcpy(po + (n * c_out + c_off) * hw, src,
                  static_cast<std::size_t>(c * hw) * sizeof(float));
      c_off += c;
    }
  }
}

void flatten(const Tensor& x, Tensor& out) {
  TEMCO_CHECK(x.numel() == out.numel());
  std::memcpy(out.data(), x.data(), static_cast<std::size_t>(x.bytes()));
}

void softmax(const Tensor& x, Tensor& out) {
  const std::int64_t rows = x.shape()[0];
  const std::int64_t cols = x.shape()[1];
  const float* px = x.data();
  float* po = out.data();
  parallel_for(static_cast<std::size_t>(rows), [&](std::size_t r) {
    const float* xrow = px + static_cast<std::int64_t>(r) * cols;
    float* orow = po + static_cast<std::int64_t>(r) * cols;
    float peak = xrow[0];
    for (std::int64_t j = 1; j < cols; ++j) peak = std::max(peak, xrow[j]);
    float denom = 0.0f;
    for (std::int64_t j = 0; j < cols; ++j) {
      orow[j] = std::exp(xrow[j] - peak);
      denom += orow[j];
    }
    const float inv = 1.0f / denom;
    for (std::int64_t j = 0; j < cols; ++j) orow[j] *= inv;
  });
}

}  // namespace temco::kernels
