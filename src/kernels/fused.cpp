// TeMCO fused lconv → activation [→ pool] → fconv kernel.
//
// CPU analog of the paper's Listing 1.  The CUDA version keeps the restored
// (full-channel-width) values in shared-memory tiles; here each worker keeps
// a row-granular scratch:
//   restored row  : C′ × W   floats (lconv output + activation, one row)
//   pooled row    : C′ × Wout floats (only when pooling is fused)
// The full C′ × H × W intermediate never exists, which is exactly the memory
// saving activation-layer fusion claims.  Both 1×1 inner products (lconv and
// fconv) run on the packed GEMM micro-kernels in serial mode at every row
// width — the vector tiers' masked tails cover rows narrower than a register
// tile.  Each output element therefore gets the same accumulation chain as
// in the unfused conv2d → act → [pool] → conv2d sequence: on a vector tier
// the two are bitwise-equal, and on the scalar tier they differ only by
// where the skinny and full tiles add the bias.
#include <algorithm>
#include <limits>
#include <vector>

#include "kernels/gemm.hpp"
#include "kernels/kernels.hpp"
#include "parallel/parallel_for.hpp"
#include "parallel/thread_pool.hpp"

namespace temco::kernels {

std::int64_t fused_scratch_bytes(std::int64_t restored_channels, std::int64_t width,
                                 bool has_pool, std::int64_t out_width) {
  std::int64_t floats = restored_channels * width;
  if (has_pool) floats += restored_channels * out_width;
  return floats * static_cast<std::int64_t>(sizeof(float));
}

std::int64_t fused_prepack_floats(const Tensor& w1, const Tensor& w2) {
  return gemm::packed_a_floats(w1.shape()[0], w1.shape()[1]) +
         gemm::packed_a_floats(w2.shape()[0], w2.shape()[1]);
}

void fused_prepack(const Tensor& w1, const Tensor& w2, float* out) {
  const std::int64_t c_restored = w1.shape()[0];
  const std::int64_t c_reduced = w1.shape()[1];
  const std::int64_t c_out = w2.shape()[0];
  gemm::pack_a(w1.data(), c_reduced, 1, c_restored, c_reduced, out);
  gemm::pack_a(w2.data(), c_restored, 1, c_out, c_restored,
               out + gemm::packed_a_floats(c_restored, c_reduced));
}

void fused_conv_act_conv(const Tensor& x, const Tensor& w1, const Tensor& b1, const Tensor& w2,
                         const Tensor& b2, ir::ActKind act, bool has_pool, ir::PoolKind pool_kind,
                         std::int64_t pool_k, std::int64_t pool_s, Tensor& out, float* scratch,
                         std::int64_t scratch_slot_floats, std::size_t scratch_slots,
                         const float* prepacked) {
  const std::int64_t n_batch = x.shape()[0];
  const std::int64_t c_reduced = x.shape()[1];   // C2: input reduced channels
  const std::int64_t h_in = x.shape()[2];
  const std::int64_t w_in = x.shape()[3];
  const std::int64_t c_restored = w1.shape()[0]; // C′: restored width (never materialized fully)
  const std::int64_t c_out = w2.shape()[0];      // C3: next sequence's reduced channels
  const std::int64_t h_out = out.shape()[2];
  const std::int64_t w_out = out.shape()[3];
  TEMCO_CHECK(w1.shape()[1] == c_reduced && w2.shape()[1] == c_restored)
      << "fused kernel weight shapes inconsistent";

  std::vector<float> local;
  if (prepacked == nullptr) {
    local.resize(static_cast<std::size_t>(fused_prepack_floats(w1, w2)));
    fused_prepack(w1, w2, local.data());
    prepacked = local.data();
  }
  const float* pw1p = prepacked;
  const float* pw2p = prepacked + gemm::packed_a_floats(c_restored, c_reduced);

  const float* px = x.data();
  const float* pb1 = b1.data();
  const float* pb2 = b2.data();
  float* po = out.data();

  const std::int64_t restored_floats = c_restored * w_in;
  const std::int64_t pooled_floats = has_pool ? c_restored * w_out : 0;

  // One task per (batch, output row); a worker's scratch is reused across the
  // rows it processes.  Row results do not depend on how rows are grouped
  // into workers, so the result does not depend on the scratch mode.
  auto process_rows = [&](std::size_t begin, std::size_t end, float* restored, float* pooled) {
        gemm::GemmOptions lconv_options;
        lconv_options.bias = pb1;
        lconv_options.init = gemm::Init::kRowBias;
        lconv_options.parallel = false;
        gemm::GemmOptions fconv_options;
        fconv_options.bias = pb2;
        fconv_options.init = gemm::Init::kRowBias;
        fconv_options.parallel = false;
        for (std::size_t task = begin; task < end; ++task) {
          const std::int64_t n = static_cast<std::int64_t>(task) / h_out;
          const std::int64_t oh = static_cast<std::int64_t>(task) % h_out;
          const float* xbase = px + n * c_reduced * h_in * w_in;

          // Pool windows are clipped to the input extent (inputs smaller than
          // the window yield one clipped window — see pool_out_extent).
          const std::int64_t rows = has_pool ? std::min(pool_k, h_in - oh * pool_s) : 1;
          if (has_pool) {
            const float init = pool_kind == ir::PoolKind::kMax
                                   ? -std::numeric_limits<float>::infinity()
                                   : 0.0f;
            std::fill(pooled, pooled + pooled_floats, init);
          }

          float* row_target = restored;
          for (std::int64_t r = 0; r < rows; ++r) {
            const std::int64_t ih = has_pool ? oh * pool_s + r : oh;
            // --- lconv: restore one spatial row to C′ channels -------------
            // C[cp, iw] = b1[cp] + Σ_c2 w1[cp,c2] · x[c2, ih, iw]; B is the
            // input's row ih across channels (row stride h_in·w_in).
            gemm::gemm_packed(pw1p, c_restored, c_reduced, xbase + ih * w_in, h_in * w_in, w_in,
                              row_target, w_in, lconv_options);
            // --- activation -------------------------------------------------
            activate(act, row_target, row_target, restored_floats);
            // --- pooling (horizontal within the row, vertical across rows) --
            if (has_pool) {
              for (std::int64_t cp = 0; cp < c_restored; ++cp) {
                const float* rrow = row_target + cp * w_in;
                float* prow = pooled + cp * w_out;
                for (std::int64_t ow = 0; ow < w_out; ++ow) {
                  const float* win = rrow + ow * pool_s;
                  const std::int64_t s_hi = std::min(pool_k, w_in - ow * pool_s);
                  if (pool_kind == ir::PoolKind::kMax) {
                    float best = prow[ow];
                    for (std::int64_t s = 0; s < s_hi; ++s) best = std::max(best, win[s]);
                    prow[ow] = best;
                  } else {
                    float acc = prow[ow];
                    for (std::int64_t s = 0; s < s_hi; ++s) acc += win[s];
                    prow[ow] = acc;
                  }
                }
              }
            }
          }

          float* fconv_in = has_pool ? pooled : restored;
          // Clipping only happens when the input is smaller than the window
          // (then the single window covers min(k, extent)), so the average
          // divisor is uniform across the row: scale the pooled sums once
          // instead of folding the divisor into every fconv coefficient.
          if (has_pool && pool_kind == ir::PoolKind::kAvg) {
            const float avg_scale = 1.0f / static_cast<float>(rows * std::min(pool_k, w_in));
            for (std::int64_t i = 0; i < pooled_floats; ++i) fconv_in[i] *= avg_scale;
          }
          // --- fconv: reduce the (pooled) restored row to C3 channels -------
          // C[c3, ow] = b2[c3] + Σ_cp w2[c3,cp] · fconv_in[cp, ow], written
          // straight into output row oh of every map (row stride h_out·w_out).
          gemm::gemm_packed(pw2p, c_out, c_restored, fconv_in, w_out, w_out,
                            po + n * c_out * h_out * w_out + oh * w_out, h_out * w_out,
                            fconv_options);
        }
  };

  const std::size_t tasks = static_cast<std::size_t>(n_batch * h_out);
  // Rows are striped statically over scratch slots.  The stripes never
  // outnumber the resolved pool's lanes, so an executor's intra_op_threads
  // bounds this kernel like every other.  Arena mode passes preplanned slots
  // and allocates nothing; otherwise one local buffer holds the slots.
  ThreadPool& pool = resolve_pool();
  std::vector<float> local_scratch;
  if (scratch == nullptr) {
    scratch_slot_floats = restored_floats + pooled_floats;
    scratch_slots = std::min(std::max<std::size_t>(tasks, 1), pool.concurrency());
    local_scratch.resize(scratch_slots * static_cast<std::size_t>(scratch_slot_floats));
    scratch = local_scratch.data();
  }
  TEMCO_CHECK(scratch_slots >= 1 && scratch_slot_floats >= restored_floats + pooled_floats)
      << "fused kernel scratch region too small: " << scratch_slot_floats << " floats/slot, need "
      << restored_floats + pooled_floats;
  const std::size_t slots =
      std::min({scratch_slots, std::max<std::size_t>(tasks, 1), pool.concurrency()});
  auto run_slot = [&](std::size_t slot, std::size_t begin, std::size_t end) {
    float* base = scratch + static_cast<std::int64_t>(slot) * scratch_slot_floats;
    process_rows(begin, end, base, base + restored_floats);
  };
  if (slots == 1) {
    run_slot(0, 0, tasks);
  } else {
    const std::size_t chunk = (tasks + slots - 1) / slots;
    pool.run(slots, [&](std::size_t slot) {
      const std::size_t begin = slot * chunk;
      const std::size_t end = std::min(tasks, begin + chunk);
      if (begin < end) run_slot(slot, begin, end);
    });
  }
}

}  // namespace temco::kernels
