// CPU kernel library.
//
// Every kernel writes into a caller-provided output tensor so the runtime —
// not the kernel — owns allocation policy; that is what lets the tracking
// allocator attribute every internal-tensor byte to a graph value.
//
// Kernels parallelize through the process thread pool.  Accumulation order
// per output element is fixed, so results are bit-deterministic for a given
// thread-count-independent decomposition of work (we parallelize only across
// independent output elements).
#pragma once

#include <cstdint>

#include "ir/op.hpp"
#include "tensor/tensor.hpp"

namespace temco::kernels {

/// Dense 2-D convolution.  x: [N,C,H,W], w: [Cout,C,Kh,Kw], b: [Cout],
/// out: [N,Cout,Hout,Wout] with symmetric zero padding.
///
/// `prepacked`, when non-null, is the weight relayout produced by
/// conv2d_prepack — the executor builds it once at plan time so steady-state
/// inference never re-packs.  When null the kernel packs into a local buffer
/// (standalone callers); both forms are bit-identical.
void conv2d(const Tensor& x, const Tensor& w, const Tensor& b, std::int64_t stride_h,
            std::int64_t stride_w, std::int64_t pad_h, std::int64_t pad_w, Tensor& out,
            const float* prepacked = nullptr);

/// Floats of prepack storage conv2d wants for weight w at the given strides
/// and output width.  Zero means the geometry has no packed form: stride-1
/// multi-tap convs with w_out < kNR or c_out ≤ kMR run a direct kernel that
/// reads w in place instead of a GEMM path.  Every strided conv packs.
std::int64_t conv2d_prepack_floats(const Tensor& w, std::int64_t stride_h, std::int64_t stride_w,
                                   std::int64_t w_out);

/// Packs w into `out` (conv2d_prepack_floats(w, stride_h, stride_w, w_out)
/// floats).  Stride 1: one GEMM panel set per kernel tap, taps in (r,s)
/// order, for the shifted-GEMM path.  Strided: the flattened
/// W[c_out, c_in·kh·kw] view as a single panel set, for the im2col
/// implicit-GEMM path.  Where that count is 0 it writes nothing (`out` may
/// be null); elsewhere a null `out` throws.
void conv2d_prepack(const Tensor& w, std::int64_t stride_h, std::int64_t stride_w,
                    std::int64_t w_out, float* out);

/// Depthwise convolution.  w: [C,1,Kh,Kw].
void depthwise_conv2d(const Tensor& x, const Tensor& w, const Tensor& b, std::int64_t stride_h,
                      std::int64_t stride_w, std::int64_t pad_h, std::int64_t pad_w, Tensor& out);

void relu(const Tensor& x, Tensor& out);
void silu(const Tensor& x, Tensor& out);

/// Applies `act` to n contiguous floats; x may equal out.  relu, silu and the
/// fused kernel's epilogue all run this one loop, so they agree bit for bit.
/// ReLU is branch-free and keeps `v > 0 ? v : 0` exactly: -0.0 and NaN map
/// to +0.0.
void activate(ir::ActKind act, const float* x, float* out, std::int64_t n);

/// Max/avg pooling without padding.
void pool(const Tensor& x, ir::PoolKind kind, std::int64_t kh, std::int64_t kw, std::int64_t sh,
          std::int64_t sw, Tensor& out);

void global_avg_pool(const Tensor& x, Tensor& out);

/// Nearest-neighbour upsampling by an integer factor.
void upsample_nearest(const Tensor& x, std::int64_t factor, Tensor& out);

/// Elementwise sum of all inputs (at least one).
void add_n(const std::vector<const Tensor*>& xs, Tensor& out);

/// Channel-axis concatenation of NCHW tensors.
void concat_channels(const std::vector<const Tensor*>& xs, Tensor& out);

/// Copies x into out reinterpreted as [N, C·H·W].
void flatten(const Tensor& x, Tensor& out);

/// Fully connected layer.  x: [N,F], w: [out,F], b: [out].
void linear(const Tensor& x, const Tensor& w, const Tensor& b, Tensor& out);

/// Row softmax over the last axis of a rank-2 tensor.
void softmax(const Tensor& x, Tensor& out);

/// TeMCO fused kernel (CPU analog of the paper's Listing 1):
///   out = fconv(pool?(act(lconv(x))))
/// where lconv/fconv are 1×1 convolutions with weights w1 [C′,C2,1,1] and
/// w2 [C3,C′,1,1].  The full-width intermediate (C′×H×W) is never
/// materialized — only a per-row scratch of C′·W floats exists at a time,
/// mirroring the tile buffers the CUDA kernel keeps in shared memory.
///
/// Scratch policy: rows are striped statically over scratch slots, one per
/// pool lane at most.  An arena-backed executor passes a preplanned region of
/// `scratch_slots` slots, each `scratch_slot_floats` floats, and the kernel
/// runs without touching the heap; with `scratch == nullptr` the kernel
/// allocates one local buffer of min(rows, pool lanes) slots (the measured
/// framework model).  The two modes produce bitwise-identical outputs.
///
/// Both 1×1 products run on the packed GEMM micro-kernels for every row
/// width, so on a vector ISA tier the output is bitwise-equal to the unfused
/// conv2d → relu/silu → [pool] → conv2d sequence.
///
/// `prepacked`, when non-null, holds both weights packed by fused_prepack
/// (w1 panels followed by w2 panels); null packs locally.
void fused_conv_act_conv(const Tensor& x, const Tensor& w1, const Tensor& b1, const Tensor& w2,
                         const Tensor& b2, ir::ActKind act, bool has_pool, ir::PoolKind pool_kind,
                         std::int64_t pool_k, std::int64_t pool_s, Tensor& out,
                         float* scratch = nullptr, std::int64_t scratch_slot_floats = 0,
                         std::size_t scratch_slots = 0, const float* prepacked = nullptr);

/// Floats of prepack storage the fused kernel wants for its two weights.
std::int64_t fused_prepack_floats(const Tensor& w1, const Tensor& w2);

/// Packs w1 then w2 into `out` (fused_prepack_floats(w1, w2) floats).
void fused_prepack(const Tensor& w1, const Tensor& w2, float* out);

/// Scratch bytes the fused kernel needs per worker thread (reported to the
/// memory planner so the Fig. 10 accounting stays honest).
std::int64_t fused_scratch_bytes(std::int64_t restored_channels, std::int64_t width,
                                 bool has_pool, std::int64_t out_width);

}  // namespace temco::kernels
