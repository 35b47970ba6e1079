// Internal contract between the GEMM engine (gemm.cpp) and its ISA-specific
// micro-kernel translation units (gemm_avx2.cpp, gemm_avx512.cpp,
// gemm_neon.cpp).  Not part of the public API.
//
// Each ISA TU is compiled with exactly the flags its intrinsics need
// (per-file COMPILE_OPTIONS in kernels/CMakeLists.txt) and exports one
// KernelOps table — or nullptr when the compiler/architecture cannot build
// that tier, so the same source tree builds everywhere.  gemm.cpp owns the
// dispatch decision (CPU probe ∧ compiled-in tiers ∧ TEMCO_KERNEL_ISA ∧ the
// gemm.dispatch failpoint) and calls a tier only after support/cpu.hpp
// confirmed the silicon executes it.
//
// The unit of dispatch is run_block: one task of the engine's fixed
// batch × row-block × column-block grid (gemm.hpp) — or, for the direct
// convolution, conv_direct_rows: a block of output rows of one group of up to
// kMR output channels.  Everything above it — grid geometry, task order,
// parallelization — is ISA-independent, which is what keeps the determinism
// contract per tier: for a fixed tier, thread count never changes results.
// Everything below it may differ per tier (vector width, FMA contraction),
// which is why cross-tier comparisons are ULP-bounded rather than exact
// (DESIGN.md, bit-compatibility policy).
#pragma once

#include <cstdint>

#include "kernels/gemm.hpp"

namespace temco::kernels::gemm::detail {

/// A stride-1 dense convolution for the direct conv kernel: NCHW x and out,
/// the weight [c_out, c_in, kh, kw] read in place (no packed form), one bias
/// per output channel, symmetric zero padding.
struct DirectConv {
  const float* x;
  const float* w;
  const float* bias;
  float* out;
  std::int64_t c_in, h_in, w_in;
  std::int64_t c_out, h_out, w_out;
  std::int64_t kh, kw, pad_h, pad_w;
};

/// One ISA tier's block-level kernels.
struct KernelOps {
  support::Isa isa;
  const char* name;

  /// Computes rows [i0, i0+mb) × columns [j0, j0+nb) of C (global indices,
  /// i0 a multiple of kMR) with `a` pre-packed into kMR-row k-major panels
  /// covering the whole matrix (pack_a layout, kPackLayoutVersion).
  void (*run_block_packed)(const float* a, std::int64_t k, const float* b, std::int64_t ldb,
                           float* c, std::int64_t ldc, const float* bias, Init init,
                           std::int64_t i0, std::int64_t mb, std::int64_t j0, std::int64_t nb);

  /// Same block with `a` read from row-major storage (row stride lda).
  /// Vector tiers repack the block's k-strips into the per-lane buffer below
  /// and must produce results bit-identical to run_block_packed.
  void (*run_block_direct)(const float* a, std::int64_t lda, std::int64_t k, const float* b,
                           std::int64_t ldb, float* c, std::int64_t ldc, const float* bias,
                           Init init, std::int64_t i0, std::int64_t mb, std::int64_t j0,
                           std::int64_t nb);

  /// Direct stride-1 convolution: output rows [oh0, oh1) of channels
  /// [co0, co0 + mr) (mr ≤ kMR) of image n.  Each output element's chain is
  /// the shifted GEMM's: the bias, then taps (r,s) ascending, then ci
  /// ascending, with a tap adding only to its valid column window.  Vector
  /// tiers also split ci into kKCVec strips the way their GEMM tiles do, so
  /// they equal per-tap gemm_packed calls bitwise.
  void (*conv_direct_rows)(const DirectConv& conv, std::int64_t n, std::int64_t co0,
                           std::int64_t mr, std::int64_t oh0, std::int64_t oh1);

  /// Register-resident FMA loop for measuring the machine's per-core peak
  /// (bench/kernels_micro's %-of-peak column).  Performs
  /// `iters * probe_flops_per_iter` floating-point operations and defeats
  /// dead-code elimination internally.
  void (*peak_probe)(std::int64_t iters);
  double probe_flops_per_iter;
};

/// The tier the next kernel call runs on (gemm.hpp, active_isa): resolve it
/// once per call and use that table for every task of the call.
const KernelOps& active_ops();

/// Per-lane A-packing scratch for the direct-A vector path: each worker
/// thread (equivalently each ThreadPool lane — a lane is pinned to one OS
/// thread for the duration of a fork-join batch) owns one lazily-allocated
/// buffer of kMC × kKC floats, reused across every strip it packs.  One
/// 32 KiB allocation per thread for the process lifetime keeps the arena
/// executor's zero-steady-state-allocation property.
float* lane_pack_buffer();

/// Shared exact-class block initialization: writes the init value (zero /
/// row bias / column bias; kNone leaves C untouched) into the block before
/// any tier accumulates k-strips on top with C += Σ.  Pure fills and copies —
/// bit-identical across tiers by the bit-compatibility policy.
inline void init_block_c(float* c, std::int64_t ldc, const float* bias, Init init,
                         std::int64_t i0, std::int64_t mb, std::int64_t j0, std::int64_t nb) {
  switch (init) {
    case Init::kNone:
      break;
    case Init::kZero:
      for (std::int64_t i = i0; i < i0 + mb; ++i) {
        float* crow = c + i * ldc + j0;
        for (std::int64_t j = 0; j < nb; ++j) crow[j] = 0.0f;
      }
      break;
    case Init::kRowBias:
      for (std::int64_t i = i0; i < i0 + mb; ++i) {
        float* crow = c + i * ldc + j0;
        const float v = bias[i];
        for (std::int64_t j = 0; j < nb; ++j) crow[j] = v;
      }
      break;
    case Init::kColBias:
      for (std::int64_t i = i0; i < i0 + mb; ++i) {
        float* crow = c + i * ldc + j0;
        for (std::int64_t j = 0; j < nb; ++j) crow[j] = bias[j0 + j];
      }
      break;
  }
}

/// Tier tables.  A TU returns nullptr when its tier is not compiled in
/// (missing compiler support or foreign architecture); scalar always exists.
const KernelOps* scalar_ops();
const KernelOps* avx2_ops();
const KernelOps* avx512_ops();
const KernelOps* neon_ops();

}  // namespace temco::kernels::gemm::detail
