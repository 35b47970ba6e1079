// AVX-512F micro-kernel tier: 16-wide FMA tiles with native __mmask16 tails
// over the shared packed-panel layout (gemm_vec_common.hpp).  Compiled with
// -mavx512f via per-file COMPILE_OPTIONS; stubs to nullptr where that flag is
// unavailable.  Nothing here runs unless support/cpu.hpp confirmed AVX-512F
// at runtime.
#include "kernels/gemm_dispatch.hpp"

#if defined(__AVX512F__)

#include <immintrin.h>

#include "kernels/gemm_vec_common.hpp"

namespace temco::kernels::gemm::detail {

namespace {

/// Vector traits for 16-lane AVX-512.  Masked forms use zero-masking loads
/// (dead lanes contribute exact zeros) and mask stores (dead lanes of C are
/// never touched).
struct V16 {
  using Reg = __m512;
  using Mask = __mmask16;
  static constexpr int kWidth = 16;
  /// 8-row tiles (two packed panels): 16 accumulators + 2 B vectors + 1
  /// broadcast fit comfortably in 32 ZMM registers and keep 16 FMA chains in
  /// flight.
  static constexpr int kRowsMax = 8;
  /// Direct-conv chunk: 4 rows × 4 vectors = 16 accumulators + 4 input
  /// vectors + 1 broadcast, and a 64-column row (UNet's widest core) in one
  /// chunk.
  static constexpr int kDirectVecs = 4;

  static Reg zero() { return _mm512_setzero_ps(); }
  static Reg set1(float v) { return _mm512_set1_ps(v); }
  static Reg load(const float* p) { return _mm512_loadu_ps(p); }
  static void store(float* p, Reg v) { _mm512_storeu_ps(p, v); }
  static Reg maskload(const float* p, Mask m) { return _mm512_maskz_loadu_ps(m, p); }
  static void maskstore(float* p, Mask m, Reg v) { _mm512_mask_storeu_ps(p, m, v); }
  static Reg broadcast(const float* p) { return _mm512_set1_ps(*p); }
  static Reg fma(Reg a, Reg b, Reg c) { return _mm512_fmadd_ps(a, b, c); }
  /// a·b + c in the lanes of m; the other lanes keep c exactly.
  static Reg mask_fma(Reg a, Reg b, Reg c, Mask m) { return _mm512_mask3_fmadd_ps(a, b, c, m); }
  /// m ? a : b per lane.
  static Reg select(Mask m, Reg a, Reg b) { return _mm512_mask_blend_ps(m, b, a); }
  static Reg add(Reg a, Reg b) { return _mm512_add_ps(a, b); }
  static float first(Reg v) { return _mm512_cvtss_f32(v); }

  /// Mask selecting the first n lanes (0 <= n < 16).
  static Mask mask_first(int n) { return static_cast<Mask>((1u << n) - 1u); }

  /// Mask selecting lanes [lo, hi); either bound may lie outside [0, 16].
  /// Two compares against the lane index, no branch: the direct conv kernel
  /// builds one per vector per tap.
  static Mask window(std::int64_t lo, std::int64_t hi) {
    const __m512i lanes = _mm512_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15);
    return _mm512_cmpge_epi32_mask(lanes, _mm512_set1_epi32(static_cast<int>(lo))) &
           _mm512_cmplt_epi32_mask(lanes, _mm512_set1_epi32(static_cast<int>(hi)));
  }
};

const KernelOps kOps = {
    support::Isa::kAvx512,
    "avx512",
    &vec::run_block_packed<V16>,
    &vec::run_block_direct<V16>,
    &vec::conv_direct_rows<V16>,
    &vec::peak_probe<V16>,
    vec::kProbeFlopsPerIterPerLane * V16::kWidth,
};

}  // namespace

const KernelOps* avx512_ops() { return &kOps; }

}  // namespace temco::kernels::gemm::detail

#else  // toolchain cannot target AVX-512F

namespace temco::kernels::gemm::detail {
const KernelOps* avx512_ops() { return nullptr; }
}  // namespace temco::kernels::gemm::detail

#endif
