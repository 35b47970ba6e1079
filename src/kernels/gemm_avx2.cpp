// AVX2/FMA micro-kernel tier: 8-wide FMA tiles over the shared packed-panel
// layout (gemm_vec_common.hpp).  Compiled with -mavx2 -mfma via per-file
// COMPILE_OPTIONS; on toolchains/architectures where that is unavailable the
// TU degrades to a stub returning nullptr and dispatch skips the tier.
// Nothing here runs unless support/cpu.hpp confirmed AVX2+FMA at runtime.
#include "kernels/gemm_dispatch.hpp"

#if defined(__AVX2__) && defined(__FMA__)

#include <immintrin.h>

#include "kernels/gemm_vec_common.hpp"

namespace temco::kernels::gemm::detail {

namespace {

/// Vector traits for 8-lane AVX2.  AVX2 has no mask registers, so tails use
/// vmaskmovps with a lane-sign mask vector.
struct V8 {
  using Reg = __m256;
  using Mask = __m256i;
  static constexpr int kWidth = 8;
  /// 4-row tiles: 16 YMM registers total, so an 8×2-vector accumulator (16
  /// regs) would spill; 4×2 accumulators + 2 B vectors + 1 broadcast fit.
  static constexpr int kRowsMax = 4;
  /// Direct-conv chunk: 4 rows × 2 vectors = 8 accumulators + 2 input
  /// vectors + 2 window masks + 1 broadcast.
  static constexpr int kDirectVecs = 2;

  static Reg zero() { return _mm256_setzero_ps(); }
  static Reg set1(float v) { return _mm256_set1_ps(v); }
  static Reg load(const float* p) { return _mm256_loadu_ps(p); }
  static void store(float* p, Reg v) { _mm256_storeu_ps(p, v); }
  static Reg maskload(const float* p, Mask m) { return _mm256_maskload_ps(p, m); }
  static void maskstore(float* p, Mask m, Reg v) { _mm256_maskstore_ps(p, m, v); }
  static Reg broadcast(const float* p) { return _mm256_broadcast_ss(p); }
  static Reg fma(Reg a, Reg b, Reg c) { return _mm256_fmadd_ps(a, b, c); }
  /// a·b + c in the lanes of m; the other lanes keep c exactly.
  static Reg mask_fma(Reg a, Reg b, Reg c, Mask m) {
    return _mm256_blendv_ps(c, _mm256_fmadd_ps(a, b, c), _mm256_castsi256_ps(m));
  }
  /// m ? a : b per lane.
  static Reg select(Mask m, Reg a, Reg b) {
    return _mm256_blendv_ps(b, a, _mm256_castsi256_ps(m));
  }
  static Reg add(Reg a, Reg b) { return _mm256_add_ps(a, b); }
  static float first(Reg v) { return _mm256_cvtss_f32(v); }

  /// Mask selecting the first n lanes (0 <= n < 8).
  static Mask mask_first(int n) {
    const __m256i lanes = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
    return _mm256_cmpgt_epi32(_mm256_set1_epi32(n), lanes);
  }

  /// Mask selecting lanes [lo, hi); either bound may lie outside [0, 8].
  static Mask window(std::int64_t lo, std::int64_t hi) {
    const __m256i lanes = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
    return _mm256_andnot_si256(
        _mm256_cmpgt_epi32(_mm256_set1_epi32(static_cast<int>(lo)), lanes),
        _mm256_cmpgt_epi32(_mm256_set1_epi32(static_cast<int>(hi)), lanes));
  }
};

const KernelOps kOps = {
    support::Isa::kAvx2,
    "avx2",
    &vec::run_block_packed<V8>,
    &vec::run_block_direct<V8>,
    &vec::conv_direct_rows<V8>,
    &vec::peak_probe<V8>,
    vec::kProbeFlopsPerIterPerLane * V8::kWidth,
};

}  // namespace

const KernelOps* avx2_ops() { return &kOps; }

}  // namespace temco::kernels::gemm::detail

#else  // toolchain cannot target AVX2+FMA

namespace temco::kernels::gemm::detail {
const KernelOps* avx2_ops() { return nullptr; }
}  // namespace temco::kernels::gemm::detail

#endif
