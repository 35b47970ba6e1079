// GEMM micro-kernel engine: the one inner loop behind every per-pixel-matmul
// path in the repo (1×1 fconv/lconv, the fused lconv-act-[pool]-fconv tile,
// linalg::matmul, and the shifted-GEMM general conv2d).
//
// Shape: the standard BLIS/oneDNN decomposition scaled to this repo's sizes.
// A kMR×kNR register tile is accumulated over a kKC-deep strip of K, with the
// A operand pre-packed into kMR-row panels so the micro-kernel reads it as a
// contiguous k-major stream; B is read in place (contiguous kNR-wide row
// segments), which keeps the engine scratch-free — essential for the arena
// executor's zero-malloc guarantee.  Work is decomposed into a fixed grid of
// kMC×kNC output blocks.
//
// Determinism contract (what the arena and serving differential tests rely on):
//   * Each output element is owned by exactly one task of the fixed block
//     grid, and its value is accumulated in ascending-k order — kKC strips in
//     order, k ascending within a strip — regardless of how many threads the
//     grid is spread over.  `parallel` on/off and any pool size produce
//     bit-identical results.
//   * Code-path selection (full tile vs tail vs the skinny-block path for
//     sub-kNR column counts) depends only on (m, n, k) geometry, never on
//     thread count.
//   * Packing is a pure relayout: packed and direct A produce bit-identical
//     results for the same geometry.
//
// ISA dispatch (PR 6): the inner block kernel is selected at runtime from the
// tiers compiled into the binary — scalar (the always-on differential
// oracle), AVX2/FMA, AVX-512 — intersected with what the CPU reports
// (support/cpu.hpp) and with the TEMCO_KERNEL_ISA environment override.  The
// fixed task grid, packing layout, and accumulation *order* are shared by
// every tier, so the determinism contract above holds per tier; across tiers
// results differ only by FMA contraction and are ULP-bounded against the
// scalar oracle (bit-compatibility policy, DESIGN.md; enforced by
// tests/test_gemm_simd.cpp).
#pragma once

#include <cstdint>
#include <vector>

#include "support/cpu.hpp"

namespace temco {
class ThreadPool;
}

namespace temco::kernels::gemm {

using support::Isa;

/// Register tile: kMR accumulator rows × kNR columns.  4×8 holds the
/// accumulator block in 8 XMM registers on baseline x86-64 (4 YMM with AVX),
/// leaving room for the B row and the A broadcasts.
inline constexpr std::int64_t kMR = 4;
inline constexpr std::int64_t kNR = 8;

/// Cache blocking: kKC k-steps per accumulation strip (keeps the B strip a
/// micro-tile reads L1-resident), kMC packed-A rows and kNC B/C columns per
/// task of the parallel block grid.  kMC is a multiple of kMR and kNC a
/// multiple of kNR so only the final blocks see ragged tails.
inline constexpr std::int64_t kKC = 256;
inline constexpr std::int64_t kMC = 32;
inline constexpr std::int64_t kNC = 512;

/// Version of the packed-panel layout (kMR-row, k-major, zero-padded).  The
/// layout is deliberately identical for every ISA tier — a blob packed once
/// serves scalar, AVX2, and AVX-512 kernels alike — so serving artifacts
/// stamp this version (serve::CompiledModel) and re-validate it on load; a
/// future layout change bumps it and invalidates stale artifacts instead of
/// silently misreading panels.
inline constexpr std::uint32_t kPackLayoutVersion = 1;

/// Rejects a stamped pack-layout version that this binary cannot interpret,
/// naming both versions.  Shared by CompiledModel::revalidate_kernel_dispatch
/// and the artifact loader so the two paths cannot drift.
void check_pack_layout(std::uint32_t stamped);

// ---- runtime ISA dispatch ---------------------------------------------------

/// The tier the next GEMM call will dispatch to: compiled-in ∧ CPU-supported
/// ∧ TEMCO_KERNEL_ISA (∧ any ScopedIsa override; ∧ the gemm.dispatch
/// failpoint, which forces scalar while armed).  TEMCO_KERNEL_ISA accepts
/// scalar|avx2|avx512|neon|native; requesting a tier above what the machine
/// or build supports logs a warning and clamps down — never a crash.
Isa active_isa();
const char* active_isa_name();

/// Every tier this process can actually execute, ascending (always contains
/// kScalar).  The differential harness sweeps exactly this set.
std::vector<Isa> reachable_isas();

/// Scoped dispatch override for differential tests: forces `isa` (which must
/// be in reachable_isas()) for the scope's lifetime, then restores the prior
/// state.  Packed blobs stay valid across the switch — the layout is
/// ISA-independent.  Overrides nest; they are process-global, so do not run
/// concurrent GEMMs expecting different tiers.
class ScopedIsa {
 public:
  explicit ScopedIsa(Isa isa);
  ~ScopedIsa();
  ScopedIsa(const ScopedIsa&) = delete;
  ScopedIsa& operator=(const ScopedIsa&) = delete;

 private:
  const void* previous_;
};

/// Register-resident FMA peak probe of the active tier, for the
/// %-of-machine-peak column in bench/kernels_micro: peak_probe_iters(n)
/// performs n * peak_probe_flops_per_iter floating-point operations.
void peak_probe_iters(std::int64_t iters);
double peak_probe_flops_per_iter();

/// Floats pack_a writes for an m×k matrix: m rounded up to whole kMR panels.
std::int64_t packed_a_floats(std::int64_t m, std::int64_t k);

/// Packs logical A[m,k] — element (i, kk) at a[i*row_stride + kk*col_stride]
/// — into kMR-row panels, k-major within each panel, zero-padding the ragged
/// rows of the last panel.  The stride form packs transposed or interleaved
/// operands (e.g. the per-tap weight slices W[:, :, r, s] of a dense conv)
/// without materializing them first.
void pack_a(const float* a, std::int64_t row_stride, std::int64_t col_stride, std::int64_t m,
            std::int64_t k, float* packed);

/// How the destination block is initialized before accumulation starts.
enum class Init : std::uint8_t {
  kZero,     ///< C = A·B
  kRowBias,  ///< C = bias[i] + A·B      (conv bias: one value per output row)
  kColBias,  ///< C = bias[j] + A·B      (linear bias: one value per column)
  kNone,     ///< C += A·B               (shifted-GEMM accumulation)
};

struct GemmOptions {
  const float* bias = nullptr;  ///< required for kRowBias / kColBias
  Init init = Init::kZero;
  /// Spread the block grid over a thread pool.  Off (or a 1-task grid) runs
  /// the same blocks in the same order on the caller — results are identical.
  bool parallel = true;
  ThreadPool* pool = nullptr;  ///< parallel target; nullptr = process pool
  /// Independent (B, C) pairs sharing one A — e.g. the images of a batch in
  /// a 1×1 conv.  Batches join the task grid, so parallelism spans them.
  std::int64_t batch = 1;
  std::int64_t b_batch_stride = 0;
  std::int64_t c_batch_stride = 0;
};

/// C[m,n] (row stride ldc) = init ⊕ A·B with A pre-packed by pack_a and
/// B[k,n] read in place with row stride ldb (columns contiguous).
void gemm_packed(const float* packed_a, std::int64_t m, std::int64_t k, const float* b,
                 std::int64_t ldb, std::int64_t n, float* c, std::int64_t ldc,
                 const GemmOptions& options = {});

/// Same contract with A read directly in row-major form (row stride lda).
/// Used when A is an activation that would need packing at run time — the
/// packed and direct forms are bit-identical for the same geometry.
void gemm_direct(const float* a, std::int64_t lda, std::int64_t m, std::int64_t k, const float* b,
                 std::int64_t ldb, std::int64_t n, float* c, std::int64_t ldc,
                 const GemmOptions& options = {});

}  // namespace temco::kernels::gemm
