// GEMM micro-kernel engine implementation.  See gemm.hpp for the blocking
// shape and the determinism contract.
#include "kernels/gemm.hpp"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <limits>
#include <memory>

#include "kernels/gemm_dispatch.hpp"
#include "parallel/parallel_for.hpp"
#include "support/check.hpp"
#include "support/failpoint.hpp"
#include "support/log.hpp"

namespace temco::kernels::gemm {

std::int64_t packed_a_floats(std::int64_t m, std::int64_t k) {
  return (m + kMR - 1) / kMR * kMR * k;
}

void pack_a(const float* a, std::int64_t row_stride, std::int64_t col_stride, std::int64_t m,
            std::int64_t k, float* packed) {
  const std::int64_t panels = (m + kMR - 1) / kMR;
  for (std::int64_t p = 0; p < panels; ++p) {
    float* dst = packed + p * kMR * k;
    const std::int64_t i0 = p * kMR;
    const std::int64_t rows = std::min(kMR, m - i0);
    for (std::int64_t kk = 0; kk < k; ++kk) {
      for (std::int64_t r = 0; r < rows; ++r) {
        dst[kk * kMR + r] = a[(i0 + r) * row_stride + kk * col_stride];
      }
      for (std::int64_t r = rows; r < kMR; ++r) dst[kk * kMR + r] = 0.0f;
    }
  }
}

namespace {

/// One register tile: C[mr,nr] += A-slice · B-slice over kb k-steps.  The
/// accumulator lives in registers for the whole k loop and is flushed to C
/// once, so C traffic is independent of k.  `Packed` selects the A stream:
/// k-major panel (a[kk*kMR + r]) or row-major in place (a[r*lda + kk]).
template <bool Packed>
inline void tile(const float* a, std::int64_t lda, const float* b, std::int64_t ldb,
                 std::int64_t kb, std::int64_t mr, std::int64_t nr, float* c, std::int64_t ldc) {
  float acc[kMR][kNR];
  if (mr == kMR && nr == kNR) {
    // Full-tile fast path: constant trip counts, vectorized over the columns.
    for (std::int64_t r = 0; r < kMR; ++r) {
#pragma omp simd
      for (std::int64_t j = 0; j < kNR; ++j) acc[r][j] = 0.0f;
    }
    for (std::int64_t kk = 0; kk < kb; ++kk) {
      const float* brow = b + kk * ldb;
      for (std::int64_t r = 0; r < kMR; ++r) {
        const float av = Packed ? a[kk * kMR + r] : a[r * lda + kk];
#pragma omp simd
        for (std::int64_t j = 0; j < kNR; ++j) acc[r][j] += av * brow[j];
      }
    }
    for (std::int64_t r = 0; r < kMR; ++r) {
      float* crow = c + r * ldc;
#pragma omp simd
      for (std::int64_t j = 0; j < kNR; ++j) crow[j] += acc[r][j];
    }
  } else {
    // Ragged tail: same ascending-k accumulation, bounded trip counts.  Only
    // the live mr×nr corner of the accumulator is touched — skinny tiles
    // (n < kNR) are common on small feature maps and the dead-lane zeroing
    // and flushing would otherwise dominate their cost.
    for (std::int64_t r = 0; r < mr; ++r) {
      for (std::int64_t j = 0; j < nr; ++j) acc[r][j] = 0.0f;
    }
    for (std::int64_t kk = 0; kk < kb; ++kk) {
      const float* brow = b + kk * ldb;
      for (std::int64_t r = 0; r < mr; ++r) {
        const float av = Packed ? a[kk * kMR + r] : a[r * lda + kk];
        for (std::int64_t j = 0; j < nr; ++j) acc[r][j] += av * brow[j];
      }
    }
    for (std::int64_t r = 0; r < mr; ++r) {
      float* crow = c + r * ldc;
      for (std::int64_t j = 0; j < nr; ++j) crow[j] += acc[r][j];
    }
  }
}

/// One task of the block grid: rows [i0, i0+mb) × columns [j0, j0+nb) of one
/// batch item.  Initializes its C sub-block, then accumulates kKC strips in
/// order; within a strip the kNR-wide B segment stays L1-resident across the
/// row tiles.  i0 is always a multiple of kMR (kMC is), so the packed-A
/// panel index below is exact.
template <bool Packed>
void run_block(const float* a, std::int64_t lda, std::int64_t k, const float* b, std::int64_t ldb,
               float* c, std::int64_t ldc, const float* bias, Init init, std::int64_t i0,
               std::int64_t mb, std::int64_t j0, std::int64_t nb) {
  if (nb < kNR) {
    // Skinny block: fewer columns than one register tile.  Per-pixel matmuls
    // on small feature maps (late dense-block stages, 1×1..7×7 images) land
    // here, and the acc-zero/flush detour of the full tile would double their
    // cost.  Keep the kMR-row panels (B rows are reused across the panel) but
    // seed the accumulator from the init value and store it straight back.
    // Accumulation is still k-ascending per element and the dispatch depends
    // only on geometry, so determinism across thread counts is unaffected.
    for (std::int64_t ir = 0; ir < mb; ir += kMR) {
      const std::int64_t mr = std::min(kMR, mb - ir);
      float acc[kMR][kNR];
      for (std::int64_t r = 0; r < mr; ++r) {
        const std::int64_t i = i0 + ir + r;
        float* crow = c + i * ldc + j0;
        switch (init) {
          case Init::kNone:
            for (std::int64_t j = 0; j < nb; ++j) acc[r][j] = crow[j];
            break;
          case Init::kZero:
            for (std::int64_t j = 0; j < nb; ++j) acc[r][j] = 0.0f;
            break;
          case Init::kRowBias:
            for (std::int64_t j = 0; j < nb; ++j) acc[r][j] = bias[i];
            break;
          case Init::kColBias:
            for (std::int64_t j = 0; j < nb; ++j) acc[r][j] = bias[j0 + j];
            break;
        }
      }
      const float* apanel = Packed ? a + (i0 + ir) / kMR * (kMR * k) : nullptr;
      for (std::int64_t kk = 0; kk < k; ++kk) {
        const float* brow = b + kk * ldb + j0;
        for (std::int64_t r = 0; r < mr; ++r) {
          const float av = Packed ? apanel[kk * kMR + r] : a[(i0 + ir + r) * lda + kk];
          for (std::int64_t j = 0; j < nb; ++j) acc[r][j] += av * brow[j];
        }
      }
      for (std::int64_t r = 0; r < mr; ++r) {
        float* crow = c + (i0 + ir + r) * ldc + j0;
        for (std::int64_t j = 0; j < nb; ++j) crow[j] = acc[r][j];
      }
    }
    return;
  }
  switch (init) {
    case Init::kNone:
      break;
    case Init::kZero:
      for (std::int64_t i = i0; i < i0 + mb; ++i) {
        std::fill(c + i * ldc + j0, c + i * ldc + j0 + nb, 0.0f);
      }
      break;
    case Init::kRowBias:
      for (std::int64_t i = i0; i < i0 + mb; ++i) {
        std::fill(c + i * ldc + j0, c + i * ldc + j0 + nb, bias[i]);
      }
      break;
    case Init::kColBias:
      for (std::int64_t i = i0; i < i0 + mb; ++i) {
        float* crow = c + i * ldc + j0;
        for (std::int64_t j = 0; j < nb; ++j) crow[j] = bias[j0 + j];
      }
      break;
  }
  for (std::int64_t k0 = 0; k0 < k; k0 += kKC) {
    const std::int64_t kb = std::min(kKC, k - k0);
    for (std::int64_t jr = 0; jr < nb; jr += kNR) {
      const std::int64_t nr = std::min(kNR, nb - jr);
      for (std::int64_t ir = 0; ir < mb; ir += kMR) {
        const std::int64_t mr = std::min(kMR, mb - ir);
        const float* atile = Packed ? a + (i0 + ir) / kMR * (kMR * k) + k0 * kMR
                                    : a + (i0 + ir) * lda + k0;
        tile<Packed>(atile, lda, b + k0 * ldb + j0 + jr, ldb, kb, mr, nr,
                     c + (i0 + ir) * ldc + j0 + jr, ldc);
      }
    }
  }
}

// ---- ISA dispatch registry --------------------------------------------------

/// Simulates an unsupported-ISA condition at dispatch time: while armed,
/// every resolution degrades to the scalar oracle with a logged warning —
/// the graceful-fallback contract tests/test_gemm_simd.cpp verifies.
failpoints::Site fp_dispatch{"gemm.dispatch"};

/// Scalar tier wrappers around the register-tiled oracle above.
void scalar_block_packed(const float* a, std::int64_t k, const float* b, std::int64_t ldb,
                         float* c, std::int64_t ldc, const float* bias, Init init,
                         std::int64_t i0, std::int64_t mb, std::int64_t j0, std::int64_t nb) {
  run_block<true>(a, 0, k, b, ldb, c, ldc, bias, init, i0, mb, j0, nb);
}

void scalar_block_direct(const float* a, std::int64_t lda, std::int64_t k, const float* b,
                         std::int64_t ldb, float* c, std::int64_t ldc, const float* bias,
                         Init init, std::int64_t i0, std::int64_t mb, std::int64_t j0,
                         std::int64_t nb) {
  run_block<false>(a, lda, k, b, ldb, c, ldc, bias, init, i0, mb, j0, nb);
}

/// Scalar direct convolution rows: each output channel's row is seeded with
/// its bias in place, then every in-bounds tap (r,s), and within a tap every
/// ci in ascending order, adds w·x over the tap's valid column window.
void scalar_conv_direct_rows(const detail::DirectConv& conv, std::int64_t n, std::int64_t co0,
                             std::int64_t mr, std::int64_t oh0, std::int64_t oh1) {
  const std::int64_t taps = conv.kh * conv.kw;
  const std::int64_t in_plane = conv.h_in * conv.w_in;
  const float* ximg = conv.x + n * conv.c_in * in_plane;
  for (std::int64_t co = co0; co < co0 + mr; ++co) {
    const float* wco = conv.w + co * conv.c_in * taps;
    for (std::int64_t oh = oh0; oh < oh1; ++oh) {
      float* orow = conv.out + ((n * conv.c_out + co) * conv.h_out + oh) * conv.w_out;
      std::fill(orow, orow + conv.w_out, conv.bias[co]);
      for (std::int64_t r = 0; r < conv.kh; ++r) {
        const std::int64_t ih = oh - conv.pad_h + r;
        if (ih < 0 || ih >= conv.h_in) continue;
        for (std::int64_t s = 0; s < conv.kw; ++s) {
          const std::int64_t lo = std::max<std::int64_t>(0, conv.pad_w - s);
          const std::int64_t hi = std::min(conv.w_out, conv.w_in + conv.pad_w - s);
          if (lo >= hi) continue;
          const std::int64_t shift = s - conv.pad_w;  // iw = ow + shift
          for (std::int64_t ci = 0; ci < conv.c_in; ++ci) {
            const float wv = wco[ci * taps + r * conv.kw + s];
            const float* xrow = ximg + ci * in_plane + ih * conv.w_in;
            for (std::int64_t ow = lo; ow < hi; ++ow) orow[ow] += wv * xrow[ow + shift];
          }
        }
      }
    }
  }
}

/// Scalar peak probe: 16 independent mul-add chains.  The compiler may SLP-
/// vectorize them to the build's baseline width, so this measures the peak of
/// "what the oracle path could theoretically do", not one lane.
void scalar_peak_probe(std::int64_t iters) {
  float x[16];
  for (int i = 0; i < 16; ++i) x[i] = 1.0f + 1e-7f * static_cast<float>(i);
  for (std::int64_t it = 0; it < iters; ++it) {
    for (int i = 0; i < 16; ++i) x[i] = x[i] * 0.999999f + 1e-9f;
  }
  volatile float sink = x[0] + x[15];
  (void)sink;
}

const detail::KernelOps kScalarOps = {
    Isa::kScalar, "scalar", &scalar_block_packed, &scalar_block_direct, &scalar_conv_direct_rows,
    &scalar_peak_probe, 16.0 * 2.0,
};

/// The tier table for `isa`, or nullptr when that tier is not compiled into
/// this binary.
const detail::KernelOps* compiled_ops(Isa isa) {
  switch (isa) {
    case Isa::kScalar: return &kScalarOps;
    case Isa::kAvx2: return detail::avx2_ops();
    case Isa::kAvx512: return detail::avx512_ops();
    case Isa::kNeon: return detail::neon_ops();
  }
  return nullptr;
}

/// Best tier at or below `want` that is both compiled in and runnable on this
/// CPU.  Always terminates at scalar.
const detail::KernelOps* best_ops_at_or_below(Isa want) {
  for (auto isa = static_cast<int>(want); isa > 0; --isa) {
    const detail::KernelOps* ops = compiled_ops(static_cast<Isa>(isa));
    if (ops != nullptr && support::isa_runnable(ops->isa)) return ops;
  }
  return &kScalarOps;
}

/// One-time resolution: detected hardware tier ∧ compiled-in tiers ∧ the
/// TEMCO_KERNEL_ISA override, with clamp-and-warn on unsatisfiable requests.
const detail::KernelOps* resolve_ops() {
  Isa want = support::detected_isa();
  if (const char* env = std::getenv("TEMCO_KERNEL_ISA")) {
    if (const auto requested = support::parse_isa(env)) {
      want = *requested;
    } else {
      TEMCO_WARN() << "gemm: unrecognized TEMCO_KERNEL_ISA='" << env
                   << "' (want scalar|avx2|avx512|neon|native); using native dispatch";
    }
  }
  const detail::KernelOps* ops = best_ops_at_or_below(want);
  if (ops->isa != want) {
    TEMCO_WARN() << "gemm: requested '" << support::isa_name(want)
                 << "' micro-kernels are not available on this machine/build; degrading to '"
                 << ops->name << "'";
  }
  TEMCO_INFO() << "gemm: dispatching " << ops->name << " micro-kernels (detected "
               << support::isa_name(support::detected_isa()) << ", pack layout v"
               << kPackLayoutVersion << ")";
  return ops;
}

/// ScopedIsa override stack top (nullptr = none).  Plain atomic: overrides
/// are a test-harness feature and documented as process-global.
std::atomic<const detail::KernelOps*> g_isa_override{nullptr};

}  // namespace

namespace detail {

const KernelOps& active_ops() {
  if (fp_dispatch.fire()) {
    TEMCO_WARN() << "gemm: dispatch found no supported vector ISA "
                 << "(gemm.dispatch failpoint); degrading to scalar micro-kernels";
    return kScalarOps;
  }
  if (const KernelOps* forced = g_isa_override.load(std::memory_order_acquire)) {
    return *forced;
  }
  static const KernelOps* resolved = resolve_ops();
  return *resolved;
}

float* lane_pack_buffer() {
  // One kMC×kKC strip per ThreadPool lane; a lane is pinned to one OS thread
  // for the duration of a fork-join batch, so thread_local storage *is*
  // per-lane storage — and it survives across pools (global, intra-op,
  // per-session) without any registry.  Allocated once per thread, which
  // preserves the arena executor's zero-steady-state-allocation property.
  struct Aligned {
    float* data;
    Aligned() : data(static_cast<float*>(std::aligned_alloc(64, kMC * kKC * sizeof(float)))) {
      TEMCO_CHECK(data != nullptr) << "gemm: lane pack buffer allocation failed";
    }
    ~Aligned() { std::free(data); }
  };
  thread_local Aligned buffer;
  return buffer.data;
}

const KernelOps* scalar_ops() { return &kScalarOps; }

}  // namespace detail

Isa active_isa() { return detail::active_ops().isa; }

const char* active_isa_name() { return detail::active_ops().name; }

void check_pack_layout(std::uint32_t stamped) {
  TEMCO_CHECK_AS(stamped == kPackLayoutVersion, InvalidGraphError)
      << "packed weights use panel layout v" << stamped << " but this runtime expects v"
      << kPackLayoutVersion << "; recompile the model";
}

std::vector<Isa> reachable_isas() {
  std::vector<Isa> result;
  for (const Isa isa : {Isa::kScalar, Isa::kAvx2, Isa::kAvx512, Isa::kNeon}) {
    const detail::KernelOps* ops = compiled_ops(isa);
    if (ops != nullptr && support::isa_runnable(isa)) result.push_back(isa);
  }
  return result;
}

ScopedIsa::ScopedIsa(Isa isa) : previous_(g_isa_override.load(std::memory_order_acquire)) {
  const detail::KernelOps* ops = compiled_ops(isa);
  TEMCO_CHECK(ops != nullptr && support::isa_runnable(isa))
      << "ScopedIsa: '" << support::isa_name(isa)
      << "' is not reachable on this machine/build (see gemm::reachable_isas)";
  g_isa_override.store(ops, std::memory_order_release);
}

ScopedIsa::~ScopedIsa() {
  g_isa_override.store(static_cast<const detail::KernelOps*>(previous_),
                       std::memory_order_release);
}

void peak_probe_iters(std::int64_t iters) { detail::active_ops().peak_probe(iters); }

double peak_probe_flops_per_iter() { return detail::active_ops().probe_flops_per_iter; }

namespace {

template <bool Packed>
void gemm_impl(const float* a, std::int64_t lda, std::int64_t m, std::int64_t k, const float* b,
               std::int64_t ldb, std::int64_t n, float* c, std::int64_t ldc,
               const GemmOptions& options) {
  TEMCO_CHECK(m >= 0 && n >= 0 && k >= 0 && options.batch >= 0) << "gemm: negative extent";
  TEMCO_CHECK(options.init == Init::kZero || options.init == Init::kNone ||
              options.bias != nullptr)
      << "gemm: bias init requested without a bias vector";
  if (m == 0 || n == 0 || options.batch == 0) return;
  // One dispatch resolution per call: every block of this call — across all
  // its tasks and threads — runs the same tier, so a concurrent override
  // cannot split one GEMM across tiers.
  const detail::KernelOps& ops = detail::active_ops();
  const auto block = [&ops](const float* ba, std::int64_t blda, std::int64_t bk, const float* bb,
                            std::int64_t bldb, float* bc, std::int64_t bldc, const float* bias,
                            Init init, std::int64_t i0, std::int64_t mb, std::int64_t j0,
                            std::int64_t nb) {
    if constexpr (Packed) {
      ops.run_block_packed(ba, bk, bb, bldb, bc, bldc, bias, init, i0, mb, j0, nb);
    } else {
      ops.run_block_direct(ba, blda, bk, bb, bldb, bc, bldc, bias, init, i0, mb, j0, nb);
    }
  };

  // Fixed task grid: batch × row blocks × column blocks.  The grid depends
  // only on geometry, so results are identical for any thread count.
  const std::int64_t row_blocks = (m + kMC - 1) / kMC;
  const std::int64_t col_blocks = (n + kNC - 1) / kNC;
  const std::int64_t tasks = options.batch * row_blocks * col_blocks;
  if (tasks == 1) {
    // Single-block problems (one batch item, m ≤ kMC, n ≤ kNC) skip the task
    // grid entirely.  This is the hot shape for per-row convolution GEMMs,
    // where the div/mod index decode and loop plumbing below would cost as
    // much as the arithmetic.  The fault-injection hook still fires exactly
    // as parallel_for's serial path would, and the dispatch depends only on
    // geometry, so determinism across thread counts is unaffected.
    temco::detail::maybe_inject_task_fault(0);
    block(a, lda, k, b, ldb, c, ldc, options.bias, options.init, 0, m, 0, n);
    return;
  }
  const auto body = [&](std::size_t task) {
    const std::int64_t t = static_cast<std::int64_t>(task);
    const std::int64_t bi = t / (row_blocks * col_blocks);
    const std::int64_t ib = t % (row_blocks * col_blocks) / col_blocks;
    const std::int64_t jb = t % col_blocks;
    const std::int64_t i0 = ib * kMC;
    const std::int64_t j0 = jb * kNC;
    block(a, lda, k, b + bi * options.b_batch_stride, ldb, c + bi * options.c_batch_stride, ldc,
          options.bias, options.init, i0, std::min(kMC, m - i0), j0, std::min(kNC, n - j0));
  };
  // Serial mode raises the grain above the task count instead of bypassing
  // parallel_for, so fault-injection hooks fire on either path.
  ParallelOptions parallel_options;
  parallel_options.grain = options.parallel ? 1 : std::numeric_limits<std::size_t>::max();
  parallel_options.pool = options.pool;
  parallel_for(static_cast<std::size_t>(tasks), body, parallel_options);
}

}  // namespace

void gemm_packed(const float* packed_a, std::int64_t m, std::int64_t k, const float* b,
                 std::int64_t ldb, std::int64_t n, float* c, std::int64_t ldc,
                 const GemmOptions& options) {
  gemm_impl<true>(packed_a, 0, m, k, b, ldb, n, c, ldc, options);
}

void gemm_direct(const float* a, std::int64_t lda, std::int64_t m, std::int64_t k, const float* b,
                 std::int64_t ldb, std::int64_t n, float* c, std::int64_t ldc,
                 const GemmOptions& options) {
  gemm_impl<false>(a, lda, m, k, b, ldb, n, c, ldc, options);
}

}  // namespace temco::kernels::gemm
