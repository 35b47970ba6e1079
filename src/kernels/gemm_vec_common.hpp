// Vector micro-kernel template shared by the AVX2 and AVX-512 translation
// units.  Included ONLY from ISA TUs compiled with the matching target flags;
// the traits class V supplies the vector type, width, register budgets
// (kRowsMax for GEMM tiles, kDirectVecs for direct-conv chunks), loads/stores
// (masked and full), lane masks (first n lanes, a [lo, hi) window), broadcast,
// FMA (plain and masked) and a lane select, so the blocking logic exists once.
//
// Tile shape: up to V::kRowsMax accumulator rows (4 = one packed panel, 8 =
// two consecutive panels for twice the B-reuse and FMA chains) × up to two
// full vectors plus one masked tail vector of columns.  The accumulator
// lives in registers for an entire k-strip and touches C once per strip —
// and the *first* strip seeds the accumulator from the init value (zero /
// bias / existing C) and overwrites C, so a k ≤ kKCVec problem makes exactly
// one pass over C instead of init + load + store.  That matters because the
// decomposition workloads this engine exists for (CP/TT factor chains) are
// skinny-K GEMMs whose arithmetic intensity is k itself.
//
// Determinism: every output element still receives its k terms in ascending
// order (strips in order, k ascending within a strip, one SIMD lane per
// element), and strip/tile selection depends only on geometry — so a fixed
// tier is bit-deterministic across thread counts and pack sources.  What
// differs from the scalar oracle is FMA contraction and where the init value
// enters the chain, which is exactly the ULP-bounded class of the
// bit-compatibility policy (DESIGN.md).
#pragma once

#include <algorithm>
#include <cstdint>

#include "kernels/gemm.hpp"
#include "kernels/gemm_dispatch.hpp"

namespace temco::kernels::gemm::vec {

/// Vector-tier k-strip depth.  Shallower than the scalar kKC so one column
/// position's B slice (kKCVec × 2·kWidth floats), the packed-A strip, and
/// the C block coexist in L1 — at kKC=256 the AVX-512 B slice alone is
/// 32 KiB and evicts the A panels mid-strip.  Strip boundaries are part of a
/// tier's accumulation order, so this is a per-tier constant, not a grid
/// constant: the task grid (kMC/kNC) is shared with the scalar oracle.
inline constexpr std::int64_t kKCVec = 128;

/// How a tile writes C: accumulate into existing values (later strips), or
/// seed the accumulator from the init value and overwrite (first strip).
enum class Flush : std::uint8_t { kAccumulate, kSeed };

/// Per-tile seed context for Flush::kSeed; row/col pointers are pre-offset to
/// the tile.  bias_row is indexed by live row only (dead panel-padding rows
/// seed zero, so no out-of-bounds bias reads on ragged edges).
struct Seed {
  Init init = Init::kNone;
  const float* bias_row = nullptr;  ///< kRowBias: bias + global row of tile row 0
  const float* bias_col = nullptr;  ///< kColBias: bias + global column of tile col 0
};

/// One register tile over a k-strip: C[rows_live, cols] ⊕= A·B.  `apanels`
/// points at the first kMR-row panel of the tile's rows, offset to the strip
/// (element (kk, r) of panel p at apanels[p*panel_stride + kk*kMR + r]);
/// zero-padded panel rows make it safe to accumulate ROWS rows and store only
/// `rows_live`.
template <class V, int ROWS, int CV, bool TAIL, Flush FLUSH>
inline void tile(const float* apanels, std::int64_t panel_stride, std::int64_t kb,
                 const float* b, std::int64_t ldb, float* c, std::int64_t ldc,
                 typename V::Mask tail_mask, std::int64_t rows_live, const Seed& seed) {
  static_assert(ROWS % kMR == 0, "tile consumes whole packed panels");
  constexpr int kNV = CV + (TAIL ? 1 : 0);
  typename V::Reg acc[ROWS][kNV];
  if constexpr (FLUSH == Flush::kAccumulate) {
#pragma GCC unroll 8
    for (int r = 0; r < ROWS; ++r) {
#pragma GCC unroll 3
      for (int v = 0; v < kNV; ++v) acc[r][v] = V::zero();
    }
  } else {
    switch (seed.init) {
      case Init::kZero:
#pragma GCC unroll 8
        for (int r = 0; r < ROWS; ++r) {
#pragma GCC unroll 3
          for (int v = 0; v < kNV; ++v) acc[r][v] = V::zero();
        }
        break;
      case Init::kRowBias:
#pragma GCC unroll 8
        for (int r = 0; r < ROWS; ++r) {
          const typename V::Reg row =
              r < rows_live ? V::set1(seed.bias_row[r]) : V::zero();
#pragma GCC unroll 3
          for (int v = 0; v < kNV; ++v) acc[r][v] = row;
        }
        break;
      case Init::kColBias: {
        typename V::Reg cols[kNV];
#pragma GCC unroll 3
        for (int v = 0; v < CV; ++v) cols[v] = V::load(seed.bias_col + v * V::kWidth);
        if constexpr (TAIL) cols[CV] = V::maskload(seed.bias_col + CV * V::kWidth, tail_mask);
#pragma GCC unroll 8
        for (int r = 0; r < ROWS; ++r) {
#pragma GCC unroll 3
          for (int v = 0; v < kNV; ++v) acc[r][v] = cols[v];
        }
        break;
      }
      default:  // Init::kNone; a default label lets GCC see every path seed acc
#pragma GCC unroll 8
        for (int r = 0; r < ROWS; ++r) {
          if (r < rows_live) {
            const float* crow = c + r * ldc;
#pragma GCC unroll 3
            for (int v = 0; v < CV; ++v) acc[r][v] = V::load(crow + v * V::kWidth);
            if constexpr (TAIL) acc[r][CV] = V::maskload(crow + CV * V::kWidth, tail_mask);
          } else {
#pragma GCC unroll 3
            for (int v = 0; v < kNV; ++v) acc[r][v] = V::zero();
          }
        }
        break;
    }
  }
  for (std::int64_t kk = 0; kk < kb; ++kk) {
    const float* brow = b + kk * ldb;
    typename V::Reg bv[kNV];
#pragma GCC unroll 3
    for (int v = 0; v < CV; ++v) bv[v] = V::load(brow + v * V::kWidth);
    if constexpr (TAIL) bv[CV] = V::maskload(brow + CV * V::kWidth, tail_mask);
    const float* astrip = apanels + kk * kMR;
#pragma GCC unroll 8
    for (int r = 0; r < ROWS; ++r) {
      const typename V::Reg av = V::broadcast(astrip + (r / kMR) * panel_stride + r % kMR);
#pragma GCC unroll 3
      for (int v = 0; v < kNV; ++v) acc[r][v] = V::fma(av, bv[v], acc[r][v]);
    }
  }
  for (std::int64_t r = 0; r < rows_live; ++r) {
    float* crow = c + r * ldc;
    if constexpr (FLUSH == Flush::kSeed) {
#pragma GCC unroll 3
      for (int v = 0; v < CV; ++v) V::store(crow + v * V::kWidth, acc[r][v]);
      if constexpr (TAIL) V::maskstore(crow + CV * V::kWidth, tail_mask, acc[r][CV]);
    } else {
#pragma GCC unroll 3
      for (int v = 0; v < CV; ++v) {
        V::store(crow + v * V::kWidth, V::add(V::load(crow + v * V::kWidth), acc[r][v]));
      }
      if constexpr (TAIL) {
        float* ctail = crow + CV * V::kWidth;
        V::maskstore(ctail, tail_mask, V::add(V::maskload(ctail, tail_mask), acc[r][CV]));
      }
    }
  }
}

/// Row loop for one column-tile position: kRowsMax-row tiles while more than
/// one panel's worth of rows remains (the second panel exists whenever more
/// than kMR rows are live, because packing allocates a panel for every
/// started group of kMR rows), then one kMR-row tile for the remainder.
template <class V, int CV, bool TAIL, Flush FLUSH>
inline void col_tiles(const float* apanels, std::int64_t panel_stride, std::int64_t kb,
                      const float* b, std::int64_t ldb, float* c, std::int64_t ldc,
                      std::int64_t mb, typename V::Mask tail_mask, const Seed& seed) {
  std::int64_t ir = 0;
  Seed tile_seed = seed;
  if constexpr (V::kRowsMax == 2 * kMR) {
    for (; mb - ir > kMR; ir += 2 * kMR) {
      if (seed.bias_row != nullptr) tile_seed.bias_row = seed.bias_row + ir;
      tile<V, 2 * kMR, CV, TAIL, FLUSH>(apanels + ir / kMR * panel_stride, panel_stride, kb, b,
                                        ldb, c + ir * ldc, ldc, tail_mask,
                                        std::min<std::int64_t>(2 * kMR, mb - ir), tile_seed);
    }
  }
  for (; ir < mb; ir += kMR) {
    if (seed.bias_row != nullptr) tile_seed.bias_row = seed.bias_row + ir;
    tile<V, kMR, CV, TAIL, FLUSH>(apanels + ir / kMR * panel_stride, panel_stride, kb, b, ldb,
                                  c + ir * ldc, ldc, tail_mask,
                                  std::min<std::int64_t>(kMR, mb - ir), tile_seed);
  }
}

/// One k-strip of one block: sweeps the block's columns in 2-vector tiles,
/// then a (full-vector, masked-vector) combination covering the ragged tail.
template <class V, Flush FLUSH>
inline void strip(const float* apanels, std::int64_t panel_stride, std::int64_t kb,
                  const float* b, std::int64_t ldb, float* c, std::int64_t ldc, std::int64_t mb,
                  std::int64_t nb, const Seed& seed) {
  constexpr std::int64_t kFull = 2 * V::kWidth;
  const typename V::Mask none{};
  Seed col_seed = seed;
  std::int64_t j = 0;
  for (; j + kFull <= nb; j += kFull) {
    if (seed.bias_col != nullptr) col_seed.bias_col = seed.bias_col + j;
    col_tiles<V, 2, false, FLUSH>(apanels, panel_stride, kb, b + j, ldb, c + j, ldc, mb, none,
                                  col_seed);
  }
  const std::int64_t rem = nb - j;
  if (rem == 0) return;
  if (seed.bias_col != nullptr) col_seed.bias_col = seed.bias_col + j;
  const int tail = static_cast<int>(rem % V::kWidth);
  const typename V::Mask mask = V::mask_first(tail);
  if (rem >= V::kWidth) {
    if (tail == 0) {
      col_tiles<V, 1, false, FLUSH>(apanels, panel_stride, kb, b + j, ldb, c + j, ldc, mb, none,
                                    col_seed);
    } else {
      col_tiles<V, 1, true, FLUSH>(apanels, panel_stride, kb, b + j, ldb, c + j, ldc, mb, mask,
                                   col_seed);
    }
  } else {
    col_tiles<V, 0, true, FLUSH>(apanels, panel_stride, kb, b + j, ldb, c + j, ldc, mb, mask,
                                 col_seed);
  }
}

/// Strip loop shared by the packed and direct block runners: the first strip
/// seeds from the init value (single pass over C), later strips accumulate.
/// `panels_at` returns the panel base for strip k0 with its panel stride.
template <class V, class PanelsAt>
inline void run_strips(const PanelsAt& panels_at, std::int64_t k, const float* b,
                       std::int64_t ldb, float* c, std::int64_t ldc, const float* bias,
                       Init init, std::int64_t i0, std::int64_t mb, std::int64_t j0,
                       std::int64_t nb) {
  Seed seed;
  seed.init = init;
  if (init == Init::kRowBias) seed.bias_row = bias + i0;
  if (init == Init::kColBias) seed.bias_col = bias + j0;
  float* cblock = c + i0 * ldc + j0;
  for (std::int64_t k0 = 0; k0 < k; k0 += kKCVec) {
    const std::int64_t kb = std::min(kKCVec, k - k0);
    std::int64_t panel_stride = 0;
    const float* apanels = panels_at(k0, kb, panel_stride);
    if (k0 == 0) {
      strip<V, Flush::kSeed>(apanels, panel_stride, kb, b + j0, ldb, cblock, ldc, mb, nb, seed);
    } else {
      strip<V, Flush::kAccumulate>(apanels, panel_stride, kb, b + k0 * ldb + j0, ldb, cblock,
                                   ldc, mb, nb, seed);
    }
  }
}

/// Block runner over pre-packed A (pack_a panels spanning the whole matrix).
template <class V>
void run_block_packed(const float* a, std::int64_t k, const float* b, std::int64_t ldb, float* c,
                      std::int64_t ldc, const float* bias, Init init, std::int64_t i0,
                      std::int64_t mb, std::int64_t j0, std::int64_t nb) {
  const float* base = a + i0 / kMR * (kMR * k);
  run_strips<V>(
      [&](std::int64_t k0, std::int64_t, std::int64_t& panel_stride) {
        panel_stride = kMR * k;
        return base + k0 * kMR;
      },
      k, b, ldb, c, ldc, bias, init, i0, mb, j0, nb);
}

/// Block runner over row-major A: packs each k-strip of the block into the
/// per-lane buffer (pack_a — a pure, exact relayout) and runs the same strip
/// kernel, so direct and packed forms are bit-identical per tier.
template <class V>
void run_block_direct(const float* a, std::int64_t lda, std::int64_t k, const float* b,
                      std::int64_t ldb, float* c, std::int64_t ldc, const float* bias, Init init,
                      std::int64_t i0, std::int64_t mb, std::int64_t j0, std::int64_t nb) {
  float* lane = detail::lane_pack_buffer();
  run_strips<V>(
      [&](std::int64_t k0, std::int64_t kb, std::int64_t& panel_stride) {
        pack_a(a + i0 * lda + k0, lda, 1, mb, kb, lane);
        panel_stride = kMR * kb;
        return static_cast<const float*>(lane);
      },
      k, b, ldb, c, ldc, bias, init, i0, mb, j0, nb);
}

// ---- direct stride-1 convolution (KernelOps::conv_direct_rows) ------------
//
// One call covers a block of output rows of up to kMR output channels.  Each
// row is cut into chunks of NV ≤ V::kDirectVecs vectors whose MR×NV
// accumulators stay in registers for the whole tap × ci loop and touch the
// output once.  Each (tap, ci) step is one shifted, masked load of the input
// row per vector and one broadcast-weight FMA per accumulator; V::window
// masks keep every tap to its valid column window, so padding costs no branch
// and no buffer.  A tap's masks depend only on its column s, so a chunk
// builds them once for every row of the block.  The chain per output element
// is the shifted GEMM's (conv.cpp): the bias, taps (r,s) ascending, ci
// ascending, ci split into kKCVec strips whose partial sums are added the
// way a later-strip GEMM tile adds them — so the kernel equals per-tap
// gemm_packed calls bitwise on the same tier.

/// Widest kernel whose per-column tap masks a chunk caches; wider kernels
/// rebuild a tap's masks at every tap.
inline constexpr std::int64_t kDirectTapCols = 16;

/// The valid column window of tap column s within the chunk at j0, one mask
/// per vector.  False when the window misses the chunk.
template <class V, int NV>
inline bool tap_window(const detail::DirectConv& cv, std::int64_t s, std::int64_t j0,
                       typename V::Mask (&mask)[NV]) {
  const std::int64_t lo = std::max<std::int64_t>(0, cv.pad_w - s) - j0;
  const std::int64_t hi = std::min(cv.w_out, cv.w_in + cv.pad_w - s) - j0;
  if (lo >= hi || hi <= 0 || lo >= NV * V::kWidth) return false;
#pragma GCC unroll 4
  for (int v = 0; v < NV; ++v) mask[v] = V::window(lo - v * V::kWidth, hi - v * V::kWidth);
  return true;
}

/// The MR×NV accumulators of one chunk, for ci in [k0, k1) of one tap.
/// `xtap` is the tap's shifted input row (channel 0) at the chunk's first
/// column and `wtap` the tap's weight for (co0, ci = 0).
template <class V, int MR, int NV>
inline void direct_chain(typename V::Reg (&acc)[MR][NV], const typename V::Mask (&mask)[NV],
                         const float* xtap, std::int64_t in_plane, const float* wtap,
                         std::int64_t co_stride, std::int64_t taps, std::int64_t k0,
                         std::int64_t k1) {
  for (std::int64_t ci = k0; ci < k1; ++ci) {
    const float* xc = xtap + ci * in_plane;
    typename V::Reg xv[NV];
#pragma GCC unroll 4
    for (int v = 0; v < NV; ++v) xv[v] = V::maskload(xc + v * V::kWidth, mask[v]);
#pragma GCC unroll 4
    for (int m = 0; m < MR; ++m) {
      const typename V::Reg wv = V::set1(wtap[m * co_stride + ci * taps]);
#pragma GCC unroll 4
      for (int v = 0; v < NV; ++v) acc[m][v] = V::mask_fma(wv, xv[v], acc[m][v], mask[v]);
    }
  }
}

/// Columns [j0, j0 + NV·kWidth) ∩ [0, w_out) of output rows [oh0, oh1) for
/// output channels [co0, co0 + MR) of image n.
template <class V, int MR, int NV>
inline void direct_chunk(const detail::DirectConv& cv, std::int64_t n, std::int64_t co0,
                         std::int64_t oh0, std::int64_t oh1, std::int64_t j0) {
  constexpr std::int64_t kW = V::kWidth;
  using Masks = typename V::Mask[NV];
  const std::int64_t taps = cv.kh * cv.kw;
  const std::int64_t co_stride = cv.c_in * taps;
  const std::int64_t in_plane = cv.h_in * cv.w_in;
  const std::int64_t out_plane = cv.h_out * cv.w_out;
  const float* ximg = cv.x + n * cv.c_in * in_plane;
  const float* wgroup = cv.w + co0 * co_stride;
  float* oblock = cv.out + (n * cv.c_out + co0) * out_plane + j0;
  const std::int64_t live_cols = cv.w_out - j0;

  Masks table[kDirectTapCols];
  bool tap_live[kDirectTapCols];
  const bool cached = cv.kw <= kDirectTapCols;
  if (cached) {
    for (std::int64_t s = 0; s < cv.kw; ++s) tap_live[s] = tap_window<V, NV>(cv, s, j0, table[s]);
  }
  for (std::int64_t oh = oh0; oh < oh1; ++oh) {
    typename V::Reg acc[MR][NV];
#pragma GCC unroll 4
    for (int m = 0; m < MR; ++m) {
      const typename V::Reg seed = V::set1(cv.bias[co0 + m]);
#pragma GCC unroll 4
      for (int v = 0; v < NV; ++v) acc[m][v] = seed;
    }
    for (std::int64_t r = 0; r < cv.kh; ++r) {
      const std::int64_t ih = oh - cv.pad_h + r;
      if (ih < 0 || ih >= cv.h_in) continue;
      for (std::int64_t s = 0; s < cv.kw; ++s) {
        Masks own;
        if (cached ? !tap_live[s] : !tap_window<V, NV>(cv, s, j0, own)) continue;
        const Masks& mask = cached ? table[s] : own;
        const float* xtap = ximg + ih * cv.w_in + (s - cv.pad_w) + j0;
        const float* wtap = wgroup + r * cv.kw + s;
        direct_chain<V, MR, NV>(acc, mask, xtap, in_plane, wtap, co_stride, taps, 0,
                                std::min(kKCVec, cv.c_in));
        for (std::int64_t k0 = kKCVec; k0 < cv.c_in; k0 += kKCVec) {
          typename V::Reg part[MR][NV];
#pragma GCC unroll 4
          for (int m = 0; m < MR; ++m) {
#pragma GCC unroll 4
            for (int v = 0; v < NV; ++v) part[m][v] = V::zero();
          }
          direct_chain<V, MR, NV>(part, mask, xtap, in_plane, wtap, co_stride, taps, k0,
                                  std::min(k0 + kKCVec, cv.c_in));
#pragma GCC unroll 4
          for (int m = 0; m < MR; ++m) {
#pragma GCC unroll 4
            for (int v = 0; v < NV; ++v) {
              acc[m][v] = V::select(mask[v], V::add(acc[m][v], part[m][v]), acc[m][v]);
            }
          }
        }
      }
    }
#pragma GCC unroll 4
    for (int m = 0; m < MR; ++m) {
      float* crow = oblock + m * out_plane + oh * cv.w_out;
#pragma GCC unroll 4
      for (int v = 0; v < NV; ++v) {
        if (live_cols >= (v + 1) * kW) {
          V::store(crow + v * kW, acc[m][v]);
        } else {
          V::maskstore(crow + v * kW, V::window(0, live_cols - v * kW), acc[m][v]);
        }
      }
    }
  }
}

/// Picks the chunk's vector count NV ∈ [1, V::kDirectVecs] at compile time.
template <class V, int MR, int NV = V::kDirectVecs>
inline void direct_chunk_nv(int nv, const detail::DirectConv& cv, std::int64_t n,
                            std::int64_t co0, std::int64_t oh0, std::int64_t oh1,
                            std::int64_t j0) {
  if constexpr (NV > 1) {
    if (nv < NV) {
      direct_chunk_nv<V, MR, NV - 1>(nv, cv, n, co0, oh0, oh1, j0);
      return;
    }
  }
  direct_chunk<V, MR, NV>(cv, n, co0, oh0, oh1, j0);
}

template <class V, int MR>
inline void direct_rows(const detail::DirectConv& cv, std::int64_t n, std::int64_t co0,
                        std::int64_t oh0, std::int64_t oh1) {
  constexpr std::int64_t kChunk = V::kDirectVecs * V::kWidth;
  for (std::int64_t j0 = 0; j0 < cv.w_out; j0 += kChunk) {
    const std::int64_t cols = std::min(kChunk, cv.w_out - j0);
    direct_chunk_nv<V, MR>(static_cast<int>((cols + V::kWidth - 1) / V::kWidth), cv, n, co0,
                           oh0, oh1, j0);
  }
}

/// KernelOps::conv_direct_rows for vector tier V.
template <class V>
void conv_direct_rows(const detail::DirectConv& cv, std::int64_t n, std::int64_t co0,
                      std::int64_t mr, std::int64_t oh0, std::int64_t oh1) {
  static_assert(kMR == 4, "one instantiation per live row count below");
  switch (mr) {
    case 1: direct_rows<V, 1>(cv, n, co0, oh0, oh1); break;
    case 2: direct_rows<V, 2>(cv, n, co0, oh0, oh1); break;
    case 3: direct_rows<V, 3>(cv, n, co0, oh0, oh1); break;
    default: direct_rows<V, 4>(cv, n, co0, oh0, oh1); break;
  }
}

/// Peak-FMA probe: 16 independent register-resident FMA chains, long enough
/// to hide latency on any current core.  The sink store defeats DCE without
/// perturbing the loop.
template <class V>
void peak_probe(std::int64_t iters) {
  typename V::Reg x[16];
  for (int i = 0; i < 16; ++i) x[i] = V::set1(1.0f + 1e-7f * static_cast<float>(i));
  const typename V::Reg m = V::set1(0.999999f);
  const typename V::Reg a = V::set1(1e-9f);
  for (std::int64_t it = 0; it < iters; ++it) {
#pragma GCC unroll 16
    for (int i = 0; i < 16; ++i) x[i] = V::fma(x[i], m, a);
  }
  volatile float sink = V::first(V::add(x[0], x[15]));
  (void)sink;
}

inline constexpr double kProbeFlopsPerIterPerLane = 16.0 * 2.0;  // 16 FMAs, 2 flops each

}  // namespace temco::kernels::gemm::vec
