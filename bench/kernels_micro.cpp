// Kernel micro-benchmarks: GEMM engine vs the retained naive baselines.
//
// Measures the paths the GEMM micro-kernel engine took over — 1×1 convs on
// the zoo's decomposed shapes, dense stride-1/strided convs, the zoo's Tucker
// cores on the direct conv kernel, matmul, and the fused sandwich — each
// against the pre-GEMM kernel preserved in kernels/naive.{hpp,cpp}.  Engine
// variants are timed in *serial* mode so the speedup column is a
// single-thread like-for-like comparison (the engine's parallel block grid is
// bit-identical and comes on top).
//
// The engine rows run whatever kernel tier runtime dispatch selects
// (TEMCO_KERNEL_ISA overrides; the active tier is printed and recorded per
// row).  A guard refuses to publish numbers from a silent mis-dispatch: when
// the hardware supports a vector tier but dispatch resolved to scalar without
// TEMCO_KERNEL_ISA explicitly asking for it, the run exits 1.  The %-of-peak
// column divides each row's throughput by a register-resident FMA probe of
// the same tier (gemm::peak_probe_iters) — the per-core ceiling the machine
// can reach with this instruction mix.
//
// Emits a human table on stdout and a machine-readable JSON array (default
// BENCH_kernels.json, override with --json PATH) with one row per
// (kernel, shape, variant):
//   {"kernel", "shape", "variant", "isa", "ns_per_iter", "gflops",
//    "speedup_vs_naive", "pct_peak"}
//
// Flags (bench/common.hpp's parser; the model flags do not apply here):
//   --min-ms F   measurement window per variant (default 80)
//   --json PATH  output path (default BENCH_kernels.json)
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench/common.hpp"
#include "kernels/gemm.hpp"
#include "kernels/kernels.hpp"
#include "kernels/naive.hpp"
#include "linalg/matmul.hpp"
#include "parallel/parallel_for.hpp"
#include "parallel/thread_pool.hpp"
#include "support/cpu.hpp"
#include "support/rng.hpp"
#include "support/timer.hpp"
#include "tensor/tensor.hpp"

namespace {

using temco::Rng;
using temco::Shape;
using temco::Tensor;
using temco::Timer;
namespace kernels = temco::kernels;
namespace gemm = temco::kernels::gemm;

double g_min_ms = 80.0;
double g_peak_gflops = 0.0;  ///< active tier's register-resident FMA ceiling

struct Row {
  std::string kernel;
  std::string shape;
  std::string variant;
  double ns_per_iter = 0.0;
  double gflops = 0.0;
  double speedup = 1.0;   ///< vs the naive variant of the same (kernel, shape)
  double pct_peak = 0.0;  ///< gflops as % of the tier's peak-probe ceiling
};

std::vector<Row> g_rows;

/// Refuses to publish numbers from a silent mis-dispatch: hardware with a
/// vector tier must actually run one unless TEMCO_KERNEL_ISA=scalar asked for
/// the oracle on purpose.
void check_dispatch_or_die() {
  using temco::support::Isa;
  const bool vector_capable =
      temco::support::isa_runnable(Isa::kAvx2) || temco::support::isa_runnable(Isa::kAvx512);
  const char* env = std::getenv("TEMCO_KERNEL_ISA");
  const bool scalar_requested = env != nullptr && std::string(env) == "scalar";
  if (vector_capable && !scalar_requested && gemm::active_isa() == Isa::kScalar) {
    std::fprintf(stderr,
                 "kernels_micro: this machine supports a vector tier but dispatch "
                 "resolved to scalar (TEMCO_KERNEL_ISA=%s); refusing to publish "
                 "misleading numbers\n",
                 env != nullptr ? env : "<unset>");
    std::exit(1);
  }
}

/// Times fn with the benches' method (bench/common.hpp): one warm-up window,
/// then the median of kRepeats windows that together last g_min_ms, each
/// sample the mean ns per call over its window.  Records a table/JSON row and
/// returns ns/iter so callers can compute speedups.
template <typename Fn>
double bench_case(const std::string& kernel, const std::string& shape, const std::string& variant,
                  double flops_per_iter, double naive_ns, Fn&& fn) {
  const double window_ms = g_min_ms / static_cast<double>(temco::bench::kRepeats);
  const double ns = temco::bench::measure(1, temco::bench::kRepeats, [&] {
                      Timer timer;
                      std::int64_t iters = 0;
                      do {
                        fn();
                        ++iters;
                      } while (timer.elapsed_ms() < window_ms);
                      return timer.elapsed_seconds() * 1e9 / static_cast<double>(iters);
                    }).median;
  Row row;
  row.kernel = kernel;
  row.shape = shape;
  row.variant = variant;
  row.ns_per_iter = ns;
  row.gflops = flops_per_iter / ns;  // flops/ns == Gflop/s
  row.speedup = naive_ns > 0.0 ? naive_ns / ns : 1.0;
  row.pct_peak = g_peak_gflops > 0.0 ? 100.0 * row.gflops / g_peak_gflops : 0.0;
  g_rows.push_back(row);
  std::printf("%-10s %-22s %-12s %12.0f ns  %7.2f GFLOP/s  %5.2fx  %5.1f%%\n", kernel.c_str(),
              shape.c_str(), variant.c_str(), ns, row.gflops, row.speedup, row.pct_peak);
  return ns;
}

Tensor random(const Shape& shape, std::uint64_t seed) {
  Rng rng(seed);
  return Tensor::random_normal(shape, rng);
}

/// The engine's 1×1 conv with packing hoisted out and the block grid pinned
/// to serial — the steady-state single-thread inner loop, nothing else.
void conv1x1_zoo() {
  struct Case { std::int64_t c_in, c_out, hw_side, batch; };
  const Case cases[] = {
      {8, 64, 32, 1},  {64, 8, 32, 1},  {16, 128, 32, 1}, {128, 16, 32, 1},
      {32, 32, 32, 1}, {64, 64, 32, 1}, {64, 64, 16, 1},  {64, 64, 32, 4},
  };
  std::vector<double> speedups;
  for (const Case& c : cases) {
    const std::int64_t hw = c.hw_side * c.hw_side;
    const Tensor x = random(Shape{c.batch, c.c_in, c.hw_side, c.hw_side}, 1);
    const Tensor w = random(Shape{c.c_out, c.c_in, 1, 1}, 2);
    const Tensor b = random(Shape{c.c_out}, 3);
    Tensor out = Tensor::zeros(Shape{c.batch, c.c_out, c.hw_side, c.hw_side});
    const double flops = 2.0 * static_cast<double>(c.batch * c.c_out * c.c_in * hw);
    char shape[64];
    std::snprintf(shape, sizeof(shape), "n%lldc%lld>%lld@%lldx%lld",
                  static_cast<long long>(c.batch), static_cast<long long>(c.c_in),
                  static_cast<long long>(c.c_out), static_cast<long long>(c.hw_side),
                  static_cast<long long>(c.hw_side));

    const double naive_ns = bench_case("conv1x1", shape, "naive", flops, 0.0, [&] {
      kernels::naive::conv1x1(x, w, b, out);
    });

    std::vector<float> packed(static_cast<std::size_t>(gemm::packed_a_floats(c.c_out, c.c_in)));
    gemm::pack_a(w.data(), c.c_in, 1, c.c_out, c.c_in, packed.data());
    gemm::GemmOptions options;
    options.bias = b.data();
    options.init = gemm::Init::kRowBias;
    options.parallel = false;
    options.batch = c.batch;
    options.b_batch_stride = c.c_in * hw;
    options.c_batch_stride = c.c_out * hw;
    const double gemm_ns = bench_case("conv1x1", shape, "gemm-1t", flops, naive_ns, [&] {
      gemm::gemm_packed(packed.data(), c.c_out, c.c_in, x.data(), hw, hw, out.data(), hw, options);
    });
    speedups.push_back(naive_ns / gemm_ns);

    // The production entry point: pool-parallel grid, packs on the fly.
    bench_case("conv1x1", shape, "conv2d-api", flops, naive_ns, [&] {
      kernels::conv2d(x, w, b, 1, 1, 0, 0, out);
    });
  }
  double log_sum = 0.0;
  for (const double s : speedups) log_sum += std::log(s);
  std::printf("conv1x1 gemm-1t geomean speedup: %.2fx\n\n",
              std::exp(log_sum / static_cast<double>(speedups.size())));
}

/// The conv2d path a multi-tap conv takes: every strided conv runs the
/// im2col GEMM; at stride 1 the shifted GEMM packs the weight and the direct
/// kernel reads it in place.
const char* conv_variant(std::int64_t packed_floats, std::int64_t stride) {
  if (stride != 1) return "im2col-gemm";
  return packed_floats == 0 ? "direct" : "shifted-gemm";
}

void conv_dense() {
  struct Case { std::int64_t c_in, c_out, side, k, stride, pad; };
  const Case cases[] = {
      {32, 32, 32, 3, 1, 1},
      {16, 64, 32, 3, 1, 1},
      {32, 32, 32, 3, 2, 1},   // strided 3x3: implicit-GEMM (im2col) path
      {64, 64, 16, 3, 2, 1},   // deep strided 3x3, small plane
      {16, 32, 32, 5, 2, 2},   // 5x5 stride-2: wide im2col k-dimension
      {32, 64, 32, 7, 2, 3},   // 7x7 stride-2: the classic input stem
  };
  for (const Case& c : cases) {
    const std::int64_t h_out = (c.side + 2 * c.pad - c.k) / c.stride + 1;
    const Tensor x = random(Shape{1, c.c_in, c.side, c.side}, 4);
    const Tensor w = random(Shape{c.c_out, c.c_in, c.k, c.k}, 5);
    const Tensor b = random(Shape{c.c_out}, 6);
    Tensor out = Tensor::zeros(Shape{1, c.c_out, h_out, h_out});
    const double flops =
        2.0 * static_cast<double>(c.c_out * c.c_in * c.k * c.k * h_out * h_out);
    char shape[64];
    std::snprintf(shape, sizeof(shape), "c%lld>%lld@%lldx%lld k%llds%lld",
                  static_cast<long long>(c.c_in), static_cast<long long>(c.c_out),
                  static_cast<long long>(c.side), static_cast<long long>(c.side),
                  static_cast<long long>(c.k), static_cast<long long>(c.stride));
    const double naive_ns = bench_case("conv2d", shape, "naive", flops, 0.0, [&] {
      kernels::naive::conv2d(x, w, b, c.stride, c.stride, c.pad, c.pad, out);
    });
    std::vector<float> packed;
    const std::int64_t pf = kernels::conv2d_prepack_floats(w, c.stride, c.stride, h_out);
    if (pf > 0) {
      packed.resize(static_cast<std::size_t>(pf));
      kernels::conv2d_prepack(w, c.stride, c.stride, h_out, packed.data());
    }
    bench_case("conv2d", shape, conv_variant(pf, c.stride), flops, naive_ns, [&] {
      kernels::conv2d(x, w, b, c.stride, c.stride, c.pad, c.pad, out,
                      packed.empty() ? nullptr : packed.data());
    });
  }
  std::printf("\n");
}

/// The Tucker cores of the fig11 models (resnet18, densenet121, unet_half at
/// width 0.25, image 32, UNet at 64, AlexNet at full width), at batch 4 on a
/// one-thread intra-op pool — the width the fig11 benchmark runs.  The
/// stride-1 3×3 rows take the direct kernel, all but the two 8×8 ones; the
/// narrow strided rows (w_out < kNR) take the im2col GEMM's skinny tile.
void conv_census() {
  temco::ThreadPool serial(1);
  temco::ScopedIntraOpPool scope(&serial);
  struct Case { std::int64_t c_in, c_out, side, k = 3, stride = 1, pad = 1; };
  const Case cases[] = {
      {1, 1, 64}, {2, 1, 64}, {1, 2, 32}, {2, 2, 32}, {3, 2, 32}, {2, 3, 16},  // unet_half
      {3, 3, 16}, {6, 3, 16}, {3, 6, 8},  {6, 6, 8},                           // unet_half
      {2, 2, 7},  {3, 3, 4},  {6, 6, 2},  {13, 13, 1},                          // resnet18
      {3, 1, 7},  {3, 1, 3},  {3, 1, 1},                                        // densenet121
      {2, 3, 7, 3, 2, 1}, {3, 6, 4, 3, 2, 1}, {6, 13, 2, 3, 2, 1},            // resnet18
      {1, 6, 32, 11, 4, 2},                                                     // alexnet
  };
  const std::int64_t batch = 4;
  for (const Case& c : cases) {
    const std::int64_t side_out = (c.side + 2 * c.pad - c.k) / c.stride + 1;
    const Tensor x = random(Shape{batch, c.c_in, c.side, c.side}, 14);
    const Tensor w = random(Shape{c.c_out, c.c_in, c.k, c.k}, 15);
    const Tensor b = random(Shape{c.c_out}, 16);
    Tensor out = Tensor::zeros(Shape{batch, c.c_out, side_out, side_out});
    const double flops = 2.0 * static_cast<double>(batch * c.c_out * c.c_in * c.k * c.k *
                                                   side_out * side_out);
    char shape[64];
    const int len = std::snprintf(shape, sizeof(shape), "b%lld c%lld>%lld@%lldx%lld",
                                  static_cast<long long>(batch), static_cast<long long>(c.c_in),
                                  static_cast<long long>(c.c_out), static_cast<long long>(c.side),
                                  static_cast<long long>(c.side));
    if (c.stride != 1) {
      std::snprintf(shape + len, sizeof(shape) - static_cast<std::size_t>(len), " k%llds%lld",
                    static_cast<long long>(c.k), static_cast<long long>(c.stride));
    }
    const double naive_ns = bench_case("core", shape, "naive", flops, 0.0, [&] {
      kernels::naive::conv2d(x, w, b, c.stride, c.stride, c.pad, c.pad, out);
    });
    const std::int64_t pf = kernels::conv2d_prepack_floats(w, c.stride, c.stride, side_out);
    std::vector<float> packed(static_cast<std::size_t>(pf));
    kernels::conv2d_prepack(w, c.stride, c.stride, side_out, packed.data());
    bench_case("core", shape, conv_variant(pf, c.stride), flops, naive_ns, [&] {
      kernels::conv2d(x, w, b, c.stride, c.stride, c.pad, c.pad, out,
                      pf > 0 ? packed.data() : nullptr);
    });
  }
  std::printf("\n");
}

void matmul_cases() {
  struct Case { std::int64_t m, k, n; };
  const Case cases[] = {{128, 128, 128}, {64, 256, 64}, {33, 100, 65}};
  for (const Case& c : cases) {
    const Tensor a = random(Shape{c.m, c.k}, 7);
    const Tensor b = random(Shape{c.k, c.n}, 8);
    const double flops = 2.0 * static_cast<double>(c.m * c.k * c.n);
    char shape[64];
    std::snprintf(shape, sizeof(shape), "%lldx%lldx%lld", static_cast<long long>(c.m),
                  static_cast<long long>(c.k), static_cast<long long>(c.n));
    const double naive_ns = bench_case("matmul", shape, "naive", flops, 0.0, [&] {
      Tensor cmat = kernels::naive::matmul(a, b);
      (void)cmat;
    });
    bench_case("matmul", shape, "gemm", flops, naive_ns, [&] {
      Tensor cmat = temco::linalg::matmul(a, b);
      (void)cmat;
    });
  }
  std::printf("\n");
}

struct SandwichCase {
  std::int64_t n, c2, cp, c3, side;
  std::int64_t pool_k = 0;  ///< 0: no pool; else a max pool, stride 2
};

/// The 8>64>8 row at 32×32, then DenseNet-121's restore nodes (width 0.25,
/// image 32, batch 4): 1×1, 3×3 and 7×7 dense-block rows, all narrower than
/// one register tile, and the max-pooled 16×16 → 7×7 stem node.  Both
/// variants run on a one-thread intra-op pool, the width the fig11 benchmark
/// uses, so a fork does not swamp the few microseconds a narrow node takes.
void fused_sandwich() {
  temco::ThreadPool serial(1);
  temco::ScopedIntraOpPool scope(&serial);
  const SandwichCase cases[] = {
      {1, 8, 64, 8, 32},
      {4, 1, 8, 32, 1},
      {4, 1, 8, 32, 3},
      {4, 1, 8, 32, 7},
      {4, 2, 16, 32, 16, 3},
  };
  for (const SandwichCase& c : cases) {
    const bool has_pool = c.pool_k > 0;
    const std::int64_t side_out = has_pool ? (c.side - c.pool_k) / 2 + 1 : c.side;
    const Tensor x = random(Shape{c.n, c.c2, c.side, c.side}, 9);
    const Tensor w1 = random(Shape{c.cp, c.c2, 1, 1}, 10);
    const Tensor b1 = random(Shape{c.cp}, 11);
    const Tensor w2 = random(Shape{c.c3, c.cp, 1, 1}, 12);
    const Tensor b2 = random(Shape{c.c3}, 13);
    Tensor mid = Tensor::zeros(Shape{c.n, c.cp, c.side, c.side});
    Tensor act = Tensor::zeros(mid.shape());
    Tensor pooled = Tensor::zeros(Shape{c.n, c.cp, side_out, side_out});
    Tensor out = Tensor::zeros(Shape{c.n, c.c3, side_out, side_out});
    const double flops =
        2.0 * static_cast<double>(c.n * (c.side * c.side * c.cp * c.c2 +
                                         side_out * side_out * c.c3 * c.cp));
    char shape[64];
    int len = std::snprintf(shape, sizeof(shape), "%lld>%lld>%lld@%lldx%lld",
                            static_cast<long long>(c.c2), static_cast<long long>(c.cp),
                            static_cast<long long>(c.c3), static_cast<long long>(c.side),
                            static_cast<long long>(c.side));
    if (c.n > 1) {
      len += std::snprintf(shape + len, sizeof(shape) - static_cast<std::size_t>(len), "/b%lld",
                           static_cast<long long>(c.n));
    }
    if (has_pool) {
      std::snprintf(shape + len, sizeof(shape) - static_cast<std::size_t>(len), "/p%llds2",
                    static_cast<long long>(c.pool_k));
    }
    const double unfused_ns = bench_case("sandwich", shape, "unfused", flops, 0.0, [&] {
      kernels::conv2d(x, w1, b1, 1, 1, 0, 0, mid);
      kernels::relu(mid, act);
      if (has_pool) {
        kernels::pool(act, temco::ir::PoolKind::kMax, c.pool_k, c.pool_k, 2, 2, pooled);
      }
      kernels::conv2d(has_pool ? pooled : act, w2, b2, 1, 1, 0, 0, out);
    });
    std::vector<float> packed(static_cast<std::size_t>(kernels::fused_prepack_floats(w1, w2)));
    kernels::fused_prepack(w1, w2, packed.data());
    bench_case("sandwich", shape, "fused", flops, unfused_ns, [&] {
      kernels::fused_conv_act_conv(x, w1, b1, w2, b2, temco::ir::ActKind::kRelu, has_pool,
                                   temco::ir::PoolKind::kMax, c.pool_k, 2, out, nullptr, 0, 0,
                                   packed.data());
    });
  }
  std::printf("\n");
}

void write_json(const char* path) {
  std::FILE* f = std::fopen(path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s for writing\n", path);
    std::exit(1);
  }
  std::fprintf(f, "[\n");
  for (std::size_t i = 0; i < g_rows.size(); ++i) {
    const Row& r = g_rows[i];
    std::fprintf(f,
                 "  {\"kernel\": \"%s\", \"shape\": \"%s\", \"variant\": \"%s\", "
                 "\"isa\": \"%s\", \"ns_per_iter\": %.1f, \"gflops\": %.3f, "
                 "\"speedup_vs_naive\": %.3f, \"pct_peak\": %.1f}%s\n",
                 r.kernel.c_str(), r.shape.c_str(), r.variant.c_str(), gemm::active_isa_name(),
                 r.ns_per_iter, r.gflops, r.speedup, r.pct_peak,
                 i + 1 < g_rows.size() ? "," : "");
  }
  std::fprintf(f, "]\n");
  std::fclose(f);
  std::printf("wrote %zu rows to %s\n", g_rows.size(), path);
}

}  // namespace

int main(int argc, char** argv) {
  temco::bench::BenchArgs defaults;
  defaults.json = "BENCH_kernels.json";
  defaults.min_ms = g_min_ms;
  const auto args = temco::bench::parse_args(argc, argv, defaults);
  g_min_ms = *args.min_ms;
  check_dispatch_or_die();
  g_peak_gflops = temco::bench::measure_peak_gflops();
  std::printf("kernel isa: %s   machine peak (FMA probe): %.2f GFLOP/s\n\n",
              gemm::active_isa_name(), g_peak_gflops);
  std::printf("%-10s %-22s %-12s %15s  %15s  %8s  %6s\n", "kernel", "shape", "variant", "time",
              "throughput", "vs naive", "peak");
  conv1x1_zoo();
  conv_dense();
  conv_census();
  matmul_cases();
  fused_sandwich();
  write_json(args.json->c_str());
  return 0;
}
