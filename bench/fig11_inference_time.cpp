// Figure 11: end-to-end inference time of the 10 models, batch sizes 4 and
// 32 — Decomposed baseline vs TeMCO-optimized.
//
// The paper's qualitative shape this bench reproduces: the optimized model is
// slower than the plain decomposed model (restore-layer copies + fused-kernel
// tiling), with the overhead growing with batch size — 1.08× geomean at
// batch 4 and 1.70× at batch 32 on the authors' GPU.
//
// On top of the paper's columns, the bench times the optimized graph on the
// zero-malloc arena executor, isolating allocator churn.  It times one run
// (batch 32) or three (batch 4) after one warm-up, so single readings swing
// widely; the repository benchmark (benchmark/) is the measured number.
#include "bench/common.hpp"
#include "support/timer.hpp"

using namespace temco;

namespace {

double time_graph(const ir::Graph& graph, int repeats, bool use_arena = false) {
  runtime::Executor executor(graph, {.use_arena = use_arena});
  const Tensor input = temco::bench::random_input(graph, 99);
  executor.run({input});  // warm-up
  Timer timer;
  for (int i = 0; i < repeats; ++i) executor.run({input});
  return timer.elapsed_seconds() / repeats;
}

}  // namespace

int main(int argc, char** argv) {
  auto bench = temco::bench::parse_args(argc, argv);
  std::printf("=== Figure 11: end-to-end inference time (CPU substrate) ===\n");
  std::printf("(width %.3g, image %lld, Tucker ratio %.2g)\n\n", bench.width,
              static_cast<long long>(bench.image), bench.ratio);
  std::printf("%-14s %6s %14s %14s %14s %10s %10s\n", "model", "batch", "decomposed", "temco",
              "temco+arena", "overhead", "arena");

  for (const std::int64_t batch : {std::int64_t{4}, std::int64_t{32}}) {
    std::vector<double> overheads;
    std::vector<double> arena_gains;
    for (const auto& name : bench.models) {
      auto batch_bench = bench;
      batch_bench.batch = batch;
      const auto& spec = models::find_model(name);
      const auto original = spec.build(temco::bench::model_config(batch_bench, spec));
      const auto decomposed = temco::bench::decomposed_baseline(original, batch_bench);
      const auto optimized = core::optimize(decomposed, {});

      const int repeats = batch >= 32 ? 1 : 3;
      const double t_dec = time_graph(decomposed, repeats);
      const double t_opt = time_graph(optimized, repeats);
      // Same optimized graph, zero-malloc arena execution (§2.2's static
      // planning regime): the delta isolates allocator churn.
      const double t_arena = time_graph(optimized, repeats, /*use_arena=*/true);
      const double overhead = t_opt / t_dec;
      const double arena_gain = t_opt / t_arena;
      overheads.push_back(overhead);
      arena_gains.push_back(arena_gain);
      std::printf("%-14s %6lld %12.1fms %12.1fms %12.1fms %9.2fx %9.2fx\n", name.c_str(),
                  static_cast<long long>(batch), 1e3 * t_dec, 1e3 * t_opt, 1e3 * t_arena,
                  overhead, arena_gain);
    }
    std::printf("geomean overhead at batch %lld: %.2fx (paper: %s); arena speedup %.2fx\n\n",
                static_cast<long long>(batch), temco::bench::geomean(overheads),
                batch == 4 ? "1.08x" : "1.70x", temco::bench::geomean(arena_gains));
  }
  return 0;
}
