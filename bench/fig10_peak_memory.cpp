// Figure 10: peak memory usage (weights + internal tensors) of the 10
// models' inferences, batch 4.
//
// Variants, exactly as §4.1 describes:
//   Original        — the dense model
//   Decomposed      — Tucker ratio 0.1 baseline
//   Fusion          — TeMCO fusion only        (reported for AlexNet/VGG)
//   Skip-Opt        — skip connection opt only (models with skips)
//   Skip-Opt+Fusion — full TeMCO               (models with skips)
// Prints one row per (model, variant) plus the geomean internal-tensor
// reduction of the best TeMCO variant vs the Original — the paper's 75.7%.
// Under each model, the slab the arena packer (runtime/arena.cpp) needs for
// the fully optimized graph, against that graph's analytic peak with
// scratch — the floor any packing must stay above (tests bound the ratio at
// 1.25).
#include <cmath>

#include "bench/common.hpp"
#include "runtime/arena.hpp"

using namespace temco;

namespace {

struct Row {
  std::string variant;
  std::int64_t weights;
  std::int64_t internal;
};

std::int64_t internal_peak(const ir::Graph& g) {
  return runtime::plan_memory(g).peak_with_scratch;
}

}  // namespace

int main(int argc, char** argv) {
  const auto bench = temco::bench::parse_args(argc, argv).config;
  std::printf("=== Figure 10: peak memory usage, batch %lld ===\n",
              static_cast<long long>(bench.batch));
  std::printf("(width %.3g, image %lld, Tucker ratio %.2g)\n\n", bench.width,
              static_cast<long long>(bench.image), bench.ratio);
  std::printf("%-14s %-18s %14s %14s %14s\n", "model", "variant", "weights", "internal",
              "internal vs orig");

  std::vector<double> best_reductions;
  std::vector<double> packing_ratios;
  for (const auto& name : bench.models) {
    const auto& spec = models::find_model(name);
    const auto original = spec.build(temco::bench::model_config(bench, spec));
    const auto decomposed = temco::bench::decomposed_baseline(original, bench);

    std::vector<Row> rows;
    rows.push_back({"Original", original.total_weight_bytes(), internal_peak(original)});
    rows.push_back({"Decomposed", decomposed.total_weight_bytes(), internal_peak(decomposed)});

    core::TemcoOptions fusion_only;
    fusion_only.enable_skip_opt = false;
    fusion_only.enable_transforms = false;
    const auto fused = core::optimize(decomposed, fusion_only);
    rows.push_back({"Fusion", fused.total_weight_bytes(), internal_peak(fused)});

    const auto full = core::optimize(decomposed, {});
    if (spec.has_skip_connections) {
      core::TemcoOptions skip_only;
      skip_only.enable_fusion = false;
      skip_only.enable_transforms = false;
      const auto skip = core::optimize(decomposed, skip_only);
      rows.push_back({"Skip-Opt", skip.total_weight_bytes(), internal_peak(skip)});
      rows.push_back({"Skip-Opt+Fusion", full.total_weight_bytes(), internal_peak(full)});
    }

    const double original_internal = static_cast<double>(rows[0].internal);
    double best = original_internal;
    for (const auto& row : rows) {
      const double pct = 100.0 * (1.0 - static_cast<double>(row.internal) / original_internal);
      std::printf("%-14s %-18s %14s %14s %+13.1f%%\n", name.c_str(), row.variant.c_str(),
                  format_bytes(static_cast<std::uint64_t>(row.weights)).c_str(),
                  format_bytes(static_cast<std::uint64_t>(row.internal)).c_str(), -pct);
      if (row.variant != "Original" && row.variant != "Decomposed") {
        best = std::min(best, static_cast<double>(row.internal));
      }
    }
    best_reductions.push_back(best / original_internal);

    const std::int64_t slab = runtime::plan_arena(full).arena_bytes;
    const double ratio = static_cast<double>(slab) / static_cast<double>(internal_peak(full));
    packing_ratios.push_back(ratio);
    std::printf("%-14s %-18s %14s %14s %12.2fx peak\n\n", name.c_str(), "arena slab", "",
                format_bytes(static_cast<std::uint64_t>(slab)).c_str(), ratio);
  }

  const double geo = temco::bench::geomean(best_reductions);
  std::printf("geomean internal-tensor memory of best TeMCO variant vs Original: %.1f%% "
              "(paper reports a 75.7%% reduction, i.e. 24.3%% remaining)\n",
              100.0 * geo);
  std::printf("geomean arena slab of the optimized graph vs its peak with scratch: %.3fx\n",
              temco::bench::geomean(packing_ratios));
  return 0;
}
