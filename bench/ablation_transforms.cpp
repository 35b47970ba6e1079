// Ablation of the §3.3 design choices on the skip-heavy models:
//   * split-only (Fig. 9c)  vs  merged-lconv preferred (Fig. 9a)
//   * each TeMCO pass enabled in isolation
// Reports planned peak internal memory, weight bytes (merging pays in
// zero-padded block-diagonal weights), number of fused kernels, and node
// count (a proxy for kernel-launch overhead, the paper's stated motivation
// for merging).  Under each variant's row, OptimizeStats::to_string() says
// which rewrites fired and how often.
#include "bench/common.hpp"

using namespace temco;

namespace {

struct Variant {
  const char* label;
  core::TemcoOptions options;
};

void report(const char* model_name, const ir::Graph& decomposed, const Variant& v) {
  core::OptimizeStats stats;
  const auto optimized = core::optimize(decomposed, v.options, &stats);
  const auto plan = runtime::plan_memory(optimized);
  std::printf("%-14s %-22s %12s %12s %6d %6zu\n", model_name, v.label,
              format_bytes(static_cast<std::uint64_t>(plan.peak_with_scratch)).c_str(),
              format_bytes(static_cast<std::uint64_t>(optimized.total_weight_bytes())).c_str(),
              stats.fused_kernels, optimized.size());
  std::printf("%-14s   %s\n", "", stats.to_string().c_str());
}

}  // namespace

int main(int argc, char** argv) {
  const auto bench = temco::bench::parse_args(argc, argv).config;
  std::printf("=== Ablation: §3.3 layer transformations & pass combinations ===\n\n");
  std::printf("%-14s %-22s %12s %12s %6s %6s\n", "model", "variant", "peak_mem", "weights",
              "fused", "nodes");

  std::vector<Variant> variants;
  {
    Variant v{"skip-opt only", {}};
    v.options.enable_fusion = false;
    v.options.enable_transforms = false;
    variants.push_back(v);
  }
  {
    Variant v{"fusion only", {}};
    v.options.enable_skip_opt = false;
    v.options.enable_transforms = false;
    variants.push_back(v);
  }
  {
    Variant v{"full, split concats", {}};
    v.options.prefer_merged_lconv = false;
    variants.push_back(v);
  }
  {
    Variant v{"full, merged lconv", {}};
    v.options.prefer_merged_lconv = true;
    variants.push_back(v);
  }

  for (const char* name : {"unet", "unet_half", "densenet121", "resnet18"}) {
    const auto& spec = models::find_model(name);
    const auto original = spec.build(temco::bench::model_config(bench, spec));
    const auto decomposed = temco::bench::decomposed_baseline(original, bench);
    const auto base_plan = runtime::plan_memory(decomposed);
    std::printf("%-14s %-22s %12s %12s %6s %6zu\n", name, "decomposed baseline",
                format_bytes(static_cast<std::uint64_t>(base_plan.peak_internal_bytes)).c_str(),
                format_bytes(static_cast<std::uint64_t>(decomposed.total_weight_bytes())).c_str(),
                "-", decomposed.size());
    for (const auto& v : variants) report(name, decomposed, v);
    std::printf("\n");
  }
  return 0;
}
