// Figure 4: memory usage by internal tensors over the inference timeline,
// UNet and VGG-16 with batch size 4 — original vs Tucker-decomposed (and,
// beyond the paper's figure, the TeMCO-optimized curve).
//
// The paper's observation this bench reproduces:
//   * UNet: skip connections dominate the decomposed model's peak (their
//     full-width tensors stay live across the hourglass).
//   * VGG-16: the peak sits at non-decomposed activation layers, so the
//     decomposed curve peaks as high as the original.
#include "bench/common.hpp"

using namespace temco;

namespace {

void print_series(const char* label, const ir::Graph& graph) {
  const auto plan = runtime::plan_memory(graph);
  std::printf("\n--- %s: %zu steps, peak %s ---\n", label, plan.steps.size(),
              format_bytes(static_cast<std::uint64_t>(plan.peak_internal_bytes)).c_str());
  std::printf("%6s %-28s %14s %14s\n", "step", "node", "step_peak", "live_after");
  for (const auto& step : plan.steps) {
    const auto& node = graph.node(step.id);
    std::printf("%6d %-28.28s %14s %14s\n", step.id, node.name.c_str(),
                format_bytes(static_cast<std::uint64_t>(step.step_peak)).c_str(),
                format_bytes(static_cast<std::uint64_t>(step.live_after)).c_str());
  }
}

/// Bytes of long-lived tensors (live across > threshold steps) at the peak
/// step: the paper's "memory usage of skip connections" share.
double skip_share_at_peak(const ir::Graph& graph, std::int64_t threshold = 4) {
  const auto plan = runtime::plan_memory(graph);
  const auto liveness = runtime::compute_liveness(graph);
  // Find the peak step.
  std::size_t peak_step = 0;
  for (std::size_t i = 0; i < plan.steps.size(); ++i) {
    if (plan.steps[i].step_peak > plan.steps[peak_step].step_peak) peak_step = i;
  }
  const auto peak_id = static_cast<ir::ValueId>(plan.steps[peak_step].id);
  std::int64_t skip_bytes = 0;
  for (const auto& node : graph.nodes()) {
    const auto& range = liveness[static_cast<std::size_t>(node.id)];
    if (range.begin <= peak_id && range.end >= peak_id && range.distance() > threshold &&
        node.id != peak_id) {
      skip_bytes += node.out_shape.bytes();
    }
  }
  return static_cast<double>(skip_bytes) / static_cast<double>(plan.steps[peak_step].step_peak);
}

void run_model(const char* name, const temco::bench::BenchConfig& bench) {
  const auto& spec = models::find_model(name);
  const auto original = spec.build(temco::bench::model_config(bench, spec));
  const auto decomposed = temco::bench::decomposed_baseline(original, bench);
  const auto optimized = core::optimize(decomposed, {});

  std::printf("\n================ %s ================\n", name);
  print_series("original", original);
  print_series("decomposed (Tucker 0.1)", decomposed);
  print_series("TeMCO optimized", optimized);
  std::printf("\nlong-lived (skip) tensor share of the decomposed peak: %.1f%%\n",
              100.0 * skip_share_at_peak(decomposed));
}

}  // namespace

int main(int argc, char** argv) {
  auto bench = temco::bench::parse_args(argc, argv).config;
  std::printf("=== Figure 4: internal-tensor memory timeline (batch %lld) ===\n",
              static_cast<long long>(bench.batch));
  run_model("unet", bench);
  run_model("vgg16", bench);
  return 0;
}
