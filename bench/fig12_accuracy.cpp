// Figure 12: accuracy of the 10 models' inference.
//
// Substitution (see DESIGN.md): without trained weights / ImageNet, the
// claim under test is that TeMCO's rewrites do not change the decomposed
// model's predictions.  We therefore measure, on synthetic batches:
//   * top-5 agreement of Decomposed vs Original (how much the decomposition
//     itself perturbs predictions — informational, like the paper's
//     Original vs Decomposed bars), and
//   * top-5 agreement of TeMCO vs Decomposed — the paper's claim is that
//     this is exactly 100%.
// For UNet, dice overlap of the thresholded masks replaces top-5.
#include <algorithm>

#include "bench/common.hpp"

using namespace temco;

namespace {

/// Fraction of samples whose decomposed top-1 class is inside the reference
/// model's top-5 set (the usual top-5 agreement metric).
double top5_agreement(const Tensor& reference, const Tensor& candidate) {
  const std::int64_t n = reference.shape()[0];
  const std::int64_t classes = reference.shape()[1];
  std::int64_t hits = 0;
  for (std::int64_t i = 0; i < n; ++i) {
    std::vector<std::int64_t> order(static_cast<std::size_t>(classes));
    for (std::int64_t c = 0; c < classes; ++c) order[static_cast<std::size_t>(c)] = c;
    std::partial_sort(order.begin(), order.begin() + std::min<std::int64_t>(5, classes),
                      order.end(), [&](std::int64_t a, std::int64_t b) {
                        return reference.at(i, a) > reference.at(i, b);
                      });
    std::int64_t cand_top1 = 0;
    for (std::int64_t c = 1; c < classes; ++c) {
      if (candidate.at(i, c) > candidate.at(i, cand_top1)) cand_top1 = c;
    }
    const auto top5_end = order.begin() + std::min<std::int64_t>(5, classes);
    if (std::find(order.begin(), top5_end, cand_top1) != top5_end) ++hits;
  }
  return static_cast<double>(hits) / static_cast<double>(n);
}

/// Dice coefficient between masks obtained by thresholding logits at 0.
double dice(const Tensor& a, const Tensor& b) {
  std::int64_t inter = 0;
  std::int64_t total = 0;
  for (std::int64_t i = 0; i < a.numel(); ++i) {
    const bool pa = a[i] > 0.0f;
    const bool pb = b[i] > 0.0f;
    inter += (pa && pb) ? 1 : 0;
    total += (pa ? 1 : 0) + (pb ? 1 : 0);
  }
  return total == 0 ? 1.0 : 2.0 * static_cast<double>(inter) / static_cast<double>(total);
}

}  // namespace

int main(int argc, char** argv) {
  auto bench = temco::bench::parse_args(argc, argv).config;
  std::printf("=== Figure 12: accuracy preservation ===\n");
  std::printf("metric: top-5 agreement (classification) / dice overlap (UNet)\n\n");
  std::printf("%-14s %22s %22s %16s\n", "model", "decomposed vs orig", "temco vs orig",
              "temco vs decomposed");

  bool all_preserved = true;
  for (const auto& name : bench.models) {
    const auto& spec = models::find_model(name);
    const auto original = spec.build(temco::bench::model_config(bench, spec));
    const auto decomposed = temco::bench::decomposed_baseline(original, bench);
    const auto optimized = core::optimize(decomposed, {});

    double dec_vs_orig = 0.0;
    double opt_vs_orig = 0.0;
    double opt_vs_dec = 0.0;
    const int trials = 4;
    for (int t = 0; t < trials; ++t) {
      const Tensor input = temco::bench::random_input(original, 1000 + static_cast<std::uint64_t>(t));
      const auto out_orig = runtime::execute(original, {input}).outputs[0];
      const auto out_dec = runtime::execute(decomposed, {input}).outputs[0];
      const auto out_opt = runtime::execute(optimized, {input}).outputs[0];
      if (spec.family == "UNet") {
        dec_vs_orig += dice(out_orig, out_dec);
        opt_vs_orig += dice(out_orig, out_opt);
        opt_vs_dec += dice(out_dec, out_opt);
      } else {
        dec_vs_orig += top5_agreement(out_orig, out_dec);
        opt_vs_orig += top5_agreement(out_orig, out_opt);
        opt_vs_dec += top5_agreement(out_dec, out_opt);
      }
    }
    dec_vs_orig /= trials;
    opt_vs_orig /= trials;
    opt_vs_dec /= trials;
    if (opt_vs_dec < 0.999) all_preserved = false;
    std::printf("%-14s %21.1f%% %21.1f%% %15.1f%%\n", name.c_str(), 100.0 * dec_vs_orig,
                100.0 * opt_vs_orig, 100.0 * opt_vs_dec);
  }
  std::printf("\nTeMCO vs Decomposed agreement is the paper's claim (must be 100%%): %s\n",
              all_preserved ? "PRESERVED" : "VIOLATED");
  return all_preserved ? 0 : 1;
}
