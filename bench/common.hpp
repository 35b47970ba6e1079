// Shared toolkit of the benches: one flag parser, one measurement method,
// one bitwise check and the zoo set-up every figure uses.
//
// Every bench binary accepts the same flags:
//   --width F    channel width multiplier   (default 0.25 — CPU-scale)
//   --image N    input resolution           (default 32; UNet uses 2×)
//   --batch N    batch size                 (default 4, like the paper)
//   --ratio F    decomposition ratio        (default 0.1, like §4.1)
//   --models a,b comma-separated subset     (default: all 10)
// and, where the bench gives them a default (see BenchArgs), --json PATH,
// --requests N, --repeats N, --overload-ms N and --min-ms F.
// The defaults keep every bench under a couple of minutes on one core while
// preserving the paper's qualitative shapes (see DESIGN.md substitutions).
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "core/temco.hpp"
#include "decomp/pass.hpp"
#include "kernels/gemm.hpp"
#include "models/zoo.hpp"
#include "runtime/executor.hpp"
#include "runtime/planner.hpp"
#include "support/bytes.hpp"
#include "support/rng.hpp"
#include "support/timer.hpp"
#include "tensor/compare.hpp"

namespace temco::bench {

struct BenchConfig {
  double width = 0.25;
  std::int64_t image = 32;
  std::int64_t batch = 4;
  double ratio = 0.1;  ///< decomposition ratio, matching §4.1
  std::vector<std::string> models;
};

/// The flags beyond BenchConfig's.  A bench takes one of them by giving it a
/// default; to a bench that gives none, the flag is unknown.
struct BenchArgs {
  BenchConfig config;                    ///< models empty: the whole zoo
  std::optional<std::string> json;       ///< --json PATH: write the JSON document ("" = none)
  std::optional<std::size_t> requests;   ///< --requests N: closed-loop requests per run
  std::optional<std::size_t> repeats;    ///< --repeats N: measured runs per point
  std::optional<std::size_t> overload_ms;  ///< --overload-ms N: open-loop overload window
  std::optional<double> min_ms;          ///< --min-ms F: measurement window per kernel
};

inline BenchArgs parse_args(int argc, char** argv, BenchArgs args = {}) {
  BenchConfig& config = args.config;
  if (config.models.empty()) {
    for (const auto& spec : models::model_zoo()) config.models.push_back(spec.name);
  }
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto unknown = [&] {
      std::fprintf(stderr, "unknown flag %s\n", arg.c_str());
      std::exit(2);
    };
    auto next = [&]() -> std::string {
      TEMCO_CHECK(i + 1 < argc) << arg << " needs a value";
      return argv[++i];
    };
    auto count = [&](std::optional<std::size_t>& field) {
      if (!field) unknown();
      field = static_cast<std::size_t>(std::stoull(next()));
    };
    if (arg == "--width") {
      config.width = std::stod(next());
    } else if (arg == "--image") {
      config.image = std::stoll(next());
    } else if (arg == "--batch") {
      config.batch = std::stoll(next());
    } else if (arg == "--ratio") {
      config.ratio = std::stod(next());
    } else if (arg == "--models") {
      config.models.clear();
      const std::string list = next();
      std::size_t pos = 0;
      while (pos != std::string::npos) {
        const std::size_t comma = list.find(',', pos);
        config.models.push_back(list.substr(pos, comma - pos));
        pos = comma == std::string::npos ? comma : comma + 1;
      }
    } else if (arg == "--json") {
      if (!args.json) unknown();
      args.json = next();
    } else if (arg == "--requests") {
      count(args.requests);
    } else if (arg == "--repeats") {
      count(args.repeats);
    } else if (arg == "--overload-ms") {
      count(args.overload_ms);
    } else if (arg == "--min-ms") {
      if (!args.min_ms) unknown();
      args.min_ms = std::stod(next());
    } else {
      unknown();
    }
  }
  return args;
}

inline models::ModelConfig model_config(const BenchConfig& bench, const models::ModelSpec& spec) {
  models::ModelConfig config;
  config.batch = bench.batch;
  config.width = bench.width;
  // AlexNet always runs at full width: its stride-4 stem shrinks feature
  // maps 16× in one step, so at reduced widths the *input image* dominates
  // every memory ratio and the paper's shapes invert.  It is by far the
  // smallest model, so full width stays cheap.
  if (spec.family == "AlexNet") config.width = std::max(config.width, 1.0);
  // Segmentation runs at higher resolution than classification (Carvana vs
  // ImageNet in the paper); scale accordingly.
  config.image = spec.family == "UNet" ? bench.image * 2 : bench.image;
  return config;
}

/// The decomposed baseline of §4.1 (Tucker, ratio 0.1 by default).
inline ir::Graph decomposed_baseline(const ir::Graph& original, const BenchConfig& bench) {
  decomp::DecomposeOptions options;
  options.method = decomp::Method::kTucker;
  options.ratio = bench.ratio;
  return decomp::decompose(original, options).graph;
}

inline Tensor random_input(const ir::Graph& graph, std::uint64_t seed) {
  for (const auto& node : graph.nodes()) {
    if (node.kind == ir::OpKind::kInput) {
      Rng rng(seed);
      return Tensor::random_normal(node.out_shape, rng);
    }
  }
  TEMCO_FAIL() << "graph has no input";
}

inline double geomean(const std::vector<double>& values) {
  double log_sum = 0.0;
  for (const double v : values) log_sum += std::log(v);
  return values.empty() ? 0.0 : std::exp(log_sum / static_cast<double>(values.size()));
}

// ---- the measurement method -------------------------------------------------

/// Timed runs per measured point, after one warm-up run.
constexpr std::size_t kRepeats = 5;

/// Median and quartiles of a point's samples.
struct Spread {
  double median = 0.0;
  double q1 = 0.0;
  double q3 = 0.0;
};

/// Linear-interpolated percentile, p in [0, 1], of ascending `sorted`; 0 when
/// empty.
inline double percentile(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0.0;
  const double rank = p * static_cast<double>(sorted.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return sorted[lo] * (1.0 - frac) + sorted[hi] * frac;
}

inline Spread summarize(std::vector<double> samples) {
  std::sort(samples.begin(), samples.end());
  return {percentile(samples, 0.5), percentile(samples, 0.25), percentile(samples, 0.75)};
}

/// The benches' one method: `warmup` discarded calls of `sample`, then
/// `repeats` kept ones, summarized by median and quartiles.  `sample` returns
/// what it measured: seconds, or a rate for a serving run.
template <typename Sample>
Spread measure(std::size_t warmup, std::size_t repeats, Sample&& sample) {
  for (std::size_t i = 0; i < warmup; ++i) sample();
  std::vector<double> samples;
  for (std::size_t i = 0; i < std::max<std::size_t>(repeats, 1); ++i) {
    samples.push_back(sample());
  }
  return summarize(std::move(samples));
}

/// `s` times `scale` as a JSON object.
inline std::string spread_json(const Spread& s, double scale) {
  char buffer[128];
  std::snprintf(buffer, sizeof buffer, "{\"median\": %.6g, \"q1\": %.6g, \"q3\": %.6g}",
                scale * s.median, scale * s.q1, scale * s.q3);
  return buffer;
}

/// Seconds per Executor::run of `graph` on `input`: one warm-up run, then
/// kRepeats.
inline Spread time_runs(const ir::Graph& graph, const Tensor& input, bool use_arena) {
  runtime::Executor executor(graph, {.use_arena = use_arena});
  return measure(1, kRepeats, [&] {
    Timer timer;
    executor.run({input});
    return timer.elapsed_seconds();
  });
}

/// The same number of outputs, each bitwise equal (tensor/compare.hpp).
inline bool bitwise_equal(const std::vector<Tensor>& a, const std::vector<Tensor>& b) {
  return std::equal(a.begin(), a.end(), b.begin(), b.end(),
                    [](const Tensor& x, const Tensor& y) { return temco::bitwise_equal(x, y); });
}

/// Single-core ceiling of the active tier in GFLOP/s: a register-resident
/// FMA chain loop (gemm_dispatch peak_probe), calibrated to a window of at
/// least 20 ms and then timed once.  kernels_micro divides every row's
/// throughput by it for its %-of-peak column.
inline double measure_peak_gflops() {
  std::int64_t iters = 1 << 14;
  for (;;) {  // calibrate to a stable window
    Timer timer;
    kernels::gemm::peak_probe_iters(iters);
    if (timer.elapsed_ms() >= 20.0 || iters >= (std::int64_t{1} << 34)) break;
    iters *= 4;
  }
  Timer timer;
  kernels::gemm::peak_probe_iters(iters);
  return kernels::gemm::peak_probe_flops_per_iter() * static_cast<double>(iters) /
         (timer.elapsed_seconds() * 1e9);
}

/// The host a JSON document was measured on, as a JSON object: core count,
/// kernel ISA tier and that tier's FMA-probe peak.
inline std::string host_json() {
  char peak[32];
  std::snprintf(peak, sizeof peak, "%.2f", measure_peak_gflops());
  return "{\"threads\": " + std::to_string(std::thread::hardware_concurrency()) +
         ", \"isa\": \"" + kernels::gemm::active_isa_name() +
         "\", \"fma_peak_gflops\": " + peak + "}";
}

}  // namespace temco::bench
