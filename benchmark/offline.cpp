// Offline Fig. 11 workloads: decomposed vs TeMCO-optimized inference time.
//
// One closed-loop caller runs each model's TeMCO-optimized graph on an arena
// Executor (parallelism 1, intra-op width kIntraOpThreads), round-robin over
// the models until the window ends.  The decomposed graphs are the
// correctness reference here; their timing, and the optimized/decomposed
// ratio of Fig. 11, come from the traced run's kernel replay, so the window
// spends all its time on the program users run.  Batch 4 is the paper's Fig. 11 operating
// point, where per-node dispatch and TeMCO's restore copies dominate; batch
// 32 multiplies the rows per node by 8 and pushes activations out of L2, so
// GEMM and fused-kernel throughput dominate instead.
//
// Models: resnet18 (skip connections, add merges), densenet121 (TeMCO's worst
// case: 424 -> 1318 nodes, restore copies and fused kernels) and unet_half
// (concat/upsample transforms, 64x64 activations).  The others are left out
// because decomposing them costs seconds each (AlexNet 24 s, UNet 15 s) and
// set-up is repeated in every run.
#include <memory>

#include "bench.hpp"
#include "core/temco.hpp"
#include "models/zoo.hpp"
#include "runtime/executor.hpp"
#include "tensor/compare.hpp"

namespace temco::bench {

namespace {

constexpr const char* kModels[] = {"resnet18", "densenet121", "unet_half"};
constexpr int kInputsPerModel = 4;
constexpr int kWarmupRuns = 5;
constexpr int kSetups = 3;
constexpr double kTailQuantile = 0.9;
constexpr double kMaxRelativeError = 1e-3;

struct Prepared {
  std::string name;
  double decompose_s = 0.0;
  std::unique_ptr<ir::Graph> decomposed;
  std::unique_ptr<ir::Graph> optimized;
  /// Declared after the graph it references, so it is destroyed first.
  std::unique_ptr<runtime::Executor> executor;
};

struct Setup {
  std::vector<Prepared> models;
  double seconds = 0.0;
};

/// Zoo graph -> Tucker decomposition -> TeMCO -> arena executor, per model,
/// at the figure benches' defaults (width 0.25, image 32, UNet at 64,
/// Tucker ratio 0.1, zoo seed 42).
Setup set_up(std::int64_t batch, int index) {
  ScopedSpan setup_span("bench.setup", std::to_string(index));
  SteadyStopwatch stopwatch;
  BenchConfig bench;
  bench.batch = batch;
  Setup setup;
  for (const char* name : kModels) {
    Prepared p;
    p.name = name;
    const models::ModelSpec& spec = models::find_model(name);
    const ir::Graph original = [&] {
      ScopedSpan span("models.build", name);
      return spec.build(model_config(bench, spec));
    }();
    const Clock::time_point step = Clock::now();
    p.decomposed = std::make_unique<ir::Graph>([&] {
      ScopedSpan span("decomp.decompose", name);
      return decomposed_baseline(original, bench);
    }());
    p.decompose_s = seconds_since(step);
    p.optimized = std::make_unique<ir::Graph>([&] {
      ScopedSpan span("core.optimize", name);
      return core::optimize(*p.decomposed);
    }());
    {
      ScopedSpan span("runtime.executor_ctor", name);
      p.executor = std::make_unique<runtime::Executor>(
          *p.optimized, runtime::ExecutorOptions{.use_arena = true,
                                                 .intra_op_threads = kIntraOpThreads});
    }
    setup.models.push_back(std::move(p));
    stopwatch.lap();
  }
  setup.seconds = stopwatch.seconds();
  return setup;
}

struct Checked {
  std::vector<std::vector<Tensor>> inputs;               ///< [model][k]
  std::vector<std::vector<std::vector<Tensor>>> first;   ///< first optimized outputs
};

/// The timed window: round-robin over models, one run each per round, every
/// output checked bitwise outside the timed region.  After each round one
/// reference pass measures the host's slowdown, and each run of the round is
/// divided by it (see host_slowdown).  Returns those run times in ms, per
/// model.
std::vector<std::vector<double>> measure(const Setup& setup, const Checked& checked,
                                         double seconds, bool traced, Result& result) {
  std::vector<std::vector<double>> samples(setup.models.size());
  std::vector<double> round_ms(setup.models.size());
  const Clock::time_point deadline = Clock::now() + to_duration(seconds);
  for (std::uint64_t round = 0; Clock::now() < deadline; ++round) {
    const std::size_t k = round % kInputsPerModel;
    for (std::size_t m = 0; m < setup.models.size(); ++m) {
      const Prepared& p = setup.models[m];
      const Clock::time_point start = Clock::now();
      runtime::ExecutionResult run;
      {
        ScopedSpan span(traced ? "runtime.run" : nullptr,
                        traced ? p.name + "/opt/" + std::to_string(round) : "");
        run = p.executor->run({checked.inputs[m][k]});
      }
      round_ms[m] = std::chrono::duration<double, std::milli>(Clock::now() - start).count();
      ++result.attempted;
      if (!same_bytes(run.outputs, checked.first[m][k])) {
        result.fail(p.name + " output differs from its first run on input " + std::to_string(k));
      }
    }
    const double slowdown = host_slowdown();
    for (std::size_t m = 0; m < samples.size(); ++m) samples[m].push_back(round_ms[m] / slowdown);
  }
  return samples;
}

}  // namespace

void run_offline(const Options& options, std::int64_t batch, Result& result) {
  const int setups = options.trace || options.quick ? 1 : kSetups;
  std::vector<double> setup_s;
  Setup setup;
  for (int i = 0; i < setups; ++i) {
    setup = Setup{};  // release the previous set-up before timing the next
    setup = set_up(batch, i);
    setup_s.push_back(setup.seconds);
  }

  // Correctness references: the decomposed graph on the reference
  // (non-arena) executor.  The first optimized run must be within
  // kMaxRelativeError of it; later runs must repeat their first bitwise.
  Checked checked;
  for (std::size_t m = 0; m < setup.models.size(); ++m) {
    Prepared& p = setup.models[m];
    checked.inputs.emplace_back();
    checked.first.emplace_back();
    for (int k = 0; k < kInputsPerModel; ++k) {
      const Tensor input = random_input(
          *p.decomposed, options.seed * 1000003 + m * 1009 + static_cast<std::uint64_t>(k));
      std::vector<Tensor> reference = runtime::execute(*p.decomposed, {input}).outputs;
      if (options.corrupt_reference && m == 0 && k == 0) reference[0][0] += 1.0f;
      std::vector<Tensor> first = p.executor->run({input}).outputs;
      ++result.attempted;
      for (std::size_t o = 0; o < first.size(); ++o) {
        const double error = relative_error(reference[o], first[o]);
        if (!(error <= kMaxRelativeError)) {
          result.fail(p.name + ": optimized output " + std::to_string(o) + " has relative error " +
                      std::to_string(error) + " against the decomposed reference");
        }
      }
      checked.inputs.back().push_back(input);
      checked.first.back().push_back(std::move(first));
    }
    for (int w = 0; w < kWarmupRuns; ++w) p.executor->run({checked.inputs[m][0]});
  }

  if (options.trace) {
    // Untraced and traced halves of the window: the difference is what the
    // spans cost.  Then the layer-by-layer passes.
    const auto p50 = [](const std::vector<std::vector<double>>& samples) {
      std::vector<double> medians;
      for (const std::vector<double>& ms : samples) medians.push_back(median(ms));
      return geomean(medians);
    };
    const double plain = p50(measure(setup, checked, options.seconds / 2, false, result));
    const double traced = p50(measure(setup, checked, options.seconds / 2, true, result));
    result.metric("trace.overhead_pct", 100.0 * (traced - plain) / plain, "%");

    std::vector<ModelGraphs> graphs;
    for (std::size_t m = 0; m < setup.models.size(); ++m) {
      const Prepared& p = setup.models[m];
      graphs.push_back(ModelGraphs{p.name, p.decomposed.get(), p.decompose_s,
                                   checked.inputs[m][0], p.name != "unet_half"});
    }
    add_compiler_layer_metrics(graphs, result);
    graphs.pop_back();  // the serving probe covers the two models every workload serves
    add_serve_probe_metrics(graphs, options, result);
    add_idle_serve_load_metrics(result);
    return;
  }

  const std::vector<std::vector<double>> samples =
      measure(setup, checked, options.seconds, false, result);
  std::vector<double> p50s, tails;
  double images = 0.0, busy_s = 0.0;
  std::int64_t arena_bytes = 0;
  for (std::size_t m = 0; m < samples.size(); ++m) {
    p50s.push_back(median(samples[m]));
    tails.push_back(quantile(samples[m], kTailQuantile));
    images += static_cast<double>(batch) * static_cast<double>(samples[m].size());
    for (const double ms : samples[m]) busy_s += ms / 1e3;
    arena_bytes += setup.models[m].executor->arena_plan()->arena_bytes;
    std::fprintf(stderr, "  %-12s %zu runs, p50 %.3f ms, p90 %.3f ms\n",
                 setup.models[m].name.c_str(), samples[m].size(), p50s.back(), tails.back());
  }
  result.metric("setup_s", median(setup_s), "s");
  result.metric("p50_ms", geomean(p50s), "ms");
  result.metric("tail_ms", geomean(tails), "ms");
  result.metric("throughput_per_s", images / busy_s, "1/s");
  result.metric("arena_bytes", static_cast<double>(arena_bytes), "bytes");
}

}  // namespace temco::bench
