// Kernel replay: every node of a graph run through the public kernels:: calls
// in schedule order, out of the same arena layout the executor uses, timed
// per call, and checked bitwise against an arena Executor on the same input.
// The per-node times of the median pass, grouped by op class, are the kernel
// layer's share of Executor::run; the rest of Executor::run is the
// executor's own dispatch cost.
#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <optional>

#include "bench.hpp"
#include "core/temco.hpp"
#include "kernels/gemm.hpp"
#include "kernels/kernels.hpp"
#include "parallel/parallel_for.hpp"
#include "runtime/arena.hpp"
#include "runtime/executor.hpp"
#include "support/align.hpp"

namespace temco::bench {

namespace {

/// Index into kKernelClasses.  conv_restore is the convolution work skip
/// optimization re-executes: restore copies carry ".restore" in their name,
/// and most of them are later fused (DenseNet-121: 468 of 483).
std::size_t classify(const ir::Node& node) {
  const bool restore = node.name.find(".restore") != std::string::npos;
  switch (node.kind) {
    case ir::OpKind::kConv2d: {
      if (restore) return 2;
      const Shape& w = node.weights[0].shape();
      return w[2] == 1 && w[3] == 1 ? 0 : 1;
    }
    case ir::OpKind::kDepthwiseConv2d:
      return 1;
    case ir::OpKind::kFusedConvActConv:
      return restore ? 2 : 3;
    case ir::OpKind::kLinear:
      return 4;
    default:
      return 5;
  }
}

double node_bytes(const ir::Graph& graph, const ir::Node& node) {
  double bytes = static_cast<double>(node.out_shape.bytes() + node.weight_bytes());
  for (const ir::ValueId in : node.inputs) {
    bytes += static_cast<double>(graph.node(in).out_shape.bytes());
  }
  return bytes;
}

/// The same dispatch the executor performs, one public kernel call per node.
void run_kernel(const ir::Node& node, const std::vector<const Tensor*>& in, Tensor& out,
                float* scratch, std::int64_t slot_floats, std::size_t slots, const float* packed) {
  using ir::OpKind;
  const ir::OpAttrs& a = node.attrs;
  switch (node.kind) {
    case OpKind::kInput:
      break;
    case OpKind::kConv2d:
      kernels::conv2d(*in[0], node.weights[0], node.weights[1], a.stride_h, a.stride_w, a.pad_h,
                      a.pad_w, out, packed);
      break;
    case OpKind::kDepthwiseConv2d:
      kernels::depthwise_conv2d(*in[0], node.weights[0], node.weights[1], a.stride_h, a.stride_w,
                                a.pad_h, a.pad_w, out);
      break;
    case OpKind::kRelu:
      kernels::relu(*in[0], out);
      break;
    case OpKind::kSilu:
      kernels::silu(*in[0], out);
      break;
    case OpKind::kPool:
      kernels::pool(*in[0], a.pool_kind, a.pool_kh, a.pool_kw, a.pool_sh, a.pool_sw, out);
      break;
    case OpKind::kGlobalAvgPool:
      kernels::global_avg_pool(*in[0], out);
      break;
    case OpKind::kUpsample:
      kernels::upsample_nearest(*in[0], a.upsample_factor, out);
      break;
    case OpKind::kAdd:
      kernels::add_n(in, out);
      break;
    case OpKind::kConcat:
      kernels::concat_channels(in, out);
      break;
    case OpKind::kFlatten:
      kernels::flatten(*in[0], out);
      break;
    case OpKind::kLinear:
      kernels::linear(*in[0], node.weights[0], node.weights[1], out);
      break;
    case OpKind::kSoftmax:
      kernels::softmax(*in[0], out);
      break;
    case OpKind::kFusedConvActConv:
      kernels::fused_conv_act_conv(*in[0], node.weights[0], node.weights[1], node.weights[2],
                                   node.weights[3], a.act, a.fused_has_pool, a.pool_kind, a.pool_kh,
                                   a.pool_sh, out, scratch, slot_floats, slots, packed);
      break;
  }
}

}  // namespace

ReplayResult replay_graph(const ir::Graph& graph, const Tensor& input, int passes,
                          const std::string& label) {
  const runtime::PackedWeights packed = runtime::PackedWeights::build(graph);
  // Every value and the fused-kernel scratch at the executor's arena offsets,
  // so the replay sees the same memory layout as Executor::run.
  const runtime::ArenaPlan plan = runtime::plan_arena(graph);
  std::unique_ptr<float, void (*)(void*)> slab(
      static_cast<float*>(std::aligned_alloc(static_cast<std::size_t>(kTensorAlignment),
                                             static_cast<std::size_t>(plan.arena_bytes))),
      std::free);
  TEMCO_CHECK(slab != nullptr) << "replay slab of " << plan.arena_bytes << " bytes";
  std::memset(slab.get(), 0, static_cast<std::size_t>(plan.arena_bytes));
  constexpr std::int64_t kFloat = sizeof(float);
  float* const scratch = slab.get() + plan.scratch_offset / kFloat;
  const std::int64_t slot_floats = plan.scratch_slot_bytes / kFloat;
  const Buffer owner(slab.get(), [](float*) {});  // views only; `slab` frees
  std::vector<Tensor> values(graph.size());
  std::vector<std::vector<const Tensor*>> args(graph.size());
  for (const ir::Node& node : graph.nodes()) {
    values[static_cast<std::size_t>(node.id)] =
        Tensor(node.out_shape, Buffer(owner, slab.get() + plan.block(node.id).offset / kFloat));
  }
  for (const ir::Node& node : graph.nodes()) {
    for (const ir::ValueId in : node.inputs) {
      args[static_cast<std::size_t>(node.id)].push_back(&values[static_cast<std::size_t>(in)]);
    }
  }

  ThreadPool intra_pool(kIntraOpThreads);
  ScopedIntraOpPool intra_scope(&intra_pool);
  runtime::Executor executor(graph, {.use_arena = true, .intra_op_threads = kIntraOpThreads});

  std::string span_names[kNumKernelClasses];
  for (std::size_t c = 0; c < kNumKernelClasses; ++c) {
    span_names[c] = std::string("kernels.") + kKernelClasses[c];
  }
  // One pass over the graph; with `times`, each kernel call is timed too.
  const auto pass = [&](std::vector<double>* times, bool traced, const std::string& id) {
    ScopedSpan replay_span(traced ? "kernels.replay" : nullptr, id);
    const Clock::time_point pass_start = Clock::now();
    for (const ir::Node& node : graph.nodes()) {
      const std::size_t slot = static_cast<std::size_t>(node.id);
      std::optional<ScopedSpan> span;
      if (traced) span.emplace(span_names[classify(node)].c_str(), id);
      const Clock::time_point start = times != nullptr ? Clock::now() : Clock::time_point{};
      if (node.kind == ir::OpKind::kInput) {
        std::memcpy(values[slot].data(), input.data(), static_cast<std::size_t>(input.bytes()));
      } else {
        run_kernel(node, args[slot], values[slot], scratch, slot_floats, plan.scratch_slots,
                   packed.blob(node.id));
      }
      if (times != nullptr) {
        (*times)[slot] = std::chrono::duration<double, std::milli>(Clock::now() - start).count();
      }
    }
    return std::chrono::duration<double, std::milli>(Clock::now() - pass_start).count();
  };

  std::vector<std::vector<double>> node_ms;  ///< [pass][node]
  std::vector<double> bare_ms, timed_ms, executor_ms;
  std::vector<Tensor> executor_outputs;
  // One untimed warm-up round, then `passes` rounds of: a bare pass (the
  // kernels alone), a pass timing every kernel call, and Executor::run.  With
  // tracing on, one more round records spans, so span cost never enters a
  // timed round.
  const int rounds = passes + (Tracer::active() != nullptr ? 1 : 0);
  std::vector<double> times(graph.size());
  for (int round = -1; round < rounds; ++round) {
    const bool timed = round >= 0 && round < passes;
    const bool traced = round == passes;
    const std::string id = label + "/" + std::to_string(round);
    const double bare = pass(nullptr, false, id);
    const double instrumented = pass(&times, traced, id);
    ScopedSpan run_span(traced ? "runtime.run" : nullptr, id);
    const Clock::time_point start = Clock::now();
    runtime::ExecutionResult run = executor.run({input});
    const double executor = std::chrono::duration<double, std::milli>(Clock::now() - start).count();
    executor_outputs = std::move(run.outputs);
    if (timed) {
      bare_ms.push_back(bare);
      timed_ms.push_back(instrumented);
      executor_ms.push_back(executor);
      node_ms.push_back(times);
    }
  }

  ReplayResult result;
  result.pass_ms = median(bare_ms);
  result.executor_ms = median(executor_ms);
  // Attribute by the median instrumented pass, so per-node times add up to a
  // real pass rather than to a sum of medians.
  const double timed_median = median(timed_ms);
  std::size_t chosen = 0;
  for (std::size_t p = 0; p < timed_ms.size(); ++p) {
    if (std::abs(timed_ms[p] - timed_median) < std::abs(timed_ms[chosen] - timed_median)) {
      chosen = p;
    }
  }
  for (const ir::Node& node : graph.nodes()) {
    ClassTotals& totals = result.classes[classify(node)];
    const double ms = node_ms[chosen][static_cast<std::size_t>(node.id)];
    totals.ms += ms;
    totals.calls += 1.0;
    totals.flops += static_cast<double>(graph.node_flops(node.id));
    totals.bytes += node_bytes(graph, node);
    result.node_sum_ms += ms;
  }
  std::vector<Tensor> replayed;
  for (const ir::ValueId out : graph.outputs()) {
    replayed.push_back(values[static_cast<std::size_t>(out)]);
  }
  result.bitwise_equal = same_bytes(replayed, executor_outputs);
  return result;
}

void add_compiler_layer_metrics(const std::vector<ModelGraphs>& models, Result& result) {
  double skip_s = 0, transforms_s = 0, fusion_s = 0, dce_s = 0, verify_s = 0;
  double restores = 0, fused = 0, nodes = 0, decompose_s = 0;
  double plan_s = 0, prepack_s = 0, ctor_s = 0, dispatch_ms = 0, gap_pct = 0;
  ClassTotals totals[kNumKernelClasses];
  const core::TemcoOptions temco;
  for (const ModelGraphs& model : models) {
    const ir::Graph& decomposed = *model.decomposed;
    decompose_s += model.decompose_s;

    // The four public passes in pipeline order, then optimize(), which adds
    // only the per-pass verification on top: the difference is that cost.
    // Each is the median of kCoreRepeats calls.
    std::vector<double> pass_s[4], optimize_s;
    const char* const pass_spans[4] = {"core.skip_opt", "core.transforms", "core.fusion",
                                       "core.dce"};
    ir::Graph staged, optimized;
    core::OptimizeStats stats;
    for (int repeat = 0; repeat < kCoreRepeats; ++repeat) {
      staged = decomposed;
      for (int p = 0; p < 4; ++p) {
        const Clock::time_point start = Clock::now();
        ScopedSpan span(pass_spans[p], model.name);
        switch (p) {
          case 0: staged = core::optimize_skip_connections(staged, temco); break;
          case 1: staged = core::transform_layers(staged, temco); break;
          case 2: staged = core::fuse_activations(staged, temco); break;
          default: staged = core::eliminate_dead_code(staged); break;
        }
        pass_s[p].push_back(seconds_since(start));
      }
      stats = core::OptimizeStats{};
      const Clock::time_point start = Clock::now();
      ScopedSpan span("core.optimize", model.name);
      optimized = core::optimize(decomposed, temco, &stats);
      optimize_s.push_back(seconds_since(start));
    }
    skip_s += median(pass_s[0]);
    transforms_s += median(pass_s[1]);
    fusion_s += median(pass_s[2]);
    dce_s += median(pass_s[3]);
    verify_s += median(optimize_s) - median(pass_s[0]) - median(pass_s[1]) - median(pass_s[2]) -
                median(pass_s[3]);
    if (staged.size() != optimized.size()) {
      result.fail(model.name + ": the four passes give " + std::to_string(staged.size()) +
                  " nodes, optimize() gives " + std::to_string(optimized.size()));
    }
    restores += stats.restore_copies_inserted;
    fused += stats.fused_kernels;
    nodes += static_cast<double>(optimized.size());

    Clock::time_point start = Clock::now();
    {
      ScopedSpan span("runtime.plan_arena", model.name);
      (void)runtime::plan_arena(optimized);
    }
    plan_s += seconds_since(start);
    start = Clock::now();
    {
      ScopedSpan span("runtime.prepack", model.name);
      (void)runtime::PackedWeights::build(optimized);
    }
    prepack_s += seconds_since(start);
    start = Clock::now();
    {
      ScopedSpan span("runtime.executor_ctor", model.name);
      runtime::Executor executor(optimized, {.use_arena = true,
                                             .intra_op_threads = kIntraOpThreads});
    }
    ctor_s += seconds_since(start);

    const ReplayResult opt =
        replay_graph(optimized, model.input, kReplayPasses, model.name + "/opt");
    const ReplayResult dec =
        replay_graph(decomposed, model.input, kReplayPasses, model.name + "/dec");
    if (!opt.bitwise_equal || !dec.bitwise_equal) {
      result.fail(model.name + ": kernel replay differs from Executor::run");
    }
    const double overhead = opt.executor_ms - opt.pass_ms;
    dispatch_ms += overhead;
    gap_pct = std::max(gap_pct, 100.0 * std::abs(opt.node_sum_ms + overhead - opt.executor_ms) /
                                    opt.executor_ms);
    for (std::size_t c = 0; c < kNumKernelClasses; ++c) {
      totals[c].ms += opt.classes[c].ms;
      totals[c].calls += opt.classes[c].calls;
      totals[c].flops += opt.classes[c].flops;
      totals[c].bytes += opt.classes[c].bytes;
    }
    if (model.detailed) {
      const std::string prefix = "model." + model.name;
      result.metric(prefix + ".infer_ms", opt.executor_ms, "ms");
      result.metric(prefix + ".decomposed_ms", dec.executor_ms, "ms");
      result.metric(prefix + ".overhead", opt.executor_ms / dec.executor_ms, "ratio");
      result.metric("runtime.dispatch_overhead_ms." + model.name, overhead, "ms");
      result.metric("runtime.dispatch_overhead_ms." + model.name + ".decomposed",
                    dec.executor_ms - dec.pass_ms, "ms");
    }
    if (model.name == kBreakdownModel) {
      for (std::size_t c = 0; c < kNumKernelClasses; ++c) {
        const std::string prefix = "kernels." + model.name + "." + kKernelClasses[c];
        result.metric(prefix + ".ms", opt.classes[c].ms, "ms");
        result.metric(prefix + ".decomposed_ms", dec.classes[c].ms, "ms");
      }
    }
  }

  result.metric("decomp.decompose_s", decompose_s, "s");
  result.metric("core.skip_opt_s", skip_s, "s");
  result.metric("core.transforms_s", transforms_s, "s");
  result.metric("core.fusion_s", fusion_s, "s");
  result.metric("core.dce_s", dce_s, "s");
  result.metric("core.verify_s", verify_s, "s");
  result.metric("core.restore_copies", restores, "count");
  result.metric("core.fused_kernels", fused, "count");
  result.metric("core.nodes", nodes, "count");
  result.metric("runtime.plan_arena_s", plan_s, "s");
  result.metric("runtime.prepack_s", prepack_s, "s");
  result.metric("runtime.executor_ctor_s", ctor_s, "s");
  result.metric("runtime.dispatch_overhead_ms", dispatch_ms, "ms");
  result.metric("trace.replay_gap_pct", gap_pct, "%");

  const double peak = fma_peak_gflops();
  result.metric("kernels.fma_peak_gflops", peak, "GFLOP/s");
  for (std::size_t c = 0; c < kNumKernelClasses; ++c) {
    const std::string prefix = std::string("kernels.") + kKernelClasses[c];
    const double gflops = totals[c].ms > 0 ? totals[c].flops / (totals[c].ms * 1e6) : 0.0;
    result.metric(prefix + ".ms", totals[c].ms, "ms");
    result.metric(prefix + ".calls", totals[c].calls, "count");
    result.metric(prefix + ".gflops", gflops, "GFLOP/s");
    result.metric(prefix + ".gb_s", totals[c].ms > 0 ? totals[c].bytes / (totals[c].ms * 1e6) : 0.0,
                  "GB/s");
    result.metric(prefix + ".pct_peak",
                  100.0 * gflops / (peak * static_cast<double>(kIntraOpThreads)), "%");
  }
}

/// The calibration is bench/kernels_micro's measure_peak_gflops, which lives
/// in that binary's own source file; the median of five windows is added
/// because a single window reads a neighbour's burst as the host's speed.
double fma_peak_gflops() {
  namespace gemm = kernels::gemm;
  std::int64_t iters = 1 << 14;
  for (;;) {  // calibrate to a ~20 ms window
    const Clock::time_point start = Clock::now();
    gemm::peak_probe_iters(iters);
    if (Clock::now() - start >= std::chrono::milliseconds(20) || iters >= (std::int64_t{1} << 34)) {
      break;
    }
    iters *= 4;
  }
  std::vector<double> samples;
  for (int i = 0; i < 5; ++i) {
    const Clock::time_point start = Clock::now();
    gemm::peak_probe_iters(iters);
    const double seconds = std::chrono::duration<double>(Clock::now() - start).count();
    samples.push_back(gemm::peak_probe_flops_per_iter() * static_cast<double>(iters) / seconds /
                      1e9);
  }
  return median(samples);
}

}  // namespace temco::bench
