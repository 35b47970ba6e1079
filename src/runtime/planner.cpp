#include "runtime/planner.hpp"

#include <algorithm>

#include "kernels/kernels.hpp"
#include "runtime/liveness.hpp"
#include "support/align.hpp"

namespace temco::runtime {

namespace {

/// Bytes a value occupies in every accountant: its tensor rounded up to the
/// shared 64-byte size class (see support/align.hpp).
std::int64_t padded_bytes(const ir::Node& node) { return align_up(node.out_shape.bytes()); }

}  // namespace

MemoryPlan plan_memory(const ir::Graph& graph, PlannerOptions options) {
  const std::vector<LiveRange> liveness = compute_liveness(graph);
  const std::vector<std::vector<ir::ValueId>> dying = values_dying_at(graph, liveness);

  MemoryPlan plan;
  plan.steps.reserve(graph.size());
  plan.weight_bytes = graph.total_weight_bytes();

  std::int64_t live = 0;
  std::vector<bool> aliased(graph.size(), false);
  for (const ir::Node& node : graph.nodes()) {
    // In-place mode: an activation whose sole remaining consumer position is
    // this step reuses its input's storage — no allocation, and the input's
    // "death" here transfers ownership rather than freeing.
    const bool inplace =
        options.assume_inplace_activations &&
        (node.kind == ir::OpKind::kRelu || node.kind == ir::OpKind::kSilu) &&
        liveness[static_cast<std::size_t>(node.inputs[0])].end == node.id &&
        !graph.is_output(node.inputs[0]) &&
        node.out_shape.bytes() == graph.node(node.inputs[0]).out_shape.bytes();
    if (inplace) aliased[static_cast<std::size_t>(node.id)] = true;

    // Allocation happens before the node runs; inputs are still live, so the
    // step peak is live-so-far + the fresh output (Eq. 3/4's input+output).
    if (!inplace) live += padded_bytes(node);
    PlanStep step;
    step.id = node.id;
    step.step_peak = live;
    if (node.kind == ir::OpKind::kFusedConvActConv) {
      const Shape& x = graph.node(node.inputs[0]).out_shape;
      step.scratch = kernels::fused_scratch_bytes(node.weights[0].shape()[0], x[3],
                                                  node.attrs.fused_has_pool, node.out_shape[3]);
    }
    for (const ir::ValueId dead : dying[static_cast<std::size_t>(node.id)]) {
      // Graph outputs are handed to the caller, never freed (the executor
      // keeps them too — the two accountings must agree step for step).
      if (graph.is_output(dead)) continue;
      // An aliasing activation keeps its input's storage alive as its own.
      if (aliased[static_cast<std::size_t>(node.id)] && dead == node.inputs[0]) continue;
      live -= padded_bytes(graph.node(dead));
    }
    step.live_after = live;
    plan.steps.push_back(step);

    plan.peak_internal_bytes = std::max(plan.peak_internal_bytes, step.step_peak);
    plan.peak_with_scratch = std::max(plan.peak_with_scratch, step.step_peak + step.scratch);
  }
  return plan;
}

}  // namespace temco::runtime
