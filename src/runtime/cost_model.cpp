#include "runtime/cost_model.hpp"

#include <algorithm>

namespace temco::runtime {

CostClass cost_class_of(ir::OpKind kind) {
  switch (kind) {
    case ir::OpKind::kConv2d:
    case ir::OpKind::kLinear:
    case ir::OpKind::kFusedConvActConv:
      return CostClass::kGemm;
    case ir::OpKind::kDepthwiseConv2d:
      return CostClass::kDepthwise;
    default:
      return CostClass::kMemoryBound;
  }
}

CostModel::CostModel() {
  gflops_[static_cast<std::size_t>(CostClass::kGemm)] = 10.0;
  gflops_[static_cast<std::size_t>(CostClass::kDepthwise)] = 2.0;
  gflops_[static_cast<std::size_t>(CostClass::kMemoryBound)] = 2.0;
  bytes_per_second_ = 8.0e9;
}

double CostModel::node_seconds(const ir::Graph& graph, const ir::Node& node) const {
  if (node.kind == ir::OpKind::kInput) return 0.0;
  std::int64_t moved = node.out_shape.bytes() + node.weight_bytes();
  for (const ir::ValueId in : node.inputs) {
    moved += graph.node(in).out_shape.bytes();
  }
  const double compute_s = static_cast<double>(graph.node_flops(node.id)) /
                           (gflops(cost_class_of(node.kind)) * 1e9);
  const double memory_s = static_cast<double>(moved) / bytes_per_second_;
  return std::max(compute_s, memory_s);
}

double CostModel::graph_seconds(const ir::Graph& graph) const {
  double total = 0.0;
  for (const ir::Node& node : graph.nodes()) total += node_seconds(graph, node);
  return total;
}

}  // namespace temco::runtime
