// Shared predicates, stats formatting, and dead-code elimination.
#include <sstream>

#include "core/rebuild.hpp"
#include "core/temco.hpp"

namespace temco::core {

bool is_lconv(const ir::Node& node) {
  if (node.kind != ir::OpKind::kConv2d) return false;
  const Shape& w = node.weights[0].shape();
  const auto& a = node.attrs;
  if (w[2] != 1 || w[3] != 1) return false;
  if (a.stride_h != 1 || a.stride_w != 1 || a.pad_h != 0 || a.pad_w != 0) return false;
  return w[0] > w[1];  // restores: out_channels > in_channels
}

bool is_fconv(const ir::Node& node) {
  return is_pointwise_conv(node) && node.weights[0].shape()[0] < node.weights[0].shape()[1];
}

bool is_pointwise_conv(const ir::Node& node) {
  if (node.kind != ir::OpKind::kConv2d) return false;
  const Shape& w = node.weights[0].shape();
  const auto& a = node.attrs;
  if (w[2] != 1 || w[3] != 1) return false;
  return a.stride_h == 1 && a.stride_w == 1 && a.pad_h == 0 && a.pad_w == 0;
}

std::string OptimizeStats::to_string() const {
  std::ostringstream os;
  os << "skips: " << skips_optimized << "/" << skips_found << " optimized ("
     << skips_rejected_structure << " structural, " << skips_rejected_compute << " compute, "
     << skips_rejected_memory << " memory rejections), " << restore_copies_inserted
     << " restore copies; transforms: " << concat_splits << " concat splits, " << lconv_merges
     << " lconv merges, " << upsample_commutes << " upsample commutes; " << fused_kernels
     << " fused kernels; " << dce_removed << " dead nodes removed";
  return os.str();
}

ir::Graph eliminate_dead_code(const ir::Graph& graph, OptimizeStats* stats) {
  // Mark live values: outputs and everything they transitively read.
  std::vector<bool> live(graph.size(), false);
  for (const ir::ValueId out : graph.outputs()) live[static_cast<std::size_t>(out)] = true;
  for (std::int64_t i = static_cast<std::int64_t>(graph.size()) - 1; i >= 0; --i) {
    if (!live[static_cast<std::size_t>(i)]) continue;
    for (const ir::ValueId in : graph.node(static_cast<ir::ValueId>(i)).inputs) {
      live[static_cast<std::size_t>(in)] = true;
    }
  }
  // Graph inputs are part of the interface; keep them even if unread.
  detail::Rewrite dead;
  for (const ir::Node& node : graph.nodes()) {
    if (!live[static_cast<std::size_t>(node.id)] && node.kind != ir::OpKind::kInput) {
      dead.removes.push_back(node.id);
    }
  }
  const int removed = static_cast<int>(dead.removes.size());
  ir::Graph out = detail::rebuild(graph, {std::move(dead)});
  if (stats != nullptr) stats->dce_removed += removed;
  return out;
}

}  // namespace temco::core
