// §3.2 activation layer fusion.
//
// Matches lconv → activation [→ pool] → fconv chains (each link single-use)
// and replaces them with one kFusedConvActConv node.  The full-width tensors
// between lconv and fconv (Output1/Input2 in Fig. 3b) disappear from the
// graph entirely — the fused kernel reconstructs them row by row in scratch.
// Chains that share a node (an expanding 1×1 that both ends one chain and
// starts the next) fuse the earlier one: the driver keeps the first match in
// schedule order, and the fused node then starts no chain of its own.
#include "core/rebuild.hpp"
#include "core/temco.hpp"
#include "support/log.hpp"

namespace temco::core {

namespace {

using ir::Graph;
using ir::Node;
using ir::OpKind;
using ir::ValueId;
using detail::single_user;

/// The fused kernel handles square pooling windows (the models' 2×2/2 and
/// 3×3/2 pools); anything else is left unfused.
bool fusable_pool(const Node& node) {
  return node.kind == OpKind::kPool && node.attrs.pool_kh == node.attrs.pool_kw &&
         node.attrs.pool_sh == node.attrs.pool_sw;
}

std::optional<detail::Rewrite> match_fusion(const Graph& graph, const detail::Users& users,
                                            const Node& lconv) {
  if (!is_lconv(lconv) || !single_user(users, graph, lconv.id)) return std::nullopt;
  const Node& act = graph.node(users[static_cast<std::size_t>(lconv.id)][0]);
  if (act.kind != OpKind::kRelu && act.kind != OpKind::kSilu) return std::nullopt;
  if (!single_user(users, graph, act.id)) return std::nullopt;
  const ir::ActKind act_kind = act.kind == OpKind::kRelu ? ir::ActKind::kRelu : ir::ActKind::kSilu;

  // The consumer must be pointwise (1×1, stride 1, unpadded); channel ratio
  // does not matter for correctness or memory — the full-width intermediate
  // disappears either way (DenseNet bottlenecks expand, fconvs reduce).
  const Node* pool = nullptr;
  const Node* fconv = &graph.node(users[static_cast<std::size_t>(act.id)][0]);
  if (fusable_pool(*fconv)) {
    if (!single_user(users, graph, fconv->id)) return std::nullopt;
    pool = fconv;
    fconv = &graph.node(users[static_cast<std::size_t>(pool->id)][0]);
  }
  if (!is_pointwise_conv(*fconv)) return std::nullopt;

  detail::Rewrite rewrite;
  rewrite.removes = {lconv.id, act.id, fconv->id};
  if (pool != nullptr) rewrite.removes.push_back(pool->id);
  rewrite.anchor = fconv->id;
  rewrite.emit = [&lconv, pool, fconv, act_kind](Graph& g, std::vector<ValueId>& remap) {
    ir::PoolKind pool_kind = ir::PoolKind::kMax;
    std::int64_t pool_k = 2;
    std::int64_t pool_s = 2;
    if (pool != nullptr) {
      pool_kind = pool->attrs.pool_kind;
      pool_k = pool->attrs.pool_kh;
      pool_s = pool->attrs.pool_sh;
    }
    const ValueId fused = g.fused_conv_act_conv(
        remap[static_cast<std::size_t>(lconv.inputs[0])], lconv.weights[0].clone(),
        lconv.weights[1].clone(), fconv->weights[0].clone(), fconv->weights[1].clone(), act_kind,
        pool != nullptr, pool_kind, pool_k, pool_s, lconv.name + ".fused");
    g.node(fused).original_flops = lconv.original_flops;
    remap[static_cast<std::size_t>(fconv->id)] = fused;
  };
  return rewrite;
}

}  // namespace

ir::Graph fuse_activations(const ir::Graph& graph, const TemcoOptions& options,
                           OptimizeStats* stats) {
  (void)options;
  OptimizeStats local;
  OptimizeStats& st = stats != nullptr ? *stats : local;

  Graph fused = detail::rewrite(graph, {{match_fusion, &st.fused_kernels}});
  TEMCO_INFO() << "fusion: " << st.fused_kernels << " fused kernels";
  return fused;
}

}  // namespace temco::core
