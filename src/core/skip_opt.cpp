// §3.1 skip connection optimization (Algorithms 1 and 2).
//
// A value whose last use is far from its definition (distance >
// DISTANCE_THRESHOLD) is a skip connection.  Instead of keeping the
// full-width tensor alive across that span, TeMCO keeps only its *reduced*
// predecessors (the inputs of the lconv restore layers) and re-runs the
// cheap restore layers right before each distant use.  The overhead model
// accepts the rewrite only when the copied layers are cheaper than the
// corresponding original convolutions (COMPUTE_THRESHOLD) and their
// transient peak does not swamp the saving.
#include <algorithm>
#include <optional>
#include <unordered_map>

#include "core/rebuild.hpp"
#include "core/temco.hpp"
#include "runtime/liveness.hpp"
#include "runtime/planner.hpp"
#include "support/log.hpp"

namespace temco::core {

namespace {

using ir::Graph;
using ir::Node;
using ir::OpKind;
using ir::ValueId;

/// Algorithm 2's result record: the restore layers (in execution order), the
/// size of the restored value, and the transient peak of replaying the list.
struct RestoreInfo {
  std::vector<ValueId> list;
  std::int64_t size = 0;
  std::int64_t peak = 0;
};

/// Algorithm 2's Compare: schedule the subtree whose replay keeps less
/// resident memory first.
bool compare_restore(const RestoreInfo& a, const RestoreInfo& b) {
  return a.size + b.peak < b.size + a.peak;
}

/// Algorithm 2's Peak: replay the ordered children, then materialize v.
std::int64_t replay_peak(const std::vector<RestoreInfo>& ordered, std::int64_t v_size) {
  std::int64_t peak = 0;
  std::int64_t resided = 0;
  for (const RestoreInfo& e : ordered) {
    peak = std::max(resided + e.peak, peak);
    resided += e.size;
  }
  return std::max(resided + v_size, peak);
}

/// Node kinds that may be replayed between a skip connection and its lconv
/// leaves.  Anything else (non-decomposed convs, graph inputs, linears, ...)
/// makes the skip non-restorable from reduced tensors.
bool replayable_interior(const Node& node) {
  switch (node.kind) {
    case OpKind::kRelu:
    case OpKind::kSilu:
    case OpKind::kPool:
    case OpKind::kUpsample:
    case OpKind::kAdd:
    case OpKind::kConcat:
      return true;
    default:
      return false;
  }
}

/// Algorithm 2's FindReduced.  Returns nullopt when the predecessor cone is
/// not restorable from reduced tensors or exceeds the depth bound.
std::optional<RestoreInfo> find_reduced(const Graph& graph, ValueId v, int max_depth) {
  const Node& node = graph.node(v);
  if (is_lconv(node)) {
    RestoreInfo res;
    res.list = {v};
    res.size = node.out_shape.bytes();
    res.peak = res.size + graph.node(node.inputs[0]).out_shape.bytes();
    return res;
  }
  if (!replayable_interior(node)) return std::nullopt;

  std::vector<RestoreInfo> children;
  children.reserve(node.inputs.size());
  std::size_t total = 1;
  for (const ValueId in : node.inputs) {
    auto child = find_reduced(graph, in, max_depth);
    if (!child.has_value()) return std::nullopt;
    total += child->list.size();
    if (total > static_cast<std::size_t>(max_depth)) return std::nullopt;
    children.push_back(std::move(*child));
  }
  std::stable_sort(children.begin(), children.end(), compare_restore);

  RestoreInfo res;
  for (const RestoreInfo& c : children) {
    res.list.insert(res.list.end(), c.list.begin(), c.list.end());
  }
  res.list.push_back(v);
  res.size = node.out_shape.bytes();
  res.peak = replay_peak(children, res.size);
  return res;
}

/// The reduced tensors a restore list reads: inputs of its nodes that are not
/// themselves in the list (for lconv leaves, that is the reduced tensor).
std::vector<ValueId> external_inputs(const Graph& graph, const std::vector<ValueId>& list) {
  std::vector<ValueId> externals;
  for (const ValueId id : list) {
    for (const ValueId in : graph.node(id).inputs) {
      if (std::find(list.begin(), list.end(), in) == list.end() &&
          std::find(externals.begin(), externals.end(), in) == externals.end()) {
        externals.push_back(in);
      }
    }
  }
  return externals;
}

/// True when a distant use site will let activation layer fusion absorb the
/// replayed restore layers: the use is itself a pointwise conv, or a concat
/// whose single consumer is one (the concat-split transform then gives every
/// branch its own pointwise slice).  At such sites the replay's full-width
/// transients never materialize in the final graph, so the memory check may
/// be lenient; at any other site (e.g. ResNet's add joins) the transient
/// survives and the strict check applies.
bool fusable_use_site(const Graph& graph, const std::vector<std::vector<ValueId>>& users,
                      ValueId use) {
  const Node& node = graph.node(use);
  if (is_pointwise_conv(node)) return true;
  if (node.kind == OpKind::kConcat && !graph.is_output(use) &&
      users[static_cast<std::size_t>(use)].size() == 1 &&
      is_pointwise_conv(graph.node(users[static_cast<std::size_t>(use)][0]))) {
    return true;
  }
  return false;
}

/// Algorithm 1's Overhead: copying is profitable only if the replayed FLOPs
/// stay under the original model's cost for the same region and the replay's
/// transient peak stays within the slack of the skip tensor's size.
enum class OverheadVerdict { kAccept, kRejectCompute, kRejectMemory };

OverheadVerdict check_overhead(const Graph& graph, const RestoreInfo& info,
                               std::int64_t skip_bytes, bool all_sites_fusable,
                               std::int64_t graph_peak_bytes, const TemcoOptions& options) {
  std::int64_t copy_flops = 0;
  std::int64_t reference_flops = 0;  // COMPUTE_THRESHOLD
  for (const ValueId id : info.list) {
    const Node& node = graph.node(id);
    const std::int64_t flops = graph.node_flops(id);
    copy_flops += flops;
    if (is_lconv(node)) {
      // The original (non-decomposed) convolution's cost, recorded by the
      // decomposition pass; fall back to a conservative multiple when the
      // graph was built by hand.
      reference_flops += node.original_flops > 0 ? node.original_flops : 3 * flops;
    } else {
      reference_flops += flops;
    }
  }
  if (static_cast<double>(copy_flops) >
      options.compute_threshold_scale * static_cast<double>(reference_flops)) {
    return OverheadVerdict::kRejectCompute;
  }
  if (all_sites_fusable) {
    // Fusion will erase the replay's full-width transients; only reject when
    // even the transient (pre-fusion) replay would set a new global peak.
    if (info.peak > graph_peak_bytes) return OverheadVerdict::kRejectMemory;
  } else if (static_cast<double>(info.peak) >
             options.memory_slack * static_cast<double>(skip_bytes)) {
    return OverheadVerdict::kRejectMemory;
  }
  return OverheadVerdict::kAccept;
}

}  // namespace

ir::Graph optimize_skip_connections(const ir::Graph& graph, const TemcoOptions& options,
                                    OptimizeStats* stats) {
  OptimizeStats local;
  OptimizeStats& st = stats != nullptr ? *stats : local;

  const auto liveness = runtime::compute_liveness(graph);
  const auto users = graph.users();
  const std::int64_t graph_peak = runtime::plan_memory(graph).peak_internal_bytes;

  // Phase 1: decide, on the original schedule, which skip connections to
  // optimize and memoize their restore recipes.
  std::unordered_map<ValueId, RestoreInfo> optimized;
  for (const Node& node : graph.nodes()) {
    const auto& range = liveness[static_cast<std::size_t>(node.id)];
    if (range.distance() <= options.distance_threshold) continue;
    if (graph.is_output(node.id)) continue;
    if (node.kind == OpKind::kInput) continue;
    // At least one *use* must be distant (outputs extend ranges artificially).
    bool has_distant_use = false;
    bool all_sites_fusable = true;
    for (const ValueId user : users[static_cast<std::size_t>(node.id)]) {
      if (user - node.id > options.distance_threshold) {
        has_distant_use = true;
        if (!fusable_use_site(graph, users, user)) all_sites_fusable = false;
      }
    }
    if (!has_distant_use) continue;
    ++st.skips_found;

    auto info = find_reduced(graph, node.id, options.max_restore_depth);
    if (!info.has_value()) {
      ++st.skips_rejected_structure;
      continue;
    }
    // Keeping the reduced externals alive must actually be smaller than
    // keeping the skip tensor itself.  When every distant site is fusable
    // the bar is softer: a modest liveness increase (e.g. a pre-pool reduced
    // tensor slightly larger than the post-pool skip) is paid back by the
    // full-width transients fusion then eliminates.
    std::int64_t reduced_bytes = 0;
    for (const ValueId ext : external_inputs(graph, info->list)) {
      reduced_bytes += graph.node(ext).out_shape.bytes();
    }
    const std::int64_t budget =
        all_sites_fusable ? 2 * node.out_shape.bytes() : node.out_shape.bytes();
    if (reduced_bytes >= budget) {
      ++st.skips_rejected_structure;
      continue;
    }
    switch (check_overhead(graph, *info, node.out_shape.bytes(), all_sites_fusable, graph_peak,
                           options)) {
      case OverheadVerdict::kRejectCompute:
        ++st.skips_rejected_compute;
        continue;
      case OverheadVerdict::kRejectMemory:
        ++st.skips_rejected_memory;
        continue;
      case OverheadVerdict::kAccept:
        break;
    }
    optimized.emplace(node.id, std::move(*info));
    ++st.skips_optimized;
  }

  if (optimized.empty()) return graph;

  // Phase 2: one rewrite per node that reads an optimized skip from afar.
  // It replays each such skip's restore list right before the node, in input
  // order, and redirects the read to the replayed value.
  const auto recipe = [&](const Node& use, ValueId in) -> const RestoreInfo* {
    const auto it = optimized.find(in);
    return it != optimized.end() && use.id - in > options.distance_threshold ? &it->second
                                                                             : nullptr;
  };
  std::vector<detail::Rewrite> rewrites;
  for (const Node& node : graph.nodes()) {
    if (std::none_of(node.inputs.begin(), node.inputs.end(),
                     [&](ValueId in) { return recipe(node, in) != nullptr; })) {
      continue;
    }
    detail::Rewrite rewrite;
    rewrite.removes = {node.id};
    rewrite.anchor = node.id;
    rewrite.emit = [&graph, &recipe, &st, &node](Graph& out, std::vector<ValueId>& remap) {
      ir::Node use = node;
      for (ValueId& in : use.inputs) {
        const RestoreInfo* info = recipe(node, in);
        if (info == nullptr) {
          in = remap[static_cast<std::size_t>(in)];
          continue;
        }
        // Nodes inside the list resolve to their fresh copies, everything
        // else to the already-rebuilt values.
        std::unordered_map<ValueId, ValueId> replay_map;
        for (const ValueId rid : info->list) {
          ir::Node replay = graph.node(rid);
          replay.name += ".restore";
          for (ValueId& rin : replay.inputs) {
            const auto rit = replay_map.find(rin);
            rin = rit != replay_map.end() ? rit->second : remap[static_cast<std::size_t>(rin)];
          }
          replay_map[rid] = out.append(std::move(replay));
          ++st.restore_copies_inserted;
        }
        in = replay_map[in];
      }
      remap[static_cast<std::size_t>(node.id)] = out.append(std::move(use));
    };
    rewrites.push_back(std::move(rewrite));
  }
  ir::Graph out = detail::rebuild(graph, rewrites);
  TEMCO_INFO() << "skip-opt: " << st.skips_optimized << " of " << st.skips_found
               << " skip connections optimized";
  return out;
}

}  // namespace temco::core
