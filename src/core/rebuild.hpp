// The one rewrite driver behind the compiler's pattern passes.
//
// A matcher looks at one node and either declines or returns a Rewrite: the
// nodes it removes, its anchor (the last removed node in schedule order) and
// an emit callback that writes the replacement nodes at the anchor, keeping
// the list in SSA order.  One sweep asks the matcher at every node in
// schedule order and keeps each match that shares no node with a match
// already kept; the graph is then rebuilt once with every kept rewrite, and
// sweeps repeat until one finds nothing.  Used by the layer-transformation
// and fusion passes, by skip-connection optimization (one direct rebuild
// whose rewrites each replace a distant use), and (removal only) by
// dead-code elimination.
#pragma once

#include <algorithm>
#include <functional>
#include <optional>
#include <vector>

#include "ir/graph.hpp"

namespace temco::core::detail {

using Users = std::vector<std::vector<ir::ValueId>>;

/// True when `id` has exactly one reader and is not a graph output.
inline bool single_user(const Users& users, const ir::Graph& graph, ir::ValueId id) {
  return users[static_cast<std::size_t>(id)].size() == 1 && !graph.is_output(id);
}

/// Emits replacement nodes into `out` (inputs already remapped via `remap`)
/// and records new ids for removed values that still have users, by writing
/// into `remap` directly.  Reads the graph the match was found in, which
/// outlives the rebuild.
using EmitFn = std::function<void(ir::Graph& out, std::vector<ir::ValueId>& remap)>;

struct Rewrite {
  std::vector<ir::ValueId> removes;        ///< every matched node, anchor included
  ir::ValueId anchor = ir::kInvalidValue;  ///< where `emit` runs; invalid = removal only
  EmitFn emit;
};

/// Inspects one node of the graph; `users` is graph.users(), computed once
/// per sweep.
using Matcher = std::optional<Rewrite> (*)(const ir::Graph&, const Users&, const ir::Node&);

/// One pattern kind and the stats counter its applications add to.
struct Pattern {
  Matcher match;
  int* applied;
};

/// Rebuilds `graph` with node-disjoint `rewrites` applied: removed nodes are
/// skipped and each anchor runs its rewrite's emit instead of being copied.
/// Removed non-anchor nodes leave their remap entries invalid, so a rewrite
/// that removes a value still read outside it fails here.
inline ir::Graph rebuild(const ir::Graph& graph, const std::vector<Rewrite>& rewrites) {
  std::vector<bool> removed(graph.size(), false);
  std::vector<const Rewrite*> anchored(graph.size(), nullptr);
  for (const Rewrite& rewrite : rewrites) {
    for (const ir::ValueId id : rewrite.removes) removed[static_cast<std::size_t>(id)] = true;
    if (rewrite.anchor != ir::kInvalidValue) {
      anchored[static_cast<std::size_t>(rewrite.anchor)] = &rewrite;
    }
  }
  ir::Graph out;
  std::vector<ir::ValueId> remap(graph.size(), ir::kInvalidValue);
  for (const ir::Node& node : graph.nodes()) {
    const auto at = static_cast<std::size_t>(node.id);
    if (anchored[at] != nullptr) {
      anchored[at]->emit(out, remap);
      continue;
    }
    if (removed[at]) continue;
    ir::Node copy = node;
    for (ir::ValueId& in : copy.inputs) {
      in = remap[static_cast<std::size_t>(in)];
      TEMCO_CHECK(in != ir::kInvalidValue)
          << "rewrite removed a value still used by " << node.name;
    }
    remap[at] = out.append(std::move(copy));
  }
  std::vector<ir::ValueId> outputs;
  for (const ir::ValueId o : graph.outputs()) {
    const ir::ValueId mapped = remap[static_cast<std::size_t>(o)];
    TEMCO_CHECK(mapped != ir::kInvalidValue) << "rewrite removed a graph output";
    outputs.push_back(mapped);
  }
  out.set_outputs(std::move(outputs));
  out.infer_shapes();
  out.verify();
  return out;
}

/// Rewrites `graph` until no pattern matches.  A sweep tries one pattern
/// kind, in `patterns` order; when it applies anything, the next sweep starts
/// again from the first kind, so earlier kinds take priority over later ones.
inline ir::Graph rewrite(const ir::Graph& graph, const std::vector<Pattern>& patterns) {
  ir::Graph current = graph;
  std::size_t kind = 0;
  while (kind < patterns.size()) {
    const Users users = current.users();
    std::vector<bool> taken(current.size(), false);
    std::vector<Rewrite> rewrites;
    for (const ir::Node& node : current.nodes()) {
      std::optional<Rewrite> match = patterns[kind].match(current, users, node);
      if (!match.has_value() ||
          std::any_of(match->removes.begin(), match->removes.end(),
                      [&](ir::ValueId id) { return taken[static_cast<std::size_t>(id)]; })) {
        continue;
      }
      for (const ir::ValueId id : match->removes) taken[static_cast<std::size_t>(id)] = true;
      rewrites.push_back(std::move(*match));
    }
    if (rewrites.empty()) {
      ++kind;
      continue;
    }
    *patterns[kind].applied += static_cast<int>(rewrites.size());
    current = rebuild(current, rewrites);
    kind = 0;
  }
  return current;
}

}  // namespace temco::core::detail
