#include "runtime/scheduler.hpp"

#include <algorithm>
#include <vector>

#include "runtime/planner.hpp"
#include "support/align.hpp"
#include "support/failpoint.hpp"
#include "support/log.hpp"

namespace temco::runtime {

namespace {

failpoints::Site fp_drop_node{"scheduler.drop_node"};

using ir::Graph;
using ir::Node;
using ir::ValueId;

}  // namespace

// Tested in tests/test_scheduler.cpp.
Graph rebuild_in_order(const Graph& graph, const std::vector<ValueId>& order) {
  Graph out;
  std::vector<ValueId> remap(graph.size(), ir::kInvalidValue);
  for (const ValueId id : order) {
    ir::Node copy = graph.node(id);
    for (ValueId& in : copy.inputs) {
      in = remap[static_cast<std::size_t>(in)];
      // A producer not yet remapped means `order` is not a topological
      // permutation; catch it here with the node named rather than letting
      // kInvalidValue index out.verify()'s internals.
      TEMCO_CHECK_AS(in != ir::kInvalidValue, InvalidGraphError)
          << copy.name << " scheduled before one of its producers";
    }
    remap[static_cast<std::size_t>(id)] = out.append(std::move(copy));
  }
  std::vector<ValueId> outputs;
  for (const ValueId o : graph.outputs()) {
    const ValueId mapped = remap[static_cast<std::size_t>(o)];
    TEMCO_CHECK_AS(mapped != ir::kInvalidValue, InvalidGraphError)
        << "graph output " << graph.node(o).name << " missing from the schedule";
    outputs.push_back(mapped);
  }
  out.set_outputs(std::move(outputs));
  out.infer_shapes();
  out.verify();
  return out;
}

ScheduleResult schedule_for_memory(const ir::Graph& graph) {
  const std::size_t n = graph.size();
  const auto users = graph.users();

  // remaining_uses[v]: consumers not yet scheduled; a value is freed when it
  // reaches zero (outputs never are).
  std::vector<int> remaining_uses(n, 0);
  for (const Node& node : graph.nodes()) {
    for (const ValueId in : node.inputs) ++remaining_uses[static_cast<std::size_t>(in)];
  }
  std::vector<int> unscheduled_inputs(n, 0);
  for (const Node& node : graph.nodes()) {
    unscheduled_inputs[static_cast<std::size_t>(node.id)] =
        static_cast<int>(node.inputs.size());
  }

  std::vector<ValueId> ready;
  for (const Node& node : graph.nodes()) {
    if (node.inputs.empty()) ready.push_back(node.id);
  }

  std::vector<ValueId> order;
  order.reserve(n);
  std::int64_t live = 0;

  std::vector<int> uses = remaining_uses;  // mutated as we schedule
  while (!ready.empty()) {
    // Evaluate each candidate: transient peak = live + output; resident
    // after = that minus inputs that die.  Prefer the smallest resident,
    // then the smallest transient, then program order (stability).
    std::size_t best = 0;
    std::int64_t best_after = 0;
    std::int64_t best_during = 0;
    for (std::size_t c = 0; c < ready.size(); ++c) {
      const Node& node = graph.node(ready[c]);
      const std::int64_t during = live + align_up(node.out_shape.bytes());
      std::int64_t after = during;
      for (const ValueId in : node.inputs) {
        if (uses[static_cast<std::size_t>(in)] == 1 && !graph.is_output(in)) {
          after -= align_up(graph.node(in).out_shape.bytes());
        }
      }
      const bool better =
          c == 0 || after < best_after || (after == best_after && during < best_during) ||
          (after == best_after && during == best_during && ready[c] < ready[best]);
      if (better) {
        best = c;
        best_after = after;
        best_during = during;
      }
    }

    const ValueId chosen = ready[best];
    ready.erase(ready.begin() + static_cast<std::ptrdiff_t>(best));
    order.push_back(chosen);
    live = best_after;
    for (const ValueId in : graph.node(chosen).inputs) {
      --uses[static_cast<std::size_t>(in)];
    }
    for (const ValueId user : users[static_cast<std::size_t>(chosen)]) {
      if (--unscheduled_inputs[static_cast<std::size_t>(user)] == 0) ready.push_back(user);
    }
  }
  if (fp_drop_node.fire() && !order.empty()) order.pop_back();
  TEMCO_CHECK_AS(order.size() == n, InvalidGraphError)
      << "scheduler lost " << (n - order.size()) << " node(s) (cycle in users?)";

  ScheduleResult result;
  result.peak_before = plan_memory(graph).peak_internal_bytes;
  Graph candidate = rebuild_in_order(graph, order);
  result.peak_after = plan_memory(candidate).peak_internal_bytes;
  if (result.peak_after <= result.peak_before) {
    result.graph = std::move(candidate);
  } else {
    // Greedy can lose on adversarial DAGs; keep the original order.
    result.graph = graph;
    result.peak_after = result.peak_before;
  }
  TEMCO_INFO() << "scheduler: peak " << result.peak_before << " -> " << result.peak_after;
  return result;
}

}  // namespace temco::runtime
