// Memory-aware execution scheduling.
//
// §5 of the paper points at layer scheduling (Occamy, Pisarchyk & Lee,
// PockEngine) as the complement to TeMCO's rewrites: the liveness of every
// tensor — and therefore the peak — depends on the execution order.  This
// pass searches topological orders greedily: at each step it runs, among the
// ready nodes, the one that minimizes the post-step resident set (breaking
// ties by the transient step peak).  The schedule is returned as a new Graph
// whose list order *is* the schedule, so every downstream consumer
// (executor, planner, TeMCO passes) applies unchanged.
#pragma once

#include "ir/graph.hpp"

namespace temco::runtime {

struct ScheduleResult {
  ir::Graph graph;
  std::int64_t peak_before = 0;  ///< planned peak of the input order
  std::int64_t peak_after = 0;   ///< planned peak of the chosen order
};

/// Greedy peak-minimizing topological reordering.  Never returns a schedule
/// worse than the input order (falls back to it when the greedy choice loses).
ScheduleResult schedule_for_memory(const ir::Graph& graph);

/// Rebuilds the graph with nodes in `order` (a topological permutation of
/// ids).  Only ids are remapped: names, weight tensors (shared, not copied),
/// attrs and kinds carry over verbatim, so a scheduled graph stays debuggable
/// against the original and weights keep aliasing the same storage.  Shared
/// by the greedy scheduler and the budget search (runtime/budget.hpp).
ir::Graph rebuild_in_order(const ir::Graph& graph, const std::vector<ir::ValueId>& order);

}  // namespace temco::runtime
