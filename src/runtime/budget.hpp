// Memory-aware schedule search with rematerialization.
//
// §5 of the paper points at layer scheduling (Occamy, Pisarchyk & Lee,
// PockEngine) as the complement to TeMCO's rewrites: the liveness of every
// tensor — and therefore the peak — depends on the execution order.  This
// pass asks the question the way DLMO-style schedulers and sublinear-memory
// checkpointing do: given a hard byte budget (or none), search topological
// orders AND recompute decisions until the arena fits.
// TeMCO's skip-connection optimization — re-run a cheap restore layer instead
// of keeping a wide tensor alive — is one hand-picked point of this space;
// here the same trade is made wherever the budget demands it, guided by a
// per-op cost model (runtime/cost_model.hpp, default rates) instead of fixed
// thresholds.
//
// The search alternates two moves until the budget is met or no move helps:
//   1. order search: a beam over topological prefixes, scored by the greedy
//      §2.2 allocation estimator (peak-so-far, then resident bytes), never
//      accepted unless the arena-planner oracle agrees it is no worse;
//   2. rematerialization: at the peak step, a value that is live across the
//      step without being used there is cut — its later consumers are rewired
//      to a freshly duplicated producer chain inserted right before the first
//      of them, so the original dies early and the copy recomputes it from
//      values still resident.  Chains are at most four nodes deep, must
//      bottom out in live values (never a duplicated kInput), and candidates
//      are ranked by estimator peak with predicted recompute seconds as the
//      tie-break.
//
// Rematerialization is expressed as node duplication in the emitted
// ir::Graph: the copy shares the original's weight tensors by handle and runs
// the same deterministic kernel on byte-identical inputs, so outputs stay
// bitwise-identical to the unconstrained schedule and every downstream
// consumer — executor, arena planner, PassManager verification, artifact
// serializer — applies unchanged.  The schedule *is* the graph order, exactly
// as today.
#pragma once

#include <cstdint>

#include "ir/graph.hpp"
#include "runtime/arena.hpp"

namespace temco::runtime {

struct BudgetOptions {
  /// Hard cap on plan_arena(graph, arena).arena_bytes — the slab a serving
  /// session must allocate.  0 = unconstrained: the search still reorders for
  /// minimum peak but never rematerializes.
  std::int64_t max_bytes = 0;

  /// Width of the topological-order beam.  1 degenerates to greedy.
  std::size_t beam_width = 4;

  /// Safety bound on remat rounds (one duplication each); the search also
  /// stops as soon as no candidate strictly lowers the estimator peak.
  int max_remat_rounds = 64;

  /// Oracle options: must match what the consumer will plan with (the serving
  /// path passes its compile-time ArenaOptions so budget and slab agree).
  ArenaOptions arena;
};

struct BudgetScheduleResult {
  ir::Graph graph;  ///< best schedule found (the budget-meeting one when met)

  bool met = false;                ///< achieved_arena_bytes <= budget (always true unconstrained)
  std::int64_t budget_bytes = 0;   ///< the cap searched against (0 = none)
  /// Arena-planner slab of the best *reorder-only* schedule — what the model
  /// costs without rematerialization, and the baseline `predicted_slowdown`
  /// is relative to.
  std::int64_t unconstrained_arena_bytes = 0;
  /// Arena-planner slab of `graph` — the best achievable peak found; when
  /// !met this is what a caller should report in its ResourceExhaustedError.
  std::int64_t achieved_arena_bytes = 0;

  /// CostModel::graph_seconds(graph) / graph_seconds(reorder-only schedule):
  /// the predicted price of the duplicated compute (1.0 when none).
  double predicted_slowdown = 1.0;

  int remat_nodes = 0;   ///< duplicated nodes in `graph`
  int remat_rounds = 0;  ///< accepted rematerialization rounds
};

/// Intrinsic lower bound on ANY schedule's arena slab for `graph`: the widest
/// single step — one node's unique inputs + its output + its fused scratch,
/// all alignment-padded — or the total bytes of the graph outputs (they
/// coexist at the end), whichever is larger.  No reordering or
/// rematerialization can go below it, because those values are live in the
/// same instant regardless of schedule.  A budget under this floor makes
/// schedule_for_budget report met == false by construction; callers use the
/// floor to distinguish "search fell short" from "physically impossible".
std::int64_t schedule_floor_bytes(const ir::Graph& graph);

/// Searches orders + recompute decisions for `graph` under `options`.  Never
/// throws on an unmeetable budget — it returns the best schedule found with
/// `met == false` so callers can either degrade or raise a typed error naming
/// `achieved_arena_bytes` (serve::CompiledModel::compile does the latter).
/// The emitted graph is verified, shape-inferred, and computes bitwise-
/// identical outputs to `graph` on every executor regime.
BudgetScheduleResult schedule_for_budget(const ir::Graph& graph,
                                         const BudgetOptions& options = {});

}  // namespace temco::runtime
