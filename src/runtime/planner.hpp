// Analytic memory planner.
//
// Computes — without executing any kernel — the internal-tensor memory
// profile a framework allocator would produce for a graph: exactly the
// generalization of Equations (3) and (4) in §2.2 to whole models.  The
// executor's tracking allocator must agree with this planner byte-for-byte
// (asserted in tests); the planner is what benches use for large sweeps and
// what the TeMCO passes use to evaluate candidate rewrites.
//
// All byte accounting rounds each tensor to kTensorAlignment (64 bytes) —
// the same size classes the tracking allocator charges and the arena packs —
// so planner == allocator == arena comparisons are like for like.
#pragma once

#include <cstdint>
#include <vector>

#include "ir/graph.hpp"

namespace temco::runtime {

struct PlanStep {
  ir::ValueId id = ir::kInvalidValue;
  std::int64_t live_after = 0;   ///< internal bytes live after this step's frees
  std::int64_t step_peak = 0;    ///< internal bytes while the node runs
  std::int64_t scratch = 0;      ///< per-thread scratch of fused kernels at this step
};

struct MemoryPlan {
  std::vector<PlanStep> steps;
  std::int64_t peak_internal_bytes = 0;   ///< max over steps of step_peak
  std::int64_t peak_with_scratch = 0;     ///< max over steps of step_peak + scratch; the
                                          ///< floor of plan_arena(graph).arena_bytes
  std::int64_t weight_bytes = 0;
};

struct PlannerOptions {
  /// Accounting mode: treat an activation (relu/silu) whose input dies at
  /// that very step as in-place — it aliases its input's storage instead of
  /// allocating.  This models torchvision-style `ReLU(inplace=True)`
  /// inference; the paper's §2.2 model (and this repo's default) keeps
  /// activation input and output distinct.  See EXPERIMENTS.md deviation D1.
  bool assume_inplace_activations = false;
};

MemoryPlan plan_memory(const ir::Graph& graph, PlannerOptions options = {});

}  // namespace temco::runtime
