// Analytic per-op execution cost model.
//
// The budget scheduler (runtime/budget.hpp) trades recompute time for
// resident bytes, so it needs a currency for "time" that is cheap enough to
// evaluate thousands of candidate schedules: a roofline estimate per node —
// FLOPs against an attainable compute rate, moved bytes against an attainable
// bandwidth, whichever binds.  The rates are fixed, conservative
// single-thread figures for this codebase's kernels.
//
// The model is deliberately analytic, not a timer: it ranks rematerialization
// candidates and reports predicted slowdown; the bench
// (bench/schedule_budget.cpp) closes the loop by publishing predicted next to
// measured.
#pragma once

#include <cstdint>

#include "ir/graph.hpp"

namespace temco::runtime {

/// Operator classes with distinct throughput characteristics.  Every OpKind
/// maps onto exactly one class (cost_class_of).
enum class CostClass : std::uint8_t {
  kGemm,        ///< dense conv / linear / fused sandwich: compute-bound GEMM path
  kDepthwise,   ///< per-channel conv: low arithmetic intensity
  kMemoryBound, ///< elementwise / pool / concat / reshape / upsample: bandwidth-bound
};
inline constexpr std::size_t kCostClassCount = 3;

CostClass cost_class_of(ir::OpKind kind);

class CostModel {
 public:
  /// Conservative single-thread rates (GEMM well below the micro-bench
  /// numbers, so the model over-prices recompute rather than under-pricing
  /// it).
  CostModel();

  /// Attainable rate for one class: GFLOP/s for compute classes, GiB/s-
  /// equivalent FLOP rate for the memory-bound class.
  double gflops(CostClass c) const { return gflops_[static_cast<std::size_t>(c)]; }

  /// Roofline estimate of one node's execution time.  Inputs, weights, and
  /// the output each cross memory once; FLOPs come from Graph::node_flops.
  double node_seconds(const ir::Graph& graph, const ir::Node& node) const;

  /// Sum of node_seconds over the whole list — the schedule-search currency
  /// for "how much did rematerialization cost us".
  double graph_seconds(const ir::Graph& graph) const;

 private:
  double gflops_[kCostClassCount];
  double bytes_per_second_ = 0.0;
};

}  // namespace temco::runtime
