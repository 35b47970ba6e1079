#include "runtime/arena.hpp"

#include <algorithm>
#include <limits>
#include <numeric>

#include "kernels/kernels.hpp"
#include "parallel/thread_pool.hpp"
#include "support/align.hpp"
#include "support/failpoint.hpp"

namespace temco::runtime {

namespace {

failpoints::Site fp_packing_overflow{"arena.packing_overflow"};

bool ranges_overlap(const LiveRange& a, const LiveRange& b) {
  return a.begin <= b.end && b.begin <= a.end;
}

/// Per-worker scratch the fused kernel at `node` needs, 0 for other ops.
std::int64_t node_scratch_bytes(const ir::Graph& graph, const ir::Node& node) {
  if (node.kind != ir::OpKind::kFusedConvActConv) return 0;
  const Shape& x = graph.node(node.inputs[0]).out_shape;
  return kernels::fused_scratch_bytes(node.weights[0].shape()[0], x[3],
                                      node.attrs.fused_has_pool, node.out_shape[3]);
}

}  // namespace

ArenaPlan plan_arena(const ir::Graph& graph, ArenaOptions options) {
  graph.verify();
  const std::vector<LiveRange> liveness = compute_liveness(graph);

  ArenaPlan plan;
  plan.canary_bytes = options.canary_bytes > 0 ? align_up(options.canary_bytes) : 0;
  plan.blocks.resize(graph.size());
  for (const ir::Node& node : graph.nodes()) {
    ArenaBlock& block = plan.blocks[static_cast<std::size_t>(node.id)];
    block.id = node.id;
    block.bytes = align_up(node.out_shape.bytes()) + plan.canary_bytes;
    block.range = liveness[static_cast<std::size_t>(node.id)];
  }

  // Greedy best-fit: place tensors largest-first (ties by id for
  // determinism); each one takes the tightest gap left between the
  // already-placed tensors it is concurrently live with.
  std::vector<std::size_t> order(plan.blocks.size());
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    if (plan.blocks[a].bytes != plan.blocks[b].bytes)
      return plan.blocks[a].bytes > plan.blocks[b].bytes;
    return a < b;
  });

  std::vector<std::size_t> placed;
  std::vector<const ArenaBlock*> conflicts;
  placed.reserve(order.size());
  for (const std::size_t index : order) {
    ArenaBlock& block = plan.blocks[index];
    conflicts.clear();
    for (const std::size_t other : placed) {
      if (ranges_overlap(block.range, plan.blocks[other].range)) {
        conflicts.push_back(&plan.blocks[other]);
      }
    }
    std::sort(conflicts.begin(), conflicts.end(),
              [](const ArenaBlock* a, const ArenaBlock* b) { return a->offset < b->offset; });

    // Walk the occupied ranges in offset order; the smallest gap that fits
    // wins (best-fit), falling back to first free offset past the conflicts.
    std::int64_t cursor = 0;
    std::int64_t best_offset = -1;
    std::int64_t best_gap = std::numeric_limits<std::int64_t>::max();
    for (const ArenaBlock* other : conflicts) {
      const std::int64_t gap = other->offset - cursor;
      if (gap >= block.bytes && gap < best_gap) {
        best_gap = gap;
        best_offset = cursor;
      }
      cursor = std::max(cursor, other->offset + other->bytes);
    }
    block.offset = best_offset >= 0 ? best_offset : cursor;
    placed.push_back(index);
    plan.tensor_bytes = std::max(plan.tensor_bytes, block.offset + block.bytes);
  }

  // Scratch region: one slot per parallel worker, sized for the hungriest
  // fused node.  Scratch lives only within a node's step, so a single tail
  // region shared by all fused nodes suffices.
  std::int64_t max_scratch = 0;
  for (const ir::Node& node : graph.nodes()) {
    max_scratch = std::max(max_scratch, node_scratch_bytes(graph, node));
  }
  plan.scratch_offset = plan.tensor_bytes;
  if (max_scratch > 0) {
    plan.scratch_slots = ThreadPool::global().concurrency();
    plan.scratch_slot_bytes = align_up(max_scratch);
  }
  plan.arena_bytes =
      plan.tensor_bytes +
      plan.scratch_slot_bytes * static_cast<std::int64_t>(plan.scratch_slots);
  TEMCO_CHECK_AS(!fp_packing_overflow.fire(), ResourceExhaustedError)
      << "arena.packing_overflow failpoint: simulated packing overflow at "
      << plan.arena_bytes << " bytes";
  return plan;
}

void validate_arena_plan(const ir::Graph& graph, const ArenaPlan& plan) {
  TEMCO_CHECK(plan.blocks.size() == graph.size())
      << "arena plan covers " << plan.blocks.size() << " values, graph has " << graph.size();
  for (const ArenaBlock& block : plan.blocks) {
    const ir::Node& node = graph.node(block.id);
    TEMCO_CHECK(block.offset % kTensorAlignment == 0)
        << node.name << ": misaligned offset " << block.offset;
    TEMCO_CHECK(block.bytes - plan.canary_bytes >= node.out_shape.bytes())
        << node.name << ": block payload smaller than the tensor";
    TEMCO_CHECK(block.offset >= 0 && block.offset + block.bytes <= plan.tensor_bytes)
        << node.name << ": block outside the tensor region";
  }
  for (std::size_t i = 0; i < plan.blocks.size(); ++i) {
    for (std::size_t j = i + 1; j < plan.blocks.size(); ++j) {
      const ArenaBlock& a = plan.blocks[i];
      const ArenaBlock& b = plan.blocks[j];
      if (!ranges_overlap(a.range, b.range)) continue;
      const bool disjoint = a.offset + a.bytes <= b.offset || b.offset + b.bytes <= a.offset;
      TEMCO_CHECK(disjoint) << graph.node(a.id).name << " and " << graph.node(b.id).name
                            << " are live together but share arena bytes";
    }
  }
  TEMCO_CHECK(plan.scratch_offset >= plan.tensor_bytes) << "scratch overlaps tensor region";
  TEMCO_CHECK(plan.arena_bytes ==
              plan.scratch_offset +
                  plan.scratch_slot_bytes * static_cast<std::int64_t>(plan.scratch_slots))
      << "arena size inconsistent with its regions";
}

}  // namespace temco::runtime
