// Static arena memory planner.
//
// The reference executor *measures* the §2.2 alloc-at-def / free-after-last-use
// model by calling the system allocator once per node.  Production inference
// runtimes instead plan all activation storage ahead of time: every internal
// tensor gets a byte offset inside one reusable slab, sized so that no two
// tensors whose live intervals overlap share bytes.  This file computes that
// plan — greedy best-fit interval packing over the liveness table — and is the
// second, independently-derived implementation of the paper's memory model:
// `arena_bytes` can never be below the analytic planner's peak, and tests
// assert it stays within a small constant factor of it.
//
// Fused-kernel scratch (the per-worker row buffers of §3.2's tiled kernel) is
// part of the slab too: one region at the tail, sized for the largest fused
// node × one slot per lane of the process-global pool (a fused kernel
// stripes over at most that many slots, fewer when the executor's intra-op
// pool is narrower), so the arena-backed executor runs the whole graph with
// zero per-node heap allocations.
#pragma once

#include <cstdint>
#include <vector>

#include "ir/graph.hpp"
#include "runtime/liveness.hpp"
#include "support/align.hpp"

namespace temco::runtime {

/// One packed tensor: the half-open byte range [offset, offset + bytes) is
/// reserved for value `id` during its live interval `range`.  When the plan
/// carries canaries, the block also holds a guard band the tensor payload
/// never legally touches (ArenaPlan::band_offset).
struct ArenaBlock {
  ir::ValueId id = ir::kInvalidValue;
  std::int64_t offset = 0;  ///< slab offset, kTensorAlignment-aligned
  std::int64_t bytes = 0;   ///< aligned footprint incl. canary band (>= raw bytes)
  LiveRange range;
};

struct ArenaOptions {
  /// Guard-band bytes appended to every block (rounded up to
  /// kTensorAlignment; 0 disables).  The executor fills the band with a
  /// poison pattern when the value is defined and checks it when the value
  /// dies, converting a kernel's out-of-slot write into a
  /// MemoryCorruptionError instead of silent corruption of a neighbor.
  std::int64_t canary_bytes = 0;
};

struct ArenaPlan {
  std::vector<ArenaBlock> blocks;       ///< one per graph value, indexed by ValueId
  std::int64_t arena_bytes = 0;         ///< total slab size, incl. the scratch region
  std::int64_t tensor_bytes = 0;        ///< slab prefix used by packed tensors
  std::int64_t scratch_offset = 0;      ///< start of the scratch region (== tensor_bytes)
  std::int64_t scratch_slot_bytes = 0;  ///< aligned per-slot scratch (0: no fused nodes)
  std::size_t scratch_slots = 0;
  std::int64_t canary_bytes = 0;        ///< per-block guard band at the block tail

  const ArenaBlock& block(ir::ValueId id) const {
    return blocks[static_cast<std::size_t>(id)];
  }

  /// Slab offset of `node`'s guard band: right after its aligned payload, so
  /// the band moves with the batch of the graph bound to the plan.
  std::int64_t band_offset(const ir::Node& node) const {
    return block(node.id).offset + align_up(node.out_shape.bytes());
  }
};

/// Packs every graph value (and fused-kernel scratch) into one slab.
/// Requires a verified, shape-inferred graph.
ArenaPlan plan_arena(const ir::Graph& graph, ArenaOptions options = {});

/// O(n²) safety net over an emitted plan: throws if any two blocks with
/// overlapping live intervals overlap in bytes, if a block is misaligned or
/// out of bounds, or if the scratch region intersects the tensor region.
/// Cheap enough to run unconditionally when an executor adopts a plan.
void validate_arena_plan(const ir::Graph& graph, const ArenaPlan& plan);

}  // namespace temco::runtime
