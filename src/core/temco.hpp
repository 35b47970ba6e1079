// TeMCO: tensor memory compiler optimization across tensor decompositions.
//
// Public entry point for the paper's contribution.  Given a decomposed
// inference graph, `optimize` applies (in order):
//   1. skip connection optimization  (§3.1, Algorithms 1 & 2)
//   2. layer transformations         (§3.3, concat ⇄ merged-lconv)
//   3. activation layer fusion       (§3.2, Listing 1 kernels)
//   4. dead-code elimination of values the rewrites orphaned
// Every pass rebuilds through one rewrite driver (core/rebuild.hpp): in
// passes 2 and 3 each sweep applies every non-overlapping match of a pattern
// and rebuilds the graph once; passes 1 and 4 rebuild once each.  An arena budget is not a pipeline
// concern: serving caps the slab with serve::CompileOptions::max_arena_bytes,
// and other callers run runtime::schedule_for_budget on the result.
// Every rewrite is semantics-preserving: the optimized graph computes the
// same outputs as the input graph (up to float reassociation inside fused
// kernels), which is the paper's accuracy-preservation claim.
#pragma once

#include <cstdint>
#include <string>

#include "ir/graph.hpp"

namespace temco::core {

struct TemcoOptions {
  bool enable_skip_opt = true;
  bool enable_transforms = true;
  bool enable_fusion = true;

  /// Prefer the §3.3 merged-lconv form (one fused kernel, block-diagonal
  /// weights) over the split-fconv+add form when both apply.
  bool prefer_merged_lconv = true;

  /// Algorithm 1's DISTANCE_THRESHOLD: a value is a skip connection when its
  /// last use is more than this many schedule steps after its definition.
  std::int64_t distance_threshold = 4;

  /// Accept copying restore layers when their FLOPs (per inserted copy) are
  /// at most this multiple of the corresponding original convolutions' FLOPs
  /// (the paper's COMPUTE_THRESHOLD with an explicit scale).
  double compute_threshold_scale = 1.0;

  /// Accept when the restore sequence's transient peak (Algorithm 2's Peak)
  /// is at most this multiple of the skip tensor's size.
  double memory_slack = 2.0;

  /// Structural bound on restore-list length; deeper chains are rejected
  /// outright (they would be rejected by the compute check anyway).
  int max_restore_depth = 24;

  // ---- semantics-preservation guardrails (core/pass_manager.hpp) ----------
  // Graph structure and shape inference are re-verified after every pass, so
  // a broken rewrite raises a typed error naming the pass at its own boundary.

  /// Differential numeric oracle: execute the graph before optimization and
  /// after every pass on seeded random inputs, and require each pass's
  /// outputs to stay within `oracle_tolerance` relative error of the
  /// original.  Costs one reference execution per pass — for tests and
  /// debugging, not the serving path.
  bool numeric_oracle = false;
  double oracle_tolerance = 1e-3;
};

struct OptimizeStats {
  int skips_found = 0;
  int skips_optimized = 0;
  int skips_rejected_structure = 0;  ///< restore chain hits a non-restorable node
  int skips_rejected_compute = 0;    ///< Algorithm 1 compute-threshold rejection
  int skips_rejected_memory = 0;     ///< Algorithm 1 peak-memory rejection
  int restore_copies_inserted = 0;
  int concat_splits = 0;             ///< §3.3 concat→fconv split into fconv+add
  int lconv_merges = 0;              ///< §3.3 merged block-diagonal lconv (concat)
  int upsample_commutes = 0;         ///< upsample→pointwise swapped to run conv low-res
  int fused_kernels = 0;             ///< §3.2 lconv-act-[pool]-fconv fusions
  int dce_removed = 0;

  std::string to_string() const;
};

/// Runs the full TeMCO pipeline.  The input must be shape-inferred and
/// verified (typically the output of decomp::decompose).
ir::Graph optimize(const ir::Graph& graph, const TemcoOptions& options = {},
                   OptimizeStats* stats = nullptr);

// ---- individual passes (exposed for tests, ablations, and custom drivers) --

/// §3.1 skip connection optimization.
ir::Graph optimize_skip_connections(const ir::Graph& graph, const TemcoOptions& options,
                                    OptimizeStats* stats = nullptr);

/// §3.3 layer transformations (upsample commute, merged lconv, concat split),
/// applied in that priority order until none matches.
ir::Graph transform_layers(const ir::Graph& graph, const TemcoOptions& options,
                           OptimizeStats* stats = nullptr);

/// §3.2 activation layer fusion.
ir::Graph fuse_activations(const ir::Graph& graph, const TemcoOptions& options,
                           OptimizeStats* stats = nullptr);

/// Removes every node no graph output transitively reads (graph inputs
/// stay), in one rebuild.
ir::Graph eliminate_dead_code(const ir::Graph& graph, OptimizeStats* stats = nullptr);

/// Algorithm 2's structural lconv test: 1×1 kernel, stride 1, no padding,
/// out_channels > in_channels.
bool is_lconv(const ir::Node& node);

/// Structural fconv test (the dual): 1×1, stride 1, out_channels < in_channels.
bool is_fconv(const ir::Node& node);

/// Any 1×1, stride-1, unpadded convolution — the class of consumers the
/// fused kernel can absorb (fconvs, and pointwise layers like DenseNet
/// bottlenecks whose channel ratio goes the other way).
bool is_pointwise_conv(const ir::Node& node);

}  // namespace temco::core
