// SSA inference graph.
//
// A Graph is an ordered list of nodes; the position of a node in the list is
// its execution step, matching the "ordered tensor node list L in SSA form"
// input of Algorithm 1.  Every node produces exactly one tensor value, and
// node ids double as value ids.  Weights are constants owned by their node —
// they are accounted as weight memory, not internal-tensor memory.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "ir/op.hpp"
#include "tensor/tensor.hpp"

namespace temco::ir {

using ValueId = std::int32_t;
inline constexpr ValueId kInvalidValue = -1;

struct Node {
  ValueId id = kInvalidValue;
  OpKind kind = OpKind::kInput;
  std::string name;
  std::vector<ValueId> inputs;
  std::vector<Tensor> weights;  ///< kConv2d/kLinear: {W, b}; kFused: {W1, b1, W2, b2}
  OpAttrs attrs;
  Shape out_shape;              ///< filled by Graph::infer_shapes
  Provenance provenance = Provenance::kNone;
  /// For lconv nodes produced by the decomposition pass: FLOPs of the
  /// original (non-decomposed) convolution.  Algorithm 1's COMPUTE_THRESHOLD
  /// is "the FLOPS of the corresponding parts of the original model"; this
  /// field carries that quantity through the rewrite.  0 = unknown.
  std::int64_t original_flops = 0;

  std::int64_t weight_bytes() const {
    std::int64_t total = 0;
    for (const auto& w : weights) total += w.bytes();
    return total;
  }
};

class Graph {
 public:
  // ---- construction (builder API) ----------------------------------------

  ValueId input(const Shape& shape, std::string name = "input");

  /// Convolution; `weight` is [Cout, Cin, Kh, Kw], `bias` is [Cout] (required:
  /// the evaluated models fold batch-norm into conv bias at inference time).
  ValueId conv2d(ValueId x, Tensor weight, Tensor bias, std::int64_t stride = 1,
                 std::int64_t pad = 0, std::string name = "");

  /// Convolution with independent height/width stride and padding (needed by
  /// the separable Kh×1 / 1×Kw convolutions that CP and TT produce).
  ValueId conv2d_full(ValueId x, Tensor weight, Tensor bias, std::int64_t stride_h,
                      std::int64_t stride_w, std::int64_t pad_h, std::int64_t pad_w,
                      std::string name = "");

  /// Depthwise convolution; `weight` is [C, 1, Kh, Kw], `bias` is [C].
  ValueId depthwise_conv2d(ValueId x, Tensor weight, Tensor bias, std::int64_t stride = 1,
                           std::int64_t pad = 0, std::string name = "");

  /// Depthwise convolution with independent height/width stride and padding.
  ValueId depthwise_conv2d_full(ValueId x, Tensor weight, Tensor bias, std::int64_t stride_h,
                                std::int64_t stride_w, std::int64_t pad_h, std::int64_t pad_w,
                                std::string name = "");

  ValueId relu(ValueId x, std::string name = "");
  ValueId silu(ValueId x, std::string name = "");
  ValueId pool(ValueId x, PoolKind kind, std::int64_t kernel, std::int64_t stride,
               std::string name = "");
  ValueId global_avg_pool(ValueId x, std::string name = "");
  ValueId upsample(ValueId x, std::int64_t factor, std::string name = "");
  ValueId add(std::vector<ValueId> xs, std::string name = "");
  ValueId concat(std::vector<ValueId> xs, std::string name = "");
  ValueId flatten(ValueId x, std::string name = "");
  ValueId linear(ValueId x, Tensor weight, Tensor bias, std::string name = "");
  ValueId softmax(ValueId x, std::string name = "");

  /// TeMCO fused lconv → act [→ pool] → fconv.  `w1/b1` restore channels
  /// (lconv), `w2/b2` reduce them again (fconv); both are 1×1 convolutions.
  ValueId fused_conv_act_conv(ValueId x, Tensor w1, Tensor b1, Tensor w2, Tensor b2,
                              ActKind act, bool has_pool, PoolKind pool_kind,
                              std::int64_t pool_kernel, std::int64_t pool_stride,
                              std::string name = "");

  /// Appends a fully formed node (used by passes when rebuilding graphs);
  /// the node's id is overwritten with its list position.
  ValueId append(Node node);

  void set_outputs(std::vector<ValueId> outputs);

  // ---- introspection ------------------------------------------------------

  std::size_t size() const { return nodes_.size(); }
  const Node& node(ValueId id) const;
  Node& node(ValueId id);
  const std::vector<Node>& nodes() const { return nodes_; }
  const std::vector<ValueId>& outputs() const { return outputs_; }
  bool is_output(ValueId id) const;

  /// Consumers of each value, in execution order (the PDG successor lists).
  std::vector<std::vector<ValueId>> users() const;

  /// Runs shape inference over the whole list, filling Node::out_shape.
  /// Throws on arity or shape mismatches.
  void infer_shapes();

  /// Structural validation: SSA ordering (inputs precede uses), valid ids,
  /// non-empty outputs, shapes inferred.
  void verify() const;

  /// Sum of all weight tensor bytes (the Fig. 10 "weights" bar).
  std::int64_t total_weight_bytes() const;

  /// Multiply-accumulate based FLOP estimate for one node (Algorithm 1's
  /// compute-overhead currency).
  std::int64_t node_flops(ValueId id) const;
  std::int64_t total_flops() const;

  std::string to_string() const;

 private:
  Shape infer_node_shape(const Node& node) const;

  std::vector<Node> nodes_;
  std::vector<ValueId> outputs_;
};

/// Returns a copy of `graph` whose input nodes carry `batch` in dimension 0,
/// with every downstream shape re-inferred.  Weight tensors are shared
/// handles, so a restamp costs activation metadata only — a serving session
/// (src/serve) restamps its model's batch-1 graph to max_batch this way.
Graph rebatched(const Graph& graph, std::int64_t batch);

}  // namespace temco::ir
