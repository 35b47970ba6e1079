#include "ir/graph.hpp"

#include <algorithm>
#include <sstream>
#include <unordered_set>

namespace temco::ir {

std::string_view op_kind_name(OpKind kind) {
  switch (kind) {
    case OpKind::kInput: return "input";
    case OpKind::kConv2d: return "conv2d";
    case OpKind::kDepthwiseConv2d: return "dwconv2d";
    case OpKind::kRelu: return "relu";
    case OpKind::kSilu: return "silu";
    case OpKind::kPool: return "pool";
    case OpKind::kGlobalAvgPool: return "gap";
    case OpKind::kUpsample: return "upsample";
    case OpKind::kAdd: return "add";
    case OpKind::kConcat: return "concat";
    case OpKind::kFlatten: return "flatten";
    case OpKind::kLinear: return "linear";
    case OpKind::kSoftmax: return "softmax";
    case OpKind::kFusedConvActConv: return "fused_cac";
  }
  return "?";
}

ValueId Graph::append(Node node) {
  node.id = static_cast<ValueId>(nodes_.size());
  if (node.name.empty()) {
    node.name = std::string(op_kind_name(node.kind)) + "_" + std::to_string(node.id);
  }
  for (const ValueId in : node.inputs) {
    TEMCO_CHECK(in >= 0 && in < node.id)
        << "node " << node.name << " uses value " << in << " not yet defined (SSA order)";
  }
  nodes_.push_back(std::move(node));
  return nodes_.back().id;
}

ValueId Graph::input(const Shape& shape, std::string name) {
  Node node;
  node.kind = OpKind::kInput;
  node.name = std::move(name);
  node.out_shape = shape;
  return append(std::move(node));
}

ValueId Graph::conv2d(ValueId x, Tensor weight, Tensor bias, std::int64_t stride,
                      std::int64_t pad, std::string name) {
  return conv2d_full(x, std::move(weight), std::move(bias), stride, stride, pad, pad,
                     std::move(name));
}

ValueId Graph::conv2d_full(ValueId x, Tensor weight, Tensor bias, std::int64_t stride_h,
                           std::int64_t stride_w, std::int64_t pad_h, std::int64_t pad_w,
                           std::string name) {
  TEMCO_CHECK(weight.shape().rank() == 4) << "conv weight must be rank 4";
  TEMCO_CHECK(bias.shape().rank() == 1 && bias.shape()[0] == weight.shape()[0])
      << "conv bias must be [Cout]";
  Node node;
  node.kind = OpKind::kConv2d;
  node.name = std::move(name);
  node.inputs = {x};
  node.weights = {std::move(weight), std::move(bias)};
  node.attrs.stride_h = stride_h;
  node.attrs.stride_w = stride_w;
  node.attrs.pad_h = pad_h;
  node.attrs.pad_w = pad_w;
  return append(std::move(node));
}

ValueId Graph::depthwise_conv2d(ValueId x, Tensor weight, Tensor bias, std::int64_t stride,
                                std::int64_t pad, std::string name) {
  return depthwise_conv2d_full(x, std::move(weight), std::move(bias), stride, stride, pad, pad,
                               std::move(name));
}

ValueId Graph::depthwise_conv2d_full(ValueId x, Tensor weight, Tensor bias, std::int64_t stride_h,
                                     std::int64_t stride_w, std::int64_t pad_h, std::int64_t pad_w,
                                     std::string name) {
  TEMCO_CHECK(weight.shape().rank() == 4 && weight.shape()[1] == 1)
      << "depthwise weight must be [C, 1, Kh, Kw]";
  TEMCO_CHECK(bias.shape().rank() == 1 && bias.shape()[0] == weight.shape()[0]);
  Node node;
  node.kind = OpKind::kDepthwiseConv2d;
  node.name = std::move(name);
  node.inputs = {x};
  node.weights = {std::move(weight), std::move(bias)};
  node.attrs.stride_h = stride_h;
  node.attrs.stride_w = stride_w;
  node.attrs.pad_h = pad_h;
  node.attrs.pad_w = pad_w;
  return append(std::move(node));
}

ValueId Graph::relu(ValueId x, std::string name) {
  Node node;
  node.kind = OpKind::kRelu;
  node.name = std::move(name);
  node.inputs = {x};
  return append(std::move(node));
}

ValueId Graph::silu(ValueId x, std::string name) {
  Node node;
  node.kind = OpKind::kSilu;
  node.name = std::move(name);
  node.inputs = {x};
  return append(std::move(node));
}

ValueId Graph::pool(ValueId x, PoolKind kind, std::int64_t kernel, std::int64_t stride,
                    std::string name) {
  Node node;
  node.kind = OpKind::kPool;
  node.name = std::move(name);
  node.inputs = {x};
  node.attrs.pool_kind = kind;
  node.attrs.pool_kh = node.attrs.pool_kw = kernel;
  node.attrs.pool_sh = node.attrs.pool_sw = stride;
  return append(std::move(node));
}

ValueId Graph::global_avg_pool(ValueId x, std::string name) {
  Node node;
  node.kind = OpKind::kGlobalAvgPool;
  node.name = std::move(name);
  node.inputs = {x};
  return append(std::move(node));
}

ValueId Graph::upsample(ValueId x, std::int64_t factor, std::string name) {
  TEMCO_CHECK(factor >= 1);
  Node node;
  node.kind = OpKind::kUpsample;
  node.name = std::move(name);
  node.inputs = {x};
  node.attrs.upsample_factor = factor;
  return append(std::move(node));
}

ValueId Graph::add(std::vector<ValueId> xs, std::string name) {
  TEMCO_CHECK(xs.size() >= 2) << "add needs at least two inputs";
  Node node;
  node.kind = OpKind::kAdd;
  node.name = std::move(name);
  node.inputs = std::move(xs);
  return append(std::move(node));
}

ValueId Graph::concat(std::vector<ValueId> xs, std::string name) {
  TEMCO_CHECK(xs.size() >= 2) << "concat needs at least two inputs";
  Node node;
  node.kind = OpKind::kConcat;
  node.name = std::move(name);
  node.inputs = std::move(xs);
  return append(std::move(node));
}

ValueId Graph::flatten(ValueId x, std::string name) {
  Node node;
  node.kind = OpKind::kFlatten;
  node.name = std::move(name);
  node.inputs = {x};
  return append(std::move(node));
}

ValueId Graph::linear(ValueId x, Tensor weight, Tensor bias, std::string name) {
  TEMCO_CHECK(weight.shape().rank() == 2) << "linear weight must be [out, in]";
  TEMCO_CHECK(bias.shape().rank() == 1 && bias.shape()[0] == weight.shape()[0]);
  Node node;
  node.kind = OpKind::kLinear;
  node.name = std::move(name);
  node.inputs = {x};
  node.weights = {std::move(weight), std::move(bias)};
  return append(std::move(node));
}

ValueId Graph::softmax(ValueId x, std::string name) {
  Node node;
  node.kind = OpKind::kSoftmax;
  node.name = std::move(name);
  node.inputs = {x};
  return append(std::move(node));
}

ValueId Graph::fused_conv_act_conv(ValueId x, Tensor w1, Tensor b1, Tensor w2, Tensor b2,
                                   ActKind act, bool has_pool, PoolKind pool_kind,
                                   std::int64_t pool_kernel, std::int64_t pool_stride,
                                   std::string name) {
  TEMCO_CHECK(w1.shape().rank() == 4 && w1.shape()[2] == 1 && w1.shape()[3] == 1)
      << "fused lconv weight must be a 1x1 conv weight";
  TEMCO_CHECK(w2.shape().rank() == 4 && w2.shape()[2] == 1 && w2.shape()[3] == 1)
      << "fused fconv weight must be a 1x1 conv weight";
  TEMCO_CHECK(w2.shape()[1] == w1.shape()[0])
      << "fconv input channels must equal lconv output channels";
  Node node;
  node.kind = OpKind::kFusedConvActConv;
  node.name = std::move(name);
  node.inputs = {x};
  node.weights = {std::move(w1), std::move(b1), std::move(w2), std::move(b2)};
  node.attrs.act = act;
  node.attrs.fused_has_pool = has_pool;
  node.attrs.pool_kind = pool_kind;
  node.attrs.pool_kh = node.attrs.pool_kw = pool_kernel;
  node.attrs.pool_sh = node.attrs.pool_sw = pool_stride;
  return append(std::move(node));
}

void Graph::set_outputs(std::vector<ValueId> outputs) {
  TEMCO_CHECK(!outputs.empty());
  for (const ValueId id : outputs) {
    TEMCO_CHECK(id >= 0 && id < static_cast<ValueId>(nodes_.size()));
  }
  outputs_ = std::move(outputs);
}

const Node& Graph::node(ValueId id) const {
  TEMCO_CHECK(id >= 0 && id < static_cast<ValueId>(nodes_.size())) << "bad value id " << id;
  return nodes_[static_cast<std::size_t>(id)];
}

Node& Graph::node(ValueId id) {
  TEMCO_CHECK(id >= 0 && id < static_cast<ValueId>(nodes_.size())) << "bad value id " << id;
  return nodes_[static_cast<std::size_t>(id)];
}

bool Graph::is_output(ValueId id) const {
  return std::find(outputs_.begin(), outputs_.end(), id) != outputs_.end();
}

std::vector<std::vector<ValueId>> Graph::users() const {
  std::vector<std::vector<ValueId>> result(nodes_.size());
  for (const Node& node : nodes_) {
    for (const ValueId in : node.inputs) result[static_cast<std::size_t>(in)].push_back(node.id);
  }
  return result;
}

void Graph::infer_shapes() {
  for (Node& node : nodes_) node.out_shape = infer_node_shape(node);
}

Graph rebatched(const Graph& graph, std::int64_t batch) {
  TEMCO_CHECK_AS(batch >= 1, ShapeError) << "batch dimension must be >= 1, got " << batch;
  Graph copy = graph;
  for (std::size_t i = 0; i < copy.size(); ++i) {
    Node& node = copy.node(static_cast<ValueId>(i));
    if (node.kind != OpKind::kInput) continue;
    TEMCO_CHECK_AS(node.out_shape.rank() >= 1, ShapeError)
        << node.name << ": cannot rebatch a rank-0 input";
    node.out_shape = node.out_shape.with_dim(0, batch);
  }
  copy.infer_shapes();
  return copy;
}

void Graph::verify() const {
  TEMCO_CHECK_AS(!outputs_.empty(), InvalidGraphError) << "graph has no outputs";
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    const Node& node = nodes_[i];
    TEMCO_CHECK_AS(node.id == static_cast<ValueId>(i), InvalidGraphError)
        << "node id out of order";
    for (const ValueId in : node.inputs) {
      // Catches dangling ids, forward references, and self-cycles alike: a
      // valid SSA input must already have been defined, and ids are
      // sequential, so the defined ids are exactly [0, node.id).
      TEMCO_CHECK_AS(0 <= in && in < node.id, InvalidGraphError)
          << node.name << " uses undefined value " << in;
    }
    TEMCO_CHECK_AS(node.out_shape.rank() > 0 || node.kind == OpKind::kInput, InvalidGraphError)
        << node.name << " has no inferred shape; call infer_shapes()";
  }
  std::unordered_set<ValueId> out_seen;
  for (const ValueId id : outputs_) {
    TEMCO_CHECK_AS(id >= 0 && id < static_cast<ValueId>(nodes_.size()), InvalidGraphError)
        << "output " << id << " is not a graph value";
    TEMCO_CHECK_AS(out_seen.insert(id).second, InvalidGraphError)
        << "duplicate output " << node(id).name;
  }
  // Shape recheck: a pass that rewires edges but forgets to re-infer leaves a
  // stale out_shape behind; downstream consumers (planner, arena, kernels)
  // would size buffers from it and corrupt memory.  Re-deriving every shape
  // is pure integer arithmetic, cheap enough to do on each verify.
  for (const Node& node : nodes_) {
    const Shape inferred = infer_node_shape(node);
    TEMCO_CHECK_AS(node.out_shape == inferred, ShapeError)
        << node.name << " has stale shape " << node.out_shape << "; inference says " << inferred;
  }
}

std::int64_t Graph::total_weight_bytes() const {
  std::int64_t total = 0;
  for (const Node& node : nodes_) total += node.weight_bytes();
  return total;
}

std::string Graph::to_string() const {
  std::ostringstream os;
  for (const Node& node : nodes_) {
    os << "%" << node.id << " = " << op_kind_name(node.kind) << "(";
    for (std::size_t i = 0; i < node.inputs.size(); ++i) {
      if (i != 0) os << ", ";
      os << "%" << node.inputs[i];
    }
    os << ")";
    if (!node.weights.empty()) {
      os << " w=" << node.weights[0].shape().to_string();
    }
    os << " : " << node.out_shape.to_string() << "  // " << node.name;
    if (node.provenance == Provenance::kFconv) os << " [fconv]";
    if (node.provenance == Provenance::kCore) os << " [core]";
    if (node.provenance == Provenance::kLconv) os << " [lconv]";
    os << "\n";
  }
  os << "outputs:";
  for (const ValueId id : outputs_) os << " %" << id;
  os << "\n";
  return os.str();
}

}  // namespace temco::ir
