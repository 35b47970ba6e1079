#include "runtime/executor.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <limits>

#include "kernels/kernels.hpp"
#include "parallel/parallel_for.hpp"
#include "runtime/planner.hpp"
#include "support/align.hpp"
#include "support/failpoint.hpp"
#include "support/timer.hpp"

namespace temco::runtime {

namespace {

failpoints::Site fp_poison_nan{"kernels.poison_nan"};
failpoints::Site fp_slab_oom{"executor.slab_oom"};
failpoints::Site fp_oob_write{"executor.oob_write"};

/// Byte written into arena guard bands and poison fills (see
/// kArenaPoisonByte in the header for why 0xFF).
constexpr unsigned char kCanaryByte = kArenaPoisonByte;

/// Per-worker scratch handed to fused kernels; zeroed on the reference path
/// (kernels then allocate their own row buffers, the measured §2.2 regime).
struct FusedScratch {
  float* base = nullptr;
  std::int64_t slot_floats = 0;
  std::size_t slots = 0;
};

/// Dispatches one node onto the kernel library.  `in` holds one tensor per
/// node input, in order; both execution paths share this function so they
/// cannot diverge behaviorally.  `prepacked` is the node's plan-time weight
/// packing (nullptr when the node has none).  `intra_pool`, when non-null, is
/// installed as this thread's scoped intra-op pool for the duration of the
/// kernel, honoring ExecutorOptions::intra_op_threads on every run path.
void run_node(const ir::Node& node, const std::vector<const Tensor*>& in, Tensor& out,
              const FusedScratch& scratch, const float* prepacked, ThreadPool* intra_pool) {
  using ir::OpKind;
  ScopedIntraOpPool intra_scope(intra_pool != nullptr ? intra_pool
                                                      : ScopedIntraOpPool::active());
  switch (node.kind) {
    case OpKind::kInput:
      TEMCO_FAIL() << "input nodes are not executed";
      break;
    case OpKind::kConv2d:
      kernels::conv2d(*in[0], node.weights[0], node.weights[1], node.attrs.stride_h,
                      node.attrs.stride_w, node.attrs.pad_h, node.attrs.pad_w, out, prepacked);
      break;
    case OpKind::kDepthwiseConv2d:
      kernels::depthwise_conv2d(*in[0], node.weights[0], node.weights[1], node.attrs.stride_h,
                                node.attrs.stride_w, node.attrs.pad_h, node.attrs.pad_w, out);
      break;
    case OpKind::kRelu:
      kernels::relu(*in[0], out);
      break;
    case OpKind::kSilu:
      kernels::silu(*in[0], out);
      break;
    case OpKind::kPool:
      kernels::pool(*in[0], node.attrs.pool_kind, node.attrs.pool_kh, node.attrs.pool_kw,
                    node.attrs.pool_sh, node.attrs.pool_sw, out);
      break;
    case OpKind::kGlobalAvgPool:
      kernels::global_avg_pool(*in[0], out);
      break;
    case OpKind::kUpsample:
      kernels::upsample_nearest(*in[0], node.attrs.upsample_factor, out);
      break;
    case OpKind::kAdd:
      kernels::add_n(in, out);
      break;
    case OpKind::kConcat:
      kernels::concat_channels(in, out);
      break;
    case OpKind::kFlatten:
      kernels::flatten(*in[0], out);
      break;
    case OpKind::kLinear:
      kernels::linear(*in[0], node.weights[0], node.weights[1], out);
      break;
    case OpKind::kSoftmax:
      kernels::softmax(*in[0], out);
      break;
    case OpKind::kFusedConvActConv:
      kernels::fused_conv_act_conv(*in[0], node.weights[0], node.weights[1], node.weights[2],
                                   node.weights[3], node.attrs.act, node.attrs.fused_has_pool,
                                   node.attrs.pool_kind, node.attrs.pool_kh, node.attrs.pool_sh,
                                   out, scratch.base, scratch.slot_floats, scratch.slots,
                                   prepacked);
      break;
  }
  // Fault injection: poison one output element the way a buggy kernel would,
  // so tests can prove check_numerics pins the offending node.
  if (fp_poison_nan.fire() && out.numel() > 0) {
    out[0] = std::numeric_limits<float>::quiet_NaN();
  }
}

/// Calls fn(node, offset, floats) for every node that packs a blob, in node
/// order, with the blob's byte offset under PackedWeights' layout rule;
/// returns the buffer size.
template <typename Fn>
std::size_t for_each_blob(const ir::Graph& graph, Fn&& fn) {
  std::size_t cursor = 0;
  for (const ir::Node& node : graph.nodes()) {
    const std::int64_t floats = PackedWeights::node_floats(node);
    if (floats == 0) continue;
    cursor = static_cast<std::size_t>(align_up(static_cast<std::int64_t>(cursor)));
    fn(node, cursor, floats);
    cursor += static_cast<std::size_t>(floats) * sizeof(float);
  }
  return cursor;
}

/// Size of the buffer that for_each_blob lays out.
std::size_t packed_buffer_bytes(const ir::Graph& graph) {
  return for_each_blob(graph, [](const ir::Node&, std::size_t, std::int64_t) {});
}

/// True when `got` is `declared` with `rows` in dimension 0; allocates nothing.
bool matches_at_rows(const Shape& got, const Shape& declared, std::int64_t rows) {
  if (got.rank() != declared.rank() || got.rank() == 0 || got[0] != rows) return false;
  return std::equal(got.dims().begin() + 1, got.dims().end(), declared.dims().begin() + 1);
}

}  // namespace

std::int64_t PackedWeights::node_floats(const ir::Node& node) {
  if (node.kind == ir::OpKind::kConv2d) {
    return kernels::conv2d_prepack_floats(node.weights[0], node.attrs.stride_h,
                                          node.attrs.stride_w, node.out_shape[3]);
  }
  if (node.kind == ir::OpKind::kFusedConvActConv) {
    return kernels::fused_prepack_floats(node.weights[0], node.weights[2]);
  }
  return 0;
}

PackedWeights PackedWeights::build(const ir::Graph& graph) {
  const std::size_t size = packed_buffer_bytes(graph);
  std::shared_ptr<unsigned char> storage = aligned_bytes(size);
  unsigned char* const base = storage.get();
  std::memset(base, 0, size);  // padding is part of the artifact bytes
  for_each_blob(graph, [&](const ir::Node& node, std::size_t offset, std::int64_t) {
    float* blob = reinterpret_cast<float*>(base + offset);
    if (node.kind == ir::OpKind::kConv2d) {
      kernels::conv2d_prepack(node.weights[0], node.attrs.stride_h, node.attrs.stride_w,
                              node.out_shape[3], blob);
    } else {
      kernels::fused_prepack(node.weights[0], node.weights[2], blob);
    }
  });
  return view(graph, std::move(storage), base, size);
}

PackedWeights PackedWeights::view(const ir::Graph& graph, std::shared_ptr<const void> owner,
                                  const unsigned char* data, std::size_t size) {
  TEMCO_CHECK(reinterpret_cast<std::uintptr_t>(data) % kTensorAlignment == 0)
      << "packed-weight buffer is not " << kTensorAlignment << "-byte aligned";
  const std::size_t expected = packed_buffer_bytes(graph);
  TEMCO_CHECK_AS(expected == size, InvalidGraphError)
      << "packed weights for this graph take " << expected << " bytes, the buffer holds "
      << size;
  PackedWeights packed;
  packed.blob_.resize(graph.size(), nullptr);
  for_each_blob(graph, [&](const ir::Node& node, std::size_t offset, std::int64_t floats) {
    packed.blob_[static_cast<std::size_t>(node.id)] = reinterpret_cast<const float*>(data + offset);
    packed.bytes += floats * static_cast<std::int64_t>(sizeof(float));
  });
  packed.owner_ = std::move(owner);
  packed.data_ = data;
  packed.buffer_bytes_ = size;
  return packed;
}

Executor::Executor(const ir::Graph& graph, ExecutorOptions options)
    : Executor(graph, options, ExecutorBinding{}) {}

Executor::Executor(const ir::Graph& graph, ExecutorOptions options, const ExecutorBinding& binding)
    : graph_(graph), options_(options) {
  graph_.verify();
  liveness_ = compute_liveness(graph_);
  dying_ = values_dying_at(graph_, liveness_);
  for (const ir::Node& node : graph_.nodes()) {
    if (node.kind == ir::OpKind::kInput) input_ids_.push_back(node.id);
  }
  batch_ = graph_.node(input_ids_.front()).out_shape[0];
  if (options_.intra_op_threads != 0) {
    // Dedicated kernel-loop pool of the configured width; run_node installs
    // it as the scoped intra-op pool so every kernel's internal parallel_for
    // lands here instead of the process-global pool.  Width 1 degenerates to
    // serial in-line execution (ThreadPool counts the caller as a lane).
    intra_pool_ = std::make_unique<ThreadPool>(options_.intra_op_threads);
  }
  if (binding.prepack != nullptr) {
    TEMCO_CHECK_AS(binding.prepack->size() == graph_.size(), InvalidGraphError)
        << "bound PackedWeights was built for a graph of " << binding.prepack->size()
        << " nodes, this graph has " << graph_.size();
    prepack_ = binding.prepack;
  } else {
    own_prepack_ = PackedWeights::build(graph_);
    prepack_ = &own_prepack_;
  }
  if (options_.use_arena) {
    bind_arena(binding);
  } else {
    TEMCO_CHECK_AS(binding.plan == nullptr && binding.slab == nullptr, InvalidGraphError)
        << "an arena binding requires ExecutorOptions::use_arena";
  }
}

void Executor::bind_arena(const ExecutorBinding& binding) {
  if (binding.plan != nullptr) {
    // Adopt a shared, pre-validated plan, perhaps packed at a wider batch of
    // this schedule.  Same live ranges and blocks that hold this graph's
    // tensors keep validate_arena_plan's pairwise guarantee; O(n) to check.
    const ArenaPlan& plan = *binding.plan;
    TEMCO_CHECK_AS(plan.blocks.size() == graph_.size(), InvalidGraphError)
        << "bound arena plan covers " << plan.blocks.size() << " values, graph has "
        << graph_.size();
    TEMCO_CHECK_AS(!options_.arena_canaries || plan.canary_bytes > 0, InvalidGraphError)
        << "arena_canaries requested but the bound plan reserved no guard bands";
    for (const ir::Node& node : graph_.nodes()) {
      const ArenaBlock& block = plan.block(node.id);
      const LiveRange& live = liveness_[static_cast<std::size_t>(node.id)];
      TEMCO_CHECK_AS(block.range.begin == live.begin && block.range.end == live.end &&
                         block.bytes >= align_up(node.out_shape.bytes()) + plan.canary_bytes,
                     InvalidGraphError)
          << node.name << ": bound arena block (live " << block.range.begin << ".."
          << block.range.end << ", " << block.bytes << " B) does not fit " << node.out_shape
          << " live " << live.begin << ".." << live.end << " plus its guard band";
    }
    plan_ = &plan;
  } else {
    ArenaOptions arena_options;
    if (options_.arena_canaries) arena_options.canary_bytes = kTensorAlignment;
    own_plan_ = plan_arena(graph_, arena_options);
    validate_arena_plan(graph_, own_plan_);
    plan_ = &own_plan_;
  }

  float* raw = nullptr;
  if (binding.slab != nullptr) {
    // Caller-owned slab (a serving session's executors share one).  The
    // caller is responsible for its initial fill; canary bands are rewritten
    // as each value comes alive, so a poison or zero fill is fine.
    TEMCO_CHECK_AS(reinterpret_cast<std::uintptr_t>(binding.slab) %
                           static_cast<std::uintptr_t>(kTensorAlignment) ==
                       0,
                   InvalidGraphError)
        << "bound slab is not " << kTensorAlignment << "-byte aligned";
    TEMCO_CHECK_AS(binding.slab_bytes >= plan_->arena_bytes, ResourceExhaustedError)
        << "bound slab of " << binding.slab_bytes << " bytes is smaller than the plan's "
        << plan_->arena_bytes;
    raw = binding.slab;
    slab_ = Buffer(raw, [](float*) {});  // non-owning: the caller frees it
  } else {
    // One aligned slab for the life of the executor.  aligned_alloc requires
    // a size that is a multiple of the alignment; arena_bytes already is.
    raw = fp_slab_oom.fire() ? nullptr
                             : static_cast<float*>(std::aligned_alloc(
                                   static_cast<std::size_t>(kTensorAlignment),
                                   static_cast<std::size_t>(plan_->arena_bytes)));
    TEMCO_CHECK_AS(raw != nullptr, ResourceExhaustedError)
        << "arena allocation of " << plan_->arena_bytes << " bytes failed";
    if (options_.arena_canaries) {
      // Poison fill: a slot read before it was ever written yields NaNs that
      // check_numerics can catch, and every guard band starts intact.
      std::memset(raw, kCanaryByte, static_cast<std::size_t>(plan_->arena_bytes));
    } else {
      std::memset(raw, 0, static_cast<std::size_t>(plan_->arena_bytes));
    }
    slab_ = Buffer(raw, [](float* p) { std::free(p); });
  }

  // Bind every value to its slab offset once; run() never allocates tensors.
  bound_.resize(graph_.size());
  for (const ir::Node& node : graph_.nodes()) {
    float* base = raw + plan_->block(node.id).offset / static_cast<std::int64_t>(sizeof(float));
    // Aliasing shared_ptr: shares the slab's control block, owns nothing new.
    bound_[static_cast<std::size_t>(node.id)] = Tensor(node.out_shape, Buffer(slab_, base));
  }
  args_.resize(graph_.size());
  for (const ir::Node& node : graph_.nodes()) {
    auto& list = args_[static_cast<std::size_t>(node.id)];
    list.reserve(node.inputs.size());
    for (const ir::ValueId in : node.inputs) {
      list.push_back(&bound_[static_cast<std::size_t>(in)]);
    }
  }

  // The arena never frees, so the internal-tensor peak cannot be measured
  // here; it is taken from the analytic planner, which the reference
  // executor matches step for step (asserted in tests).
  planned_peak_ = plan_memory(graph_).peak_internal_bytes;
}

std::int64_t Executor::check_inputs(const std::vector<Tensor>& inputs) const {
  // Up-front validation with errors naming the input node; without it a
  // mismatch would surface as an opaque TEMCO_CHECK deep inside some kernel.
  TEMCO_CHECK_AS(inputs.size() == input_ids_.size(), InvalidGraphError)
      << "expected " << input_ids_.size() << " input tensor(s) (one per kInput node), got "
      << inputs.size();
  std::int64_t rows = 0;
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    const ir::Node& node = graph_.node(input_ids_[i]);
    TEMCO_CHECK_AS(inputs[i].defined(), InvalidGraphError)
        << node.name << ": input tensor " << i << " is undefined (no storage)";
    if (i == 0 && inputs[0].shape().rank() > 0) rows = inputs[0].shape()[0];
    TEMCO_CHECK_AS(matches_at_rows(inputs[i].shape(), node.out_shape, rows), ShapeError)
        << node.name << ": input shape " << inputs[i].shape() << " != declared "
        << node.out_shape << " at batch " << rows;
  }
  TEMCO_CHECK_AS(rows >= 1 && rows <= batch_, ShapeError)
      << "input batch " << rows << " outside [1, " << batch_ << "], the graph's batch";
  return rows;
}

void Executor::check_node_output(const ir::Node& node, const Tensor& out) const {
  if (!options_.check_numerics) return;
  const float* data = out.data();
  const std::int64_t n = out.numel();
  for (std::int64_t i = 0; i < n; ++i) {
    TEMCO_CHECK_AS(std::isfinite(data[i]), NumericError)
        << node.name << " produced " << data[i] << " at element " << i << " of "
        << out.shape();
  }
}

unsigned char* Executor::band(ir::ValueId id) const {
  return reinterpret_cast<unsigned char*>(slab_.get()) + plan_->block(id).offset +
         align_up(bound_[static_cast<std::size_t>(id)].bytes());
}

void Executor::check_canary(ir::ValueId id, const ir::Node& at) {
  const unsigned char* guard = band(id);
  stomped_band_bytes_ = std::count_if(guard, guard + plan_->canary_bytes,
                                      [](unsigned char b) { return b != kCanaryByte; });
  TEMCO_CHECK_AS(stomped_band_bytes_ == 0, MemoryCorruptionError)
      << "guard band of " << graph_.node(id).name << " corrupted (" << stomped_band_bytes_
      << " byte(s)), detected freeing after node " << at.name
      << " — some kernel wrote outside its arena slot";
}

void Executor::check_outputs(const std::vector<Tensor>& outputs, std::int64_t rows) const {
  const std::vector<ir::ValueId>& outs = graph_.outputs();
  TEMCO_CHECK_AS(outputs.size() == outs.size(), InvalidGraphError)
      << "expected " << outs.size() << " output tensor(s) (one per graph output), got "
      << outputs.size();
  for (std::size_t i = 0; i < outputs.size(); ++i) {
    const ir::Node& node = graph_.node(outs[i]);
    TEMCO_CHECK_AS(outputs[i].defined(), InvalidGraphError)
        << node.name << ": output tensor " << i << " is undefined (no storage)";
    TEMCO_CHECK_AS(matches_at_rows(outputs[i].shape(), node.out_shape, rows), ShapeError)
        << node.name << ": output shape " << outputs[i].shape() << " != expected "
        << node.out_shape.with_dim(0, rows);
  }
  // Aliasing rules.  Two destination tensors sharing bytes would make the
  // result order-dependent; a destination inside the arena slab would be
  // clobbered mid-run.  Output-aliases-*input* is deliberately allowed:
  // inputs are consumed (copied into internal storage) before any output
  // byte is written.
  auto overlaps = [](const float* a_lo, const float* a_hi, const float* b_lo,
                     const float* b_hi) { return a_lo < b_hi && b_lo < a_hi; };
  for (std::size_t i = 0; i < outputs.size(); ++i) {
    const float* i_lo = outputs[i].data();
    const float* i_hi = i_lo + outputs[i].numel();
    for (std::size_t j = i + 1; j < outputs.size(); ++j) {
      const float* j_lo = outputs[j].data();
      TEMCO_CHECK_AS(!overlaps(i_lo, i_hi, j_lo, j_lo + outputs[j].numel()), InvalidGraphError)
          << "output tensors " << i << " and " << j << " alias each other";
    }
    if (options_.use_arena && slab_ != nullptr) {
      const float* s_lo = slab_.get();
      const float* s_hi = s_lo + plan_->arena_bytes / static_cast<std::int64_t>(sizeof(float));
      TEMCO_CHECK_AS(!overlaps(i_lo, i_hi, s_lo, s_hi), InvalidGraphError)
          << "output tensor " << i << " aliases the arena slab";
    }
  }
}

ExecutionResult Executor::run(const std::vector<Tensor>& inputs) {
  const std::int64_t rows = check_inputs(inputs);
  // Fresh heap destinations each run: callers may keep results across runs.
  std::vector<Tensor> outputs;
  outputs.reserve(graph_.outputs().size());
  for (const ir::ValueId out : graph_.outputs()) {
    outputs.emplace_back(Tensor::zeros(graph_.node(out).out_shape.with_dim(0, rows)));
  }
  ExecutionResult result = run_into(inputs, outputs);
  result.outputs = std::move(outputs);
  return result;
}

ExecutionResult Executor::run_into(const std::vector<Tensor>& inputs,
                                   std::vector<Tensor>& outputs) {
  const std::int64_t rows = check_inputs(inputs);
  check_outputs(outputs, rows);
  ExecutionResult result;
  run_dispatch(inputs, outputs, rows, result);
  return result;
}

void Executor::run_dispatch(const std::vector<Tensor>& inputs, std::vector<Tensor>& outputs,
                            std::int64_t rows, ExecutionResult& result) {
  // Admission check: a run whose token already stopped never starts.  The
  // per-node polls below bound how much work an in-flight stop can waste.
  if (options_.cancel != nullptr) options_.cancel->raise_if_stopped();
  if (options_.use_arena) {
    run_arena(inputs, outputs, rows, result);
  } else {
    run_reference(inputs, outputs, rows, result);
  }
}

void Executor::run_reference(const std::vector<Tensor>& inputs, std::vector<Tensor>& outputs,
                             std::int64_t rows, ExecutionResult& result) {
  TrackingAllocator allocator;
  std::vector<Tensor> values(graph_.size());
  std::vector<const Tensor*> args;
  result.timeline.reserve(graph_.size());
  Timer timer;

  for (const ir::Node& node : graph_.nodes()) {
    if (options_.cancel != nullptr) options_.cancel->raise_if_stopped();
    const std::size_t slot = static_cast<std::size_t>(node.id);
    if (node.kind == ir::OpKind::kInput) {
      // Copy the caller's input into tracked storage: the input batch is an
      // internal tensor and occupies framework memory during inference.
      const std::size_t pos = static_cast<std::size_t>(
          std::find(input_ids_.begin(), input_ids_.end(), node.id) - input_ids_.begin());
      Tensor tracked(inputs[pos].shape(), allocator.allocate(inputs[pos].numel()));
      std::copy(inputs[pos].span().begin(), inputs[pos].span().end(), tracked.span().begin());
      values[slot] = std::move(tracked);
    } else {
      args.clear();
      for (std::size_t i = 0; i < node.inputs.size(); ++i) {
        const Tensor& t = values[static_cast<std::size_t>(node.inputs[i])];
        TEMCO_CHECK(t.defined()) << node.name << ": input " << i << " was freed too early";
        args.push_back(&t);
      }
      const Shape shape = node.out_shape.with_dim(0, rows);
      Tensor out(shape, allocator.allocate(shape.numel()));
      run_node(node, args, out, FusedScratch{}, prepack_->blob(node.id), intra_pool_.get());
      check_node_output(node, out);
      values[slot] = std::move(out);
    }
    const std::int64_t during = allocator.live_bytes();
    // Free everything whose last use has now passed (outputs are kept by the
    // liveness table until the final step, then returned to the caller).
    for (const ir::ValueId dead : dying_[slot]) {
      if (!graph_.is_output(dead)) values[static_cast<std::size_t>(dead)] = Tensor();
    }
    result.timeline.push_back(StepTrace{node.id, allocator.live_bytes(), during});
  }

  result.wall_seconds = timer.elapsed_seconds();
  result.peak_internal_bytes = allocator.peak_bytes();
  result.weight_bytes = graph_.total_weight_bytes();
  result.packed_weight_bytes = prepack_->bytes;
  result.heap_allocations = allocator.total_allocations();
  // Copy outputs into the caller's destinations: the tracked buffers'
  // deleters reference the stack-local allocator and must not outlive this
  // frame.
  for (std::size_t i = 0; i < outputs.size(); ++i) {
    const Tensor& src = values[static_cast<std::size_t>(graph_.outputs()[i])];
    std::memcpy(outputs[i].data(), src.data(), static_cast<std::size_t>(src.bytes()));
  }
}

void Executor::run_arena(const std::vector<Tensor>& inputs, std::vector<Tensor>& outputs,
                         std::int64_t rows, ExecutionResult& result) {
  if (bound_.front().shape()[0] != rows) {
    // Every value's leading dimension is the batch, and its first `rows`
    // rows are a prefix of its block: re-view each bound tensor in place.
    for (Tensor& view : bound_) view.set_rows(rows);
  }
  stomped_band_bytes_ = 0;
  const FusedScratch scratch{
      slab_.get() + plan_->scratch_offset / static_cast<std::int64_t>(sizeof(float)),
      plan_->scratch_slot_bytes / static_cast<std::int64_t>(sizeof(float)),
      plan_->scratch_slots};
  Timer timer;

  const bool canaries = options_.arena_canaries && plan_->canary_bytes > 0;
  for (const ir::Node& node : graph_.nodes()) {
    if (options_.cancel != nullptr) options_.cancel->raise_if_stopped();
    const std::size_t slot = static_cast<std::size_t>(node.id);
    // The band must be (re)written when the value comes alive: its bytes may
    // have served as another value's payload earlier in this run.
    if (canaries) {
      std::memset(band(node.id), kCanaryByte, static_cast<std::size_t>(plan_->canary_bytes));
    }
    if (node.kind == ir::OpKind::kInput) {
      const std::size_t pos = static_cast<std::size_t>(
          std::find(input_ids_.begin(), input_ids_.end(), node.id) - input_ids_.begin());
      std::copy(inputs[pos].span().begin(), inputs[pos].span().end(),
                bound_[slot].span().begin());
    } else {
      run_node(node, args_[slot], bound_[slot], scratch, prepack_->blob(node.id), intra_pool_.get());
      check_node_output(node, bound_[slot]);
    }
    if (canaries && fp_oob_write.fire()) {
      // Simulated kernel bug: write the first aligned byte past this run's
      // rows of the node's output.
      Tensor& out = bound_[slot];
      reinterpret_cast<unsigned char*>(out.data())[align_up(out.bytes())] = 0;
    }
    // Free time: verify the guard band of every value that dies here (graph
    // outputs die at the last step, so they are covered too).
    if (canaries) {
      for (const ir::ValueId dead : dying_[slot]) check_canary(dead, node);
    }
  }

  result.wall_seconds = timer.elapsed_seconds();
  result.peak_internal_bytes = planned_peak_;
  result.weight_bytes = graph_.total_weight_bytes();
  result.packed_weight_bytes = prepack_->bytes;
  result.arena_bytes = plan_->arena_bytes;
  result.heap_allocations = 0;
  // Outputs are copied out of the slab (it is overwritten by the next run).
  for (std::size_t i = 0; i < outputs.size(); ++i) {
    const Tensor& src = bound_[static_cast<std::size_t>(graph_.outputs()[i])];
    std::memcpy(outputs[i].data(), src.data(), static_cast<std::size_t>(src.bytes()));
  }
}

ExecutionResult execute(const ir::Graph& graph, const std::vector<Tensor>& inputs,
                        ExecutorOptions options) {
  return Executor(graph, options).run(inputs);
}

}  // namespace temco::runtime
