#include "serve/compiled_model.hpp"

#include <utility>

#include "kernels/gemm.hpp"
#include "runtime/budget.hpp"
#include "support/align.hpp"
#include "support/log.hpp"

namespace temco::serve {

namespace {

runtime::ArenaOptions arena_options(const CompileOptions& options) {
  runtime::ArenaOptions arena;
  if (options.arena_canaries) arena.canary_bytes = kTensorAlignment;
  return arena;
}

}  // namespace

std::shared_ptr<const CompiledModel> CompiledModel::compile(const ir::Graph& graph,
                                                            CompileOptions options) {
  TEMCO_CHECK_AS(options.max_batch >= 1, InvalidGraphError)
      << "max_batch must be >= 1, got " << options.max_batch;

  auto model = std::shared_ptr<CompiledModel>(new CompiledModel());
  model->options_ = options;

  // Normalize to the batch-1 template, then run the pipeline once.  Every
  // rewrite decision (skip thresholds, fusion legality, transform choices)
  // is batch-independent, so optimizing at batch 1 and restamping is
  // equivalent to optimizing each variant — minus max_batch-1 pipeline runs.
  ir::Graph base = ir::rebatched(graph, 1);
  if (options.optimize) base = core::optimize(base, options.temco, &model->stats_);
  base.verify();

  const std::int64_t budget = options.max_arena_bytes;
  if (budget > 0) {
    // Search the widest variant: its plan is the slab every session allocates.
    // The budget-meeting order (remat duplicates included) de-batches back to
    // the batch-1 template, so every restamped variant inherits the schedule.
    ir::Graph widest = options.max_batch == 1
                           ? base
                           : ir::rebatched(base, static_cast<std::int64_t>(options.max_batch));
    runtime::BudgetOptions budget_options;
    budget_options.max_bytes = budget;
    budget_options.arena = arena_options(options);
    runtime::BudgetScheduleResult scheduled = runtime::schedule_for_budget(widest, budget_options);
    TEMCO_CHECK_AS(scheduled.met, ResourceExhaustedError)
        << "arena budget of " << budget << " B is unmeetable at batch " << options.max_batch
        << ": best achievable slab is " << scheduled.achieved_arena_bytes << " B ("
        << scheduled.remat_nodes << " rematerialized node(s), predicted slowdown "
        << scheduled.predicted_slowdown << "x)";
    base = options.max_batch == 1 ? std::move(scheduled.graph)
                                  : ir::rebatched(scheduled.graph, 1);
    base.verify();
  }

  model->stamp_variants(std::move(base));

  // One packing serves all variants: it depends on weight contents and
  // output width only, and the variants share weight tensors by handle.
  model->prepack_ = runtime::PackedWeights::build(model->variants_.front());

  // Provenance stamp: which kernel tier compiled this artifact and which
  // packed-panel layout its blobs use (revalidate_kernel_dispatch).
  model->kernel_isa_ = kernels::gemm::active_isa();
  model->pack_layout_version_ = kernels::gemm::kPackLayoutVersion;
  return model;
}

void CompiledModel::stamp_variants(ir::Graph base) {
  variants_.reserve(options_.max_batch);
  variants_.push_back(std::move(base));
  for (std::size_t k = 2; k <= options_.max_batch; ++k) {
    variants_.push_back(ir::rebatched(variants_.front(), static_cast<std::int64_t>(k)));
  }

  // Liveness is the schedule's and blocks only shrink with the batch, so the
  // widest variant's plan serves every variant (Executor::bind_arena checks).
  const ir::Graph& widest = variants_.back();
  plan_ = runtime::plan_arena(widest, arena_options(options_));  // verifies `widest` first
  runtime::validate_arena_plan(widest, plan_);

  // A budgeted schedule met the budget at max_batch when it was searched,
  // and batch restamping preserves the order, but the slab is the contract
  // sessions size by — and fused-kernel scratch scales with this process's
  // pool width — so it is re-checked, not assumed.
  const std::int64_t budget = options_.max_arena_bytes;
  TEMCO_CHECK_AS(budget <= 0 || slab_bytes() <= budget, ResourceExhaustedError)
      << "validated slab of " << slab_bytes() << " B exceeds the arena budget of " << budget
      << " B";

  const ir::Graph& b1 = variants_.front();
  weight_bytes_ = b1.total_weight_bytes();
  for (const ir::Node& node : b1.nodes()) {
    if (node.kind == ir::OpKind::kInput) input_shapes_.push_back(node.out_shape);
  }
  for (const ir::ValueId out : b1.outputs()) {
    output_shapes_.push_back(b1.node(out).out_shape);
  }
}

void CompiledModel::revalidate_kernel_dispatch() const {
  kernels::gemm::check_pack_layout(pack_layout_version_);
  const support::Isa active = kernels::gemm::active_isa();
  if (active != kernel_isa_) {
    TEMCO_WARN() << "kernel-isa-drift: artifact compiled under "
                 << support::isa_name(kernel_isa_) << ", dispatch now resolves to "
                 << support::isa_name(active)
                 << "; packed layout is ISA-independent, results are ULP-compatible";
  }
}

bool CompiledModel::compatible(const std::vector<Tensor>& inputs) const {
  if (inputs.size() != input_shapes_.size()) return false;
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    if (!inputs[i].defined() || !(inputs[i].shape() == input_shapes_[i])) return false;
  }
  return true;
}

void CompiledModel::check_compatible(const std::vector<Tensor>& inputs) const {
  TEMCO_CHECK_AS(inputs.size() == input_shapes_.size(), InvalidGraphError)
      << "request carries " << inputs.size() << " input tensor(s), model expects "
      << input_shapes_.size();
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    TEMCO_CHECK_AS(inputs[i].defined(), InvalidGraphError)
        << "request input " << i << " is undefined (no storage)";
    TEMCO_CHECK_AS(inputs[i].shape() == input_shapes_[i], ShapeError)
        << "request input " << i << " has shape " << inputs[i].shape()
        << ", model expects the batch-1 template " << input_shapes_[i];
  }
}

}  // namespace temco::serve
