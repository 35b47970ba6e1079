// Batch-dimension audit: the serving runtime's bit-determinism contract.
//
// The micro-batcher (src/serve) coalesces k batch-1 requests into one
// batch-k execution and splits the output rows back per request.  That is
// only invisible to clients if
//   batched(x₁ … xₖ) == concat(run(x₁) … run(xₖ))    bit for bit,
// which holds because every kernel fixes each output element's accumulation
// order by geometry alone, independent of the batch count (the batch loop is
// outermost everywhere, and the GEMM engine decomposes each batch item
// identically whether it runs alone or as row b of a batch).  This harness
// proves the property across the model zoo on original, decomposed, and
// TeMCO-optimized graphs, for both executor regimes — and proves the other
// pillar of the compile-once artifact: one PackedWeights built from the
// batch-1 variant drives every batch variant to bit-identical outputs.
#include <gtest/gtest.h>

#include <cstring>

#include "core/temco.hpp"
#include "decomp/pass.hpp"
#include "ir/graph.hpp"
#include "models/zoo.hpp"
#include "runtime/executor.hpp"
#include "support/rng.hpp"
#include "tensor/compare.hpp"

namespace temco {
namespace {

using ir::Graph;

/// Batch-1 template config, sized like the other zoo harnesses so the whole
/// suite stays fast.
models::ModelConfig unit_config() {
  models::ModelConfig config;
  config.batch = 1;
  config.image = 32;
  config.width = 0.125;
  config.classes = 10;
  config.seed = 17;
  return config;
}

/// Stacks k same-shaped batch-1 tensors into one batch-k tensor.
Tensor stack_rows(const std::vector<Tensor>& singles) {
  const Shape row_shape = singles.front().shape();
  const std::int64_t row = row_shape.numel();
  Tensor out = Tensor::zeros(row_shape.with_dim(0, static_cast<std::int64_t>(singles.size())));
  for (std::size_t r = 0; r < singles.size(); ++r) {
    std::memcpy(out.data() + static_cast<std::int64_t>(r) * row, singles[r].data(),
                static_cast<std::size_t>(row) * sizeof(float));
  }
  return out;
}

/// Asserts row r of `batched` equals `single` exactly.
void expect_row_equal(const Tensor& batched, std::size_t r, const Tensor& single,
                      const std::string& label) {
  const std::int64_t row = single.numel();
  const float* got = batched.data() + static_cast<std::int64_t>(r) * row;
  const float* want = single.data();
  for (std::int64_t i = 0; i < row; ++i) {
    ASSERT_EQ(got[i], want[i]) << label << ": batch row " << r << " differs at element " << i;
  }
}

/// batched(x₁…xₖ) vs concat(run(x₁)…run(xₖ)), bit for bit, one graph.
void check_batched_equals_concat(const Graph& b1, const std::string& label, bool use_arena) {
  constexpr std::size_t kBatch = 3;  // deliberately not a power of two
  const Graph bk = ir::rebatched(b1, kBatch);

  Rng rng(4242);
  std::vector<std::vector<Tensor>> singles(kBatch);
  for (const auto& node : b1.nodes()) {
    if (node.kind != ir::OpKind::kInput) continue;
    for (std::size_t r = 0; r < kBatch; ++r) {
      singles[r].push_back(Tensor::random_normal(node.out_shape, rng));
    }
  }
  std::vector<Tensor> batched_inputs;
  for (std::size_t i = 0; i < singles.front().size(); ++i) {
    std::vector<Tensor> column;
    for (std::size_t r = 0; r < kBatch; ++r) column.push_back(singles[r][i]);
    batched_inputs.push_back(stack_rows(column));
  }

  runtime::ExecutorOptions options;
  options.use_arena = use_arena;
  runtime::Executor single_exec(b1, options);
  runtime::Executor batch_exec(bk, options);

  std::vector<runtime::ExecutionResult> single_results;
  for (std::size_t r = 0; r < kBatch; ++r) single_results.push_back(single_exec.run(singles[r]));
  const auto batch_result = batch_exec.run(batched_inputs);

  ASSERT_EQ(batch_result.outputs.size(), single_results.front().outputs.size()) << label;
  for (std::size_t o = 0; o < batch_result.outputs.size(); ++o) {
    for (std::size_t r = 0; r < kBatch; ++r) {
      expect_row_equal(batch_result.outputs[o], r, single_results[r].outputs[o],
                       label + "/output " + std::to_string(o));
    }
  }
}

class ZooBatchedTest : public ::testing::TestWithParam<const char*> {};

TEST_P(ZooBatchedTest, BatchedEqualsConcatOfSingles) {
  const auto& spec = models::find_model(GetParam());
  const Graph original = spec.build(unit_config());
  check_batched_equals_concat(original, spec.name + "/original", /*use_arena=*/true);

  const Graph decomposed = decomp::decompose(original, {.ratio = 0.25}).graph;
  check_batched_equals_concat(decomposed, spec.name + "/decomposed", /*use_arena=*/true);

  // The serving configuration: fused kernels, restore copies, the works —
  // checked on both regimes since serving sessions run the arena path.
  const Graph optimized = core::optimize(decomposed, {});
  check_batched_equals_concat(optimized, spec.name + "/optimized", /*use_arena=*/false);
  check_batched_equals_concat(optimized, spec.name + "/optimized", /*use_arena=*/true);
}

INSTANTIATE_TEST_SUITE_P(AllModels, ZooBatchedTest,
                         ::testing::Values("alexnet", "vgg11", "vgg16", "vgg19", "resnet18",
                                           "resnet34", "densenet121", "densenet169", "unet",
                                           "unet_half"));

TEST(RebatchedTest, RestampsInputsAndSharesWeightStorage) {
  const Graph b1 = models::build_resnet(18, unit_config());
  const Graph b4 = ir::rebatched(b1, 4);
  ASSERT_EQ(b4.size(), b1.size());
  for (std::size_t i = 0; i < b1.size(); ++i) {
    const auto id = static_cast<ir::ValueId>(i);
    const ir::Node& a = b1.node(id);
    const ir::Node& b = b4.node(id);
    EXPECT_EQ(b.out_shape[0], 4) << a.name << ": batch dim not restamped";
    ASSERT_EQ(a.weights.size(), b.weights.size());
    for (std::size_t w = 0; w < a.weights.size(); ++w) {
      EXPECT_EQ(a.weights[w].data(), b.weights[w].data())
          << a.name << ": weight " << w << " was deep-copied, variants should share storage";
    }
  }
  EXPECT_THROW(ir::rebatched(b1, 0), ShapeError);
}

TEST(PackedWeightsTest, OnePackingServesEveryBatchVariant) {
  const auto config = unit_config();
  const Graph b1 = core::optimize(
      decomp::decompose(models::build_vgg(11, config), {.ratio = 0.25}).graph, {});
  const Graph b4 = ir::rebatched(b1, 4);

  // Packing depends on weights and output width only, so the batch-1 build
  // must drive the batch-4 executor to the exact bytes its own build would.
  const runtime::PackedWeights shared = runtime::PackedWeights::build(b1);
  runtime::ExecutorBinding binding;
  binding.prepack = &shared;
  runtime::Executor bound(b4, {.use_arena = true}, binding);
  runtime::Executor own(b4, {.use_arena = true});

  Rng rng(99);
  const Tensor input = Tensor::random_normal(Shape{4, 3, config.image, config.image}, rng);
  const auto a = bound.run({input});
  const auto b = own.run({input});
  ASSERT_EQ(a.outputs.size(), b.outputs.size());
  for (std::size_t i = 0; i < a.outputs.size(); ++i) {
    EXPECT_EQ(max_abs_diff(a.outputs[i], b.outputs[i]), 0.0f);
  }
  EXPECT_EQ(a.packed_weight_bytes, b.packed_weight_bytes);
}

TEST(ArenaPlanBindingTest, WidestPlanBindsNarrowerBatchesOnly) {
  const auto config = unit_config();
  const Graph b1 = core::optimize(
      decomp::decompose(models::build_resnet(18, config), {.ratio = 0.25}).graph, {});
  const Graph b4 = ir::rebatched(b1, 4);
  const runtime::ArenaPlan wide = runtime::plan_arena(b4, {.canary_bytes = kTensorAlignment});
  const runtime::ArenaPlan narrow = runtime::plan_arena(b1, {.canary_bytes = kTensorAlignment});
  const runtime::ExecutorOptions options{.use_arena = true, .arena_canaries = true};

  // Liveness is the schedule's and blocks only shrink with the batch, so the
  // batch-4 plan runs batch 1 to the bytes of batch 1's own plan.
  runtime::ExecutorBinding binding;
  binding.plan = &wide;
  runtime::Executor bound(b1, options, binding);
  EXPECT_EQ(bound.arena_plan(), &wide) << "a bound plan is kept by pointer, not copied";
  runtime::Executor own(b1, options);
  Rng rng(5);
  const Tensor input = Tensor::random_normal(Shape{1, 3, config.image, config.image}, rng);
  const auto a = bound.run({input});
  const auto b = own.run({input});
  ASSERT_EQ(a.outputs.size(), b.outputs.size());
  for (std::size_t i = 0; i < a.outputs.size(); ++i) {
    EXPECT_TRUE(bitwise_equal(a.outputs[i], b.outputs[i])) << "output " << i;
  }

  // The reverse does not fit: batch 1's blocks cannot hold batch 4's tensors.
  binding.plan = &narrow;
  EXPECT_THROW(runtime::Executor(b4, options, binding), InvalidGraphError);

  // Nor does a plan whose live ranges are another schedule's.
  runtime::ArenaPlan reordered = wide;
  reordered.blocks[1].range.end += 1;
  binding.plan = &reordered;
  EXPECT_THROW(runtime::Executor(b4, options, binding), InvalidGraphError);
}

}  // namespace
}  // namespace temco
