// End-to-end pipeline tests over the model zoo: TeMCO must preserve the
// decomposed model's outputs exactly (up to float reassociation) while
// reducing planned peak internal-tensor memory — the paper's two headline
// claims, asserted on every evaluated architecture.
#include <gtest/gtest.h>

#include "core/temco.hpp"
#include "decomp/pass.hpp"
#include "models/zoo.hpp"
#include "runtime/executor.hpp"
#include "runtime/planner.hpp"
#include "support/checksum.hpp"
#include "support/rng.hpp"
#include "tensor/compare.hpp"

namespace temco {
namespace {

models::ModelConfig tiny_config() {
  models::ModelConfig config;
  config.batch = 2;
  config.image = 32;
  config.width = 0.25;
  config.classes = 10;
  config.seed = 77;
  return config;
}

class ZooPipelineTest : public ::testing::TestWithParam<const char*> {};

TEST_P(ZooPipelineTest, OptimizationPreservesSemanticsAndReducesMemory) {
  const auto& spec = models::find_model(GetParam());
  const auto config = tiny_config();
  const auto original = spec.build(config);

  decomp::DecomposeOptions d_options;
  d_options.ratio = 0.25;  // tiny widths need a workable rank
  const auto decomposed = decomp::decompose(original, d_options);
  ASSERT_GT(decomposed.num_decomposed, 0) << spec.name;

  core::OptimizeStats stats;
  const auto optimized = core::optimize(decomposed.graph, {}, &stats);

  // Semantics: identical outputs on a random batch.
  Rng rng(500);
  const Tensor input =
      Tensor::random_normal(Shape{config.batch, 3, config.image, config.image}, rng);
  const auto out_decomposed = runtime::execute(decomposed.graph, {input}).outputs[0];
  const auto out_optimized = runtime::execute(optimized, {input}).outputs[0];
  ASSERT_EQ(out_decomposed.shape(), out_optimized.shape());
  // Rewrites reassociate float sums (splits/merges/fused kernels), so compare
  // in relative terms; bitwise equality is not the claim, prediction
  // equivalence is (checked separately below via top-1 agreement).
  EXPECT_LT(relative_error(out_decomposed, out_optimized), 1e-3)
      << spec.name << ": TeMCO changed the model's outputs";

  // Memory: planned peak must never regress.  Strict improvement is required
  // for the families whose peak TeMCO can reach at this scale; AlexNet at
  // reduced width is input-tensor-bound and ResNet's peak sits at the stem
  // transient feeding the (non-fusable) add shortcut — both documented in
  // EXPERIMENTS.md, and AlexNet is covered at full width below.
  const auto plan_before = runtime::plan_memory(decomposed.graph);
  const auto plan_after = runtime::plan_memory(optimized);
  EXPECT_LE(plan_after.peak_internal_bytes, plan_before.peak_internal_bytes) << spec.name;
  EXPECT_LE(plan_after.peak_with_scratch, plan_before.peak_with_scratch) << spec.name;
  const bool peak_reachable = spec.name != "alexnet" && spec.family != "ResNet";
  if (peak_reachable) {
    EXPECT_LT(plan_after.peak_with_scratch, plan_before.peak_with_scratch)
        << spec.name << ": no internal-tensor peak reduction";
  }
  EXPECT_GT(stats.fused_kernels, 0) << spec.name;
}

INSTANTIATE_TEST_SUITE_P(AllModels, ZooPipelineTest,
                         ::testing::Values("alexnet", "vgg11", "vgg16", "vgg19", "resnet18",
                                           "resnet34", "densenet121", "unet", "unet_half"));

TEST(ZooPipelineTest, AlexNetFullWidthPeakShrinks) {
  // At the paper's channel widths AlexNet's conv1/relu pair dominates the
  // input tensor, and fusion removes it (the 49.4% bar of Fig. 10).
  models::ModelConfig config;
  config.batch = 2;
  config.image = 32;
  config.width = 1.0;
  config.classes = 10;
  const auto decomposed = decomp::decompose(models::build_alexnet(config), {.ratio = 0.1});
  const auto optimized = core::optimize(decomposed.graph, {});
  const auto before = runtime::plan_memory(decomposed.graph);
  const auto after = runtime::plan_memory(optimized);
  EXPECT_LT(after.peak_with_scratch, before.peak_with_scratch);
}

TEST(PipelineStatsTest, VggGetsFusionOnly) {
  const auto config = tiny_config();
  const auto decomposed = decomp::decompose(models::build_vgg(11, config), {.ratio = 0.25});
  core::OptimizeStats stats;
  core::optimize(decomposed.graph, {}, &stats);
  EXPECT_GT(stats.fused_kernels, 0);
  // VGG has no skip connections to optimize.
  EXPECT_EQ(stats.skips_optimized, 0);
}

TEST(PipelineStatsTest, UnetGetsSkipOptAndFusion) {
  const auto config = tiny_config();
  const auto decomposed = decomp::decompose(models::build_unet(false, config), {.ratio = 0.25});
  core::OptimizeStats stats;
  core::optimize(decomposed.graph, {}, &stats);
  EXPECT_GT(stats.skips_optimized, 0) << "UNet skip connections must be optimized";
  EXPECT_GT(stats.fused_kernels, 0);
  EXPECT_GT(stats.restore_copies_inserted, 0);
}

TEST(PipelineStatsTest, DenseNetUsesTransforms) {
  const auto config = tiny_config();
  const auto decomposed =
      decomp::decompose(models::build_densenet(121, config), {.ratio = 0.25});
  core::OptimizeStats stats;
  core::optimize(decomposed.graph, {}, &stats);
  EXPECT_GT(stats.skips_optimized, 0);
  EXPECT_GT(stats.concat_splits + stats.lconv_merges, 0)
      << "DenseNet concats must be transformed";
}

/// FNV-1a over each node's (kind, name, input ids) in schedule order.
/// Weights are left out, so the value is the same on every ISA tier.
std::uint64_t structure_hash(const ir::Graph& graph) {
  std::uint64_t hash = support::kFnv1a64Seed;
  for (const ir::Node& node : graph.nodes()) {
    const auto kind = static_cast<std::uint8_t>(node.kind);
    const std::uint64_t name_bytes = node.name.size();
    const std::uint64_t arity = node.inputs.size();
    hash = support::fnv1a64(&kind, sizeof(kind), hash);
    hash = support::fnv1a64(&name_bytes, sizeof(name_bytes), hash);
    hash = support::fnv1a64(node.name.data(), node.name.size(), hash);
    hash = support::fnv1a64(&arity, sizeof(arity), hash);
    hash = support::fnv1a64(node.inputs.data(), node.inputs.size() * sizeof(ir::ValueId), hash);
  }
  return hash;
}

struct PinnedStructure {
  const char* model;
  std::size_t nodes;
  std::uint64_t hash;
  core::OptimizeStats stats;
};

// The exact optimized structure at the test zoo config.  Any change to which
// matches the rewrite driver (core/rebuild.hpp) applies, or where it emits
// them, shows here as a different node list or stats line.
TEST(PipelineStatsTest, OptimizedStructureIsPinned) {
  const PinnedStructure pinned[] = {
      {"densenet121", 1318, 0x3ea2e562ce737d65ull, {58, 55, 3, 0, 0, 972, 57, 0, 0, 526, 0}},
      {"unet_half", 42, 0x1e4b702854274ccaull, {3, 3, 0, 0, 0, 6, 0, 3, 3, 17, 0}},
  };
  for (const PinnedStructure& want : pinned) {
    SCOPED_TRACE(want.model);
    const auto decomposed =
        decomp::decompose(models::find_model(want.model).build(tiny_config()), {.ratio = 0.25});
    core::OptimizeStats got;
    const auto optimized = core::optimize(decomposed.graph, {}, &got);
    EXPECT_EQ(want.nodes, optimized.size());
    EXPECT_EQ(want.hash, structure_hash(optimized));
    EXPECT_EQ(want.stats.skips_found, got.skips_found);
    EXPECT_EQ(want.stats.skips_optimized, got.skips_optimized);
    EXPECT_EQ(want.stats.skips_rejected_structure, got.skips_rejected_structure);
    EXPECT_EQ(want.stats.skips_rejected_compute, got.skips_rejected_compute);
    EXPECT_EQ(want.stats.skips_rejected_memory, got.skips_rejected_memory);
    EXPECT_EQ(want.stats.restore_copies_inserted, got.restore_copies_inserted);
    EXPECT_EQ(want.stats.concat_splits, got.concat_splits);
    EXPECT_EQ(want.stats.lconv_merges, got.lconv_merges);
    EXPECT_EQ(want.stats.upsample_commutes, got.upsample_commutes);
    EXPECT_EQ(want.stats.fused_kernels, got.fused_kernels);
    EXPECT_EQ(want.stats.dce_removed, got.dce_removed);
  }
}

TEST(PipelineOptionsTest, PassesCanBeDisabledIndependently) {
  const auto config = tiny_config();
  const auto decomposed = decomp::decompose(models::build_unet(true, config), {.ratio = 0.25});

  core::TemcoOptions fusion_only;
  fusion_only.enable_skip_opt = false;
  fusion_only.enable_transforms = false;
  core::OptimizeStats stats;
  const auto g = core::optimize(decomposed.graph, fusion_only, &stats);
  EXPECT_EQ(stats.skips_optimized, 0);
  EXPECT_EQ(stats.concat_splits + stats.lconv_merges, 0);
  EXPECT_GT(stats.fused_kernels, 0);

  // Still semantics-preserving.
  Rng rng(501);
  const Tensor input =
      Tensor::random_normal(Shape{config.batch, 3, config.image, config.image}, rng);
  const auto a = runtime::execute(decomposed.graph, {input}).outputs[0];
  const auto b = runtime::execute(g, {input}).outputs[0];
  EXPECT_LT(max_abs_diff(a, b), 2e-3f);
}

TEST(PipelineIdempotenceTest, SecondOptimizeIsNoOp) {
  const auto config = tiny_config();
  const auto decomposed = decomp::decompose(models::build_vgg(11, config), {.ratio = 0.25});
  const auto once = core::optimize(decomposed.graph, {});
  core::OptimizeStats stats;
  const auto twice = core::optimize(once, {}, &stats);
  EXPECT_EQ(stats.fused_kernels, 0);
  EXPECT_EQ(stats.skips_optimized, 0);
  EXPECT_EQ(twice.size(), once.size());
}

struct MethodCase {
  decomp::Method method;
  const char* model;
};

/// Prints a case as its method and model, e.g. "cp_vgg11".  CMake's test
/// discovery puts the printed parameter in place of the case index, so ctest
/// lists ".../CpAndTtDecompositionsAlsoOptimize/cp_vgg11".  (A gtest name
/// generator would leave a "# GetParam() = ..." tail on the ctest name.)
void PrintTo(const MethodCase& c, std::ostream* os) {
  *os << (c.method == decomp::Method::kCp ? "cp_" : "tt_") << c.model;
}

class MethodPipelineTest : public ::testing::TestWithParam<MethodCase> {};

TEST_P(MethodPipelineTest, CpAndTtDecompositionsAlsoOptimize) {
  // §5: TeMCO applies to any decomposition that yields factor-matrix 1×1
  // convs around core convolutions — exercise CP (depthwise cores) and TT
  // (separable Kh×1 / 1×Kw cores) end to end on real models.
  const MethodCase p = GetParam();
  const auto config = tiny_config();
  const auto original = models::find_model(p.model).build(config);

  decomp::DecomposeOptions options;
  options.method = p.method;
  options.ratio = 0.25;
  options.cp_iterations = 8;  // speed; fit quality is irrelevant here
  const auto decomposed = decomp::decompose(original, options);
  ASSERT_GT(decomposed.num_decomposed, 0);

  core::OptimizeStats stats;
  const auto optimized = core::optimize(decomposed.graph, {}, &stats);
  EXPECT_GT(stats.fused_kernels, 0) << p.model;

  Rng rng(600);
  const Tensor input =
      Tensor::random_normal(Shape{config.batch, 3, config.image, config.image}, rng);
  const auto a = runtime::execute(decomposed.graph, {input}).outputs[0];
  const auto b = runtime::execute(optimized, {input}).outputs[0];
  EXPECT_LT(relative_error(a, b), 1e-3) << p.model;

  const auto before = runtime::plan_memory(decomposed.graph);
  const auto after = runtime::plan_memory(optimized);
  EXPECT_LE(after.peak_with_scratch, before.peak_with_scratch) << p.model;
}

INSTANTIATE_TEST_SUITE_P(Methods, MethodPipelineTest,
                         ::testing::Values(MethodCase{decomp::Method::kCp, "vgg11"},
                                           MethodCase{decomp::Method::kCp, "unet_half"},
                                           MethodCase{decomp::Method::kTt, "vgg11"},
                                           MethodCase{decomp::Method::kTt, "unet_half"},
                                           MethodCase{decomp::Method::kTt, "resnet18"}));

TEST(MultiIoTest, ExecutorHandlesMultipleInputsAndOutputs) {
  ir::Graph g;
  Rng rng(601);
  const auto a = g.input(Shape{1, 2, 4, 4}, "a");
  const auto b = g.input(Shape{1, 2, 4, 4}, "b");
  const auto sum = g.add({a, b}, "sum");
  const auto act = g.relu(sum, "act");
  const auto pooled = g.pool(act, ir::PoolKind::kAvg, 2, 2, "pooled");
  g.set_outputs({act, pooled});
  g.infer_shapes();

  const Tensor ta = Tensor::random_normal(Shape{1, 2, 4, 4}, rng);
  const Tensor tb = Tensor::random_normal(Shape{1, 2, 4, 4}, rng);
  const auto result = runtime::execute(g, {ta, tb});
  ASSERT_EQ(result.outputs.size(), 2u);
  for (std::int64_t i = 0; i < ta.numel(); ++i) {
    const float expected = std::max(0.0f, ta[i] + tb[i]);
    EXPECT_FLOAT_EQ(result.outputs[0][i], expected);
  }
  EXPECT_EQ(result.outputs[1].shape(), (Shape{1, 2, 2, 2}));

  // Optimizing a multi-output graph must keep both outputs intact.
  const auto optimized = core::optimize(g, {});
  const auto result2 = runtime::execute(optimized, {ta, tb});
  ASSERT_EQ(result2.outputs.size(), 2u);
  EXPECT_EQ(max_abs_diff(result.outputs[0], result2.outputs[0]), 0.0f);
  EXPECT_EQ(max_abs_diff(result.outputs[1], result2.outputs[1]), 0.0f);
}

TEST(AccuracyAgreementTest, TopKAgreementIsTotal) {
  // Fig. 12 substitution: the optimized model must rank classes identically
  // to the decomposed model (hence identical top-5 accuracy on any dataset).
  const auto config = tiny_config();
  const auto decomposed = decomp::decompose(models::build_alexnet(config), {.ratio = 0.25});
  const auto optimized = core::optimize(decomposed.graph, {});

  Rng rng(502);
  for (int trial = 0; trial < 5; ++trial) {
    const Tensor input =
        Tensor::random_normal(Shape{config.batch, 3, config.image, config.image}, rng);
    const auto a = runtime::execute(decomposed.graph, {input}).outputs[0];
    const auto b = runtime::execute(optimized, {input}).outputs[0];
    for (std::int64_t n = 0; n < config.batch; ++n) {
      std::int64_t arg_a = 0;
      std::int64_t arg_b = 0;
      for (std::int64_t c = 1; c < config.classes; ++c) {
        if (a.at(n, c) > a.at(n, arg_a)) arg_a = c;
        if (b.at(n, c) > b.at(n, arg_b)) arg_b = c;
      }
      EXPECT_EQ(arg_a, arg_b) << "top-1 disagreement, trial " << trial;
    }
  }
}

}  // namespace
}  // namespace temco
