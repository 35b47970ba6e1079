// Static arena planner + zero-malloc executor.
//
// The arena is a second, independently-computed implementation of the §2.2
// memory model: greedy best-fit interval packing over the same liveness table
// the analytic planner integrates.  The differential harness below runs the
// whole model zoo through both executors and asserts
//   (1) bitwise-identical outputs (original / decomposed / TeMCO-optimized),
//   (2) zero per-node heap allocations on the arena's steady-state path,
//   (3) arena_bytes >= the planner's peak_with_scratch (packing can never
//       beat the liveness lower bound) with packing ratio <= 1.25.
// The ExecutorOptions matrix then checks that every combination of regime,
// guardrails and intra-op width stays bitwise-identical to the reference.
#include <gtest/gtest.h>

#include <string>
#include <tuple>

#include "core/temco.hpp"
#include "decomp/pass.hpp"
#include "models/zoo.hpp"
#include "runtime/arena.hpp"
#include "runtime/budget.hpp"
#include "runtime/executor.hpp"
#include "runtime/planner.hpp"
#include "support/align.hpp"
#include "support/failpoint.hpp"
#include "support/rng.hpp"
#include "tensor/compare.hpp"

namespace temco {
namespace {

using ir::Graph;

models::ModelConfig zoo_config() {
  models::ModelConfig config;
  config.batch = 4;  // the paper's (and this harness's) default batch
  config.image = 32;
  config.width = 0.125;
  config.classes = 10;
  config.seed = 91;
  return config;
}

/// Reference vs arena on one graph: outputs must match bit for bit, and the
/// slab must stay within 1.25x of the analytic peak.
void check_differential(const Graph& graph, const std::string& label) {
  Rng rng(7001);
  std::vector<Tensor> inputs;
  for (const auto& node : graph.nodes()) {
    if (node.kind == ir::OpKind::kInput) {
      inputs.push_back(Tensor::random_normal(node.out_shape, rng));
    }
  }

  runtime::Executor reference(graph);
  runtime::Executor arena(graph, {.use_arena = true});
  const auto ref = reference.run(inputs);
  const auto got = arena.run(inputs);

  ASSERT_EQ(ref.outputs.size(), got.outputs.size()) << label;
  for (std::size_t i = 0; i < ref.outputs.size(); ++i) {
    EXPECT_EQ(max_abs_diff(ref.outputs[i], got.outputs[i]), 0.0f)
        << label << ": arena output " << i << " differs from reference";
  }

  // Zero-malloc steady state: the slab absorbs every internal tensor.
  EXPECT_EQ(got.heap_allocations, 0) << label;
  EXPECT_GT(ref.heap_allocations, 0) << label;

  const auto plan = runtime::plan_memory(graph);
  EXPECT_EQ(got.arena_bytes, runtime::plan_arena(graph).arena_bytes) << label;
  EXPECT_GE(got.arena_bytes, plan.peak_with_scratch)
      << label << ": packing below the liveness lower bound is impossible";
  const double ratio = static_cast<double>(got.arena_bytes) /
                       static_cast<double>(plan.peak_with_scratch);
  EXPECT_LE(ratio, 1.25) << label << ": packing ratio " << ratio;
}

class ZooArenaTest : public ::testing::TestWithParam<const char*> {};

TEST_P(ZooArenaTest, DifferentialAcrossVariants) {
  const auto& spec = models::find_model(GetParam());
  const auto original = spec.build(zoo_config());
  check_differential(original, spec.name + "/original");

  const auto decomposed = decomp::decompose(original, {.ratio = 0.25}).graph;
  check_differential(decomposed, spec.name + "/decomposed");

  // Skip-opt + fusion (plus the §3.3 transforms they need): the stress case —
  // replayed restore layers and fused-kernel scratch both live in the slab.
  const auto optimized = core::optimize(decomposed, {});
  check_differential(optimized, spec.name + "/optimized");
}

INSTANTIATE_TEST_SUITE_P(AllModels, ZooArenaTest,
                         ::testing::Values("alexnet", "vgg11", "vgg16", "vgg19", "resnet18",
                                           "resnet34", "densenet121", "densenet169", "unet",
                                           "unet_half"));

// ---- intra-op width ---------------------------------------------------------

/// Both regimes at intra-op widths 1, 2 and 8 against the default-width
/// reference executor: outputs must match bit for bit, and the arena must
/// stay zero-malloc.  Width 8 outnumbers the scratch slots planned for the
/// global pool on small hosts, so fused kernels must clamp their stripes to
/// both.  `guarded` adds the numeric check and slab canaries.
void check_width_invariance(const Graph& graph, const std::string& label, bool guarded) {
  Rng rng(7002);
  std::vector<Tensor> inputs;
  for (const auto& node : graph.nodes()) {
    if (node.kind == ir::OpKind::kInput) {
      inputs.push_back(Tensor::random_normal(node.out_shape, rng));
    }
  }
  const auto baseline = runtime::execute(graph, inputs);
  for (const std::size_t width : {std::size_t{1}, std::size_t{2}, std::size_t{8}}) {
    for (const bool use_arena : {false, true}) {
      const std::string cell =
          label + (use_arena ? "/arena" : "/reference") + "/width=" + std::to_string(width);
      runtime::ExecutorOptions options;
      options.use_arena = use_arena;
      options.check_numerics = guarded;
      options.arena_canaries = guarded;
      options.intra_op_threads = width;
      const auto got = runtime::execute(graph, inputs, options);
      ASSERT_EQ(got.outputs.size(), baseline.outputs.size()) << cell;
      for (std::size_t i = 0; i < got.outputs.size(); ++i) {
        EXPECT_EQ(max_abs_diff(baseline.outputs[i], got.outputs[i]), 0.0f)
            << cell << ": output " << i << " depends on the intra-op width";
      }
      if (use_arena) {
        EXPECT_EQ(got.heap_allocations, 0) << cell;
      }
    }
  }
}

class ZooIntraOpTest : public ::testing::TestWithParam<const char*> {};

TEST_P(ZooIntraOpTest, OriginalIsBitInvariantAcrossWidths) {
  const auto& spec = models::find_model(GetParam());
  check_width_invariance(spec.build(zoo_config()), spec.name + "/original", false);
}

TEST_P(ZooIntraOpTest, DecomposedIsBitInvariantAcrossWidths) {
  const auto& spec = models::find_model(GetParam());
  const auto decomposed = decomp::decompose(spec.build(zoo_config()), {.ratio = 0.25}).graph;
  check_width_invariance(decomposed, spec.name + "/decomposed", false);
}

TEST_P(ZooIntraOpTest, GuardedOptimizedIsBitInvariantAcrossWidths) {
  // Fused kernels (striped scratch) and replayed restore layers, with every
  // guardrail armed.
  const auto& spec = models::find_model(GetParam());
  const auto decomposed = decomp::decompose(spec.build(zoo_config()), {.ratio = 0.25}).graph;
  check_width_invariance(core::optimize(decomposed, {}), spec.name + "/optimized", true);
}

INSTANTIATE_TEST_SUITE_P(AllModels, ZooIntraOpTest,
                         ::testing::Values("alexnet", "vgg11", "vgg16", "vgg19", "resnet18",
                                           "resnet34", "densenet121", "densenet169", "unet",
                                           "unet_half"));

TEST(ArenaPlanTest, BlocksCoverEveryValueAndRespectLiveness) {
  const auto config = zoo_config();
  const auto g = models::build_vgg(11, config);
  const auto plan = runtime::plan_arena(g);
  ASSERT_EQ(plan.blocks.size(), g.size());
  EXPECT_NO_THROW(runtime::validate_arena_plan(g, plan));
  for (const auto& block : plan.blocks) {
    EXPECT_EQ(block.offset % kTensorAlignment, 0);
    EXPECT_GE(block.bytes, g.node(block.id).out_shape.bytes());
  }
  EXPECT_GE(plan.arena_bytes, runtime::plan_memory(g).peak_internal_bytes);
}

TEST(ArenaPlanTest, ScratchRegionOnlyForFusedGraphs) {
  const auto config = zoo_config();
  const auto g = models::build_vgg(11, config);
  EXPECT_EQ(runtime::plan_arena(g).scratch_slot_bytes, 0) << "no fused nodes, no scratch";

  const auto decomposed = decomp::decompose(g, {.ratio = 0.25}).graph;
  const auto optimized = core::optimize(decomposed, {});
  const auto plan = runtime::plan_arena(optimized);
  EXPECT_GT(plan.scratch_slot_bytes, 0);
  EXPECT_GE(plan.scratch_slots, 1u);
  EXPECT_EQ(plan.scratch_offset, plan.tensor_bytes);
}

TEST(ArenaExecutorTest, SlabIsReusedAcrossRuns) {
  const auto config = zoo_config();
  const auto decomposed =
      decomp::decompose(models::build_vgg(11, config), {.ratio = 0.25}).graph;
  const auto optimized = core::optimize(decomposed, {});
  runtime::Executor executor(optimized, {.use_arena = true});

  Rng rng(7002);
  const Tensor input = Tensor::random_normal(Shape{config.batch, 3, 32, 32}, rng);
  const auto first = executor.run({input});
  const auto second = executor.run({input});
  EXPECT_EQ(max_abs_diff(first.outputs[0], second.outputs[0]), 0.0f)
      << "dirty slab changed the result between runs";
  EXPECT_EQ(second.heap_allocations, 0);

  // A different batch through the same slab must also match a fresh run.
  const Tensor other = Tensor::random_normal(Shape{config.batch, 3, 32, 32}, rng);
  const auto reused = executor.run({other});
  const auto fresh = runtime::execute(optimized, {other}, {.use_arena = true});
  EXPECT_EQ(max_abs_diff(reused.outputs[0], fresh.outputs[0]), 0.0f);
}

TEST(ArenaExecutorTest, OutputsSurviveExecutorDestruction) {
  Tensor out;
  {
    ir::Graph g;
    Rng rng(7003);
    const auto x = g.input(Shape{1, 4, 8, 8}, "x");
    const auto r = g.relu(x);
    g.set_outputs({r});
    g.infer_shapes();
    out = runtime::execute(g, {Tensor::random_normal(Shape{1, 4, 8, 8}, rng)},
                           {.use_arena = true})
              .outputs[0];
  }
  float acc = 0.0f;
  for (const float v : out.span()) acc += v;
  EXPECT_TRUE(std::isfinite(acc));
}

TEST(ArenaExecutorTest, TimelineMatchesReferenceExecutor) {
  // The arena reports the analytic peak; the reference executor measures it.
  // The Fig.-4 series is the reference path's alone: arena runs carry an
  // empty timeline (the planner's series equals the reference one step for
  // step, asserted in test_runtime and test_property).
  const auto config = zoo_config();
  const auto g = models::build_resnet(18, config);
  Rng rng(7004);
  const Tensor input = Tensor::random_normal(Shape{config.batch, 3, 32, 32}, rng);
  const auto ref = runtime::execute(g, {input});
  const auto got = runtime::execute(g, {input}, {.use_arena = true});
  EXPECT_EQ(ref.peak_internal_bytes, got.peak_internal_bytes);
  EXPECT_EQ(ref.timeline.size(), g.size());
  EXPECT_TRUE(got.timeline.empty());
}

TEST(ArenaExecutorTest, ComposesWithMemoryScheduler) {
  // The schedule search reorders the node list; the arena must pack the
  // reordered liveness correctly.
  const auto config = zoo_config();
  const auto g = models::build_unet(true, config);
  const auto scheduled = runtime::schedule_for_budget(g);
  check_differential(scheduled.graph, "unet_half/scheduled");
}

TEST(ArenaExecutorTest, RejectsWrongInputs) {
  ir::Graph g;
  const auto x = g.input(Shape{1, 4, 8, 8}, "x");
  g.set_outputs({g.relu(x)});
  g.infer_shapes();
  runtime::Executor executor(g, {.use_arena = true});
  EXPECT_THROW(executor.run({}), Error);
  EXPECT_THROW(executor.run({Tensor::zeros(Shape{1, 3, 8, 8})}), Error);
}

// ---- ExecutorOptions matrix -------------------------------------------------

/// Small model with fused kernels (arena scratch) and concat/upsample
/// transforms: decomposed + TeMCO-optimized U-Net at a tiny configuration,
/// built once and shared by every matrix cell.
const Graph& matrix_model() {
  static const Graph graph = [] {
    models::ModelConfig config;
    config.batch = 1;
    config.image = 16;
    config.width = 0.125;
    config.classes = 10;
    config.seed = 47;
    const auto decomposed =
        decomp::decompose(models::build_unet(true, config), {.ratio = 0.25}).graph;
    return core::optimize(decomposed, {});
  }();
  return graph;
}

/// (use_arena, check_numerics, arena_canaries, intra_op_threads)
using MatrixCell = std::tuple<bool, bool, bool, std::size_t>;

class ExecutorMatrixTest : public ::testing::TestWithParam<MatrixCell> {};

TEST_P(ExecutorMatrixTest, EveryOptionCombinationMatchesTheReferenceBitwise) {
  const auto [use_arena, check_numerics, canaries, intra_op_threads] = GetParam();
  const Graph& graph = matrix_model();
  Rng rng(8104);
  const Tensor input = Tensor::random_normal(graph.node(0).out_shape, rng);
  const auto baseline = runtime::execute(graph, {input});

  runtime::ExecutorOptions options;
  options.use_arena = use_arena;
  options.check_numerics = check_numerics;
  options.arena_canaries = canaries;
  options.intra_op_threads = intra_op_threads;
  runtime::Executor executor(graph, options);
  for (int run = 0; run < 2; ++run) {
    const auto result = executor.run({input});
    ASSERT_EQ(result.outputs.size(), baseline.outputs.size());
    for (std::size_t i = 0; i < result.outputs.size(); ++i) {
      EXPECT_EQ(max_abs_diff(baseline.outputs[i], result.outputs[i]), 0.0f)
          << "run " << run << ", output " << i;
    }
    if (use_arena) {
      EXPECT_EQ(result.heap_allocations, 0) << "run " << run;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Options, ExecutorMatrixTest,
    ::testing::Combine(::testing::Bool(), ::testing::Bool(), ::testing::Bool(),
                       ::testing::Values(std::size_t{0}, std::size_t{1}, std::size_t{3})),
    [](const ::testing::TestParamInfo<MatrixCell>& info) {
      return std::string(std::get<0>(info.param) ? "Arena" : "Reference") +
             (std::get<1>(info.param) ? "_Numerics" : "") +
             (std::get<2>(info.param) ? "_Canaries" : "") + "_Intra" +
             std::to_string(std::get<3>(info.param));
    });

TEST(ArenaExecutorTest, SurvivesInterleavedFaultInjection) {
  // Alternate clean and fault-injected runs on one guarded arena executor:
  // every fault surfaces as exactly one typed error, and the next clean run
  // is bitwise-identical again — no torn slab state, no stuck pool.
  const Graph& graph = matrix_model();
  Rng rng(8109);
  const Tensor input = Tensor::random_normal(graph.node(0).out_shape, rng);
  const auto baseline = runtime::execute(graph, {input});
  runtime::Executor executor(
      graph, {.use_arena = true, .check_numerics = true, .arena_canaries = true});
  const char* sites[] = {"kernels.poison_nan", "parallel.task_throw", "executor.oob_write"};
  for (int round = 0; round < 6; ++round) {
    {
      failpoints::ScopedArm arm(sites[round % 3], 1);
      EXPECT_THROW(executor.run({input}), Error) << sites[round % 3];
    }
    const auto clean = executor.run({input});
    EXPECT_EQ(max_abs_diff(baseline.outputs[0], clean.outputs[0]), 0.0f) << "round " << round;
  }
}

}  // namespace
}  // namespace temco
