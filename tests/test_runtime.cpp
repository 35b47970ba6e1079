// Executor / liveness / planner agreement.
//
// The central invariant: the analytic memory planner and the tracking
// allocator must report the same peak for every graph — Eq. (3)/(4) style
// accounting is *measured*, not assumed.
#include <gtest/gtest.h>

#include "ir/graph.hpp"
#include "models/zoo.hpp"
#include "runtime/executor.hpp"
#include "runtime/liveness.hpp"
#include "runtime/planner.hpp"
#include "support/rng.hpp"
#include "tensor/compare.hpp"

namespace temco {
namespace {

ir::Graph small_chain_graph() {
  ir::Graph g;
  Rng rng(400);
  const auto x = g.input(Shape{1, 4, 8, 8}, "x");
  const auto c1 = g.conv2d(x, Tensor::random_normal(Shape{8, 4, 3, 3}, rng, 0.2f),
                           Tensor::zeros(Shape{8}), 1, 1, "c1");
  const auto r1 = g.relu(c1);
  const auto p1 = g.pool(r1, ir::PoolKind::kMax, 2, 2, "p1");
  const auto c2 = g.conv2d(p1, Tensor::random_normal(Shape{4, 8, 1, 1}, rng, 0.2f),
                           Tensor::zeros(Shape{4}), 1, 0, "c2");
  g.set_outputs({c2});
  g.infer_shapes();
  return g;
}

TEST(LivenessTest, RangesFollowLastUse) {
  const auto g = small_chain_graph();
  const auto ranges = runtime::compute_liveness(g);
  // x(0) used by c1(1); c1 by r1(2); r1 by p1(3); p1 by c2(4).
  EXPECT_EQ(ranges[0].begin, 0);
  EXPECT_EQ(ranges[0].end, 1);
  EXPECT_EQ(ranges[1].end, 2);
  EXPECT_EQ(ranges[2].end, 3);
  EXPECT_EQ(ranges[3].end, 4);
  // The output survives to program end.
  EXPECT_EQ(ranges[4].end, static_cast<ir::ValueId>(g.size()) - 1);
}

TEST(LivenessTest, SkipConnectionExtendsRange) {
  ir::Graph g;
  const auto x = g.input(Shape{1, 2, 4, 4}, "x");
  const auto r1 = g.relu(x);
  const auto r2 = g.relu(r1);
  const auto r3 = g.relu(r2);
  const auto r4 = g.relu(r3);
  const auto sum = g.add({r1, r4});  // r1 is a skip connection
  g.set_outputs({sum});
  g.infer_shapes();
  const auto ranges = runtime::compute_liveness(g);
  EXPECT_EQ(ranges[static_cast<std::size_t>(r1)].distance(), sum - r1);
  EXPECT_GT(ranges[static_cast<std::size_t>(r1)].distance(),
            ranges[static_cast<std::size_t>(r2)].distance());
}

TEST(PlannerTest, ChainPeakIsMaxAdjacentPair) {
  const auto g = small_chain_graph();
  const auto plan = runtime::plan_memory(g);
  // For a pure chain, the peak is the largest input+output pair (Eq. 3).
  std::int64_t expected = 0;
  for (const auto& node : g.nodes()) {
    std::int64_t step = node.out_shape.bytes();
    for (const auto in : node.inputs) step += g.node(in).out_shape.bytes();
    expected = std::max(expected, step);
  }
  EXPECT_EQ(plan.peak_internal_bytes, expected);
}

TEST(PlannerTest, MatchesTrackingAllocatorOnChain) {
  const auto g = small_chain_graph();
  const auto plan = runtime::plan_memory(g);
  Rng rng(401);
  const auto result = runtime::execute(g, {Tensor::random_normal(Shape{1, 4, 8, 8}, rng)});
  EXPECT_EQ(plan.peak_internal_bytes, result.peak_internal_bytes);
  EXPECT_EQ(plan.weight_bytes, result.weight_bytes);
  ASSERT_EQ(plan.steps.size(), result.timeline.size());
  for (std::size_t i = 0; i < plan.steps.size(); ++i) {
    EXPECT_EQ(plan.steps[i].step_peak, result.timeline[i].step_peak_bytes) << "step " << i;
  }
}

TEST(PlannerTest, MatchesTrackingAllocatorOnSkipGraphs) {
  // Graph with a fork and distant join: planner must track the long-lived arm.
  ir::Graph g;
  Rng rng(402);
  const auto x = g.input(Shape{2, 4, 8, 8}, "x");
  const auto a = g.relu(x, "a");
  const auto b = g.pool(a, ir::PoolKind::kMax, 2, 2, "b");
  const auto c = g.relu(b, "c");
  const auto d = g.upsample(c, 2, "d");
  const auto e = g.add({a, d}, "e");  // 'a' lives across b, c, d
  g.set_outputs({e});
  g.infer_shapes();

  const auto plan = runtime::plan_memory(g);
  const auto result = runtime::execute(g, {Tensor::random_normal(Shape{2, 4, 8, 8}, rng)});
  EXPECT_EQ(plan.peak_internal_bytes, result.peak_internal_bytes);
}

TEST(PlannerTest, FusedScratchIsAccounted) {
  ir::Graph g;
  Rng rng(403);
  const auto x = g.input(Shape{1, 2, 8, 8}, "x");
  const auto fused = g.fused_conv_act_conv(
      x, Tensor::random_normal(Shape{16, 2, 1, 1}, rng, 0.3f), Tensor::zeros(Shape{16}),
      Tensor::random_normal(Shape{3, 16, 1, 1}, rng, 0.3f), Tensor::zeros(Shape{3}),
      ir::ActKind::kRelu, false, ir::PoolKind::kMax, 2, 2, "fused");
  g.set_outputs({fused});
  g.infer_shapes();

  const auto plan = runtime::plan_memory(g);
  EXPECT_GT(plan.peak_with_scratch, plan.peak_internal_bytes);
  // Scratch is one restored row: 16 channels × 8 wide × 4 bytes.
  EXPECT_EQ(plan.steps[1].scratch, 16 * 8 * 4);
}

TEST(ExecutorTest, RejectsWrongInputArity) {
  const auto g = small_chain_graph();
  runtime::Executor executor(g);
  EXPECT_THROW(executor.run({}), Error);
}

TEST(ExecutorTest, RejectsWrongInputShape) {
  const auto g = small_chain_graph();
  runtime::Executor executor(g);
  EXPECT_THROW(executor.run({Tensor::zeros(Shape{1, 3, 8, 8})}), Error);
}

TEST(ExecutorTest, OutputsSurviveExecutorDestruction) {
  Tensor out;
  {
    const auto g = small_chain_graph();
    Rng rng(404);
    out = runtime::execute(g, {Tensor::random_normal(Shape{1, 4, 8, 8}, rng)}).outputs[0];
  }
  // The buffer must be plain-heap (cloned), not owned by the dead allocator.
  float acc = 0.0f;
  for (const float v : out.span()) acc += v;
  EXPECT_TRUE(std::isfinite(acc));
}

TEST(ExecutorTest, DeterministicAcrossRuns) {
  const auto g = small_chain_graph();
  Rng rng(405);
  const Tensor input = Tensor::random_normal(Shape{1, 4, 8, 8}, rng);
  const auto a = runtime::execute(g, {input}).outputs[0];
  const auto b = runtime::execute(g, {input}).outputs[0];
  EXPECT_EQ(max_abs_diff(a, b), 0.0f);
}

TEST(ExecutorTest, TimelineMatchesPlanOnRealModel) {
  models::ModelConfig config;
  config.batch = 1;
  config.image = 32;
  config.width = 0.125;
  const auto g = models::build_vgg(11, config);
  const auto plan = runtime::plan_memory(g);
  Rng rng(406);
  const auto result =
      runtime::execute(g, {Tensor::random_normal(Shape{1, 3, 32, 32}, rng)});
  EXPECT_EQ(plan.peak_internal_bytes, result.peak_internal_bytes);
}

/// Two-output graph for the run_into aliasing rules.
ir::Graph two_output_graph() {
  ir::Graph g;
  const auto x = g.input(Shape{1, 4, 8, 8}, "x");
  const auto a = g.relu(x, "a");
  const auto b = g.silu(x, "b");
  g.set_outputs({a, b});
  g.infer_shapes();
  g.verify();
  return g;
}

TEST(RunIntoTest, WritesCallerBuffersAndMatchesRun) {
  const auto g = two_output_graph();
  Rng rng(500);
  const Tensor input = Tensor::random_normal(Shape{1, 4, 8, 8}, rng);

  for (const bool use_arena : {false, true}) {
    runtime::Executor executor(g, {.use_arena = use_arena});
    const auto want = executor.run({input});
    std::vector<Tensor> outputs{Tensor::zeros(Shape{1, 4, 8, 8}),
                                Tensor::zeros(Shape{1, 4, 8, 8})};
    const auto result = executor.run_into({input}, outputs);
    EXPECT_TRUE(result.outputs.empty()) << "run_into must not clone outputs";
    for (std::size_t o = 0; o < outputs.size(); ++o) {
      EXPECT_EQ(max_abs_diff(outputs[o], want.outputs[o]), 0.0f) << "use_arena=" << use_arena;
    }
  }
}

TEST(RunIntoTest, RejectsCountShapeAndUndefinedViolations) {
  const auto g = two_output_graph();
  runtime::Executor executor(g, {.use_arena = true});
  Rng rng(501);
  const Tensor input = Tensor::random_normal(Shape{1, 4, 8, 8}, rng);

  std::vector<Tensor> too_few{Tensor::zeros(Shape{1, 4, 8, 8})};
  EXPECT_THROW(executor.run_into({input}, too_few), InvalidGraphError);

  std::vector<Tensor> wrong_shape{Tensor::zeros(Shape{1, 4, 8, 8}),
                                  Tensor::zeros(Shape{1, 4, 4, 4})};
  EXPECT_THROW(executor.run_into({input}, wrong_shape), ShapeError);

  std::vector<Tensor> undefined{Tensor::zeros(Shape{1, 4, 8, 8}), Tensor()};
  EXPECT_THROW(executor.run_into({input}, undefined), InvalidGraphError);
}

TEST(RunIntoTest, RejectsAliasedOutputsButAllowsInputAliasing) {
  const auto g = two_output_graph();
  runtime::Executor executor(g, {.use_arena = true});
  Rng rng(502);
  const Tensor input = Tensor::random_normal(Shape{1, 4, 8, 8}, rng);

  // Same storage twice: order-dependent results, must be refused.
  Tensor shared = Tensor::zeros(Shape{1, 4, 8, 8});
  std::vector<Tensor> aliased{shared, shared};
  EXPECT_THROW(executor.run_into({input}, aliased), InvalidGraphError);

  // An output aliasing an *input* is legal: inputs are consumed into
  // internal storage before any output byte is written.
  const auto want = executor.run({input});
  Tensor in_place = input.clone();
  std::vector<Tensor> outputs{in_place, Tensor::zeros(Shape{1, 4, 8, 8})};
  executor.run_into({in_place}, outputs);
  EXPECT_EQ(max_abs_diff(outputs[0], want.outputs[0]), 0.0f);
  EXPECT_EQ(max_abs_diff(outputs[1], want.outputs[1]), 0.0f);
}

}  // namespace
}  // namespace temco
