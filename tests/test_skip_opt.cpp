// §3.1 skip connection optimization: Algorithm 1/2 behaviour on hand-built
// graphs mirroring the paper's Figure 7 example, plus rejection paths.
#include <gtest/gtest.h>

#include "core/temco.hpp"
#include "runtime/executor.hpp"
#include "runtime/liveness.hpp"
#include "runtime/planner.hpp"
#include "support/rng.hpp"
#include "tensor/compare.hpp"

namespace temco {
namespace {

using ir::Graph;
using ir::ValueId;

Tensor conv1x1_weight(std::int64_t co, std::int64_t ci, std::uint64_t seed) {
  Rng rng(seed);
  return Tensor::random_normal(Shape{co, ci, 1, 1}, rng, 0.3f);
}

Tensor conv_weight(std::int64_t co, std::int64_t ci, std::int64_t k, std::uint64_t seed) {
  Rng rng(seed);
  return Tensor::random_normal(Shape{co, ci, k, k}, rng, 0.3f);
}

Tensor zero_b(std::int64_t c) { return Tensor::zeros(Shape{c}); }

/// The Figure 7 graph: a decomposed sequence whose restored output `b` is
/// consumed immediately AND far away (a concat), like a UNet skip.
///   a2  = <reduced tensor, 2 ch>        (stand-in: fconv of an input)
///   a   = lconv(a2)      16 ch          (restore)
///   b   = relu(a)                       <-- the skip connection
///   c1..c4 = a local chain consuming b  (keeps b's immediate use alive)
///   e   = concat(b, d)                  <-- distant use
struct Fig7 {
  Graph graph;
  ValueId a2, lconv, b, concat;
};

Fig7 build_fig7(std::int64_t distance_padding = 6) {
  Fig7 f;
  Graph& g = f.graph;
  const auto x = g.input(Shape{1, 8, 8, 8}, "x");
  f.a2 = g.conv2d(x, conv1x1_weight(2, 8, 1), zero_b(2), 1, 0, "conv1.fconv");
  f.lconv = g.conv2d(f.a2, conv1x1_weight(16, 2, 2), zero_b(16), 1, 0, "conv1.lconv");
  // Carry the original conv's FLOPs (pretend it was a 3x3, 8->16 conv).
  g.node(f.lconv).original_flops = 2 * (1 * 16 * 8 * 8) * 8 * 9;
  f.b = g.relu(f.lconv, "b");
  ValueId chain = g.conv2d(f.b, conv1x1_weight(4, 16, 3), zero_b(4), 1, 0, "c1");
  for (std::int64_t i = 0; i < distance_padding; ++i) {
    chain = g.relu(chain, "pad" + std::to_string(i));
  }
  const auto d = g.conv2d(chain, conv1x1_weight(16, 4, 4), zero_b(16), 1, 0, "d");
  f.concat = g.concat({f.b, d}, "e");
  g.set_outputs({f.concat});
  g.infer_shapes();
  return f;
}

TEST(IsLConvTest, StructuralCriteria) {
  Graph g;
  const auto x = g.input(Shape{1, 4, 8, 8});
  const auto expand = g.conv2d(x, conv1x1_weight(16, 4, 10), zero_b(16), 1, 0);
  const auto reduce = g.conv2d(expand, conv1x1_weight(4, 16, 11), zero_b(4), 1, 0);
  const auto spatial = g.conv2d(reduce, conv_weight(8, 4, 3, 12), zero_b(8), 1, 1);
  const auto strided = g.conv2d(spatial, conv1x1_weight(16, 8, 13), zero_b(16), 2, 0);
  g.set_outputs({strided});
  g.infer_shapes();
  EXPECT_TRUE(core::is_lconv(g.node(expand)));
  EXPECT_FALSE(core::is_lconv(g.node(reduce)));   // reduces channels
  EXPECT_FALSE(core::is_lconv(g.node(spatial)));  // 3x3 kernel
  EXPECT_FALSE(core::is_lconv(g.node(strided)));  // stride 2
  EXPECT_TRUE(core::is_fconv(g.node(reduce)));
  EXPECT_FALSE(core::is_fconv(g.node(expand)));
}

TEST(SkipOptTest, Fig7SkipIsOptimized) {
  const auto f = build_fig7();
  core::TemcoOptions options;
  options.distance_threshold = 4;
  core::OptimizeStats stats;
  const auto optimized = core::optimize_skip_connections(f.graph, options, &stats);

  EXPECT_EQ(stats.skips_optimized, 1);
  EXPECT_GT(stats.restore_copies_inserted, 0);

  // Semantics preserved.
  Rng rng(700);
  const Tensor input = Tensor::random_normal(Shape{1, 8, 8, 8}, rng);
  const auto before = runtime::execute(f.graph, {input}).outputs[0];
  const auto after = runtime::execute(optimized, {input}).outputs[0];
  EXPECT_LT(max_abs_diff(before, after), 1e-4f);

  // The long-lived value across the middle of the chain is now the reduced
  // tensor a2 instead of the full-width b: the resident footprint between
  // definition and distant use must drop (the global peak of this toy graph
  // sits at the concat, whose operand sizes the rewrite does not change).
  const auto plan_before = runtime::plan_memory(f.graph);
  const auto plan_after = runtime::plan_memory(optimized);
  EXPECT_LE(plan_after.peak_internal_bytes, plan_before.peak_internal_bytes);
  const auto resident_integral = [](const runtime::MemoryPlan& plan) {
    std::int64_t total = 0;
    for (const auto& step : plan.steps) total += step.live_after;
    return total;
  };
  EXPECT_LT(resident_integral(plan_after), resident_integral(plan_before));

  // A restore copy (".restore" suffix) exists in the optimized graph.
  bool found_restore = false;
  for (const auto& node : optimized.nodes()) {
    if (node.name.find(".restore") != std::string::npos) found_restore = true;
  }
  EXPECT_TRUE(found_restore);
}

TEST(SkipOptTest, ShortDistanceIsLeftAlone) {
  const auto f = build_fig7(/*distance_padding=*/0);
  core::TemcoOptions options;
  options.distance_threshold = 10;  // nothing is "distant" now
  core::OptimizeStats stats;
  const auto optimized = core::optimize_skip_connections(f.graph, options, &stats);
  EXPECT_EQ(stats.skips_optimized, 0);
  EXPECT_EQ(optimized.size(), f.graph.size());
}

TEST(SkipOptTest, ComputeThresholdRejectsExpensiveRestores) {
  auto f = build_fig7();
  // Erase the original-FLOPs tag and make the fallback reference tiny by
  // scaling the threshold down: the copy becomes "too expensive".
  f.graph.node(f.lconv).original_flops = 0;
  core::TemcoOptions options;
  options.distance_threshold = 4;
  options.compute_threshold_scale = 1e-6;
  core::OptimizeStats stats;
  const auto optimized = core::optimize_skip_connections(f.graph, options, &stats);
  EXPECT_EQ(stats.skips_optimized, 0);
  EXPECT_GT(stats.skips_rejected_compute, 0);
  EXPECT_EQ(optimized.size(), f.graph.size());
}

TEST(SkipOptTest, MemorySlackRejectsBloatedRestores) {
  const auto f = build_fig7();
  core::TemcoOptions options;
  options.distance_threshold = 4;
  options.memory_slack = 0.01;  // no transient peak is acceptable
  core::OptimizeStats stats;
  core::optimize_skip_connections(f.graph, options, &stats);
  EXPECT_EQ(stats.skips_optimized, 0);
  EXPECT_GT(stats.skips_rejected_memory, 0);
}

TEST(SkipOptTest, NonRestorableSkipIsRejectedStructurally) {
  // The skip tensor comes straight from a dense 3x3 conv — there is no
  // reduced predecessor to keep instead.
  Graph g;
  const auto x = g.input(Shape{1, 4, 8, 8}, "x");
  const auto conv = g.conv2d(x, conv_weight(8, 4, 3, 20), zero_b(8), 1, 1, "dense");
  const auto b = g.relu(conv, "b");
  ValueId chain = g.pool(b, ir::PoolKind::kMax, 2, 2, "p");
  for (int i = 0; i < 6; ++i) chain = g.relu(chain, "pad");
  const auto up = g.upsample(chain, 2, "up");
  const auto e = g.concat({b, up}, "e");
  g.set_outputs({e});
  g.infer_shapes();

  core::OptimizeStats stats;
  const auto optimized = core::optimize_skip_connections(g, {}, &stats);
  EXPECT_EQ(stats.skips_optimized, 0);
  EXPECT_GT(stats.skips_rejected_structure, 0);
  EXPECT_EQ(optimized.size(), g.size());
}

TEST(SkipOptTest, GraphOutputIsNeverReplaced) {
  // b itself is a graph output; replacing it would change the interface.
  Graph g;
  const auto x = g.input(Shape{1, 8, 8, 8}, "x");
  const auto a2 = g.conv2d(x, conv1x1_weight(2, 8, 30), zero_b(2), 1, 0, "fconv");
  const auto a = g.conv2d(a2, conv1x1_weight(16, 2, 31), zero_b(16), 1, 0, "lconv");
  const auto b = g.relu(a, "b");
  ValueId chain = b;
  for (int i = 0; i < 8; ++i) chain = g.relu(chain, "pad");
  g.set_outputs({b, chain});
  g.infer_shapes();

  core::OptimizeStats stats;
  core::optimize_skip_connections(g, {}, &stats);
  EXPECT_EQ(stats.skips_optimized, 0);
}

TEST(SkipOptTest, MultipleDistantUsesEachGetACopy) {
  Graph g;
  const auto x = g.input(Shape{1, 8, 8, 8}, "x");
  const auto a2 = g.conv2d(x, conv1x1_weight(2, 8, 40), zero_b(2), 1, 0, "fconv");
  const auto a = g.conv2d(a2, conv1x1_weight(16, 2, 41), zero_b(16), 1, 0, "lconv");
  g.node(a).original_flops = 1'000'000'000;
  const auto b = g.relu(a, "b");
  ValueId chain = g.conv2d(b, conv1x1_weight(4, 16, 42), zero_b(4), 1, 0, "c");
  for (int i = 0; i < 6; ++i) chain = g.relu(chain, "pad");
  const auto d1 = g.conv2d(chain, conv1x1_weight(16, 4, 43), zero_b(16), 1, 0, "d1");
  const auto e1 = g.add({b, d1}, "e1");
  ValueId chain2 = e1;
  for (int i = 0; i < 6; ++i) chain2 = g.relu(chain2, "pad2");
  const auto e2 = g.add({b, chain2}, "e2");
  g.set_outputs({e2});
  g.infer_shapes();

  core::TemcoOptions options;
  options.distance_threshold = 4;
  core::OptimizeStats stats;
  const auto optimized = core::optimize_skip_connections(g, options, &stats);
  // b has two distant uses (e1, e2): the restore list (lconv + relu) is
  // replayed once per use.
  EXPECT_EQ(stats.skips_optimized, 1);
  EXPECT_EQ(stats.restore_copies_inserted, 4);

  Rng rng(701);
  const Tensor input = Tensor::random_normal(Shape{1, 8, 8, 8}, rng);
  EXPECT_LT(max_abs_diff(runtime::execute(g, {input}).outputs[0],
                         runtime::execute(optimized, {input}).outputs[0]),
            1e-4f);
}

TEST(SkipOptTest, OneUseReadingTwoSkipsReplaysBoth) {
  // e reads two different optimized skips, bA and bB, both from afar: both
  // restore lists are replayed right before e, in e's input order.
  Graph g;
  const auto x = g.input(Shape{1, 8, 8, 8}, "x");
  const auto ra = g.conv2d(x, conv1x1_weight(2, 8, 60), zero_b(2), 1, 0, "fA");
  const auto la = g.conv2d(ra, conv1x1_weight(16, 2, 61), zero_b(16), 1, 0, "lA");
  g.node(la).original_flops = 1'000'000'000;
  const auto ba = g.relu(la, "bA");
  const auto rb = g.conv2d(x, conv1x1_weight(3, 8, 62), zero_b(3), 1, 0, "fB");
  const auto lb = g.conv2d(rb, conv1x1_weight(16, 3, 63), zero_b(16), 1, 0, "lB");
  g.node(lb).original_flops = 1'000'000'000;
  const auto bb = g.relu(lb, "bB");
  ValueId chain = g.conv2d(bb, conv1x1_weight(4, 16, 64), zero_b(4), 1, 0, "c");
  for (int i = 0; i < 6; ++i) chain = g.relu(chain, "pad" + std::to_string(i));
  const auto d = g.conv2d(chain, conv1x1_weight(16, 4, 65), zero_b(16), 1, 0, "d");
  const auto e = g.add({ba, bb}, "e");
  g.set_outputs({g.add({e, d}, "out")});
  g.infer_shapes();

  core::TemcoOptions options;
  options.distance_threshold = 4;
  core::OptimizeStats stats;
  const auto optimized = core::optimize_skip_connections(g, options, &stats);
  EXPECT_EQ(stats.skips_optimized, 2);
  EXPECT_EQ(stats.restore_copies_inserted, 4);

  std::vector<std::string> names;
  for (const auto& node : optimized.nodes()) names.push_back(node.name);
  const std::vector<std::string> expected = {
      "x", "fA", "lA", "bA", "fB", "lB", "bB", "c",
      "pad0", "pad1", "pad2", "pad3", "pad4", "pad5", "d",
      "lA.restore", "bA.restore",  // skip A's replay
      "lB.restore", "bB.restore",  // then skip B's
      "e", "out"};
  EXPECT_EQ(names, expected);

  Rng rng(703);
  const Tensor input = Tensor::random_normal(Shape{1, 8, 8, 8}, rng);
  EXPECT_EQ(max_abs_diff(runtime::execute(g, {input}).outputs[0],
                         runtime::execute(optimized, {input}).outputs[0]),
            0.0f);
}

TEST(SkipOptTest, RestoreThroughAddOrdersByPeak) {
  // The skip is an add of two restored tensors; FindReduced must recurse
  // through the add into both lconvs and still produce a correct replay.
  Graph g;
  const auto x = g.input(Shape{1, 8, 8, 8}, "x");
  const auto r1 = g.conv2d(x, conv1x1_weight(2, 8, 50), zero_b(2), 1, 0, "f1");
  const auto l1 = g.conv2d(r1, conv1x1_weight(16, 2, 51), zero_b(16), 1, 0, "l1");
  g.node(l1).original_flops = 1'000'000'000;
  const auto r2 = g.conv2d(x, conv1x1_weight(3, 8, 52), zero_b(3), 1, 0, "f2");
  const auto l2 = g.conv2d(r2, conv1x1_weight(16, 3, 53), zero_b(16), 1, 0, "l2");
  g.node(l2).original_flops = 1'000'000'000;
  const auto sum = g.add({l1, l2}, "sum");
  const auto b = g.relu(sum, "b");
  ValueId chain = g.conv2d(b, conv1x1_weight(4, 16, 54), zero_b(4), 1, 0, "c");
  for (int i = 0; i < 6; ++i) chain = g.relu(chain, "pad");
  const auto d = g.conv2d(chain, conv1x1_weight(16, 4, 55), zero_b(16), 1, 0, "d");
  const auto e = g.add({b, d}, "e");
  g.set_outputs({e});
  g.infer_shapes();

  core::TemcoOptions options;
  options.distance_threshold = 4;
  options.memory_slack = 4.0;  // the replay needs both restored arms live
  core::OptimizeStats stats;
  const auto optimized = core::optimize_skip_connections(g, options, &stats);
  EXPECT_EQ(stats.skips_optimized, 1);

  Rng rng(702);
  const Tensor input = Tensor::random_normal(Shape{1, 8, 8, 8}, rng);
  EXPECT_LT(max_abs_diff(runtime::execute(g, {input}).outputs[0],
                         runtime::execute(optimized, {input}).outputs[0]),
            1e-4f);
}

}  // namespace
}  // namespace temco
