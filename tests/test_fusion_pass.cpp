// §3.2 activation layer fusion pass: pattern matching, semantics, memory.
#include <gtest/gtest.h>

#include "core/temco.hpp"
#include "runtime/executor.hpp"
#include "runtime/planner.hpp"
#include "support/rng.hpp"
#include "tensor/compare.hpp"

namespace temco {
namespace {

using ir::Graph;
using ir::ValueId;

Tensor w1x1(std::int64_t co, std::int64_t ci, std::uint64_t seed) {
  Rng rng(seed);
  return Tensor::random_normal(Shape{co, ci, 1, 1}, rng, 0.3f);
}

Tensor rbias(std::int64_t c, std::uint64_t seed) {
  Rng rng(seed);
  return Tensor::random_uniform(Shape{c}, rng, -0.2f, 0.2f);
}

/// reduced → lconv → act → [pool] → fconv → output (decomposed-sequence core).
Graph build_chain(bool with_pool, bool relu = true) {
  Graph g;
  const auto x = g.input(Shape{2, 3, 8, 8}, "reduced");
  const auto l = g.conv2d(x, w1x1(24, 3, 1), rbias(24, 2), 1, 0, "lconv");
  const auto a = relu ? g.relu(l, "act") : g.silu(l, "act");
  ValueId pre = a;
  if (with_pool) pre = g.pool(a, ir::PoolKind::kMax, 2, 2, "pool");
  const auto f = g.conv2d(pre, w1x1(4, 24, 3), rbias(4, 4), 1, 0, "fconv");
  g.set_outputs({f});
  g.infer_shapes();
  return g;
}

TEST(FusionPassTest, FusesLconvActFconv) {
  const auto g = build_chain(false);
  core::OptimizeStats stats;
  const auto fused = core::fuse_activations(g, {}, &stats);
  EXPECT_EQ(stats.fused_kernels, 1);

  int fused_nodes = 0;
  for (const auto& node : fused.nodes()) {
    if (node.kind == ir::OpKind::kFusedConvActConv) {
      ++fused_nodes;
      EXPECT_FALSE(node.attrs.fused_has_pool);
    }
    EXPECT_NE(node.kind, ir::OpKind::kRelu);
  }
  EXPECT_EQ(fused_nodes, 1);

  Rng rng(900);
  const Tensor input = Tensor::random_normal(Shape{2, 3, 8, 8}, rng);
  EXPECT_LT(max_abs_diff(runtime::execute(g, {input}).outputs[0],
                         runtime::execute(fused, {input}).outputs[0]),
            1e-4f);
}

TEST(FusionPassTest, FusesThroughPool) {
  const auto g = build_chain(true);
  core::OptimizeStats stats;
  const auto fused = core::fuse_activations(g, {}, &stats);
  EXPECT_EQ(stats.fused_kernels, 1);
  bool saw_pool_attr = false;
  for (const auto& node : fused.nodes()) {
    EXPECT_NE(node.kind, ir::OpKind::kPool);
    if (node.kind == ir::OpKind::kFusedConvActConv && node.attrs.fused_has_pool) {
      saw_pool_attr = true;
    }
  }
  EXPECT_TRUE(saw_pool_attr);

  Rng rng(901);
  const Tensor input = Tensor::random_normal(Shape{2, 3, 8, 8}, rng);
  EXPECT_LT(max_abs_diff(runtime::execute(g, {input}).outputs[0],
                         runtime::execute(fused, {input}).outputs[0]),
            1e-4f);
}

TEST(FusionPassTest, SiluChainsFuseToo) {
  const auto g = build_chain(false, /*relu=*/false);
  core::OptimizeStats stats;
  const auto fused = core::fuse_activations(g, {}, &stats);
  EXPECT_EQ(stats.fused_kernels, 1);
  Rng rng(902);
  const Tensor input = Tensor::random_normal(Shape{2, 3, 8, 8}, rng);
  EXPECT_LT(max_abs_diff(runtime::execute(g, {input}).outputs[0],
                         runtime::execute(fused, {input}).outputs[0]),
            1e-4f);
}

TEST(FusionPassTest, FusionRemovesFullWidthIntermediates) {
  const auto g = build_chain(false);
  const auto fused = core::fuse_activations(g, {});
  const auto plan_before = runtime::plan_memory(g);
  const auto plan_after = runtime::plan_memory(fused);
  // Before: peak includes the 24-channel restored tensor twice (lconv out +
  // relu out).  After: only reduced tensors plus row scratch.
  EXPECT_LT(plan_after.peak_with_scratch, plan_before.peak_internal_bytes);
}

TEST(FusionPassTest, MultiUseActivationBlocksFusion) {
  Graph g;
  const auto x = g.input(Shape{1, 3, 8, 8}, "x");
  const auto l = g.conv2d(x, w1x1(24, 3, 5), rbias(24, 6), 1, 0, "lconv");
  const auto a = g.relu(l, "act");
  const auto f = g.conv2d(a, w1x1(4, 24, 7), rbias(4, 8), 1, 0, "fconv");
  const auto p = g.pool(a, ir::PoolKind::kMax, 2, 2, "other_use");
  g.set_outputs({f, p});
  g.infer_shapes();
  core::OptimizeStats stats;
  const auto fused = core::fuse_activations(g, {}, &stats);
  EXPECT_EQ(stats.fused_kernels, 0);
  EXPECT_EQ(fused.size(), g.size());
}

TEST(FusionPassTest, ExpandingPointwiseConsumerStillFuses) {
  // DenseNet-style: the conv after the activation expands channels.  The
  // fused kernel is still correct and still removes the intermediate.
  Graph g;
  const auto x = g.input(Shape{1, 3, 8, 8}, "x");
  const auto l = g.conv2d(x, w1x1(12, 3, 9), rbias(12, 10), 1, 0, "lconv");
  const auto a = g.relu(l, "act");
  const auto expand = g.conv2d(a, w1x1(24, 12, 11), rbias(24, 12), 1, 0, "expand");
  g.set_outputs({expand});
  g.infer_shapes();
  core::OptimizeStats stats;
  const auto fused = core::fuse_activations(g, {}, &stats);
  EXPECT_EQ(stats.fused_kernels, 1);
  Rng rng(904);
  const Tensor input = Tensor::random_normal(Shape{1, 3, 8, 8}, rng);
  EXPECT_LT(max_abs_diff(runtime::execute(g, {input}).outputs[0],
                         runtime::execute(fused, {input}).outputs[0]),
            1e-4f);
}

TEST(FusionPassTest, SpatialConvConsumerBlocksFusion) {
  // A 3×3 consumer needs the full restored map in memory; no fusion.
  Graph g;
  Rng wrng(905);
  const auto x = g.input(Shape{1, 3, 8, 8}, "x");
  const auto l = g.conv2d(x, w1x1(12, 3, 9), rbias(12, 10), 1, 0, "lconv");
  const auto a = g.relu(l, "act");
  const auto spatial = g.conv2d(a, Tensor::random_normal(Shape{4, 12, 3, 3}, wrng, 0.2f),
                                rbias(4, 13), 1, 1, "spatial");
  g.set_outputs({spatial});
  g.infer_shapes();
  core::OptimizeStats stats;
  core::fuse_activations(g, {}, &stats);
  EXPECT_EQ(stats.fused_kernels, 0);
}

TEST(FusionPassTest, ChainOfSequencesFusesEachLink) {
  // Three decomposed sequences back to back: lconv-relu-fconv patterns
  // overlap (the fconv of one sequence is the "next" conv of the previous);
  // the pass must fuse every link independently.
  Graph g;
  const auto x = g.input(Shape{1, 2, 8, 8}, "x");
  ValueId v = x;
  std::int64_t reduced = 2;
  for (int i = 0; i < 3; ++i) {
    const std::int64_t restored = 16;
    const std::int64_t next_reduced = 3;
    const auto l = g.conv2d(v, w1x1(restored, reduced, 20 + static_cast<std::uint64_t>(i) * 2),
                            rbias(restored, 21 + static_cast<std::uint64_t>(i) * 2), 1, 0,
                            "l" + std::to_string(i));
    const auto a = g.relu(l, "a" + std::to_string(i));
    v = g.conv2d(a, w1x1(next_reduced, restored, 40 + static_cast<std::uint64_t>(i)),
                 rbias(next_reduced, 50 + static_cast<std::uint64_t>(i)), 1, 0,
                 "f" + std::to_string(i));
    reduced = next_reduced;
  }
  g.set_outputs({v});
  g.infer_shapes();

  core::OptimizeStats stats;
  const auto fused = core::fuse_activations(g, {}, &stats);
  EXPECT_EQ(stats.fused_kernels, 3);

  Rng rng(903);
  const Tensor input = Tensor::random_normal(Shape{1, 2, 8, 8}, rng);
  EXPECT_LT(max_abs_diff(runtime::execute(g, {input}).outputs[0],
                         runtime::execute(fused, {input}).outputs[0]),
            1e-4f);
}

TEST(FusionPassTest, OverlappingChainsFuseTheEarlierOne) {
  // lconv → relu → expand → relu → fconv, where `expand` is itself an lconv:
  // both lconv → relu → expand and expand → relu → fconv match, and they
  // share `expand`.  The earlier chain fuses; the fused node starts no chain,
  // so the second relu and the fconv stay as they are.
  Graph g;
  const auto x = g.input(Shape{1, 3, 8, 8}, "x");
  const auto l = g.conv2d(x, w1x1(12, 3, 60), rbias(12, 61), 1, 0, "lconv");
  const auto a = g.relu(l, "act");
  const auto expand = g.conv2d(a, w1x1(24, 12, 62), rbias(24, 63), 1, 0, "expand");
  const auto a2 = g.relu(expand, "act2");
  const auto f = g.conv2d(a2, w1x1(4, 24, 64), rbias(4, 65), 1, 0, "fconv");
  g.set_outputs({f});
  g.infer_shapes();
  ASSERT_TRUE(core::is_lconv(g.node(expand)));

  core::OptimizeStats stats;
  const auto fused = core::fuse_activations(g, {}, &stats);
  EXPECT_EQ(stats.fused_kernels, 1);
  ASSERT_EQ(fused.size(), 4u);  // x, lconv.fused, act2, fconv
  EXPECT_EQ(fused.node(1).kind, ir::OpKind::kFusedConvActConv);
  EXPECT_EQ(fused.node(1).name, "lconv.fused");
  EXPECT_EQ(fused.node(2).kind, ir::OpKind::kRelu);
  EXPECT_EQ(fused.node(2).name, "act2");
  EXPECT_EQ(fused.node(3).kind, ir::OpKind::kConv2d);
  EXPECT_EQ(fused.node(3).name, "fconv");

  Rng rng(906);
  const Tensor input = Tensor::random_normal(Shape{1, 3, 8, 8}, rng);
  EXPECT_LT(max_abs_diff(runtime::execute(g, {input}).outputs[0],
                         runtime::execute(fused, {input}).outputs[0]),
            1e-4f);
}

TEST(FusionPassTest, RectangularPoolIsNotFused) {
  Graph g;
  const auto x = g.input(Shape{1, 3, 8, 8}, "x");
  const auto l = g.conv2d(x, w1x1(24, 3, 30), rbias(24, 31), 1, 0, "lconv");
  const auto a = g.relu(l, "act");
  ir::Node pool_node;
  pool_node.kind = ir::OpKind::kPool;
  pool_node.inputs = {a};
  pool_node.attrs.pool_kind = ir::PoolKind::kMax;
  pool_node.attrs.pool_kh = 2;
  pool_node.attrs.pool_kw = 1;  // rectangular: unsupported by the fused kernel
  pool_node.attrs.pool_sh = 2;
  pool_node.attrs.pool_sw = 1;
  const auto p = g.append(std::move(pool_node));
  const auto f = g.conv2d(p, w1x1(4, 24, 32), rbias(4, 33), 1, 0, "fconv");
  g.set_outputs({f});
  g.infer_shapes();
  core::OptimizeStats stats;
  core::fuse_activations(g, {}, &stats);
  EXPECT_EQ(stats.fused_kernels, 0);
}

}  // namespace
}  // namespace temco
