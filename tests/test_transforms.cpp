// §3.3 layer transformations: concat split, merged block-diagonal lconv and
// upsample commute — each must preserve semantics exactly and enable fusion.
#include <gtest/gtest.h>

#include "core/rebuild.hpp"
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

/// Two act(lconv(reduced)) branches joined by a concat that feeds an fconv —
/// the exact Figure 9b shape.
struct ConcatFixture {
  Graph graph;
  ValueId concat, fconv;
};

ConcatFixture build_concat_fconv(ir::OpKind act1, ir::OpKind act2) {
  ConcatFixture f;
  Graph& g = f.graph;
  const auto x = g.input(Shape{2, 6, 6, 6}, "x");
  const auto r1 = g.conv2d(x, w1x1(2, 6, 1), rbias(2, 2), 1, 0, "f1");
  const auto l1 = g.conv2d(r1, w1x1(12, 2, 3), rbias(12, 4), 1, 0, "l1");
  const auto a1 = act1 == ir::OpKind::kRelu ? g.relu(l1, "a1") : g.silu(l1, "a1");
  const auto r2 = g.conv2d(x, w1x1(3, 6, 5), rbias(3, 6), 1, 0, "f2");
  const auto l2 = g.conv2d(r2, w1x1(8, 3, 7), rbias(8, 8), 1, 0, "l2");
  const auto a2 = act2 == ir::OpKind::kRelu ? g.relu(l2, "a2") : g.silu(l2, "a2");
  f.concat = g.concat({a1, a2}, "join");
  f.fconv = g.conv2d(f.concat, w1x1(4, 20, 9), rbias(4, 10), 1, 0, "next.fconv");
  g.set_outputs({f.fconv});
  g.infer_shapes();
  return f;
}

TEST(ConcatSplitTest, PreservesSemantics) {
  const auto f = build_concat_fconv(ir::OpKind::kRelu, ir::OpKind::kRelu);
  core::TemcoOptions options;
  options.prefer_merged_lconv = false;  // force the split form
  core::OptimizeStats stats;
  const auto transformed = core::transform_layers(f.graph, options, &stats);
  EXPECT_EQ(stats.concat_splits, 1);
  EXPECT_EQ(stats.lconv_merges, 0);

  Rng rng(800);
  const Tensor input = Tensor::random_normal(Shape{2, 6, 6, 6}, rng);
  EXPECT_LT(max_abs_diff(runtime::execute(f.graph, {input}).outputs[0],
                         runtime::execute(transformed, {input}).outputs[0]),
            1e-4f);

  // The wide concatenated tensor is gone.
  bool has_wide_concat = false;
  for (const auto& node : transformed.nodes()) {
    if (node.kind == ir::OpKind::kConcat && node.out_shape[1] == 20) has_wide_concat = true;
  }
  EXPECT_FALSE(has_wide_concat);
}

TEST(MergedLconvTest, PreservesSemanticsAndConcatsReduced) {
  const auto f = build_concat_fconv(ir::OpKind::kRelu, ir::OpKind::kRelu);
  core::TemcoOptions options;
  options.prefer_merged_lconv = true;
  core::OptimizeStats stats;
  const auto transformed = core::transform_layers(f.graph, options, &stats);
  EXPECT_EQ(stats.lconv_merges, 1);
  EXPECT_EQ(stats.concat_splits, 0);

  Rng rng(801);
  const Tensor input = Tensor::random_normal(Shape{2, 6, 6, 6}, rng);
  EXPECT_LT(max_abs_diff(runtime::execute(f.graph, {input}).outputs[0],
                         runtime::execute(transformed, {input}).outputs[0]),
            1e-4f);

  // The concat in the transformed graph joins reduced tensors (2+3 channels).
  bool found_reduced_concat = false;
  for (const auto& node : transformed.nodes()) {
    if (node.kind == ir::OpKind::kConcat) {
      EXPECT_EQ(node.out_shape[1], 5);
      found_reduced_concat = true;
    }
  }
  EXPECT_TRUE(found_reduced_concat);
}

TEST(MergedLconvTest, MixedActivationsFallBackToSplit) {
  const auto f = build_concat_fconv(ir::OpKind::kRelu, ir::OpKind::kSilu);
  core::TemcoOptions options;
  options.prefer_merged_lconv = true;
  core::OptimizeStats stats;
  const auto transformed = core::transform_layers(f.graph, options, &stats);
  EXPECT_EQ(stats.lconv_merges, 0) << "merge requires identical activations";
  EXPECT_EQ(stats.concat_splits, 1);

  Rng rng(802);
  const Tensor input = Tensor::random_normal(Shape{2, 6, 6, 6}, rng);
  EXPECT_LT(max_abs_diff(runtime::execute(f.graph, {input}).outputs[0],
                         runtime::execute(transformed, {input}).outputs[0]),
            1e-4f);
}

TEST(MergedLconvTest, BlockDiagonalWeightsAreZeroOffDiagonal) {
  const auto f = build_concat_fconv(ir::OpKind::kRelu, ir::OpKind::kRelu);
  core::TemcoOptions options;
  const auto transformed = core::transform_layers(f.graph, options);
  for (const auto& node : transformed.nodes()) {
    if (node.name.find("merged_lconv") == std::string::npos) continue;
    const Tensor& w = node.weights[0];
    ASSERT_EQ(w.shape(), (Shape{20, 5, 1, 1}));
    // Off-diagonal blocks: rows 0-11 x cols 2-4 and rows 12-19 x cols 0-1.
    for (std::int64_t co = 0; co < 12; ++co) {
      for (std::int64_t ci = 2; ci < 5; ++ci) EXPECT_EQ(w.data()[co * 5 + ci], 0.0f);
    }
    for (std::int64_t co = 12; co < 20; ++co) {
      for (std::int64_t ci = 0; ci < 2; ++ci) EXPECT_EQ(w.data()[co * 5 + ci], 0.0f);
    }
  }
}

TEST(ConcatSplitTest, MultiUserConcatIsNotTransformed) {
  // The concat feeds both an fconv and a pool: splitting would duplicate it.
  Graph g;
  const auto x = g.input(Shape{1, 4, 6, 6}, "x");
  const auto a = g.relu(x, "a");
  const auto b = g.silu(x, "b");
  const auto cat = g.concat({a, b}, "cat");
  const auto f = g.conv2d(cat, w1x1(2, 8, 21), rbias(2, 22), 1, 0, "fconv");
  const auto p = g.pool(cat, ir::PoolKind::kMax, 2, 2, "pool");
  g.set_outputs({f, p});
  g.infer_shapes();
  core::OptimizeStats stats;
  const auto transformed = core::transform_layers(g, {}, &stats);
  EXPECT_EQ(stats.concat_splits, 0);
  EXPECT_EQ(stats.lconv_merges, 0);
  EXPECT_EQ(transformed.size(), g.size());
}

TEST(UpsampleCommuteTest, ConvMovesBeforeUpsample) {
  // conv1x1(upsample(x)) == upsample(conv1x1(x)) for nearest upsampling.
  Graph g;
  const auto x = g.input(Shape{1, 8, 4, 4}, "x");
  const auto up = g.upsample(x, 2, "up");
  const auto f = g.conv2d(up, w1x1(3, 8, 31), rbias(3, 32), 1, 0, "fconv");
  g.set_outputs({f});
  g.infer_shapes();

  core::OptimizeStats stats;
  const auto transformed = core::transform_layers(g, {}, &stats);
  EXPECT_EQ(stats.upsample_commutes, 1);

  // The conv now runs at low resolution; the upsample is last.
  bool conv_before_upsample = false;
  for (const auto& node : transformed.nodes()) {
    if (node.kind == ir::OpKind::kConv2d) {
      EXPECT_EQ(node.out_shape[2], 4) << "conv should run pre-upsample";
    }
    if (node.kind == ir::OpKind::kUpsample && node.inputs.size() == 1 &&
        transformed.node(node.inputs[0]).kind == ir::OpKind::kConv2d) {
      conv_before_upsample = true;
    }
  }
  EXPECT_TRUE(conv_before_upsample);

  Rng rng(805);
  const Tensor input = Tensor::random_normal(Shape{1, 8, 4, 4}, rng);
  EXPECT_LT(max_abs_diff(runtime::execute(g, {input}).outputs[0],
                         runtime::execute(transformed, {input}).outputs[0]),
            1e-5f);
}

TEST(UpsampleCommuteTest, ChainsThroughConsecutivePointwiseConvs) {
  Graph g;
  const auto x = g.input(Shape{1, 8, 4, 4}, "x");
  const auto up = g.upsample(x, 2, "up");
  const auto f1 = g.conv2d(up, w1x1(6, 8, 33), rbias(6, 34), 1, 0, "f1");
  const auto f2 = g.conv2d(f1, w1x1(2, 6, 35), rbias(2, 36), 1, 0, "f2");
  g.set_outputs({f2});
  g.infer_shapes();

  core::OptimizeStats stats;
  const auto transformed = core::transform_layers(g, {}, &stats);
  EXPECT_EQ(stats.upsample_commutes, 2);  // upsample sinks past both convs

  Rng rng(806);
  const Tensor input = Tensor::random_normal(Shape{1, 8, 4, 4}, rng);
  EXPECT_LT(max_abs_diff(runtime::execute(g, {input}).outputs[0],
                         runtime::execute(transformed, {input}).outputs[0]),
            1e-5f);
}

TEST(UpsampleCommuteTest, SpatialConvBlocksCommute) {
  // A 3×3 conv does NOT commute with upsampling; must be left alone.
  Graph g;
  Rng wrng(807);
  const auto x = g.input(Shape{1, 4, 4, 4}, "x");
  const auto up = g.upsample(x, 2, "up");
  const auto c = g.conv2d(up, Tensor::random_normal(Shape{4, 4, 3, 3}, wrng, 0.2f),
                          rbias(4, 38), 1, 1, "spatial");
  g.set_outputs({c});
  g.infer_shapes();
  core::OptimizeStats stats;
  const auto transformed = core::transform_layers(g, {}, &stats);
  EXPECT_EQ(stats.upsample_commutes, 0);
  EXPECT_EQ(transformed.size(), g.size());
}

TEST(UpsampleCommuteTest, MultiUseUpsampleIsNotMoved) {
  Graph g;
  const auto x = g.input(Shape{1, 4, 4, 4}, "x");
  const auto up = g.upsample(x, 2, "up");
  const auto f = g.conv2d(up, w1x1(2, 4, 39), rbias(2, 40), 1, 0, "fconv");
  const auto p = g.pool(up, ir::PoolKind::kMax, 2, 2, "pool");
  g.set_outputs({f, p});
  g.infer_shapes();
  core::OptimizeStats stats;
  core::transform_layers(g, {}, &stats);
  EXPECT_EQ(stats.upsample_commutes, 0);
}

TEST(ConcatSplitTest, ThreeWayConcat) {
  Graph g;
  const auto x = g.input(Shape{1, 6, 4, 4}, "x");
  const auto a = g.relu(x, "a");
  const auto b = g.silu(x, "b");
  const auto c = g.relu(x, "c");
  const auto cat = g.concat({a, b, c}, "cat");
  const auto f = g.conv2d(cat, w1x1(3, 18, 23), rbias(3, 24), 1, 0, "fconv");
  g.set_outputs({f});
  g.infer_shapes();

  core::OptimizeStats stats;
  const auto transformed = core::transform_layers(g, {}, &stats);
  EXPECT_EQ(stats.concat_splits, 1);

  Rng rng(804);
  const Tensor input = Tensor::random_normal(Shape{1, 6, 4, 4}, rng);
  EXPECT_LT(max_abs_diff(runtime::execute(g, {input}).outputs[0],
                         runtime::execute(transformed, {input}).outputs[0]),
            1e-4f);
}

TEST(DceTest, RemovesOrphanedChains) {
  Graph g;
  const auto x = g.input(Shape{1, 2, 4, 4}, "x");
  const auto used = g.relu(x, "used");
  const auto dead1 = g.silu(x, "dead1");
  g.relu(dead1, "dead2");  // dead2 -> dead1 chain is unreachable from outputs
  g.set_outputs({used});
  g.infer_shapes();

  core::OptimizeStats stats;
  const auto cleaned = core::eliminate_dead_code(g, &stats);
  EXPECT_EQ(stats.dce_removed, 2);
  EXPECT_EQ(cleaned.size(), 2u);
  for (const auto& node : cleaned.nodes()) {
    EXPECT_EQ(node.name.find("dead"), std::string::npos);
  }
}

TEST(DceTest, KeepsUnusedGraphInputs) {
  // Inputs are part of the calling convention even when unread.
  Graph g;
  const auto x = g.input(Shape{1, 2, 4, 4}, "x");
  g.input(Shape{1, 2, 4, 4}, "unused_input");
  const auto r = g.relu(x, "r");
  g.set_outputs({r});
  g.infer_shapes();
  core::OptimizeStats stats;
  const auto cleaned = core::eliminate_dead_code(g, &stats);
  EXPECT_EQ(stats.dce_removed, 0);
  EXPECT_EQ(cleaned.size(), 3u);
}

TEST(DceTest, PreservesSemantics) {
  Graph g;
  const auto x = g.input(Shape{1, 2, 4, 4}, "x");
  const auto a = g.relu(x, "a");
  g.silu(a, "dead");
  const auto out = g.add({a, a}, "out");
  g.set_outputs({out});
  g.infer_shapes();
  const auto cleaned = core::eliminate_dead_code(g, nullptr);

  Rng rng(810);
  const Tensor input = Tensor::random_normal(Shape{1, 2, 4, 4}, rng);
  EXPECT_EQ(max_abs_diff(runtime::execute(g, {input}).outputs[0],
                         runtime::execute(cleaned, {input}).outputs[0]),
            0.0f);
}

// The rewrite driver every pass rebuilds through refuses a rewrite that
// removes a value some node outside it still reads, or a graph output.
TEST(RebuildTest, RejectsRemovingAValueStillReadOrAnOutput) {
  Graph g;
  const auto x = g.input(Shape{1, 2, 4, 4}, "x");
  const auto a = g.relu(x, "a");
  const auto b = g.relu(a, "b");
  g.set_outputs({b});
  g.infer_shapes();

  const auto rebuild_error = [&g](ValueId removed) -> std::string {
    core::detail::Rewrite drop;
    drop.removes = {removed};
    try {
      core::detail::rebuild(g, {drop});
    } catch (const Error& e) {
      return e.what();
    }
    return "no error";
  };
  EXPECT_NE(rebuild_error(a).find("removed a value still used by b"), std::string::npos);
  EXPECT_NE(rebuild_error(b).find("removed a graph output"), std::string::npos);
}

}  // namespace
}  // namespace temco
