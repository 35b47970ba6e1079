// In-place planner mode and DOT export.
#include <gtest/gtest.h>

#include <string>

#include "decomp/pass.hpp"
#include "ir/dot.hpp"
#include "models/zoo.hpp"
#include "runtime/planner.hpp"
#include "support/rng.hpp"

namespace temco {
namespace {

using ir::Graph;

// ---- in-place activation accounting --------------------------------------------

TEST(InplacePlannerTest, ActivationAliasesDyingInput) {
  Graph g;
  Rng rng(4);
  const auto x = g.input(Shape{1, 4, 8, 8}, "x");
  const auto c = g.conv2d(x, Tensor::random_normal(Shape{16, 4, 3, 3}, rng, 0.2f),
                          Tensor::zeros(Shape{16}), 1, 1, "conv");
  const auto r = g.relu(c, "relu");
  const auto p = g.pool(r, ir::PoolKind::kMax, 2, 2, "pool");
  g.set_outputs({p});
  g.infer_shapes();

  const auto strict = runtime::plan_memory(g, {});
  const auto inplace = runtime::plan_memory(g, {.assume_inplace_activations = true});
  const std::int64_t map_bytes = 16 * 8 * 8 * 4;
  const std::int64_t input_bytes = 4 * 8 * 8 * 4;
  // Strict: conv_out + relu_out live together.  In-place: the pair collapses
  // and the peak falls back to the conv step (input + output).
  EXPECT_EQ(strict.peak_internal_bytes, 2 * map_bytes);
  EXPECT_EQ(inplace.peak_internal_bytes, input_bytes + map_bytes);
}

TEST(InplacePlannerTest, MultiUseInputIsNotAliased) {
  // The relu input is also consumed later, so in-place is illegal and the
  // planner must keep both tensors.
  Graph g;
  const auto x = g.input(Shape{1, 4, 4, 4}, "x");
  const auto a = g.silu(x, "a");
  const auto r = g.relu(a, "r");
  const auto join = g.add({a, r}, "join");  // 'a' outlives the relu
  g.set_outputs({join});
  g.infer_shapes();
  const auto strict = runtime::plan_memory(g, {});
  const auto inplace = runtime::plan_memory(g, {.assume_inplace_activations = true});
  EXPECT_EQ(strict.peak_internal_bytes, inplace.peak_internal_bytes);
}

TEST(InplacePlannerTest, ResNetBaselinePeakMovesOffTheStem) {
  // EXPERIMENTS.md deviation D1: with in-place accounting the decomposed
  // ResNet peak is lower than the strict stem pair.
  models::ModelConfig config;
  config.batch = 2;
  config.image = 32;
  config.width = 0.25;
  const auto decomposed =
      decomp::decompose(models::build_resnet(18, config), {.ratio = 0.1}).graph;
  const auto strict = runtime::plan_memory(decomposed, {});
  const auto inplace = runtime::plan_memory(decomposed, {.assume_inplace_activations = true});
  EXPECT_LT(inplace.peak_internal_bytes, strict.peak_internal_bytes);
}

// ---- DOT export -----------------------------------------------------------------

TEST(DotExportTest, ContainsNodesEdgesAndProvenance) {
  Graph g;
  Rng rng(5);
  const auto x = g.input(Shape{1, 8, 8, 8}, "x");
  const auto c = g.conv2d(x, Tensor::random_normal(Shape{16, 8, 3, 3}, rng, 0.2f),
                          Tensor::zeros(Shape{16}), 1, 1, "conv");
  g.set_outputs({c});
  g.infer_shapes();
  const auto dec = decomp::decompose(g, {.ratio = 0.25});

  const std::string dot = ir::to_dot(dec.graph);
  EXPECT_NE(dot.find("digraph temco"), std::string::npos);
  EXPECT_NE(dot.find("conv.fconv"), std::string::npos);
  EXPECT_NE(dot.find("->"), std::string::npos);
  EXPECT_NE(dot.find("#8fce8f"), std::string::npos);  // lconv provenance color
  EXPECT_NE(dot.find("[1, 16, 8, 8]"), std::string::npos);
  // Every node declared exactly once.
  std::size_t count = 0;
  for (std::size_t pos = dot.find("n0 ["); pos != std::string::npos;
       pos = dot.find(" [label", pos + 1)) {
    ++count;
  }
  EXPECT_GE(count, dec.graph.size());
}

TEST(DotExportTest, OptionsToggleDetail) {
  Graph g;
  const auto x = g.input(Shape{1, 2, 4, 4}, "x");
  const auto r = g.relu(x, "r");
  g.set_outputs({r});
  g.infer_shapes();
  ir::DotOptions bare;
  bare.show_shapes = false;
  bare.show_weights = false;
  bare.color_provenance = false;
  const std::string dot = ir::to_dot(g, bare);
  EXPECT_EQ(dot.find("[1, 2, 4, 4]"), std::string::npos);
  EXPECT_EQ(dot.find("fillcolor"), std::string::npos);
}

}  // namespace
}  // namespace temco
