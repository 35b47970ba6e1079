// Budget-constrained schedule search (runtime/budget.hpp) and its cost model,
// end to end:
//
//   B1  cost model: class mapping, defaults
//   B2  schedule_floor_bytes: exact values on hand-built graphs
//   B3  schedule_for_budget: reorder-only search on branchy graphs, chains
//       and the zoo (never worse, names and weights carried verbatim),
//       unconstrained never-worse, generous budgets,
//       a synthetic graph where only rematerialization can meet the budget,
//       unmeetable budgets degrade instead of throwing — all bitwise-identical
//       across the {reference, arena} executors
//   B4  zoo acceptance at the bench geometry: every 50%-of-unconstrained miss
//       sits below the intrinsic schedule floor (infeasible for ANY scheduler),
//       and the search meets the raw 50% budget on at least half the zoo
//   B5  serving plumbing: CompileOptions::max_arena_bytes caps the session
//       slab, stamps artifacts through save/load, bounds SessionPool residency,
//       and raises ResourceExhaustedError naming the best achievable slab
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <map>
#include <string>

#include "core/temco.hpp"
#include "decomp/pass.hpp"
#include "models/zoo.hpp"
#include "runtime/arena.hpp"
#include "runtime/budget.hpp"
#include "runtime/cost_model.hpp"
#include "runtime/executor.hpp"
#include "runtime/planner.hpp"
#include "serve/compiled_model.hpp"
#include "serve/session.hpp"
#include "support/error.hpp"
#include "support/rng.hpp"
#include "tensor/compare.hpp"

namespace temco {
namespace {

using ir::Graph;
using ir::ValueId;
using runtime::BudgetOptions;
using runtime::CostClass;
using runtime::CostModel;

// ---- B1: cost model ---------------------------------------------------------

TEST(CostModelTest, EveryOpKindMapsToItsThroughputClass) {
  EXPECT_EQ(runtime::cost_class_of(ir::OpKind::kConv2d), CostClass::kGemm);
  EXPECT_EQ(runtime::cost_class_of(ir::OpKind::kLinear), CostClass::kGemm);
  EXPECT_EQ(runtime::cost_class_of(ir::OpKind::kFusedConvActConv), CostClass::kGemm);
  EXPECT_EQ(runtime::cost_class_of(ir::OpKind::kDepthwiseConv2d), CostClass::kDepthwise);
  EXPECT_EQ(runtime::cost_class_of(ir::OpKind::kRelu), CostClass::kMemoryBound);
  EXPECT_EQ(runtime::cost_class_of(ir::OpKind::kConcat), CostClass::kMemoryBound);
  EXPECT_EQ(runtime::cost_class_of(ir::OpKind::kPool), CostClass::kMemoryBound);
}

TEST(CostModelTest, DefaultsPriceEveryNodePositively) {
  const CostModel model;
  EXPECT_GT(model.gflops(CostClass::kGemm), 0.0);
  EXPECT_GT(model.gflops(CostClass::kDepthwise), 0.0);
  EXPECT_GT(model.gflops(CostClass::kMemoryBound), 0.0);

  Graph g;
  Rng rng(1);
  const auto x = g.input(Shape{1, 4, 8, 8}, "x");
  const auto c = g.conv2d(x, Tensor::random_normal(Shape{8, 4, 3, 3}, rng, 0.2f),
                          Tensor::zeros(Shape{8}), 1, 1, "conv");
  g.set_outputs({g.relu(c, "relu")});
  g.infer_shapes();

  EXPECT_EQ(model.node_seconds(g, g.node(x)), 0.0);  // inputs cost nothing
  EXPECT_GT(model.node_seconds(g, g.node(c)), 0.0);
  EXPECT_GT(model.graph_seconds(g), model.node_seconds(g, g.node(c)));
}

// ---- shared graph builders --------------------------------------------------

Tensor conv1x1_weight(std::int64_t co, std::int64_t ci, Rng& rng) {
  return Tensor::random_normal(Shape{co, ci, 1, 1}, rng, 0.2f);
}

/// A chain where program order is already optimal: input → conv → relu → pool.
Graph simple_chain() {
  Graph g;
  Rng rng(7);
  const auto x = g.input(Shape{1, 4, 8, 8}, "x");
  const auto c = g.conv2d(x, conv1x1_weight(16, 4, rng), Tensor::zeros(Shape{16}), 1, 0, "conv");
  const auto r = g.relu(c, "relu");
  g.set_outputs({g.pool(r, ir::PoolKind::kMax, 2, 2, "pool")});
  g.infer_shapes();
  return g;
}

/// The rematerialization stress graph.  Four wide 16 KiB tensors w1..w4 are
/// forced live across the middle section: each is needed EARLY (pooled into
/// the concat that seeds the thin chain) and LATE (one add each at the tail),
/// so no topological order can keep fewer than all four resident at the
/// concat — reordering alone is pinned at ≥ 96 KiB.  Rematerializing w_i
/// right before its add (a depth-1 duplicate of a cheap 1×1 conv reading the
/// graph input) releases the originals early and lands at the 48 KiB floor
/// set by the add steps.
Graph remat_graph() {
  Graph g;
  Rng rng(11);
  const auto x = g.input(Shape{1, 4, 8, 8}, "x");  // 1 KiB
  std::vector<ValueId> wide, pooled;
  for (int i = 0; i < 4; ++i) {
    const auto w = g.conv2d(x, conv1x1_weight(64, 4, rng), Tensor::zeros(Shape{64}), 1, 0,
                            "w" + std::to_string(i + 1));  // {1,64,8,8} = 16 KiB
    wide.push_back(w);
    pooled.push_back(g.pool(w, ir::PoolKind::kMax, 2, 2, "s" + std::to_string(i + 1)));
  }
  const auto c = g.concat(pooled, "c");  // {1,256,4,4} = 16 KiB
  const auto d1 =
      g.conv2d(c, conv1x1_weight(64, 256, rng), Tensor::zeros(Shape{64}), 1, 0, "d1");  // 4 KiB
  const auto d2 = g.relu(d1, "d2");
  const auto d3 =
      g.conv2d(d2, conv1x1_weight(64, 64, rng), Tensor::zeros(Shape{64}), 1, 0, "d3");
  auto v = g.upsample(d3, 2, "u");  // back to {1,64,8,8}
  for (int i = 0; i < 4; ++i) {
    v = g.add({wide[static_cast<std::size_t>(i)], v}, "z" + std::to_string(i + 1));
  }
  g.set_outputs({g.pool(v, ir::PoolKind::kMax, 8, 8, "out")});  // {1,64,1,1}
  g.infer_shapes();
  return g;
}

/// Asserts `scheduled` reproduces `reference`'s output bytes exactly on every
/// executor regime — the budget search's core contract.
void expect_bitwise_on_all_regimes(const Graph& scheduled, const Tensor& input,
                                   const Tensor& reference) {
  for (const bool use_arena : {false, true}) {
    const auto result = runtime::execute(scheduled, {input}, {.use_arena = use_arena});
    ASSERT_EQ(result.outputs.size(), 1u);
    EXPECT_EQ(max_abs_diff(result.outputs[0], reference), 0.0f)
        << "diverged with use_arena=" << use_arena;
  }
}

// ---- B2: the intrinsic floor ------------------------------------------------

TEST(ScheduleFloorTest, ChainFloorIsTheWidestSingleStep) {
  const Graph g = simple_chain();
  // relu step: 4 KiB conv output in + 4 KiB relu output out, the widest
  // instant (the conv step is only 1 KiB + 4 KiB).
  const std::int64_t floor = runtime::schedule_floor_bytes(g);
  EXPECT_EQ(floor, 4096 + 4096);
  // The floor really is a lower bound on the oracle.
  EXPECT_LE(floor, runtime::plan_arena(g).arena_bytes);
}

TEST(ScheduleFloorTest, RematGraphFloorIsTheAddStep) {
  const Graph g = remat_graph();
  // Each add reads two {1,64,8,8} tensors and writes a third: 3 × 16 KiB.
  EXPECT_EQ(runtime::schedule_floor_bytes(g), 3 * 16384);
  EXPECT_LE(runtime::schedule_floor_bytes(g), runtime::plan_arena(g).arena_bytes);
}

TEST(ScheduleFloorTest, GraphOutputsBoundTheFloorFromBelow) {
  // Two outputs that coexist at the end: the floor includes their sum even
  // though no single step is that wide.
  Graph g;
  Rng rng(3);
  const auto x = g.input(Shape{1, 8, 8, 8}, "x");  // 2 KiB
  const auto a = g.relu(x, "a");
  const auto b = g.silu(x, "b");
  g.set_outputs({a, b});
  g.infer_shapes();
  EXPECT_GE(runtime::schedule_floor_bytes(g), 2 * 2048);
}

// ---- B3: the search ---------------------------------------------------------

/// Two branches hang off x: a heavy one producing big tensors consumed late,
/// and a light one.  Program order runs the heavy branch FIRST, keeping the
/// big tensors alive across the light branch; the search should defer them.
/// `light_conv` puts a weighted node on the light branch.
Graph wasteful_branch_order(bool light_conv) {
  Graph g;
  Rng wrng(17);
  const auto x = g.input(Shape{1, 4, 16, 16}, "x");
  const auto big = g.concat({x, x}, "big");        // 8 ch, stays live...
  const auto big2 = g.concat({big, big}, "big2");  // 16 ch
  ValueId light = x;
  if (light_conv) {
    light = g.conv2d(x, Tensor::random_normal(Shape{4, 4, 3, 3}, wrng, 0.2f),
                     Tensor::zeros(Shape{4}), 1, 1, "light_conv");
  }
  for (int i = 0; i < 4; ++i) light = g.relu(light, "light" + std::to_string(i));
  const auto light_small = g.pool(light, ir::PoolKind::kMax, 4, 4, "shrink");
  const auto light_up = g.upsample(light_small, 4, "grow");
  g.set_outputs({g.concat({big2, light_up}, "join")});
  g.infer_shapes();
  return g;
}

bool order_changed(const Graph& a, const Graph& b) {
  for (std::size_t i = 0; i < std::min(a.size(), b.size()); ++i) {
    if (a.node(static_cast<ValueId>(i)).name != b.node(static_cast<ValueId>(i)).name) return true;
  }
  return a.size() != b.size();
}

TEST(SchedulerTest, ReordersWastefulBranchOrder) {
  const Graph g = wasteful_branch_order(false);
  const auto result = runtime::schedule_for_budget(g);
  EXPECT_TRUE(order_changed(g, result.graph)) << "search kept program order";
  EXPECT_LE(result.achieved_arena_bytes, runtime::plan_arena(g).arena_bytes);
  EXPECT_LE(runtime::plan_memory(result.graph).peak_internal_bytes,
            runtime::plan_memory(g).peak_internal_bytes);
  EXPECT_EQ(result.graph.size(), g.size());

  // Semantics must be untouched by reordering.
  Rng rng(1);
  const Tensor input = Tensor::random_normal(Shape{1, 4, 16, 16}, rng);
  EXPECT_EQ(max_abs_diff(runtime::execute(g, {input}).outputs[0],
                         runtime::execute(result.graph, {input}).outputs[0]),
            0.0f);
}

TEST(SchedulerTest, RebuildPreservesNamesAndWeightsVerbatim) {
  // Regression: a reorder must only remap value ids.  Names travel with
  // their nodes, weights keep aliasing the same storage (no copies), and
  // every input edge still points at the same-named producer — on a graph
  // the search genuinely reorders, not one where it falls back.
  const Graph g = wasteful_branch_order(true);
  const auto result = runtime::schedule_for_budget(g);
  ASSERT_EQ(result.graph.size(), g.size());

  // Premise guard: this topology actually reorders (the heavy concats are
  // deferred past the light chain); without that the test proves nothing.
  ASSERT_TRUE(order_changed(g, result.graph))
      << "search kept program order; pick a different topology";

  // Same node multiset: every original node appears exactly once by name,
  // with its kind and weights carried over verbatim (same data pointers).
  std::map<std::string, const ir::Node*> by_name;
  for (const auto& node : result.graph.nodes()) {
    EXPECT_TRUE(by_name.emplace(node.name, &node).second) << "duplicate name " << node.name;
  }
  ASSERT_EQ(by_name.size(), g.size());
  for (const auto& node : g.nodes()) {
    const auto it = by_name.find(node.name);
    ASSERT_NE(it, by_name.end()) << node.name << " lost in rebuild";
    const ir::Node& copy = *it->second;
    EXPECT_EQ(copy.kind, node.kind) << node.name;
    ASSERT_EQ(copy.weights.size(), node.weights.size()) << node.name;
    for (std::size_t w = 0; w < node.weights.size(); ++w) {
      EXPECT_EQ(copy.weights[w].data(), node.weights[w].data())
          << node.name << ": weight " << w << " was copied instead of shared";
    }
    // Remapped input edges resolve to the same-named producers.
    ASSERT_EQ(copy.inputs.size(), node.inputs.size()) << node.name;
    for (std::size_t i = 0; i < node.inputs.size(); ++i) {
      EXPECT_EQ(result.graph.node(copy.inputs[i]).name, g.node(node.inputs[i]).name)
          << node.name << ": input " << i << " rewired to a different producer";
    }
  }
  for (std::size_t o = 0; o < g.outputs().size(); ++o) {
    EXPECT_EQ(result.graph.node(result.graph.outputs()[o]).name,
              g.node(g.outputs()[o]).name);
  }
}

TEST(SchedulerTest, ChainIsAFixpoint) {
  // A pure chain has exactly one topological order.
  Graph g;
  const auto x = g.input(Shape{1, 2, 8, 8}, "x");
  auto v = g.relu(x);
  v = g.silu(v);
  v = g.pool(v, ir::PoolKind::kMax, 2, 2);
  g.set_outputs({v});
  g.infer_shapes();
  const auto result = runtime::schedule_for_budget(g);
  EXPECT_EQ(result.achieved_arena_bytes, runtime::plan_arena(g).arena_bytes);
  ASSERT_EQ(result.graph.size(), g.size());
  for (std::size_t i = 0; i < g.size(); ++i) {
    EXPECT_EQ(result.graph.node(static_cast<ValueId>(i)).kind,
              g.node(static_cast<ValueId>(i)).kind);
  }
}

TEST(SchedulerTest, NeverWorseAcrossZoo) {
  models::ModelConfig config;
  config.batch = 1;
  config.image = 32;
  config.width = 0.125;
  for (const char* name : {"vgg11", "resnet18", "unet_half", "densenet121"}) {
    const auto graph = models::find_model(name).build(config);
    const auto result = runtime::schedule_for_budget(graph);
    EXPECT_LE(result.achieved_arena_bytes, runtime::plan_arena(graph).arena_bytes) << name;

    Rng rng(2);
    const Tensor input = Tensor::random_normal(Shape{1, 3, 32, 32}, rng);
    EXPECT_EQ(max_abs_diff(runtime::execute(graph, {input}).outputs[0],
                           runtime::execute(result.graph, {input}).outputs[0]),
              0.0f)
        << name;
  }
}

TEST(SchedulerTest, ComposesWithTemco) {
  models::ModelConfig config;
  config.batch = 1;
  config.image = 32;
  config.width = 0.25;
  const auto decomposed =
      decomp::decompose(models::build_unet(true, config), {.ratio = 0.25}).graph;
  const auto optimized = core::optimize(decomposed, {});
  const auto scheduled = runtime::schedule_for_budget(optimized);
  EXPECT_LE(scheduled.achieved_arena_bytes, runtime::plan_arena(optimized).arena_bytes);

  Rng rng(3);
  const Tensor input = Tensor::random_normal(Shape{1, 3, 32, 32}, rng);
  EXPECT_LT(max_abs_diff(runtime::execute(decomposed, {input}).outputs[0],
                         runtime::execute(scheduled.graph, {input}).outputs[0]),
            2e-3f);
}


TEST(ScheduleForBudgetTest, UnconstrainedSearchNeverWorsensTheOracle) {
  const Graph g = remat_graph();
  const std::int64_t before = runtime::plan_arena(g).arena_bytes;

  const auto result = runtime::schedule_for_budget(g, {});
  EXPECT_TRUE(result.met);  // no budget is always met
  EXPECT_EQ(result.budget_bytes, 0);
  EXPECT_EQ(result.remat_nodes, 0);  // unconstrained never duplicates compute
  EXPECT_DOUBLE_EQ(result.predicted_slowdown, 1.0);
  EXPECT_LE(result.achieved_arena_bytes, before);
  EXPECT_EQ(result.achieved_arena_bytes, runtime::plan_arena(result.graph).arena_bytes);

  Rng rng(5);
  const Tensor input = Tensor::random_normal(Shape{1, 4, 8, 8}, rng);
  const Tensor reference = runtime::execute(g, {input}).outputs[0];
  expect_bitwise_on_all_regimes(result.graph, input, reference);
}

TEST(ScheduleForBudgetTest, GenerousBudgetMetWithoutRemat) {
  const Graph g = simple_chain();
  BudgetOptions options;
  options.max_bytes = runtime::plan_arena(g).arena_bytes;
  const auto result = runtime::schedule_for_budget(g, options);
  EXPECT_TRUE(result.met);
  EXPECT_EQ(result.remat_nodes, 0);
  EXPECT_LE(result.achieved_arena_bytes, options.max_bytes);
}

TEST(ScheduleForBudgetTest, TightBudgetRequiresRematerialization) {
  const Graph g = remat_graph();
  const std::int64_t unconstrained = runtime::plan_arena(g).arena_bytes;
  // Reordering alone is pinned at >= 96 KiB (all four wide tensors plus the
  // pooled copies and the concat coexist at the concat step); 72 KiB sits
  // between that wall and the 48 KiB floor, so only recompute can get there.
  BudgetOptions options;
  options.max_bytes = 72 * 1024;
  ASSERT_GT(runtime::schedule_floor_bytes(g), 0);
  ASSERT_LT(runtime::schedule_floor_bytes(g), options.max_bytes);
  ASSERT_LT(options.max_bytes, unconstrained);

  const auto result = runtime::schedule_for_budget(g, options);
  EXPECT_TRUE(result.met) << "best achievable " << result.achieved_arena_bytes;
  EXPECT_GE(result.remat_nodes, 2);  // at least two wide tensors must be cut
  EXPECT_LE(result.achieved_arena_bytes, options.max_bytes);
  EXPECT_LT(result.achieved_arena_bytes, result.unconstrained_arena_bytes);
  EXPECT_GE(result.predicted_slowdown, 1.0);  // duplicated compute is priced
  EXPECT_EQ(result.achieved_arena_bytes, runtime::plan_arena(result.graph).arena_bytes);
  // The emitted graph really contains duplicated nodes, not a rewritten one.
  EXPECT_EQ(static_cast<int>(result.graph.size() - g.size()), result.remat_nodes);

  Rng rng(5);
  const Tensor input = Tensor::random_normal(Shape{1, 4, 8, 8}, rng);
  const Tensor reference = runtime::execute(g, {input}).outputs[0];
  expect_bitwise_on_all_regimes(result.graph, input, reference);
}

TEST(ScheduleForBudgetTest, UnmeetableBudgetDegradesInsteadOfThrowing) {
  const Graph g = remat_graph();
  BudgetOptions options;
  options.max_bytes = 1024;  // far below the 48 KiB floor
  ASSERT_LT(options.max_bytes, runtime::schedule_floor_bytes(g));

  const auto result = runtime::schedule_for_budget(g, options);
  EXPECT_FALSE(result.met);
  EXPECT_GE(result.achieved_arena_bytes, runtime::schedule_floor_bytes(g));
  EXPECT_LE(result.achieved_arena_bytes, result.unconstrained_arena_bytes);

  // Even the best-effort graph stays a valid, bitwise-identical program.
  Rng rng(5);
  const Tensor input = Tensor::random_normal(Shape{1, 4, 8, 8}, rng);
  const Tensor reference = runtime::execute(g, {input}).outputs[0];
  expect_bitwise_on_all_regimes(result.graph, input, reference);
}

// ---- B4: zoo acceptance at the bench geometry -------------------------------

TEST(ScheduleBudgetZooTest, FiftyPercentBudgetMetOrProvablyInfeasible) {
  // Halved bench geometry (bench/common.hpp runs width 0.25 / image 32): the
  // met-vs-floor landscape is scale-invariant — byte ratios are set by each
  // architecture's channel progression, not absolute sizes — and this keeps
  // the test CI-friendly under asan/tsan (Tucker decomposition of the wide
  // layers dominates, not the search).  Verdicts at this scale match the
  // full-effort bench (bench/schedule_budget.cpp) model for model.
  int met = 0;
  for (const auto& spec : models::model_zoo()) {
    models::ModelConfig config;
    config.batch = 1;
    config.image = spec.family == "UNet" ? 32 : 16;
    config.width = spec.family == "AlexNet" ? 0.5 : 0.125;
    config.classes = 16;
    config.seed = 42;

    const auto original = spec.build(config);
    decomp::DecomposeOptions decomposition;
    decomposition.method = decomp::Method::kTucker;
    decomposition.ratio = 0.1;
    const auto decomposed = decomp::decompose(original, decomposition).graph;
    const auto optimized = core::optimize(decomposed, {});

    const std::int64_t unconstrained = runtime::plan_arena(decomposed).arena_bytes;
    BudgetOptions options;
    options.max_bytes = unconstrained / 2;
    // Trimmed search effort keeps this suite fast under asan/tsan; the met
    // models clear 50% with several-fold margin, so narrower search does not
    // change any verdict (the bench runs the full-effort configuration).
    options.beam_width = 2;
    options.max_remat_rounds = 8;
    const auto result = runtime::schedule_for_budget(optimized, options);

    if (result.met) {
      ++met;
      // "Met" must be arena-planner-validated, not an estimator's opinion.
      EXPECT_LE(runtime::plan_arena(result.graph).arena_bytes, options.max_bytes) << spec.name;
    } else {
      // Every miss must be *provably* infeasible: the budget sits below the
      // intrinsic floor, where those bytes are live in the same instant under
      // every schedule any scheduler could emit.
      EXPECT_LT(options.max_bytes, runtime::schedule_floor_bytes(optimized))
          << spec.name << ": search fell short of a physically meetable budget ("
          << result.achieved_arena_bytes << " achieved vs " << options.max_bytes << " budget)";
    }
  }
  // VGG-11/16/19 and both UNets have headroom between floor and 50%; the
  // search must actually land them (the other five sit below their floors).
  EXPECT_GE(met, 5);
}

// ---- B5: serving plumbing ---------------------------------------------------

/// Small deterministic model for the compile-path tests.
Graph serve_graph() { return remat_graph(); }

TEST(CompileBudgetTest, UnmeetableBudgetRaisesResourceExhaustedNamingBestAchievable) {
  serve::CompileOptions options;
  options.optimize = false;
  options.max_batch = 1;
  options.max_arena_bytes = 1024;
  try {
    serve::CompiledModel::compile(serve_graph(), options);
    FAIL() << "expected ResourceExhaustedError";
  } catch (const ResourceExhaustedError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("best achievable"), std::string::npos) << what;
  }
}

TEST(CompileBudgetTest, BudgetCapsSlabStampsOptionsAndSurvivesSaveLoad) {
  // Unconstrained first: the anchor for the budget and the bitwise reference.
  serve::CompileOptions unconstrained;
  unconstrained.optimize = false;
  unconstrained.max_batch = 1;
  const auto base = serve::CompiledModel::compile(serve_graph(), unconstrained);

  serve::CompileOptions options = unconstrained;
  options.max_arena_bytes = 72 * 1024;  // forces rematerialization (see B3)
  ASSERT_LT(options.max_arena_bytes, base->slab_bytes());
  const auto model = serve::CompiledModel::compile(serve_graph(), options);

  EXPECT_LE(model->slab_bytes(), options.max_arena_bytes);
  EXPECT_EQ(model->options().max_arena_bytes, options.max_arena_bytes);
  EXPECT_GT(model->graph(1).size(), base->graph(1).size());  // remat duplicates

  // The budget stamp round-trips through the artifact container.
  const std::string path = ::testing::TempDir() + "/budget_model.temco";
  model->save(path);
  const auto loaded = serve::CompiledModel::load(path);
  EXPECT_EQ(loaded->options().max_arena_bytes, options.max_arena_bytes);
  EXPECT_LE(loaded->slab_bytes(), options.max_arena_bytes);
  std::remove(path.c_str());

  // Sessions inherit the smaller validated slab; a pool's residency is
  // bounded by size × budget.
  serve::Session session(model);
  EXPECT_LE(session.arena_bytes(), options.max_arena_bytes);
  serve::SessionPool pool(model, 3);
  EXPECT_LE(pool.resident_bytes(), 3 * options.max_arena_bytes);

  // And the constrained session serves bitwise-identical bytes.
  Rng rng(17);
  const Tensor input = Tensor::random_normal(Shape{1, 4, 8, 8}, rng);
  serve::Session reference(base);
  const auto expected = reference.run({input});
  const auto got = session.run({input});
  ASSERT_EQ(got.size(), expected.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(max_abs_diff(got[i], expected[i]), 0.0f);
  }
}

TEST(CompileBudgetTest, GenerousBudgetCompilesUnchanged) {
  serve::CompileOptions unconstrained;
  unconstrained.optimize = false;
  unconstrained.max_batch = 2;
  const auto base = serve::CompiledModel::compile(serve_graph(), unconstrained);

  serve::CompileOptions options = unconstrained;
  options.max_arena_bytes = base->slab_bytes();
  const auto model = serve::CompiledModel::compile(serve_graph(), options);
  EXPECT_LE(model->slab_bytes(), options.max_arena_bytes);
  EXPECT_EQ(model->graph(1).size(), base->graph(1).size());  // no remat needed
}

}  // namespace
}  // namespace temco
