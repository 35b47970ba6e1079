// Pass-boundary guardrails: the PassManager's structural verify + shape
// re-check + differential numeric oracle must (a) pass cleanly over the full
// TeMCO pipeline on every zoo model and (b) catch a deliberately broken pass
// *at its own boundary*, naming the pass — plus Graph::verify() property
// tests (mutation fuzzing) and Executor input validation.
#include <gtest/gtest.h>

#include <string>

#include "core/pass_manager.hpp"
#include "core/temco.hpp"
#include "decomp/pass.hpp"
#include "models/zoo.hpp"
#include "runtime/executor.hpp"
#include "support/error.hpp"
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

ir::Graph tiny_decomposed(const std::string& name) {
  const auto& spec = models::find_model(name);
  decomp::DecomposeOptions options;
  options.ratio = 0.25;
  return decomp::decompose(spec.build(tiny_config()), options).graph;
}

/// A small hand-built graph for fast PassManager unit tests.
ir::Graph small_graph() {
  Rng rng(11);
  ir::Graph g;
  const auto x = g.input(Shape{1, 4, 8, 8}, "x");
  const auto c = g.conv2d(x, Tensor::random_normal(Shape{8, 4, 3, 3}, rng, 0.2f),
                          Tensor::random_normal(Shape{8}, rng, 0.1f), 1, 1, "conv");
  const auto r = g.relu(c, "relu");
  g.set_outputs({r});
  g.infer_shapes();
  g.verify();
  return g;
}

// ---- full pipeline under maximum guardrails across the zoo -----------------

class ZooGuardrailsTest : public ::testing::TestWithParam<const char*> {};

TEST_P(ZooGuardrailsTest, VerifiedPipelineWithOracleAcceptsEveryPass) {
  const auto graph = tiny_decomposed(GetParam());

  core::TemcoOptions options;
  options.numeric_oracle = true;  // per-pass differential check vs. the input graph
  const auto optimized = core::optimize(graph, options);

  // The guarded run must produce the same result as the unguarded one.
  Rng rng(123);
  const Tensor input = Tensor::random_normal(graph.node(0).out_shape, rng);
  const auto guarded = runtime::execute(optimized, {input}).outputs[0];
  const auto plain = runtime::execute(core::optimize(graph, {}), {input}).outputs[0];
  EXPECT_LT(relative_error(guarded, plain), 1e-6) << GetParam();
}

INSTANTIATE_TEST_SUITE_P(AllModels, ZooGuardrailsTest,
                         ::testing::Values("alexnet", "vgg11", "vgg16", "vgg19", "resnet18",
                                           "resnet34", "densenet121", "densenet169", "unet",
                                           "unet_half"));

// ---- a broken pass is caught at its boundary, with the pass named ----------

TEST(PassManagerTest, NumericallyBrokenPassCaughtByOracle) {
  const auto graph = small_graph();
  core::PassManagerOptions options;
  options.numeric_oracle = true;
  core::PassManager manager(options);
  manager.add_pass("identity", [](const ir::Graph& g) { return g; });
  manager.add_pass("corrupt_weights", [](const ir::Graph& g) {
    ir::Graph broken = g;  // scale one weight: structurally valid, numerically wrong
    for (ir::ValueId id = 0; id < static_cast<ir::ValueId>(broken.size()); ++id) {
      auto& node = broken.node(id);
      if (!node.weights.empty()) {
        Tensor& w = node.weights.front();
        for (std::int64_t i = 0; i < w.numel(); ++i) w[i] *= 3.0f;
        break;
      }
    }
    return broken;
  });

  try {
    manager.run(graph);
    FAIL() << "oracle accepted a pass that rescaled the weights";
  } catch (const NumericError& e) {
    EXPECT_NE(std::string(e.what()).find("after pass 'corrupt_weights'"), std::string::npos)
        << e.what();
  }
}

TEST(PassManagerTest, StructurallyBrokenPassCaughtByVerify) {
  const auto graph = small_graph();
  core::PassManager manager;  // verification is always on, no oracle needed
  manager.add_pass("dangle_edge", [](const ir::Graph& g) {
    ir::Graph broken = g;
    broken.node(broken.outputs().front()).inputs.front() = 99;  // dangling edge
    return broken;
  });
  try {
    manager.run(graph);
    FAIL() << "verify accepted a dangling edge";
  } catch (const InvalidGraphError& e) {
    EXPECT_NE(std::string(e.what()).find("after pass 'dangle_edge'"), std::string::npos)
        << e.what();
  }
}

TEST(PassManagerTest, StaleShapePassCaughtByShapeRecheck) {
  const auto graph = small_graph();
  core::PassManager manager;
  manager.add_pass("stale_shape", [](const ir::Graph& g) {
    ir::Graph broken = g;
    broken.node(broken.outputs().front()).out_shape = Shape{1, 1, 1, 1};
    return broken;
  });
  try {
    manager.run(graph);
    FAIL() << "verify accepted a stale shape";
  } catch (const ShapeError& e) {
    EXPECT_NE(std::string(e.what()).find("after pass 'stale_shape'"), std::string::npos)
        << e.what();
  }
}

TEST(PassManagerTest, ThrowingPassKeepsItsErrorTypeWithContext) {
  core::PassManager manager;
  manager.add_pass("exploder", [](const ir::Graph&) -> ir::Graph {
    throw ResourceExhaustedError("synthetic OOM");
  });
  try {
    manager.run(small_graph());
    FAIL();
  } catch (const ResourceExhaustedError& e) {
    // Subtype preserved, context prepended.
    EXPECT_NE(std::string(e.what()).find("after pass 'exploder'"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("synthetic OOM"), std::string::npos);
  }
}

TEST(PassManagerTest, NullPassRejectedAtRegistration) {
  core::PassManager manager;
  EXPECT_THROW(manager.add_pass("null", nullptr), Error);
}

TEST(PassManagerTest, OracleToleranceIsRespected) {
  // A tiny perturbation passes a loose tolerance and fails a tight one.
  const auto graph = small_graph();
  auto perturb = [](const ir::Graph& g) {
    ir::Graph out = g;
    for (ir::ValueId id = 0; id < static_cast<ir::ValueId>(out.size()); ++id) {
      auto& node = out.node(id);
      if (!node.weights.empty()) {
        Tensor& w = node.weights.front();
        for (std::int64_t i = 0; i < w.numel(); ++i) w[i] *= 1.0f + 1e-5f;
        break;
      }
    }
    return out;
  };

  core::PassManagerOptions loose;
  loose.numeric_oracle = true;
  loose.oracle_tolerance = 1e-2;
  core::PassManager ok(loose);
  ok.add_pass("perturb", perturb);
  EXPECT_NO_THROW(ok.run(graph));

  core::PassManagerOptions tight;
  tight.numeric_oracle = true;
  tight.oracle_tolerance = 1e-9;
  core::PassManager strict(tight);
  strict.add_pass("perturb", perturb);
  EXPECT_THROW(strict.run(graph), NumericError);
}

// ---- Graph::verify() mutation fuzzing --------------------------------------

TEST(GraphVerifyTest, DanglingEdgeCaught) {
  auto g = small_graph();
  g.node(1).inputs.front() = 42;  // no such value
  EXPECT_THROW(g.verify(), InvalidGraphError);
}

TEST(GraphVerifyTest, ForwardReferenceCycleCaught) {
  // In a list-SSA IR a cycle manifests as a use of a later (or same) step.
  auto g = small_graph();
  g.node(1).inputs.front() = 2;  // conv consumes the relu that consumes it
  EXPECT_THROW(g.verify(), InvalidGraphError);
}

TEST(GraphVerifyTest, DuplicateOutputCaught) {
  auto g = small_graph();
  const auto out = g.outputs().front();
  g.set_outputs({out, out});
  EXPECT_THROW(g.verify(), InvalidGraphError);
}

TEST(GraphVerifyTest, StaleShapeCaught) {
  auto g = small_graph();
  g.node(2).out_shape = Shape{2, 8, 8, 8};  // plausible rank, wrong extents
  EXPECT_THROW(g.verify(), ShapeError);
}

TEST(GraphVerifyTest, RandomMutationsAlwaysRaiseTypedErrors) {
  // Property: any of the four mutation classes applied at a random location
  // raises a temco::Error from verify() — never UB, aborts, or foreign types.
  Rng rng(2024);
  const auto base = tiny_decomposed("vgg11");
  int caught = 0;
  for (int trial = 0; trial < 64; ++trial) {
    ir::Graph g = base;
    const auto pick_node = [&]() -> ir::ValueId {
      return static_cast<ir::ValueId>(rng() % g.size());
    };
    const int kind = static_cast<int>(rng() % 4);
    switch (kind) {
      case 0: {  // dangling edge
        auto& node = g.node(pick_node());
        if (node.inputs.empty()) continue;
        node.inputs[rng() % node.inputs.size()] =
            static_cast<ir::ValueId>(g.size() + rng() % 100);
        break;
      }
      case 1: {  // forward reference (cycle in list-SSA form)
        auto& node = g.node(pick_node());
        if (node.inputs.empty()) continue;
        node.inputs[rng() % node.inputs.size()] = node.id;
        break;
      }
      case 2: {  // duplicate output
        const auto out = g.outputs().front();
        g.set_outputs({out, out});
        break;
      }
      default: {  // stale shape
        auto& node = g.node(pick_node());
        if (node.kind == ir::OpKind::kInput) continue;
        node.out_shape = Shape{1, 1, 1, static_cast<std::int64_t>(1 + rng() % 7)};
        break;
      }
    }
    try {
      g.verify();
      ADD_FAILURE() << "mutation kind " << kind << " (trial " << trial << ") passed verify";
    } catch (const Error&) {
      ++caught;  // the only acceptable outcome
    }
  }
  EXPECT_GT(caught, 32);  // most trials must have applied a real mutation
}

// ---- Executor input validation ---------------------------------------------

TEST(ExecutorInputsTest, WrongInputCountRejectedUpFront) {
  const auto g = small_graph();
  Rng rng(7);
  const Tensor x = Tensor::random_normal(Shape{1, 4, 8, 8}, rng);
  EXPECT_THROW(runtime::execute(g, {}), InvalidGraphError);
  EXPECT_THROW(runtime::execute(g, {x, x}), InvalidGraphError);
}

TEST(ExecutorInputsTest, WrongInputShapeRejectedNamingTheInput) {
  const auto g = small_graph();
  Rng rng(7);
  const Tensor bad = Tensor::random_normal(Shape{1, 4, 4, 4}, rng);
  try {
    runtime::execute(g, {bad});
    FAIL() << "executor accepted a mis-shaped input";
  } catch (const ShapeError& e) {
    EXPECT_NE(std::string(e.what()).find("x"), std::string::npos)
        << "error does not name the input node: " << e.what();
  }
  // Arena mode applies the same validation.
  EXPECT_THROW(runtime::execute(g, {bad}, {.use_arena = true}), ShapeError);
}

}  // namespace
}  // namespace temco
