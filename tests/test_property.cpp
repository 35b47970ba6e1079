// Property-style parameterized suites: invariants that must hold across
// whole families of inputs, not just hand-picked cases.
//
//  P1  planner peak == tracking-allocator peak on randomized DAGs
//  P2  TeMCO never increases planned peak and never changes outputs,
//      across a sweep of decomposed chain shapes
//  P3  Equations (1)–(4) of §2.2 hold for the two-conv example, on the
//      shapes the tests name and a sweep of channel widths and kernels
//  P4  across the zoo, the arena planner's planned slab is what the executor
//      actually touches: the measured high-water mark of a poison-filled
//      caller slab reaches the top of the packed tensor region
#include <gtest/gtest.h>

#include <cstdlib>
#include <cstring>
#include <memory>

#include "core/temco.hpp"
#include "decomp/pass.hpp"
#include "models/zoo.hpp"
#include "runtime/arena.hpp"
#include "runtime/executor.hpp"
#include "runtime/liveness.hpp"
#include "runtime/planner.hpp"
#include "support/align.hpp"
#include "support/rng.hpp"
#include "tensor/compare.hpp"

namespace temco {
namespace {

using ir::Graph;
using ir::ValueId;

// ---- P1: random DAGs ---------------------------------------------------------

class RandomDagTest : public ::testing::TestWithParam<int> {};

/// Random graph of elementwise ops, pools, concats and adds over a few
/// channel widths — exercises liveness/planner on irregular topologies.
Graph random_dag(std::uint64_t seed) {
  Rng rng(seed);
  Graph g;
  std::vector<ValueId> values;
  std::vector<Shape> shapes;
  const Shape base{1, 4, 8, 8};
  values.push_back(g.input(base, "x"));
  shapes.push_back(base);

  for (int step = 0; step < 14; ++step) {
    const std::size_t pick = static_cast<std::size_t>(rng.below(values.size()));
    const ValueId v = values[pick];
    const Shape s = shapes[pick];
    switch (rng.below(4)) {
      case 0:
        values.push_back(g.relu(v));
        shapes.push_back(s);
        break;
      case 1:
        values.push_back(g.silu(v));
        shapes.push_back(s);
        break;
      case 2: {
        // add with a same-shaped partner if one exists, else relu.
        ValueId partner = ir::kInvalidValue;
        for (std::size_t j = 0; j < values.size(); ++j) {
          if (j != pick && shapes[j] == s) partner = values[j];
        }
        if (partner == ir::kInvalidValue) {
          values.push_back(g.relu(v));
        } else {
          values.push_back(g.add({v, partner}));
        }
        shapes.push_back(s);
        break;
      }
      default: {
        // concat with itself doubles channels.
        values.push_back(g.concat({v, v}));
        shapes.push_back(s.with_dim(1, s[1] * 2));
        break;
      }
    }
  }
  g.set_outputs({values.back()});
  g.infer_shapes();
  return g;
}

TEST_P(RandomDagTest, PlannerMatchesAllocator) {
  const auto g = random_dag(static_cast<std::uint64_t>(GetParam()) * 7919);
  const auto plan = runtime::plan_memory(g);
  Rng rng(1);
  const auto result = runtime::execute(g, {Tensor::random_normal(Shape{1, 4, 8, 8}, rng)});
  EXPECT_EQ(plan.peak_internal_bytes, result.peak_internal_bytes);
  ASSERT_EQ(plan.steps.size(), result.timeline.size());
  for (std::size_t i = 0; i < plan.steps.size(); ++i) {
    EXPECT_EQ(plan.steps[i].live_after, result.timeline[i].live_bytes_after) << "step " << i;
  }
}

TEST_P(RandomDagTest, ArenaNeverOverlapsConcurrentlyLiveTensors) {
  // P1b: on the same irregular topologies, the arena packer must never give
  // two tensors whose live intervals overlap intersecting [offset,
  // offset+bytes) ranges.  Checked with an independent O(n²) sweep over the
  // emitted plan rather than the packer's own validator.
  const auto g = random_dag(static_cast<std::uint64_t>(GetParam()) * 7919);
  const auto plan = runtime::plan_arena(g);
  const auto liveness = runtime::compute_liveness(g);
  ASSERT_EQ(plan.blocks.size(), g.size());
  for (std::size_t i = 0; i < plan.blocks.size(); ++i) {
    const auto& a = plan.blocks[i];
    EXPECT_GE(a.offset, 0);
    EXPECT_LE(a.offset + a.bytes, plan.tensor_bytes);
    for (std::size_t j = i + 1; j < plan.blocks.size(); ++j) {
      const auto& b = plan.blocks[j];
      const auto& ra = liveness[i];
      const auto& rb = liveness[j];
      const bool concurrently_live = ra.begin <= rb.end && rb.begin <= ra.end;
      if (!concurrently_live) continue;
      const bool disjoint = a.offset + a.bytes <= b.offset || b.offset + b.bytes <= a.offset;
      EXPECT_TRUE(disjoint) << "values " << i << " and " << j << " are live together but share ["
                            << std::max(a.offset, b.offset) << ", "
                            << std::min(a.offset + a.bytes, b.offset + b.bytes) << ")";
    }
  }

  // ... and the zero-malloc executor built on that plan reproduces the
  // reference executor bit for bit.
  Rng rng(9);
  const Tensor input = Tensor::random_normal(Shape{1, 4, 8, 8}, rng);
  const auto ref = runtime::execute(g, {input});
  const auto arena = runtime::execute(g, {input}, {.use_arena = true});
  EXPECT_EQ(max_abs_diff(ref.outputs[0], arena.outputs[0]), 0.0f);
  EXPECT_EQ(arena.heap_allocations, 0);
}

TEST_P(RandomDagTest, CanaryArmedArenaMatchesAtEveryIntraOpWidth) {
  // P1c: one guarded arena executor per intra-op width, run twice on the
  // same slab: no canary or numeric check fires, and every run reproduces
  // the reference executor bit for bit.
  const auto g = random_dag(static_cast<std::uint64_t>(GetParam()) * 104729 + 17);
  Rng rng(11);
  const Tensor input = Tensor::random_normal(Shape{1, 4, 8, 8}, rng);
  const auto ref = runtime::execute(g, {input});
  for (const std::size_t width : {std::size_t{1}, std::size_t{3}}) {
    runtime::Executor executor(g, {.use_arena = true,
                                   .check_numerics = true,
                                   .arena_canaries = true,
                                   .intra_op_threads = width});
    for (int run = 0; run < 2; ++run) {
      runtime::ExecutionResult got;
      ASSERT_NO_THROW(got = executor.run({input})) << "width " << width << ", run " << run;
      EXPECT_EQ(max_abs_diff(ref.outputs[0], got.outputs[0]), 0.0f)
          << "width " << width << ", run " << run;
      EXPECT_EQ(got.heap_allocations, 0) << "width " << width << ", run " << run;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomDagTest, ::testing::Range(0, 12));

// ---- P2: TeMCO invariants over decomposed chains ------------------------------

struct ChainShape {
  std::int64_t c1, c2, image, batch;
};

/// Names a case by its shape, e.g. "c16_c32_i16_n1", so ctest lists a
/// readable name instead of gtest's byte dump.
void PrintTo(const ChainShape& c, std::ostream* os) {
  *os << 'c' << c.c1 << "_c" << c.c2 << "_i" << c.image << "_n" << c.batch;
}

class TemcoInvariantTest : public ::testing::TestWithParam<ChainShape> {};

TEST_P(TemcoInvariantTest, NeverRegressesMemoryOrSemantics) {
  const ChainShape p = GetParam();
  Graph g;
  Rng wrng(p.c1 * 31 + p.c2);
  const auto x = g.input(Shape{p.batch, 3, p.image, p.image}, "x");
  auto conv = [&](ValueId v, std::int64_t ci, std::int64_t co, const std::string& n) {
    return g.conv2d(v, Tensor::random_normal(Shape{co, ci, 3, 3}, wrng, 0.2f),
                    Tensor::random_uniform(Shape{co}, wrng, -0.1f, 0.1f), 1, 1, n);
  };
  auto v = g.relu(conv(x, 3, p.c1, "conv1"), "r1");
  v = g.relu(conv(v, p.c1, p.c2, "conv2"), "r2");
  v = g.pool(v, ir::PoolKind::kMax, 2, 2, "pool");
  v = g.relu(conv(v, p.c2, p.c1, "conv3"), "r3");
  g.set_outputs({v});
  g.infer_shapes();

  const auto decomposed = decomp::decompose(g, {.ratio = 0.25});
  const auto optimized = core::optimize(decomposed.graph, {});

  const auto before = runtime::plan_memory(decomposed.graph);
  const auto after = runtime::plan_memory(optimized);
  EXPECT_LE(after.peak_internal_bytes, before.peak_internal_bytes);

  Rng rng(2);
  const Tensor input = Tensor::random_normal(Shape{p.batch, 3, p.image, p.image}, rng);
  EXPECT_LT(max_abs_diff(runtime::execute(decomposed.graph, {input}).outputs[0],
                         runtime::execute(optimized, {input}).outputs[0]),
            2e-3f);
}

INSTANTIATE_TEST_SUITE_P(Shapes, TemcoInvariantTest,
                         ::testing::Values(ChainShape{16, 32, 16, 1}, ChainShape{32, 16, 16, 2},
                                           ChainShape{24, 24, 12, 1}, ChainShape{16, 16, 20, 4},
                                           ChainShape{48, 32, 8, 1}, ChainShape{32, 64, 8, 2}));

// ---- P3: §2.2 equations -----------------------------------------------------

TEST(MemoryModelTest, Equation3TwoConvPeak) {
  // Figure 3a: conv → relu → conv.  Peak = MAX(CHW + C'H'W', 2C'H'W',
  // C'H'W' + C''H''W'') per Eq. (3), with N = batch folded into HW.
  const std::int64_t n = 2, c = 8, cp = 16, cpp = 4, hw = 36;
  Graph g;
  Rng rng(3);
  const auto x = g.input(Shape{n, c, 6, 6});
  const auto c1 = g.conv2d(x, Tensor::random_normal(Shape{cp, c, 3, 3}, rng, 0.2f),
                           Tensor::zeros(Shape{cp}), 1, 1);
  const auto r = g.relu(c1);
  const auto c2 = g.conv2d(r, Tensor::random_normal(Shape{cpp, cp, 3, 3}, rng, 0.2f),
                           Tensor::zeros(Shape{cpp}), 1, 1);
  g.set_outputs({c2});
  g.infer_shapes();

  const std::int64_t unit = n * hw * 4;  // bytes per channel
  const std::int64_t expected =
      std::max({c * unit + cp * unit, 2 * cp * unit, cp * unit + cpp * unit});
  EXPECT_EQ(runtime::plan_memory(g).peak_internal_bytes, expected);
}

TEST(MemoryModelTest, Equation4DecomposedPeakStillWide) {
  // §2.2's point: decomposing does NOT shrink the internal-tensor peak —
  // the activation's 2·C'H'W' term survives (Eq. 4 reduces to Eq. 3's).
  const std::int64_t n = 2, c = 16, cp = 32, cpp = 16;
  Graph g;
  Rng rng(4);
  const auto x = g.input(Shape{n, c, 6, 6});
  const auto c1 = g.conv2d(x, Tensor::random_normal(Shape{cp, c, 3, 3}, rng, 0.2f),
                           Tensor::zeros(Shape{cp}), 1, 1);
  const auto r = g.relu(c1);
  const auto c2 = g.conv2d(r, Tensor::random_normal(Shape{cpp, cp, 3, 3}, rng, 0.2f),
                           Tensor::zeros(Shape{cpp}), 1, 1);
  g.set_outputs({c2});
  g.infer_shapes();

  const auto dense_peak = runtime::plan_memory(g).peak_internal_bytes;
  const auto decomposed = decomp::decompose(g, {.ratio = 0.1});
  ASSERT_EQ(decomposed.num_decomposed, 2);
  const auto decomposed_peak = runtime::plan_memory(decomposed.graph).peak_internal_bytes;
  EXPECT_EQ(decomposed_peak, dense_peak) << "decomposition alone must not change the peak";

  // ... but TeMCO's fusion does shrink it.
  const auto optimized = core::optimize(decomposed.graph, {});
  EXPECT_LT(runtime::plan_memory(optimized).peak_internal_bytes, dense_peak);
}

TEST(MemoryModelTest, Equations1And2WeightBytes) {
  // Eq. (1): dense weights CC'K² + C'C''K'².  Eq. (2): decomposed weights
  // CC₁ + C₁C₂K² + C₂C' + C'C₃ + C₃C₄K² + C₄C''.
  const std::int64_t c = 20, cp = 40, cpp = 20, k = 3;
  Graph g;
  Rng rng(5);
  const auto x = g.input(Shape{1, c, 8, 8});
  const auto conv1 = g.conv2d(x, Tensor::random_normal(Shape{cp, c, k, k}, rng, 0.2f),
                              Tensor::zeros(Shape{cp}), 1, 1);
  const auto r = g.relu(conv1);
  const auto conv2 = g.conv2d(r, Tensor::random_normal(Shape{cpp, cp, k, k}, rng, 0.2f),
                              Tensor::zeros(Shape{cpp}), 1, 1);
  g.set_outputs({conv2});
  g.infer_shapes();
  EXPECT_EQ(g.total_weight_bytes(), (c * cp * k * k + cp + cp * cpp * k * k + cpp) * 4);

  const double ratio = 0.1;
  const auto dec = decomp::decompose(g, {.ratio = ratio});
  const std::int64_t c1 = decomp::rank_for(c, ratio);
  const std::int64_t c2 = decomp::rank_for(cp, ratio);
  const std::int64_t c3 = decomp::rank_for(cp, ratio);
  const std::int64_t c4 = decomp::rank_for(cpp, ratio);
  const std::int64_t expected_weights =
      (c * c1 + c1 * c2 * k * k + c2 * cp + cp * c3 + c3 * c4 * k * k + c4 * cpp  // Eq. (2)
       + c1 + c2 + cp + c3 + c4 + cpp) *                                          // biases
      4;
  EXPECT_EQ(dec.graph.total_weight_bytes(), expected_weights);
  EXPECT_LT(dec.graph.total_weight_bytes(), g.total_weight_bytes());
}

/// Figure 3a's conv → relu → conv with C → C' → C'' channels, an N×C×H×H
/// input, and K×K convs padded to keep H'' = H' = H.
struct EqShape {
  std::int64_t n, c, cp, cpp, h, k;
};

void PrintTo(const EqShape& s, std::ostream* os) {
  *os << "n" << s.n << "_c" << s.c << "_" << s.cp << "_" << s.cpp << "_h" << s.h << "_k" << s.k;
}

class MemoryModelTest : public ::testing::TestWithParam<EqShape> {};

TEST_P(MemoryModelTest, Equations1To4HoldOnTheTwoConvExample) {
  const EqShape s = GetParam();
  const double ratio = 0.1;
  Graph g;
  Rng rng(60);
  const auto x = g.input(Shape{s.n, s.c, s.h, s.h});
  const auto c1 = g.conv2d(x, Tensor::random_normal(Shape{s.cp, s.c, s.k, s.k}, rng, 0.2f),
                           Tensor::zeros(Shape{s.cp}), 1, s.k / 2);
  const auto r = g.relu(c1);
  const auto c2 = g.conv2d(r, Tensor::random_normal(Shape{s.cpp, s.cp, s.k, s.k}, rng, 0.2f),
                           Tensor::zeros(Shape{s.cpp}), 1, s.k / 2);
  g.set_outputs({c2});
  g.infer_shapes();

  // Eq. (1) and (2), plus the biases the equations leave out.
  const std::int64_t kk = s.k * s.k;
  EXPECT_EQ(g.total_weight_bytes(), (s.c * s.cp * kk + s.cp + s.cp * s.cpp * kk + s.cpp) * 4);
  const auto dec = decomp::decompose(g, {.ratio = ratio});
  ASSERT_EQ(dec.num_decomposed, 2);
  const std::int64_t r1 = decomp::rank_for(s.c, ratio);
  const std::int64_t r2 = decomp::rank_for(s.cp, ratio);
  const std::int64_t r3 = decomp::rank_for(s.cp, ratio);
  const std::int64_t r4 = decomp::rank_for(s.cpp, ratio);
  EXPECT_EQ(dec.graph.total_weight_bytes(),
            (s.c * r1 + r1 * r2 * kk + r2 * s.cp + s.cp * r3 + r3 * r4 * kk + r4 * s.cpp +
             r1 + r2 + s.cp + r3 + r4 + s.cpp) *
                4);

  // Eq. (3): MAX(CHW + C'H'W', 2C'H'W', C'H'W' + C''H''W'').
  const std::int64_t unit = s.n * s.h * s.h * 4;  // bytes per channel map
  const std::int64_t wide = 2 * s.cp * unit;
  const std::int64_t eq3 = std::max({s.c * unit + s.cp * unit, wide, s.cp * unit + s.cpp * unit});
  const std::int64_t dense_peak = runtime::plan_memory(g).peak_internal_bytes;
  EXPECT_EQ(dense_peak, eq3);

  // Eq. (4): decomposition keeps the activation's 2C'H'W' term, so the peak
  // is unchanged where that term is Eq. (3)'s maximum.  Where C'H'W' +
  // C''H''W'' dominates instead, the narrow restore-side tensors let the
  // decomposed peak fall below the dense one.
  const std::int64_t decomposed_peak = runtime::plan_memory(dec.graph).peak_internal_bytes;
  if (wide == eq3) {
    EXPECT_EQ(decomposed_peak, dense_peak);
  } else {
    EXPECT_LE(decomposed_peak, dense_peak);
  }
  EXPECT_LE(runtime::plan_memory(core::optimize(dec.graph, {})).peak_with_scratch,
            decomposed_peak);
}

// Shapes beyond the three single-shape MemoryModelTest tests above.
INSTANTIATE_TEST_SUITE_P(Shapes, MemoryModelTest,
                         ::testing::Values(EqShape{4, 64, 128, 64, 16, 3},
                                           EqShape{4, 32, 64, 128, 32, 3},
                                           EqShape{1, 128, 256, 256, 8, 3},
                                           EqShape{4, 64, 64, 64, 16, 5}));

// ---- P4: planned peak == measured high-water mark across the zoo -------------

TEST(ZooPlannerFidelityTest, PlannedSlabEqualsMeasuredHighWaterMark) {
  // The budget scheduler treats plan_arena's arena_bytes as ground truth for
  // "what a session pays", so that number must be what execution physically
  // touches — not an over-estimate the packer quietly pads.  Proof by poison:
  // fill a caller-owned slab with kArenaPoisonByte, run once, and find the
  // highest byte the run overwrote.  It must reach the top of the packed
  // tensor region: the only legal slack is the final block's alignment
  // padding (its payload may stop up to kTensorAlignment - 1 bytes short of
  // the aligned block end).
  for (const auto& spec : models::model_zoo()) {
    models::ModelConfig config;
    config.batch = 1;
    config.image = spec.family == "UNet" ? 32 : 16;
    config.width = 0.125;
    config.classes = 8;
    config.seed = 11;
    const auto original = spec.build(config);
    const auto decomposed = decomp::decompose(original, {.ratio = 0.25}).graph;
    const auto g = core::optimize(decomposed, {});

    const auto plan = runtime::plan_arena(g);
    runtime::validate_arena_plan(g, plan);

    std::unique_ptr<float, void (*)(float*)> slab(
        static_cast<float*>(std::aligned_alloc(static_cast<std::size_t>(kTensorAlignment),
                                               static_cast<std::size_t>(plan.arena_bytes))),
        [](float* p) { std::free(p); });
    ASSERT_NE(slab.get(), nullptr) << spec.name;
    std::memset(slab.get(), runtime::kArenaPoisonByte,
                static_cast<std::size_t>(plan.arena_bytes));

    runtime::ExecutorBinding binding;
    binding.plan = &plan;
    binding.slab = slab.get();
    binding.slab_bytes = plan.arena_bytes;
    runtime::Executor executor(g, {.use_arena = true}, binding);

    Rng rng(23);
    Tensor input;
    for (const auto& node : g.nodes()) {
      if (node.kind == ir::OpKind::kInput) input = Tensor::random_normal(node.out_shape, rng);
    }
    const auto bound = executor.run({input});
    // Sanity: the bound run reproduces the reference bytes.
    const auto ref = runtime::execute(g, {input});
    ASSERT_EQ(bound.outputs.size(), ref.outputs.size()) << spec.name;
    EXPECT_EQ(max_abs_diff(bound.outputs[0], ref.outputs[0]), 0.0f) << spec.name;

    // Scan the packed tensor region from the top for the last written byte.
    const auto* bytes = reinterpret_cast<const unsigned char*>(slab.get());
    std::int64_t high_water = 0;
    for (std::int64_t i = plan.tensor_bytes - 1; i >= 0; --i) {
      if (bytes[i] != runtime::kArenaPoisonByte) {
        high_water = i + 1;
        break;
      }
    }
    EXPECT_GT(high_water, 0) << spec.name << ": the run never wrote the slab";
    EXPECT_LE(plan.tensor_bytes - high_water, kTensorAlignment)
        << spec.name << ": planner reserved " << plan.tensor_bytes
        << " tensor bytes but execution only touched " << high_water;
  }
}

}  // namespace
}  // namespace temco
