// Tensor decomposition correctness: factor reconstruction quality and,
// critically, equivalence of the decomposed *convolution sequence* with a
// convolution by the reconstructed weight.
#include <gtest/gtest.h>

#include "decomp/cp.hpp"
#include "decomp/pass.hpp"
#include "decomp/tt.hpp"
#include "decomp/tucker.hpp"
#include "ir/graph.hpp"
#include "runtime/executor.hpp"
#include "support/rng.hpp"
#include "tensor/compare.hpp"

namespace temco {
namespace {

Tensor random_weight(std::int64_t c_out, std::int64_t c_in, std::int64_t k, std::uint64_t seed) {
  Rng rng(seed);
  return Tensor::random_normal(Shape{c_out, c_in, k, k}, rng, 0.3f);
}

// ---- factor-level tests ------------------------------------------------------

TEST(TuckerTest, FullRankReconstructsExactly) {
  const Tensor w = random_weight(6, 5, 3, 100);
  const auto f = decomp::tucker2_decompose(w, 5, 6, 0);
  EXPECT_LT(relative_error(w, tucker2_reconstruct(f)), 1e-4);
}

TEST(TuckerTest, TruncatedRankApproximates) {
  const Tensor w = random_weight(16, 12, 3, 101);
  const auto full = decomp::tucker2_decompose(w, 12, 16, 0);
  const auto truncated = decomp::tucker2_decompose(w, 6, 8, 1);
  const double full_err = relative_error(w, tucker2_reconstruct(full));
  const double trunc_err = relative_error(w, tucker2_reconstruct(truncated));
  EXPECT_LT(full_err, 1e-4);
  EXPECT_LT(trunc_err, 1.0);   // captures a meaningful fraction of the energy
  EXPECT_GT(trunc_err, full_err);
}

TEST(TuckerTest, HooiImprovesOrMatchesHosvd) {
  const Tensor w = random_weight(20, 18, 3, 102);
  const auto hosvd = decomp::tucker2_decompose(w, 5, 5, 0);
  const auto hooi = decomp::tucker2_decompose(w, 5, 5, 3);
  EXPECT_LE(relative_error(w, tucker2_reconstruct(hooi)),
            relative_error(w, tucker2_reconstruct(hosvd)) + 1e-6);
}

TEST(TuckerTest, FactorsAreOrthonormal) {
  const Tensor w = random_weight(10, 8, 3, 103);
  const auto f = decomp::tucker2_decompose(w, 4, 5, 1);
  // UᵀU = I for both factor matrices.
  for (const Tensor* u : {&f.u_in, &f.u_out}) {
    const std::int64_t r = u->shape()[1];
    for (std::int64_t i = 0; i < r; ++i) {
      for (std::int64_t j = 0; j < r; ++j) {
        double dot = 0.0;
        for (std::int64_t row = 0; row < u->shape()[0]; ++row) {
          dot += static_cast<double>(u->at(row, i)) * u->at(row, j);
        }
        EXPECT_NEAR(dot, i == j ? 1.0 : 0.0, 1e-3);
      }
    }
  }
}

TEST(CpTest, RankOneTensorRecoveredExactly) {
  // Build an exactly rank-1 weight; ALS must drive the residual to ~0.
  Rng rng(104);
  const Tensor a = Tensor::random_normal(Shape{5, 1}, rng);
  const Tensor b = Tensor::random_normal(Shape{4, 1}, rng);
  const Tensor c = Tensor::random_normal(Shape{3, 1}, rng);
  const Tensor d = Tensor::random_normal(Shape{3, 1}, rng);
  Tensor w = Tensor::zeros(Shape{5, 4, 3, 3});
  for (std::int64_t i = 0; i < 5; ++i)
    for (std::int64_t j = 0; j < 4; ++j)
      for (std::int64_t p = 0; p < 3; ++p)
        for (std::int64_t q = 0; q < 3; ++q)
          w.at(i, j, p, q) = a.at(i, 0) * b.at(j, 0) * c.at(p, 0) * d.at(q, 0);

  const auto f = decomp::cp_decompose(w, 1, 40, 105);
  EXPECT_LT(relative_error(w, cp_reconstruct(f)), 1e-3);
}

TEST(CpTest, HigherRankReducesResidual) {
  const Tensor w = random_weight(10, 8, 3, 106);
  const double err2 = relative_error(w, cp_reconstruct(decomp::cp_decompose(w, 2, 30, 1)));
  const double err8 = relative_error(w, cp_reconstruct(decomp::cp_decompose(w, 8, 30, 1)));
  EXPECT_LT(err8, err2 + 1e-6);
}

TEST(TtTest, FullRankReconstructsExactly) {
  const Tensor w = random_weight(6, 5, 3, 107);
  decomp::TtRanks ranks;
  ranks.r1 = 5;
  ranks.r2 = 15;
  ranks.r3 = 6;
  const auto f = decomp::tt_decompose(w, ranks);
  EXPECT_LT(relative_error(w, tt_reconstruct(f)), 1e-3);
}

TEST(TtTest, RanksAreClamped) {
  const Tensor w = random_weight(4, 3, 3, 108);
  decomp::TtRanks ranks;
  ranks.r1 = 100;
  ranks.r2 = 100;
  ranks.r3 = 100;
  const auto f = decomp::tt_decompose(w, ranks);
  EXPECT_LE(f.g1.shape()[1], 3);
  EXPECT_LE(f.g4.shape()[0], 4);
}

// ---- sequence-level tests ------------------------------------------------------
//
// The decomposed conv sequence must equal a dense convolution by the
// *reconstructed* weight — this is what makes the pass a faithful rewrite.

struct SeqCase {
  decomp::Method method;
  std::int64_t stride, pad;
};

/// Names a case by method, stride and padding, e.g. "tucker_s1_p1".  gtest's
/// default byte dump would include the struct's padding bytes, so the same
/// source could list different ctest names in two builds.
void PrintTo(const SeqCase& c, std::ostream* os) {
  switch (c.method) {
    case decomp::Method::kTucker: *os << "tucker"; break;
    case decomp::Method::kCp: *os << "cp"; break;
    case decomp::Method::kTt: *os << "tt"; break;
  }
  *os << "_s" << c.stride << "_p" << c.pad;
}

class DecomposedSequenceTest : public ::testing::TestWithParam<SeqCase> {};

TEST_P(DecomposedSequenceTest, SequenceMatchesReconstructedConv) {
  const SeqCase p = GetParam();
  const std::int64_t c_in = 10;
  const std::int64_t c_out = 12;
  Rng rng(200);

  ir::Graph original;
  const auto x_id = original.input(Shape{2, c_in, 9, 9}, "x");
  const Tensor w = random_weight(c_out, c_in, 3, 201);
  const Tensor b = Tensor::random_uniform(Shape{c_out}, rng, -0.2f, 0.2f);
  const auto y_id = original.conv2d(x_id, w.clone(), b.clone(), p.stride, p.pad, "conv");
  original.set_outputs({y_id});
  original.infer_shapes();

  decomp::DecomposeOptions options;
  options.method = p.method;
  options.ratio = 0.5;  // keep enough rank that reconstruction is meaningful
  options.cp_iterations = 30;
  const auto result = decomp::decompose(original, options);
  EXPECT_EQ(result.num_decomposed, 1);

  // Reconstruct the effective dense weight from the decomposed graph by
  // re-running the factor algebra, then compare graph outputs.
  const Tensor input = Tensor::random_normal(Shape{2, c_in, 9, 9}, rng);
  const auto decomposed_out = runtime::execute(result.graph, {input}).outputs[0];

  // Reference: dense conv with whatever the factors multiply back to.  Locate
  // the factors by re-deriving them with identical options.
  Tensor reconstructed;
  switch (p.method) {
    case decomp::Method::kTucker: {
      const auto f = decomp::tucker2_decompose(w, decomp::rank_for(c_in, options.ratio),
                                               decomp::rank_for(c_out, options.ratio),
                                               options.hooi_iterations);
      reconstructed = tucker2_reconstruct(f);
      break;
    }
    case decomp::Method::kCp: {
      const auto f = decomp::cp_decompose(
          w, decomp::rank_for(std::max(c_in, c_out), options.ratio), options.cp_iterations,
          options.seed);
      reconstructed = cp_reconstruct(f);
      break;
    }
    case decomp::Method::kTt: {
      decomp::TtRanks ranks;
      ranks.r1 = decomp::rank_for(c_in, options.ratio);
      ranks.r3 = decomp::rank_for(c_out, options.ratio);
      ranks.r2 = std::max(ranks.r1, ranks.r3);
      reconstructed = tt_reconstruct(decomp::tt_decompose(w, ranks));
      break;
    }
  }

  ir::Graph reference;
  const auto rx = reference.input(Shape{2, c_in, 9, 9}, "x");
  const auto ry = reference.conv2d(rx, reconstructed, b.clone(), p.stride, p.pad, "conv_recon");
  reference.set_outputs({ry});
  reference.infer_shapes();
  const auto expected = runtime::execute(reference, {input}).outputs[0];

  EXPECT_LT(max_abs_diff(decomposed_out, expected), 2e-3f)
      << "decomposed sequence != conv with reconstructed weight";
}

INSTANTIATE_TEST_SUITE_P(Methods, DecomposedSequenceTest,
                         ::testing::Values(SeqCase{decomp::Method::kTucker, 1, 1},
                                           SeqCase{decomp::Method::kTucker, 2, 1},
                                           SeqCase{decomp::Method::kTucker, 1, 0},
                                           SeqCase{decomp::Method::kCp, 1, 1},
                                           SeqCase{decomp::Method::kCp, 2, 1},
                                           SeqCase{decomp::Method::kTt, 1, 1},
                                           SeqCase{decomp::Method::kTt, 2, 1},
                                           SeqCase{decomp::Method::kTt, 1, 0}));

// ---- pass-level tests ------------------------------------------------------------

TEST(DecomposePassTest, ProvenanceAndWeightReduction) {
  ir::Graph g;
  const auto x = g.input(Shape{1, 16, 8, 8}, "x");
  Rng rng(300);
  const auto c1 = g.conv2d(x, Tensor::random_normal(Shape{32, 16, 3, 3}, rng, 0.2f),
                           Tensor::zeros(Shape{32}), 1, 1, "conv1");
  const auto r1 = g.relu(c1);
  const auto c2 = g.conv2d(r1, Tensor::random_normal(Shape{32, 32, 3, 3}, rng, 0.2f),
                           Tensor::zeros(Shape{32}), 1, 1, "conv2");
  g.set_outputs({c2});
  g.infer_shapes();

  decomp::DecomposeOptions options;
  options.ratio = 0.25;
  const auto result = decomp::decompose(g, options);
  EXPECT_EQ(result.num_decomposed, 2);
  EXPECT_LT(result.weight_bytes_after, result.weight_bytes_before);

  int fconv = 0;
  int core = 0;
  int lconv = 0;
  for (const auto& node : result.graph.nodes()) {
    if (node.provenance == ir::Provenance::kFconv) ++fconv;
    if (node.provenance == ir::Provenance::kCore) ++core;
    if (node.provenance == ir::Provenance::kLconv) {
      ++lconv;
      EXPECT_GT(node.original_flops, 0) << "lconv must carry the original conv FLOPs";
    }
  }
  EXPECT_EQ(fconv, 2);
  EXPECT_EQ(core, 2);
  EXPECT_EQ(lconv, 2);
}

TEST(DecomposePassTest, SkipsPointwiseAndTinyConvs) {
  ir::Graph g;
  const auto x = g.input(Shape{1, 16, 8, 8}, "x");
  Rng rng(301);
  // 1×1 conv: never decomposed.
  const auto c1 = g.conv2d(x, Tensor::random_normal(Shape{32, 16, 1, 1}, rng, 0.2f),
                           Tensor::zeros(Shape{32}), 1, 0, "pointwise");
  // 3×3 conv with tiny channels: below an explicit min_channels bound.
  const auto c2 = g.conv2d(x, Tensor::random_normal(Shape{4, 16, 3, 3}, rng, 0.2f),
                           Tensor::zeros(Shape{4}), 1, 1, "tiny");
  g.set_outputs({c1, c2});
  g.infer_shapes();

  decomp::DecomposeOptions options;
  options.min_channels = 8;
  const auto result = decomp::decompose(g, options);
  EXPECT_EQ(result.num_decomposed, 0);
  EXPECT_EQ(result.graph.size(), g.size());
}

TEST(DecomposePassTest, DefaultDecomposesRgbStems) {
  // §4.1 applies Tucker to every conv, including the 3-channel stem.
  ir::Graph g;
  const auto x = g.input(Shape{1, 3, 16, 16}, "x");
  Rng rng(302);
  const auto c = g.conv2d(x, Tensor::random_normal(Shape{16, 3, 7, 7}, rng, 0.2f),
                          Tensor::zeros(Shape{16}), 2, 3, "stem");
  g.set_outputs({c});
  g.infer_shapes();
  const auto result = decomp::decompose(g, {});
  EXPECT_EQ(result.num_decomposed, 1);
}

TEST(DecomposePassTest, RankPolicy) {
  EXPECT_EQ(decomp::rank_for(512, 0.1), 51);
  EXPECT_EQ(decomp::rank_for(64, 0.1), 6);
  EXPECT_EQ(decomp::rank_for(3, 0.1), 1);   // floor at 1
  EXPECT_EQ(decomp::rank_for(100, 0.25), 25);
}

}  // namespace
}  // namespace temco
