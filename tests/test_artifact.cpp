// Artifact round-trip differential battery: load(save(compile(m))) must be
// indistinguishable from compile(m) — bitwise-identical outputs at every
// batch on both execution paths, field-identical plans and
// byte-identical packed blobs — across the model zoo in original,
// decomposed, and TeMCO-optimized form.  Plus the version-skew contract: the
// checked-in golden artifact keeps loading, and a synthetically
// version-bumped copy is rejected with a typed error naming both versions.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "core/temco.hpp"
#include "decomp/pass.hpp"
#include "kernels/gemm.hpp"
#include "models/zoo.hpp"
#include "runtime/executor.hpp"
#include "serve/artifact.hpp"
#include "serve/session.hpp"
#include "support/align.hpp"
#include "support/mmap.hpp"
#include "support/rng.hpp"

namespace temco {
namespace {

using serve::CompiledModel;
using serve::CompileOptions;
using serve::Session;

models::ModelConfig tiny_config() {
  models::ModelConfig config;
  config.batch = 1;
  config.image = 32;
  config.width = 0.125;
  config.classes = 10;
  config.seed = 123;
  return config;
}

enum class Variant { kOriginal, kDecomposed, kOptimized };

const char* variant_name(Variant v) {
  switch (v) {
    case Variant::kOriginal: return "original";
    case Variant::kDecomposed: return "decomposed";
    case Variant::kOptimized: return "optimized";
  }
  return "?";
}

std::shared_ptr<const CompiledModel> compile_variant(const std::string& name, Variant variant,
                                                     std::size_t max_batch = 2) {
  ir::Graph graph = models::find_model(name).build(tiny_config());
  if (variant != Variant::kOriginal) {
    graph = decomp::decompose(graph, {.ratio = 0.25}).graph;
  }
  CompileOptions options;
  options.optimize = variant == Variant::kOptimized;
  options.max_batch = max_batch;
  return CompiledModel::compile(graph, options);
}

std::string temp_artifact_path(const std::string& tag) {
  return testing::TempDir() + "temco_artifact_" + tag + ".bin";
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.is_open()) << path;
  return std::string(std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>());
}

void expect_bitwise_equal(const Tensor& a, const Tensor& b, const std::string& label) {
  ASSERT_TRUE(a.shape() == b.shape()) << label;
  ASSERT_EQ(0, std::memcmp(a.data(), b.data(), static_cast<std::size_t>(a.bytes()))) << label;
}

std::vector<Tensor> random_inputs(const CompiledModel& model, Rng& rng) {
  std::vector<Tensor> inputs;
  for (std::size_t i = 0; i < model.num_inputs(); ++i) {
    inputs.push_back(Tensor::random_normal(model.input_shape(i), rng));
  }
  return inputs;
}

void expect_plans_equal(const CompiledModel& a, const CompiledModel& b,
                        const std::string& label) {
  ASSERT_EQ(a.max_batch(), b.max_batch()) << label;
  const runtime::ArenaPlan& pa = a.plan();
  const runtime::ArenaPlan& pb = b.plan();
  ASSERT_EQ(pa.blocks.size(), pb.blocks.size()) << label;
  for (std::size_t i = 0; i < pa.blocks.size(); ++i) {
    EXPECT_EQ(pa.blocks[i].offset, pb.blocks[i].offset) << label << " block " << i;
    EXPECT_EQ(pa.blocks[i].bytes, pb.blocks[i].bytes) << label << " block " << i;
    EXPECT_EQ(pa.blocks[i].range.begin, pb.blocks[i].range.begin) << label;
    EXPECT_EQ(pa.blocks[i].range.end, pb.blocks[i].range.end) << label;
  }
  EXPECT_EQ(pa.arena_bytes, pb.arena_bytes) << label;
  EXPECT_EQ(pa.tensor_bytes, pb.tensor_bytes) << label;
  EXPECT_EQ(pa.scratch_offset, pb.scratch_offset) << label;
  EXPECT_EQ(pa.scratch_slot_bytes, pb.scratch_slot_bytes) << label;
  EXPECT_EQ(pa.scratch_slots, pb.scratch_slots) << label;
  EXPECT_EQ(pa.canary_bytes, pb.canary_bytes) << label;
}

void expect_packed_equal(const CompiledModel& a, const CompiledModel& b,
                         const std::string& label) {
  const runtime::PackedWeights& pa = a.prepack();
  const runtime::PackedWeights& pb = b.prepack();
  ASSERT_EQ(pa.size(), pb.size()) << label;
  EXPECT_EQ(pa.bytes, pb.bytes) << label;
  const ir::Graph& graph = a.graph(1);
  for (std::size_t i = 0; i < pa.size(); ++i) {
    const float* blob_a = pa.blob(static_cast<ir::ValueId>(i));
    const float* blob_b = pb.blob(static_cast<ir::ValueId>(i));
    ASSERT_EQ(blob_a == nullptr, blob_b == nullptr) << label << " node " << i;
    if (blob_a == nullptr) continue;
    const std::int64_t floats =
        runtime::PackedWeights::node_floats(graph.node(static_cast<ir::ValueId>(i)));
    EXPECT_EQ(0, std::memcmp(blob_a, blob_b, static_cast<std::size_t>(floats) * sizeof(float)))
        << label << " node " << i;
  }
}

/// The full differential: metadata, plans, packed blobs, and — at every
/// batch — bitwise-identical outputs on both the arena (Session) and
/// reference (heap executor) paths.
void check_round_trip(const std::string& name, Variant variant) {
  const std::string label = name + "/" + variant_name(variant);
  SCOPED_TRACE(label);
  const auto compiled = compile_variant(name, variant);

  const std::string path = temp_artifact_path(name + std::string("_") + variant_name(variant));
  compiled->save(path);
  const auto loaded = CompiledModel::load(path);

  EXPECT_EQ(compiled->slab_bytes(), loaded->slab_bytes());
  EXPECT_EQ(compiled->weight_bytes(), loaded->weight_bytes());
  EXPECT_EQ(compiled->packed_weight_bytes(), loaded->packed_weight_bytes());
  EXPECT_EQ(compiled->kernel_isa(), loaded->kernel_isa());
  EXPECT_EQ(compiled->pack_layout_version(), loaded->pack_layout_version());
  EXPECT_EQ(compiled->graph(1).size(), loaded->graph(1).size());
  EXPECT_EQ(compiled->num_inputs(), loaded->num_inputs());
  EXPECT_EQ(compiled->num_outputs(), loaded->num_outputs());
  expect_plans_equal(*compiled, *loaded, label);
  expect_packed_equal(*compiled, *loaded, label);

  // Arena path: one session per model, every batch, same requests.
  Rng rng(7 + static_cast<std::uint64_t>(variant));
  Session session_c(compiled);
  Session session_l(loaded);
  for (std::size_t k = 1; k <= compiled->max_batch(); ++k) {
    std::vector<std::vector<Tensor>> requests;
    for (std::size_t r = 0; r < k; ++r) requests.push_back(random_inputs(*compiled, rng));
    std::vector<const std::vector<Tensor>*> batch;
    for (const auto& request : requests) batch.push_back(&request);
    const auto out_c = session_c.run_batch(batch);
    const auto out_l = session_l.run_batch(batch);
    ASSERT_EQ(out_c.size(), out_l.size());
    for (std::size_t r = 0; r < out_c.size(); ++r) {
      ASSERT_EQ(out_c[r].size(), out_l[r].size());
      for (std::size_t o = 0; o < out_c[r].size(); ++o) {
        expect_bitwise_equal(out_c[r][o], out_l[r][o],
                             label + " arena batch " + std::to_string(k));
      }
    }
  }

  // Reference path: plain heap executors over the loaded vs compiled graph.
  runtime::Executor ref_c(compiled->graph(1), {});
  runtime::Executor ref_l(loaded->graph(1), {});
  const auto inputs = random_inputs(*compiled, rng);
  const auto res_c = ref_c.run(inputs);
  const auto res_l = ref_l.run(inputs);
  ASSERT_EQ(res_c.outputs.size(), res_l.outputs.size());
  for (std::size_t o = 0; o < res_c.outputs.size(); ++o) {
    expect_bitwise_equal(res_c.outputs[o], res_l.outputs[o], label + " reference");
  }
  std::remove(path.c_str());
}

TEST(ArtifactRoundTrip, Alexnet) {
  for (const Variant v : {Variant::kOriginal, Variant::kDecomposed, Variant::kOptimized}) {
    check_round_trip("alexnet", v);
  }
}

TEST(ArtifactRoundTrip, Vgg11) {
  for (const Variant v : {Variant::kOriginal, Variant::kDecomposed, Variant::kOptimized}) {
    check_round_trip("vgg11", v);
  }
}

TEST(ArtifactRoundTrip, Resnet34) {
  for (const Variant v : {Variant::kOriginal, Variant::kDecomposed, Variant::kOptimized}) {
    check_round_trip("resnet34", v);
  }
}

TEST(ArtifactRoundTrip, Densenet121) {
  for (const Variant v : {Variant::kOriginal, Variant::kDecomposed, Variant::kOptimized}) {
    check_round_trip("densenet121", v);
  }
}

TEST(ArtifactRoundTrip, UnetHalf) {
  for (const Variant v : {Variant::kOriginal, Variant::kDecomposed, Variant::kOptimized}) {
    check_round_trip("unet_half", v);
  }
}

// Codec symmetry: re-serializing a loaded model reproduces the original
// bytes exactly — nothing in the file depends on which process wrote it.
TEST(ArtifactRoundTrip, ResaveIsByteIdentical) {
  const auto compiled = compile_variant("resnet34", Variant::kOptimized);
  const std::string bytes = serve::save_artifact_bytes(*compiled);
  const auto loaded = serve::load_artifact_bytes(bytes.data(), bytes.size());
  EXPECT_EQ(bytes, serve::save_artifact_bytes(*loaded));
}

// The packed-weight layout is a function of the graph alone: blob i starts
// at the next 64-aligned offset after blob i-1 ends, in node order, padding
// is zero, and `bytes` excludes it.  The artifact's weight section is that
// buffer byte for byte, so a loaded model's buffer equals the compiled one.
TEST(ArtifactRoundTrip, PackedBufferFollowsTheLayoutRule) {
  const auto compiled = compile_variant("resnet34", Variant::kOptimized);
  const runtime::PackedWeights& packed = compiled->prepack();
  const ir::Graph& graph = compiled->graph(1);
  ASSERT_EQ(graph.size(), packed.size());

  std::int64_t cursor = 0;
  std::int64_t blob_bytes = 0;
  std::size_t blobs = 0;
  for (std::size_t i = 0; i < packed.size(); ++i) {
    const auto id = static_cast<ir::ValueId>(i);
    const std::int64_t floats = runtime::PackedWeights::node_floats(graph.node(id));
    if (floats == 0) {
      EXPECT_EQ(nullptr, packed.blob(id)) << "node " << i;
      continue;
    }
    const std::int64_t offset = align_up(cursor);
    for (std::int64_t pad = cursor; pad < offset; ++pad) {
      ASSERT_EQ(0, packed.data()[pad]) << "padding before node " << i;
    }
    EXPECT_EQ(reinterpret_cast<const float*>(packed.data() + offset), packed.blob(id))
        << "node " << i;
    cursor = offset + floats * static_cast<std::int64_t>(sizeof(float));
    blob_bytes += floats * static_cast<std::int64_t>(sizeof(float));
    ++blobs;
  }
  ASSERT_GT(blobs, 1u) << "fixture model should pack several blobs";
  EXPECT_EQ(static_cast<std::size_t>(cursor), packed.buffer_bytes());
  EXPECT_EQ(blob_bytes, packed.bytes);

  const std::string bytes = serve::save_artifact_bytes(*compiled);
  const auto loaded = serve::load_artifact_bytes(bytes.data(), bytes.size());
  const runtime::PackedWeights& reloaded = loaded->prepack();
  ASSERT_EQ(packed.buffer_bytes(), reloaded.buffer_bytes());
  EXPECT_EQ(0, std::memcmp(packed.data(), reloaded.data(), packed.buffer_bytes()));
  EXPECT_EQ(packed.bytes, reloaded.bytes);
}

/// Every blob pointer of `model`, skipping nodes that pack nothing.
std::vector<const float*> blob_pointers(const CompiledModel& model) {
  std::vector<const float*> blobs;
  const runtime::PackedWeights& packed = model.prepack();
  for (std::size_t i = 0; i < packed.size(); ++i) {
    const float* blob = packed.blob(static_cast<ir::ValueId>(i));
    if (blob != nullptr) blobs.push_back(blob);
  }
  return blobs;
}

// File loads go through MappedFile; the packed blobs must be borrowed from
// the mapping, not copied.  In-memory loads copy the caller's bytes once and
// never point into the caller's buffer, which makes no lifetime promise.
TEST(ArtifactRoundTrip, FileLoadBorrowsPackedWeightsZeroCopy) {
  const auto compiled = compile_variant("resnet34", Variant::kOptimized);
  ASSERT_GT(compiled->packed_weight_bytes(), 0) << "fixture model should have packed blobs";
  const std::string path = temp_artifact_path("zero_copy");
  compiled->save(path);

  const auto file = support::MappedFile::open(path);
  const auto loaded = serve::load_artifact(file);
  const auto* begin = reinterpret_cast<const float*>(file->data());
  const auto* end = reinterpret_cast<const float*>(file->data() + file->size());
  const std::vector<const float*> mapped = blob_pointers(*loaded);
  ASSERT_FALSE(mapped.empty());
  for (const float* blob : mapped) {
    EXPECT_TRUE(blob >= begin && blob < end);
    EXPECT_EQ(0u, reinterpret_cast<std::uintptr_t>(blob) % kTensorAlignment);
  }

  const std::string bytes = read_file(path);
  const auto copied = serve::load_artifact_bytes(bytes.data(), bytes.size());
  const auto* caller_begin = reinterpret_cast<const float*>(bytes.data());
  const auto* caller_end = reinterpret_cast<const float*>(bytes.data() + bytes.size());
  const std::vector<const float*> heap = blob_pointers(*copied);
  ASSERT_EQ(mapped.size(), heap.size());
  for (const float* blob : heap) {
    EXPECT_FALSE(blob >= caller_begin && blob < caller_end);
    EXPECT_EQ(0u, reinterpret_cast<std::uintptr_t>(blob) % kTensorAlignment);
  }
  std::remove(path.c_str());
}

// ---- version skew -----------------------------------------------------------

std::string golden_path() {
  return std::string(TEMCO_TEST_DATA_DIR) + "/golden_artifact_v6.bin";
}

// The checked-in golden (written by `temco_artifact golden` at v-current)
// must keep loading for as long as the format version stands; regenerate it
// only alongside a format-version bump (rule in serve/artifact.hpp).
TEST(ArtifactVersionSkew, GoldenArtifactLoads) {
  const auto model = CompiledModel::load(golden_path());
  EXPECT_EQ(2u, model->max_batch());
  EXPECT_FALSE(model->options().optimize);
  EXPECT_EQ(kernels::gemm::kPackLayoutVersion, model->pack_layout_version());

  Rng rng(11);
  Session session(model);
  const auto outputs = session.run(random_inputs(*model, rng));
  ASSERT_EQ(1u, outputs.size());
  for (std::int64_t i = 0; i < outputs[0].numel(); ++i) {
    ASSERT_TRUE(std::isfinite(outputs[0][i]));
  }
}

// The previous formats' goldens stay checked in precisely so this test can
// exist: a v1 file (meta lacks the v2 arena-budget stamps), a v2 file (its
// narrow strided conv stores no packed blob), a v3 file (meta still holds
// the pipeline-level budget), a v4 file (meta still holds verify_passes,
// oracle_seed and add_merges) and a v5 file (five sections, with stored
// arena plans and a packed index) must fail closed with a typed error naming
// both versions, never be half-parsed.
TEST(ArtifactVersionSkew, PreviousVersionGoldenRejectedNamingBothVersions) {
  for (const std::string old_version : {"v1", "v2", "v3", "v4", "v5"}) {
    const std::string bytes = read_file(std::string(TEMCO_TEST_DATA_DIR) + "/golden_artifact_" +
                                        old_version + ".bin");
    try {
      serve::load_artifact_bytes(bytes.data(), bytes.size());
      ADD_FAILURE() << old_version << " artifact should not load in a v"
                    << serve::kArtifactFormatVersion << " runtime";
    } catch (const InvalidGraphError& e) {
      const std::string message = e.what();
      EXPECT_NE(std::string::npos, message.find(old_version)) << message;
      EXPECT_NE(std::string::npos,
                message.find("v" + std::to_string(serve::kArtifactFormatVersion)))
          << message;
    }
  }
}

TEST(ArtifactVersionSkew, FutureVersionRejectedNamingBothVersions) {
  std::string bytes = read_file(golden_path());
  ASSERT_GE(bytes.size(), 12u);
  // format_version is the u32 at offset 8, just after the 8-byte magic.
  const std::uint32_t bumped = serve::kArtifactFormatVersion + 1;
  std::memcpy(bytes.data() + 8, &bumped, sizeof(bumped));
  try {
    serve::load_artifact_bytes(bytes.data(), bytes.size());
    FAIL() << "version-bumped artifact should not load";
  } catch (const InvalidGraphError& e) {
    const std::string message = e.what();
    EXPECT_NE(std::string::npos, message.find("v" + std::to_string(bumped))) << message;
    EXPECT_NE(std::string::npos,
              message.find("v" + std::to_string(serve::kArtifactFormatVersion)))
        << message;
  }
}

}  // namespace
}  // namespace temco
