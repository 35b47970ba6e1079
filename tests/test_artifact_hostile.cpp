// Hostile-input hardening for the artifact container: truncation at every
// section boundary (and a dense/strided sweep besides), single-bit flips,
// oversized counts, bad stamps, overlapping and unknown sections.  The
// contract is the same as the graph format's — malformed bytes either load
// into a fully validated model or raise a typed temco::Error; they never
// crash, hang, throw foreign exception types, or drive huge allocations.
// (CI additionally runs this suite under asan/ubsan.)
//
// Mutations that must reach the *deep* validators (meta bounds, stamp checks,
// the packed-weight length) recompute the section and table checksums after
// patching — otherwise the checksum layer masks everything behind one error.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "decomp/pass.hpp"
#include "models/zoo.hpp"
#include "serve/artifact.hpp"
#include "support/checksum.hpp"
#include "support/error.hpp"

namespace temco {
namespace {

using serve::CompiledModel;

constexpr std::size_t kHeaderBytes = 48;
constexpr std::size_t kTableEntryBytes = 32;
constexpr std::size_t kSectionCount = 3;

/// One artifact with every section populated: optimized resnet34 has fused
/// kernels (scratch region), packed blobs, and a max_batch of two.
const std::string& sample_artifact() {
  static const std::string bytes = [] {
    models::ModelConfig config;
    config.batch = 1;
    config.image = 32;
    config.width = 0.125;
    config.classes = 10;
    config.seed = 123;
    ir::Graph graph = models::find_model("resnet34").build(config);
    graph = decomp::decompose(graph, {.ratio = 0.25}).graph;
    serve::CompileOptions options;
    options.max_batch = 2;
    const auto model = CompiledModel::compile(graph, options);
    return serve::save_artifact_bytes(*model);
  }();
  return bytes;
}

enum class LoadOutcome { kLoaded, kTemcoError, kForeignException };

LoadOutcome try_load(const std::string& bytes) {
  try {
    const auto model = serve::load_artifact_bytes(bytes.data(), bytes.size());
    return model != nullptr ? LoadOutcome::kLoaded : LoadOutcome::kTemcoError;
  } catch (const Error&) {
    return LoadOutcome::kTemcoError;
  } catch (...) {
    return LoadOutcome::kForeignException;
  }
}

/// Expects a typed rejection whose message mentions `needle` (empty: any).
void expect_rejects(const std::string& bytes, const std::string& needle,
                    const std::string& label) {
  try {
    serve::load_artifact_bytes(bytes.data(), bytes.size());
    ADD_FAILURE() << label << ": hostile artifact was silently accepted";
  } catch (const Error& e) {
    if (!needle.empty()) {
      EXPECT_NE(std::string::npos, std::string(e.what()).find(needle))
          << label << ": got \"" << e.what() << '"';
    }
  } catch (...) {
    ADD_FAILURE() << label << ": foreign exception escaped";
  }
}

template <typename T>
T read_pod(const std::string& bytes, std::size_t offset) {
  T value{};
  std::memcpy(&value, bytes.data() + offset, sizeof(T));
  return value;
}

template <typename T>
void write_pod(std::string& bytes, std::size_t offset, T value) {
  std::memcpy(bytes.data() + offset, &value, sizeof(T));
}

struct TableEntry {
  std::size_t entry_offset = 0;  ///< of this entry within the file
  std::uint32_t id = 0;
  std::uint64_t offset = 0;
  std::uint64_t bytes = 0;
};

std::vector<TableEntry> read_table(const std::string& bytes) {
  std::vector<TableEntry> entries;
  for (std::size_t i = 0; i < kSectionCount; ++i) {
    TableEntry entry;
    entry.entry_offset = kHeaderBytes + i * kTableEntryBytes;
    entry.id = read_pod<std::uint32_t>(bytes, entry.entry_offset);
    entry.offset = read_pod<std::uint64_t>(bytes, entry.entry_offset + 8);
    entry.bytes = read_pod<std::uint64_t>(bytes, entry.entry_offset + 16);
    entries.push_back(entry);
  }
  return entries;
}

TableEntry find_section(const std::string& bytes, serve::ArtifactSection id) {
  for (const TableEntry& entry : read_table(bytes)) {
    if (entry.id == static_cast<std::uint32_t>(id)) return entry;
  }
  ADD_FAILURE() << "section " << static_cast<std::uint32_t>(id) << " missing from sample";
  return {};
}

/// Recomputes every section checksum and the table checksum after a patch,
/// so the mutation reaches the validator under test instead of the checksum
/// layer.
void refresh_checksums(std::string& bytes) {
  for (const TableEntry& entry : read_table(bytes)) {
    // A test may have inflated an entry's extent past the buffer; clamp the
    // checksum span so the helper itself never reads out of bounds.
    const std::size_t offset =
        std::min<std::size_t>(static_cast<std::size_t>(entry.offset), bytes.size());
    const std::size_t span =
        std::min<std::size_t>(static_cast<std::size_t>(entry.bytes), bytes.size() - offset);
    write_pod(bytes, entry.entry_offset + 24,
              support::fnv1a64(bytes.data() + offset, span));
  }
  // Table checksum is the u64 at offset 24 (magic, two u32s, file_bytes).
  const std::size_t table_bytes = kSectionCount * kTableEntryBytes;
  write_pod(bytes, 24, support::fnv1a64(bytes.data() + kHeaderBytes, table_bytes));
}

// ---- baseline ---------------------------------------------------------------

TEST(HostileArtifactTest, IntactBufferLoads) {
  ASSERT_EQ(LoadOutcome::kLoaded, try_load(sample_artifact()));
}

// ---- truncation -------------------------------------------------------------

TEST(HostileArtifactTest, TruncationAtEverySectionBoundary) {
  const std::string& full = sample_artifact();
  std::vector<std::size_t> cuts = {0, 1, kHeaderBytes - 1, kHeaderBytes,
                                   kHeaderBytes + kSectionCount * kTableEntryBytes};
  for (const TableEntry& entry : read_table(full)) {
    const auto offset = static_cast<std::size_t>(entry.offset);
    const auto end = static_cast<std::size_t>(entry.offset + entry.bytes);
    cuts.insert(cuts.end(), {offset - 1, offset, offset + 1, end - 1, end});
  }
  for (const std::size_t cut : cuts) {
    if (cut >= full.size()) continue;
    const LoadOutcome outcome = try_load(full.substr(0, cut));
    EXPECT_EQ(LoadOutcome::kTemcoError, outcome)
        << "truncation to " << cut << " bytes "
        << (outcome == LoadOutcome::kLoaded ? "was silently accepted"
                                            : "threw a foreign exception");
  }
}

TEST(HostileArtifactTest, TruncationSweepRaisesTemcoError) {
  const std::string& full = sample_artifact();
  ASSERT_GT(full.size(), 512u);
  for (std::size_t len = 0; len < full.size(); len += (len < 512 ? 1 : 97)) {
    const LoadOutcome outcome = try_load(full.substr(0, len));
    EXPECT_EQ(LoadOutcome::kTemcoError, outcome) << "truncation to " << len << " bytes";
  }
}

// ---- bit flips --------------------------------------------------------------

TEST(HostileArtifactTest, BitFlipsNeverEscapeAsForeignFailures) {
  const std::string& full = sample_artifact();
  int loaded = 0;
  int rejected = 0;
  for (std::size_t pos = 0; pos < full.size(); pos += (pos < 512 ? 1 : 41)) {
    std::string corrupt = full;
    corrupt[pos] = static_cast<char>(corrupt[pos] ^ (1u << (pos % 8)));
    const LoadOutcome outcome = try_load(corrupt);
    if (outcome == LoadOutcome::kForeignException) {
      ADD_FAILURE() << "bit flip at byte " << pos << " escaped as a foreign exception";
    } else if (outcome == LoadOutcome::kLoaded) {
      ++loaded;  // flips in inter-section padding are outside every checksum
    } else {
      ++rejected;
    }
  }
  // Checksums cover the header-adjacent table and all three sections, so the
  // overwhelming majority of flips must be caught.
  EXPECT_GT(rejected, loaded * 10);
}

// ---- container-level corruption --------------------------------------------

TEST(HostileArtifactTest, BadMagicRejected) {
  std::string bytes = sample_artifact();
  bytes[0] = 'X';
  expect_rejects(bytes, "not a TeMCO artifact", "magic");
}

TEST(HostileArtifactTest, EmptyAndTinyInputsRejected) {
  expect_rejects(std::string(), "", "empty");
  expect_rejects(std::string(7, '\0'), "", "7 bytes");
  expect_rejects(std::string(kHeaderBytes - 1, '\0'), "", "header-1");
}

TEST(HostileArtifactTest, SectionCountTamperedRejected) {
  std::string bytes = sample_artifact();
  write_pod<std::uint32_t>(bytes, 12, 17);
  expect_rejects(bytes, "exactly 3 sections", "section count");
}

TEST(HostileArtifactTest, FileSizeFieldTamperedRejected) {
  // file_bytes is the u64 at offset 16 (after magic + two u32s).
  std::string bytes = sample_artifact();
  write_pod<std::uint64_t>(bytes, 16, read_pod<std::uint64_t>(bytes, 16) - 1);
  expect_rejects(bytes, "file bytes", "file_bytes");
}

TEST(HostileArtifactTest, ReservedHeaderFieldRejected) {
  std::string bytes = sample_artifact();
  write_pod<std::uint64_t>(bytes, 32, 0xdeadbeefull);
  expect_rejects(bytes, "reserved header field", "reserved");
}

TEST(HostileArtifactTest, TableChecksumMismatchRejected) {
  std::string bytes = sample_artifact();
  // Flip a table byte without refreshing the stored checksum.
  bytes[kHeaderBytes + 8] = static_cast<char>(bytes[kHeaderBytes + 8] ^ 0x01);
  expect_rejects(bytes, "table checksum", "table");
}

TEST(HostileArtifactTest, SectionChecksumMismatchRejected) {
  std::string bytes = sample_artifact();
  const TableEntry graph = find_section(bytes, serve::ArtifactSection::kGraph);
  bytes[static_cast<std::size_t>(graph.offset) + graph.bytes / 2] ^= 0x10;
  expect_rejects(bytes, "checksum mismatch", "graph section payload");
}

TEST(HostileArtifactTest, UnknownSectionIdRejected) {
  std::string bytes = sample_artifact();
  const TableEntry weights = find_section(bytes, serve::ArtifactSection::kPackedWeights);
  write_pod<std::uint32_t>(bytes, weights.entry_offset, 6);
  refresh_checksums(bytes);
  expect_rejects(bytes, "unknown section id", "unknown id");
}

TEST(HostileArtifactTest, DuplicateSectionIdRejected) {
  std::string bytes = sample_artifact();
  const TableEntry weights = find_section(bytes, serve::ArtifactSection::kPackedWeights);
  write_pod<std::uint32_t>(bytes, weights.entry_offset,
                           static_cast<std::uint32_t>(serve::ArtifactSection::kMeta));
  refresh_checksums(bytes);
  expect_rejects(bytes, "duplicate section id", "duplicate id");
}

TEST(HostileArtifactTest, OverlappingSectionsRejected) {
  std::string bytes = sample_artifact();
  const TableEntry meta = find_section(bytes, serve::ArtifactSection::kMeta);
  const TableEntry graph = find_section(bytes, serve::ArtifactSection::kGraph);
  // Point the graph section at the meta section's bytes: same offset, so the
  // two extents collide.
  write_pod<std::uint64_t>(bytes, graph.entry_offset + 8, meta.offset);
  write_pod<std::uint64_t>(bytes, graph.entry_offset + 16, meta.bytes);
  refresh_checksums(bytes);
  expect_rejects(bytes, "overlap", "overlapping sections");
}

TEST(HostileArtifactTest, MisalignedSectionOffsetRejected) {
  std::string bytes = sample_artifact();
  const TableEntry graph = find_section(bytes, serve::ArtifactSection::kGraph);
  write_pod<std::uint64_t>(bytes, graph.entry_offset + 8, graph.offset + 4);
  refresh_checksums(bytes);
  expect_rejects(bytes, "misaligned offset", "misaligned section");
}

TEST(HostileArtifactTest, SectionBeyondFileRejected) {
  std::string bytes = sample_artifact();
  const TableEntry weights = find_section(bytes, serve::ArtifactSection::kPackedWeights);
  write_pod<std::uint64_t>(bytes, weights.entry_offset + 16, weights.bytes + (1ull << 32));
  refresh_checksums(bytes);
  expect_rejects(bytes, "exceeds", "oversized section");
}

// ---- stamp skew -------------------------------------------------------------

TEST(HostileArtifactTest, PackLayoutVersionSkewNamesBothVersions) {
  std::string bytes = sample_artifact();
  const TableEntry meta = find_section(bytes, serve::ArtifactSection::kMeta);
  write_pod<std::uint32_t>(bytes, static_cast<std::size_t>(meta.offset), 7);
  refresh_checksums(bytes);
  expect_rejects(bytes, "panel layout v7", "pack layout skew");
  expect_rejects(bytes, "expects v1", "pack layout skew names runtime version");
}

TEST(HostileArtifactTest, IsaEnumOutOfRangeRejected) {
  std::string bytes = sample_artifact();
  const TableEntry meta = find_section(bytes, serve::ArtifactSection::kMeta);
  bytes[static_cast<std::size_t>(meta.offset) + 4] = 9;  // Isa is the u8 after the u32
  refresh_checksums(bytes);
  expect_rejects(bytes, "enum byte", "isa enum");
}

TEST(HostileArtifactTest, NonBooleanFlagRejected) {
  std::string bytes = sample_artifact();
  const TableEntry meta = find_section(bytes, serve::ArtifactSection::kMeta);
  bytes[static_cast<std::size_t>(meta.offset) + 5] = 3;  // CompileOptions::optimize flag
  refresh_checksums(bytes);
  expect_rejects(bytes, "neither 0 nor 1", "boolean byte");
}

TEST(HostileArtifactTest, OversizedMaxBatchRejected) {
  std::string bytes = sample_artifact();
  const TableEntry meta = find_section(bytes, serve::ArtifactSection::kMeta);
  // max_batch is the u64 after u32 layout + u8 isa + 3 flag bytes.
  write_pod<std::uint64_t>(bytes, static_cast<std::size_t>(meta.offset) + 8, 1ull << 40);
  refresh_checksums(bytes);
  expect_rejects(bytes, "implausible max_batch", "oversized max_batch");
}

TEST(HostileArtifactTest, OversizedIntraOpThreadsRejected) {
  // Each of a session's executors starts intra_op_threads - 1 threads, so
  // the stamp is bounded at load, before any Session exists.
  std::string bytes = sample_artifact();
  const TableEntry meta = find_section(bytes, serve::ArtifactSection::kMeta);
  // intra_op_threads is the u64 after max_batch.
  write_pod<std::uint64_t>(bytes, static_cast<std::size_t>(meta.offset) + 16, 1ull << 20);
  refresh_checksums(bytes);
  expect_rejects(bytes, "implausible intra_op_threads", "oversized intra_op_threads");
}

TEST(HostileArtifactTest, ArenaBudgetBelowDerivedSlabRejected) {
  // The artifact ships no plans: the loader re-plans the arena and holds
  // the slab to the stamped budget, so a budget the stored schedule cannot
  // meet fails at load, before any session sizes a slab by it.
  std::string bytes = sample_artifact();
  const TableEntry meta = find_section(bytes, serve::ArtifactSection::kMeta);
  // max_arena_bytes is the i64 after intra_op_threads.
  write_pod<std::int64_t>(bytes, static_cast<std::size_t>(meta.offset) + 24, 1024);
  refresh_checksums(bytes);
  expect_rejects(bytes, "exceeds the arena budget of 1024 B", "arena budget below slab");
}

// ---- deep-section corruption (checksums recomputed) -------------------------

TEST(HostileArtifactTest, PackedWeightLengthMismatchRejected) {
  // The weight section must be exactly as long as this binary's packers lay
  // out the stored graph; a shortened section is not read past its end.
  std::string bytes = sample_artifact();
  const TableEntry weights = find_section(bytes, serve::ArtifactSection::kPackedWeights);
  ASSERT_GT(weights.bytes, 64u) << "sample artifact has no packed blobs";
  write_pod<std::uint64_t>(bytes, weights.entry_offset + 16, weights.bytes - 64);
  refresh_checksums(bytes);
  expect_rejects(bytes, "the buffer holds", "short packed-weight section");
}

TEST(HostileArtifactTest, GraphSectionHostileHeaderRejected) {
  std::string bytes = sample_artifact();
  const TableEntry graph = find_section(bytes, serve::ArtifactSection::kGraph);
  // Inflate the embedded graph's node count (u32 after "TMCO" + u32 version).
  write_pod<std::uint32_t>(bytes, static_cast<std::size_t>(graph.offset) + 8, 1u << 30);
  refresh_checksums(bytes);
  expect_rejects(bytes, "implausible node count", "embedded graph header");
}

TEST(HostileArtifactTest, TrailingGarbageInsideSectionRejected) {
  // Grow the meta section's declared size into the padding that follows it;
  // the meta parser must notice the unconsumed tail.
  std::string bytes = sample_artifact();
  const TableEntry meta = find_section(bytes, serve::ArtifactSection::kMeta);
  const TableEntry graph = find_section(bytes, serve::ArtifactSection::kGraph);
  if (meta.offset + meta.bytes + 8 <= graph.offset) {
    write_pod<std::uint64_t>(bytes, meta.entry_offset + 16, meta.bytes + 8);
    refresh_checksums(bytes);
    expect_rejects(bytes, "trailing bytes", "meta trailing garbage");
  }
}

}  // namespace
}  // namespace temco
