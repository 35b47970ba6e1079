#include "serve/artifact.hpp"

#include <algorithm>
#include <bit>
#include <cstring>
#include <fstream>
#include <vector>

#include "ir/serialize.hpp"
#include "kernels/gemm.hpp"
#include "kernels/kernels.hpp"
#include "parallel/thread_pool.hpp"
#include "runtime/liveness.hpp"
#include "support/align.hpp"
#include "support/checksum.hpp"

namespace temco::serve {

// The format comment in the header promises little-endian integers; on a
// big-endian target pod() would write native order and silently produce
// incompatible files, so refuse to build there instead.
static_assert(std::endian::native == std::endian::little,
              "the artifact format is little-endian; big-endian targets need byte swaps");

namespace {

using ir::wire::Reader;
using ir::wire::Writer;
using support::fnv1a64;

/// In-file alignment of every section start; covers kTensorAlignment so
/// in-place payloads stay aligned relative to any 64-aligned base.
constexpr std::size_t kSectionAlignment = 64;

/// The packed-weight section additionally starts on a page boundary so an
/// mmap of the file (page-aligned by definition) yields page-aligned blobs.
constexpr std::size_t kWeightSectionAlignment = support::kMappedFileAlignment;

constexpr std::size_t kHeaderBytes = 48;
constexpr std::size_t kTableEntryBytes = 32;

/// Plausibility ceiling on batch variants per artifact; far above any real
/// micro-batcher and small enough that a hostile count cannot drive the
/// loader into gigabytes of variant restamping before a later check fires.
constexpr std::uint64_t kMaxArtifactBatch = 4096;

/// Ceiling on any single byte-count field read from a plan; generous (1 TiB)
/// but low enough that sums and offset+size additions cannot overflow i64.
constexpr std::int64_t kMaxPlanBytes = std::int64_t{1} << 40;

struct SectionEntry {
  std::uint32_t id = 0;
  std::uint64_t offset = 0;
  std::uint64_t bytes = 0;
  std::uint64_t checksum = 0;
};

void write_bool(Writer& out, bool v) { out.pod(static_cast<std::uint8_t>(v ? 1 : 0)); }

bool read_bool(Reader& in, const char* what) {
  const auto raw = in.pod<std::uint8_t>();
  TEMCO_CHECK_AS(raw <= 1, InvalidGraphError)
      << what << ": boolean byte " << static_cast<int>(raw) << " is neither 0 nor 1";
  return raw != 0;
}

// ---- meta section -----------------------------------------------------------

/// Byte counts stored in meta that the loader recomputes from the other
/// sections and cross-checks; a mismatch means the sections disagree with
/// each other even though each one checksums clean.
struct MetaCounts {
  std::int64_t slab_bytes = 0;
  std::int64_t weight_bytes = 0;
  std::int64_t packed_bytes = 0;
};

void write_meta(Writer& out, const CompiledModel& model) {
  out.pod(model.pack_layout_version());
  out.pod(static_cast<std::uint8_t>(model.kernel_isa()));
  const CompileOptions& opt = model.options();
  write_bool(out, opt.optimize);
  write_bool(out, opt.check_numerics);
  write_bool(out, opt.arena_canaries);
  out.pod(static_cast<std::uint64_t>(opt.max_batch));
  out.pod(static_cast<std::uint64_t>(opt.intra_op_threads));
  // v2: the arena budget the schedule was searched under (0 = unconstrained).
  out.pod(opt.max_arena_bytes);

  const core::TemcoOptions& t = opt.temco;
  write_bool(out, t.enable_skip_opt);
  write_bool(out, t.enable_transforms);
  write_bool(out, t.enable_fusion);
  write_bool(out, t.prefer_merged_lconv);
  out.pod(t.distance_threshold);
  out.pod(t.compute_threshold_scale);
  out.pod(t.memory_slack);
  out.pod(static_cast<std::int32_t>(t.max_restore_depth));
  write_bool(out, t.numeric_oracle);
  out.pod(t.oracle_tolerance);

  const core::OptimizeStats& s = model.stats();
  for (const int v : {s.skips_found, s.skips_optimized, s.skips_rejected_structure,
                      s.skips_rejected_compute, s.skips_rejected_memory,
                      s.restore_copies_inserted, s.concat_splits, s.lconv_merges,
                      s.upsample_commutes, s.fused_kernels, s.dce_removed}) {
    out.pod(static_cast<std::int32_t>(v));
  }

  out.pod(model.slab_bytes());
  out.pod(model.weight_bytes());
  out.pod(model.packed_weight_bytes());
}

MetaCounts read_meta(Reader& in, CompileOptions& opt, core::OptimizeStats& stats,
                     std::uint32_t& pack_layout, support::Isa& isa) {
  pack_layout = in.pod<std::uint32_t>();
  isa = ir::wire::read_enum(in, support::Isa::kNeon);
  opt.optimize = read_bool(in, "meta.optimize");
  opt.check_numerics = read_bool(in, "meta.check_numerics");
  opt.arena_canaries = read_bool(in, "meta.arena_canaries");
  const auto max_batch = in.pod<std::uint64_t>();
  TEMCO_CHECK_AS(max_batch >= 1 && max_batch <= kMaxArtifactBatch, InvalidGraphError)
      << "implausible max_batch " << max_batch;
  opt.max_batch = static_cast<std::size_t>(max_batch);
  opt.intra_op_threads = static_cast<std::size_t>(in.pod<std::uint64_t>());
  opt.max_arena_bytes = in.pod<std::int64_t>();
  TEMCO_CHECK_AS(opt.max_arena_bytes >= 0 && opt.max_arena_bytes <= kMaxPlanBytes,
                 InvalidGraphError)
      << "implausible arena budget " << opt.max_arena_bytes;

  core::TemcoOptions& t = opt.temco;
  t.enable_skip_opt = read_bool(in, "meta.enable_skip_opt");
  t.enable_transforms = read_bool(in, "meta.enable_transforms");
  t.enable_fusion = read_bool(in, "meta.enable_fusion");
  t.prefer_merged_lconv = read_bool(in, "meta.prefer_merged_lconv");
  t.distance_threshold = in.pod<std::int64_t>();
  t.compute_threshold_scale = in.pod<double>();
  t.memory_slack = in.pod<double>();
  t.max_restore_depth = in.pod<std::int32_t>();
  t.numeric_oracle = read_bool(in, "meta.numeric_oracle");
  t.oracle_tolerance = in.pod<double>();

  for (int* v : {&stats.skips_found, &stats.skips_optimized, &stats.skips_rejected_structure,
                 &stats.skips_rejected_compute, &stats.skips_rejected_memory,
                 &stats.restore_copies_inserted, &stats.concat_splits, &stats.lconv_merges,
                 &stats.upsample_commutes, &stats.fused_kernels, &stats.dce_removed}) {
    *v = in.pod<std::int32_t>();
  }

  MetaCounts counts;
  counts.slab_bytes = in.pod<std::int64_t>();
  counts.weight_bytes = in.pod<std::int64_t>();
  counts.packed_bytes = in.pod<std::int64_t>();
  for (const std::int64_t v : {counts.slab_bytes, counts.weight_bytes, counts.packed_bytes}) {
    TEMCO_CHECK_AS(v >= 0 && v <= kMaxPlanBytes, InvalidGraphError)
        << "implausible meta byte count " << v;
  }
  in.expect_exhausted("meta section");
  return counts;
}

// ---- plans section ----------------------------------------------------------

void write_plans(Writer& out, const CompiledModel& model) {
  out.pod(static_cast<std::uint32_t>(model.max_batch()));
  for (std::size_t k = 1; k <= model.max_batch(); ++k) {
    const runtime::ArenaPlan& plan = model.plan(k);
    out.pod(static_cast<std::uint32_t>(plan.blocks.size()));
    for (const runtime::ArenaBlock& block : plan.blocks) {
      out.pod(block.id);
      out.pod(block.offset);
      out.pod(block.bytes);
      out.pod(block.range.begin);
      out.pod(block.range.end);
    }
    out.pod(plan.arena_bytes);
    out.pod(plan.tensor_bytes);
    out.pod(plan.scratch_offset);
    out.pod(plan.scratch_slot_bytes);
    out.pod(static_cast<std::uint64_t>(plan.scratch_slots));
    out.pod(plan.canary_bytes);
  }
}

/// Reads and fully re-validates the plan for one batch variant.  Structural
/// trust comes from recomputation, not the file: block liveness must equal
/// compute_liveness(variant) (a hostile range claiming false disjointness
/// would otherwise smuggle overlapping blocks past the overlap check), and
/// validate_arena_plan then proves alignment, bounds, and non-overlap.
runtime::ArenaPlan read_plan(Reader& in, const ir::Graph& variant, bool expect_canaries) {
  runtime::ArenaPlan plan;
  const auto block_count = in.pod<std::uint32_t>();
  TEMCO_CHECK_AS(block_count == variant.size(), InvalidGraphError)
      << "plan covers " << block_count << " values, variant has " << variant.size();
  const std::vector<runtime::LiveRange> liveness = runtime::compute_liveness(variant);
  plan.blocks.resize(block_count);
  for (std::uint32_t i = 0; i < block_count; ++i) {
    runtime::ArenaBlock& block = plan.blocks[i];
    block.id = in.pod<ir::ValueId>();
    TEMCO_CHECK_AS(block.id == static_cast<ir::ValueId>(i), InvalidGraphError)
        << "plan block " << i << " carries id " << block.id << "; blocks must be value-indexed";
    block.offset = in.pod<std::int64_t>();
    block.bytes = in.pod<std::int64_t>();
    block.range.begin = in.pod<ir::ValueId>();
    block.range.end = in.pod<ir::ValueId>();
    TEMCO_CHECK_AS(block.offset >= 0 && block.offset <= kMaxPlanBytes && block.bytes >= 0 &&
                       block.bytes <= kMaxPlanBytes,
                   InvalidGraphError)
        << "plan block " << i << " has implausible extent [" << block.offset << ", +"
        << block.bytes << ")";
    const runtime::LiveRange& expected = liveness[i];
    TEMCO_CHECK_AS(block.range.begin == expected.begin && block.range.end == expected.end,
                   InvalidGraphError)
        << "plan block " << i << " stores live range [" << block.range.begin << ", "
        << block.range.end << "], recomputed liveness says [" << expected.begin << ", "
        << expected.end << "]";
  }
  plan.arena_bytes = in.pod<std::int64_t>();
  plan.tensor_bytes = in.pod<std::int64_t>();
  plan.scratch_offset = in.pod<std::int64_t>();
  plan.scratch_slot_bytes = in.pod<std::int64_t>();
  const auto scratch_slots = in.pod<std::uint64_t>();
  plan.canary_bytes = in.pod<std::int64_t>();
  for (const std::int64_t v : {plan.arena_bytes, plan.tensor_bytes, plan.scratch_offset,
                               plan.scratch_slot_bytes, plan.canary_bytes}) {
    TEMCO_CHECK_AS(v >= 0 && v <= kMaxPlanBytes, InvalidGraphError)
        << "implausible plan byte count " << v;
  }
  TEMCO_CHECK_AS(scratch_slots <= kMaxArtifactBatch * 64, InvalidGraphError)
      << "implausible scratch slot count " << scratch_slots;
  plan.scratch_slots = static_cast<std::size_t>(scratch_slots);

  // Scratch sufficiency is machine-dependent: the plan was sized for the
  // compiling process's pool, and fused kernels index scratch by worker id.
  // A wider pool here would index past the reserved slots, so reject rather
  // than corrupt (recompiling on this machine fixes it).
  std::int64_t max_scratch = 0;
  for (const ir::Node& node : variant.nodes()) {
    if (node.kind != ir::OpKind::kFusedConvActConv) continue;
    const Shape& x = variant.node(node.inputs[0]).out_shape;
    max_scratch = std::max(
        max_scratch, kernels::fused_scratch_bytes(node.weights[0].shape()[0], x[3],
                                                  node.attrs.fused_has_pool, node.out_shape[3]));
  }
  if (max_scratch > 0) {
    TEMCO_CHECK_AS(plan.scratch_slot_bytes >= align_up(max_scratch), InvalidGraphError)
        << "plan reserves " << plan.scratch_slot_bytes << " scratch bytes per slot, fused "
        << "kernels need " << align_up(max_scratch);
    TEMCO_CHECK_AS(plan.scratch_slots >= ThreadPool::global().concurrency(), InvalidGraphError)
        << "artifact plans reserve " << plan.scratch_slots << " scratch slots but this "
        << "process's pool has " << ThreadPool::global().concurrency()
        << " lanes; recompile the model on this machine";
  }
  TEMCO_CHECK_AS(!expect_canaries || plan.canary_bytes > 0, InvalidGraphError)
      << "model was compiled with arena_canaries but the stored plan has no guard bands";
  runtime::validate_arena_plan(variant, plan);
  return plan;
}

// ---- packed-weight sections -------------------------------------------------

struct PackedIndexEntry {
  std::uint64_t floats = 0;
  std::uint64_t offset = 0;  ///< byte offset inside the weight section
};

void write_packed(Writer& index_out, Writer& weights_out, const CompiledModel& model) {
  const runtime::PackedWeights& packed = model.prepack();
  const ir::Graph& graph = model.graph(1);
  index_out.pod(static_cast<std::uint32_t>(packed.size()));
  for (std::size_t i = 0; i < packed.size(); ++i) {
    const float* data = packed.blob(static_cast<ir::ValueId>(i));
    // Blob sizes come from the packer contract, not container bookkeeping,
    // so saving works identically for owned and borrowed (views) storage.
    const std::size_t floats =
        data == nullptr
            ? 0
            : static_cast<std::size_t>(runtime::PackedWeights::node_floats(
                  graph.node(static_cast<ir::ValueId>(i))));
    PackedIndexEntry entry;
    entry.floats = floats;
    if (floats > 0) {
      weights_out.align_to(kSectionAlignment);
      entry.offset = weights_out.size();
      weights_out.raw(data, floats * sizeof(float));
    }
    index_out.pod(entry.floats);
    index_out.pod(entry.offset);
  }
}

/// Validates the packed index against what this binary's packers would
/// produce for `graph` and returns the per-node entries.  Every blob size is
/// recomputed (PackedWeights::node_floats), offsets must ascend without
/// overlap and stay 64-aligned, and the section must be consumed exactly.
std::vector<PackedIndexEntry> read_packed_index(Reader& in, const ir::Graph& graph,
                                                std::uint64_t weight_section_bytes,
                                                std::int64_t expected_packed_bytes) {
  const auto node_count = in.pod<std::uint32_t>();
  TEMCO_CHECK_AS(node_count == graph.size(), InvalidGraphError)
      << "packed index covers " << node_count << " nodes, graph has " << graph.size();
  std::vector<PackedIndexEntry> entries(node_count);
  std::uint64_t cursor = 0;
  std::int64_t total_bytes = 0;
  for (std::uint32_t i = 0; i < node_count; ++i) {
    PackedIndexEntry& entry = entries[i];
    entry.floats = in.pod<std::uint64_t>();
    entry.offset = in.pod<std::uint64_t>();
    const std::int64_t expected =
        runtime::PackedWeights::node_floats(graph.node(static_cast<ir::ValueId>(i)));
    TEMCO_CHECK_AS(entry.floats == static_cast<std::uint64_t>(expected), InvalidGraphError)
        << "node " << i << " stores " << entry.floats << " packed floats, this runtime's "
        << "packer produces " << expected;
    if (entry.floats == 0) {
      TEMCO_CHECK_AS(entry.offset == 0, InvalidGraphError)
          << "node " << i << " has no packed blob but a nonzero offset";
      continue;
    }
    const std::uint64_t bytes = entry.floats * sizeof(float);  // bounded: floats was recomputed
    TEMCO_CHECK_AS(entry.offset % kSectionAlignment == 0, InvalidGraphError)
        << "node " << i << " packed blob at misaligned offset " << entry.offset;
    TEMCO_CHECK_AS(entry.offset >= cursor, InvalidGraphError)
        << "node " << i << " packed blob overlaps its predecessor";
    TEMCO_CHECK_AS(entry.offset <= weight_section_bytes &&
                       bytes <= weight_section_bytes - entry.offset,
                   InvalidGraphError)
        << "node " << i << " packed blob [" << entry.offset << ", +" << bytes
        << ") exceeds the weight section's " << weight_section_bytes << " bytes";
    cursor = entry.offset + bytes;
    total_bytes += static_cast<std::int64_t>(bytes);
  }
  in.expect_exhausted("packed index section");
  TEMCO_CHECK_AS(cursor == weight_section_bytes, InvalidGraphError)
      << "weight section holds " << weight_section_bytes << " bytes, the index accounts for "
      << cursor;
  TEMCO_CHECK_AS(total_bytes == expected_packed_bytes, InvalidGraphError)
      << "packed index totals " << total_bytes << " bytes, meta stamps "
      << expected_packed_bytes;
  return entries;
}

// ---- container --------------------------------------------------------------

struct ParsedSections {
  SectionEntry meta, graph, plans, index, weights;
};

/// Header + table validation: everything here runs before any section byte
/// is interpreted.  Offsets are validated against the real file size with
/// overflow-safe arithmetic, sections may not overlap the header, the table,
/// or each other, all five known sections must appear exactly once, and an
/// unknown section id is an error (see the version-bump rule in the header).
ParsedSections parse_container(Reader& in, std::size_t file_size) {
  char magic[sizeof(kArtifactMagic)];
  in.raw(magic, sizeof(magic));
  TEMCO_CHECK_AS(std::memcmp(magic, kArtifactMagic, sizeof(magic)) == 0, InvalidGraphError)
      << "not a TeMCO artifact file";
  const auto version = in.pod<std::uint32_t>();
  TEMCO_CHECK_AS(version == kArtifactFormatVersion, InvalidGraphError)
      << "artifact is format v" << version << ", this runtime supports only v"
      << kArtifactFormatVersion << "; recompile the model with this release";
  const auto section_count = in.pod<std::uint32_t>();
  TEMCO_CHECK_AS(section_count == 5, InvalidGraphError)
      << "artifact v" << kArtifactFormatVersion << " has exactly 5 sections, file declares "
      << section_count;
  const auto file_bytes = in.pod<std::uint64_t>();
  TEMCO_CHECK_AS(file_bytes == file_size, InvalidGraphError)
      << "header declares " << file_bytes << " file bytes, actual size is " << file_size;
  const auto table_checksum = in.pod<std::uint64_t>();
  for (int i = 0; i < 2; ++i) {
    TEMCO_CHECK_AS(in.pod<std::uint64_t>() == 0, InvalidGraphError)
        << "reserved header field is not zero";
  }

  const std::size_t table_bytes = static_cast<std::size_t>(section_count) * kTableEntryBytes;
  const unsigned char* table = in.view(table_bytes);
  TEMCO_CHECK_AS(fnv1a64(table, table_bytes) == table_checksum, InvalidGraphError)
      << "section table checksum mismatch (corrupt or tampered file)";

  Reader table_in(table, table_bytes);
  std::vector<SectionEntry> entries(section_count);
  for (SectionEntry& entry : entries) {
    entry.id = table_in.pod<std::uint32_t>();
    TEMCO_CHECK_AS(table_in.pod<std::uint32_t>() == 0, InvalidGraphError)
        << "reserved table field is not zero";
    entry.offset = table_in.pod<std::uint64_t>();
    entry.bytes = table_in.pod<std::uint64_t>();
    entry.checksum = table_in.pod<std::uint64_t>();
    TEMCO_CHECK_AS(entry.offset % kSectionAlignment == 0, InvalidGraphError)
        << "section " << entry.id << " at misaligned offset " << entry.offset;
    TEMCO_CHECK_AS(entry.offset >= kHeaderBytes + table_bytes, InvalidGraphError)
        << "section " << entry.id << " overlaps the header";
    TEMCO_CHECK_AS(entry.offset <= file_size && entry.bytes <= file_size - entry.offset,
                   InvalidGraphError)
        << "section " << entry.id << " extent [" << entry.offset << ", +" << entry.bytes
        << ") exceeds the " << file_size << "-byte file";
  }
  std::vector<SectionEntry> by_offset = entries;
  std::sort(by_offset.begin(), by_offset.end(),
            [](const SectionEntry& a, const SectionEntry& b) { return a.offset < b.offset; });
  for (std::size_t i = 1; i < by_offset.size(); ++i) {
    TEMCO_CHECK_AS(
        by_offset[i].offset >= by_offset[i - 1].offset + by_offset[i - 1].bytes,
        InvalidGraphError)
        << "sections " << by_offset[i - 1].id << " and " << by_offset[i].id << " overlap";
  }

  ParsedSections sections;
  bool seen[6] = {};
  for (const SectionEntry& entry : entries) {
    TEMCO_CHECK_AS(entry.id >= 1 && entry.id <= 5, InvalidGraphError)
        << "unknown section id " << entry.id
        << " (new sections require an artifact format version bump)";
    TEMCO_CHECK_AS(!seen[entry.id], InvalidGraphError) << "duplicate section id " << entry.id;
    seen[entry.id] = true;
    switch (static_cast<ArtifactSection>(entry.id)) {
      case ArtifactSection::kMeta: sections.meta = entry; break;
      case ArtifactSection::kGraph: sections.graph = entry; break;
      case ArtifactSection::kPlans: sections.plans = entry; break;
      case ArtifactSection::kPackedIndex: sections.index = entry; break;
      case ArtifactSection::kPackedWeights: sections.weights = entry; break;
    }
  }
  TEMCO_CHECK_AS(sections.weights.offset % kWeightSectionAlignment == 0, InvalidGraphError)
      << "packed-weight section at offset " << sections.weights.offset << " is not "
      << kWeightSectionAlignment << "-byte aligned";
  return sections;
}

class SectionView {
 public:
  SectionView(const unsigned char* base, const SectionEntry& entry, const char* name)
      : data_(base + entry.offset), bytes_(static_cast<std::size_t>(entry.bytes)) {
    TEMCO_CHECK_AS(fnv1a64(data_, bytes_) == entry.checksum, InvalidGraphError)
        << name << " section checksum mismatch (corrupt or tampered file)";
  }

  Reader reader() const { return Reader(data_, bytes_); }
  const unsigned char* data() const { return data_; }
  std::size_t bytes() const { return bytes_; }

 private:
  const unsigned char* data_;
  std::size_t bytes_;
};

}  // namespace

// ---- codec (friend of CompiledModel) ----------------------------------------

class ArtifactCodec {
 public:
  static std::string save(const CompiledModel& model) {
    // Payloads first; the header and table are a function of their sizes.
    Writer meta, graph, plans, index, weights;
    write_meta(meta, model);
    ir::save_graph(model.graph(1), graph);
    write_plans(plans, model);
    write_packed(index, weights, model);

    struct Pending {
      ArtifactSection id;
      const Writer* payload;
      std::size_t alignment;
      std::uint64_t offset = 0;
    };
    Pending order[] = {
        {ArtifactSection::kMeta, &meta, kSectionAlignment},
        {ArtifactSection::kGraph, &graph, kSectionAlignment},
        {ArtifactSection::kPlans, &plans, kSectionAlignment},
        {ArtifactSection::kPackedIndex, &index, kSectionAlignment},
        {ArtifactSection::kPackedWeights, &weights, kWeightSectionAlignment},
    };

    const std::size_t table_bytes = std::size(order) * kTableEntryBytes;
    std::uint64_t cursor = kHeaderBytes + table_bytes;
    for (Pending& p : order) {
      cursor = (cursor + p.alignment - 1) / p.alignment * p.alignment;
      p.offset = cursor;
      cursor += p.payload->size();
    }
    const std::uint64_t file_bytes = cursor;

    Writer table;
    for (const Pending& p : order) {
      table.pod(static_cast<std::uint32_t>(p.id));
      table.pod(std::uint32_t{0});
      table.pod(p.offset);
      table.pod(static_cast<std::uint64_t>(p.payload->size()));
      table.pod(fnv1a64(p.payload->bytes().data(), p.payload->size()));
    }

    Writer out;
    out.raw(kArtifactMagic, sizeof(kArtifactMagic));
    out.pod(kArtifactFormatVersion);
    out.pod(static_cast<std::uint32_t>(std::size(order)));
    out.pod(file_bytes);
    out.pod(fnv1a64(table.bytes().data(), table.size()));
    out.pod(std::uint64_t{0});
    out.pod(std::uint64_t{0});
    out.raw(table.bytes().data(), table.size());
    for (const Pending& p : order) {
      out.align_to(p.alignment);
      TEMCO_CHECK(out.size() == p.offset) << "artifact writer layout drift";
      out.raw(p.payload->bytes().data(), p.payload->size());
    }
    TEMCO_CHECK(out.size() == file_bytes) << "artifact writer layout drift";
    return out.take();
  }

  /// `owner` non-null: borrow packed weights zero-copy from the (4096-
  /// aligned, kept-alive) mapping.  Null: copy them out of the caller's
  /// unaligned, transient buffer.
  static std::shared_ptr<const CompiledModel> load(const unsigned char* data, std::size_t size,
                                                   std::shared_ptr<const void> owner) {
    Reader top(data, size);
    const ParsedSections sections = parse_container(top, size);
    const SectionView meta_view(data, sections.meta, "meta");
    const SectionView graph_view(data, sections.graph, "graph");
    const SectionView plans_view(data, sections.plans, "plans");
    const SectionView index_view(data, sections.index, "packed index");
    const SectionView weights_view(data, sections.weights, "packed weights");

    auto model = std::shared_ptr<CompiledModel>(new CompiledModel());

    Reader meta_in = meta_view.reader();
    const MetaCounts counts = read_meta(meta_in, model->options_, model->stats_,
                                        model->pack_layout_version_, model->kernel_isa_);
    // Stamp gate before any expensive parsing: blobs in an incompatible
    // panel layout must never reach a kernel.
    kernels::gemm::check_pack_layout(model->pack_layout_version_);

    Reader graph_in = graph_view.reader();
    ir::Graph base = ir::load_graph(graph_in);
    graph_in.expect_exhausted("graph section");
    for (const ir::Node& node : base.nodes()) {
      TEMCO_CHECK_AS(node.kind != ir::OpKind::kInput || node.out_shape[0] == 1,
                     InvalidGraphError)
          << "artifact graph input " << node.name << " is not a batch-1 template";
    }

    // Restamp the batch variants exactly as compile() does; the artifact
    // stores one graph, not max_batch near-copies.
    model->variants_.reserve(model->options_.max_batch);
    for (std::size_t k = 1; k <= model->options_.max_batch; ++k) {
      ir::Graph variant =
          k == 1 ? std::move(base) : ir::rebatched(model->variants_.front(), static_cast<std::int64_t>(k));
      variant.verify();
      model->variants_.push_back(std::move(variant));
    }

    Reader plans_in = plans_view.reader();
    const auto plan_count = plans_in.pod<std::uint32_t>();
    TEMCO_CHECK_AS(plan_count == model->options_.max_batch, InvalidGraphError)
        << "artifact stores " << plan_count << " plans for max_batch "
        << model->options_.max_batch;
    model->plans_.reserve(plan_count);
    for (std::size_t k = 1; k <= plan_count; ++k) {
      runtime::ArenaPlan plan =
          read_plan(plans_in, model->variants_[k - 1], model->options_.arena_canaries);
      model->slab_bytes_ = std::max(model->slab_bytes_, plan.arena_bytes);
      model->plans_.push_back(std::move(plan));
    }
    plans_in.expect_exhausted("plans section");
    TEMCO_CHECK_AS(model->slab_bytes_ == counts.slab_bytes, InvalidGraphError)
        << "plans need a " << model->slab_bytes_ << "-byte slab, meta stamps "
        << counts.slab_bytes;

    const ir::Graph& b1 = model->variants_.front();
    Reader index_in = index_view.reader();
    const std::vector<PackedIndexEntry> entries =
        read_packed_index(index_in, b1, weights_view.bytes(), counts.packed_bytes);

    runtime::PackedWeights& packed = model->prepack_;
    packed.bytes = counts.packed_bytes;
    if (owner != nullptr) {
      // Zero-copy: the section is 4096-aligned in the file and the mapping
      // base is 4096-aligned, so every 64-aligned blob offset stays aligned.
      packed.views.resize(entries.size(), nullptr);
      for (std::size_t i = 0; i < entries.size(); ++i) {
        if (entries[i].floats == 0) continue;
        packed.views[i] =
            reinterpret_cast<const float*>(weights_view.data() + entries[i].offset);
      }
      model->artifact_owner_ = std::move(owner);
    } else {
      packed.blobs.resize(entries.size());
      for (std::size_t i = 0; i < entries.size(); ++i) {
        if (entries[i].floats == 0) continue;
        auto& blob = packed.blobs[i];
        blob.resize(static_cast<std::size_t>(entries[i].floats));
        std::memcpy(blob.data(), weights_view.data() + entries[i].offset,
                    blob.size() * sizeof(float));
      }
    }

    model->weight_bytes_ = b1.total_weight_bytes();
    TEMCO_CHECK_AS(model->weight_bytes_ == counts.weight_bytes, InvalidGraphError)
        << "graph carries " << model->weight_bytes_ << " weight bytes, meta stamps "
        << counts.weight_bytes;

    for (const ir::Node& node : b1.nodes()) {
      if (node.kind == ir::OpKind::kInput) model->input_shapes_.push_back(node.out_shape);
    }
    for (const ir::ValueId out : b1.outputs()) {
      model->output_shapes_.push_back(b1.node(out).out_shape);
    }
    model->revalidate_kernel_dispatch();
    return model;
  }
};

std::string save_artifact_bytes(const CompiledModel& model) {
  return ArtifactCodec::save(model);
}

namespace {

/// Same temco::Error guarantee as ir::load_graph: malformed input must never
/// surface foreign exception types, whatever the standard library throws
/// mid-parse.
template <typename Fn>
std::shared_ptr<const CompiledModel> convert_foreign(Fn&& fn) {
  try {
    return fn();
  } catch (const Error&) {
    throw;
  } catch (const std::bad_alloc&) {
    throw ResourceExhaustedError("out of memory loading artifact");
  } catch (const std::exception& e) {
    throw InvalidGraphError(std::string("malformed artifact: ") + e.what());
  }
}

}  // namespace

std::shared_ptr<const CompiledModel> load_artifact_bytes(const void* data, std::size_t size) {
  return convert_foreign([&] {
    return ArtifactCodec::load(static_cast<const unsigned char*>(data), size, nullptr);
  });
}

std::shared_ptr<const CompiledModel> load_artifact(
    std::shared_ptr<const support::MappedFile> file) {
  TEMCO_CHECK_AS(file != nullptr, InvalidGraphError) << "load_artifact: null file";
  return convert_foreign([&] {
    return ArtifactCodec::load(file->data(), file->size(), file);
  });
}

void CompiledModel::save(const std::string& path) const {
  const std::string bytes = save_artifact_bytes(*this);
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  TEMCO_CHECK(out.is_open()) << "cannot open " << path << " for writing";
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  TEMCO_CHECK(out.good()) << "write to " << path << " failed";
}

std::shared_ptr<const CompiledModel> CompiledModel::load(const std::string& path) {
  return load_artifact(support::MappedFile::open(path));
}

}  // namespace temco::serve
