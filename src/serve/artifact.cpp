#include "serve/artifact.hpp"

#include <algorithm>
#include <bit>
#include <cstring>
#include <fstream>
#include <string_view>
#include <vector>

#include "ir/serialize.hpp"
#include "kernels/gemm.hpp"
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
constexpr std::uint32_t kSectionCount = 3;

/// Plausibility ceiling on an artifact's max_batch; far above any real
/// micro-batcher, and it bounds the loader's work: load plans the stored
/// graph restamped to max_batch.
constexpr std::uint64_t kMaxArtifactBatch = 4096;

/// Plausibility ceiling on the per-executor kernel pool width.  Each of a
/// session's executors starts intra_op_threads - 1 threads, so a hostile
/// stamp must not reach Session construction.
constexpr std::uint64_t kMaxIntraOpThreads = 1024;

/// Ceiling on the stamped arena budget; generous (1 TiB) but low enough
/// that slab comparisons cannot overflow i64.
constexpr std::int64_t kMaxArenaBudget = std::int64_t{1} << 40;

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
}

void read_meta(Reader& in, CompileOptions& opt, core::OptimizeStats& stats,
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
  const auto intra_op_threads = in.pod<std::uint64_t>();
  TEMCO_CHECK_AS(intra_op_threads <= kMaxIntraOpThreads, InvalidGraphError)
      << "implausible intra_op_threads " << intra_op_threads << " (ceiling "
      << kMaxIntraOpThreads << ")";
  opt.intra_op_threads = static_cast<std::size_t>(intra_op_threads);
  opt.max_arena_bytes = in.pod<std::int64_t>();
  TEMCO_CHECK_AS(opt.max_arena_bytes >= 0 && opt.max_arena_bytes <= kMaxArenaBudget,
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
  in.expect_exhausted("meta section");
}

// ---- container --------------------------------------------------------------

struct ParsedSections {
  SectionEntry meta, graph, weights;
};

/// Header + table validation: everything here runs before any section byte
/// is interpreted.  Offsets are validated against the real file size with
/// overflow-safe arithmetic, sections may not overlap the header, the table,
/// or each other, all three known sections must appear exactly once, and an
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
  TEMCO_CHECK_AS(section_count == kSectionCount, InvalidGraphError)
      << "artifact v" << kArtifactFormatVersion << " has exactly " << kSectionCount
      << " sections, file declares " << section_count;
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
  bool seen[kSectionCount + 1] = {};
  for (const SectionEntry& entry : entries) {
    TEMCO_CHECK_AS(entry.id >= 1 && entry.id <= kSectionCount, InvalidGraphError)
        << "unknown section id " << entry.id
        << " (new sections require an artifact format version bump)";
    TEMCO_CHECK_AS(!seen[entry.id], InvalidGraphError) << "duplicate section id " << entry.id;
    seen[entry.id] = true;
    switch (static_cast<ArtifactSection>(entry.id)) {
      case ArtifactSection::kMeta: sections.meta = entry; break;
      case ArtifactSection::kGraph: sections.graph = entry; break;
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
    // The packed-weight buffer is already in its on-disk layout.
    Writer meta, graph;
    write_meta(meta, model);
    ir::save_graph(model.graph(1), graph);
    const runtime::PackedWeights& packed = model.prepack();

    struct Pending {
      ArtifactSection id;
      std::string_view payload;
      std::size_t alignment;
      std::uint64_t offset = 0;
    };
    Pending order[] = {
        {ArtifactSection::kMeta, meta.bytes(), kSectionAlignment},
        {ArtifactSection::kGraph, graph.bytes(), kSectionAlignment},
        {ArtifactSection::kPackedWeights,
         {reinterpret_cast<const char*>(packed.data()), packed.buffer_bytes()},
         kWeightSectionAlignment},
    };

    const std::size_t table_bytes = std::size(order) * kTableEntryBytes;
    std::uint64_t cursor = kHeaderBytes + table_bytes;
    for (Pending& p : order) {
      cursor = (cursor + p.alignment - 1) / p.alignment * p.alignment;
      p.offset = cursor;
      cursor += p.payload.size();
    }
    const std::uint64_t file_bytes = cursor;

    Writer table;
    for (const Pending& p : order) {
      table.pod(static_cast<std::uint32_t>(p.id));
      table.pod(std::uint32_t{0});
      table.pod(p.offset);
      table.pod(static_cast<std::uint64_t>(p.payload.size()));
      table.pod(fnv1a64(p.payload.data(), p.payload.size()));
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
      out.raw(p.payload.data(), p.payload.size());
    }
    TEMCO_CHECK(out.size() == file_bytes) << "artifact writer layout drift";
    return out.take();
  }

  /// Parses the `size` bytes at `data`, which `owner` keeps alive; the
  /// loaded model's packed weights point into them.
  static std::shared_ptr<const CompiledModel> load(const unsigned char* data, std::size_t size,
                                                   std::shared_ptr<const void> owner) {
    Reader top(data, size);
    const ParsedSections sections = parse_container(top, size);
    const SectionView meta_view(data, sections.meta, "meta");
    const SectionView graph_view(data, sections.graph, "graph");
    const SectionView weights_view(data, sections.weights, "packed weights");

    auto model = std::shared_ptr<CompiledModel>(new CompiledModel());

    Reader meta_in = meta_view.reader();
    read_meta(meta_in, model->options_, model->stats_, model->pack_layout_version_,
              model->kernel_isa_);
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

    // The artifact stores one schedule; its plan is rebuilt from it exactly
    // as compile() builds it.
    model->adopt_schedule(std::move(base));
    model->prepack_ = runtime::PackedWeights::view(model->graph_, std::move(owner),
                                                   weights_view.data(), weights_view.bytes());
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
    // One aligned copy of exactly `size` bytes: it satisfies the weight
    // section's alignment whatever the caller's buffer, and a sanitizer
    // still catches any read past its end.
    std::shared_ptr<unsigned char> copy = aligned_bytes(size);
    if (size > 0) std::memcpy(copy.get(), data, size);
    const unsigned char* bytes = copy.get();
    return ArtifactCodec::load(bytes, size, std::move(copy));
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
