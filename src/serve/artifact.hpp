// On-disk serving artifacts: CompiledModel frozen to a versioned program.
//
// An artifact file holds what a server needs to start serving a model
// without re-running the compiler and what the loader cannot derive: the
// post-pipeline batch-1 schedule, the shared packed-weight buffer, and the
// compatibility stamps that tell a future runtime whether it may trust those
// bytes.  The arena plan is a function of the schedule and of this host's
// thread pool (fused-kernel scratch has one slot per lane), so the loader
// rebuilds it with the code compile() runs instead of reading it.  The packed-weight section is page-aligned so MappedFile can
// hand out zero-copy views, and N processes mapping the same artifact share
// one physical copy of the weights.
//
// File layout (all integers little-endian; enforced at compile time):
//
//   header (48 bytes)
//     char[8]  magic            "TMCOART\0"
//     u32      format_version   kArtifactFormatVersion
//     u32      section_count
//     u64      file_bytes       total file size, checked against reality
//     u64      table_checksum   FNV-1a-64 over the section table bytes
//     u64[2]   reserved         zero
//   section table (section_count × 32-byte entries)
//     u32 id, u32 reserved(0), u64 offset, u64 bytes, u64 checksum
//   sections, each at a 64-byte-aligned offset, non-overlapping:
//     1 kMeta           stamps (format/pack-layout/ISA), compile options,
//                       pipeline stats
//     2 kGraph          the optimized batch-1 graph, in the ir::save_graph
//                       format (its own magic/version/hardening included)
//     3 kPackedWeights  the runtime::PackedWeights buffer as-is: blob i at
//                       the next 64-aligned offset in node order; section
//                       offset 4096-aligned in the file
//
// Trust model: every length, offset, count, and enum is bounds-checked
// before anything dereferences or allocates from it, and section checksums
// are verified before parsing.  Nothing derivable is stored, so nothing
// derivable can be forged: the loader plans and validates the one arena
// itself on the stored graph restamped to max_batch (capped at
// kMaxArtifactBatch), and requires the weight section to be exactly as long
// as this binary's packers lay the graph out.  Any violation throws a typed
// temco::Error (InvalidGraphError for malformed or incompatible bytes);
// hostile input never crashes the process (tests/test_artifact_hostile.cpp).
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "serve/compiled_model.hpp"
#include "support/mmap.hpp"

namespace temco::serve {

inline constexpr char kArtifactMagic[8] = {'T', 'M', 'C', 'O', 'A', 'R', 'T', '\0'};

/// Version of the artifact container format.
///
/// Bump rule (read this before editing the writer): any change to the header,
/// table layout, section set, or the encoding inside an existing section —
/// adding a field, reordering fields, changing a width — REQUIRES bumping
/// this constant.  There is no in-place migration: the loader accepts exactly
/// its own version and rejects everything else with an error naming both
/// versions, so old runtimes fail closed on new files and vice versa.
/// Changes to the *packed weight* encoding are versioned separately by
/// gemm::kPackLayoutVersion, which the meta section stamps.  A new section id
/// is also a format change — the loader deliberately rejects unknown ids
/// rather than skipping them, so "ignorable" additions still need a bump.
/// When bumping, regenerate tests/data/golden_artifact_v*.bin (tools/
/// temco_artifact golden) and keep the old golden checked in: the version-
/// skew test proves the new loader still *rejects* it with a typed error.
/// History: v1 — initial container; v2 — meta section gains the arena-budget
/// stamps (CompileOptions::max_arena_bytes, TemcoOptions::max_arena_bytes);
/// v3 — every strided conv packs its weight for the im2col GEMM, so narrow
/// strided convs (w_out < kNR) now store packed blobs where v2 stored none;
/// v4 — meta drops the pipeline-level budget (TemcoOptions::max_arena_bytes
/// is gone), leaving CompileOptions::max_arena_bytes as the one budget stamp;
/// v5 — meta drops TemcoOptions::verify_passes and oracle_seed (verification
/// is always on, the oracle seed is fixed) and OptimizeStats::add_merges;
/// v6 — three sections: the arena-plan and packed-index sections and meta's
/// slab/weight/packed byte totals are gone, since the loader derives them
/// from the graph (kPackedWeights is renumbered 3).
inline constexpr std::uint32_t kArtifactFormatVersion = 6;

/// Section identifiers; see the file-layout comment above.
enum class ArtifactSection : std::uint32_t {
  kMeta = 1,
  kGraph = 2,
  kPackedWeights = 3,
};

/// Serializes `model` to artifact bytes (the pure, testable core of
/// CompiledModel::save).
std::string save_artifact_bytes(const CompiledModel& model);

/// Parses artifact bytes from an arbitrary in-memory buffer.  The bytes are
/// first copied into one aligned heap buffer (the caller's makes no alignment
/// or lifetime promises) that the returned model co-owns — this is the
/// hostile-corpus entry point, where the bytes are the adversary.
std::shared_ptr<const CompiledModel> load_artifact_bytes(const void* data, std::size_t size);

/// Parses an artifact from a mapped file, keeping the mapping alive inside
/// the returned model and borrowing packed weights zero-copy (MappedFile
/// guarantees 4096-byte alignment, and the weight section is 4096-aligned in
/// the file).
std::shared_ptr<const CompiledModel> load_artifact(
    std::shared_ptr<const support::MappedFile> file);

}  // namespace temco::serve
