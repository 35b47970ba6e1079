// Compile-once serving artifact.
//
// A CompiledModel runs the whole TeMCO pipeline exactly once — decompose
// upstream, then optimize (skip-opt, transforms, fusion, DCE), stamp one
// execution variant per batch size, plan a static arena for each, and pack
// GEMM weights — and freezes the result as an immutable artifact.  Serving
// sessions (session.hpp) and the fleet server (fleet.hpp) share one
// artifact read-only across any number of threads: nothing in it is ever
// mutated after compile() returns, which is the whole thread-safety story.
//
// Batch variants: the model is compiled from a batch-1 template; variant k
// (1 <= k <= max_batch) is the same optimized graph with every input's batch
// dimension restamped to k (ir::rebatched).  Weights are shared handles, so
// a variant costs activation metadata plus an arena plan — and GEMM weight
// packing depends only on weights and output width, never the batch, so one
// PackedWeights serves every variant.  All variants' plans index into a slab
// of `slab_bytes()` (the max across variants), which is what lets one
// session own a single allocation and serve any batch size with it.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/temco.hpp"
#include "ir/graph.hpp"
#include "runtime/arena.hpp"
#include "runtime/executor.hpp"
#include "support/cpu.hpp"

namespace temco::serve {

struct CompileOptions {
  /// Pipeline knobs forwarded to core::optimize.
  core::TemcoOptions temco;

  /// Run the TeMCO optimization pipeline.  Off compiles the graph as-is
  /// (still planned, packed, and batch-stamped) — the "no compiler" baseline
  /// the serving benchmark compares against.
  bool optimize = true;

  /// Largest batch any session of this model can execute — the ceiling the
  /// server's micro-batcher coalesces up to.  One variant is stamped per
  /// batch size in [1, max_batch].
  std::size_t max_batch = 8;

  /// Guardrails baked into every session executor (see ExecutorOptions).
  bool check_numerics = false;
  bool arena_canaries = false;

  /// Intra-op width baked into every session executor
  /// (ExecutorOptions::intra_op_threads): 0 = kernels use the process-global
  /// pool, N ≥ 1 = each session executor owns a dedicated N-thread kernel
  /// pool.  Results are bit-identical for any width.
  std::size_t intra_op_threads = 0;

  /// Hard cap on slab_bytes() — the per-session arena a tenant pays for.
  /// When > 0, compile() runs runtime::schedule_for_budget on the max_batch
  /// variant (the one that sizes the slab) and bakes the budget-meeting
  /// schedule into every variant; an unmeetable budget raises
  /// ResourceExhaustedError naming the best achievable slab.  The pipeline
  /// itself has no budget knob; this is the one.  Artifacts stamp the value;
  /// outputs stay bitwise-identical to the unconstrained schedule.
  /// 0 = unconstrained.
  std::int64_t max_arena_bytes = 0;
};

class CompiledModel {
 public:
  /// Compiles `graph` (a batch-agnostic template; any input batch dimension
  /// is normalized to 1 first) into an immutable artifact.  Returned as
  /// shared_ptr-to-const because sessions and servers co-own it and the
  /// const is load-bearing: the artifact is shared across threads unlocked.
  static std::shared_ptr<const CompiledModel> compile(const ir::Graph& graph,
                                                      CompileOptions options = {});

  // ---- on-disk artifacts (serve/artifact.hpp) ------------------------------

  /// Freezes this model to a versioned artifact file: the batch-1 schedule,
  /// the shared packed-weight buffer, and the compatibility stamps,
  /// section-tabled and checksummed.  Throws temco::Error on I/O failure.
  void save(const std::string& path) const;

  /// Loads an artifact written by save().  The packed-weight section is
  /// mapped zero-copy when the platform allows (the returned model co-owns
  /// the mapping); every length, offset, count, and enum in the file is
  /// bounds-checked and every stamp re-validated before anything is trusted —
  /// malformed or incompatible input throws a typed temco::Error, never
  /// crashes.  Batch variants and arena plans are rebuilt from the schedule
  /// by the same code compile() runs, so the result is interchangeable with
  /// compile()'s.
  static std::shared_ptr<const CompiledModel> load(const std::string& path);

  std::size_t max_batch() const { return options_.max_batch; }
  const CompileOptions& options() const { return options_; }
  const core::OptimizeStats& stats() const { return stats_; }

  /// The optimized graph stamped for `batch` in [1, max_batch].
  const ir::Graph& graph(std::size_t batch) const { return variants_[index(batch)]; }

  /// The pre-validated arena plan for `batch`'s variant.
  const runtime::ArenaPlan& plan(std::size_t batch) const { return plans_[index(batch)]; }

  /// Shared GEMM weight packing, valid for every batch variant.
  const runtime::PackedWeights& prepack() const { return prepack_; }

  /// Slab size that satisfies every variant's plan (max over batch sizes).
  std::int64_t slab_bytes() const { return slab_bytes_; }
  std::int64_t packed_weight_bytes() const { return prepack_.bytes; }
  std::int64_t weight_bytes() const { return weight_bytes_; }

  // ---- kernel-dispatch provenance stamp ------------------------------------

  /// The GEMM ISA tier active when this artifact was compiled, and the packed
  /// panel layout version its PackedWeights were built with.  The layout is
  /// deliberately ISA-independent (gemm::kPackLayoutVersion), so an artifact
  /// stays valid when dispatch later resolves to a different tier — the stamp
  /// records provenance, and revalidation distinguishes the benign case (ISA
  /// drift: logged, results ULP-compatible per the bit-compatibility policy)
  /// from the fatal one (layout version mismatch: the blobs would be
  /// misread).
  support::Isa kernel_isa() const { return kernel_isa_; }
  const char* kernel_isa_name() const { return support::isa_name(kernel_isa_); }
  std::uint32_t pack_layout_version() const { return pack_layout_version_; }

  /// Re-checks the stamp against the running process: throws
  /// InvalidGraphError on a pack-layout version mismatch; logs a typed
  /// warning when the active ISA tier differs from the compile-time one.
  /// Sessions call this when they bind the artifact.
  void revalidate_kernel_dispatch() const;

  // ---- request signature (batch-1 template shapes) -------------------------

  std::size_t num_inputs() const { return input_shapes_.size(); }
  const Shape& input_shape(std::size_t i) const { return input_shapes_[i]; }
  std::size_t num_outputs() const { return output_shapes_.size(); }
  const Shape& output_shape(std::size_t o) const { return output_shapes_[o]; }

  /// The micro-batcher's compatibility predicate: a request is batchable iff
  /// it carries exactly one defined tensor per model input with the batch-1
  /// template shape.  Requests satisfying this are coalescible with each
  /// other by construction — there is nothing else to compare.
  bool compatible(const std::vector<Tensor>& inputs) const;

  /// Throws InvalidGraphError/ShapeError naming the first violation.
  void check_compatible(const std::vector<Tensor>& inputs) const;

 private:
  friend class ArtifactCodec;  ///< serve/artifact.cpp: the save/load implementation

  CompiledModel() = default;

  /// Everything after the schedule is fixed, shared by compile() and load():
  /// stamps variant k = `base` restamped to batch k for k in [1, max_batch],
  /// plans and validates each one's arena, sizes the slab (capped by
  /// options_.max_arena_bytes), and records weight bytes and the request
  /// signature.
  void stamp_variants(ir::Graph base);

  std::size_t index(std::size_t batch) const {
    TEMCO_CHECK(batch >= 1 && batch <= variants_.size())
        << "batch " << batch << " outside compiled range [1, " << variants_.size() << "]";
    return batch - 1;
  }

  CompileOptions options_;
  core::OptimizeStats stats_;
  std::vector<ir::Graph> variants_;        ///< [k-1] holds the batch-k graph
  std::vector<runtime::ArenaPlan> plans_;  ///< parallel to variants_
  runtime::PackedWeights prepack_;
  std::int64_t slab_bytes_ = 0;
  std::int64_t weight_bytes_ = 0;
  support::Isa kernel_isa_ = support::Isa::kScalar;
  std::uint32_t pack_layout_version_ = 0;
  std::vector<Shape> input_shapes_;   ///< batch-1 input templates, in input order
  std::vector<Shape> output_shapes_;  ///< batch-1 output templates, in output order
};

}  // namespace temco::serve
