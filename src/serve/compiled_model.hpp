// Compile-once serving artifact.
//
// A CompiledModel runs the whole TeMCO pipeline exactly once — decompose
// upstream, then optimize (skip-opt, transforms, fusion, DCE), plan one
// static arena, and pack GEMM weights — and freezes the result as an
// immutable artifact.  Serving sessions (session.hpp) and the fleet server
// (fleet.hpp) share one artifact read-only across any number of threads:
// nothing in it is ever mutated after compile() returns, which is the whole
// thread-safety story.
//
// Batches: the model is compiled and kept as one batch-1 graph.  A session
// restamps it to max_batch (ir::rebatched) and runs any batch k <= max_batch
// on it (runtime::Executor takes k from its inputs).  Liveness depends only
// on the schedule and tensor bytes are linear in the batch (§2.2), so the
// one arena plan, packed at max_batch, holds every k from a single slab of
// `slab_bytes()`.  GEMM weight packing depends only on weights and output
// width, so one PackedWeights serves every k too.
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
  /// (still planned and packed) — the "no compiler" baseline the serving
  /// benchmark compares against.
  bool optimize = true;

  /// Largest batch any session of this model can execute — the ceiling the
  /// server's micro-batcher coalesces up to, and the batch the arena plan is
  /// packed at.
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
  /// When > 0, compile() runs runtime::schedule_for_budget on the graph at
  /// max_batch (the batch that sizes the slab) and bakes the budget-meeting
  /// schedule into the model; an unmeetable budget raises
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
  /// crashes.  The arena plan is rebuilt from the schedule by the same code
  /// compile() runs, so the result is interchangeable with compile()'s.
  static std::shared_ptr<const CompiledModel> load(const std::string& path);

  std::size_t max_batch() const { return options_.max_batch; }
  const CompileOptions& options() const { return options_; }
  const core::OptimizeStats& stats() const { return stats_; }

  /// The optimized batch-1 graph; `batch` must be 1.
  const ir::Graph& graph(std::size_t batch) const {
    TEMCO_CHECK(batch == 1) << "the compiled graph is kept at batch 1, not " << batch;
    return graph_;
  }

  /// The pre-validated arena plan of the graph at max_batch; it holds every
  /// batch up to max_batch.
  const runtime::ArenaPlan& plan() const { return plan_; }

  /// Shared GEMM weight packing, valid at every batch.
  const runtime::PackedWeights& prepack() const { return prepack_; }

  /// The slab a session runs every batch in: the plan's arena size.
  std::int64_t slab_bytes() const { return plan_.arena_bytes; }
  std::int64_t packed_weight_bytes() const { return prepack_.bytes; }
  std::int64_t weight_bytes() const { return graph_.total_weight_bytes(); }

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
  std::size_t num_outputs() const { return graph_.outputs().size(); }
  const Shape& output_shape(std::size_t o) const {
    return graph_.node(graph_.outputs()[o]).out_shape;
  }

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
  /// keeps the batch-1 `base`, plans and validates its arena at max_batch
  /// (capped by options_.max_arena_bytes), and records the input shapes.
  void adopt_schedule(ir::Graph base);

  CompileOptions options_;
  core::OptimizeStats stats_;
  ir::Graph graph_;          ///< the batch-1 schedule
  runtime::ArenaPlan plan_;  ///< packed for graph_ at max_batch
  runtime::PackedWeights prepack_;
  support::Isa kernel_isa_ = support::Isa::kScalar;
  std::uint32_t pack_layout_version_ = 0;
  std::vector<Shape> input_shapes_;  ///< batch-1 input templates, in input order
};

}  // namespace temco::serve
