// Graph executor with two memory regimes.
//
// Reference path (default): mirrors how PyTorch/TensorFlow run an inference
// graph (§2.2) — each node's output is allocated when the node runs, and
// every tensor is dropped right after its last use.  All internal-tensor
// storage comes from a TrackingAllocator, so running a graph *measures* the
// peak the planner predicts, and the per-step live-byte timeline behind
// Figure 4 is recorded.
//
// Arena path (ExecutorOptions{.use_arena = true}): the production regime.  A
// static arena plan (runtime/arena.hpp) assigns every internal tensor — and
// the fused kernels' scratch — a byte offset in one slab that is allocated
// once at construction; run() then executes the whole graph with zero
// per-node heap allocations.  Outputs are bitwise-identical to the reference
// path (asserted across the model zoo in tests/test_arena.cpp).
//
// Both regimes run the schedule node by node on the calling thread, as the
// paper's §2.2 executor does; parallelism lives inside the kernels
// (ExecutorOptions::intra_op_threads).  Serving gets its concurrency from
// many executors running different requests (src/serve).
#pragma once

#include <memory>
#include <vector>

#include "ir/graph.hpp"
#include "parallel/thread_pool.hpp"
#include "runtime/allocator.hpp"
#include "runtime/arena.hpp"
#include "runtime/liveness.hpp"
#include "support/cancel.hpp"

namespace temco::runtime {

struct StepTrace {
  ir::ValueId id = ir::kInvalidValue;
  std::int64_t live_bytes_after = 0;  ///< live internal bytes after frees at this step
  std::int64_t step_peak_bytes = 0;   ///< live bytes while the node ran (inputs + output)
};

struct ExecutionResult {
  std::vector<Tensor> outputs;           ///< one per graph output, in order
  std::int64_t peak_internal_bytes = 0;  ///< measured (reference) / planned (arena)
  std::int64_t weight_bytes = 0;         ///< constant weights (loaded up-front)
  /// Extra weight-side bytes held by the executor's plan-time GEMM weight
  /// packing (kernels/gemm.hpp).  Like weight_bytes it is constant across
  /// runs, paid once at construction — reported separately so the
  /// internal-tensor peak the paper's figures track stays untouched.
  std::int64_t packed_weight_bytes = 0;
  std::int64_t arena_bytes = 0;          ///< slab size; 0 on the reference path
  std::int64_t heap_allocations = 0;     ///< per-node tensor allocations this run (arena: 0)
  /// Per-node live-byte series (Fig. 4), measured by the reference path.
  /// Empty on the arena path, which never frees and would otherwise copy
  /// the planner's series into every run; runtime::plan_memory(graph).steps
  /// is that series.
  std::vector<StepTrace> timeline;
  double wall_seconds = 0.0;
};

/// Plan-time GEMM weight packing for a graph: one blob per node that wants
/// one (none otherwise), indexed by ValueId.  Packing depends only on weight
/// contents and output *width*, never on the batch dimension, so one build is
/// valid for every batch variant of a graph (asserted in tests) — the serving
/// runtime shares a single PackedWeights read-only across all sessions.
///
/// Storage is one 64-byte-aligned buffer behind a shared owner.  The layout
/// is a function of the graph alone: blob i starts at the next 64-aligned
/// offset after blob i-1 ends, in node order, and padding bytes are zero.
/// An artifact's packed-weight section is this buffer byte for byte, so a
/// loaded model views the section in place (serve/artifact.hpp).
struct PackedWeights {
  /// Sum of the blobs' bytes, padding excluded.
  std::int64_t bytes = 0;

  /// Packs every blob of `graph` into a fresh buffer.
  static PackedWeights build(const ir::Graph& graph);

  /// Points at `size` bytes at `data`, already laid out for `graph`, kept
  /// alive by `owner`.  `data` must be 64-byte aligned; a size other than
  /// the layout's raises InvalidGraphError.
  static PackedWeights view(const ir::Graph& graph, std::shared_ptr<const void> owner,
                            const unsigned char* data, std::size_t size);

  /// Floats PackedWeights::build packs for this node (0: the node's kernels
  /// read weights in place).
  static std::int64_t node_floats(const ir::Node& node);

  /// Nodes covered (== graph size).
  std::size_t size() const { return blob_.size(); }

  const float* blob(ir::ValueId id) const { return blob_[static_cast<std::size_t>(id)]; }

  /// The whole buffer, padding included.
  const unsigned char* data() const { return data_; }
  std::size_t buffer_bytes() const { return buffer_bytes_; }

 private:
  std::shared_ptr<const void> owner_;
  const unsigned char* data_ = nullptr;
  std::size_t buffer_bytes_ = 0;
  std::vector<const float*> blob_;  ///< per node; nullptr when it packs nothing
};

/// Byte used to poison-fill arena slabs and guard bands.  Four of them form a
/// quiet NaN, so a read of a never-written slot is detectable by
/// check_numerics and no finite kernel result ever matches the pattern.
/// Exposed so external slab owners (serve::Session) can poison consistently.
inline constexpr unsigned char kArenaPoisonByte = 0xFF;

/// Immutable, shareable construction inputs for the serving path (src/serve).
/// Many executors — across sessions, threads and batch variants — reuse one
/// packed-weight set and one pre-validated arena plan instead of re-deriving
/// them, and bind to a caller-owned slab so N batch variants of a session
/// share one allocation.  Everything pointed to must outlive the executor,
/// which keeps the pointers and never writes through them.
struct ExecutorBinding {
  /// Prebuilt packing (PackedWeights::build); nullptr builds per-executor.
  const PackedWeights* prepack = nullptr;

  /// Pre-validated plan (plan_arena + validate_arena_plan already ran) for
  /// this graph or a wider batch of its schedule; adoption checks every
  /// block's live range and size against this graph (InvalidGraphError).
  /// Requires ExecutorOptions::use_arena; nullptr plans per-executor.
  const ArenaPlan* plan = nullptr;

  /// Caller-owned slab the plan's offsets index into; required with `plan`.
  /// Must hold `slab_bytes >= plan->arena_bytes`, aligned to
  /// kTensorAlignment.  The executor neither initializes nor frees it —
  /// poison-fill with kArenaPoisonByte (canaries) or zero it once at setup.
  float* slab = nullptr;
  std::int64_t slab_bytes = 0;
};

struct ExecutorOptions {
  /// Plan a static arena at construction and run every node out of one
  /// preallocated slab — zero per-node heap allocations on the steady-state
  /// path.  Outputs are still cloned to plain heap at the end of each run.
  bool use_arena = false;

  /// Scan every node's output for NaN/Inf right after the node runs and
  /// throw NumericError naming the offending node.  Catches kernel bugs (and
  /// injected kernels.poison_nan faults) at the step that produced them
  /// instead of in downstream garbage.
  bool check_numerics = false;

  /// Arena mode only: append a poison-filled guard band to every arena slot
  /// and verify it when the value dies.  An out-of-slot write by a (fused)
  /// kernel then surfaces as MemoryCorruptionError at free time, naming the
  /// corrupted value, instead of silently clobbering a neighboring tensor.
  /// The slab is also poison-filled at construction so reads of
  /// never-written slots produce NaNs that check_numerics can catch.
  bool arena_canaries = false;

  /// Intra-op width: threads each *kernel* may spread its internal loops
  /// (GEMM block grid, conv rows) across.  0 (default): kernels use the
  /// process-global pool.  N ≥ 1: the executor owns a dedicated N-thread
  /// pool and installs it (ScopedIntraOpPool) around every node it runs —
  /// 1 pins kernels serial.  Results are bit-identical for any width: every
  /// kernel's accumulation order is fixed by geometry, not thread count
  /// (asserted in tests/test_parallel.cpp).
  std::size_t intra_op_threads = 0;

  /// Cooperative stop token, polled once at dispatch and before every node
  /// in both regimes.  A stop surfaces as CancelledError /
  /// DeadlineExceededError from run(); the executor stays reusable
  /// afterwards (the arena is rewritten from scratch every run, so an
  /// abandoned run leaves no partial state that matters).  nullptr
  /// (default): no polling, zero overhead.  Must outlive the executor; owned
  /// by the caller (serve::Session owns one per session).
  const support::CancelToken* cancel = nullptr;
};

class Executor {
 public:
  explicit Executor(const ir::Graph& graph, ExecutorOptions options = {});

  /// Serving-path construction: reuses the binding's shared immutable state
  /// (see ExecutorBinding) instead of re-packing / re-planning / allocating.
  Executor(const ir::Graph& graph, ExecutorOptions options, const ExecutorBinding& binding);

  /// Runs the graph on `inputs` (one tensor per kInput node, in definition
  /// order).  Reference mode keeps no state across runs.  Arena mode reuses
  /// the slab between runs, so concurrent run() calls on one arena executor
  /// are not allowed — build one executor per stream instead.
  ExecutionResult run(const std::vector<Tensor>& inputs);

  /// Like run(), but writes each graph output into the caller-provided
  /// tensor of `outputs` (one per graph output, in order, exact shapes)
  /// instead of cloning onto the heap — the zero-allocation steady-state
  /// entry point the serving runtime uses.  The returned result's `outputs`
  /// vector stays empty.  Throws InvalidGraphError/ShapeError on count,
  /// shape, undefined-tensor, or aliasing violations (two outputs sharing
  /// bytes, or an output aliasing the arena slab); an output may alias an
  /// *input* safely, because inputs are consumed before outputs are written.
  ExecutionResult run_into(const std::vector<Tensor>& inputs, std::vector<Tensor>& outputs);

  /// The adopted packing; nullptr unless use_arena.
  const ArenaPlan* arena_plan() const { return plan_; }

 private:
  void bind_arena(const ExecutorBinding& binding);
  void check_inputs(const std::vector<Tensor>& inputs) const;
  void check_outputs(const std::vector<Tensor>& outputs) const;
  void check_node_output(const ir::Node& node, const Tensor& out) const;
  void write_canary(const ir::Node& node);
  void check_canary(ir::ValueId id, const ir::Node& at) const;
  void run_dispatch(const std::vector<Tensor>& inputs, std::vector<Tensor>& outputs,
                    ExecutionResult& result);
  void run_reference(const std::vector<Tensor>& inputs, std::vector<Tensor>& outputs,
                     ExecutionResult& result);
  void run_arena(const std::vector<Tensor>& inputs, std::vector<Tensor>& outputs,
                 ExecutionResult& result);

  const ir::Graph& graph_;
  ExecutorOptions options_;
  std::vector<LiveRange> liveness_;
  std::vector<std::vector<ir::ValueId>> dying_;
  std::vector<ir::ValueId> input_ids_;

  // ---- plan-time GEMM weight packing (all regimes) ------------------------
  // Built once at construction (or adopted read-only from an ExecutorBinding)
  // so steady-state runs never re-pack.  Owned on the plain heap,
  // deliberately outside the arena slab: packed weights are constant
  // weight-side state, not internal tensors, so they are invisible to the
  // arena plan, its canaries, and the zero-allocation guarantee alike.
  PackedWeights own_prepack_;
  const PackedWeights* prepack_ = nullptr;

  /// Dedicated kernel-loop pool (populated only when intra_op_threads != 0);
  /// installed as the scoped intra-op pool around every run_node call.
  std::unique_ptr<ThreadPool> intra_pool_;

  // ---- arena state (populated only when options_.use_arena) ---------------
  ArenaPlan own_plan_;              ///< planned here when the binding has no plan
  const ArenaPlan* plan_ = nullptr;  ///< &own_plan_ or the binding's plan
  Buffer slab_;                                   ///< one aligned allocation, reused per run
  std::vector<Tensor> bound_;                     ///< per-value views into the slab
  std::vector<std::vector<const Tensor*>> args_;  ///< prebuilt kernel input lists
  std::int64_t planned_peak_ = 0;
};

/// Convenience wrapper: builds an Executor and runs once.
ExecutionResult execute(const ir::Graph& graph, const std::vector<Tensor>& inputs,
                        ExecutorOptions options = {});

}  // namespace temco::runtime
