// Shared declarations of the repository benchmark (see README.md).
//
// The benchmark drives the public APIs of models, decomp, core, runtime,
// kernels and serve.  Every span it records is taken around a call into one
// of those layers from the benchmark's own code; nothing inside the library
// is instrumented.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "../bench/common.hpp"  // geomean, random_input, model_config, decomposed_baseline
#include "ir/graph.hpp"
#include "tensor/tensor.hpp"

namespace temco::bench {

using Clock = std::chrono::steady_clock;

inline Clock::duration to_duration(double seconds) {
  return std::chrono::duration_cast<Clock::duration>(std::chrono::duration<double>(seconds));
}

inline double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;      ///< length of the measured window
  bool trace = false;         ///< per-layer run instead of end-to-end run
  std::string trace_out;      ///< Chrome trace-event file written at exit (trace runs)
  std::string json_out;       ///< full result document (metrics + fingerprint)
  std::string scratch = "build-bench/scratch";  ///< artifact files of serving set-up
  std::string rev;            ///< source revision, when the caller knows it
  bool quick = false;         ///< one set-up, short windows (self-test)
  bool corrupt_reference = false;  ///< perturb one reference output (self-test)
};

/// What one run reports.  `attempted` counts checked operations (offline
/// graph runs, serving requests); `failed` counts wrong outputs and untyped
/// errors.  Typed serving outcomes (shed, late) are not failures; they are
/// reported through metrics.
struct Result {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;  ///< first few messages, for stderr
  std::map<std::string, std::pair<double, std::string>> metrics;  ///< name -> (value, unit)

  void metric(const std::string& name, double value, const std::string& unit) {
    metrics[name] = {value, unit};
  }
  void fail(const std::string& message) {
    ++failed;
    if (failures.size() < 8) failures.push_back(message);
  }
};

// ---- statistics ------------------------------------------------------------

/// Linear-interpolated quantile, q in [0, 1]; 0 for an empty sample.
double quantile(std::vector<double> values, double q);
inline double median(const std::vector<double>& values) { return quantile(values, 0.5); }

/// Outputs equal in count, shapes and every byte.
bool same_bytes(const std::vector<Tensor>& a, const std::vector<Tensor>& b);

// ---- tracing ---------------------------------------------------------------

/// In-memory span recorder.  Spans carry name, start, end, parent span and a
/// request id; they are written as Chrome trace-event JSON at exit.  Layer =
/// the span name up to its first '.'.
class Tracer {
 public:
  struct Span {
    std::string name;
    std::string id;
    Clock::time_point start, end;
    int parent = -1;
    int tid = 0;
  };

  /// The process tracer, or nullptr when tracing is off.
  static Tracer* active();
  static void enable();

  int begin(std::string name, std::string id);
  void end(int span);
  /// A span whose interval is already known (e.g. a request from its due
  /// time to its resolution, observed on another thread).
  void record(std::string name, std::string id, Clock::time_point start, Clock::time_point end);

  std::size_t size() const;
  /// Self time summed per layer: a span's duration minus the part of its
  /// interval its children cover.
  std::map<std::string, double> self_seconds_by_layer() const;
  void write_chrome(const std::string& path) const;

 private:
  mutable std::mutex mutex_;
  std::vector<Span> spans_;  ///< guarded by mutex_
  Clock::time_point origin_ = Clock::now();
};

/// RAII span around one layer call; free when tracing is off or `name` is
/// null.
class ScopedSpan {
 public:
  ScopedSpan(const char* name, std::string id = {});
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  int span_ = -1;
};

// ---- kernel replay -----------------------------------------------------------

/// Intra-op width of every executor and session the benchmark times; with
/// the process-global pool retired (main.cpp), every kernel runs on its
/// caller.  On a shared host a fork-join kernel waits for the slowest of its
/// cores, which ties the result to the busiest neighbour.
inline constexpr std::size_t kIntraOpThreads = 1;

/// Op classes the replay attributes kernel time to.
inline constexpr const char* kKernelClasses[] = {"conv_pointwise", "conv_spatial", "conv_restore",
                                                 "fused", "linear", "memory"};
inline constexpr std::size_t kNumKernelClasses = 6;

struct ClassTotals {
  double ms = 0.0;       ///< kernel time in the median replay pass
  double calls = 0.0;    ///< kernel calls per pass
  double flops = 0.0;    ///< computed from shapes (Graph::node_flops)
  double bytes = 0.0;    ///< inputs + output + weights, computed from shapes
};

struct ReplayResult {
  ClassTotals classes[kNumKernelClasses];
  double node_sum_ms = 0.0;   ///< per-node kernel times summed, median pass
  double pass_ms = 0.0;       ///< median wall time of a replay pass without per-call timing
  double executor_ms = 0.0;   ///< median Executor::run of the same graph and input
  bool bitwise_equal = false; ///< replay outputs == Executor outputs
};

/// Replays every node of `graph` through the public kernels:: calls, with
/// PackedWeights::build blobs and preallocated outputs, `passes` rounds, and
/// times an arena Executor on the same input, both at kIntraOpThreads.
/// `label` is the request id of the spans.
ReplayResult replay_graph(const ir::Graph& graph, const Tensor& input, int passes,
                          const std::string& label);

/// Timed replay rounds per graph (medians are taken over them).
inline constexpr int kReplayPasses = 11;

/// Calls of each TeMCO pass and of core::optimize per model (median taken).
inline constexpr int kCoreRepeats = 3;

/// The model whose optimized-vs-decomposed gap is broken down by op class.
inline constexpr const char* kBreakdownModel = "densenet121";

/// One model of a workload, as the compiler and kernel layers see it.
struct ModelGraphs {
  std::string name;
  const ir::Graph* decomposed = nullptr;  ///< at the workload's batch
  double decompose_s = 0.0;               ///< measured by the workload's set-up
  Tensor input;
  bool detailed = false;                  ///< emit model.<name>.* rows
};

/// Per-layer metrics of decomp, core, runtime and kernels for `models`:
/// the four TeMCO passes timed one by one, arena planning, packing and
/// executor construction, and a kernel replay of both graphs per model.
void add_compiler_layer_metrics(const std::vector<ModelGraphs>& models, Result& result);

// ---- host speed --------------------------------------------------------------

/// How much slower than nominal the calling thread's core runs now: the CPU
/// time of one fixed reference pass (a multiply-add chain in registers,
/// about 0.2 ms) over its time on the sizing host at its fastest.  The pass is the benchmark's own code, so no
/// change to the program can move it.  Call it from one thread only.
double host_slowdown();

/// Wall time with the host's slowdown divided out, for stretches of
/// single-threaded CPU work such as a set-up: each lap's wall time is divided
/// by the mean of the slowdowns sampled at its two ends (sampling is not
/// counted).
class SteadyStopwatch {
 public:
  SteadyStopwatch();
  void lap();
  double seconds() const { return seconds_; }

 private:
  Clock::time_point last_;
  double slowdown_ = 1.0;  ///< sampled at last_
  double seconds_ = 0.0;
};

// ---- host fingerprint --------------------------------------------------------

/// Register-resident FMA probe of the active GEMM tier, one core, GFLOP/s.
double fma_peak_gflops();

// ---- workloads -----------------------------------------------------------------

/// Offline Fig. 11 inference at a fixed batch (fig11-b4, fig11-b32).
void run_offline(const Options& options, std::int64_t batch, Result& result);

/// Open-loop fleet serving at a fixed Poisson rate and deadline.
void run_serving(const Options& options, double rate_per_s, int deadline_ms, Result& result);

/// Serve-layer calls on `models` (compiled at batch 1, the workload's
/// serving configuration): compile, save, load, install_file, first
/// response, and Session::run_batch at batch 1 and 8.
void add_serve_probe_metrics(const std::vector<ModelGraphs>& models, const Options& options,
                             Result& result);

/// The serve-under-load and generator metrics, zero on offline workloads,
/// which have no queue, deadline or generator.
void add_idle_serve_load_metrics(Result& result);

}  // namespace temco::bench
