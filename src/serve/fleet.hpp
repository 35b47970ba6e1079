// Fleet server: many compiled models behind one shared worker pool, with
// weighted fair-share scheduling, SLO-aware admission, and per-model
// adaptive micro-batching.  It is the one serving front end: a single-model
// deployment is a fleet with one model installed.
//
// Why one shared pool: TeMCO's compressed slabs make model *residency*
// cheap, but a static per-model partition of worker threads still strands
// CPU — each model's workers idle when its traffic lulls while another
// model's queue backs up.  The fleet pools the workers and lets
// instantaneous demand, not a static partition, decide where they go.
//
// Scheduling (weighted fair share): an idle worker scores every model with
// a non-empty queue as  weight x age(oldest queued request)  and serves the
// highest score whose session pool has a free session.  Age keeps any
// backlogged model's score growing without bound, so no model starves while
// another has headroom; weight sets the *ratio* at which two backlogged
// models are served, not an absolute priority.  Models whose sessions are
// all busy are skipped, never waited on — a slow model cannot capture
// workers beyond its own session count (head-of-line isolation).  A request
// is claimed (in_flight) only once a worker holds a session for its model;
// until then it is queued (queue_depth).
//
// Adaptive micro-batching: each model's batch ceiling and straggler timeout
// are tuned online, per control period, from three observed signals —
//  - arrival rate (EWMA over submit inter-arrival times),
//  - per-request execution time (EWMA over batch runs),
//  - recent end-to-end p99 (ring of the last completions).
// The controller grows the ceiling toward the demand a batch can absorb
// (Little's law: lambda x exec), clamps it so a full batch's execution fits
// inside half the latency SLO, halves it (and zeroes the timeout) whenever
// the observed p99 breaches the SLO, and derives the straggler timeout from
// remaining SLO slack (or expected fill time when the model has no SLO).
//
// Admission control: submit() predicts this request's queue wait as
// (queued + in_flight) x exec_per_request / lanes and rejects with
// SloUnmeetableError — at submit time, queue capacity notwithstanding —
// when that wait would consume more than HALF the request's remaining
// deadline or the model's p99 target.  Half, not all: a request admitted
// after spending its whole budget in line can only ever finish at the
// deadline's knife edge, where batching windows, execution, and fanout
// jitter tip it late — queueing may spend half the budget, the rest stays
// reserved for actually serving the answer.  Under sustained overload this
// is the difference between shedding doomed work at submit (microseconds)
// and serving answers nobody can use (a full service time each).  Accepted
// requests obey the strict-SLO rule: a value that
// would resolve past its deadline is converted to DeadlineExceededError
// before the promise fanout, so an accepted request NEVER yields a usable
// answer late (metrics count such conversions as value_past_deadline; the
// bench asserts the count stays 0 when admission is doing its job).
//
// Fault tolerance, per model: transient faults retry with jittered
// exponential backoff, corrupting faults quarantine the session, a per-model
// circuit breaker degrades that model (and only that model) to singleton
// batches on the hardened executor.  Fault classes come from
// serve/fault.hpp.
//
// Watchdog: with a nonzero hang_budget, one thread per fleet sleeps until
// the earliest executing batch reaches start + hang_budget.  A batch over
// budget has its session token cancelled (the run unwinds at its next poll
// point), its futures fail with DeadlineExceededError now, and a breaker
// failure is recorded when it unwinds; a late result is discarded.  The
// batch keeps counting against in_flight until its run unwinds — its lane
// really is still busy.
//
// Every accepted request resolves exactly once, to a value or a typed
// temco::Error — enforced by an atomic per-request claim, so shutdown racing
// the watchdog racing a worker can never double-resolve.
//
// Hot swap: install() over a live name (or swap(), which insists on one)
// builds the replacement pool outside the fleet lock, then atomically
// redirects the name.  The displaced generation keeps its queue and keeps
// being scheduled — fair share and all — until every request it accepted
// has resolved, then evaporates; nothing is dropped and no submit ever
// blocks on a deploy.  wait_drained() lets tests and deploy scripts pend on
// that evaporation.
//
// Observability: every model owns a metrics::ModelMetrics (lock-free
// recording); snapshot()/metrics_json() export counters, gauges, latency
// histograms, and the adaptive-batcher state in one consistent-enough read.
#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <future>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "parallel/thread_pool.hpp"
#include "serve/metrics.hpp"
#include "serve/session.hpp"
#include "support/cancel.hpp"

namespace temco::serve {

/// Per-request submit-time options.
struct SubmitOptions {
  /// Absolute completion deadline; time_point::max() (default) means none.
  /// An already-expired deadline is rejected at admission.
  std::chrono::steady_clock::time_point deadline = std::chrono::steady_clock::time_point::max();

  /// Convenience: nonzero sets `deadline = now + timeout` at submit time
  /// (the earlier of the two wins if both are given).
  std::chrono::microseconds timeout{0};
};

struct FleetOptions {
  /// Latency SLO and scheduling weight for one model.
  struct ModelSlo {
    /// End-to-end p99 target; 0 (default) means no latency SLO — the model
    /// is batched for throughput and admission never rejects on time.
    /// Must not be negative.
    std::chrono::milliseconds target_p99{0};

    /// Fair-share weight: the served-rate ratio between two backlogged
    /// models equals their weight ratio.  Must be positive.
    double weight = 1.0;
  };

  /// Worker lanes shared by every installed model.
  std::size_t workers = 4;

  /// Sessions (arena slabs) per installed model.  Also each model's ceiling
  /// on concurrently executing batches — a model can never hold more
  /// workers than sessions, which is what isolates a slow model.
  std::size_t sessions_per_model = 2;

  /// Admission queue bound, per model.
  std::size_t queue_capacity = 256;

  /// Ceiling on the adaptive straggler timeout.  The controller tunes each
  /// model's live timeout within [0, this].
  std::chrono::microseconds max_batch_timeout{500};

  /// Defaults applied to install() calls that don't carry their own SLO.
  ModelSlo default_slo{};

  /// Predictive admission: reject a submit whose forecast queue wait
  /// already blows its deadline or the model's p99 target.  On by default;
  /// off reproduces plain bounded-queue admission.
  bool slo_admission = true;

  // ---- fault machinery, per model ------------------------------------------

  /// Extra attempts granted to a batch whose failure classified transient
  /// (TransientFaultError, ResourceExhaustedError).  0 disables retry.
  std::size_t max_retries = 2;

  /// Base backoff before retry attempt a: base * 2^(a-1), scaled by a
  /// uniform jitter in [0.5, 1.5) so synchronized failures don't retry in
  /// lockstep.  0 retries immediately (what deterministic tests use).
  std::chrono::microseconds retry_backoff{200};

  /// Consecutive batch failures that trip a model's circuit breaker into
  /// degraded mode (singleton batches, hardened serial executor).  0
  /// disables.
  std::size_t breaker_threshold = 3;

  /// Consecutive degraded-mode successes before normal batching restores.
  std::size_t breaker_recovery = 8;

  /// Wall-clock budget an executing batch may spend before the watchdog
  /// fails its futures fast and cancels the run.  0 (default) starts no
  /// watchdog thread and leaves the execute path untouched.
  std::chrono::milliseconds hang_budget{0};
};

/// Many models, one worker pool.  See the file comment for the contract.
/// Thread-safe: any number of submitters, installers, and snapshot readers.
class FleetServer {
 public:
  explicit FleetServer(FleetOptions options = {});

  /// Equivalent to shutdown(false).
  ~FleetServer();

  FleetServer(const FleetServer&) = delete;
  FleetServer& operator=(const FleetServer&) = delete;

  /// Installs `model` under `name` with the fleet's default SLO (or `slo`).
  /// Replacing a live name hot-swaps it: the old generation drains in the
  /// background (see wait_drained), new submits land on the new one.
  void install(const std::string& name, std::shared_ptr<const CompiledModel> model);
  void install(const std::string& name, std::shared_ptr<const CompiledModel> model,
               FleetOptions::ModelSlo slo);

  /// Loads an artifact file (CompiledModel::load) and installs it.
  void install_file(const std::string& name, const std::string& path);
  void install_file(const std::string& name, const std::string& path,
                    FleetOptions::ModelSlo slo);

  /// Hot swap: like install, but throws InvalidGraphError when `name` is
  /// not currently serving.  The new generation inherits the old one's SLO.
  void swap(const std::string& name, std::shared_ptr<const CompiledModel> model);
  void swap_file(const std::string& name, const std::string& path);

  /// Stops serving `name`: its accepted requests drain, new submits get
  /// InvalidGraphError.  No-op for an unknown name.
  void remove(const std::string& name);

  /// Blocks until every hot-swapped-out or removed generation has resolved
  /// all the requests it accepted.
  void wait_drained();

  /// Enqueues one request for `name`.  Throws InvalidGraphError (unknown
  /// name), ShapeError (incompatible inputs), CancelledError (shutting
  /// down), ResourceExhaustedError (queue full), DeadlineExceededError
  /// (deadline already expired), or SloUnmeetableError (predicted wait
  /// blows the deadline/SLO — shed load, don't retry).
  std::future<std::vector<Tensor>> submit(const std::string& name, std::vector<Tensor> inputs,
                                          SubmitOptions options = {});

  /// Stops admission and joins the workers.  drain=true completes every
  /// accepted request first; drain=false fails still-queued requests with
  /// CancelledError.  Idempotent.
  void shutdown(bool drain);

  /// Names currently serving (draining generations excluded), unordered.
  std::vector<std::string> names() const;

  /// The artifact currently serving `name`; throws InvalidGraphError if none.
  std::shared_ptr<const CompiledModel> model(const std::string& name) const;

  /// The session pool currently serving `name`; throws InvalidGraphError if
  /// none.  Valid until `name` is swapped or removed and its generation has
  /// drained.  Tests hold its leases to stall a lane and read its
  /// quarantine stats.
  SessionPool& session_pool(const std::string& name);

  /// Frozen metrics for every live model, one ModelSnapshot each.
  std::vector<metrics::ModelSnapshot> snapshot() const;

  /// snapshot() rendered as one JSON document ({"models": [...]}).
  std::string metrics_json() const;

 private:
  struct Request {
    std::vector<Tensor> inputs;
    std::promise<std::vector<Tensor>> promise;
    std::chrono::steady_clock::time_point deadline = std::chrono::steady_clock::time_point::max();
    std::chrono::steady_clock::time_point submitted_at;
    std::atomic<bool> resolved{false};

    bool claim() {
      bool expected = false;
      return resolved.compare_exchange_strong(expected, true, std::memory_order_acq_rel);
    }
    bool expired(std::chrono::steady_clock::time_point now) const {
      return deadline != std::chrono::steady_clock::time_point::max() && now >= deadline;
    }
  };
  using RequestPtr = std::shared_ptr<Request>;

  /// One installed model generation.  Queue, adaptive state, and breaker
  /// bookkeeping are guarded by the fleet mutex_ (they are touched only at
  /// submit/pick/post-batch boundaries — execution itself runs unlocked);
  /// metrics are lock-free atomics recorded from anywhere.
  struct Model {
    std::string name;
    std::uint64_t generation = 0;
    std::shared_ptr<const CompiledModel> compiled;
    std::unique_ptr<SessionPool> pool;
    FleetOptions::ModelSlo slo;
    std::chrono::steady_clock::time_point installed_at;
    std::shared_ptr<metrics::ModelMetrics> metrics;

    std::deque<RequestPtr> queue;
    std::int64_t in_flight = 0;
    bool retired = false;  ///< swapped out or removed; drains, takes no submits

    // ---- adaptive micro-batcher state --------------------------------------
    std::size_t batch_cap = 1;
    std::chrono::microseconds batch_timeout{0};
    double arrival_rate_hat = 0.0;    ///< req/s EWMA
    double exec_per_req_hat = 0.0;    ///< seconds, EWMA over batch runs
    double occupancy_hat = 0.0;       ///< requests per batch, EWMA
    std::chrono::steady_clock::time_point last_arrival;
    std::array<double, 128> recent_ms{};  ///< ring of recent end-to-end latencies
    std::size_t recent_count = 0;
    std::size_t batches_since_control = 0;

    // ---- per-model circuit breaker -----------------------------------------
    std::size_t consecutive_failures = 0;
    std::size_t probe_successes = 0;
    std::atomic<bool> degraded{false};
  };
  using ModelPtr = std::shared_ptr<Model>;

  /// One executing batch registered with the watchdog.  Lives on the
  /// executing worker's stack; watched_ holds it only while it is
  /// registered and unflagged.
  struct Watch {
    Model* model = nullptr;
    support::CancelToken* token = nullptr;
    const std::vector<RequestPtr>* batch = nullptr;
    std::chrono::steady_clock::time_point started;
    std::list<Watch*>::iterator slot;
    bool flagged = false;  ///< the watchdog failed this batch's futures
  };

  /// What one execute_batch pass feeds back into the adaptive controller.
  struct BatchOutcome {
    std::vector<double> latencies_ms;  ///< end-to-end, values delivered in time
    double exec_seconds = 0.0;         ///< successful run's wall time
    std::size_t executed = 0;          ///< its batch size (0: batch never ran)
  };

  void install_impl(const std::string& name, std::shared_ptr<const CompiledModel> compiled,
                    std::optional<FleetOptions::ModelSlo> slo, bool must_exist);
  void retire_locked(const ModelPtr& model);

  void worker_loop();
  /// Highest-score runnable model (non-empty queue + free session), with its
  /// lease.  Returns nullptr when nothing is runnable right now.
  ModelPtr pick_model(SessionPool::Lease& lease);
  void execute_batch(Model& model, SessionPool::Lease lease, std::vector<RequestPtr>& batch,
                     bool degraded, BatchOutcome& outcome);
  void finish_batch(const ModelPtr& model, const BatchOutcome& outcome);
  void adapt_locked(Model& model);

  bool resolve_value(Model& model, Request& request, std::vector<Tensor> value);
  bool resolve_error(Model& model, Request& request, const std::exception_ptr& error,
                     std::atomic<std::uint64_t>& counter);
  /// Takes `count` claimed requests off Model::in_flight.  Called before
  /// their promises resolve, so a client that resubmits as soon as get()
  /// returns is not charged, at admission, for its own finished request.
  void release_in_flight(Model& model, std::size_t count);
  /// Releases and resolves every request in `batch` with `error`, counting
  /// each under `counter`; leaves `batch` empty.
  void fail_batch(Model& model, std::vector<RequestPtr>& batch, const std::exception_ptr& error,
                  std::atomic<std::uint64_t>& counter);
  void sweep_expired(Model& model, std::vector<RequestPtr>& batch);
  void backoff_sleep(std::size_t attempt);
  void breaker_failure(Model& model);
  void breaker_success(Model& model);
  std::size_t total_queued_locked() const;

  /// Registers `watch` with the watchdog (no-op with a zero hang_budget).
  void watch_begin(Watch& watch);
  /// Unregisters `watch`; true when the watchdog already flagged it, i.e.
  /// its futures are resolved and the run's result must be discarded.
  bool watch_end(Watch& watch);
  void watchdog_loop();

  FleetOptions options_;

  mutable std::mutex mutex_;
  std::condition_variable work_cv_;   ///< new work, freed sessions, shutdown
  std::condition_variable drain_cv_;  ///< a retired generation fully drained
  std::map<std::string, ModelPtr> live_;  ///< guarded by mutex_
  std::list<ModelPtr> draining_;          ///< guarded by mutex_
  std::uint64_t next_generation_ = 1;     ///< guarded by mutex_
  bool stopping_ = false;                 ///< guarded by mutex_
  bool joined_ = false;                   ///< guarded by mutex_
  std::mutex shutdown_mutex_;

  std::unique_ptr<ThreadPool> worker_pool_;
  std::thread dispatcher_;

  std::mutex rng_mutex_;
  std::mt19937_64 rng_{0xf1ee7c0de5e17ull};  ///< guarded by rng_mutex_

  // ---- watchdog (running only with a nonzero hang_budget) -------------------
  std::mutex watch_mutex_;
  std::condition_variable watch_cv_;
  std::list<Watch*> watched_;   ///< in start order; guarded by watch_mutex_
  bool watchdog_stop_ = false;  ///< guarded by watch_mutex_
  std::thread watchdog_;
};

}  // namespace temco::serve
