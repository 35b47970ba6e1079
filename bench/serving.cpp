// Serving: the compile-once serving stack under load, in three legs over the
// same optimized batch-1 graphs.
//
// One model — closed-loop clients, four modes per model:
//   naive          every request builds a fresh Executor (prepack + arena
//                  planning paid per request) and runs batch 1
//   pool           a one-model FleetServer over an artifact compiled at
//                  max_batch 1: pooled arena sessions, no coalescing
//   pool+batching  the same over an artifact whose micro-batch ceiling is
//                  the client count
//   pool+faults    pool+batching with ~1% of batches hit by an injected
//                  transient fault: what retry, the breaker and degraded
//                  mode cost when they run
//
// Fleet — one FleetServer sharing a worker pool across all models versus a
// static partition of one-model fleets, identical drivers against both:
//   closed    the first (hot) model under closed-loop clients with generous
//             deadlines, the others on a paced open-loop trickle.  Demand
//             self-limits, so both stacks keep up; the bench asserts the
//             fleet's value_past_deadline == 0.
//   overload  open-loop arrivals on the hot model at 1.4x the measured
//             capacity with a 25 ms SLO.  The static partition's FIFO queue
//             fills until its wait alone blows the deadline; the fleet's
//             predictive admission rejects doomed requests at submit.  Goodput
//             counts a value iff it arrived within its deadline: a
//             scheduling-and-admission win, not a parallelism win.
//
// Cold start — compile-at-boot (decompose + TeMCO pipeline + variant
// stamping + weight packing) versus CompiledModel::load of the artifact.
//
// Every artifact's fleet output is first checked bitwise against the naive
// mode's Executor.  Each mode, leg and cold-start step runs --repeats times;
// rates and times are the median with quartiles (bench/common.hpp), latency
// percentiles pool the requests of every run.
//
// Flags: the shared --models (at least two; the first is the hot model),
// --width, --image and --ratio (requests are batch 1; --batch must stay 1),
// plus --requests N (closed-loop requests per run of each one-model mode),
// --repeats N, --overload-ms N and --json PATH.  The hot model's closed leg
// and the capacity run are kHotRequests whatever --requests says, so a short
// run still asserts the strict-SLO rule on the full closed leg and sets the
// overload rate from the full capacity run.
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <deque>
#include <filesystem>
#include <future>
#include <memory>
#include <mutex>
#include <thread>

#include "bench/common.hpp"
#include "runtime/arena.hpp"
#include "serve/compiled_model.hpp"
#include "serve/fleet.hpp"
#include "support/failpoint.hpp"

using namespace temco;
using namespace std::chrono_literals;
using temco::bench::Spread;

namespace {

using ModelPtr = std::shared_ptr<const serve::CompiledModel>;

constexpr std::size_t kModelClients = 4;   ///< closed-loop clients, one-model leg
constexpr std::size_t kFleetClients = 16;  ///< closed-loop clients on the hot model
constexpr std::size_t kHotRequests = 600;  ///< hot model's closed leg and capacity run
constexpr std::size_t kColdRequests = 48;  ///< paced requests per cold model, closed leg
constexpr std::size_t kFleetMaxBatch = 8;  ///< fleet and cold-start artifacts
constexpr std::size_t kWorkers = 4;
constexpr std::size_t kSessionsPerModel = 2;
constexpr std::size_t kQueueCapacity = 1024;  ///< same bounded queue, both stacks
constexpr auto kGenerousDeadline = 250ms;     ///< closed leg: ~250x a request
constexpr auto kTightDeadline = 25ms;         ///< overload leg: the SLO under test
constexpr auto kColdInterval = 4ms;
constexpr double kOverloadFactor = 1.4;  ///< arrival rate vs measured capacity
constexpr const char* kModelName = "model";

struct Config {
  temco::bench::BenchConfig graphs;
  std::size_t requests = 0;
  std::size_t repeats = 0;
  std::size_t overload_ms = 0;
  std::string json;
};

Config parse(int argc, char** argv) {
  temco::bench::BenchArgs defaults;
  // The high-QPS small-request regime: requests are cheap enough that
  // per-request construction, dispatch and queueing — the costs the serving
  // plane manages — are a visible share of each one.  Deep many-node models,
  // where per-request planning and packing cost the most.
  defaults.config.width = 0.125;
  defaults.config.image = 16;
  defaults.config.batch = 1;
  defaults.config.models = {"resnet18", "resnet34", "densenet121", "densenet169"};
  defaults.json = "";
  defaults.requests = 600;
  defaults.repeats = 3;
  defaults.overload_ms = 300;
  const auto args = temco::bench::parse_args(argc, argv, defaults);
  TEMCO_CHECK(args.config.batch == 1) << "--batch does not apply: every request is batch 1";
  TEMCO_CHECK(args.config.models.size() >= 2) << "the fleet leg needs at least two models";
  return {args.config, *args.requests, *args.repeats, *args.overload_ms, *args.json};
}

/// Closed loop: `clients` threads each take the next request index, issue
/// it and wait for the answer before issuing another.  Returns every
/// request's latency in seconds.
template <typename Issue>
std::vector<double> closed_loop(std::size_t requests, std::size_t clients, Issue issue) {
  std::atomic<std::size_t> next{0};
  std::vector<std::vector<double>> per_client(clients);
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      for (std::size_t index; (index = next.fetch_add(1)) < requests;) {
        Timer timer;
        issue(index);
        per_client[c].push_back(timer.elapsed_seconds());
      }
    });
  }
  for (auto& thread : threads) thread.join();
  std::vector<double> latencies;
  for (const auto& local : per_client) {
    latencies.insert(latencies.end(), local.begin(), local.end());
  }
  return latencies;
}

// ---- one model ----------------------------------------------------------------

struct ModeRow {
  std::string mode;
  Spread goodput{};                 ///< requests resolved with a value, per second
  std::vector<double> latencies{};  ///< seconds, every request of every run
  std::size_t resident_arena_bytes = 0;
  serve::metrics::ModelSnapshot stats{};  ///< pool modes: the fleet's counters
};

/// `config.repeats` closed-loop runs of `issue`, which returns whether its
/// request resolved with a value; each run's goodput is one sample.
template <typename Issue>
void closed_runs(const Config& config, ModeRow& row, Issue issue) {
  row.goodput = temco::bench::measure(0, config.repeats, [&] {
    std::atomic<std::size_t> succeeded{0};
    Timer wall;
    const auto latencies = closed_loop(config.requests, kModelClients, [&](std::size_t index) {
      if (issue(index)) succeeded.fetch_add(1, std::memory_order_relaxed);
    });
    const double elapsed = wall.elapsed_seconds();
    row.latencies.insert(row.latencies.end(), latencies.begin(), latencies.end());
    return static_cast<double>(succeeded.load()) / elapsed;
  });
  std::sort(row.latencies.begin(), row.latencies.end());
}

/// Two lanes, two sessions, a queue that never refuses a closed-loop client,
/// and self-clocking batching: coalesce whatever is already queued, never
/// idle waiting for stragglers, so batches ramp to the compiled ceiling on
/// their own.  With `faults`, every 100th request arms serve.exec_transient
/// for one hit: one retry absorbs most faults, bursts trip the breaker into
/// degraded mode, and a request whose fault outlived the retry budget
/// resolves with an error.
ModeRow run_pool(const char* mode, const ModelPtr& model, const Tensor& input,
                 const Config& config, bool faults) {
  serve::FleetOptions options;
  options.workers = 2;
  options.sessions_per_model = 2;
  options.queue_capacity = config.requests + kModelClients;
  options.max_batch_timeout = std::chrono::microseconds(0);
  if (faults) {
    options.max_retries = 1;
    options.retry_backoff = std::chrono::microseconds(50);
    options.breaker_threshold = 3;
    options.breaker_recovery = 4;
  }
  serve::FleetServer fleet(options);
  fleet.install(kModelName, model);
  ModeRow row{.mode = mode};
  closed_runs(config, row, [&](std::size_t index) {
    if (faults && index % 100 == 7) failpoints::arm("serve.exec_transient", 1);
    try {
      fleet.submit(kModelName, {input}).get();
      return true;
    } catch (const Error&) {
      if (!faults) throw;
      return false;
    }
  });
  failpoints::disarm_all();
  row.stats = fleet.snapshot().front();
  row.resident_arena_bytes = static_cast<std::size_t>(row.stats.arena_resident_bytes);
  return row;
}

std::vector<ModeRow> run_one_model(const ModelPtr& batched, const ModelPtr& unbatched,
                                   const Tensor& input, const Config& config) {
  // The naive baseline runs the same optimized batch-1 graph the fleet
  // compiled, so the comparison isolates serving mechanics.  Nothing
  // survives between its requests, but each client in flight holds a slab.
  const ir::Graph& graph = batched->graph(1);
  ModeRow naive{.mode = "naive"};
  naive.resident_arena_bytes =
      static_cast<std::size_t>(runtime::plan_arena(graph).arena_bytes) * kModelClients;
  closed_runs(config, naive, [&](std::size_t) {
    runtime::Executor executor(graph, {.use_arena = true});
    executor.run({input});
    return true;
  });
  return {std::move(naive), run_pool("pool", unbatched, input, config, false),
          run_pool("pool+batching", batched, input, config, false),
          run_pool("pool+faults", batched, input, config, true)};
}

// ---- fleet vs static partition ------------------------------------------------

/// One leg of one stack, accumulated over its runs.  A future resolving with
/// a value counts as goodput only if the value arrived inside the deadline;
/// a value after the deadline is the worst outcome: full cost, zero use.
class LegAccounting {
 public:
  /// Every issued request settles exactly once, in one of four outcomes.
  struct Model {
    std::size_t succeeded = 0, shed = 0, late = 0, late_value = 0;
    std::vector<double> latencies;  ///< seconds of the in-deadline values, sorted
    std::size_t issued() const { return succeeded + shed + late + late_value; }
    double ms(double p) const { return temco::bench::percentile(latencies, p) * 1e3; }
  };

  explicit LegAccounting(std::size_t n_models) : models_(n_models) {}

  void settle(std::size_t m, std::future<std::vector<Tensor>>& future, const Timer& timer,
              std::chrono::milliseconds deadline) {
    std::size_t Model::*outcome = &Model::shed;  // a typed rejection or failure
    double seconds = 0.0;
    try {
      future.get();
      seconds = timer.elapsed_seconds();
      outcome = seconds * 1e3 <= static_cast<double>(deadline.count()) ? &Model::succeeded
                                                                        : &Model::late_value;
    } catch (const DeadlineExceededError&) {
      outcome = &Model::late;
    } catch (const Error&) {
    }
    std::lock_guard<std::mutex> lock(mutex_);
    ++(models_[m].*outcome);
    if (outcome == &Model::succeeded) models_[m].latencies.push_back(seconds);
  }

  /// Runs one pass of the leg; returns its goodput, in-deadline values per
  /// second across all models.
  template <typename Body>
  double pass(Body body) {
    const std::size_t before = succeeded();
    Timer wall;
    body();
    const double elapsed = wall.elapsed_seconds();
    for (Model& model : models_) std::sort(model.latencies.begin(), model.latencies.end());
    return static_cast<double>(succeeded() - before) / elapsed;
  }

  const Model& model(std::size_t m) const { return models_[m]; }

  /// p99 over every in-deadline value of every model.
  double p99_ms() const {
    Model all;
    for (const Model& model : models_) {
      all.latencies.insert(all.latencies.end(), model.latencies.begin(), model.latencies.end());
    }
    std::sort(all.latencies.begin(), all.latencies.end());
    return all.ms(0.99);
  }

  Spread goodput;

 private:
  std::size_t succeeded() const {
    std::size_t total = 0;
    for (const Model& model : models_) total += model.succeeded;
    return total;
  }

  std::mutex mutex_;
  std::vector<Model> models_;
};

/// Open-loop lane: one issuer thread submits on a fixed arrival schedule
/// (`next += interval`, never waiting for responses); a collector thread
/// blocks on the oldest in-flight future, so latency is read when the
/// response lands, not when the next arrival polls.  Per-model batches
/// complete in queue order, which keeps oldest-first collection accurate.
struct OpenLoopLane {
  template <typename Submit>
  void start(std::size_t m, std::size_t count, std::chrono::microseconds interval,
             std::chrono::milliseconds deadline, LegAccounting& accounting, Submit submit) {
    issuer = std::thread([this, m, count, interval, deadline, submit] {
      auto next_arrival = std::chrono::steady_clock::now();
      for (std::size_t r = 0; r < count; ++r) {
        std::this_thread::sleep_until(next_arrival);
        next_arrival += interval;
        Pending pending{submit(m, deadline), Timer{}};
        {
          std::lock_guard<std::mutex> lock(mutex);
          queue.push_back(std::move(pending));
        }
        cv.notify_one();
      }
      {
        std::lock_guard<std::mutex> lock(mutex);
        done = true;
      }
      cv.notify_one();
    });
    collector = std::thread([this, m, deadline, &accounting] {
      for (;;) {
        Pending pending;
        {
          std::unique_lock<std::mutex> lock(mutex);
          cv.wait(lock, [this] { return !queue.empty() || done; });
          if (queue.empty()) return;
          pending = std::move(queue.front());
          queue.pop_front();
        }
        accounting.settle(m, pending.future, pending.timer, deadline);
      }
    });
  }

  void join() {
    issuer.join();
    collector.join();
  }

  struct Pending {
    std::future<std::vector<Tensor>> future;
    Timer timer;
  };
  std::deque<Pending> queue;
  std::mutex mutex;
  std::condition_variable cv;
  bool done = false;
  std::thread issuer, collector;
};

/// The serving plane under test: one shared fleet, or one fleet per model.
struct Stack {
  std::vector<std::unique_ptr<serve::FleetServer>> fleets;
  const std::vector<std::string>* names = nullptr;
  const std::vector<Tensor>* inputs = nullptr;

  /// Admission rejections (SloUnmeetableError, queue full) throw at submit;
  /// they become a ready exceptional future, so every request is accounted
  /// for through one path.
  std::future<std::vector<Tensor>> submit(std::size_t m, std::chrono::milliseconds deadline) {
    serve::FleetServer& fleet = *fleets[fleets.size() == 1 ? 0 : m];
    serve::SubmitOptions options;
    options.timeout = std::chrono::duration_cast<std::chrono::microseconds>(deadline);
    try {
      return fleet.submit((*names)[m], {(*inputs)[m]}, options);
    } catch (...) {
      std::promise<std::vector<Tensor>> promise;
      promise.set_exception(std::current_exception());
      return promise.get_future();
    }
  }
};

/// The shared fleet: the hot model carries the tight overload SLO, which
/// admission and the adaptive batcher steer by all run long, and paid for
/// more weight.  Or the static partition: the same aggregate resources, one
/// one-model fleet per model with its share of the workers, no predictive
/// admission, and a 200 us straggler window — a reasonable hand-tuned
/// single-tenant deployment per model.
Stack make_stack(bool shared, const std::vector<std::string>& names,
                 const std::vector<ModelPtr>& compiled, const std::vector<Tensor>& inputs) {
  serve::FleetOptions options;
  options.workers = shared ? kWorkers : std::max<std::size_t>(kWorkers / names.size(), 1);
  options.sessions_per_model = kSessionsPerModel;
  options.queue_capacity = kQueueCapacity;
  if (!shared) {
    options.max_batch_timeout = std::chrono::microseconds(200);
    options.slo_admission = false;
  }
  Stack stack{{}, &names, &inputs};
  for (std::size_t m = 0; m < names.size(); ++m) {
    if (!shared || m == 0) stack.fleets.push_back(std::make_unique<serve::FleetServer>(options));
    serve::FleetOptions::ModelSlo slo;
    slo.target_p99 = std::chrono::duration_cast<std::chrono::milliseconds>(
        m == 0 ? kTightDeadline : kGenerousDeadline);
    slo.weight = m == 0 ? 4.0 : 1.0;
    if (shared) {
      stack.fleets[0]->install(names[m], compiled[m], slo);
    } else {
      stack.fleets[m]->install(names[m], compiled[m]);
    }
  }
  return stack;
}

/// Starts a paced open-loop lane per cold model with generous deadlines.
void start_cold_lanes(Stack& stack, std::vector<OpenLoopLane>& lanes, std::size_t count,
                      LegAccounting& accounting) {
  for (std::size_t m = 1; m < lanes.size(); ++m) {
    lanes[m].start(m, count, std::chrono::duration_cast<std::chrono::microseconds>(kColdInterval),
                   kGenerousDeadline, accounting,
                   [&stack](std::size_t model, std::chrono::milliseconds deadline) {
                     return stack.submit(model, deadline);
                   });
  }
}

/// Closed leg: the hot model under closed-loop clients, cold models paced.
double run_closed_leg(Stack& stack, const Config& config, LegAccounting& accounting) {
  const std::size_t n_models = config.graphs.models.size();
  return accounting.pass([&] {
    std::vector<OpenLoopLane> lanes(n_models);
    start_cold_lanes(stack, lanes, kColdRequests, accounting);
    closed_loop(kHotRequests, kFleetClients, [&](std::size_t) {
      Timer timer;
      auto future = stack.submit(0, kGenerousDeadline);
      accounting.settle(0, future, timer, kGenerousDeadline);
    });
    for (std::size_t m = 1; m < n_models; ++m) lanes[m].join();
  });
}

/// Overload leg: open-loop arrivals on the hot model at kOverloadFactor x the
/// measured capacity with deadline == SLO; cold models keep their trickle.
double run_overload_leg(Stack& stack, const Config& config, double capacity_rps,
                        LegAccounting& accounting) {
  const std::size_t n_models = config.graphs.models.size();
  const double window_s = static_cast<double>(config.overload_ms) * 1e-3;
  const double arrival_rps = capacity_rps * kOverloadFactor;
  return accounting.pass([&] {
    std::vector<OpenLoopLane> lanes(n_models);
    lanes[0].start(0, static_cast<std::size_t>(window_s * arrival_rps),
                   std::chrono::microseconds(static_cast<std::int64_t>(1e6 / arrival_rps)),
                   kTightDeadline, accounting,
                   [&stack](std::size_t model, std::chrono::milliseconds deadline) {
                     return stack.submit(model, deadline);
                   });
    start_cold_lanes(stack, lanes,
                     static_cast<std::size_t>(
                         window_s / std::chrono::duration<double>(kColdInterval).count()),
                     accounting);
    for (auto& lane : lanes) lane.join();
  });
}

struct StackResult {
  LegAccounting closed, overload;
  std::string metrics_json;  ///< the shared fleet's own export, last run
};

/// Both legs on a fresh stack per run, `config.repeats` runs.
void run_stack(const Config& config, const std::vector<ModelPtr>& compiled,
               const std::vector<Tensor>& inputs, double capacity_rps, bool shared,
               StackResult& result) {
  std::vector<double> closed;
  result.overload.goodput = temco::bench::measure(0, config.repeats, [&] {
    Stack stack = make_stack(shared, config.graphs.models, compiled, inputs);
    closed.push_back(run_closed_leg(stack, config, result.closed));
    if (shared) {
      // The strict-SLO rule: an accepted request never resolves with a value
      // past its deadline, so admission let in only what it could serve.
      for (const auto& snapshot : stack.fleets[0]->snapshot()) {
        TEMCO_CHECK(snapshot.value_past_deadline == 0)
            << snapshot.name << ": " << snapshot.value_past_deadline
            << " accepted requests finished past their deadline in the closed leg";
      }
    }
    const double goodput = run_overload_leg(stack, config, capacity_rps, result.overload);
    if (shared) result.metrics_json = stack.fleets[0]->metrics_json();
    return goodput;
  });
  result.closed.goodput = temco::bench::summarize(std::move(closed));
}

/// Single-tenant capacity of this host: closed-loop clients on the hot model
/// alone, one warm-up and kRepeats runs of kHotRequests on one fleet.  The
/// overload rate is set off the median, so the bench scales to any host.
Spread measure_capacity(const ModelPtr& hot, const Tensor& input) {
  serve::FleetOptions options;
  options.workers = kWorkers;
  options.sessions_per_model = kSessionsPerModel;
  options.queue_capacity = kQueueCapacity;
  serve::FleetServer fleet(options);
  fleet.install(kModelName, hot);
  return temco::bench::measure(1, temco::bench::kRepeats, [&] {
    Timer wall;
    closed_loop(kHotRequests, kFleetClients,
                [&](std::size_t) { fleet.submit(kModelName, {input}).get(); });
    return static_cast<double>(kHotRequests) / wall.elapsed_seconds();
  });
}

// ---- cold start ---------------------------------------------------------------

struct ColdStart {
  Spread compile_s, load_s;
  std::uintmax_t artifact_bytes = 0;
};

ColdStart run_cold_start(const ir::Graph& original, const Config& config,
                         const std::string& name) {
  const std::string path = "BENCH_artifact_" + name + ".tmp";
  serve::CompileOptions options;
  options.max_batch = kFleetMaxBatch;
  ModelPtr compiled;
  ColdStart result;
  result.compile_s = temco::bench::measure(0, config.repeats, [&] {
    Timer timer;
    compiled = serve::CompiledModel::compile(
        temco::bench::decomposed_baseline(original, config.graphs), options);
    return timer.elapsed_seconds();
  });
  compiled->save(path);
  result.load_s = temco::bench::measure(0, config.repeats, [&] {
    Timer timer;
    const auto loaded = serve::CompiledModel::load(path);
    const double seconds = timer.elapsed_seconds();
    TEMCO_CHECK(loaded->max_batch() == compiled->max_batch()) << "artifact dropped variants";
    return seconds;
  });
  result.artifact_bytes = std::filesystem::file_size(path);
  std::filesystem::remove(path);
  return result;
}

// ---- the bitwise check and the report -----------------------------------------

/// A lone fleet's answer for each artifact must be the naive Executor's bytes.
void check_bitwise(const std::string& name, const ir::Graph& naive_graph,
                   const std::vector<ModelPtr>& models, const Tensor& input) {
  runtime::Executor naive(naive_graph, {.use_arena = true});
  const auto want = naive.run({input}).outputs;
  for (const ModelPtr& model : models) {
    serve::FleetOptions options;
    options.workers = 1;
    options.sessions_per_model = 1;
    serve::FleetServer fleet(options);
    fleet.install(kModelName, model);
    TEMCO_CHECK(temco::bench::bitwise_equal(fleet.submit(kModelName, {input}).get(), want))
        << name << ": the max_batch " << model->max_batch()
        << " artifact's output is not bit-identical to the naive executor";
  }
}

struct ModelReport {
  std::string model;
  std::vector<ModeRow> modes;
  ColdStart cold_start;
};

/// One leg of one stack, for the report.
struct Leg {
  const char* stack;
  const char* leg;
  LegAccounting& accounting;
};

std::string ms(const Spread& seconds) { return temco::bench::spread_json(seconds, 1e3); }

void write_json(const Config& config, const std::vector<ModelReport>& reports,
                const Spread& capacity, const std::vector<Leg>& legs, const StackResult& fleet,
                const StackResult& statics) {
  std::FILE* f = std::fopen(config.json.c_str(), "w");
  TEMCO_CHECK(f != nullptr) << "cannot open " << config.json << " for writing";
  std::fprintf(f,
               "{\n  \"bench\": \"serving\",\n  \"host\": %s,\n"
               "  \"method\": \"%zu runs per point, median and quartiles; latency percentiles "
               "over every request of every run\",\n"
               "  \"width\": %g,\n  \"image\": %lld,\n  \"ratio\": %g,\n  \"requests\": %zu,\n"
               "  \"one_model\": {\"clients\": %zu, \"rows\": [",
               temco::bench::host_json().c_str(), config.repeats, config.graphs.width,
               static_cast<long long>(config.graphs.image), config.graphs.ratio,
               config.requests, kModelClients);
  const char* sep = "\n";
  for (const ModelReport& report : reports) {
    for (const ModeRow& row : report.modes) {
      const auto& s = row.stats;
      std::fprintf(f,
                   "%s    {\"model\": \"%s\", \"mode\": \"%s\", \"goodput_per_second\": %s, "
                   "\"p50_ms\": %.3f, \"p99_ms\": %.3f, \"resident_arena_bytes\": %zu, "
                   "\"batches\": %llu, \"max_batch_seen\": %llu, \"failed\": %llu, "
                   "\"retries\": %llu, \"degraded_batches\": %llu, \"breaker_trips\": %llu}",
                   sep, report.model.c_str(), row.mode.c_str(),
                   temco::bench::spread_json(row.goodput, 1.0).c_str(),
                   temco::bench::percentile(row.latencies, 0.50) * 1e3,
                   temco::bench::percentile(row.latencies, 0.99) * 1e3, row.resident_arena_bytes,
                   static_cast<unsigned long long>(s.batches),
                   static_cast<unsigned long long>(s.max_batch_seen),
                   static_cast<unsigned long long>(s.failed),
                   static_cast<unsigned long long>(s.retries),
                   static_cast<unsigned long long>(s.degraded_batches),
                   static_cast<unsigned long long>(s.breaker_trips));
      sep = ",\n";
    }
  }
  std::fprintf(f,
               "\n  ]},\n  \"fleet\": {\"workers\": %zu, \"sessions_per_model\": %zu, "
               "\"queue_capacity\": %zu, \"clients\": %zu, \"hot_requests\": %zu, "
               "\"cold_requests\": %zu, \"capacity_rps\": %s, \"overload_factor\": %.2f, "
               "\"closed_deadline_ms\": %lld, \"overload_deadline_ms\": %lld, \"legs\": [",
               kWorkers, kSessionsPerModel, kQueueCapacity, kFleetClients, kHotRequests,
               kColdRequests,
               temco::bench::spread_json(capacity, 1.0).c_str(), kOverloadFactor,
               static_cast<long long>(kGenerousDeadline.count()),
               static_cast<long long>(kTightDeadline.count()));
  sep = "\n";
  for (const Leg& leg : legs) {
    std::fprintf(f,
                 "%s    {\"stack\": \"%s\", \"leg\": \"%s\", \"goodput_per_second\": %s, "
                 "\"p99_ms\": %.3f, \"models\": [",
                 sep, leg.stack, leg.leg,
                 temco::bench::spread_json(leg.accounting.goodput, 1.0).c_str(),
                 leg.accounting.p99_ms());
    for (std::size_t m = 0; m < reports.size(); ++m) {
      const auto& row = leg.accounting.model(m);
      std::fprintf(f,
                   "%s\n      {\"model\": \"%s\", \"role\": \"%s\", \"issued\": %zu, "
                   "\"succeeded\": %zu, \"shed\": %zu, \"late\": %zu, \"late_value\": %zu, "
                   "\"p50_ms\": %.3f, \"p99_ms\": %.3f}",
                   m == 0 ? "" : ",", reports[m].model.c_str(), m == 0 ? "hot" : "cold",
                   row.issued(), row.succeeded, row.shed, row.late, row.late_value, row.ms(0.50),
                   row.ms(0.99));
    }
    std::fprintf(f, "]}");
    sep = ",\n";
  }
  std::fprintf(f,
               "\n  ], \"overload_goodput_ratio\": %.3f, \"overload_late_values\": "
               "{\"fleet\": %zu, \"static\": %zu}, \"closed_value_past_deadline\": 0,\n"
               "  \"metrics\": %s},\n  \"cold_start\": [",
               fleet.overload.goodput.median / statics.overload.goodput.median,
               fleet.overload.model(0).late_value, statics.overload.model(0).late_value,
               fleet.metrics_json.c_str());
  sep = "\n";
  for (const ModelReport& report : reports) {
    const ColdStart& cs = report.cold_start;
    std::fprintf(f,
                 "%s    {\"model\": \"%s\", \"compile_ms\": %s, \"load_ms\": %s, "
                 "\"artifact_bytes\": %ju, \"speedup\": %.2f}",
                 sep, report.model.c_str(), ms(cs.compile_s).c_str(), ms(cs.load_s).c_str(),
                 cs.artifact_bytes, cs.compile_s.median / cs.load_s.median);
    sep = ",\n";
  }
  std::fprintf(f, "\n  ]\n}\n");
  std::fclose(f);
  std::printf("wrote %s\n", config.json.c_str());
}

/// Prints the fleet's and the static partition's runs of one leg.
void print_leg(const std::vector<std::string>& names, const Leg& fleet, const Leg& statics) {
  std::printf("\n--- %s leg ---\n", fleet.leg);
  std::printf("%-14s %-7s %-5s %8s %8s %6s %6s %8s %9s %9s\n", "model", "stack", "role",
              "issued", "ok", "shed", "late", "lateval", "p50", "p99");
  for (const Leg& leg : {fleet, statics}) {
    for (std::size_t m = 0; m < names.size(); ++m) {
      const auto& row = leg.accounting.model(m);
      std::printf("%-14s %-7s %-5s %8zu %8zu %6zu %6zu %8zu %7.2fms %7.2fms\n",
                  names[m].c_str(), leg.stack, m == 0 ? "hot" : "cold", row.issued(),
                  row.succeeded, row.shed, row.late, row.late_value, row.ms(0.50), row.ms(0.99));
    }
  }
  const Spread& f = fleet.accounting.goodput;
  const Spread& s = statics.accounting.goodput;
  std::printf("goodput: fleet %.1f [%.1f, %.1f] req/s vs static %.1f [%.1f, %.1f] req/s "
              "(%.2fx); p99 %.2fms vs %.2fms\n",
              f.median, f.q1, f.q3, s.median, s.q1, s.q3, f.median / s.median,
              fleet.accounting.p99_ms(), statics.accounting.p99_ms());
}

}  // namespace

int main(int argc, char** argv) {
  const Config config = parse(argc, argv);
  const auto& names = config.graphs.models;
  std::printf("=== Serving: naive vs session pool vs micro-batching; shared fleet vs static "
              "partition; cold start ===\n");
  std::printf("(%zu models, width %.3g, image %lld, Tucker ratio %.2g; %zu requests per run, "
              "%zu runs per point)\n\n",
              names.size(), config.graphs.width, static_cast<long long>(config.graphs.image),
              config.graphs.ratio, config.requests, config.repeats);
  std::printf("%-12s %-14s %10s %9s %9s %12s %8s\n", "model", "mode", "goodput/s", "p50", "p99",
              "arena", "speedup");

  std::vector<ModelReport> reports;
  std::vector<ModelPtr> fleet_models;
  std::vector<Tensor> inputs;
  std::vector<double> speedups;
  for (const std::string& name : names) {
    const auto& spec = models::find_model(name);
    const auto original = spec.build(temco::bench::model_config(config.graphs, spec));
    const auto decomposed = temco::bench::decomposed_baseline(original, config.graphs);
    // Closed-loop clients bound the attainable batch, so the batching
    // artifact's ceiling is the client count: full batches dispatch at once
    // instead of waiting for stragglers that cannot exist.
    auto compile = [&](std::size_t max_batch) {
      serve::CompileOptions options;
      options.max_batch = max_batch;
      return serve::CompiledModel::compile(decomposed, options);
    };
    const ModelPtr batched = compile(kModelClients);
    const ModelPtr unbatched = compile(1);
    fleet_models.push_back(compile(kFleetMaxBatch));
    inputs.push_back(temco::bench::random_input(batched->graph(1), 1234));
    check_bitwise(name, batched->graph(1), {batched, unbatched, fleet_models.back()},
                  inputs.back());

    ModelReport report{name, run_one_model(batched, unbatched, inputs.back(), config), {}};
    const double naive = report.modes[0].goodput.median;
    for (const ModeRow& row : report.modes) {
      std::printf("%-12s %-14s %10.1f %7.2fms %7.2fms %10.1fKiB %7.2fx\n", name.c_str(),
                  row.mode.c_str(), row.goodput.median,
                  temco::bench::percentile(row.latencies, 0.50) * 1e3,
                  temco::bench::percentile(row.latencies, 0.99) * 1e3,
                  static_cast<double>(row.resident_arena_bytes) / 1024.0,
                  row.goodput.median / naive);
    }
    speedups.push_back(report.modes[2].goodput.median / naive);
    report.cold_start = run_cold_start(original, config, name);
    reports.push_back(std::move(report));
  }
  std::printf("\ngeomean pool+batching speedup over naive: %.2fx (target: >= 2x)\n",
              temco::bench::geomean(speedups));

  const Spread capacity = measure_capacity(fleet_models[0], inputs[0]);
  const double capacity_rps = capacity.median;
  std::printf("\n=== Fleet: shared fair-share pool vs %zu static one-model fleets ===\n"
              "(hot %s: %zu requests x %zu clients; cold @ %lldms; overload %.1fx of the "
              "measured %.1f [%.1f, %.1f] req/s for %zums)\n",
              names.size(), names[0].c_str(), kHotRequests, kFleetClients,
              static_cast<long long>(kColdInterval.count()), kOverloadFactor, capacity_rps,
              capacity.q1, capacity.q3, config.overload_ms);
  const std::size_t n_models = names.size();
  StackResult fleet{LegAccounting(n_models), LegAccounting(n_models), {}};
  StackResult statics{LegAccounting(n_models), LegAccounting(n_models), {}};
  run_stack(config, fleet_models, inputs, capacity_rps, true, fleet);
  run_stack(config, fleet_models, inputs, capacity_rps, false, statics);
  const std::vector<Leg> legs = {{"fleet", "closed", fleet.closed},
                                 {"fleet", "overload", fleet.overload},
                                 {"static", "closed", statics.closed},
                                 {"static", "overload", statics.overload}};
  print_leg(names, legs[0], legs[2]);
  print_leg(names, legs[1], legs[3]);
  std::printf("\nstrict-SLO: 0 accepted requests resolved past deadline in the closed leg "
              "(asserted); late values delivered under overload: fleet %zu vs static %zu\n",
              fleet.overload.model(0).late_value, statics.overload.model(0).late_value);

  std::printf("\n=== Cold start: compile-at-boot vs artifact load ===\n");
  std::printf("%-12s %12s %12s %12s %9s\n", "model", "compile", "load", "artifact", "speedup");
  std::vector<double> cold_speedups;
  for (const ModelReport& report : reports) {
    const ColdStart& cs = report.cold_start;
    cold_speedups.push_back(cs.compile_s.median / cs.load_s.median);
    std::printf("%-12s %10.2fms %10.2fms %10.1fKiB %8.1fx\n", report.model.c_str(),
                1e3 * cs.compile_s.median, 1e3 * cs.load_s.median,
                static_cast<double>(cs.artifact_bytes) / 1024.0, cold_speedups.back());
  }
  std::printf("geomean artifact cold-start speedup: %.1fx (target: >= 10x)\n",
              temco::bench::geomean(cold_speedups));

  if (!config.json.empty()) write_json(config, reports, capacity, legs, fleet, statics);
  return 0;
}
