// Open-loop fleet serving workloads.
//
// One FleetServer (2 workers, 2 sessions per model, batches up to 8,
// intra-op width 1) serves resnet18 and densenet121 at width 0.125 and image
// 16, where dispatch and queueing are a visible share of every request.  One
// issuer thread sends Poisson arrivals at a fixed absolute rate — 80% to
// resnet18, 20% to densenet121, inputs drawn from 16 seeded tensors per
// model — and one collector thread per model resolves the futures (per-model
// batches finish in queue order, so oldest-first collection reads each
// latency when it lands).  Latency is timed from each request's due time,
// so a stalled issuer charges its lateness to the requests it delays.
//
// The rates are fixed, never calibrated against the host: a faster commit
// must see the same offered load as its parent.
#include <algorithm>
#include <cmath>
#include <condition_variable>
#include <deque>
#include <filesystem>
#include <fstream>
#include <future>
#include <memory>
#include <thread>

#if defined(__linux__)
#include <sys/prctl.h>
#endif

#include "bench.hpp"
#include "models/zoo.hpp"
#include "runtime/executor.hpp"
#include "serve/compiled_model.hpp"
#include "serve/fleet.hpp"
#include "serve/session.hpp"

namespace temco::bench {

namespace metrics = serve::metrics;

namespace {

struct Tenant {
  const char* name;
  double share;
};
constexpr Tenant kTenants[] = {{"resnet18", 0.8}, {"densenet121", 0.2}};
constexpr std::size_t kNumTenants = 2;
constexpr double kWidth = 0.125;
constexpr std::int64_t kImage = 16;
constexpr int kInputsPerModel = 16;
constexpr std::size_t kWorkers = 2;
constexpr std::size_t kSessionsPerModel = 2;
constexpr std::size_t kMaxBatch = 8;
constexpr double kRampSeconds = 2.0;
constexpr int kSetups = 5;  ///< the first set-up in a process runs slow; the median skips it
constexpr int kSessionRuns = 21;

/// A window is cut into slices of kSliceSeconds by request due time, and
/// its latencies and goodput are medians over slices of each slice's
/// statistic.  The shared host this benchmark was sized on takes CPU time
/// from this guest in bursts: its vCPUs stop for 10-60 ms, and in busy hours
/// the hypervisor runs other guests on them for up to a third of the time
/// (the `steal` column of /proc/stat).  A stall lifts its slice's p99 past
/// 10 ms.  So the medians are taken over the slices in which the host stole
/// no more than in the median slice: every slice on a quiet host, the
/// less-stolen half on a busy one.
constexpr double kSliceSeconds = 0.2;

/// CPU time the hypervisor gave to others while this guest's vCPUs were
/// runnable, summed over vCPUs, in clock ticks; 0 where /proc/stat has no
/// steal column.
long steal_ticks() {
  std::ifstream stat("/proc/stat");
  std::string cpu;
  long fields[8] = {};
  stat >> cpu;
  for (long& field : fields) stat >> field;
  return fields[7];
}

/// Samples of one window, split by slice.
using Sliced = std::vector<std::vector<double>>;

/// Median over the non-empty slices of each slice's q-quantile.
double sliced_quantile(const Sliced& slices, double q) {
  std::vector<double> per_slice;
  for (const std::vector<double>& slice : slices) {
    if (!slice.empty()) per_slice.push_back(quantile(slice, q));
  }
  return median(per_slice);
}

double ms_between(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double, std::milli>(to - from).count();
}

using ModelPtr = std::shared_ptr<const serve::CompiledModel>;

serve::FleetOptions fleet_options() {
  serve::FleetOptions options;
  options.workers = kWorkers;
  options.sessions_per_model = kSessionsPerModel;
  return options;
}

serve::CompileOptions compile_options() {
  serve::CompileOptions options;
  options.max_batch = kMaxBatch;
  options.intra_op_threads = kIntraOpThreads;
  return options;
}

struct ServeSetup {
  std::vector<std::unique_ptr<ir::Graph>> decomposed;
  std::vector<double> decompose_s;
  std::vector<ModelPtr> compiled;
  std::vector<std::string> artifacts;
  std::vector<Tensor> first_inputs;  ///< one per model, for the first response
  double seconds = 0.0;
};

/// Installs both artifacts on a fresh fleet and waits for one response from
/// each, checked against `want` when given; returns the fleet ready to serve.
std::unique_ptr<serve::FleetServer> cold_start(const ServeSetup& setup, int deadline_ms,
                                               const std::vector<std::vector<Tensor>>& want,
                                               Result& result) {
  auto fleet = std::make_unique<serve::FleetServer>(fleet_options());
  for (std::size_t t = 0; t < kNumTenants; ++t) {
    ScopedSpan span("serve.install_file", kTenants[t].name);
    fleet->install_file(kTenants[t].name, setup.artifacts[t],
                        {std::chrono::milliseconds(deadline_ms), 1.0});
  }
  for (std::size_t t = 0; t < kNumTenants; ++t) {
    ScopedSpan span("serve.first_response", kTenants[t].name);
    const std::vector<Tensor> got = fleet->submit(kTenants[t].name, {setup.first_inputs[t]}).get();
    ++result.attempted;
    if (!want.empty() && !same_bytes(got, want[t])) {
      result.fail(std::string(kTenants[t].name) + ": first response differs from the reference");
    }
  }
  return fleet;
}

/// Zoo graph -> decomposition -> CompiledModel -> artifact file -> fresh
/// fleet with both models installed and answering.
ServeSetup set_up(const Options& options, int deadline_ms, int index, Result& result) {
  ScopedSpan setup_span("bench.setup", std::to_string(index));
  SteadyStopwatch stopwatch;
  ServeSetup setup;
  std::filesystem::create_directories(options.scratch);
  BenchConfig bench;  // Tucker ratio 0.1, zoo seed 42
  bench.width = kWidth;
  bench.image = kImage;
  bench.batch = 1;
  for (const Tenant& tenant : kTenants) {
    const models::ModelSpec& spec = models::find_model(tenant.name);
    const ir::Graph original = [&] {
      ScopedSpan span("models.build", tenant.name);
      return spec.build(model_config(bench, spec));
    }();
    const Clock::time_point step = Clock::now();
    setup.decomposed.push_back(std::make_unique<ir::Graph>([&] {
      ScopedSpan span("decomp.decompose", tenant.name);
      return decomposed_baseline(original, bench);
    }()));
    setup.decompose_s.push_back(seconds_since(step));
    setup.compiled.push_back([&] {
      ScopedSpan span("serve.compile", tenant.name);
      return serve::CompiledModel::compile(*setup.decomposed.back(), compile_options());
    }());
    setup.artifacts.push_back(options.scratch + "/" + tenant.name + ".tmco");
    {
      ScopedSpan span("serve.save", tenant.name);
      setup.compiled.back()->save(setup.artifacts.back());
    }
    Rng rng(options.seed * 7919 + setup.first_inputs.size());
    setup.first_inputs.push_back(Tensor::random_normal(setup.compiled.back()->input_shape(0), rng));
    stopwatch.lap();
  }
  cold_start(setup, deadline_ms, {}, result)->shutdown(true);
  stopwatch.lap();
  setup.seconds = stopwatch.seconds();
  return setup;
}

// ---- the open-loop generator ------------------------------------------------

struct Arrival {
  double offset_s;  ///< due time after the start of the schedule
  std::uint8_t tenant;
  std::uint8_t input;
};

std::vector<Arrival> poisson_schedule(std::uint64_t seed, double rate, double seconds) {
  Rng rng(seed * 0x9e3779b97f4a7c15ull + 17);
  std::vector<Arrival> arrivals;
  arrivals.reserve(static_cast<std::size_t>(rate * seconds * 1.1) + 16);
  for (double t = 0.0;;) {
    t += -std::log(1.0 - static_cast<double>(rng.uniform())) / rate;
    if (t >= seconds) break;
    const std::uint8_t tenant = rng.uniform() < kTenants[0].share ? 0 : 1;
    arrivals.push_back({t, tenant, static_cast<std::uint8_t>(rng.below(kInputsPerModel))});
  }
  return arrivals;
}

enum class Outcome : std::uint8_t { kOk, kLateValue, kLateError, kShed, kFailed };

struct Pending {
  std::size_t index = 0;
  Clock::time_point due, submitted;
  std::future<std::vector<Tensor>> future;  ///< invalid when submit refused
};

/// One model's collector: futures arrive in submit order and resolve in
/// queue order.
struct Collector {
  std::mutex mutex;
  std::condition_variable cv;
  std::deque<Pending> queue;  ///< guarded by mutex
  bool done = false;          ///< guarded by mutex
};

/// Every measured request, by the slice it was due in, charged with its
/// latency from the due time.  A miss (shed at submit, late value,
/// DeadlineExceededError, failure) always lands past its deadline, so misses
/// push every percentile up rather than leaving the sample: a late one
/// counts its real latency, a refusal the deadline plus its time in
/// submit().
struct LoadStats {
  double slice_s = 0.0;                ///< length of one slice
  Sliced slice_ms;                     ///< kept slices only (see kSliceSeconds)
  std::vector<std::size_t> ok_per_slice;  ///< kept slices only
  std::size_t slices = 0;              ///< before the stolen ones were dropped
  long steal_ticks = 0;                ///< over the window
  std::vector<double> client_ms;       ///< ok requests, from submit()
  std::vector<double> submit_us;       ///< every measured submit() call
  std::vector<double> lag_ms;          ///< issuer lateness against the schedule
  std::size_t counts[5] = {};          ///< by Outcome, measured window only
  metrics::ModelSnapshot delta;        ///< server counters over the window, models merged
};

metrics::LatencyHistogram::Snapshot hist_delta(const metrics::LatencyHistogram::Snapshot& end,
                                               const metrics::LatencyHistogram::Snapshot& begin) {
  metrics::LatencyHistogram::Snapshot d = end;
  for (std::size_t b = 0; b < d.counts.size(); ++b) d.counts[b] -= begin.counts[b];
  d.count -= begin.count;
  d.sum_us -= begin.sum_us;
  return d;
}

void merge(metrics::LatencyHistogram::Snapshot& into,
           const metrics::LatencyHistogram::Snapshot& part) {
  for (std::size_t b = 0; b < into.counts.size(); ++b) into.counts[b] += part.counts[b];
  into.count += part.count;
  into.sum_us += part.sum_us;
  into.max_us = std::max(into.max_us, part.max_us);
}

/// Server-side counters over the measured window, both models merged.
metrics::ModelSnapshot window_delta(const std::vector<metrics::ModelSnapshot>& begin,
                                    const std::vector<metrics::ModelSnapshot>& end) {
  metrics::ModelSnapshot total;
  for (const metrics::ModelSnapshot& e : end) {
    const metrics::ModelSnapshot* b = nullptr;
    for (const metrics::ModelSnapshot& candidate : begin) {
      if (candidate.name == e.name) b = &candidate;
    }
    const metrics::ModelSnapshot zero;
    if (b == nullptr) b = &zero;
    total.rejected_slo += e.rejected_slo - b->rejected_slo;
    total.value_past_deadline += e.value_past_deadline - b->value_past_deadline;
    total.batches += e.batches - b->batches;
    total.batched_requests += e.batched_requests - b->batched_requests;
    merge(total.latency, hist_delta(e.latency, b->latency));
    merge(total.queue_wait, hist_delta(e.queue_wait, b->queue_wait));
    merge(total.exec, hist_delta(e.exec, b->exec));
  }
  return total;
}

/// Drives `fleet` with the seeded schedule for ramp + seconds; only requests
/// due after the ramp are counted.  Request spans are recorded for at most
/// ~20k requests so a traced run stays small.
LoadStats drive(serve::FleetServer& fleet, const Options& options, double rate, double seconds,
                int deadline_ms, const std::vector<std::vector<Tensor>>& inputs,
                const std::vector<std::vector<std::vector<Tensor>>>& want, bool traced,
                Result& result) {
  const double ramp = options.quick ? 0.2 : kRampSeconds;
  const std::vector<Arrival> arrivals = poisson_schedule(options.seed, rate, ramp + seconds);
  const std::size_t span_every =
      std::max<std::size_t>(1, arrivals.size() / 20000);
  const auto deadline = std::chrono::milliseconds(deadline_ms);
  LoadStats stats;
  const std::size_t slices =
      std::max<std::size_t>(1, static_cast<std::size_t>(std::lround(seconds / kSliceSeconds)));
  stats.slices = slices;
  stats.slice_s = seconds / static_cast<double>(slices);
  stats.slice_ms.resize(slices);
  stats.ok_per_slice.resize(slices, 0);
  const auto slice_of = [&](std::size_t i) {
    return std::min(slices - 1, static_cast<std::size_t>(
                                    std::max(0.0, arrivals[i].offset_s - ramp) / stats.slice_s));
  };
  std::vector<long> steal_at(slices + 1, 0);  ///< when each slice began, and at the end
  std::vector<Outcome> outcome(arrivals.size(), Outcome::kOk);
  std::vector<double> latency(arrivals.size(), 0.0), client(arrivals.size(), 0.0);
  std::vector<Collector> collectors(kNumTenants);
  std::vector<metrics::ModelSnapshot> begin_snapshot;

  const auto measured = [&](std::size_t i) { return arrivals[i].offset_s >= ramp; };
  const auto collect = [&](std::size_t t) {
    Collector& c = collectors[t];
    for (;;) {
      Pending p;
      {
        std::unique_lock<std::mutex> lock(c.mutex);
        c.cv.wait(lock, [&] { return !c.queue.empty() || c.done; });
        if (c.queue.empty()) return;
        p = std::move(c.queue.front());
        c.queue.pop_front();
      }
      if (!p.future.valid()) continue;  // refused at submit; already classified
      const Arrival& a = arrivals[p.index];
      try {
        const std::vector<Tensor> got = p.future.get();
        const Clock::time_point now = Clock::now();
        latency[p.index] = ms_between(p.due, now);
        client[p.index] = ms_between(p.submitted, now);
        if (!same_bytes(got, want[t][a.input])) {
          outcome[p.index] = Outcome::kFailed;
        } else {
          outcome[p.index] = now - p.due <= deadline ? Outcome::kOk : Outcome::kLateValue;
        }
        if (traced && p.index % span_every == 0) {
          Tracer::active()->record("serve.request", std::to_string(p.index), p.due, now);
        }
      } catch (const DeadlineExceededError&) {
        latency[p.index] = ms_between(p.due, Clock::now());
        outcome[p.index] = Outcome::kLateError;
      } catch (const std::exception&) {
        latency[p.index] = ms_between(p.due, Clock::now());
        outcome[p.index] = Outcome::kFailed;
      }
    }
  };
  std::vector<std::thread> collector_threads;
  for (std::size_t t = 0; t < kNumTenants; ++t) collector_threads.emplace_back(collect, t);

  std::thread issuer([&] {
#if defined(__linux__)
    prctl(PR_SET_TIMERSLACK, 1UL);  // sleep_until to the microsecond, not +50 us
#endif
    const Clock::time_point t0 = Clock::now() + std::chrono::milliseconds(5);
    bool in_window = false;
    std::size_t next_slice = 0;
    for (std::size_t i = 0; i < arrivals.size(); ++i) {
      const Arrival& a = arrivals[i];
      const Clock::time_point due = t0 + to_duration(a.offset_s);
      std::this_thread::sleep_until(due);
      if (!in_window && measured(i)) {
        in_window = true;
        begin_snapshot = fleet.snapshot();
      }
      if (measured(i)) {
        while (next_slice <= slice_of(i)) steal_at[next_slice++] = steal_ticks();
      }
      Pending p;
      p.index = i;
      p.due = due;
      p.submitted = Clock::now();
      try {
        serve::SubmitOptions submit;
        submit.deadline = due + deadline;
        p.future = fleet.submit(kTenants[a.tenant].name, {inputs[a.tenant][a.input]}, submit);
      } catch (const SloUnmeetableError&) {
        outcome[i] = Outcome::kShed;
      } catch (const ResourceExhaustedError&) {
        outcome[i] = Outcome::kShed;
      } catch (const DeadlineExceededError&) {
        outcome[i] = Outcome::kShed;
      } catch (const std::exception&) {
        outcome[i] = Outcome::kFailed;
      }
      const Clock::time_point after = Clock::now();
      if (!p.future.valid()) latency[i] = ms_between(due, after);
      if (measured(i)) {
        stats.submit_us.push_back(
            std::chrono::duration<double, std::micro>(after - p.submitted).count());
        stats.lag_ms.push_back(ms_between(due, p.submitted));
      }
      if (traced && i % span_every == 0) {
        Tracer::active()->record("serve.submit", std::to_string(i), p.submitted, after);
      }
      Collector& c = collectors[a.tenant];
      {
        std::lock_guard<std::mutex> lock(c.mutex);
        c.queue.push_back(std::move(p));
      }
      c.cv.notify_one();
    }
    while (next_slice <= slices) steal_at[next_slice++] = steal_ticks();
    for (Collector& c : collectors) {
      {
        std::lock_guard<std::mutex> lock(c.mutex);
        c.done = true;
      }
      c.cv.notify_one();
    }
  });
  issuer.join();
  for (std::thread& t : collector_threads) t.join();
  stats.delta = window_delta(begin_snapshot, fleet.snapshot());

  for (std::size_t i = 0; i < arrivals.size(); ++i) {
    if (!measured(i)) continue;
    ++result.attempted;
    ++stats.counts[static_cast<std::size_t>(outcome[i])];
    if (outcome[i] == Outcome::kFailed) {
      result.fail("request " + std::to_string(i) + " (" + kTenants[arrivals[i].tenant].name +
                  "): wrong value or untyped error");
    }
    const std::size_t slice = slice_of(i);
    if (outcome[i] == Outcome::kOk) {
      stats.slice_ms[slice].push_back(latency[i]);
      ++stats.ok_per_slice[slice];
      stats.client_ms.push_back(client[i]);
    } else {
      stats.slice_ms[slice].push_back(latency[i] > deadline_ms ? latency[i]
                                                               : deadline_ms + latency[i]);
    }
  }

  // Keep the slices in which the host stole no more than in the median one.
  std::vector<double> stolen;
  for (std::size_t s = 0; s < slices; ++s) {
    stolen.push_back(static_cast<double>(steal_at[s + 1] - steal_at[s]));
  }
  const double most = median(stolen);
  Sliced kept_ms;
  std::vector<std::size_t> kept_ok;
  for (std::size_t s = 0; s < slices; ++s) {
    if (stolen[s] > most) continue;
    kept_ms.push_back(std::move(stats.slice_ms[s]));
    kept_ok.push_back(stats.ok_per_slice[s]);
  }
  stats.slice_ms = std::move(kept_ms);
  stats.ok_per_slice = std::move(kept_ok);
  stats.steal_ticks = steal_at[slices] - steal_at[0];
  return stats;
}

}  // namespace

void run_serving(const Options& options, double rate, int deadline_ms, Result& result) {
  const int setups = options.trace || options.quick ? 1 : kSetups;
  std::vector<double> setup_s;
  ServeSetup setup;
  for (int i = 0; i < setups; ++i) {
    setup = ServeSetup{};
    setup = set_up(options, deadline_ms, i, result);
    setup_s.push_back(setup.seconds);
  }

  // References: a lone arena Executor per model on each of its 16 inputs.
  std::vector<std::vector<Tensor>> inputs(kNumTenants);
  std::vector<std::vector<std::vector<Tensor>>> want(kNumTenants);
  std::vector<std::vector<Tensor>> first_want;
  for (std::size_t t = 0; t < kNumTenants; ++t) {
    const serve::CompiledModel& model = *setup.compiled[t];
    runtime::Executor reference(model.graph(1), {.use_arena = true});
    for (int k = 0; k < kInputsPerModel; ++k) {
      Rng rng(options.seed * 1000003 + t * 1009 + static_cast<std::uint64_t>(k));
      inputs[t].push_back(Tensor::random_normal(model.input_shape(0), rng));
      want[t].push_back(reference.run({inputs[t].back()}).outputs);
    }
    first_want.push_back(reference.run({setup.first_inputs[t]}).outputs);
  }
  if (options.corrupt_reference) want[0][0][0][0] += 1.0f;

  if (options.trace) {
    auto fleet = cold_start(setup, deadline_ms, first_want, result);
    const double half = options.seconds / 2;
    const LoadStats plain =
        drive(*fleet, options, rate, half, deadline_ms, inputs, want, false, result);
    const LoadStats traced =
        drive(*fleet, options, rate, half, deadline_ms, inputs, want, true, result);
    fleet->shutdown(true);
    const double plain_p50 = sliced_quantile(plain.slice_ms, 0.5);
    result.metric("trace.overhead_pct",
                  100.0 * (sliced_quantile(traced.slice_ms, 0.5) - plain_p50) / plain_p50, "%");
    const metrics::ModelSnapshot& d = plain.delta;
    result.metric("serve.queue_wait_p50_ms", d.queue_wait.quantile_ms(0.5), "ms");
    result.metric("serve.exec_p50_ms", d.exec.quantile_ms(0.5), "ms");
    result.metric("serve.batch_occupancy",
                  d.batches > 0 ? static_cast<double>(d.batched_requests) /
                                      static_cast<double>(d.batches)
                                : 0.0,
                  "requests");
    result.metric("serve.rejected_slo", static_cast<double>(d.rejected_slo), "count");
    result.metric("serve.value_past_deadline", static_cast<double>(d.value_past_deadline), "count");
    result.metric("serve.client_late",
                  static_cast<double>(plain.counts[static_cast<std::size_t>(Outcome::kLateValue)] +
                                      plain.counts[static_cast<std::size_t>(Outcome::kLateError)]),
                  "count");
    result.metric("serve.client_server_gap_ms",
                  median(plain.client_ms) - d.latency.quantile_ms(0.5), "ms");
    result.metric("serve.submit_us_p50", quantile(plain.submit_us, 0.5), "us");
    result.metric("serve.submit_us_p99", quantile(plain.submit_us, 0.99), "us");
    result.metric("gen.lag_p99_ms", quantile(plain.lag_ms, 0.99), "ms");
    result.metric("gen.lag_max_ms", quantile(plain.lag_ms, 1.0), "ms");

    std::vector<ModelGraphs> graphs;
    for (std::size_t t = 0; t < kNumTenants; ++t) {
      graphs.push_back(ModelGraphs{kTenants[t].name, setup.decomposed[t].get(),
                                   setup.decompose_s[t], inputs[t][0], true});
    }
    add_compiler_layer_metrics(graphs, result);
    add_serve_probe_metrics(graphs, options, result);
    return;
  }

  auto fleet = cold_start(setup, deadline_ms, first_want, result);
  const LoadStats load =
      drive(*fleet, options, rate, options.seconds, deadline_ms, inputs, want, false, result);
  std::int64_t resident = 0;
  for (const metrics::ModelSnapshot& s : fleet->snapshot()) resident += s.arena_resident_bytes;
  fleet->shutdown(true);

  std::fprintf(stderr,
               "  offered %.0f req/s: ok %zu, late value %zu, late error %zu, shed %zu, "
               "failed %zu; host steal %ld ticks, %zu of %zu slices kept\n",
               rate, load.counts[0], load.counts[1], load.counts[2], load.counts[3],
               load.counts[4], load.steal_ticks, load.slice_ms.size(), load.slices);
  // Per-slice statistics, medianed over the kept slices (see kSliceSeconds).
  // A 1000-request slice at 5000 req/s leaves ten requests beyond its p99.
  std::vector<double> goodput;
  for (const std::size_t ok : load.ok_per_slice) {
    goodput.push_back(static_cast<double>(ok) / load.slice_s);
  }
  result.metric("setup_s", median(setup_s), "s");
  result.metric("p50_ms", sliced_quantile(load.slice_ms, 0.5), "ms");
  result.metric("tail_ms", sliced_quantile(load.slice_ms, 0.99), "ms");
  result.metric("throughput_per_s", median(goodput), "1/s");
  result.metric("arena_bytes", static_cast<double>(resident), "bytes");
}

void add_serve_probe_metrics(const std::vector<ModelGraphs>& models, const Options& options,
                             Result& result) {
  double compile_s = 0, save_s = 0, load_ms = 0, install_ms = 0, first_ms = 0;
  std::filesystem::create_directories(options.scratch);
  for (const ModelGraphs& model : models) {
    Clock::time_point start = Clock::now();
    const ModelPtr compiled = [&] {
      ScopedSpan span("serve.compile", model.name);
      return serve::CompiledModel::compile(*model.decomposed, compile_options());
    }();
    compile_s += seconds_since(start);
    const std::string path = options.scratch + "/probe-" + model.name + ".tmco";
    start = Clock::now();
    {
      ScopedSpan span("serve.save", model.name);
      compiled->save(path);
    }
    save_s += seconds_since(start);
    start = Clock::now();
    {
      ScopedSpan span("serve.load", model.name);
      (void)serve::CompiledModel::load(path);
    }
    load_ms += ms_between(start, Clock::now());

    Rng rng(options.seed * 31 + 5);
    const Tensor input = Tensor::random_normal(compiled->input_shape(0), rng);
    runtime::Executor reference(compiled->graph(1), {.use_arena = true});
    const std::vector<Tensor> want = reference.run({input}).outputs;
    serve::FleetServer fleet(fleet_options());
    start = Clock::now();
    {
      ScopedSpan span("serve.install_file", model.name);
      fleet.install_file(model.name, path);
    }
    const Clock::time_point installed = Clock::now();
    install_ms += ms_between(start, installed);
    {
      ScopedSpan span("serve.first_response", model.name);
      ++result.attempted;
      if (!same_bytes(fleet.submit(model.name, {input}).get(), want)) {
        result.fail(model.name + ": probe response differs from the reference");
      }
    }
    first_ms += ms_between(installed, Clock::now());
    fleet.shutdown(true);

    serve::SessionPool pool(compiled, 1);
    serve::SessionPool::Lease lease = pool.acquire();
    for (const std::size_t batch : {std::size_t{1}, kMaxBatch}) {
      const std::vector<Tensor> one{input};
      const std::vector<const std::vector<Tensor>*> batch_requests(batch, &one);
      std::vector<double> ms;
      for (int run = -1; run < kSessionRuns; ++run) {
        const Clock::time_point begin = Clock::now();
        std::vector<std::vector<Tensor>> out;
        {
          ScopedSpan span("serve.session_run", model.name + "/b" + std::to_string(batch));
          out = lease->run_batch(batch_requests);
        }
        if (run >= 0) ms.push_back(ms_between(begin, Clock::now()));
        ++result.attempted;
        if (out.size() != batch || !same_bytes(out.back(), want)) {
          result.fail(model.name + ": session batch output differs from the reference");
        }
      }
      result.metric("serve.session_run_ms." + model.name + ".b" + std::to_string(batch), median(ms),
                    "ms");
    }
  }
  result.metric("serve.compile_s", compile_s, "s");
  result.metric("serve.save_s", save_s, "s");
  result.metric("serve.load_ms", load_ms, "ms");
  result.metric("serve.install_ms", install_ms, "ms");
  result.metric("serve.first_response_ms", first_ms, "ms");
}

void add_idle_serve_load_metrics(Result& result) {
  // Offline workloads have no request queue, deadlines or generator: these
  // layers are not on their path, and read zero.
  for (const char* name : {"serve.queue_wait_p50_ms", "serve.exec_p50_ms",
                           "serve.client_server_gap_ms", "gen.lag_p99_ms", "gen.lag_max_ms"}) {
    result.metric(name, 0.0, "ms");
  }
  result.metric("serve.batch_occupancy", 0.0, "requests");
  result.metric("serve.submit_us_p50", 0.0, "us");
  result.metric("serve.submit_us_p99", 0.0, "us");
  for (const char* name :
       {"serve.rejected_slo", "serve.value_past_deadline", "serve.client_late"}) {
    result.metric(name, 0.0, "count");
  }
}

}  // namespace temco::bench
