#include "serve/fleet.hpp"

#include <algorithm>
#include <utility>

#include "serve/fault.hpp"
#include "support/log.hpp"

namespace temco::serve {

namespace {

double seconds_between(std::chrono::steady_clock::time_point from,
                       std::chrono::steady_clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

/// Batches between controller runs: long enough to smooth one noisy batch,
/// short enough that a traffic shift re-tunes within a few service times.
constexpr std::size_t kControlPeriod = 4;

/// EWMA weights.  Arrivals are per-request (many samples, heavy smoothing);
/// execution and occupancy are per-batch (few samples, faster tracking).
constexpr double kArrivalAlpha = 0.1;
constexpr double kBatchAlpha = 0.3;

std::exception_ptr hang_error() {
  return std::make_exception_ptr(DeadlineExceededError(
      "batch exceeded the fleet hang budget; failed fast by the watchdog"));
}

}  // namespace

FleetServer::FleetServer(FleetOptions options) : options_(options) {
  TEMCO_CHECK_AS(options_.workers >= 1, InvalidGraphError) << "fleet needs at least one worker";
  TEMCO_CHECK_AS(options_.sessions_per_model >= 1, InvalidGraphError)
      << "fleet needs at least one session per model";
  TEMCO_CHECK_AS(options_.queue_capacity >= 1, InvalidGraphError)
      << "queue capacity must be at least 1";
  TEMCO_CHECK_AS(options_.max_batch_timeout.count() >= 0, InvalidGraphError)
      << "max_batch_timeout must be non-negative";
  TEMCO_CHECK_AS(options_.retry_backoff.count() >= 0, InvalidGraphError)
      << "retry_backoff must be non-negative";
  TEMCO_CHECK_AS(options_.breaker_threshold == 0 || options_.breaker_recovery >= 1,
                 InvalidGraphError)
      << "breaker_recovery must be at least 1 when the breaker is enabled";
  TEMCO_CHECK_AS(options_.default_slo.weight > 0.0, InvalidGraphError)
      << "fair-share weight must be positive";
  TEMCO_CHECK_AS(options_.default_slo.target_p99.count() >= 0, InvalidGraphError)
      << "p99 target must be non-negative";
  TEMCO_CHECK_AS(options_.hang_budget.count() >= 0, InvalidGraphError)
      << "hang_budget must be non-negative";

  worker_pool_ = std::make_unique<ThreadPool>(options_.workers);
  if (options_.hang_budget.count() > 0) {
    watchdog_ = std::thread([this] { watchdog_loop(); });
  }
  // Workers run as long-lived tasks on a dedicated pool (their kernels then
  // execute inline within the task, by the nested-run rule); the dispatcher
  // is the pool's participating caller, blocking in run() for the fleet's
  // whole life.
  dispatcher_ = std::thread([this] {
    try {
      worker_pool_->run(options_.workers, [this](std::size_t) { worker_loop(); });
    } catch (...) {
      // A worker's scheduling logic itself failed (batch execution errors
      // are contained in execute_batch).  Stop admission and fail whatever
      // is still queued anywhere so no future is abandoned.
      std::vector<std::pair<ModelPtr, std::deque<RequestPtr>>> orphaned;
      {
        std::lock_guard<std::mutex> lock(mutex_);
        stopping_ = true;
        for (auto& [name, model] : live_) {
          if (!model->queue.empty()) orphaned.emplace_back(model, std::move(model->queue));
          model->queue.clear();
        }
        for (const ModelPtr& model : draining_) {
          if (!model->queue.empty()) orphaned.emplace_back(model, std::move(model->queue));
          model->queue.clear();
        }
      }
      work_cv_.notify_all();
      const auto error = std::make_exception_ptr(
          CancelledError("fleet worker failed before this request ran"));
      for (auto& [model, queue] : orphaned) {
        for (const RequestPtr& request : queue) {
          resolve_error(*model, *request, error, model->metrics->cancelled);
        }
        model->metrics->queue_depth.store(0, std::memory_order_relaxed);
      }
    }
  });
}

FleetServer::~FleetServer() { shutdown(false); }

// ---- install / swap / remove ------------------------------------------------

void FleetServer::install_impl(const std::string& name,
                               std::shared_ptr<const CompiledModel> compiled,
                               std::optional<FleetOptions::ModelSlo> slo, bool must_exist) {
  FleetOptions::ModelSlo resolved = slo.value_or(options_.default_slo);
  {
    std::lock_guard<std::mutex> lock(mutex_);
    TEMCO_CHECK_AS(!stopping_, CancelledError) << "fleet is shutting down";
    const auto it = live_.find(name);
    TEMCO_CHECK_AS(!must_exist || it != live_.end(), InvalidGraphError)
        << "swap target '" << name << "' is not currently serving; install it first";
    // A swap inherits the incumbent's SLO — latency contracts survive deploys.
    if (!slo.has_value() && it != live_.end()) resolved = it->second->slo;
  }
  TEMCO_CHECK_AS(resolved.weight > 0.0, InvalidGraphError) << "fair-share weight must be positive";
  TEMCO_CHECK_AS(resolved.target_p99.count() >= 0, InvalidGraphError)
      << "p99 target must be non-negative";

  // Pool construction (slabs, executors) happens before the fleet lock is
  // taken, so a heavyweight deploy never stalls scheduling or other names.
  auto fresh = std::make_shared<Model>();
  fresh->name = name;
  fresh->compiled = compiled;
  fresh->pool = std::make_unique<SessionPool>(std::move(compiled), options_.sessions_per_model);
  fresh->slo = resolved;
  fresh->installed_at = std::chrono::steady_clock::now();
  fresh->metrics = std::make_shared<metrics::ModelMetrics>();
  fresh->metrics->arena_resident_bytes.store(fresh->pool->resident_bytes(),
                                             std::memory_order_relaxed);
  // The controller starts at the compiled ceiling with the full straggler
  // window and tightens from its first observations; an SLO clamps the cap
  // at the first control period once execution time is known.
  fresh->batch_cap = std::max<std::size_t>(1, fresh->compiled->max_batch());
  fresh->batch_timeout = options_.max_batch_timeout;

  {
    std::lock_guard<std::mutex> lock(mutex_);
    TEMCO_CHECK_AS(!stopping_, CancelledError) << "fleet is shutting down";
    fresh->generation = next_generation_++;
    const auto it = live_.find(name);
    if (it != live_.end()) {
      retire_locked(it->second);
      it->second = std::move(fresh);
    } else {
      live_.emplace(name, std::move(fresh));
    }
  }
  work_cv_.notify_all();
}

void FleetServer::retire_locked(const ModelPtr& model) {
  model->retired = true;
  // A generation with accepted work keeps being scheduled until it resolves
  // everything; one with none simply evaporates when the last ModelPtr drops.
  if (!model->queue.empty() || model->in_flight > 0) draining_.push_back(model);
}

void FleetServer::install(const std::string& name, std::shared_ptr<const CompiledModel> model) {
  install_impl(name, std::move(model), std::nullopt, /*must_exist=*/false);
}

void FleetServer::install(const std::string& name, std::shared_ptr<const CompiledModel> model,
                          FleetOptions::ModelSlo slo) {
  install_impl(name, std::move(model), slo, /*must_exist=*/false);
}

void FleetServer::install_file(const std::string& name, const std::string& path) {
  install_impl(name, CompiledModel::load(path), std::nullopt, /*must_exist=*/false);
}

void FleetServer::install_file(const std::string& name, const std::string& path,
                               FleetOptions::ModelSlo slo) {
  install_impl(name, CompiledModel::load(path), slo, /*must_exist=*/false);
}

void FleetServer::swap(const std::string& name, std::shared_ptr<const CompiledModel> model) {
  install_impl(name, std::move(model), std::nullopt, /*must_exist=*/true);
}

void FleetServer::swap_file(const std::string& name, const std::string& path) {
  install_impl(name, CompiledModel::load(path), std::nullopt, /*must_exist=*/true);
}

void FleetServer::remove(const std::string& name) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = live_.find(name);
    if (it == live_.end()) return;
    retire_locked(it->second);
    live_.erase(it);
  }
  work_cv_.notify_all();
}

void FleetServer::wait_drained() {
  std::unique_lock<std::mutex> lock(mutex_);
  drain_cv_.wait(lock, [this] { return draining_.empty(); });
}

// ---- admission --------------------------------------------------------------

std::future<std::vector<Tensor>> FleetServer::submit(const std::string& name,
                                                     std::vector<Tensor> inputs,
                                                     SubmitOptions options) {
  for (;;) {
    ModelPtr model;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      TEMCO_CHECK_AS(!stopping_, CancelledError) << "fleet is shutting down";
      const auto it = live_.find(name);
      TEMCO_CHECK_AS(it != live_.end(), InvalidGraphError)
          << "no model installed under '" << name << "'";
      model = it->second;
    }
    metrics::ModelMetrics& met = *model->metrics;

    // Validation and deadline math outside the fleet lock.
    model->compiled->check_compatible(inputs);
    auto deadline = options.deadline;
    const auto now = std::chrono::steady_clock::now();
    if (options.timeout.count() > 0) deadline = std::min(deadline, now + options.timeout);
    if (deadline != std::chrono::steady_clock::time_point::max() && now >= deadline) {
      met.submitted.fetch_add(1, std::memory_order_relaxed);
      met.rejected_deadline.fetch_add(1, std::memory_order_relaxed);
      TEMCO_CHECK_AS(false, DeadlineExceededError)
          << "request deadline already expired at submission";
    }

    auto request = std::make_shared<Request>();
    request->inputs = std::move(inputs);
    request->deadline = deadline;
    std::future<std::vector<Tensor>> future = request->promise.get_future();
    {
      std::lock_guard<std::mutex> lock(mutex_);
      TEMCO_CHECK_AS(!stopping_, CancelledError) << "fleet is shutting down";
      const auto it = live_.find(name);
      if (it == live_.end() || it->second != model) {
        // Hot-swapped (or removed and reinstalled) between lookup and
        // enqueue: route to the current generation, never the retiring one.
        inputs = std::move(request->inputs);
        continue;
      }
      met.submitted.fetch_add(1, std::memory_order_relaxed);
      if (model->queue.size() >= options_.queue_capacity) {
        met.rejected_queue_full.fetch_add(1, std::memory_order_relaxed);
        TEMCO_CHECK_AS(false, ResourceExhaustedError)
            << "admission queue for '" << name << "' is at capacity ("
            << options_.queue_capacity << " requests); back off and retry";
      }
      if (options_.slo_admission && model->exec_per_req_hat > 0.0) {
        // Forecast this request's queue wait from what is already committed.
        // The wait may consume at most half the latency budget (the tighter
        // of the model's p99 target and the request's remaining deadline):
        // a request admitted after spending its whole budget in line can
        // only finish at the knife edge, where the batching window,
        // execution, and fanout jitter tip it past the deadline — and under
        // sustained overload that is every admitted request.  The reserved
        // half is what keeps served answers comfortably inside the SLO.
        const double pending =
            static_cast<double>(model->queue.size()) + static_cast<double>(model->in_flight);
        const double lanes = static_cast<double>(
            std::max<std::size_t>(1, std::min(options_.workers, options_.sessions_per_model)));
        const double wait_s = pending * model->exec_per_req_hat / lanes;
        const double target_s = std::chrono::duration<double>(model->slo.target_p99).count();
        const bool blows_deadline =
            deadline != std::chrono::steady_clock::time_point::max() &&
            now + std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                      std::chrono::duration<double>(2.0 * wait_s)) >=
                deadline;
        const bool blows_target = target_s > 0.0 && wait_s > 0.5 * target_s;
        if (blows_deadline || blows_target) {
          met.rejected_slo.fetch_add(1, std::memory_order_relaxed);
          TEMCO_CHECK_AS(false, SloUnmeetableError)
              << "predicted queue wait " << wait_s * 1e3 << " ms for '" << name
              << "' already blows the "
              << (blows_deadline ? "request deadline" : "model's p99 target")
              << "; shed load or relax the SLO";
        }
      }
      // Arrival-rate EWMA, fed by submit inter-arrival times.
      if (model->last_arrival.time_since_epoch().count() != 0) {
        const double dt = std::max(seconds_between(model->last_arrival, now), 1e-6);
        const double instant = 1.0 / dt;
        model->arrival_rate_hat = model->arrival_rate_hat == 0.0
                                      ? instant
                                      : (1.0 - kArrivalAlpha) * model->arrival_rate_hat +
                                            kArrivalAlpha * instant;
      }
      model->last_arrival = now;
      request->submitted_at = now;
      model->queue.push_back(std::move(request));
      met.accepted.fetch_add(1, std::memory_order_relaxed);
      met.queue_depth.store(static_cast<std::int64_t>(model->queue.size()),
                            std::memory_order_relaxed);
    }
    work_cv_.notify_one();
    return future;
  }
}

// ---- scheduling -------------------------------------------------------------

std::size_t FleetServer::total_queued_locked() const {
  std::size_t total = 0;
  for (const auto& [name, model] : live_) total += model->queue.size();
  for (const ModelPtr& model : draining_) total += model->queue.size();
  return total;
}

FleetServer::ModelPtr FleetServer::pick_model(SessionPool::Lease& lease) {
  const auto now = std::chrono::steady_clock::now();
  std::vector<std::pair<double, ModelPtr>> candidates;
  const auto consider = [&](const ModelPtr& model) {
    if (model->queue.empty()) return;
    if (model->pool->size() == 0) {
      // Defunct pool (every session quarantined, none rebuildable): this
      // queue can never run.  Fail it now or workers rescan it forever.
      const auto error = std::make_exception_ptr(ResourceExhaustedError(
          "session pool for '" + model->name +
          "' is defunct: every session was quarantined and no replacement could be constructed"));
      for (const RequestPtr& request : model->queue) {
        resolve_error(*model, *request, error, model->metrics->failed);
      }
      model->queue.clear();
      model->metrics->queue_depth.store(0, std::memory_order_relaxed);
      return;
    }
    // Weighted fair share: weight x age of the oldest queued request.  Age
    // grows without bound, so every backlogged model eventually outscores
    // everyone — no starvation; weight sets the service ratio meanwhile.
    const double age = std::max(seconds_between(model->queue.front()->submitted_at, now), 0.0);
    candidates.emplace_back(model->slo.weight * (age + 1e-6), model);
  };
  for (const auto& [name, model] : live_) consider(model);
  for (const ModelPtr& model : draining_) consider(model);

  // Retired generations whose queues just got defunct-failed may be done.
  const bool had_draining = !draining_.empty();
  draining_.remove_if(
      [](const ModelPtr& model) { return model->queue.empty() && model->in_flight == 0; });
  if (had_draining && draining_.empty()) drain_cv_.notify_all();

  std::sort(candidates.begin(), candidates.end(),
            [](const auto& a, const auto& b) { return a.first > b.first; });
  for (auto& [score, model] : candidates) {
    // A model with every session busy is skipped, not waited on: workers
    // flow to whoever can run NOW, and a slow model caps its own share at
    // its session count.
    std::optional<SessionPool::Lease> got = model->pool->try_acquire();
    if (got.has_value()) {
      lease = std::move(*got);
      return model;
    }
  }
  return nullptr;
}

void FleetServer::worker_loop() {
  for (;;) {
    ModelPtr model;
    SessionPool::Lease lease;
    std::vector<RequestPtr> batch;
    bool degraded = false;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      for (;;) {
        work_cv_.wait(lock, [this] { return stopping_ || total_queued_locked() > 0; });
        if (total_queued_locked() == 0) {
          if (stopping_) return;
          continue;
        }
        model = pick_model(lease);
        if (model != nullptr) break;
        if (stopping_ && total_queued_locked() == 0) return;
        // Queued work exists but every candidate's sessions are busy.
        // finish_batch notifies when a lease frees; the bounded wait is a
        // backstop against a notification racing this re-scan.
        work_cv_.wait_for(lock, std::chrono::microseconds(100));
      }

      // Coalesce a micro-batch under the model's adaptive cap/timeout.
      // Degraded mode (per-model breaker open) forces singletons.
      degraded = model->degraded.load(std::memory_order_relaxed);
      const std::size_t cap =
          degraded ? 1
                   : std::max<std::size_t>(
                         1, std::min(model->batch_cap, model->compiled->max_batch()));
      const auto window = std::chrono::steady_clock::now() + model->batch_timeout;
      batch.push_back(std::move(model->queue.front()));
      model->queue.pop_front();
      while (batch.size() < cap) {
        if (!model->queue.empty()) {
          batch.push_back(std::move(model->queue.front()));
          model->queue.pop_front();
          continue;
        }
        if (stopping_ || model->retired || model->batch_timeout.count() == 0) break;
        if (work_cv_.wait_until(lock, window) == std::cv_status::timeout) break;
      }

      const auto now = std::chrono::steady_clock::now();
      for (const RequestPtr& request : batch) {
        model->metrics->queue_wait.record_seconds(
            seconds_between(request->submitted_at, now));
      }
      model->in_flight += static_cast<std::int64_t>(batch.size());
      model->metrics->in_flight.store(model->in_flight, std::memory_order_relaxed);
      model->metrics->queue_depth.store(static_cast<std::int64_t>(model->queue.size()),
                                        std::memory_order_relaxed);
    }

    BatchOutcome outcome;
    execute_batch(*model, std::move(lease), batch, degraded, outcome);
    finish_batch(model, outcome);
  }
}

void FleetServer::finish_batch(const ModelPtr& model, const BatchOutcome& outcome) {
  bool drained = false;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (outcome.executed > 0) {
      const double per_req = outcome.exec_seconds / static_cast<double>(outcome.executed);
      model->exec_per_req_hat = model->exec_per_req_hat == 0.0
                                    ? per_req
                                    : (1.0 - kBatchAlpha) * model->exec_per_req_hat +
                                          kBatchAlpha * per_req;
      model->occupancy_hat = model->occupancy_hat == 0.0
                                 ? static_cast<double>(outcome.executed)
                                 : (1.0 - kBatchAlpha) * model->occupancy_hat +
                                       kBatchAlpha * static_cast<double>(outcome.executed);
    }
    for (const double ms : outcome.latencies_ms) {
      model->recent_ms[model->recent_count % model->recent_ms.size()] = ms;
      ++model->recent_count;
    }
    adapt_locked(*model);
    if (model->retired && model->queue.empty() && model->in_flight == 0) {
      draining_.remove(model);
      drained = draining_.empty();
    }
  }
  // The released lease may make a skipped model runnable: rescan everyone.
  work_cv_.notify_all();
  if (drained) drain_cv_.notify_all();
}

void FleetServer::adapt_locked(Model& model) {
  if (++model.batches_since_control < kControlPeriod) return;
  model.batches_since_control = 0;

  const std::size_t ceiling = std::max<std::size_t>(1, model.compiled->max_batch());
  const double exec1 = model.exec_per_req_hat;
  const double lambda = model.arrival_rate_hat;
  const double target_s = std::chrono::duration<double>(model.slo.target_p99).count();

  // Recent p99 from the latency ring (recomputed here, off the hot path).
  double p99_s = 0.0;
  const std::size_t n = std::min(model.recent_count, model.recent_ms.size());
  if (n >= 8) {
    std::array<double, 128> scratch;
    std::copy_n(model.recent_ms.begin(), n, scratch.begin());
    const std::size_t rank = static_cast<std::size_t>(0.99 * static_cast<double>(n - 1));
    std::nth_element(scratch.begin(), scratch.begin() + rank, scratch.begin() + n);
    p99_s = scratch[rank] / 1e3;
  }

  if (target_s > 0.0 && p99_s > target_s) {
    // Latency emergency: halve the cap and stop waiting for stragglers.
    // Recovery is additive below — classic AIMD, stable under feedback lag.
    model.batch_cap = std::max<std::size_t>(1, model.batch_cap / 2);
    model.batch_timeout = std::chrono::microseconds(0);
    return;
  }

  // SLO clamp: a full batch's execution must fit inside half the p99 target,
  // leaving the other half for queueing and batch formation.
  std::size_t limit = ceiling;
  if (target_s > 0.0 && exec1 > 0.0) {
    limit = std::clamp<std::size_t>(static_cast<std::size_t>(0.5 * target_s / exec1),
                                    std::size_t{1}, ceiling);
  }

  // Little's law: lambda x exec(cap) arrivals land during one batch run.
  // When they would fill the batch (or a backlog already does), there is
  // demand for a bigger one; when batches run half-empty, shrink so light
  // traffic is not taxed with straggler waits.
  const double absorbed = lambda * exec1 * static_cast<double>(model.batch_cap);
  if (absorbed >= static_cast<double>(model.batch_cap) || model.queue.size() >= model.batch_cap) {
    model.batch_cap = std::min(model.batch_cap + 1, limit);
  } else if (model.batch_cap > limit) {
    model.batch_cap = limit;
  } else if (model.batch_cap > 1 && model.occupancy_hat < 0.5 * static_cast<double>(model.batch_cap)) {
    --model.batch_cap;
  }

  if (target_s > 0.0) {
    // Spend at most a quarter of the remaining SLO slack waiting for
    // stragglers; the rest absorbs queueing and estimation error.
    const double slack =
        exec1 > 0.0 ? target_s - exec1 * static_cast<double>(model.batch_cap) : target_s;
    const auto wait = std::chrono::microseconds(
        slack > 0.0 ? static_cast<std::int64_t>(slack / 4.0 * 1e6) : 0);
    model.batch_timeout = std::clamp(wait, std::chrono::microseconds(0),
                                     options_.max_batch_timeout);
  } else if (lambda > 0.0 && model.batch_cap > 1) {
    // No SLO: wait about as long as the batch takes to fill at the current
    // arrival rate — longer buys nothing, shorter wastes occupancy.
    const double fill_s = static_cast<double>(model.batch_cap - 1) / lambda;
    const auto wait = std::chrono::microseconds(static_cast<std::int64_t>(fill_s * 1e6));
    model.batch_timeout = std::clamp(wait, std::chrono::microseconds(0),
                                     options_.max_batch_timeout);
  } else {
    model.batch_timeout = options_.max_batch_timeout;
  }
}

// ---- resolution, retry backoff, circuit breaker -----------------------------

bool FleetServer::resolve_value(Model& model, Request& request, std::vector<Tensor> value) {
  if (!request.claim()) return false;
  metrics::ModelMetrics& met = *model.metrics;
  const auto now = std::chrono::steady_clock::now();
  met.latency.record_seconds(seconds_between(request.submitted_at, now));
  if (request.expired(now)) {
    // Strict-SLO rule: an accepted request never yields a usable answer
    // late.  The conversion is counted — each one is an admission-control
    // miss the bench and ops dashboards must see.
    met.value_past_deadline.fetch_add(1, std::memory_order_relaxed);
    met.deadline_expired.fetch_add(1, std::memory_order_relaxed);
    request.promise.set_exception(std::make_exception_ptr(DeadlineExceededError(
        "request completed after its deadline; result withheld under the strict SLO rule")));
    return false;
  }
  met.completed.fetch_add(1, std::memory_order_relaxed);
  request.promise.set_value(std::move(value));
  return true;
}

bool FleetServer::resolve_error(Model& model, Request& request, const std::exception_ptr& error,
                                std::atomic<std::uint64_t>& counter) {
  if (!request.claim()) return false;
  model.metrics->latency.record_seconds(
      seconds_between(request.submitted_at, std::chrono::steady_clock::now()));
  counter.fetch_add(1, std::memory_order_relaxed);
  request.promise.set_exception(error);
  return true;
}

void FleetServer::release_in_flight(Model& model, std::size_t count) {
  if (count == 0) return;
  std::lock_guard<std::mutex> lock(mutex_);
  model.in_flight -= static_cast<std::int64_t>(count);
  model.metrics->in_flight.store(model.in_flight, std::memory_order_relaxed);
}

void FleetServer::fail_batch(Model& model, std::vector<RequestPtr>& batch,
                             const std::exception_ptr& error,
                             std::atomic<std::uint64_t>& counter) {
  release_in_flight(model, batch.size());
  for (const RequestPtr& request : batch) resolve_error(model, *request, error, counter);
  batch.clear();
}

void FleetServer::sweep_expired(Model& model, std::vector<RequestPtr>& batch) {
  const auto now = std::chrono::steady_clock::now();
  std::vector<RequestPtr> keep, expired;
  keep.reserve(batch.size());
  for (RequestPtr& request : batch) {
    (request->expired(now) ? expired : keep).push_back(std::move(request));
  }
  batch.swap(keep);
  if (expired.empty()) return;
  fail_batch(model, expired,
             std::make_exception_ptr(
                 DeadlineExceededError("request deadline expired before execution")),
             model.metrics->deadline_expired);
}

void FleetServer::backoff_sleep(std::size_t attempt) {
  if (options_.retry_backoff.count() <= 0) return;
  double jitter;
  {
    std::lock_guard<std::mutex> lock(rng_mutex_);
    jitter = std::uniform_real_distribution<double>(0.5, 1.5)(rng_);
  }
  const std::size_t doublings = std::min<std::size_t>(attempt > 0 ? attempt - 1 : 0, 10);
  const double scaled =
      static_cast<double>(options_.retry_backoff.count()) * static_cast<double>(1ull << doublings);
  const auto delay = std::chrono::microseconds(static_cast<std::int64_t>(scaled * jitter));
  // Interruptible: shutdown ends the nap early so drains never wait out a
  // retry schedule.  Submit notifications wake it spuriously; the predicate
  // sends it back to sleep for the remainder.
  std::unique_lock<std::mutex> lock(mutex_);
  work_cv_.wait_for(lock, delay, [this] { return stopping_; });
}

void FleetServer::breaker_failure(Model& model) {
  if (options_.breaker_threshold == 0) return;
  std::lock_guard<std::mutex> lock(mutex_);
  ++model.consecutive_failures;
  model.probe_successes = 0;
  if (!model.degraded.load(std::memory_order_relaxed) &&
      model.consecutive_failures >= options_.breaker_threshold) {
    model.degraded.store(true, std::memory_order_relaxed);
    model.metrics->breaker_trips.fetch_add(1, std::memory_order_relaxed);
    TEMCO_WARN() << "circuit breaker tripped for '" << model.name << "' after "
                 << model.consecutive_failures
                 << " consecutive batch failures; degrading to singleton batches";
  }
}

void FleetServer::breaker_success(Model& model) {
  if (options_.breaker_threshold == 0) return;
  std::lock_guard<std::mutex> lock(mutex_);
  model.consecutive_failures = 0;
  if (!model.degraded.load(std::memory_order_relaxed)) return;
  if (++model.probe_successes >= options_.breaker_recovery) {
    model.degraded.store(false, std::memory_order_relaxed);
    model.probe_successes = 0;
    model.metrics->breaker_restores.fetch_add(1, std::memory_order_relaxed);
    TEMCO_INFO() << "circuit breaker closed for '" << model.name << "' after "
                 << options_.breaker_recovery << " clean probes; normal batching restored";
  }
}

// ---- watchdog ---------------------------------------------------------------

void FleetServer::watch_begin(Watch& watch) {
  if (options_.hang_budget.count() == 0) return;
  std::lock_guard<std::mutex> lock(watch_mutex_);
  // Stamped under the lock, so watched_ stays in start order and its front
  // is always the next batch to come due.
  watch.started = std::chrono::steady_clock::now();
  watch.slot = watched_.insert(watched_.end(), &watch);
  // An idle watchdog sleeps without a deadline; wake it for the new front.
  if (watched_.size() == 1) watch_cv_.notify_one();
}

bool FleetServer::watch_end(Watch& watch) {
  if (options_.hang_budget.count() == 0) return false;
  std::lock_guard<std::mutex> lock(watch_mutex_);
  if (!watch.flagged) watched_.erase(watch.slot);
  return watch.flagged;
}

void FleetServer::watchdog_loop() {
  std::unique_lock<std::mutex> lock(watch_mutex_);
  for (;;) {
    watch_cv_.wait(lock, [this] { return watchdog_stop_ || !watched_.empty(); });
    if (watchdog_stop_) return;
    Watch& watch = *watched_.front();
    const auto due = watch.started + options_.hang_budget;
    if (std::chrono::steady_clock::now() < due) {
      // Re-examine the front on any wake: it may have finished meanwhile.
      watch_cv_.wait_until(lock, due);
      continue;
    }
    // Fail fast: clients get their answer now; the stuck run is cancelled
    // via the session token and unwinds at its next poll point.  The worker
    // finds the flag at watch_end, records the breaker failure, and
    // discards any late result.
    watched_.pop_front();
    watch.flagged = true;
    Model& model = *watch.model;
    model.metrics->hung_batches.fetch_add(1, std::memory_order_relaxed);
    watch.token->cancel();
    const auto error = hang_error();
    for (const RequestPtr& request : *watch.batch) {
      resolve_error(model, *request, error, model.metrics->hung_requests);
    }
    TEMCO_WARN() << "watchdog flagged a batch of " << watch.batch->size() << " requests for '"
                 << model.name << "' over the hang budget";
  }
}

// ---- execution --------------------------------------------------------------

void FleetServer::execute_batch(Model& model, SessionPool::Lease lease,
                                std::vector<RequestPtr>& batch, bool degraded,
                                BatchOutcome& outcome) {
  metrics::ModelMetrics& met = *model.metrics;
  if (degraded) met.degraded_batches.fetch_add(1, std::memory_order_relaxed);
  std::size_t attempt = 0;
  for (;;) {
    // Deadline check at batch formation (and again before every retry —
    // backoff may have outlived someone's SLO).
    sweep_expired(model, batch);
    if (batch.empty()) return;

    if (!lease) {
      // A retry released its session; get another (blocking is fine here —
      // the retry path is rare and this model's pool is the right thing to
      // wait on).
      try {
        lease = model.pool->acquire();
      } catch (...) {
        breaker_failure(model);
        fail_batch(model, batch, std::current_exception(), met.failed);
        return;
      }
    }

    // Arm the session token with the tightest deadline in the batch; the
    // executor polls it between nodes/waves.
    support::CancelToken& token = lease->cancel_token();
    token.reset();
    auto deadline = std::chrono::steady_clock::time_point::max();
    for (const RequestPtr& request : batch) deadline = std::min(deadline, request->deadline);
    if (deadline != std::chrono::steady_clock::time_point::max()) token.set_deadline(deadline);
    Watch watch;
    watch.model = &model;
    watch.token = &token;
    watch.batch = &batch;
    watch_begin(watch);

    try {
      std::vector<const std::vector<Tensor>*> requests;
      requests.reserve(batch.size());
      for (const RequestPtr& request : batch) requests.push_back(&request->inputs);
      const auto started = std::chrono::steady_clock::now();
      std::vector<std::vector<Tensor>> responses =
          lease->run_batch(requests, degraded ? RunMode::kDegraded : RunMode::kNormal);
      const double exec_s = seconds_between(started, std::chrono::steady_clock::now());
      const bool hung = watch_end(watch);
      token.reset();
      lease.release();  // free the session before the (cheap) promise fanout
      if (hung) {
        // Finished after the watchdog already failed these futures: clients
        // were told the batch hung, so the late result is discarded.
        breaker_failure(model);
        fail_batch(model, batch, hang_error(), met.hung_requests);
        return;
      }

      met.record_batch(batch.size(), exec_s);
      outcome.exec_seconds = exec_s;
      outcome.executed = batch.size();
      breaker_success(model);
      // Released exactly once: from here on the batch is empty, so the
      // fault path below has nothing left to release.
      std::vector<RequestPtr> served;
      served.swap(batch);
      release_in_flight(model, served.size());
      for (std::size_t r = 0; r < served.size(); ++r) {
        const auto& request = served[r];
        const double ms = seconds_between(request->submitted_at,
                                          std::chrono::steady_clock::now()) *
                          1e3;
        if (resolve_value(model, *request, std::move(responses[r]))) {
          outcome.latencies_ms.push_back(ms);
        }
      }
      return;
    } catch (...) {
      const bool hung = watch_end(watch);
      token.reset();
      const std::exception_ptr error = std::current_exception();
      const FaultClass fault = classify_fault(error);

      if (fault == FaultClass::kCorrupting) {
        // Terminal for the session too: its memory is suspect.  The pool
        // counts the stomped bytes, scrubs, and replaces it; this lease is
        // consumed.
        met.quarantined.fetch_add(1, std::memory_order_relaxed);
        model.pool->quarantine(std::move(lease));
        met.arena_resident_bytes.store(model.pool->resident_bytes(), std::memory_order_relaxed);
      } else {
        lease.release();
      }

      if (hung) {
        // The watchdog already resolved these futures; its cancel is usually
        // what unwound the run.  Only the lane's bookkeeping is left.
        breaker_failure(model);
        fail_batch(model, batch, hang_error(), met.hung_requests);
        return;
      }

      switch (fault) {
        case FaultClass::kDeadline: {
          // The batch outlived its SLO.  That is the client's answer, not a
          // server-health signal: no breaker failure, no retry.
          fail_batch(model, batch, error, met.deadline_expired);
          return;
        }
        case FaultClass::kCancelled: {
          fail_batch(model, batch, error, met.cancelled);
          return;
        }
        case FaultClass::kTransient: {
          bool stopping;
          {
            std::lock_guard<std::mutex> lock(mutex_);
            stopping = stopping_;
          }
          if (attempt < options_.max_retries && !stopping) {
            ++attempt;
            met.retries.fetch_add(1, std::memory_order_relaxed);
            backoff_sleep(attempt);
            continue;  // re-sweep deadlines, re-acquire a session, re-run
          }
          break;  // retry budget exhausted (or draining): terminal
        }
        case FaultClass::kCorrupting:
        case FaultClass::kTerminal:
          break;
      }

      // Fault isolation: exactly this batch's requests observe the error;
      // the worker and every other model stay serviceable.
      breaker_failure(model);
      fail_batch(model, batch, error, met.failed);
      return;
    }
  }
}

// ---- shutdown / introspection -----------------------------------------------

void FleetServer::shutdown(bool drain) {
  std::lock_guard<std::mutex> shutdown_lock(shutdown_mutex_);
  std::vector<std::pair<ModelPtr, std::deque<RequestPtr>>> orphaned;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (joined_) return;
    stopping_ = true;
    if (!drain) {
      for (auto& [name, model] : live_) {
        if (!model->queue.empty()) orphaned.emplace_back(model, std::move(model->queue));
        model->queue.clear();
      }
      for (const ModelPtr& model : draining_) {
        if (!model->queue.empty()) orphaned.emplace_back(model, std::move(model->queue));
        model->queue.clear();
      }
    }
  }
  work_cv_.notify_all();
  const auto error = std::make_exception_ptr(
      CancelledError("request cancelled: fleet shut down before it ran"));
  for (auto& [model, queue] : orphaned) {
    for (const RequestPtr& request : queue) {
      resolve_error(*model, *request, error, model->metrics->cancelled);
    }
    model->metrics->queue_depth.store(0, std::memory_order_relaxed);
  }
  if (dispatcher_.joinable()) dispatcher_.join();
  worker_pool_->shutdown();
  // Only now: a wedged batch needs the watchdog to unwind before the
  // workers can join.
  if (watchdog_.joinable()) {
    {
      std::lock_guard<std::mutex> lock(watch_mutex_);
      watchdog_stop_ = true;
    }
    watch_cv_.notify_all();
    watchdog_.join();
  }
  {
    std::lock_guard<std::mutex> lock(mutex_);
    joined_ = true;
    // Everything in flight has resolved (workers are joined); retired
    // generations are done by definition now.
    draining_.clear();
  }
  drain_cv_.notify_all();
}

std::vector<std::string> FleetServer::names() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<std::string> result;
  result.reserve(live_.size());
  for (const auto& [name, model] : live_) result.push_back(name);
  return result;
}

std::shared_ptr<const CompiledModel> FleetServer::model(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = live_.find(name);
  TEMCO_CHECK_AS(it != live_.end(), InvalidGraphError)
      << "no model installed under '" << name << "'";
  return it->second->compiled;
}

SessionPool& FleetServer::session_pool(const std::string& name) {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = live_.find(name);
  TEMCO_CHECK_AS(it != live_.end(), InvalidGraphError)
      << "no model installed under '" << name << "'";
  return *it->second->pool;
}

std::vector<metrics::ModelSnapshot> FleetServer::snapshot() const {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto now = std::chrono::steady_clock::now();
  std::vector<metrics::ModelSnapshot> result;
  result.reserve(live_.size());
  for (const auto& [name, model] : live_) {
    metrics::ModelSnapshot s = metrics::snapshot(*model->metrics);
    s.name = name;
    s.uptime_seconds = seconds_between(model->installed_at, now);
    s.requests_per_second =
        s.uptime_seconds > 0.0 ? static_cast<double>(s.completed) / s.uptime_seconds : 0.0;
    s.batch_cap = model->batch_cap;
    s.batch_timeout_us = model->batch_timeout.count();
    s.arrival_rate_hat = model->arrival_rate_hat;
    s.slo_target_p99_ms =
        std::chrono::duration<double, std::milli>(model->slo.target_p99).count();
    s.weight = model->slo.weight;
    s.degraded = model->degraded.load(std::memory_order_relaxed);
    result.push_back(std::move(s));
  }
  return result;
}

std::string FleetServer::metrics_json() const { return metrics::to_json(snapshot()); }

}  // namespace temco::serve
