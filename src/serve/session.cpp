#include "serve/session.hpp"

#include <cstdlib>
#include <cstring>
#include <thread>

#include "support/align.hpp"
#include "support/failpoint.hpp"
#include "support/log.hpp"

namespace temco::serve {

namespace {

// Fault-injection sites on the serving execution path (support/failpoint.hpp).
// exec_transient models a spurious, retry-safe fault (a flaky accelerator
// step, a transient allocator hiccup); wedge_batch models a hung batch — it
// parks the worker until the session's cancel token stops it, which is
// exactly the situation the serving watchdog exists to resolve.
failpoints::Site fp_exec_transient{"serve.exec_transient"};
failpoints::Site fp_wedge_batch{"serve.wedge_batch"};

}  // namespace

Session::Session(std::shared_ptr<const CompiledModel> model)
    : model_(std::move(model)),
      graph_(ir::rebatched(model_->graph(1), static_cast<std::int64_t>(model_->max_batch()))),
      slab_(nullptr, [](float* p) { std::free(p); }) {
  // Fail fast if this runtime cannot read the artifact's packed weights
  // (layout version); merely different ISA dispatch is logged, not fatal.
  model_->revalidate_kernel_dispatch();
  const std::int64_t bytes = model_->slab_bytes();
  float* raw = static_cast<float*>(std::aligned_alloc(static_cast<std::size_t>(kTensorAlignment),
                                                      static_cast<std::size_t>(bytes)));
  TEMCO_CHECK_AS(raw != nullptr, ResourceExhaustedError)
      << "session arena allocation of " << bytes << " bytes failed";
  // The executor never initializes a bound slab; fill it once here the same
  // way an owned slab would be (runtime/executor.cpp bind_arena).
  std::memset(raw, model_->options().arena_canaries ? runtime::kArenaPoisonByte : 0,
              static_cast<std::size_t>(bytes));
  slab_.reset(raw);

  // Both executors bind the same slab, the model's one plan and its packing.
  runtime::ExecutorBinding binding;
  binding.prepack = &model_->prepack();
  binding.plan = &model_->plan();
  binding.slab = raw;
  binding.slab_bytes = bytes;
  runtime::ExecutorOptions exec_options;
  exec_options.use_arena = true;
  exec_options.check_numerics = model_->options().check_numerics;
  exec_options.arena_canaries = model_->options().arena_canaries;
  exec_options.intra_op_threads = model_->options().intra_op_threads;
  exec_options.cancel = &token_;
  executor_ = std::make_unique<runtime::Executor>(graph_, exec_options, binding);

  // The circuit breaker's isolation executor: kernels pinned serial, numeric
  // checks forced on regardless of compile options.  Same slab and plan as
  // the normal executor, so it costs no extra memory.
  exec_options.check_numerics = true;
  exec_options.intra_op_threads = 1;
  degraded_executor_ = std::make_unique<runtime::Executor>(graph_, exec_options, binding);

  // Max-batch staging storage, with one prebuilt view per batch k.  The
  // batch dimension is outermost, so "the first k rows" is a prefix of the
  // same contiguous buffer — a view costs a handle, not a copy.
  const std::size_t max_batch = model_->max_batch();
  auto stage = [max_batch](const Shape& row, std::vector<std::vector<Tensor>>& views) {
    Buffer storage = allocate_buffer(row.numel() * static_cast<std::int64_t>(max_batch));
    for (std::size_t k = 1; k <= max_batch; ++k) {
      views[k - 1].emplace_back(row.with_dim(0, static_cast<std::int64_t>(k)), storage);
    }
  };
  views_in_.resize(max_batch);
  views_out_.resize(max_batch);
  for (std::size_t i = 0; i < model_->num_inputs(); ++i) {
    stage(model_->input_shape(i), views_in_);
  }
  for (std::size_t o = 0; o < model_->num_outputs(); ++o) {
    stage(model_->output_shape(o), views_out_);
  }
}

std::vector<std::vector<Tensor>> Session::run_batch(
    const std::vector<const std::vector<Tensor>*>& requests, RunMode mode) {
  const std::size_t k = requests.size();
  TEMCO_CHECK_AS(k >= 1, InvalidGraphError) << "run_batch needs at least one request";
  TEMCO_CHECK_AS(k <= model_->max_batch(), ResourceExhaustedError)
      << "batch of " << k << " requests exceeds the compiled max_batch "
      << model_->max_batch();
  TEMCO_CHECK_AS(mode == RunMode::kNormal || k == 1, InvalidGraphError)
      << "degraded mode runs singleton batches only, got " << k;
  for (const std::vector<Tensor>* request : requests) {
    TEMCO_CHECK_AS(request != nullptr, InvalidGraphError) << "null request in batch";
    model_->check_compatible(*request);
  }

  if (fp_exec_transient.fire()) {
    throw TransientFaultError(
        "serve.exec_transient failpoint: injected transient execution fault");
  }
  if (fp_wedge_batch.fire()) {
    // Simulated hang: the worker is stuck "in the kernel" until someone with
    // the session's cancel token (the watchdog, a deadline) stops it.  Yield
    // rather than sleep so the wedge reacts within a scheduler quantum.
    while (!token_.stop_requested()) std::this_thread::yield();
    token_.raise_if_stopped();
  }

  // Gather: request r's input i becomes row r of staging input i.
  std::vector<Tensor>& staging_in = views_in_[k - 1];
  std::vector<Tensor>& staging_out = views_out_[k - 1];
  for (std::size_t i = 0; i < staging_in.size(); ++i) {
    const std::int64_t row = model_->input_shape(i).numel();
    float* base = staging_in[i].data();
    for (std::size_t r = 0; r < k; ++r) {
      std::memcpy(base + static_cast<std::int64_t>(r) * row, (*requests[r])[i].data(),
                  static_cast<std::size_t>(row) * sizeof(float));
    }
  }

  runtime::Executor& executor = mode == RunMode::kDegraded ? *degraded_executor_ : *executor_;
  executor.run_into(staging_in, staging_out);

  // Split: row r of each staging output becomes request r's response tensor.
  // Responses are fresh heap tensors — they outlive the session checkout.
  std::vector<std::vector<Tensor>> responses(k);
  for (std::size_t r = 0; r < k; ++r) {
    responses[r].reserve(staging_out.size());
    for (std::size_t o = 0; o < staging_out.size(); ++o) {
      const std::int64_t row = model_->output_shape(o).numel();
      Tensor out = Tensor::zeros(model_->output_shape(o));
      std::memcpy(out.data(), staging_out[o].data() + static_cast<std::int64_t>(r) * row,
                  static_cast<std::size_t>(row) * sizeof(float));
      responses[r].push_back(std::move(out));
    }
  }
  return responses;
}

std::vector<Tensor> Session::run(const std::vector<Tensor>& inputs) {
  return run_batch({&inputs}).front();
}

std::int64_t Session::quarantine_scrub() {
  const std::int64_t stomped =
      executor_->stomped_band_bytes() + degraded_executor_->stomped_band_bytes();
  // Poison-scrub: whatever the fault left behind, the next reader of these
  // bytes (there should be none — the session is about to be destroyed)
  // sees NaN patterns, never plausible stale activations.
  std::memset(slab_.get(), runtime::kArenaPoisonByte,
              static_cast<std::size_t>(model_->slab_bytes()));
  return stomped;
}

SessionPool::SessionPool(std::shared_ptr<const CompiledModel> model, std::size_t size)
    : model_(std::move(model)) {
  TEMCO_CHECK_AS(size >= 1, InvalidGraphError) << "session pool needs at least one session";
  sessions_.reserve(size);
  free_.reserve(size);
  for (std::size_t i = 0; i < size; ++i) {
    sessions_.push_back(std::make_unique<Session>(model_));
    free_.push_back(sessions_.back().get());
  }
}

SessionPool::Lease SessionPool::acquire() {
  std::unique_lock<std::mutex> lock(mutex_);
  free_cv_.wait(lock, [this] { return !free_.empty() || sessions_.empty(); });
  TEMCO_CHECK_AS(!sessions_.empty(), ResourceExhaustedError)
      << "session pool is defunct: every session was quarantined and no "
         "replacement could be constructed";
  Session* session = free_.back();
  free_.pop_back();
  return Lease(this, session);
}

std::optional<SessionPool::Lease> SessionPool::try_acquire() {
  std::lock_guard<std::mutex> lock(mutex_);
  if (free_.empty()) return std::nullopt;
  Session* session = free_.back();
  free_.pop_back();
  return Lease(this, session);
}

std::size_t SessionPool::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return sessions_.size();
}

std::size_t SessionPool::available() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return free_.size();
}

std::int64_t SessionPool::resident_bytes() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::int64_t total = 0;
  for (const auto& session : sessions_) total += session->arena_bytes();
  return total;
}

SessionPool::Stats SessionPool::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return counters_;
}

void SessionPool::quarantine(Lease&& lease) {
  TEMCO_CHECK(lease.pool_ == this && lease.session_ != nullptr)
      << "quarantine needs a live lease from this pool";
  Session* victim = lease.session_;
  // Detach: the lease must never put_back a session we are retiring.
  lease.pool_ = nullptr;
  lease.session_ = nullptr;

  const std::int64_t corrupt = victim->quarantine_scrub();
  if (corrupt > 0) {
    TEMCO_WARN() << "quarantined session had " << corrupt << " corrupted guard-band bytes";
  }

  // Build the replacement before touching pool structures: construction is
  // the expensive part (slab + executors) and the remaining sessions keep
  // serving while it happens.
  std::unique_ptr<Session> replacement;
  try {
    replacement = std::make_unique<Session>(model_);
  } catch (const std::exception& e) {
    TEMCO_WARN() << "quarantine replacement construction failed (" << e.what()
                 << "); pool shrinks by one session";
  }

  bool defunct = false;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    counters_.quarantined += 1;
    counters_.corrupt_band_bytes += corrupt;
    auto it = sessions_.begin();
    while (it != sessions_.end() && it->get() != victim) ++it;
    TEMCO_CHECK(it != sessions_.end()) << "quarantined session not owned by this pool";
    if (replacement != nullptr) {
      counters_.replaced += 1;
      free_.push_back(replacement.get());
      *it = std::move(replacement);  // destroys the scrubbed victim
    } else {
      counters_.replace_failures += 1;
      sessions_.erase(it);
      defunct = sessions_.empty();
    }
  }
  // Wake one waiter for the new free session — or everyone, so nobody blocks
  // forever on a pool that can never refill.
  if (defunct) {
    free_cv_.notify_all();
  } else {
    free_cv_.notify_one();
  }
}

void SessionPool::put_back(Session* session) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    free_.push_back(session);
  }
  free_cv_.notify_one();
}

void SessionPool::Lease::release() {
  if (session_ != nullptr && pool_ != nullptr) pool_->put_back(session_);
  pool_ = nullptr;
  session_ = nullptr;
}

}  // namespace temco::serve
