// First-class serving observability: lock-cheap per-model counters and
// fixed-bucket latency histograms, snapshot-exportable as JSON.
//
// Design rules (what "first-class" buys and what it costs):
//  - The hot path pays relaxed atomic increments and nothing else: no locks,
//    no allocation, no clock reads beyond what the caller already took.  A
//    histogram record is two adds and a relaxed max update.
//  - Histograms use FIXED log-scale buckets (4 per octave from 1 microsecond,
//    so neighboring buckets differ by 2^0.25 ~ 19%), which makes p50/p99
//    estimates mergeable, allocation-free, and stable across snapshots —
//    exactly what a fleet bench driver or an ops scraper needs.  Quantiles
//    are bucket-resolution estimates, not exact order statistics; the
//    per-bucket geometric midpoint bounds the error to one sub-octave.
//  - snapshot() is a torn-but-monotonic read: counters are sampled
//    individually without a global lock, so cross-counter invariants (e.g.
//    accepted == completed + failed + ...) hold only at quiescence.  That is
//    the standard metrics contract — a snapshot, not a transaction.
//
// The fleet server (serve/fleet.hpp) owns one ModelMetrics per installed
// model and stitches snapshots plus its adaptive-batcher state into the
// to_json export consumed by bench/serving.cpp and ops tooling.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

namespace temco::serve::metrics {

/// Fixed-bucket log-scale latency histogram.  Bucket i covers
/// [2^(i/4), 2^((i+1)/4)) microseconds; 96 buckets span 1 us to ~16.8 s,
/// with everything above clamped into the last bucket (the exact maximum is
/// tracked separately, so clamping loses tail shape, never the tail itself).
class LatencyHistogram {
 public:
  static constexpr std::size_t kBuckets = 96;
  static constexpr double kSubBucketsPerOctave = 4.0;

  /// Records one observation; safe from any thread, lock-free.
  void record_seconds(double seconds);

  /// Lower bound of bucket i in microseconds (2^(i/4)).
  static double bucket_lower_us(std::size_t i);

  struct Snapshot {
    std::array<std::uint64_t, kBuckets> counts{};
    std::uint64_t count = 0;
    std::uint64_t sum_us = 0;
    std::uint64_t max_us = 0;

    /// Bucket-resolution quantile estimate in milliseconds; q in [0, 1].
    /// Returns 0 when the histogram is empty.
    double quantile_ms(double q) const;
    double mean_ms() const;
    double max_ms() const { return static_cast<double>(max_us) / 1e3; }
  };

  Snapshot snapshot() const;

 private:
  std::array<std::atomic<std::uint64_t>, kBuckets> counts_{};
  std::atomic<std::uint64_t> count_{0};
  std::atomic<std::uint64_t> sum_us_{0};
  std::atomic<std::uint64_t> max_us_{0};
};

/// Per-model serving counters, gauges, and latency histograms.  All members
/// are atomics: recording is lock-free, reading is a snapshot.  Every
/// accepted request lands in exactly one of completed / failed / cancelled /
/// deadline_expired / hung_requests once it resolves; the rejected_*
/// counters partition the refused submits by cause.
struct ModelMetrics {
  // ---- request lifecycle counters (monotonic) -------------------------------
  std::atomic<std::uint64_t> submitted{0};            ///< submit() calls, admitted or not
  std::atomic<std::uint64_t> accepted{0};             ///< requests admitted to the queue
  std::atomic<std::uint64_t> rejected_queue_full{0};  ///< refused: queue at capacity
  std::atomic<std::uint64_t> rejected_slo{0};         ///< refused: predicted wait blows SLO/deadline
  std::atomic<std::uint64_t> rejected_deadline{0};    ///< refused: deadline already expired
  std::atomic<std::uint64_t> completed{0};            ///< futures fulfilled with outputs
  std::atomic<std::uint64_t> failed{0};               ///< futures failed with an execution error
  std::atomic<std::uint64_t> cancelled{0};            ///< futures failed with CancelledError
  std::atomic<std::uint64_t> deadline_expired{0};     ///< accepted requests that ran out of time
  std::atomic<std::uint64_t> hung_requests{0};        ///< futures failed fast by the watchdog
  /// Values that arrived past their request's deadline and were converted to
  /// DeadlineExceededError by the fleet's strict-SLO rule before the promise
  /// fanout — an accepted request never yields a usable answer late.  Each
  /// conversion means admission control admitted something it could not
  /// serve in time; the bench asserts this stays 0 in the closed-loop leg.
  std::atomic<std::uint64_t> value_past_deadline{0};

  // ---- fault path (fed by the existing retry/quarantine/breaker machinery) --
  std::atomic<std::uint64_t> retries{0};           ///< batch re-executions after transient faults
  std::atomic<std::uint64_t> quarantined{0};       ///< sessions retired after corrupting faults
  std::atomic<std::uint64_t> degraded_batches{0};  ///< batches executed in breaker-degraded mode
  std::atomic<std::uint64_t> breaker_trips{0};     ///< normal -> degraded transitions
  std::atomic<std::uint64_t> breaker_restores{0};  ///< degraded -> normal transitions
  std::atomic<std::uint64_t> hung_batches{0};      ///< batches flagged over the hang budget

  // ---- batching -------------------------------------------------------------
  std::atomic<std::uint64_t> batches{0};           ///< micro-batches executed
  std::atomic<std::uint64_t> batched_requests{0};  ///< requests summed over those batches
  std::atomic<std::uint64_t> max_batch_seen{0};    ///< largest coalesced batch so far

  // ---- gauges ---------------------------------------------------------------
  std::atomic<std::int64_t> queue_depth{0};           ///< requests currently queued
  std::atomic<std::int64_t> in_flight{0};             ///< claimed by a worker, unresolved
  std::atomic<std::int64_t> arena_resident_bytes{0};  ///< session-pool slab residency

  // ---- latency histograms ---------------------------------------------------
  LatencyHistogram latency;     ///< submit -> resolution (end to end)
  LatencyHistogram queue_wait;  ///< submit -> claimed by a worker
  LatencyHistogram exec;        ///< per-batch run_batch wall time

  /// Relaxed running-max update for max_batch_seen.
  void record_batch(std::uint64_t size, double exec_seconds);
};

/// One model's metrics, frozen for export.  Plain values only — safe to copy
/// around, compare, and serialize after the model itself is gone.
struct ModelSnapshot {
  std::string name;

  std::uint64_t submitted = 0, accepted = 0, rejected_queue_full = 0, rejected_slo = 0,
                rejected_deadline = 0, completed = 0, failed = 0, cancelled = 0,
                deadline_expired = 0, hung_requests = 0, value_past_deadline = 0;
  std::uint64_t retries = 0, quarantined = 0, degraded_batches = 0, breaker_trips = 0,
                breaker_restores = 0, hung_batches = 0;
  std::uint64_t batches = 0, batched_requests = 0, max_batch_seen = 0;
  std::int64_t queue_depth = 0, in_flight = 0, arena_resident_bytes = 0;

  LatencyHistogram::Snapshot latency;
  LatencyHistogram::Snapshot queue_wait;
  LatencyHistogram::Snapshot exec;

  // ---- derived / stitched in by the owner -----------------------------------
  double uptime_seconds = 0.0;
  double requests_per_second = 0.0;  ///< completed / uptime
  double batch_occupancy = 0.0;      ///< batched_requests / batches

  // Adaptive-batcher and SLO state.
  std::uint64_t batch_cap = 0;
  std::int64_t batch_timeout_us = 0;
  double arrival_rate_hat = 0.0;
  double slo_target_p99_ms = 0.0;
  double weight = 0.0;
  bool degraded = false;
};

/// Fills the counter/gauge/histogram part of a snapshot from live metrics.
/// The caller stitches in name, uptime, and any adaptive state it owns.
ModelSnapshot snapshot(const ModelMetrics& metrics);

/// Renders snapshots as one JSON document:
///   {"models": [{...}, ...]}
/// Keys are stable; histograms export count/mean/p50/p99/max (the full
/// bucket vectors stay in-process — quantiles are what dashboards consume).
std::string to_json(const std::vector<ModelSnapshot>& models);

/// Renders one snapshot as a JSON object (no surrounding document).
void append_json(std::string& out, const ModelSnapshot& snapshot);

}  // namespace temco::serve::metrics
