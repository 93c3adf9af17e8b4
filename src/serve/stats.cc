#include "serve/stats.h"

#include <algorithm>
#include <cmath>

#include "common/json.h"
#include "la/kernels/dispatch.h"

namespace entmatcher {

namespace {

constexpr auto kRelaxed = std::memory_order_relaxed;
// Ledger counters with a prerequisite (admitted/rejected after submitted,
// terminal outcomes after admitted) are bumped with release and read with
// acquire in reverse-dependency order, so a mid-flight Snapshot can never
// observe e.g. admitted > submitted (see the class comment).
constexpr auto kRelease = std::memory_order_release;
constexpr auto kAcquire = std::memory_order_acquire;

// Index of the log2 bucket covering `micros`.
size_t LatencyBucket(double micros, size_t num_buckets) {
  if (micros < 1.0) return 0;
  const size_t bucket =
      static_cast<size_t>(std::floor(std::log2(micros)));
  return std::min(bucket, num_buckets - 1);
}

// Upper bound of the bucket where the cumulative count crosses
// `quantile * total` — exact to within the 2x bucket width.
double HistogramQuantile(const std::array<uint64_t, 32>& hist, uint64_t total,
                         double quantile) {
  if (total == 0) return 0.0;
  const uint64_t threshold = static_cast<uint64_t>(
      std::ceil(quantile * static_cast<double>(total)));
  uint64_t seen = 0;
  for (size_t i = 0; i < hist.size(); ++i) {
    seen += hist[i];
    if (seen >= threshold) return std::pow(2.0, static_cast<double>(i + 1));
  }
  return std::pow(2.0, static_cast<double>(hist.size()));
}

}  // namespace

ServerStats::ServerStats(size_t max_batch)
    : batch_hist_size_(std::max<size_t>(max_batch, 1)),
      batch_size_hist_(new std::atomic<uint64_t>[batch_hist_size_]) {
  for (size_t i = 0; i < batch_hist_size_; ++i) {
    batch_size_hist_[i].store(0, kRelaxed);
  }
}

void ServerStats::UpdateMax(std::atomic<double>* target, double value) {
  double observed = target->load(kRelaxed);
  while (value > observed &&
         !target->compare_exchange_weak(observed, value, kRelaxed)) {
  }
}

void ServerStats::RecordRejected() {
  submitted_.fetch_add(1, kRelaxed);
  rejected_.fetch_add(1, kRelease);
}

void ServerStats::RecordAdmitted(size_t queue_depth_after) {
  submitted_.fetch_add(1, kRelaxed);
  admitted_.fetch_add(1, kRelease);
  uint64_t observed = max_queue_depth_.load(kRelaxed);
  while (queue_depth_after > observed &&
         !max_queue_depth_.compare_exchange_weak(observed, queue_depth_after,
                                                 kRelaxed)) {
  }
}

void ServerStats::RecordShed() { shed_.fetch_add(1, kRelaxed); }

void ServerStats::RecordDegraded() { degraded_.fetch_add(1, kRelaxed); }

void ServerStats::RecordTimedOut() { timed_out_.fetch_add(1, kRelease); }

uint64_t ServerStats::RecordBatch(size_t size) {
  const uint64_t id = batches_.fetch_add(1, kRelaxed) + 1;
  if (size > 1) batched_queries_.fetch_add(size, kRelaxed);
  const size_t bucket = std::min(size, batch_hist_size_) - 1;
  batch_size_hist_[bucket].fetch_add(1, kRelaxed);
  return id;
}

void ServerStats::RecordDone(bool ok, double latency_micros) {
  (ok ? completed_ : failed_).fetch_add(1, kRelease);
  latency_samples_.fetch_add(1, kRelaxed);
  latency_hist_[LatencyBucket(latency_micros, kLatencyBuckets)].fetch_add(
      1, kRelaxed);
  UpdateMax(&latency_max_micros_, latency_micros);
  double sum = latency_sum_micros_.load(kRelaxed);
  while (!latency_sum_micros_.compare_exchange_weak(sum, sum + latency_micros,
                                                    kRelaxed)) {
  }
}

void ServerStats::RecordCacheHit() { cache_hits_.fetch_add(1, kRelaxed); }

void ServerStats::RecordCacheMiss() { cache_misses_.fetch_add(1, kRelaxed); }

void ServerStats::RecordSwap() { snapshot_swaps_.fetch_add(1, kRelaxed); }

ServerStatsSnapshot ServerStats::Snapshot(size_t queue_depth_now,
                                          uint64_t cache_evictions,
                                          size_t cache_bytes) const {
  ServerStatsSnapshot snap;
  // Reverse-dependency order: terminal outcomes, then admitted/rejected,
  // then submitted. Acquire on a counter makes every prerequisite
  // increment that happens-before it visible to the later loads, so the
  // directional ledger inequalities hold even mid-flight.
  snap.timed_out = timed_out_.load(kAcquire);
  snap.completed = completed_.load(kAcquire);
  snap.failed = failed_.load(kAcquire);
  snap.admitted = admitted_.load(kAcquire);
  snap.rejected = rejected_.load(kAcquire);
  snap.submitted = submitted_.load(kRelaxed);
  snap.shed = shed_.load(kRelaxed);
  snap.degraded = degraded_.load(kRelaxed);
  snap.queue_depth = queue_depth_now;
  snap.max_queue_depth = max_queue_depth_.load(kRelaxed);
  snap.batches = batches_.load(kRelaxed);
  snap.batched_queries = batched_queries_.load(kRelaxed);
  snap.cache_hits = cache_hits_.load(kRelaxed);
  snap.cache_misses = cache_misses_.load(kRelaxed);
  snap.cache_evictions = cache_evictions;
  snap.result_cache_bytes = cache_bytes;
  snap.snapshot_swaps = snapshot_swaps_.load(kRelaxed);
  snap.batch_size_hist.resize(batch_hist_size_);
  for (size_t i = 0; i < batch_hist_size_; ++i) {
    snap.batch_size_hist[i] = batch_size_hist_[i].load(kRelaxed);
  }
  std::array<uint64_t, kLatencyBuckets> hist;
  for (size_t i = 0; i < kLatencyBuckets; ++i) {
    hist[i] = latency_hist_[i].load(kRelaxed);
  }
  snap.latency_samples = latency_samples_.load(kRelaxed);
  const double max_micros = latency_max_micros_.load(kRelaxed);
  // Quantiles report the log2 bucket's upper bound; clamp to the observed
  // max so p50/p99 never exceed it.
  snap.latency_p50_micros = std::min(
      HistogramQuantile(hist, snap.latency_samples, 0.50), max_micros);
  snap.latency_p99_micros = std::min(
      HistogramQuantile(hist, snap.latency_samples, 0.99), max_micros);
  snap.latency_max_micros = max_micros;
  snap.latency_mean_micros =
      snap.latency_samples > 0
          ? latency_sum_micros_.load(kRelaxed) /
                static_cast<double>(snap.latency_samples)
          : 0.0;
  return snap;
}

JsonValue ServerStatsSnapshot::ToJson() const {
  JsonValue::Object pairs;
  for (const auto& [name, version] : pair_versions) pairs[name] = version;
  return JsonValue::Object{
      {"submitted", submitted}, {"admitted", admitted},
      {"rejected", rejected}, {"timed_out", timed_out},
      {"completed", completed}, {"failed", failed}, {"shed", shed},
      {"degraded", degraded}, {"queue_depth", queue_depth},
      {"max_queue_depth", max_queue_depth}, {"batches", batches},
      {"batched_queries", batched_queries},
      {"batch_size_hist",
       JsonValue::Array(batch_size_hist.begin(), batch_size_hist.end())},
      {"cache_hits", cache_hits}, {"cache_misses", cache_misses},
      {"cache_evictions", cache_evictions},
      {"result_cache_bytes", result_cache_bytes},
      {"snapshot_swaps", snapshot_swaps}, {"pairs", std::move(pairs)},
      {"latency_samples", latency_samples},
      {"latency_p50_micros", latency_p50_micros},
      {"latency_p99_micros", latency_p99_micros},
      {"latency_max_micros", latency_max_micros},
      {"latency_mean_micros", latency_mean_micros},
      {"kernels", KernelStatusJson()}};
}

}  // namespace entmatcher
