#ifndef ENTMATCHER_SERVE_STATS_H_
#define ENTMATCHER_SERVE_STATS_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/json.h"

namespace entmatcher {

/// A point-in-time copy of a MatchServer's serving counters, safe to read
/// after the server moved on. Exposed in-process via MatchServer::Stats()
/// and over the wire via the `stats` query.
struct ServerStatsSnapshot {
  /// Admission outcomes. submitted == admitted + rejected; every admitted
  /// request ends up in exactly one of timed_out / completed / failed.
  uint64_t submitted = 0;
  uint64_t admitted = 0;
  uint64_t rejected = 0;
  uint64_t timed_out = 0;
  uint64_t completed = 0;
  uint64_t failed = 0;

  /// Overload outcomes. `shed` counts rejections due to load (queue full or
  /// above the shed watermark) — a subset of `rejected`, so the admission
  /// invariant is untouched. `degraded` counts admitted requests rewritten
  /// onto the sparse candidate path — a subset of `admitted`.
  uint64_t shed = 0;
  uint64_t degraded = 0;

  /// Requests waiting in the queue when the snapshot was taken, and the
  /// deepest the queue has ever been.
  uint64_t queue_depth = 0;
  uint64_t max_queue_depth = 0;

  /// One batch == one similarity+transform pass over the score matrix, so
  /// `batches` is the total number of kernel passes the server paid;
  /// sequential execution would have paid one per executed query.
  uint64_t batches = 0;
  /// Queries that shared their pass with at least one other query.
  uint64_t batched_queries = 0;
  /// batch_size_hist[i] counts batches of size i+1; the last bucket absorbs
  /// anything larger.
  std::vector<uint64_t> batch_size_hist;

  /// Cross-request result cache: answers served without any pipeline work,
  /// probes that fell through to execution, entries evicted by the byte
  /// budget, and the bytes held when the snapshot was taken. All zero when
  /// the cache is disabled (result_cache_bytes budget 0).
  uint64_t cache_hits = 0;
  uint64_t cache_misses = 0;
  uint64_t cache_evictions = 0;
  uint64_t result_cache_bytes = 0;

  /// Successful snapshot publications after the initial load (SwapPair).
  uint64_t snapshot_swaps = 0;

  /// (pair name, current snapshot version), sorted by name — sampled from
  /// the registry by MatchServer::Stats so routers and tests can assert
  /// version state remotely.
  std::vector<std::pair<std::string, uint64_t>> pair_versions;

  /// End-to-end latency (enqueue to response) percentiles, from a log-scale
  /// histogram: values are upper bucket bounds, exact to within 2x.
  uint64_t latency_samples = 0;
  double latency_p50_micros = 0.0;
  double latency_p99_micros = 0.0;
  double latency_max_micros = 0.0;
  double latency_mean_micros = 0.0;

  /// The snapshot as a JSON object: the `stats` reply, and the part of the
  /// `health` reply the two share.
  JsonValue ToJson() const;
};

/// Thread-safe serving counters: admission outcomes, batch-size histogram,
/// and a log2-bucketed latency histogram for p50/p99 without storing samples.
///
/// Lock-free by construction: every counter is an atomic, so the writers —
/// admission on any client thread and the K serve workers — and a
/// concurrent `stats` query never contend and never race (the pre-refactor
/// implementation guarded a plain struct with a mutex that the read path
/// could bypass; the stats read-storm regression test pins this under
/// TSan). The ledger invariants (submitted == admitted + rejected,
/// admitted == timed_out + completed + failed) are exact at quiescent
/// points — after Shutdown, when all writers are joined. A mid-flight
/// Snapshot additionally never violates them *directionally* (submitted >=
/// admitted + rejected, admitted >= terminal outcomes): each record method
/// bumps the dependent counter with release ordering after its
/// prerequisite, and Snapshot loads in reverse-dependency order with
/// acquire — seeing the Nth admitted increment therefore guarantees seeing
/// at least N submitted increments. Everything else stays relaxed.
class ServerStats {
 public:
  /// `max_batch` sizes the batch histogram (one bucket per size 1..max).
  explicit ServerStats(size_t max_batch);

  void RecordRejected();
  void RecordAdmitted(size_t queue_depth_after);
  void RecordTimedOut();
  /// A load-shed rejection (always paired with RecordRejected).
  void RecordShed();
  /// An admitted request degraded to the sparse path (paired with
  /// RecordAdmitted).
  void RecordDegraded();
  /// One executed batch of `size` queries (one scores pass). Returns the
  /// batch's 1-based id — unique across workers, surfaced as
  /// ServeResponse::batch_id so tests can assert batch membership (e.g. no
  /// mixed-snapshot batch) from responses alone.
  uint64_t RecordBatch(size_t size);
  /// One finished query: outcome plus its enqueue-to-response latency.
  void RecordDone(bool ok, double latency_micros);
  /// A result-cache probe outcome.
  void RecordCacheHit();
  void RecordCacheMiss();
  /// A successful hot swap (snapshot publish after the initial load).
  void RecordSwap();

  /// `cache_evictions`/`cache_bytes` are sampled by the caller (the cache
  /// owns them), like `queue_depth_now`.
  ServerStatsSnapshot Snapshot(size_t queue_depth_now,
                               uint64_t cache_evictions = 0,
                               size_t cache_bytes = 0) const;

 private:
  // Buckets cover [2^i, 2^(i+1)) microseconds; 32 buckets reach ~1.2 hours.
  static constexpr size_t kLatencyBuckets = 32;

  /// fetch_max for an atomic double via compare-exchange (no std::atomic
  /// fetch_max; relaxed is fine, see class comment).
  static void UpdateMax(std::atomic<double>* target, double value);

  std::atomic<uint64_t> submitted_{0};
  std::atomic<uint64_t> admitted_{0};
  std::atomic<uint64_t> rejected_{0};
  std::atomic<uint64_t> timed_out_{0};
  std::atomic<uint64_t> completed_{0};
  std::atomic<uint64_t> failed_{0};
  std::atomic<uint64_t> shed_{0};
  std::atomic<uint64_t> degraded_{0};
  std::atomic<uint64_t> max_queue_depth_{0};
  std::atomic<uint64_t> batches_{0};
  std::atomic<uint64_t> batched_queries_{0};
  std::atomic<uint64_t> cache_hits_{0};
  std::atomic<uint64_t> cache_misses_{0};
  std::atomic<uint64_t> snapshot_swaps_{0};

  const size_t batch_hist_size_;
  std::unique_ptr<std::atomic<uint64_t>[]> batch_size_hist_;

  std::atomic<uint64_t> latency_samples_{0};
  std::array<std::atomic<uint64_t>, kLatencyBuckets> latency_hist_{};
  std::atomic<double> latency_max_micros_{0.0};
  std::atomic<double> latency_sum_micros_{0.0};
};

}  // namespace entmatcher

#endif  // ENTMATCHER_SERVE_STATS_H_
