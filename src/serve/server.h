#ifndef ENTMATCHER_SERVE_SERVER_H_
#define ENTMATCHER_SERVE_SERVER_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/status.h"
#include "la/matrix.h"
#include "matching/engine.h"
#include "matching/snapshot.h"
#include "matching/types.h"
#include "serve/result_cache.h"
#include "serve/stats.h"

namespace entmatcher {

class CandidateIndex;

/// Tuning knobs of a MatchServer.
struct MatchServerConfig {
  /// Bound of the request queue, the one place a request waits for a free
  /// worker; a Submit that finds it full is rejected with kUnavailable + a
  /// retry-after hint instead of blocking (backpressure stays at the client,
  /// the backlog never grows past this bound).
  size_t queue_capacity = 256;
  /// Upper bound on queries coalesced into one similarity+transform pass.
  /// 1 disables micro-batching (strict per-request execution).
  size_t max_batch = 8;
  /// How long after a batch's first request was admitted the worker that
  /// collects it keeps the batch open for more compatible requests. A head
  /// that already waited that long behind a busy pool flushes at once. 0
  /// flushes immediately with whatever is already queued.
  uint64_t flush_micros = 200;
  /// Per-engine workspace-arena budget in bytes (0 = unlimited); each
  /// request's DeclaredWorkspaceBytes is pre-checked against it at admission.
  size_t workspace_budget_bytes = 0;
  /// Overload shedding: a queue depth at or above this watermark sheds new
  /// requests with kUnavailable + a retry-after hint *before* they queue —
  /// under sustained overload, bounded staleness beats an ever-deeper queue
  /// whose tail is doomed to time out anyway. 0 disables shedding (only the
  /// hard queue_capacity bound rejects, also with kUnavailable).
  size_t shed_watermark = 0;
  /// Graceful degradation: at or above this depth, an eligible dense kMatch
  /// request (sparse-capable transform+matcher, no index of its own, and an
  /// index attached for the pair via AttachIndex) is rewritten to the sparse
  /// candidate path — approximate answers at a fraction of the kernel cost.
  /// Checked before shed_watermark, so degrade < shed means "degrade first,
  /// shed only deeper". 0 disables; otherwise it must be below
  /// queue_capacity, where a full queue refuses before degrading.
  size_t degrade_watermark = 0;
  /// Candidates per source row / probe knobs used for degraded requests
  /// (nprobe feeds an IVF pair index, ef an HNSW one; the inactive knob is
  /// canonically zeroed out of the batch signature).
  size_t degrade_num_candidates = 32;
  size_t degrade_nprobe = 4;
  size_t degrade_ef = 64;
  /// Worker threads. Each free worker takes its next batch straight from
  /// the queue and executes it; batches over different pairs or signatures
  /// run truly concurrently. 0 = resolve from EM_SERVE_WORKERS, falling back
  /// to std::thread::hardware_concurrency(). Responses are bit-identical at
  /// every worker count (one worker collects at a time, and each batch
  /// executes sequentially on the worker that collected it).
  size_t serve_workers = 0;
  /// Byte budget of the cross-request LRU result cache (0 = disabled). A
  /// cached answer is returned without any pipeline work; keys include the
  /// snapshot version, so hot swaps can never serve stale bytes.
  size_t result_cache_bytes = 0;
};

/// What a ServeRequest asks of the engine.
enum class ServeQueryKind {
  /// Full pipeline: transformed scores + decision stage -> Assignment.
  kMatch,
  /// Transformed scores + RowTopKIndices -> flattened (rows × k) candidates.
  kTopK,
};

/// One client query against a loaded embedding pair.
struct ServeRequest {
  /// Name the pair was loaded under (LoadPair).
  std::string pair = "default";
  ServeQueryKind kind = ServeQueryKind::kMatch;
  /// Pipeline configuration; the ScoreSignature part is the batching key.
  MatchOptions options;
  /// Candidates per source row (kTopK only; clamped to target rows).
  size_t topk = 10;
  /// End-to-end deadline measured from Submit; a request still queued when
  /// it expires is answered kDeadlineExceeded without executing. 0 = none.
  uint64_t timeout_micros = 0;
  /// Routed sub-query: answer only source rows [row_begin, row_end), bit-
  /// identical to those rows of the full answer. A row-local query
  /// (MatchEngine::IsRowLocal) scores only these rows; any other scores the
  /// full pair and returns these rows. (0, 0) = all rows.
  size_t row_begin = 0;
  size_t row_end = 0;
  /// kTopK only: also return the transformed score of every returned
  /// candidate (bit-exact), so a router can merge partial lists by
  /// (score desc, id asc).
  bool want_scores = false;
};

/// The server's answer. Exactly one payload field is filled on success.
struct ServeResponse {
  Status status;
  /// kMatch payload.
  Assignment assignment;
  /// kTopK payload: flattened (rows × k') indices, k' = min(k, target rows).
  /// For a row-ranged request, rows = row_end - row_begin.
  std::vector<uint32_t> topk;
  /// kTopK with want_scores: transformed scores parallel to `topk`.
  std::vector<float> topk_scores;
  /// How many queries shared this response's scores pass (1 = ran alone; 0 =
  /// no pass ran: admission failure, expiry, or a result-cache hit).
  size_t batch_size = 0;
  /// Backoff hint accompanying a shed (kUnavailable) status; 0 = none.
  uint64_t retry_after_micros = 0;
  /// True when overload rewrote this request onto the sparse candidate path
  /// (the answer is approximate relative to the dense request submitted).
  bool degraded = false;
  /// Version of the PairSnapshot the answer was computed against (0 when no
  /// snapshot was touched). With batch_id this is what lets tests assert
  /// that no batch ever mixed snapshot versions.
  uint64_t snapshot_version = 0;
  /// Id of the executed batch this response rode in (ServerStats ids,
  /// 1-based; 0 = no batch executed for this response).
  uint64_t batch_id = 0;
  /// True when the answer came from the cross-request result cache.
  bool cached = false;
};

/// A long-lived, multi-client serving layer over immutable PairSnapshots.
///
/// Architecture: every loaded pair is an immutable, ref-counted
/// PairSnapshot in a SnapshotRegistry. Clients submit queries from any
/// thread into ONE bounded queue, where a request waits until a worker is
/// free. Each of the `serve_workers` worker threads then takes its next
/// batch straight from the queue: the head plus, from a window of max_batch
/// queued requests, those with equal (pair, ScoreSignature, row range) and
/// the same degrade mark; the rest stay at the front, in arrival order, for
/// the next free worker. One worker collects at a time, so batches form the
/// same way at every worker count. Each worker owns a private MatchEngine
/// per pair over the shared snapshot (embeddings and similarity caches are
/// read in place; only the workspace arena is per-worker). Batches over
/// different pairs or signatures therefore run truly concurrently, while
/// each batch executes sequentially on one worker — which is why every
/// response stays bit-identical to a solo MatchEngine::Match /
/// TransformedScores with the same options at EVERY worker count (pinned by
/// tests/serve/serve_concurrency_test.cc). No other queue holds requests,
/// so queue_capacity, the watermarks and Stats().queue_depth see the whole
/// backlog.
///
/// Hot swap: SwapPair builds a new snapshot (warming its caches first) and
/// atomically publishes it; a batch keeps the version its worker pinned when
/// it collected the batch, so a batch never mixes v and v+1 data, and the
/// displaced snapshot is freed when the last batch that pinned it drops its
/// reference.
///
/// Result cache: with result_cache_bytes > 0, a worker probes an LRU cache
/// keyed by (pair, snapshot version, ScoreSignature, matcher, kind, topk,
/// row range) before its scores pass; hits answer immediately with the
/// stored bytes (bit-identical — the pipeline is deterministic), misses
/// execute and insert. Degraded answers are never cached.
///
/// Admission control happens on the submitting thread, before queueing:
/// unknown pair (kNotFound), RL matcher (kInvalidArgument: no KG context in
/// the serving layer), a DeclaredWorkspaceBytes above the arena budget
/// (kResourceExhausted — the query is doomed, reject it now, not after it
/// queued behind real work; a row-local range declares only its rows), and
/// a full queue (kUnavailable + retry hint).
/// Under degrade_watermark pressure an eligible request is only *marked*
/// degraded at admission; the worker rewrites its options from the snapshot
/// it pins for the batch, so the rewritten candidate_index pointer can never
/// dangle across a swap.
///
/// Lifecycle: Create -> LoadPair (any number) -> Start -> Submit/Query ...
/// -> Shutdown (the workers drain the queue; a server that never started
/// answers what is queued with kFailedPrecondition). LoadPair, SwapPair,
/// and AttachIndex are allowed while running.
class MatchServer {
 public:
  static Result<std::unique_ptr<MatchServer>> Create(
      const MatchServerConfig& config);

  /// Shutdown() if still running.
  ~MatchServer();

  MatchServer(const MatchServer&) = delete;
  MatchServer& operator=(const MatchServer&) = delete;

  /// Publishes version 1 of (source, target) under `name` and warms its
  /// similarity cache. `base` provides session defaults; its
  /// workspace_budget_bytes is overridden by the server-level config.
  /// kAlreadyExists if the name is taken (use SwapPair to replace).
  Status LoadPair(const std::string& name, Matrix source, Matrix target,
                  const MatchOptions& base = MatchOptions());

  /// Attaches a candidate index to pair `name` (publishing a sibling
  /// snapshot that shares the embeddings) for degrade-to-sparse: under
  /// overload (degrade_watermark) eligible dense requests are served from it
  /// instead of being shed. The server takes ownership. kNotFound for an
  /// unloaded pair, kInvalidArgument when the index was built over a
  /// different target set, kAlreadyExists if one is attached.
  Status AttachIndex(const std::string& name,
                     std::unique_ptr<CandidateIndex> index);

  /// Hot swap: builds a fresh snapshot from (source, target) — with `index`
  /// attached when non-null — warms its similarity cache, and atomically
  /// publishes it as the next version of `name`. In-flight batches finish on
  /// the version they pinned; new batches see the new one; the result cache
  /// drops the pair's entries. On failure (including an armed
  /// "snapshot.publish" fault) the previous snapshot keeps serving
  /// untouched. Returns the published version. kNotFound for a pair never
  /// loaded — swap replaces, LoadPair introduces. min_version > 0 floors
  /// the published version (SnapshotRegistry::Publish) so a fleet-wide
  /// fan-out can pin one target version across shards with skewed counters.
  Result<uint64_t> SwapPair(const std::string& name, Matrix source,
                            Matrix target,
                            std::unique_ptr<CandidateIndex> index = nullptr,
                            uint64_t min_version = 0);

  /// The current snapshot of `name` (nullptr if unknown) — observability
  /// and tests; queries pin their own reference internally.
  std::shared_ptr<const PairSnapshot> CurrentSnapshot(
      const std::string& name) const;

  /// Spawns the `serve_workers` worker threads. Requests submitted before
  /// Start wait in the queue (handy for tests and warm-up scripts).
  /// kFailedPrecondition if already started or shut down.
  Status Start();

  /// Admission-checks `request` and enqueues it; the future resolves when
  /// a worker answers. Admission failures resolve immediately, with
  /// the failure also recorded in the stats (rejected count).
  std::future<ServeResponse> Submit(ServeRequest request);

  /// Blocking convenience: Submit + wait.
  ServeResponse Query(ServeRequest request);

  /// Current counters; `queue_depth` and the cache gauges are sampled at the
  /// call.
  ServerStatsSnapshot Stats() const;

  /// The `health` reply: the Stats() document plus queue capacity and
  /// watermarks, worker count, shed rate and the armed fault-plan
  /// fingerprint — what a probe needs to tell "slow" from "dying".
  std::string HealthJson() const;

  /// Stops accepting new work, lets the workers drain everything already
  /// queued (executing live requests; if no worker ever started, failing
  /// them), and joins them. Idempotent.
  void Shutdown();

  const MatchServerConfig& config() const { return config_; }

  /// The resolved worker-pool size (config.serve_workers after the
  /// EM_SERVE_WORKERS / hardware-concurrency fallback).
  size_t serve_workers() const { return num_workers_; }

 private:
  using Clock = std::chrono::steady_clock;

  struct Pending {
    ServeRequest request;
    std::promise<ServeResponse> promise;
    Clock::time_point enqueued;
    Clock::time_point deadline;  // time_point::max() when none
    bool degraded = false;       // overload marked it for the sparse path
  };

  /// A worker's warm engine over one pair's snapshot.
  struct WorkerEngine {
    uint64_t version = 0;
    std::unique_ptr<MatchEngine> engine;
  };

  explicit MatchServer(const MatchServerConfig& config);

  /// Worker body: collect a batch, execute it, until stopping and drained.
  void WorkerLoop();

  /// Blocks until the queue holds a request (or the server stops) and takes
  /// the next batch: the head plus the requests of the head's max_batch
  /// window that share its scores pass and degrade mark, waiting until
  /// flush_micros after the head's admission for the window to fill. One
  /// worker collects at a time. Empty result means shutdown.
  std::vector<Pending> NextBatch();

  /// Executes one batch as one scores pass on the calling worker's engines:
  /// pins the pair's snapshot for the whole batch, answers expired requests
  /// and result-cache hits, and rewrites degraded ones from the pinned
  /// snapshot. Pinning once per batch — not per request — is what makes a
  /// mixed-version batch structurally impossible.
  void ExecuteGroup(std::vector<Pending> group,
                    std::map<std::string, WorkerEngine>* engines);

  /// Answers `pending` and updates outcome/latency stats.
  void Respond(Pending* pending, ServeResponse response);

  /// Backoff hint attached to shed responses: a time-to-drain estimate from
  /// the observed queue depth and the measured batch execution time.
  uint64_t RetryAfterHintMicros(size_t queue_depth) const;

  MatchServerConfig config_;
  size_t num_workers_ = 1;
  ServerStats stats_;
  ResultCache cache_;

  /// name -> current immutable snapshot.
  SnapshotRegistry registry_;

  /// Per-pair session defaults (LoadPair's `base` with the server budget);
  /// worker engines are built from these.
  mutable std::mutex pairs_mu_;
  std::map<std::string, MatchOptions> base_options_;

  mutable std::mutex queue_mu_;
  std::condition_variable queue_cv_;
  std::deque<Pending> queue_;
  bool stopping_ = false;

  /// Held by the one worker collecting a batch, across its flush wait; the
  /// others queue up behind it. Taken before queue_mu_.
  std::mutex collect_mu_;

  // Serializes Start/Shutdown (thread spawn + join); never taken by the
  // workers.
  std::mutex lifecycle_mu_;
  std::vector<std::thread> workers_;

  /// Wall time the workers spent in ExecuteGroup, over how many batches.
  std::atomic<uint64_t> exec_micros_total_{0};
  std::atomic<uint64_t> exec_batches_{0};
};

}  // namespace entmatcher

#endif  // ENTMATCHER_SERVE_SERVER_H_
