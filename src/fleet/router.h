#ifndef ENTMATCHER_FLEET_ROUTER_H_
#define ENTMATCHER_FLEET_ROUTER_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/json.h"
#include "common/status.h"
#include "fleet/merge.h"
#include "fleet/plan.h"
#include "serve/client.h"
#include "serve/protocol.h"
#include "serve/socket_server.h"

namespace entmatcher {

/// What the router answers when a range has no live owner at all.
enum class PartialPolicy {
  /// Refuse the whole query (kUnavailable) — the default, and the only
  /// behavior before v3. A client never sees a partial answer it did not
  /// opt into.
  kUnavailable,
  /// Degrade: answer from the ranges that do have live owners, fill the
  /// rest with -1 placeholders, and annotate the response with
  /// coverage=LO:HI,... so the client knows exactly which rows are
  /// authoritative. Degraded answers are never cached (mirroring the
  /// serve-side shed rule) and the version guarantee is NOT relaxed —
  /// mixed-version parts still refuse.
  kDegrade,
};

/// Router tuning knobs (the fleet-level options object). What each pair
/// serves is not among them: the router records it from its own swaps
/// (see Router).
struct RouterConfig {
  /// Per-sub-query retry discipline (idempotent reads only — swap fan-out
  /// never retries). Honors shard retry-after hints via ServeClient.
  RetryPolicy retry;
  /// Hedging: after a range's primary has been in flight this long without
  /// answering, launch the same sub-query on the next replica and take
  /// whichever succeeds first. 0 disables (replicas then serve failover
  /// only). Safe because sub-queries are idempotent reads.
  uint64_t hedge_micros = 0;
  /// Circuit breaker: consecutive transport failures on one channel that
  /// trip it open (0 disables the breaker entirely). While open, attempts
  /// fail fast without dialing — a flapping shard stops eating retry and
  /// hedge budget.
  uint32_t breaker_failures = 3;
  /// How long an open breaker cools down before the next attempt is let
  /// through as the half-open probe. Deterministic: a fixed duration, not a
  /// randomized one, so chaos tests can assert exact transition ledgers.
  uint64_t breaker_cooldown_micros = 100000;
  /// What to do when a range has no live owner (see PartialPolicy).
  PartialPolicy partial_policy = PartialPolicy::kUnavailable;
};

/// Point-in-time router counters. The query ledger is exact once in-flight
/// work drains: queries == ok + degraded + failed, and every sub-query
/// outcome is one of ok / hedged-away / failed-over / failed.
struct RouterStatsSnapshot {
  uint64_t queries = 0;
  uint64_t ok = 0;
  uint64_t failed = 0;
  /// Partial answers served under PartialPolicy::kDegrade (not counted in
  /// ok — a degraded answer is an explicit middle outcome).
  uint64_t degraded = 0;
  uint64_t subqueries = 0;
  /// Hedge launches (a second replica raced a slow primary).
  uint64_t hedges = 0;
  /// Failovers: a sub-query attempt failed and another owner was tried.
  uint64_t failovers = 0;
  /// Merges refused because shards answered from different snapshot
  /// versions. Must stay 0 outside a swap window.
  uint64_t version_mismatches = 0;
  uint64_t swap_fanouts = 0;
  uint64_t swap_failures = 0;
  /// Circuit-breaker transition totals across all channels: closed→open
  /// (and half-open→open re-opens), open→half-open probes, →closed resets.
  uint64_t breaker_opens = 0;
  uint64_t breaker_half_opens = 0;
  uint64_t breaker_closes = 0;

  /// The router's `stats` reply, and `health`'s router_stats member.
  JsonValue ToJson() const;
};

/// The fleet's client-facing front end. Speaks the identical length-prefixed
/// protocol as a shard (through RouterHandler + SocketServer), but answers
/// match/topk by scatter-gather: each range of the queried pair becomes a
/// `route` sub-query to an owning shard, partial answers are merged
/// deterministically (fleet/merge.h), and the merged payload is returned as
/// if one process had served the union — bit-identical, by construction.
///
/// Failure discipline per range: owners are tried in plan order (primary
/// first, currently-Down channels demoted to the back and open-breaker
/// channels behind those), each attempt runs under the RetryPolicy, a
/// transport failure marks the channel Down, advances its circuit breaker,
/// and fails over to the next owner. A breaker that trips open fails fast
/// for breaker_cooldown_micros, then lets one attempt through as the
/// half-open probe. Channels quarantined by the supervisor (dead or
/// restarted-but-unconverged shards) are skipped entirely; if that leaves a
/// range with no owner, partial_policy decides between refusing the query
/// and answering degraded with a coverage annotation. With hedge_micros >
/// 0, a slow primary is raced by the next replica instead of waited out. A
/// shard whose `hello` handshake reports a different protocol version is
/// marked incompatible and refused permanently (kFailedPrecondition —
/// config error, not a transient).
///
/// Threads: a routed query starts none. Each channel owns one attempt
/// thread that runs the attempts launched on it in FIFO order (the channel
/// serves one frame at a time anyway), and the caller's thread scatters
/// every range, then runs failover and hedging for all of them in one loop
/// over the query's gather record. A hedged-away attempt finishes on its
/// channel thread after the query has returned.
///
/// Swap fan-out (all-or-nothing): `swap` on the router forwards to every
/// shard owning the pair, sequentially, never retrying (swap is not
/// idempotent-safe). Success requires every owner to confirm the same new
/// version. On partial failure the router reports which shards diverged —
/// and the no-mixed-version merge guarantee means reads refuse to splice
/// old and new answers until a repair swap converges the fleet (re-issue
/// the same swap; converged shards just republish the same files).
///
/// The router keeps the one record of what each pair serves: the files and
/// version of its last converged swap, or the plan's files at version 0
/// until one converges. Converge re-joins a restarted shard onto that
/// record. Swap and Converge run under one mutex, so a re-join never
/// interleaves with a fan-out.
class Router {
 public:
  /// Validates `plan`, builds the channel set and starts one attempt thread
  /// per channel. Connections are dialed lazily on first use, so a router
  /// can start before its shards.
  static Result<std::unique_ptr<Router>> Create(ShardPlan plan,
                                                RouterConfig config);

  /// Joins the channel threads once every attempt already queued on them
  /// (hedged-away stragglers included) has run.
  ~Router();

  Router(const Router&) = delete;
  Router& operator=(const Router&) = delete;

  /// Scatter-gather for a client match/topk request (request.route must be
  /// false — the router issues route sub-queries, it does not accept them).
  /// On success the response carries the merged values and the uniform
  /// snapshot version.
  Result<WireResponse> Query(const WireRequest& request);

  /// Fan-out swap (see class comment). Returns the confirmation text.
  Result<std::string> Swap(const WireRequest& request);

  /// Supervision hooks (FleetSupervisor). Quarantine bars a shard's channel
  /// from every query path — a dead or restarting shard must not be dialed,
  /// and above all a restarted-but-unconverged shard must not contribute
  /// parts (a newcomer boots at version 1 on the plan's files). Converge
  /// re-joins it: for each pair the shard owns, it swaps the shard onto the
  /// pair's recorded files at exactly the recorded version (the last swap
  /// fan-out that converged), unless the shard already reports that version
  /// or a later one. A peer left ahead by a partial fan-out is not
  /// followed: reads spanning it and the newcomer refuse as mixed versions
  /// until a repair swap. An unreachable newcomer, or a swap that does not
  /// land on the target, fails the re-join. Readmit then opens the channel:
  /// breaker reset to closed, state back to unknown, connection redialed
  /// lazily. All kNotFound for an unknown shard id.
  Status Quarantine(int shard_id);
  Status Converge(int shard_id);
  Status Readmit(int shard_id);

  /// Supplies the supervisor's StatusJson for FleetHealthJson's
  /// "supervisor" member (unset = member omitted). A function, not a
  /// pointer, to keep this header free of the supervisor type.
  void SetSupervisorStatus(std::function<JsonValue()> status_fn) {
    supervisor_status_ = std::move(status_fn);
  }

  /// The router's `health` reply: role, protocol and router_stats, plus
  /// every shard's ChannelJson with its parsed live `health` (or an
  /// `error` string).
  std::string FleetHealthJson();

  /// The `shards` reply: the plan plus every shard's ChannelJson, without
  /// touching the network.
  std::string ShardsJson() const;

  RouterStatsSnapshot Stats() const;

 private:
  enum class ChannelState { kUnknown, kUp, kDown, kIncompatible };

  /// Circuit-breaker state machine per channel: kClosed (normal) → kOpen on
  /// breaker_failures consecutive transport failures; kOpen fails fast
  /// until breaker_cooldown_micros elapse, then the next attempt runs as
  /// the kHalfOpen probe — success closes the breaker, failure re-opens it
  /// (and restarts the cooldown clock).
  enum class BreakerState { kClosed, kOpen, kHalfOpen };

  /// One query's gather record, shared by the caller's thread, which
  /// launches attempts and decides failover and hedging, and the channel
  /// threads, which post each attempt's outcome. Queued attempts hold it,
  /// so it outlives the query while hedged-away attempts still run.
  struct Gather {
    struct Range {
      WireRequest subrequest;  // the routed sub-query every owner gets
      std::vector<int> order;  // owners in failover order
      size_t next_owner = 0;   // order[next_owner] is the next launch
      size_t launched = 0;
      size_t finished = 0;
      /// The latest launch or failed attempt: a range with no winner
      /// hedges hedge_micros after it.
      std::chrono::steady_clock::time_point window_start;
      std::optional<RangePart> winner;
      Status last_failure;
    };
    std::mutex mu;
    std::condition_variable cv;
    std::vector<Range> ranges;  // sized once, before the first launch
  };

  /// An attempt waiting on a channel: range `range` of `gather`.
  struct QueuedAttempt {
    std::shared_ptr<Gather> gather;
    size_t range = 0;
  };

  /// One shard's long-lived connection: lazily dialed, handshake-checked,
  /// serialized by a per-channel mutex (the protocol is one frame out, one
  /// frame in — concurrent callers must not interleave frames).
  struct Channel {
    int id = 0;
    std::string socket_path;
    std::mutex mu;
    std::optional<ServeClient> client;
    bool hello_checked = false;
    std::atomic<ChannelState> state{ChannelState::kUnknown};
    std::string last_error;  // guarded by mu
    /// False while quarantined by the supervisor (dead, or restarted but
    /// not yet version-converged): the channel is skipped everywhere.
    std::atomic<bool> admitted{true};
    std::atomic<BreakerState> breaker{BreakerState::kClosed};
    uint32_t consecutive_failures = 0;               // guarded by mu
    std::chrono::steady_clock::time_point opened_at;  // guarded by mu
    /// Transition ledgers (see RouterStatsSnapshot).
    std::atomic<uint64_t> opens{0};
    std::atomic<uint64_t> half_opens{0};
    std::atomic<uint64_t> closes{0};
    /// The attempt thread and its FIFO; `closing` ends the thread once the
    /// queue is empty.
    std::mutex queue_mu;
    std::condition_variable queue_cv;
    std::deque<QueuedAttempt> queue;  // guarded by queue_mu
    bool closing = false;             // guarded by queue_mu
    std::thread thread;
  };

  Router(ShardPlan plan, RouterConfig config);

  Channel* FindChannel(int shard_id);

  /// One channel as `health` and `shards` report it: id, socket, state,
  /// admitted, and breaker {state, opens, half_opens, closes}.
  static JsonValue ChannelJson(const Channel& channel);

  /// One attempt against one shard: breaker gate first (fail fast while
  /// open, probe when cooled down), then connect + hello if needed, then
  /// CallWithRetry. Marks the channel Up/Down/Incompatible by outcome and
  /// advances the breaker state machine.
  Result<WireResponse> Attempt(Channel* channel, const WireRequest& request);

  /// Breaker bookkeeping (channel->mu held): a transport-level failure
  /// bumps the consecutive counter and opens the breaker at the threshold
  /// (a failed half-open probe re-opens immediately); any transport-level
  /// success resets the counter and closes the breaker.
  void NoteChannelFailure(Channel* channel);
  void NoteChannelSuccess(Channel* channel);

  /// A range's owners in failover order; empty when none is admitted.
  std::vector<int> FailoverOrder(const RangeSpec& range);

  /// Queues the range's next owner attempt on that owner's channel
  /// (gather->mu held).
  void Launch(const std::shared_ptr<Gather>& gather, size_t range);

  /// A channel thread: runs queued attempts in order and posts each
  /// outcome into its gather record.
  void RunChannel(Channel* channel);

  /// Plain single-shot call used by health aggregation, swap and re-join.
  /// No retry, except one redial and resend when the request's write fails
  /// on a cached connection (the shard's socket server restarted since).
  Result<WireResponse> AttemptOnce(Channel* channel,
                                   const WireRequest& request);

  /// The steps of Swap and Converge. Owners: every shard listed on one
  /// of the pair's ranges, in plan order. ProbeVersion: one owner's version
  /// of `pair` from its `health` reply (0 when it lists no such pair), or
  /// the failure when the owner does not answer. SwapPinned: sends the swap
  /// `pinned` to one owner and confirms that it published exactly
  /// pinned.swap_min_version; the owner's reply text.
  std::vector<int> Owners(const PairSpec& pair) const;
  Result<uint64_t> ProbeVersion(Channel* channel, const std::string& pair);
  Result<std::string> SwapPinned(Channel* channel, const WireRequest& pinned);

  ShardPlan plan_;
  RouterConfig config_;
  std::vector<std::unique_ptr<Channel>> channels_;

  std::function<JsonValue()> supervisor_status_;

  /// Serializes Swap and Converge, and guards served_.
  std::mutex swap_mu_;
  /// What each pair serves, by pair name, as the swap that puts an owner
  /// on it: the files and pinned version of its last converged swap, or
  /// the plan's files at version 0.
  std::map<std::string, WireRequest> served_;

  std::atomic<uint64_t> queries_{0};
  std::atomic<uint64_t> ok_{0};
  std::atomic<uint64_t> failed_{0};
  std::atomic<uint64_t> degraded_{0};
  std::atomic<uint64_t> subqueries_{0};
  std::atomic<uint64_t> hedges_{0};
  std::atomic<uint64_t> failovers_{0};
  std::atomic<uint64_t> version_mismatches_{0};
  std::atomic<uint64_t> swap_fanouts_{0};
  std::atomic<uint64_t> swap_failures_{0};
};

/// WireHandler over a Router: the fleet front end behind a SocketServer.
/// Dispatches hello (role "router"), match/topk (scatter-gather), swap
/// (fan-out), health (fleet aggregate), shards, stats, shutdown; refuses
/// `route` (a shard-side verb — clients never address ranges directly).
class RouterHandler : public WireHandler {
 public:
  explicit RouterHandler(Router* router) : router_(router) {}

  std::string Handle(const std::string& payload, bool* shutdown) override;

 private:
  Router* router_;
};

}  // namespace entmatcher

#endif  // ENTMATCHER_FLEET_ROUTER_H_
