#ifndef ENTMATCHER_SERVE_PROTOCOL_H_
#define ENTMATCHER_SERVE_PROTOCOL_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/status.h"
#include "matching/types.h"

namespace entmatcher {

// Wire format of the serve front-end. -----------------------------------------
//
// Every message is one frame: a 4-byte little-endian unsigned payload length
// followed by that many payload bytes. Requests are a single text line;
// responses are a text header line optionally followed by a binary int32
// array. Deliberately dependency-free and greppable — `xxd` on a capture
// shows the whole conversation.
//
// Requests (protocol v3):
//   "hello"                            version handshake: responds with a
//                                      text JSON payload carrying protocol
//                                      and build versions plus the peer's
//                                      role ("shard" or "router"); the
//                                      router refuses shards whose protocol
//                                      differs from its own.
//   "match <ALGO> [pair=NAME] [timeout_us=N]"
//                                      full pipeline -> assignment
//   "topk <ALGO> <k> [pair=NAME] [timeout_us=N]"
//                                      transformed scores -> top-k indices
//   "route <PAIR> <LO>:<HI> match <ALGO> [timeout_us=N]"
//   "route <PAIR> <LO>:<HI> topk <ALGO> <k> [timeout_us=N]"
//                                      a router-issued sub-query: answer
//                                      only source rows [LO, HI) of PAIR,
//                                      bit-identical to those rows of the
//                                      full answer (a row-local preset
//                                      scores only them; any other scores
//                                      the full pair). Routed
//                                      topk responses additionally carry
//                                      the per-entry scores so the router
//                                      can merge by (score desc, id asc).
//   "stats"                            serving counters as JSON
//   "health"                           liveness JSON (queue depth, shed
//                                      rate, per-pair snapshot versions,
//                                      cache counters, fault-plan
//                                      fingerprint)
//   "shards"                           router only: shard plan + per-shard
//                                      channel state as JSON
//   "shutdown"                         stop the server after responding
//   "swap <PAIR> <SRC> <TGT> [index=PATH] [version=N]"
//                                      admin: hot-swap pair PAIR to the
//                                      embeddings at server-side paths
//                                      SRC/TGT (EMAT or EMBF: whatever
//                                      ReadMatrixBinary reads),
//                                      optionally attaching the candidate
//                                      index saved at PATH; responds
//                                      "swapped <PAIR> v<N>". version=N
//                                      floors the published snapshot
//                                      version — the router pins one target
//                                      version across its fan-out so a
//                                      repair swap re-converges shards with
//                                      skewed counters. On a router this
//                                      fans out to every owning shard with
//                                      all-or-nothing semantics. Names and
//                                      paths cannot contain spaces (the
//                                      request line is space-tokenized).
// <ALGO> is a paper preset name (DInf, CSLS, RInf, RInf-wr, RInf-pb, Sink.,
// Hun., SMat). timeout_us carries the client's end-to-end deadline onto the
// wire; a worker drops expired work before scoring and the engine checks
// the deadline between stages.
//
// Responses:
//   "ok values <n> [version=V] [range=LO:HI] [scores=M] [coverage=LO:HI,...]\n"
//       + n little-endian int32s + M little-endian float32 bit patterns
//                                    (match / topk payload; version tags the
//                                     pair snapshot that answered, range
//                                     echoes a routed sub-query's rows, and
//                                     scores carries bit-exact float scores
//                                     for routed topk merging. coverage= is
//                                     the router's degraded-answer marker:
//                                     only the listed source-row ranges are
//                                     authoritative, rows outside them are
//                                     -1 placeholders because no live shard
//                                     owned them. Absent = full coverage.
//                                     Degraded answers are never cached.)
//   "ok text\n" + UTF-8 text         (stats / health / hello payload)
//   "error <CODE> [retry_after_us=N] <message>"  (any failure)
// retry_after_us is the server's backoff hint on kUnavailable shed
// responses; well-behaved clients (ServeClient's RetryPolicy) wait at least
// that long before retrying.

/// The snapshot version a `health` reply reports for `pair` (its
/// "pairs": {"<pair>": V, ...} member); 0 when the reply does not parse,
/// lists no such pair, or gives a V that is not a positive integer.
uint64_t HealthPairVersion(std::string_view health_json,
                           const std::string& pair);

/// The version N of a shard's `swapped <PAIR> v<N>` reply to `swap`;
/// kInvalidArgument for a reply of any other shape.
Result<uint64_t> ParseSwappedVersion(std::string_view reply);

/// Wire protocol version, carried in the `hello` handshake. v2 added hello,
/// shards, route, pair= on match/topk, and the version/range/scores fields
/// of values responses. v3 added the coverage= field of values responses
/// (router partial-coverage degradation) — a v2 parser would refuse the
/// unknown field, so degraded answers require the handshake to agree on v3.
inline constexpr int kProtocolVersion = 3;

/// Hard cap on accepted frame payloads (1 GiB would be a corrupt length
/// prefix long before it is a real workload).
inline constexpr size_t kMaxFrameBytes = 64ull << 20;

/// Writes one frame to `fd`, handling short writes. IoError on failure.
Status WriteFrame(int fd, std::string_view payload);

/// Reads one frame from `fd`. kIoError on EOF mid-frame or socket error,
/// kInvalidArgument on an over-long length prefix; clean EOF before any
/// byte yields kNotFound (the peer simply closed).
Result<std::string> ReadFrame(int fd);

/// A parsed request line.
struct WireRequest {
  enum class Verb {
    kMatch,
    kTopK,
    kStats,
    kHealth,
    kShutdown,
    kSwap,
    kHello,
    kShards,
  };
  Verb verb = Verb::kMatch;
  AlgorithmPreset algorithm = AlgorithmPreset::kDInf;  // match/topk
  size_t k = 0;                                        // topk
  uint64_t timeout_micros = 0;                         // 0 = no deadline
  /// The served pair a match/topk addresses (pair=NAME; empty = the default
  /// pair), or — for swap — the pair to republish, together with the
  /// server-side files to load.
  std::string pair;
  std::string source_path;
  std::string target_path;
  std::string index_path;  // empty = no index on the new snapshot
  /// swap only (version=N): floor for the published snapshot version. The
  /// router pins one target version across a fan-out so shards whose local
  /// counters skewed (after a partial swap) re-converge; 0 = local counter.
  uint64_t swap_min_version = 0;
  /// route sub-query: answer only source rows [row_begin, row_end).
  bool route = false;
  size_t row_begin = 0;
  size_t row_end = 0;
};

std::string EncodeRequest(const WireRequest& request);
Result<WireRequest> ParseRequest(std::string_view payload);

/// A parsed response: `status` mirrors the server-side Status; on success
/// exactly one of `values` (match/topk) or `text` (stats) is meaningful.
struct WireResponse {
  Status status;
  std::vector<int32_t> values;
  std::string text;
  /// Server backoff hint on shed (kUnavailable) errors; 0 = none.
  uint64_t retry_after_micros = 0;
  /// Snapshot version of the pair that answered (version=; 0 = untagged).
  uint64_t version = 0;
  /// Echo of a routed sub-query's row range (range=LO:HI).
  bool has_range = false;
  size_t row_begin = 0;
  size_t row_end = 0;
  /// Bit-exact scores parallel to `values` on routed topk responses.
  std::vector<float> scores;
  /// Degraded-answer marker (coverage=LO:HI,...): the sorted disjoint
  /// source-row ranges that live shards actually answered. Empty = full
  /// coverage (the normal case). Rows outside the listed ranges hold -1
  /// placeholders. Only routers emit this, and only under the degrade
  /// partial-coverage policy.
  std::vector<std::pair<size_t, size_t>> coverage;
};

/// Encodes a values response. `version` tags the answering snapshot (0 =
/// omit), the range fields echo a routed sub-query (has_range = false =
/// omit), `scores` rides along for routed topk (empty = omit), and
/// `coverage` marks a degraded partial answer (empty = full coverage, omit)
/// — the v1 one-argument form stays valid for un-routed responses.
std::string EncodeValuesResponse(
    const std::vector<int32_t>& values, uint64_t version = 0,
    bool has_range = false, size_t row_begin = 0, size_t row_end = 0,
    const std::vector<float>& scores = {},
    const std::vector<std::pair<size_t, size_t>>& coverage = {});
std::string EncodeTextResponse(std::string_view text);
std::string EncodeErrorResponse(const Status& status,
                                uint64_t retry_after_micros = 0);
Result<WireResponse> ParseResponse(std::string_view payload);

/// ParsePreset, refusing RL too: the serving layer has no KG context to
/// run it.
Result<AlgorithmPreset> ParseServableAlgorithm(std::string_view name);

/// The `hello` handshake payload for a peer serving in `role` ("shard" or
/// "router"): {"build":"...","protocol":3,"role":"..."}.
std::string HelloJson(std::string_view role);

/// Parses a `hello` payload and checks the peer speaks kProtocolVersion.
/// kFailedPrecondition (not retryable) on a mismatch or unparseable payload
/// — the caller must refuse the peer, not retry it.
Status CheckHello(std::string_view hello_json, std::string_view peer_name);

}  // namespace entmatcher

#endif  // ENTMATCHER_SERVE_PROTOCOL_H_
