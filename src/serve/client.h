#ifndef ENTMATCHER_SERVE_CLIENT_H_
#define ENTMATCHER_SERVE_CLIENT_H_

#include <cstdint>
#include <string>

#include "common/status.h"
#include "serve/protocol.h"

namespace entmatcher {

/// Retry discipline for CallWithRetry: capped exponential backoff with
/// deterministic jitter, a hard attempt cap, and a wall-clock budget. Only
/// idempotent reads retry (match/topk/stats/health — every verb except
/// shutdown) and only on outcomes that can heal: a transport failure
/// (IoError/NotFound from the frame layer, followed by a reconnect), a
/// server kUnavailable (shed; honors the server's retry-after hint when it
/// exceeds the local backoff — the hint is sticky, so it still floors the
/// sleep when a later attempt dies at the transport level and reconnects),
/// or kDeadlineExceeded. Anything else —
/// kInvalidArgument, kNotFound from the server, kInternal — is definitive
/// and returns immediately.
struct RetryPolicy {
  /// Total tries including the first; 1 disables retrying.
  uint32_t max_attempts = 4;
  uint64_t initial_backoff_micros = 1000;
  uint64_t max_backoff_micros = 250000;
  /// Backoff growth per attempt.
  double multiplier = 2.0;
  /// Wall-clock cap across all attempts and backoffs; once spent, the last
  /// failure is returned even if attempts remain. 0 = no budget.
  uint64_t budget_micros = 2000000;
  /// Seed of the jitter stream (full jitter over [backoff/2, backoff]);
  /// fixed seed => reproducible retry schedules in tests.
  uint64_t jitter_seed = 17;
};

/// Minimal blocking client for the serve socket protocol: one unix-domain
/// connection, one frame out / one frame in per Call. Used by
/// `entmatcher_cli query`, the serve tests, and anything else that wants to
/// talk to a running `entmatcher_cli serve` without linking the server.
class ServeClient {
 public:
  /// Connects to the socket created by SocketServer / `entmatcher_cli
  /// serve`.
  static Result<ServeClient> Connect(const std::string& socket_path);

  ServeClient(ServeClient&& other) noexcept
      : fd_(other.fd_), socket_path_(std::move(other.socket_path_)) {
    other.fd_ = -1;
  }
  ServeClient& operator=(ServeClient&& other) noexcept;
  ServeClient(const ServeClient&) = delete;
  ServeClient& operator=(const ServeClient&) = delete;

  ~ServeClient();

  /// Sends one request and waits for its response frame. kUnavailable if
  /// the connection drops; a server-side failure comes back in
  /// WireResponse::status. When `unsent` is given, it is set to whether the
  /// request's own write failed: then no server read the whole frame, so
  /// none acted on it, and resending is safe for any verb.
  Result<WireResponse> Call(const WireRequest& request,
                            bool* unsent = nullptr);

  /// Call with the RetryPolicy applied. A transport failure closes and
  /// reopens the connection before the next attempt (the request frame may
  /// have died mid-write; only idempotent verbs get here, so replaying is
  /// safe). Returns the last failure when retries are exhausted.
  Result<WireResponse> CallWithRetry(const WireRequest& request,
                                     const RetryPolicy& policy);

  /// Drops the current connection (if any) and dials the socket again.
  Status Reconnect();

 private:
  ServeClient(int fd, std::string socket_path)
      : fd_(fd), socket_path_(std::move(socket_path)) {}

  int fd_;
  std::string socket_path_;
};

/// One whole conversation with the server at `socket_path`: dial, send
/// `request`, read the reply, hang up. No retry. A failed dial, a dead
/// transport and a server-side error all come back as the Status; success
/// carries the reply's text (hello, health, stats, swap, shutdown).
Result<std::string> CallOnce(const std::string& socket_path,
                             const WireRequest& request);

}  // namespace entmatcher

#endif  // ENTMATCHER_SERVE_CLIENT_H_
