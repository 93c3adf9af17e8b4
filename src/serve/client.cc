#include "serve/client.h"

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <thread>

#include "common/rng.h"

namespace entmatcher {

namespace {

Result<int> Dial(const std::string& socket_path) {
  sockaddr_un addr{};
  if (socket_path.empty() || socket_path.size() >= sizeof(addr.sun_path)) {
    return Status::InvalidArgument("ServeClient: bad socket path: " +
                                   socket_path);
  }
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) {
    return Status::IoError(std::string("socket: ") + std::strerror(errno));
  }
  addr.sun_family = AF_UNIX;
  std::strncpy(addr.sun_path, socket_path.c_str(), sizeof(addr.sun_path) - 1);
  int rc;
  do {
    rc = ::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr));
  } while (rc < 0 && errno == EINTR);
  if (rc < 0) {
    // kUnavailable, not kIoError: a refused/absent socket is the transient
    // "shard not up (yet/anymore)" condition retry and failover handle.
    const Status status = Status::Unavailable("connect " + socket_path + ": " +
                                              std::strerror(errno));
    ::close(fd);
    return status;
  }
  return fd;
}

// The frame layer reports peer trouble as kIoError (EPIPE, reset, truncated
// frame) or kNotFound (clean close between frames). Both mean the same thing
// to a caller: this connection is gone and the request may be replayed
// elsewhere — surface them uniformly as kUnavailable so routers and retry
// loops treat a dying shard like a shedding one, not like a protocol bug.
Status AsTransportFailure(const Status& status) {
  if (status.code() == StatusCode::kIoError ||
      status.code() == StatusCode::kNotFound) {
    return Status::Unavailable("peer closed or transport failed: " +
                               status.message());
  }
  return status;
}

}  // namespace

Result<ServeClient> ServeClient::Connect(const std::string& socket_path) {
  EM_ASSIGN_OR_RETURN(const int fd, Dial(socket_path));
  return ServeClient(fd, socket_path);
}

ServeClient& ServeClient::operator=(ServeClient&& other) noexcept {
  if (this == &other) return *this;
  if (fd_ >= 0) ::close(fd_);
  fd_ = other.fd_;
  socket_path_ = std::move(other.socket_path_);
  other.fd_ = -1;
  return *this;
}

ServeClient::~ServeClient() {
  if (fd_ >= 0) ::close(fd_);
}

Status ServeClient::Reconnect() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
  EM_ASSIGN_OR_RETURN(fd_, Dial(socket_path_));
  return Status::OK();
}

Result<WireResponse> ServeClient::Call(const WireRequest& request,
                                       bool* unsent) {
  if (fd_ < 0) return Status::FailedPrecondition("ServeClient: not connected");
  const Status wrote = WriteFrame(fd_, EncodeRequest(request));
  if (unsent != nullptr) *unsent = !wrote.ok();
  if (!wrote.ok()) return AsTransportFailure(wrote);
  auto payload = ReadFrame(fd_);
  if (!payload.ok()) return AsTransportFailure(payload.status());
  return ParseResponse(payload.value());
}

Result<WireResponse> ServeClient::CallWithRetry(const WireRequest& request,
                                                const RetryPolicy& policy) {
  if (request.verb == WireRequest::Verb::kShutdown) {
    // Not idempotent: a shutdown whose response frame was lost may already
    // have taken effect; replaying it could kill a freshly restarted server.
    return Call(request);
  }
  using Clock = std::chrono::steady_clock;
  const Clock::time_point start = Clock::now();
  const uint32_t attempts = std::max<uint32_t>(1, policy.max_attempts);
  Rng jitter(policy.jitter_seed);
  uint64_t backoff = policy.initial_backoff_micros;
  // The most recent retry-after hint any response carried. Kept outside
  // `last` on purpose: a transport failure on the next attempt replaces
  // `last` with a plain Status, but the server's backoff request still
  // stands — a shedding shard that then drops the connection must not be
  // hammered at the local backoff rate just because the reconnect path
  // forgot the hint.
  uint64_t server_hint_micros = 0;
  Result<WireResponse> last =
      Status::Internal("ServeClient: retry loop never ran");
  for (uint32_t attempt = 0; attempt < attempts; ++attempt) {
    if (attempt > 0) {
      // Full-jitter sleep over [backoff/2, backoff], raised to the server's
      // retry-after hint when it gave one — even when the attempt that
      // followed the hint died at the transport level.
      uint64_t sleep_micros =
          backoff / 2 + (backoff > 1 ? jitter.NextBounded(backoff / 2 + 1) : 0);
      if (server_hint_micros > sleep_micros) {
        sleep_micros = server_hint_micros;
      }
      if (policy.budget_micros > 0) {
        const uint64_t spent = static_cast<uint64_t>(
            std::chrono::duration_cast<std::chrono::microseconds>(
                Clock::now() - start)
                .count());
        if (spent + sleep_micros >= policy.budget_micros) break;
      }
      std::this_thread::sleep_for(std::chrono::microseconds(sleep_micros));
      backoff = std::min<uint64_t>(
          policy.max_backoff_micros,
          static_cast<uint64_t>(static_cast<double>(backoff) *
                                std::max(1.0, policy.multiplier)));
      if (fd_ < 0 || !last.ok()) {
        // Transport died last attempt; the old connection's framing state is
        // unknown, so start clean.
        const Status reconnected = Reconnect();
        if (!reconnected.ok()) {
          last = reconnected;
          continue;
        }
      }
    }
    last = Call(request);
    if (last.ok() && last->retry_after_micros > 0) {
      server_hint_micros = last->retry_after_micros;
    }
    if (!last.ok()) {
      // Transport-level failure: mark the connection unusable so the next
      // attempt reconnects rather than reading a half-written frame.
      if (fd_ >= 0) {
        ::close(fd_);
        fd_ = -1;
      }
      continue;
    }
    const StatusCode code = last->status.code();
    if (code != StatusCode::kUnavailable &&
        code != StatusCode::kDeadlineExceeded) {
      return last;  // success or a definitive server verdict
    }
  }
  return last;
}

Result<std::string> CallOnce(const std::string& socket_path,
                             const WireRequest& request) {
  EM_ASSIGN_OR_RETURN(ServeClient client, ServeClient::Connect(socket_path));
  EM_ASSIGN_OR_RETURN(WireResponse response, client.Call(request));
  if (!response.status.ok()) return response.status;
  return std::move(response.text);
}

}  // namespace entmatcher
