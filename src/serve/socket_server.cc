#include "serve/socket_server.h"

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <iterator>
#include <vector>

#include "index/candidate_index.h"
#include "la/matrix_io.h"
#include "serve/protocol.h"

namespace entmatcher {

namespace {

// "swap" admin verb: load the new embeddings (and optional index) from
// server-side files and republish the pair. Returns the confirmation text.
Result<std::string> HandleSwap(MatchServer* server,
                               const WireRequest& request) {
  EM_ASSIGN_OR_RETURN(Matrix source, ReadMatrixBinary(request.source_path));
  EM_ASSIGN_OR_RETURN(Matrix target, ReadMatrixBinary(request.target_path));
  std::unique_ptr<CandidateIndex> index;
  if (!request.index_path.empty()) {
    EM_ASSIGN_OR_RETURN(CandidateIndex loaded,
                        CandidateIndex::Load(request.index_path));
    index = std::make_unique<CandidateIndex>(std::move(loaded));
  }
  EM_ASSIGN_OR_RETURN(
      const uint64_t version,
      server->SwapPair(request.pair, std::move(source), std::move(target),
                       std::move(index), request.swap_min_version));
  return "swapped " + request.pair + " v" + std::to_string(version);
}

}  // namespace

std::string MatchServerHandler::Handle(const std::string& payload,
                                       bool* shutdown) {
  Result<WireRequest> parsed = ParseRequest(payload);
  if (!parsed.ok()) return EncodeErrorResponse(parsed.status());
  switch (parsed->verb) {
    case WireRequest::Verb::kHello:
      return EncodeTextResponse(HelloJson("shard"));
    case WireRequest::Verb::kStats:
      return EncodeTextResponse(server_->Stats().ToJson().Dump());
    case WireRequest::Verb::kHealth:
      return EncodeTextResponse(server_->HealthJson());
    case WireRequest::Verb::kShards:
      return EncodeErrorResponse(Status::Unimplemented(
          "shards is a router verb; this peer is a shard"));
    case WireRequest::Verb::kShutdown:
      *shutdown = true;
      return EncodeTextResponse("shutting down");
    case WireRequest::Verb::kSwap: {
      Result<std::string> swapped = HandleSwap(server_, *parsed);
      if (!swapped.ok()) return EncodeErrorResponse(swapped.status());
      return EncodeTextResponse(*swapped);
    }
    case WireRequest::Verb::kMatch:
    case WireRequest::Verb::kTopK:
      break;
  }

  ServeRequest request;
  if (!parsed->pair.empty()) request.pair = parsed->pair;
  request.options = MakePreset(parsed->algorithm);
  request.timeout_micros = parsed->timeout_micros;
  if (parsed->verb == WireRequest::Verb::kTopK) {
    request.kind = ServeQueryKind::kTopK;
    request.topk = parsed->k;
  }
  if (parsed->route) {
    request.row_begin = parsed->row_begin;
    request.row_end = parsed->row_end;
    // Routed topk always carries scores: the router merges partial lists by
    // (score desc, id asc) and needs the exact floats to do it.
    request.want_scores = parsed->verb == WireRequest::Verb::kTopK;
  }
  ServeResponse response = server_->Query(std::move(request));
  if (!response.status.ok()) {
    return EncodeErrorResponse(response.status, response.retry_after_micros);
  }
  std::vector<int32_t> values;
  if (parsed->verb == WireRequest::Verb::kMatch) {
    values = response.assignment.target_of_source;
  } else {
    values.reserve(response.topk.size());
    for (uint32_t index : response.topk) {
      values.push_back(static_cast<int32_t>(index));
    }
  }
  return EncodeValuesResponse(values, response.snapshot_version,
                              parsed->route, parsed->row_begin,
                              parsed->row_end, response.topk_scores);
}

Result<std::unique_ptr<SocketServer>> SocketServer::Start(
    WireHandler* handler, const std::string& socket_path) {
  if (handler == nullptr) {
    return Status::InvalidArgument("SocketServer: null handler");
  }
  sockaddr_un addr{};
  if (socket_path.empty() || socket_path.size() >= sizeof(addr.sun_path)) {
    return Status::InvalidArgument("SocketServer: bad socket path: " +
                                   socket_path);
  }
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) {
    return Status::IoError(std::string("socket: ") + std::strerror(errno));
  }
  addr.sun_family = AF_UNIX;
  std::strncpy(addr.sun_path, socket_path.c_str(), sizeof(addr.sun_path) - 1);
  ::unlink(socket_path.c_str());  // stale socket from a previous run
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) < 0) {
    const Status status = Status::IoError("bind " + socket_path + ": " +
                                          std::strerror(errno));
    ::close(fd);
    return status;
  }
  if (::listen(fd, 16) < 0) {
    const Status status =
        Status::IoError(std::string("listen: ") + std::strerror(errno));
    ::close(fd);
    return status;
  }
  std::unique_ptr<SocketServer> out(
      new SocketServer(handler, socket_path, fd));
  out->accept_thread_ = std::thread(&SocketServer::AcceptLoop, out.get());
  return out;
}

Result<std::unique_ptr<SocketServer>> SocketServer::Start(
    MatchServer* server, const std::string& socket_path) {
  if (server == nullptr) {
    return Status::InvalidArgument("SocketServer: null MatchServer");
  }
  auto handler = std::make_unique<MatchServerHandler>(server);
  EM_ASSIGN_OR_RETURN(std::unique_ptr<SocketServer> out,
                      Start(handler.get(), socket_path));
  out->owned_handler_ = std::move(handler);
  return out;
}

SocketServer::SocketServer(WireHandler* handler, std::string socket_path,
                           int listen_fd)
    : handler_(handler), socket_path_(std::move(socket_path)),
      listen_fd_(listen_fd) {}

SocketServer::~SocketServer() { Stop(); }

void SocketServer::WaitForShutdown() {
  std::unique_lock<std::mutex> lock(mu_);
  shutdown_cv_.wait(lock, [&] { return shutdown_requested_; });
}

void SocketServer::Stop() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stopped_) return;
    stopped_ = true;
    shutdown_requested_ = true;
  }
  shutdown_cv_.notify_all();
  // shutdown() (not close) reliably wakes a blocked accept()/read().
  ::shutdown(listen_fd_, SHUT_RDWR);
  if (accept_thread_.joinable()) accept_thread_.join();
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (const Connection& connection : connections_) {
      if (!connection.done) ::shutdown(connection.fd, SHUT_RDWR);
    }
  }
  // The accept thread is gone, so the list no longer changes shape.
  for (Connection& connection : connections_) connection.thread.join();
  connections_.clear();
  ::close(listen_fd_);
  ::unlink(socket_path_.c_str());
}

void SocketServer::AcceptLoop() {
  for (;;) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      return;  // listener shut down
    }
    std::list<Connection> finished;
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (stopped_) {
        ::close(fd);
        return;
      }
      for (auto it = connections_.begin(); it != connections_.end();) {
        const auto next = std::next(it);
        if (it->done) finished.splice(finished.end(), connections_, it);
        it = next;
      }
      Connection& connection = connections_.emplace_back();
      connection.fd = fd;
      connection.thread =
          std::thread(&SocketServer::ServeConnection, this, &connection);
    }
    for (Connection& connection : finished) connection.thread.join();
  }
}

void SocketServer::ServeConnection(Connection* connection) {
  for (;;) {
    Result<std::string> payload = ReadFrame(connection->fd);
    if (!payload.ok()) break;  // peer closed or unreadable frame
    if (!HandleFrame(connection->fd, *payload)) break;
  }
  std::lock_guard<std::mutex> lock(mu_);
  ::close(connection->fd);
  connection->done = true;
}

bool SocketServer::HandleFrame(int fd, const std::string& payload) {
  bool shutdown = false;
  const std::string response = handler_->Handle(payload, &shutdown);
  const bool wrote = WriteFrame(fd, response).ok();
  if (shutdown) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      shutdown_requested_ = true;
    }
    shutdown_cv_.notify_all();
    return false;
  }
  return wrote;
}

}  // namespace entmatcher
