#ifndef ENTMATCHER_SERVE_SOCKET_SERVER_H_
#define ENTMATCHER_SERVE_SOCKET_SERVER_H_

#include <condition_variable>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <thread>

#include "common/status.h"
#include "serve/server.h"

namespace entmatcher {

/// What a SocketServer serves: one framed request payload in, one framed
/// response payload out. Implementations are called concurrently from every
/// connection thread and must be thread-safe. Setting `*shutdown` requests
/// front-end shutdown after the response is written (the `shutdown` verb).
///
/// The indirection is what lets the shard MatchServer front end and the
/// fleet Router speak the identical wire protocol through the identical
/// accept loop — and lets tests wrap a handler to delay or fail specific
/// verbs (hedging and failover coverage) without touching socket code.
class WireHandler {
 public:
  virtual ~WireHandler() = default;

  /// Handles one request payload and returns the encoded response payload.
  virtual std::string Handle(const std::string& payload, bool* shutdown) = 0;
};

/// WireHandler over a MatchServer: the shard-side dispatch of every protocol
/// verb (hello/match/topk/route/stats/health/shutdown/swap). `shards` is
/// refused here — it is a router verb.
class MatchServerHandler : public WireHandler {
 public:
  /// `server` must outlive the handler and should already be Start()ed.
  explicit MatchServerHandler(MatchServer* server) : server_(server) {}

  std::string Handle(const std::string& payload, bool* shutdown) override;

 private:
  MatchServer* server_;
};

/// Local front-end: listens on a unix-domain socket and forwards framed
/// protocol requests (serve/protocol.h) to a WireHandler.
///
/// One accept thread plus one thread per live connection, each connection
/// serving frames sequentially until the peer closes. A finished
/// connection's thread is joined at the next accept, so a long-running
/// server holds threads (and their stacks) for its live connections only.
/// The heavy lifting — queueing, admission, batching — all happens behind
/// the handler; a connection thread is just a blocking caller, so N
/// concurrent connections exercise exactly the in-process multi-client
/// path.
///
/// A `shutdown` request answers "ok" and then releases WaitForShutdown();
/// the owner is expected to Stop() (also called by the destructor), which
/// closes the listener, unlinks the socket path, and joins all threads.
class SocketServer {
 public:
  /// Binds and listens on `socket_path` (unlinking any stale socket file)
  /// and starts accepting. `handler` must outlive this object.
  static Result<std::unique_ptr<SocketServer>> Start(
      WireHandler* handler, const std::string& socket_path);

  /// Convenience: serve `server` through an internally owned
  /// MatchServerHandler. `server` must outlive this object and should
  /// already be Start()ed.
  static Result<std::unique_ptr<SocketServer>> Start(
      MatchServer* server, const std::string& socket_path);

  ~SocketServer();

  SocketServer(const SocketServer&) = delete;
  SocketServer& operator=(const SocketServer&) = delete;

  /// Blocks until a client sends `shutdown` (or Stop() is called).
  void WaitForShutdown();

  /// Closes the listener and all live connections, joins every thread, and
  /// removes the socket file. Idempotent.
  void Stop();

  const std::string& socket_path() const { return socket_path_; }

 private:
  SocketServer(WireHandler* handler, std::string socket_path, int listen_fd);

  /// An accepted connection and the thread serving it; `done` is set under
  /// mu_ once the thread has closed `fd` and is about to return. The thread
  /// holds its Connection's address, so a Connection never moves (the list
  /// only splices nodes).
  struct Connection {
    Connection() = default;
    Connection(const Connection&) = delete;
    Connection& operator=(const Connection&) = delete;

    int fd = -1;
    std::thread thread;
    bool done = false;
  };

  void AcceptLoop();
  void ServeConnection(Connection* connection);
  /// Handles one framed request; returns false when the connection (or the
  /// whole front-end, on `shutdown`) should close.
  bool HandleFrame(int fd, const std::string& payload);

  WireHandler* handler_;
  /// Set by the MatchServer convenience Start; handler_ points at it.
  std::unique_ptr<WireHandler> owned_handler_;
  std::string socket_path_;
  int listen_fd_;

  std::mutex mu_;
  std::condition_variable shutdown_cv_;
  bool shutdown_requested_ = false;
  bool stopped_ = false;
  std::list<Connection> connections_;

  std::thread accept_thread_;
};

}  // namespace entmatcher

#endif  // ENTMATCHER_SERVE_SOCKET_SERVER_H_
