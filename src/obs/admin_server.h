// Tiny embedded admin HTTP/1.1 server: the live introspection surface of a
// NodeHost (GET /metrics, /status, /healthz, /traces/recent).
//
// One dedicated thread runs a private epoll loop over the listener and every
// client connection (all nonblocking). Route handlers execute on that thread,
// so everything they read must be thread-safe — the metrics registry, the
// tracer and the health monitor all are; /status reads a published snapshot
// rather than touching protocol state. Responses always close the connection
// (scrapes are one-shot; keep-alive buys nothing here).
//
// The server binds 127.0.0.1 by default and is plaintext, unauthenticated
// HTTP: an operator/debug port, never a client-facing one.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <thread>

#include "util/status.h"

namespace rspaxos::obs {

struct AdminRequest {
  std::string method;  // "GET"
  std::string path;    // "/metrics" (query string stripped)
  std::string query;   // after '?', may be empty
};

struct AdminResponse {
  int status = 200;
  std::string content_type = "text/plain; charset=utf-8";
  std::string body;
};

class AdminServer {
 public:
  using Handler = std::function<AdminResponse(const AdminRequest&)>;

  struct Options {
    std::string bind = "127.0.0.1";
    uint16_t port = 0;  // 0 = ephemeral, read back via port()
  };

  AdminServer() = default;
  ~AdminServer();

  AdminServer(const AdminServer&) = delete;
  AdminServer& operator=(const AdminServer&) = delete;

  /// Registers a handler for an exact path. Setup-phase only (before start).
  void route(std::string path, Handler handler);

  /// Binds, listens and starts the serving thread.
  Status start(Options opts);
  /// Stops the thread and closes every socket. Idempotent.
  void stop();

  /// The bound port (valid after start() succeeded).
  uint16_t port() const { return port_; }

 private:
  struct Conn;

  void serve_loop();
  void accept_conns();
  void handle_readable(Conn* c);
  void handle_writable(Conn* c);
  void close_conn(Conn* c);
  /// Parses the buffered request head and stages the response. Returns false
  /// on a malformed request that already staged an error response.
  void build_response(Conn* c);

  std::map<std::string, Handler> routes_;
  std::atomic<bool> stopping_{false};
  bool started_ = false;
  int listen_fd_ = -1;
  int epfd_ = -1;
  int wake_fd_ = -1;
  uint16_t port_ = 0;
  std::thread thread_;
  std::map<int, Conn*> conns_;  // fd -> state, serving-thread private
};

}  // namespace rspaxos::obs
