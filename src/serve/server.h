// PolicyServer: the TCP front of dpmd.
//
// Plain TCP, one JSON request per line, one JSON response per line
// (protocol.h).  The server owns only sockets and threads — every
// request is served on its connection's worker thread by a
// PolicyEngine, which locks per session, so connections working on
// different designs run in parallel.  One acceptor thread polls with a
// short timeout so stop() (SIGTERM path in apps/dpmd.cpp) is honored
// promptly; each connection gets a worker thread, reaped by
// the acceptor when the connection closes and joined on stop, so
// shutdown is deterministic and leak-free under ASan/TSan and memory
// stays bounded under connection churn.
#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "serve/engine.h"

namespace dpm::serve {

struct ServerOptions {
  /// TCP port; 0 binds an ephemeral port (read it back via port()).
  std::uint16_t port = 0;
  /// Loopback by default: dpmd is a local accelerator daemon, not an
  /// internet-facing service.  Resolved via getaddrinfo, so hostnames
  /// ("localhost") and IPv6 literals ("::1") work like the client side.
  std::string bind_address = "127.0.0.1";
  int backlog = 64;
  /// Connection cap: past this many live connections, accept() answers
  /// a static typed "overloaded" line and closes immediately, so a
  /// connection flood cannot exhaust threads or fds.  0 = unbounded.
  std::size_t max_connections = 64;
  /// Framing bound: a connection streaming more than this many bytes
  /// without a newline gets a typed bad-request ("line too long") and
  /// is dropped — per-connection buffer memory stays bounded.
  std::size_t max_line_bytes = std::size_t{4} << 20;  // 4 MiB
};

class PolicyServer {
 public:
  PolicyServer(PolicyEngine& engine, ServerOptions options = {});
  ~PolicyServer();

  PolicyServer(const PolicyServer&) = delete;
  PolicyServer& operator=(const PolicyServer&) = delete;

  /// Why start() failed: an unresolvable bind address is a usage error
  /// (dpmd exits 2), everything else an environment error (exit 1).
  enum class StartFailure : std::uint8_t { kNone, kResolve, kSocket };

  /// Binds, listens, and starts the acceptor thread.  Returns false and
  /// fills `error`/`failure` (when non-null) on resolve/bind/listen
  /// failure.
  bool start(std::string* error = nullptr, StartFailure* failure = nullptr);

  /// Stops accepting, closes every connection, joins all threads.
  /// Idempotent; also called by the destructor.
  void stop();

  /// The bound port (resolves port 0 after start()).
  std::uint16_t port() const noexcept { return port_; }
  bool running() const noexcept { return running_.load(); }

  /// Connection workers not yet joined (live + awaiting reap).  Churn
  /// test surface: returns to 0 once closed connections are reaped.
  std::size_t live_connections() const;

  /// Connections refused at the max_connections cap since start (also
  /// folded into the engine's conn_sheds counter).
  std::size_t shed_connections() const noexcept {
    return shed_connections_.load();
  }

 private:
  void accept_loop();
  void serve_connection(int fd);
  void reap_finished();

  PolicyEngine& engine_;
  ServerOptions options_;
  std::uint16_t port_ = 0;
  int listen_fd_ = -1;
  std::atomic<bool> running_{false};
  std::atomic<bool> stopping_{false};
  std::thread acceptor_;
  mutable std::mutex workers_mutex_;
  /// Live connection workers, keyed by their socket.  A worker moves
  /// its own handle to reaped_ when its connection closes; the acceptor
  /// joins reaped handles each loop iteration.
  std::unordered_map<int, std::thread> workers_;
  std::vector<std::thread> reaped_;
  std::vector<int> worker_fds_;
  std::atomic<std::size_t> shed_connections_{0};
};

}  // namespace dpm::serve
