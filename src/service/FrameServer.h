//===- FrameServer.h - The daemon skeleton acd, acrouter, accached share -===//
//
// Part of the autocorres-cpp project, under the BSD 2-Clause License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Everything the three daemons (service::Server, router::Router and
/// cache::RemoteCacheServer) have in common, written once: the Unix and
/// TCP listeners, one acceptor thread per listener, one detached reader
/// thread per connection, JSON decoding, the protocol-version check, the
/// first-frame `auth` handshake on authenticated TCP listeners
/// (docs/PROTOCOL.md "TCP transport and authentication"), the `ping`,
/// `trace_pull` and `drain` ops, and the unknown-op answer. A daemon is
/// the table of op handlers it registers with on().
///
/// Handlers run on the connection's reader thread, so a handler that
/// blocks holds back that connection's next frame (acd's `check` relies on
/// this: one outstanding check per connection). A reply sent from another
/// thread goes through FrameConn::send, which serializes frames under the
/// connection's write lock.
///
//===----------------------------------------------------------------------===//

#ifndef AC_SERVICE_FRAMESERVER_H
#define AC_SERVICE_FRAMESERVER_H

#include "support/Json.h"
#include "support/Socket.h"

#include <atomic>
#include <condition_variable>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace ac::service {

/// The listener options every daemon takes; each daemon's options struct
/// extends it.
struct ListenOptions {
  /// Path of the Unix-domain listening socket ("" = no Unix listener;
  /// at least one of SocketPath / ListenAddr must be set).
  std::string SocketPath;
  /// TCP listen address as "host:port" ("" = no TCP listener). Port 0
  /// binds an ephemeral port — recover it with tcpPort().
  std::string ListenAddr;
  /// Shared auth token required on TCP connections ("" = open). The
  /// first frame on an authenticated listener must be the auth op;
  /// Unix-socket connections are never challenged — filesystem
  /// permissions are their auth.
  std::string AuthToken;
  /// Live fleet tracing: Trace::start() at boot under the daemon's trace
  /// role, with spans accumulating in the in-process ring buffers for the
  /// `trace_pull` op to drain.
  bool TraceLive = false;
};

/// One client connection.
class FrameConn {
public:
  explicit FrameConn(support::Socket S) : Sock(std::move(S)) {}

  /// Sends \p J as one frame under the connection's write lock.
  bool send(const support::Json &J);
  bool peerClosed() const { return Sock.peerClosed(); }

private:
  friend class FrameServer;
  support::Socket Sock;
  std::mutex WriteM;
  /// TCP connection on an authenticated listener that has not presented
  /// the token yet. Only the connection's reader thread touches it.
  bool NeedsAuth = false;
};

class FrameServer {
public:
  using ConnRef = std::shared_ptr<FrameConn>;
  using Handler = std::function<void(const ConnRef &, const support::Json &)>;

  /// \p Daemon names the daemon in log lines; \p TraceRole is the role a
  /// live trace records under.
  FrameServer(const ListenOptions &Opts, const char *Daemon,
              const char *TraceRole);
  ~FrameServer() { stop(); }

  FrameServer(const FrameServer &) = delete;
  FrameServer &operator=(const FrameServer &) = delete;

  /// Registers the handler for \p Op. Call before start().
  void on(const std::string &Op, Handler H) { Handlers[Op] = std::move(H); }

  /// Binds the listeners and spawns the acceptors. False (with nothing
  /// left bound and no socket file left behind) when there is nothing to
  /// listen on or a listener cannot be bound.
  bool start();

  /// Closes every connection, joins the acceptors and readers, closes the
  /// listeners and removes the socket file. Idempotent.
  void stop();

  /// Set by the `drain` op (or a daemon's own beginDrain); each daemon
  /// decides what draining refuses.
  void beginDrain() { Draining.store(true); }
  bool draining() const { return Draining.load(); }

  /// The TCP port actually bound; 0 without a TCP listener.
  uint16_t tcpPort() const { return TcpPort; }

  /// Connections refused by the auth handshake.
  uint64_t authFailures() const { return AuthFailed.load(); }

private:
  void acceptLoop(support::Socket &L, bool RequireAuth);
  void connLoop(ConnRef C);
  /// Answers one frame; false closes the connection.
  bool handleFrame(const ConnRef &C, const std::string &Raw);
  void closeListeners();

  ListenOptions Opts;
  const char *Daemon;
  const char *TraceRole;
  std::map<std::string, Handler> Handlers;

  support::Socket Listen, ListenTcp;
  uint16_t TcpPort = 0;
  std::vector<std::thread> Acceptors;

  std::mutex ConnsM;
  std::condition_variable ConnsCV; ///< signalled when a reader exits
  std::vector<ConnRef> Conns;

  std::atomic<uint64_t> AuthFailed{0};
  std::atomic<bool> Draining{false};
  std::atomic<bool> Stopping{false};
  bool Started = false;
};

} // namespace ac::service

#endif // AC_SERVICE_FRAMESERVER_H
