//===- Client.h - Thin client for the acd daemon ----------------*- C++ -*-===//
//
// Part of the autocorres-cpp project, under the BSD 2-Clause License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The client side of the verification service protocol: connect to the
/// daemon's Unix socket, frame a request, decode the reply. This is all
/// `acc` (and the tests/bench) need; the only policy it adds over raw
/// frames is checkRetry(), which obeys the daemon's `busy` backpressure
/// signal by sleeping `retry_after_ms` and resubmitting.
///
//===----------------------------------------------------------------------===//

#ifndef AC_SERVICE_CLIENT_H
#define AC_SERVICE_CLIENT_H

#include "service/Protocol.h"
#include "support/Socket.h"

#include <cstdint>
#include <random>
#include <string>

namespace ac::service {

/// The undithered backoff schedule behind Client::checkRetry(): the
/// daemon's retry_after_ms hint (10 when it sent none) doubled per
/// attempt, capped per-sleep at 2 s. Pure arithmetic, exposed so tests
/// can pin the exact schedule.
uint64_t retryBackoffMs(unsigned Attempt, unsigned RetryAfterMs);

/// retryBackoffMs() with ±25% jitter drawn from \p Rng — the actual
/// sleep checkRetry() performs. Deterministic given the RNG state, so a
/// seeded RNG pins the whole sleep sequence.
uint64_t retryDelayMs(unsigned Attempt, unsigned RetryAfterMs,
                      std::minstd_rand &Rng);

/// The jitter source checkRetry() draws from: seeded from AC_RETRY_SEED
/// (mixed with a per-thread id so concurrent clients still spread) when
/// set, from std::random_device otherwise. Within one thread and one
/// seed the stream — and therefore the sleep sequence — is repeatable.
std::minstd_rand retryRng();

/// One connection to an acd daemon.
class Client {
public:
  /// Connects to the daemon at \p SocketPath; connected() tells success.
  static Client connect(const std::string &SocketPath);

  /// Connects over TCP to \p HostPort ("host:port"). A non-empty
  /// \p Token performs the auth handshake (docs/PROTOCOL.md
  /// "Authentication") before returning; a refused token yields a
  /// disconnected client with \p Err set to the typed `auth_failed`
  /// message.
  static Client connectTcp(const std::string &HostPort,
                           const std::string &Token, std::string &Err);

  /// The auth handshake connectTcp() performs, for a connection dialed
  /// another way. A no-op for an empty \p Token; a refused token closes
  /// the connection and sets \p Err.
  bool authenticate(const std::string &Token, std::string &Err);

  bool connected() const { return Sock.valid(); }
  support::Socket &socket() { return Sock; }

  /// Sends \p Req as one frame and decodes the reply frame.
  bool roundTrip(const support::Json &Req, support::Json &Resp,
                 std::string &Err);

  /// One check round-trip. Returns false only on transport/decode
  /// failure; a daemon-side rejection is a successful round-trip with
  /// Out.Ok == false.
  bool check(const CheckRequest &Req, CheckResponse &Out, std::string &Err);

  /// check(), but obeying backpressure: on a `busy` response resubmits
  /// after a backoff that starts at the daemon's advertised
  /// retry_after_ms and doubles per attempt (capped at 2 s), with ±25%
  /// jitter so a herd of clients bounced off a full queue does not
  /// resubmit in lockstep. Gives up — returning the last `busy`
  /// response, a successful round-trip — after \p MaxAttempts tries or
  /// once the total time spent would exceed \p MaxTotalMs, whichever
  /// comes first.
  bool checkRetry(const CheckRequest &Req, CheckResponse &Out,
                  std::string &Err, unsigned MaxAttempts = 50,
                  unsigned MaxTotalMs = 30000);

  /// Fetches the live `stats` payload.
  bool stats(support::Json &Out, std::string &Err);

  /// Fetches the `metrics` request's Prometheus text exposition.
  bool metricsText(std::string &Out, std::string &Err);

  /// Drains the daemon's trace buffers: the `trace_pull` payload
  /// ({pid, role, body} with body one Chrome-JSON fragment).
  bool tracePull(support::Json &Out, std::string &Err);

  /// Fetches a router's `fleet` payload — its own stats plus a live
  /// scrape of every shard's (and the cache tier's) stats. Only routers
  /// answer this op.
  bool fleet(support::Json &Out, std::string &Err);

  /// Liveness probe.
  bool ping(std::string &Err);

  /// Asks the daemon to drain (graceful shutdown).
  bool drain(std::string &Err);

private:
  support::Socket Sock;
};

/// Where a client sends requests: a daemon's Unix socket, or, when
/// TcpAddr is set, a TCP "host:port" with the token presented there.
struct Endpoint {
  std::string SocketPath, TcpAddr, Token;

  /// A refused token sets \p Err with the typed `auth_failed` prefix.
  Client dial(std::string &Err) const;
  const std::string &name() const {
    return TcpAddr.empty() ? SocketPath : TcpAddr;
  }
};

} // namespace ac::service

#endif // AC_SERVICE_CLIENT_H
