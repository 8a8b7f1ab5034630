//===- Router.h - Consistent-hash front-end for an acd fleet ----*- C++ -*-===//
//
// Part of the autocorres-cpp project, under the BSD 2-Clause License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The `acrouter` front-end: speaks the verification service protocol to
/// clients and forwards every check to one of N `acd` shards, chosen by
/// consistent-hashing the request's corpus fingerprint onto a virtual-
/// node ring (docs/PROTOCOL.md "Router"). Hashing by *content* is what
/// makes the fleet's cache tiers compose: the same translation unit
/// always lands on the same shard, so that shard's memory/disk tiers
/// stay hot for it, and the remote tier only pays for genuinely new
/// work.
///
/// Failure policy, in order:
///   - a shard whose bounded in-flight window is full answers `busy` +
///     `retry_after_ms` — the existing backpressure contract, now
///     end-to-end through the router;
///   - a dead shard (dial refused, connection torn mid-request) is
///     marked down and the request reroutes to the next healthy ring
///     node; a health-probe thread keeps pinging and revives it;
///   - with no routable shard left the router answers `busy` ("no
///     healthy shard"). It runs no pipeline of its own: the one place a
///     check degrades to an in-process run is the client
///     (service::checkWithFallback), so acrouter links only the wire
///     side of src/service.
///
/// Deadlines propagate: the remaining budget (request timeout minus time
/// already spent in the router, including earlier forward attempts) is
/// what each shard sees as its `timeout_ms`.
///
//===----------------------------------------------------------------------===//

#ifndef AC_ROUTER_ROUTER_H
#define AC_ROUTER_ROUTER_H

#include "service/Client.h"
#include "service/FrameServer.h"
#include "service/Protocol.h"

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace ac::router {

/// acrouter configuration. The client-facing listener fields (SocketPath,
/// ListenAddr, AuthToken, TraceLive) come from ListenOptions; with
/// TraceLive the router records router.request / router.forward spans
/// (role "router") and propagates the trace context on every forward.
struct RouterOptions : service::ListenOptions {
  /// Token the router presents when dialing shards ("" = none).
  std::string ShardToken;
  /// Shard addresses, "host:port" each. At least one.
  std::vector<std::string> Shards;
  /// Bounded in-flight window per shard: forwards beyond it answer
  /// `busy` + RetryAfterMs instead of stacking onto a loaded shard.
  unsigned MaxInFlightPerShard = 8;
  /// The retry hint attached to the router's `busy` answers.
  unsigned RetryAfterMs = 50;
  /// Health-probe cadence.
  unsigned HealthProbeMs = 250;
  /// The accached address ("host:port"), scraped into the federated
  /// `metrics` exposition and the `fleet` payload alongside the shards.
  /// "" = no cache tier. Dialed with ShardToken.
  std::string CacheAddr;
};

/// Live per-shard state: the down/up mark, the in-flight window, and an
/// idle connection pool (forwards re-use authenticated connections; a
/// torn one is dropped and re-dialed).
struct ShardState {
  std::string Addr;
  /// Cleared by a transport failure on a fresh dial or by a failed
  /// probe; set again by the next good probe. Only an up shard routes.
  std::atomic<bool> Up{true};
  std::atomic<unsigned> InFlight{0};
  /// Forward attempts dispatched to this shard, failed ones included.
  std::atomic<uint64_t> Routed{0};
  /// Requests whose answer this shard supplied, one per answered
  /// request (reported as both `forwarded` and `won`).
  std::atomic<uint64_t> Forwarded{0};
  std::atomic<uint64_t> Errors{0};
  std::mutex PoolM;
  std::vector<service::Client> Pool;
  /// Last successful `metrics` scrape of this shard, kept so a dead
  /// shard's block still appears in the federated exposition — with an
  /// acd_scrape_age_seconds gauge exposing exactly how stale it is.
  std::mutex ScrapeM;
  std::string LastMetricsBody;
  std::chrono::steady_clock::time_point LastMetricsAt{};

  explicit ShardState(std::string A) : Addr(std::move(A)) {}

  bool healthy() const { return Up.load(); }
};

/// The router daemon.
class Router {
public:
  explicit Router(RouterOptions Opts);
  ~Router();

  Router(const Router &) = delete;
  Router &operator=(const Router &) = delete;

  bool start();
  void stop();

  bool draining() const { return Frames.draining(); }
  uint16_t tcpPort() const { return Frames.tcpPort(); }
  const RouterOptions &options() const { return Opts; }

  /// The routing key for \p Req: a fingerprint of the request *content*
  /// (source and output-shaping options only — correlation ids and
  /// deadlines must not move a request between shards). Exposed for the
  /// ring-distribution tests.
  static uint64_t routingKey(const service::CheckRequest &Req);

  /// The shard index \p Key lands on, given only ring membership.
  /// Exposed for tests; the live path also consults health/windows.
  size_t shardFor(uint64_t Key) const;

private:
  void handleCheck(const service::FrameServer::ConnRef &C,
                   const support::Json &J);
  void probeLoop();

  /// One forward attempt to \p S. A pooled connection that fails may
  /// only be stale (the shard restarted since it was pooled), so the
  /// attempt redials once; false means the fresh dial failed too. A
  /// daemon-side rejection is a successful round-trip.
  bool forwardTo(ShardState &S, const service::CheckRequest &Req,
                 service::CheckResponse &Out);

  /// Records a transport failure against \p S: counts it, drops the
  /// pooled connections and marks the shard down.
  void noteForwardFailure(ShardState &S);

  /// The first routable untried shard in ring order from \p Key, or
  /// SIZE_MAX.
  size_t pickShard(uint64_t Key, const std::vector<bool> &Tried) const;

  support::Json statsJson();
  /// The federated `metrics` payload: every shard's exposition (live or
  /// last-good), the cache tier's, and the router's own block, merged
  /// into one lint-clean exposition against a single scrape instant.
  support::Json federatedMetricsJson();
  /// The `fleet` payload actop polls: router stats + a live stats
  /// scrape of every shard and the cache tier.
  support::Json fleetJson();

  RouterOptions Opts;
  std::vector<std::unique_ptr<ShardState>> ShardList;
  /// The ring: point -> shard index. Built once at start (membership is
  /// static per process; health is consulted at lookup time).
  std::map<uint64_t, size_t> Ring;

  std::atomic<uint64_t> Received{0}, Completed{0}, Rerouted{0},
      WindowBusy{0};

  service::FrameServer Frames;
  std::thread Prober;

  /// In-flight forwards, for graceful drain.
  std::atomic<size_t> Forwarding{0};
  std::atomic<bool> Stopping{false};
  bool Started = false;
};

} // namespace ac::router

#endif // AC_ROUTER_ROUTER_H
