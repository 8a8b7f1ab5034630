//===- Server.h - The acd verification daemon -------------------*- C++ -*-===//
//
// Part of the autocorres-cpp project, under the BSD 2-Clause License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The long-lived verification service behind the `acd` binary. One
/// process keeps the expensive state of a verification session resident —
/// interned HOL terms and axioms survive across requests, the abstraction
/// cache lives in memory in front of its on-disk file, and a warm
/// ThreadPool skips per-run thread spawning — so a warm re-check of an
/// unchanged translation unit costs a cache probe and a render replay
/// instead of a process start.
///
/// Concurrency model: the FrameServer (service/FrameServer.h) hands each
/// connection to its own reader thread; `stats` / `ping` / `drain` are
/// answered inline, while `check` requests go through a bounded admission
/// queue drained by a fixed set of session workers (each runs one
/// AutoCorres::run, which is reentrant). A full queue is explicit
/// backpressure: the request is rejected immediately with `busy` +
/// `retry_after_ms` instead of stalling the connection. Clients that hang
/// up while queued are detected at dequeue (and at response delivery) and
/// their slot is simply freed — counted as `cancelled`, never leaked as
/// in-flight.
///
/// Deadlines: the connection thread that admitted a request carrying
/// `timeout_ms` waits for its answer only until the deadline. If it
/// passes first, that thread answers `deadline_exceeded` exactly once (an
/// atomic Responded flag arbitrates against the worker), frees a
/// still-queued request's slot immediately, and flags an in-flight
/// request cancelled so the worker discards its result instead of
/// sending a second response.
///
/// Shutdown is graceful: beginDrain() (wired to SIGTERM by acd) refuses
/// new work with `draining`, lets queued + in-flight requests finish,
/// flushes every disk-backed cache tier, then tears the threads down.
///
//===----------------------------------------------------------------------===//

#ifndef AC_SERVICE_SERVER_H
#define AC_SERVICE_SERVER_H

#include "core/AutoCorres.h"
#include "core/ResultCache.h"
#include "service/FrameServer.h"
#include "service/Metrics.h"
#include "service/Protocol.h"
#include "support/ThreadPool.h"

#include <atomic>
#include <condition_variable>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace ac::service {

/// Daemon configuration. The listener fields (SocketPath, ListenAddr,
/// AuthToken, TraceLive) come from ListenOptions; a live trace records
/// under role "shard", and TraceLive wins over TraceDir.
struct ServerOptions : ListenOptions {
  /// Label attached to every Prometheus metric this daemon exposes
  /// (`shard_id="..."`) so a fleet's scrapes aggregate per shard. "" =
  /// unlabeled, byte-identical to the pre-fleet surface.
  std::string ShardId;
  /// Optional remote cache tier shared by every ResultCache this server
  /// creates (memory → disk → remote). Not owned; must outlive the
  /// server. nullptr = two-tier behaviour, unchanged.
  core::RemoteTier *Remote = nullptr;
  /// Session workers: how many check requests run concurrently.
  unsigned Workers = 2;
  /// Admission queue capacity; a full queue rejects with `busy`.
  size_t QueueCapacity = 8;
  /// Default abstraction jobs per request (requests may override).
  /// 0 = AC_JOBS (1 when unset). Values != 1 run on the shared pool.
  unsigned Jobs = 0;
  /// Default cache directory for requests that don't name one; resolved
  /// through ResultCache::resolveDir. Even when resolution yields no
  /// disk directory the daemon still serves a memory-only tier.
  std::string CacheDir;
  /// The retry hint attached to `busy` rejections.
  unsigned RetryAfterMs = 50;
  /// Staleness shedding needs this many completed-request samples
  /// before it trusts the observed p99 service time; a cold daemon
  /// never sheds for staleness.
  unsigned ShedMinSamples = 16;
  /// When set, every check request flushes its pipeline trace to
  /// `<TraceDir>/<trace_id>.json` (Chrome trace-event format) after the
  /// response is sent. Strictly best-effort: an unwritable trace warns
  /// in the log and never fails the request. Note that with concurrent
  /// workers the span streams of overlapping requests interleave; the
  /// per-file rule profile and spans cover everything recorded since
  /// the previous flush.
  std::string TraceDir;
  /// When set, every check request exports a proof certificate claiming
  /// its freshly derived pipeline theorems to
  /// `<CertDir>/<trace_id>.acpc` (hol/Cert.h). The filename reuses the
  /// request's correlation id, which is already forced path-safe at
  /// admission (pathSafeTraceId) — a client id that could steer the
  /// path never reaches this composition. Best-effort like TraceDir: an
  /// unwritable certificate warns and never fails the request. Note
  /// that cache-replayed functions carry no live derivation and are
  /// skipped (CheckResponse `cert_skipped`); certify against a cold
  /// cache for full coverage.
  std::string CertDir;
};

/// The daemon. start() spawns the threads; beginDrain()/waitDrained()
/// (or stop(), which is both plus teardown) end the life cycle.
class Server {
public:
  explicit Server(ServerOptions Opts);
  ~Server();

  Server(const Server &) = delete;
  Server &operator=(const Server &) = delete;

  /// Binds the socket and spawns acceptor + workers. False if the
  /// socket can't be bound.
  bool start();

  /// Stops admitting work: every subsequent check is refused with
  /// `draining`. Idempotent, callable from a signal-handling thread.
  void beginDrain();

  /// Blocks until the queue is empty and no request is in flight, then
  /// flushes all disk-backed cache tiers.
  void waitDrained();

  /// beginDrain() + waitDrained() + join all threads + remove the
  /// socket file. Called by the destructor if still running.
  void stop();

  bool draining() const { return Frames.draining(); }
  const ServerOptions &options() const { return Opts; }
  ServiceMetrics &metrics() { return Metrics; }

  /// The TCP port actually bound (resolves an ephemeral ":0" listen
  /// address); 0 when no TCP listener is configured.
  uint16_t tcpPort() const { return Frames.tcpPort(); }

  /// Live queue depth (for stats).
  size_t queueDepth() const;

private:
  struct Request;

  void workerLoop();

  void handleCheck(const FrameServer::ConnRef &C, const support::Json &J);
  ServiceMetrics::Snapshot snapshot();

  /// Runs the pipeline for one admitted request and sends the response.
  void runRequest(Request &R);

  /// Answers `deadline_exceeded` for \p R unless a response was already
  /// claimed; true iff this call sent (or tried to send) it.
  bool answerDeadline(Request &R);

  /// The cache tier for \p RequestedDir (falling back to the server
  /// default): one long-lived ResultCache per resolved directory,
  /// created (and loaded) on first use; the "" key is the pure
  /// in-memory tier used when no disk cache is configured.
  core::ResultCache *cacheFor(const std::string &RequestedDir);

  /// Total entries across all tiers (stats).
  size_t memCacheEntries();

  /// Entries served from the remote tier across all caches (stats) —
  /// how a cold shard proves it was refilled by accached, not recompute.
  size_t remoteHitsTotal();

  ServerOptions Opts;
  ServiceMetrics Metrics;

  FrameServer Frames;
  std::vector<std::thread> SessionWorkers;

  mutable std::mutex QueueM;
  std::condition_variable QueueCV;  ///< workers wait for requests
  std::condition_variable DrainCV;  ///< waitDrained waits for empty+idle
  /// Two-class admission queue in one deque: interactive requests
  /// always precede bulk ones (insertion keeps the partition), so
  /// pop_front serves interactive first and FIFO within each class.
  std::deque<std::shared_ptr<Request>> Queue;
  std::atomic<size_t> InFlight{0};

  std::mutex CachesM;
  std::map<std::string, std::unique_ptr<core::ResultCache>> Caches;

  /// Warm abstraction pool, shared by all concurrent sessions. Created
  /// lazily on the first parallel request.
  std::mutex PoolM;
  std::unique_ptr<support::ThreadPool> Pool;

  std::atomic<bool> Stopping{false};
  bool Started = false;
};

} // namespace ac::service

#endif // AC_SERVICE_SERVER_H
