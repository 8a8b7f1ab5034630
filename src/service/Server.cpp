//===- Server.cpp ---------------------------------------------------------===//

#include "service/Server.h"

#include "service/CheckRunner.h"
#include "support/FaultInject.h"
#include "support/Log.h"
#include "support/RuleProfile.h"
#include "support/Trace.h"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <chrono>
#include <cstdlib>
#include <filesystem>

using namespace ac::service;
using namespace ac::core;
using ac::support::Json;

namespace {

double secondsBetween(std::chrono::steady_clock::time_point A,
                      std::chrono::steady_clock::time_point B) {
  return std::chrono::duration<double>(B - A).count();
}

} // namespace

// Overload decision point, armed by the chaos driver so the shed path
// is deterministically reachable: forces the staleness verdict for an
// eligible request (bulk with a deadline).
static const ac::support::FaultSite FaultShedStale("server.shed.stale");

/// One admitted check request, shared between the queue, the worker that
/// runs it, and the connection thread that waits for its answer and
/// enforces its deadline.
struct Server::Request {
  FrameServer::ConnRef C;
  CheckRequest Req;
  std::chrono::steady_clock::time_point Admitted;
  /// Deadline, measured from admission; meaningful iff HasDeadline.
  std::chrono::steady_clock::time_point Deadline;
  bool HasDeadline = false;

  /// Exactly-once response arbitration between the worker and the
  /// waiting connection thread: whoever flips this sends the (single)
  /// response frame.
  std::atomic<bool> Responded{false};
  /// Set by the waiting connection thread at the deadline; the worker's
  /// cooperative cancellation points (and its final send) observe it.
  std::atomic<bool> Cancelled{false};

  std::mutex M;
  std::condition_variable CV;
  bool Done = false;

  bool claimRespond() { return !Responded.exchange(true); }
  bool expired(std::chrono::steady_clock::time_point Now) const {
    return HasDeadline && Now >= Deadline;
  }

  void markDone() {
    std::lock_guard<std::mutex> L(M);
    Done = true;
    CV.notify_all();
  }
  /// Waits for markDone(); with \p UntilDeadline and a deadline, only
  /// until it passes. True iff the worker is done.
  bool waitDone(bool UntilDeadline) {
    std::unique_lock<std::mutex> L(M);
    auto IsDone = [&] { return Done; };
    if (UntilDeadline && HasDeadline)
      return CV.wait_until(L, Deadline, IsDone);
    CV.wait(L, IsDone);
    return true;
  }
};

Server::Server(ServerOptions O)
    : Opts(std::move(O)), Frames(Opts, "acd", "shard") {
  if (Opts.Workers == 0)
    Opts.Workers = 1;
  if (Opts.QueueCapacity == 0)
    Opts.QueueCapacity = 1;
  using ConnRef = FrameServer::ConnRef;
  Frames.on("check",
            [this](const ConnRef &C, const Json &J) { handleCheck(C, J); });
  Frames.on("stats", [this](const ConnRef &C, const Json &) {
    // Top-level rather than under "cache": the counter lives on the
    // ResultCache instances, not in ServiceMetrics' snapshot.
    Json J = snapshot().toJson();
    J.set("remote_hits", static_cast<uint64_t>(remoteHitsTotal()));
    C->send(J);
  });
  Frames.on("metrics", [this](const ConnRef &C, const Json &) {
    Json R = Json::object();
    R.set("ok", true);
    R.set("content_type", "text/plain; version=0.0.4");
    R.set("body", snapshot().toPrometheus(Opts.ShardId, "shard"));
    C->send(R);
  });
}

Server::~Server() { stop(); }

bool Server::start() {
  assert(!Started && "server started twice");
  if (!Opts.TraceDir.empty()) {
    // Best-effort, like all tracing: a trace dir that cannot be made
    // costs the traces (each flush warns), never the daemon.
    std::error_code EC;
    std::filesystem::create_directories(Opts.TraceDir, EC);
    if (EC)
      support::Log::warn("trace.dir_failed",
                         {{"path", Opts.TraceDir},
                          {"error", EC.message()}});
  }
  if (!Opts.CertDir.empty()) {
    std::error_code EC;
    std::filesystem::create_directories(Opts.CertDir, EC);
    if (EC)
      support::Log::warn("cert.dir_failed",
                         {{"path", Opts.CertDir},
                          {"error", EC.message()}});
  }
  if (!Frames.start())
    return false;
  if (!Opts.TraceLive && !Opts.TraceDir.empty()) {
    // Per-request trace files. Collecting from start-up, not from the
    // first request's run, gives that request its acd.request root span
    // (opened before the run) like every later one. Rule fire counts ride
    // along in each trace's ruleProfile key; the profiler is cumulative
    // across requests (concurrent workers share it, like the span
    // buffers).
    support::RuleProfile::setEnabled(true);
    support::Trace::start();
  }
  Started = true;
  for (unsigned I = 0; I != Opts.Workers; ++I)
    SessionWorkers.emplace_back([this] { workerLoop(); });
  return true;
}

void Server::beginDrain() { Frames.beginDrain(); }

void Server::waitDrained() {
  {
    std::unique_lock<std::mutex> L(QueueM);
    DrainCV.wait(L, [&] { return Queue.empty() && InFlight.load() == 0; });
  }
  std::lock_guard<std::mutex> L(CachesM);
  for (auto &[Dir, Cache] : Caches)
    Cache->save();
}

void Server::stop() {
  if (!Started)
    return;
  beginDrain();
  waitDrained();
  {
    std::lock_guard<std::mutex> L(QueueM);
    Stopping.store(true);
    QueueCV.notify_all();
  }
  for (std::thread &W : SessionWorkers)
    W.join();
  SessionWorkers.clear();
  Frames.stop();
  Started = false;
}

size_t Server::queueDepth() const {
  std::lock_guard<std::mutex> L(QueueM);
  return Queue.size();
}

void Server::handleCheck(const FrameServer::ConnRef &C, const Json &J) {
  auto R = std::make_shared<Request>();
  R->C = C;
  std::string Err;
  if (!CheckRequest::fromJson(J, R->Req, Err)) {
    C->send(CheckResponse::error(ErrorCode::BadRequest, Err).toJson());
    return;
  }
  // A trace id names the per-request trace file under --trace-dir, so a
  // client-supplied id is only accepted when it cannot steer the path
  // (pathSafeTraceId); anything else is discarded and the daemon names
  // the request itself.
  if (!pathSafeTraceId(R->Req.TraceId)) {
    std::string Minted = mintTraceId("req");
    if (!R->Req.TraceId.empty())
      support::Log::warn("request.trace_id_replaced",
                         {{"trace_id", Minted},
                          {"reason", "client id not path-safe"}});
    R->Req.TraceId = std::move(Minted);
  }
  R->Admitted = std::chrono::steady_clock::now();
  if (R->Req.TimeoutMs) {
    R->HasDeadline = true;
    R->Deadline =
        R->Admitted + std::chrono::milliseconds(R->Req.TimeoutMs);
  }
  auto reject = [&](ErrorCode E, const char *Msg, unsigned RetryMs) {
    Metrics.Rejected.fetch_add(1);
    support::Log::warn("request.rejected",
                       {{"trace_id", R->Req.TraceId},
                        {"error", errorCodeName(E)}});
    CheckResponse Resp = CheckResponse::error(E, Msg, RetryMs);
    Resp.TraceId = R->Req.TraceId;
    C->send(Resp.toJson());
  };
  // A shed answer refuses the request before it enters the queue, like
  // reject, but with its own typed code and counters so overload
  // behaviour is observable separately from capacity backpressure.
  auto shed = [&](const char *Reason, const std::string &Msg) {
    Metrics.Shed.fetch_add(1);
    Metrics.noteTenantShed(R->Req.Tenant);
    support::Log::warn("request.shed",
                       {{"trace_id", R->Req.TraceId},
                        {"tenant", R->Req.Tenant},
                        {"priority", priorityName(R->Req.Prio)},
                        {"reason", Reason}});
    CheckResponse Resp = CheckResponse::error(ErrorCode::Shed, Msg);
    Resp.TraceId = R->Req.TraceId;
    C->send(Resp.toJson());
  };
  {
    std::lock_guard<std::mutex> L(QueueM);
    if (Frames.draining()) {
      reject(ErrorCode::Draining, "daemon is draining", 0);
      return;
    }
    // Staleness shedding: a bulk request whose whole deadline budget is
    // below the observed p99 service time would only time out in queue;
    // answer `shed` now so the client can replan instead of waiting.
    // Interactive work is never shed, and a cold daemon (too few
    // samples) never sheds either.
    if (R->Req.Prio == Priority::Bulk && R->HasDeadline) {
      bool Forced = FaultShedStale.fire();
      double P99Ms = Metrics.TotalH.quantile(0.99) * 1e3;
      bool Stale =
          Metrics.TotalH.count() >= Opts.ShedMinSamples &&
          static_cast<double>(R->Req.TimeoutMs) < P99Ms;
      if (Forced || Stale) {
        shed("stale bulk",
             "deadline budget below observed p99 service time");
        return;
      }
    }
    // Bulk admission stops at 3/4 of the queue: the reserved headroom
    // keeps a bulk flood from ever filling the slots an interactive
    // burst needs.
    size_t Cap = Opts.QueueCapacity;
    if (R->Req.Prio == Priority::Bulk)
      Cap = std::max<size_t>(1, Cap - Cap / 4);
    if (Queue.size() >= Cap) {
      reject(ErrorCode::Busy, "admission queue full", Opts.RetryAfterMs);
      return;
    }
    Metrics.Received.fetch_add(1);
    Metrics.noteTenantAdmitted(R->Req.Tenant);
    // Logged before the queue push: once a worker can claim the
    // request, its lifecycle lines may land at any moment, and the log
    // must read received -> completed/failed for every trace id.
    support::Log::info(
        "request.received",
        {{"trace_id", R->Req.TraceId},
         {"source_bytes", static_cast<uint64_t>(R->Req.Source.size())},
         {"priority", priorityName(R->Req.Prio)},
         {"timeout_ms", R->Req.TimeoutMs}});
    // Two-class queue in one deque: interactive requests insert before
    // the first bulk one (FIFO within each class), so pop_front always
    // serves interactive first.
    if (R->Req.Prio == Priority::Interactive) {
      auto It = std::find_if(Queue.begin(), Queue.end(),
                             [](const std::shared_ptr<Request> &Q) {
                               return Q->Req.Prio == Priority::Bulk;
                             });
      Queue.insert(It, R);
    } else {
      Queue.push_back(R);
    }
    QueueCV.notify_one();
  }
  // One outstanding check per connection: block this reader until the
  // worker has sent (or abandoned) the response, so frames never race.
  if (R->waitDone(/*UntilDeadline=*/true))
    return;
  // The deadline passed first. A still-queued request gives its slot
  // back now; a running one keeps its worker (AutoCorres::run is not
  // preemptible) but is flagged so the worker discards its result.
  {
    std::lock_guard<std::mutex> L(QueueM);
    auto It = std::find(Queue.begin(), Queue.end(), R);
    if (It != Queue.end()) {
      Queue.erase(It);
      DrainCV.notify_all();
    }
  }
  R->Cancelled.store(true);
  if (!answerDeadline(*R))
    R->waitDone(/*UntilDeadline=*/false); // the worker is sending
}

//===----------------------------------------------------------------------===//
// Session workers
//===----------------------------------------------------------------------===//

void Server::workerLoop() {
  for (;;) {
    std::shared_ptr<Request> R;
    {
      std::unique_lock<std::mutex> L(QueueM);
      QueueCV.wait(L, [&] { return Stopping.load() || !Queue.empty(); });
      if (Queue.empty())
        return; // stopping, nothing left
      R = Queue.front();
      Queue.pop_front();
      Metrics.noteInFlight(InFlight.fetch_add(1) + 1);
    }
    runRequest(*R);
    R->markDone();
    {
      std::lock_guard<std::mutex> L(QueueM);
      InFlight.fetch_sub(1);
      DrainCV.notify_all();
    }
  }
}

bool Server::answerDeadline(Request &R) {
  if (!R.claimRespond())
    return false;
  Metrics.DeadlineExceeded.fetch_add(1);
  support::Log::warn("request.deadline_exceeded",
                     {{"trace_id", R.Req.TraceId},
                      {"timeout_ms", R.Req.TimeoutMs}});
  CheckResponse Resp = CheckResponse::error(
      ErrorCode::DeadlineExceeded,
      "deadline of " + std::to_string(R.Req.TimeoutMs) + " ms exceeded");
  Resp.TraceId = R.Req.TraceId;
  // Keep the received = completed + failed + cancelled partition exact:
  // a delivered deadline answer is a failed request, an undeliverable one
  // means the client already hung up.
  if (R.C->send(Resp.toJson()))
    Metrics.Failed.fetch_add(1);
  else
    Metrics.Cancelled.fetch_add(1);
  double TotalS = secondsBetween(R.Admitted, std::chrono::steady_clock::now());
  Metrics.TotalH.record(TotalS);
  Metrics.noteRequest(R.Req.TraceId, R.Req.Tenant, priorityName(R.Req.Prio),
                      TotalS, /*WaitS=*/0, /*Ok=*/false);
  return true;
}

void Server::runRequest(Request &R) {
  // The client may have hung up while the request sat in the queue;
  // don't burn a session on a response nobody will read. (Claim the
  // response so its connection thread doesn't answer a deadline on a
  // dead connection either.)
  if (R.C->peerClosed()) {
    if (R.claimRespond()) {
      Metrics.Cancelled.fetch_add(1);
      support::Log::info("request.cancelled",
                         {{"trace_id", R.Req.TraceId},
                          {"reason", "client hung up while queued"}});
    }
    return;
  }
  // Already past deadline at dequeue (popped in the instant before its
  // connection thread woke): answer without running.
  if (R.expired(std::chrono::steady_clock::now())) {
    answerDeadline(R);
    return;
  }
  double WaitS = secondsBetween(R.Admitted, std::chrono::steady_clock::now());
  Metrics.WaitH.record(WaitS);

  // Install the wire-carried trace context for this worker thread: the
  // request's spans stamp its trace id and chain under the router's
  // forward span (parent_span) when one was sent.
  uint64_t WireParent = 0;
  if (!R.Req.ParentSpan.empty())
    WireParent = std::strtoull(R.Req.ParentSpan.c_str(), nullptr, 10);
  support::TraceContextScope TScope(R.Req.TraceId, WireParent);
  support::Span ReqSpan("acd.request");
  if (!Opts.ShardId.empty())
    ReqSpan.arg("shard_id", Opts.ShardId);
  if (!R.Req.Tenant.empty())
    ReqSpan.arg("tenant", R.Req.Tenant);
  ReqSpan.arg("priority", priorityName(R.Req.Prio));
  // The queue wait ended on this thread just now; backdate its start so
  // the admission-to-dequeue gap is visible as a child of acd.request.
  if (support::Trace::enabled()) {
    uint64_t EndNs = support::Trace::nowNs();
    auto WaitNs = static_cast<uint64_t>(WaitS * 1e9);
    std::vector<std::pair<std::string, std::string>> Args;
    if (!R.Req.TraceId.empty())
      Args.emplace_back("trace_id", R.Req.TraceId);
    Args.emplace_back("span", std::to_string(support::Trace::nextSpanId()));
    if (uint64_t P = ReqSpan.id())
      Args.emplace_back("parent", std::to_string(P));
    support::Trace::record("acd.queue_wait",
                           EndNs > WaitNs ? EndNs - WaitNs : 0, EndNs,
                           std::move(Args));
  }

  // Chunked so a deadline's cancellation lands mid-delay: this delay
  // is the tests' stand-in for a long pipeline phase, and it doubles as
  // the worker's cooperative cancellation point.
  for (unsigned Slept = 0;
       Slept < R.Req.DebugDelayMs && !R.Cancelled.load(); Slept += 5)
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  if (R.Cancelled.load())
    return; // the connection thread answered at the deadline

  CheckContext Ctx;
  Ctx.Jobs = R.Req.Jobs ? R.Req.Jobs
                        : (Opts.Jobs ? Opts.Jobs
                                     : support::ThreadPool::defaultJobs());
  Ctx.SharedCache = cacheFor(R.Req.CacheDir);
  // Per-request certificate, named by the correlation id exactly like
  // per-request traces. The id was forced path-safe at admission, so
  // this composition cannot be steered out of CertDir.
  if (!Opts.CertDir.empty())
    Ctx.CertPath = Opts.CertDir + "/" + R.Req.TraceId + ".acpc";
  if (Ctx.Jobs > 1) {
    std::lock_guard<std::mutex> L(PoolM);
    if (!Pool)
      Pool = std::make_unique<support::ThreadPool>(Ctx.Jobs);
    Ctx.SharedPool = Pool.get();
  }

  // Per-request tracing (collection started in start()): spans recorded
  // during this run (and, with concurrent workers, any overlapping run)
  // flush to one file named by the request's correlation id. Disabled in
  // live fleet mode — the flush-reset would drain the buffers trace_pull
  // is collecting.
  bool Tracing = !Opts.TraceDir.empty() && !Opts.TraceLive;

  CheckResponse Resp = runCheck(R.Req, Ctx);

  // Exactly-once: if the deadline fired while we ran, the connection
  // thread has already answered `deadline_exceeded` — discard this result.
  if (!R.claimRespond()) {
    if (Tracing)
      support::Trace::reset();
    return;
  }

  if (Resp.Ok) {
    Metrics.ParseH.record(Resp.ParseSeconds);
    Metrics.AbstractH.record(Resp.AbstractWallSeconds);
    Metrics.ParseCpuMicros.fetch_add(
        static_cast<uint64_t>(Resp.ParseCpuSeconds * 1e6));
    Metrics.AbstractCpuMicros.fetch_add(
        static_cast<uint64_t>(Resp.AbstractCpuSeconds * 1e6));
    Metrics.CacheHits.fetch_add(Resp.CacheHits);
    Metrics.CacheMisses.fetch_add(Resp.CacheMisses);
    Metrics.CacheInvalidations.fetch_add(Resp.CacheInvalidations);
  }
  support::Json Reply;
  {
    AC_SPAN("acd.reply");
    Reply = Resp.toJson();
  }
  bool Delivered = R.C->send(Reply);
  double TotalS = secondsBetween(R.Admitted, std::chrono::steady_clock::now());
  if (!Delivered) {
    Metrics.Cancelled.fetch_add(1);
    support::Log::info("request.cancelled",
                       {{"trace_id", R.Req.TraceId},
                        {"reason", "response undeliverable"}});
  } else if (Resp.Ok) {
    Metrics.Completed.fetch_add(1);
    support::Log::info("request.completed",
                       {{"trace_id", R.Req.TraceId},
                        {"functions", Resp.NumFunctions},
                        {"cache_hits", Resp.CacheHits},
                        {"total_ms", TotalS * 1e3}});
  } else {
    Metrics.Failed.fetch_add(1);
    support::Log::error("request.failed",
                        {{"trace_id", R.Req.TraceId},
                         {"error", errorCodeName(Resp.Err)},
                         {"message", Resp.Message}});
  }
  Metrics.TotalH.record(TotalS);
  Metrics.noteRequest(R.Req.TraceId, R.Req.Tenant,
                      priorityName(R.Req.Prio), TotalS, WaitS,
                      Delivered && Resp.Ok);
  // Land the request span before a per-request flush drains the buffers.
  ReqSpan.end();

  if (Tracing) {
    std::string Path = Opts.TraceDir + "/" + R.Req.TraceId + ".json";
    if (!support::Trace::flushReset(Path))
      support::Log::warn("trace.write_failed",
                         {{"trace_id", R.Req.TraceId}, {"path", Path}});
  }
}

//===----------------------------------------------------------------------===//
// Stats and cache tiers
//===----------------------------------------------------------------------===//

ServiceMetrics::Snapshot Server::snapshot() {
  ServiceMetrics::Snapshot S =
      Metrics.snapshot(queueDepth(), Opts.QueueCapacity, InFlight.load(),
                       Opts.Workers, memCacheEntries(), Frames.draining());
  S.AuthFailed = Frames.authFailures();
  return S;
}

ResultCache *Server::cacheFor(const std::string &RequestedDir) {
  std::string Dir = ResultCache::resolveDir(
      RequestedDir.empty() ? Opts.CacheDir : RequestedDir);
  std::lock_guard<std::mutex> L(CachesM);
  std::unique_ptr<ResultCache> &Slot = Caches[Dir];
  if (!Slot) {
    Slot = std::make_unique<ResultCache>(Dir);
    if (Opts.Remote)
      Slot->setRemote(Opts.Remote);
  }
  return Slot.get();
}

size_t Server::memCacheEntries() {
  std::lock_guard<std::mutex> L(CachesM);
  size_t N = 0;
  for (const auto &[Dir, Cache] : Caches)
    N += Cache->size();
  return N;
}

size_t Server::remoteHitsTotal() {
  std::lock_guard<std::mutex> L(CachesM);
  size_t N = 0;
  for (const auto &[Dir, Cache] : Caches)
    N += Cache->remoteHits();
  return N;
}
