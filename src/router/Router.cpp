//===- Router.cpp ---------------------------------------------------------===//

#include "router/Router.h"

#include "support/FaultInject.h"
#include "support/Fingerprint.h"
#include "support/Log.h"
#include "support/Trace.h"

#include <algorithm>
#include <chrono>
#include <cstdio>

using namespace ac;
using namespace ac::router;
using service::CheckRequest;
using service::CheckResponse;
using service::ErrorCode;
using support::FaultSite;
using support::Fingerprint;
using support::Json;

// Fault sites at the router's two network edges. Dial covers a shard
// that is down before the request starts; forward covers a shard that
// dies mid-request (the round-trip tears) — both must reroute, and the
// rerouted answer must be byte-identical.
static const FaultSite FaultRouterDial("router.dial.fail");
static const FaultSite FaultRouterForward("router.forward.fail");

Router::Router(RouterOptions O)
    : Opts(std::move(O)), Frames(Opts, "acrouter", "router") {
  if (Opts.MaxInFlightPerShard == 0)
    Opts.MaxInFlightPerShard = 1;
  using ConnRef = service::FrameServer::ConnRef;
  Frames.on("check",
            [this](const ConnRef &C, const Json &J) { handleCheck(C, J); });
  Frames.on("stats",
            [this](const ConnRef &C, const Json &) { C->send(statsJson()); });
  Frames.on("metrics", [this](const ConnRef &C, const Json &) {
    C->send(federatedMetricsJson());
  });
  Frames.on("fleet",
            [this](const ConnRef &C, const Json &) { C->send(fleetJson()); });
}

Router::~Router() { stop(); }

/// FNV-1a (support::Fingerprint) has no final avalanche step, so the
/// digests of near-identical inputs — shard addresses differing in one
/// character, vnode counters — cluster on the ring and shard arcs clump
/// badly (measured: 59% / 2% shares at 4 shards). A splitmix64-style
/// finalizer restores uniformity; both ring points and routing keys go
/// through it so the lower_bound walk sees uniform positions on both
/// sides.
static uint64_t mix64(uint64_t X) {
  X ^= X >> 30;
  X *= 0xbf58476d1ce4e5b9ull;
  X ^= X >> 27;
  X *= 0x94d049bb133111ebull;
  X ^= X >> 31;
  return X;
}

uint64_t Router::routingKey(const CheckRequest &Req) {
  // Content only: the same translation unit + output-shaping options
  // must land on the same shard no matter its trace id, deadline, or
  // client-side cache directory — that is what keeps shard-local cache
  // tiers hot. Option order is normalized away.
  Fingerprint FP;
  FP.str(Req.Source);
  std::vector<std::string> HL = Req.NoHeapAbs, WA = Req.NoWordAbs;
  std::sort(HL.begin(), HL.end());
  std::sort(WA.begin(), WA.end());
  for (const std::string &S : HL)
    FP.str(S);
  for (const std::string &S : WA)
    FP.str(S);
  FP.boolean(Req.WantSpecs);
  return mix64(FP.digest());
}

size_t Router::shardFor(uint64_t Key) const {
  auto It = Ring.lower_bound(Key);
  if (It == Ring.end())
    It = Ring.begin(); // wrap: the ring is circular
  return It->second;
}

bool Router::start() {
  if (Opts.Shards.empty())
    return false;
  for (const std::string &Addr : Opts.Shards)
    ShardList.push_back(std::make_unique<ShardState>(Addr));
  // The ring hashes by shard *address*, so the mapping is stable under
  // reordering of --shard flags. 64 points per shard keep the arcs even.
  for (size_t I = 0; I != ShardList.size(); ++I)
    for (unsigned V = 0; V != 64; ++V) {
      Fingerprint FP;
      FP.str(ShardList[I]->Addr);
      FP.u32(V);
      Ring[mix64(FP.digest())] = I;
    }
  if (!Frames.start())
    return false;
  Started = true;
  Prober = std::thread([this] { probeLoop(); });
  return true;
}

void Router::stop() {
  if (!Started)
    return;
  Stopping.store(true);
  Prober.join();
  Frames.stop();
  Started = false;
}

//===----------------------------------------------------------------------===//
// Health probes
//===----------------------------------------------------------------------===//

void Router::probeLoop() {
  while (!Stopping.load()) {
    // Sleep one interval *before* each round (shards start presumed
    // healthy, and a forward failure marks one down immediately, so an
    // eager first round buys nothing) — this also makes "probe interval
    // longer than the test" an exact statement: no probe ever runs, the
    // router's view of the fleet only changes through forward failures.
    for (unsigned Slept = 0;
         Slept < Opts.HealthProbeMs && !Stopping.load(); Slept += 20)
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    if (Stopping.load())
      return;
    for (const std::unique_ptr<ShardState> &S : ShardList) {
      if (Stopping.load())
        return;
      // A fresh dial per probe, deliberately outside the fault sites:
      // chaos drivers arm router.dial.fail for the *forward* path, and
      // a probe racing in must not consume the armed failure.
      std::string Err;
      service::Client C =
          service::Client::connectTcp(S->Addr, Opts.ShardToken, Err);
      if (C.connected() && C.ping(Err)) {
        if (!S->Up.exchange(true))
          support::Log::warn("router.shard_up", {{"shard", S->Addr}});
      } else if (S->healthy()) {
        noteForwardFailure(*S); // counts like a failed forward
      }
    }
  }
}

//===----------------------------------------------------------------------===//
// Forwarding
//===----------------------------------------------------------------------===//

bool Router::forwardTo(ShardState &S, const CheckRequest &Req,
                       CheckResponse &Out) {
  service::Client C;
  {
    std::lock_guard<std::mutex> L(S.PoolM);
    if (!S.Pool.empty()) {
      C = std::move(S.Pool.back());
      S.Pool.pop_back();
    }
  }
  std::string Err;
  if (!C.connected() || !C.check(Req, Out, Err)) {
    if (C.connected()) {
      // A stale pooled connection (the shard restarted since it was
      // pooled) is not a failure yet, and its siblings are stale too.
      std::lock_guard<std::mutex> L(S.PoolM);
      S.Pool.clear();
    }
    if (FaultRouterDial.fire())
      return false; // shard down before the request starts
    C = service::Client::connectTcp(S.Addr, Opts.ShardToken, Err);
    // Shard death mid-request: the frame went out, the connection tore
    // before the reply. Indistinguishable from SIGKILL between request
    // and response — which is exactly what tier-1 pass 10 does for real.
    if (!C.connected() || FaultRouterForward.fire() ||
        !C.check(Req, Out, Err))
      return false;
  }
  std::lock_guard<std::mutex> L(S.PoolM);
  S.Pool.push_back(std::move(C));
  return true;
}

void Router::noteForwardFailure(ShardState &S) {
  S.Errors.fetch_add(1);
  {
    // Whatever tore this attempt has likely torn the idle pool too.
    std::lock_guard<std::mutex> L(S.PoolM);
    S.Pool.clear();
  }
  if (S.Up.exchange(false))
    support::Log::warn("router.shard_down", {{"shard", S.Addr}});
}

size_t Router::pickShard(uint64_t Key, const std::vector<bool> &Tried) const {
  auto It = Ring.lower_bound(Key);
  for (size_t Steps = 0; Steps != Ring.size(); ++Steps, ++It) {
    if (It == Ring.end())
      It = Ring.begin();
    size_t Cand = It->second;
    if (!Tried[Cand] && ShardList[Cand]->healthy())
      return Cand;
  }
  return SIZE_MAX;
}

void Router::handleCheck(const service::FrameServer::ConnRef &C,
                         const Json &J) {
  CheckRequest Req;
  std::string Err;
  if (!CheckRequest::fromJson(J, Req, Err)) {
    C->send(CheckResponse::error(ErrorCode::BadRequest, Err).toJson());
    return;
  }
  Received.fetch_add(1);
  auto Admitted = std::chrono::steady_clock::now();
  // The fleet's front door mints the trace id: every hop downstream —
  // forwards, shard pipelines, remote-cache round-trips — stamps its
  // spans with this one id, which is what lets actrace reassemble the
  // request across processes. A client-supplied id is kept when it is
  // path-safe (shards embed it in artifact filenames).
  if (!service::pathSafeTraceId(Req.TraceId))
    Req.TraceId = service::mintTraceId("req");
  support::TraceContextScope TScope(Req.TraceId, 0);
  support::Span ReqSpan("router.request");
  auto respond = [&](CheckResponse &Resp) {
    if (Resp.TraceId.empty())
      Resp.TraceId = Req.TraceId;
    C->send(Resp.toJson());
  };
  if (Frames.draining()) {
    ReqSpan.arg("outcome", "draining");
    CheckResponse Resp =
        CheckResponse::error(ErrorCode::Draining, "router is draining");
    respond(Resp);
    return;
  }

  uint64_t Key = routingKey(Req);
  // Walk the ring from the key's successor: the first routable, untried
  // shard in ring order serves the request. Ring order (not shard-list
  // order) keeps rerouted keys spread instead of dogpiling shard 0.
  std::vector<bool> Tried(ShardList.size(), false);
  size_t TriedCount = 0;
  Forwarding.fetch_add(1);
  while (TriedCount < ShardList.size()) {
    // Deadline propagation: each attempt forwards only the remaining
    // budget, so a shard cannot burn time the client no longer has.
    CheckRequest Fwd = Req;
    if (Req.TimeoutMs) {
      auto ElapsedMs = static_cast<uint64_t>(
          std::chrono::duration_cast<std::chrono::milliseconds>(
              std::chrono::steady_clock::now() - Admitted)
              .count());
      if (ElapsedMs >= Req.TimeoutMs) {
        Forwarding.fetch_sub(1);
        ReqSpan.arg("outcome", "deadline");
        CheckResponse Resp = CheckResponse::error(
            ErrorCode::DeadlineExceeded,
            "deadline of " + std::to_string(Req.TimeoutMs) +
                " ms exceeded in the router");
        respond(Resp);
        return;
      }
      Fwd.TimeoutMs = Req.TimeoutMs - static_cast<unsigned>(ElapsedMs);
    }
    // Next routable untried shard in ring order from the key.
    size_t Idx = pickShard(Key, Tried);
    if (Idx == SIZE_MAX)
      break; // no routable shard left
    ShardState &S = *ShardList[Idx];
    // Bounded in-flight window: backpressure instead of stacking onto a
    // loaded shard. No reroute — moving overflow to another shard would
    // defeat cache affinity; the client's retry obeys retry_after_ms.
    unsigned Cur = S.InFlight.fetch_add(1) + 1;
    if (Cur > Opts.MaxInFlightPerShard) {
      S.InFlight.fetch_sub(1);
      Forwarding.fetch_sub(1);
      WindowBusy.fetch_add(1);
      ReqSpan.arg("outcome", "window_busy");
      CheckResponse Resp = CheckResponse::error(
          ErrorCode::Busy, "shard window full", Opts.RetryAfterMs);
      respond(Resp);
      return;
    }
    CheckResponse Out;
    support::Span FSpan("router.forward");
    FSpan.arg("shard", S.Addr);
    if (FSpan.active())
      Fwd.ParentSpan = std::to_string(FSpan.id());
    S.Routed.fetch_add(1);
    bool Ok = forwardTo(S, Fwd, Out);
    FSpan.arg("ok", Ok ? "1" : "0");
    FSpan.end();
    S.InFlight.fetch_sub(1);
    if (Ok) {
      S.Forwarded.fetch_add(1);
      Completed.fetch_add(1);
      Forwarding.fetch_sub(1);
      ReqSpan.arg("outcome", "completed");
      ReqSpan.arg("winner", S.Addr);
      respond(Out);
      return;
    }
    // Transport failure: mark the shard down (the prober marks it up
    // again) and reroute to the next ring node.
    noteForwardFailure(S);
    Tried[Idx] = true;
    ++TriedCount;
    Rerouted.fetch_add(1);
  }
  // No routable shard: a typed `busy` the client's retry obeys, and
  // past its bound the client's own fallback rule decides.
  Forwarding.fetch_sub(1);
  ReqSpan.arg("outcome", "no_healthy_shard");
  CheckResponse Resp = CheckResponse::error(
      ErrorCode::Busy, "no healthy shard", Opts.RetryAfterMs);
  respond(Resp);
}

ac::support::Json Router::statsJson() {
  Json J = Json::object();
  J.set("ok", true);
  J.set("role", "router");
  J.set("draining", Frames.draining());
  J.set("received", Received.load());
  J.set("completed", Completed.load());
  J.set("rerouted", Rerouted.load());
  J.set("window_busy", WindowBusy.load());
  J.set("forwarding", static_cast<uint64_t>(Forwarding.load()));
  Json Shards = Json::array();
  for (const std::unique_ptr<ShardState> &S : ShardList) {
    Json SJ = Json::object();
    SJ.set("addr", S->Addr);
    SJ.set("healthy", S->healthy());
    SJ.set("in_flight", static_cast<uint64_t>(S->InFlight.load()));
    SJ.set("forwarded", S->Forwarded.load());
    SJ.set("errors", S->Errors.load());
    SJ.set("routed", S->Routed.load());
    SJ.set("won", S->Forwarded.load());
    Shards.push(std::move(SJ));
  }
  J.set("shards", std::move(Shards));
  return J;
}

//===----------------------------------------------------------------------===//
// Metrics federation and the fleet payload
//===----------------------------------------------------------------------===//

/// Merges Prometheus text expositions into one: HELP/TYPE headers are
/// emitted once per metric family (first block's wording wins), and
/// samples from every block regroup under their family so the merged
/// output is still a legal exposition (a family's samples must be
/// contiguous). Families keep first-seen order.
static std::string mergeExpositions(const std::vector<std::string> &Bodies) {
  struct Family {
    std::string Help, Type;
    std::vector<std::string> Samples;
  };
  std::vector<std::string> Order;
  std::map<std::string, Family> Families;
  for (const std::string &Body : Bodies) {
    Family *Cur = nullptr;
    size_t Pos = 0;
    while (Pos < Body.size()) {
      size_t End = Body.find('\n', Pos);
      if (End == std::string::npos)
        End = Body.size();
      std::string Line = Body.substr(Pos, End - Pos);
      Pos = End + 1;
      if (Line.empty())
        continue;
      bool IsHelp = Line.rfind("# HELP ", 0) == 0;
      bool IsType = Line.rfind("# TYPE ", 0) == 0;
      if (IsHelp || IsType) {
        std::string Rest = Line.substr(7);
        std::string Name = Rest.substr(0, Rest.find(' '));
        auto It = Families.find(Name);
        if (It == Families.end()) {
          Order.push_back(Name);
          It = Families.emplace(Name, Family{}).first;
        }
        Cur = &It->second;
        std::string &Slot = IsHelp ? Cur->Help : Cur->Type;
        if (Slot.empty())
          Slot = std::move(Line);
      } else if (Line[0] == '#') {
        continue; // stray comments don't survive the merge
      } else if (Cur) {
        Cur->Samples.push_back(std::move(Line));
      }
    }
  }
  std::string Out;
  for (const std::string &Name : Order) {
    Family &F = Families[Name];
    if (!F.Help.empty())
      Out += F.Help + "\n";
    if (!F.Type.empty())
      Out += F.Type + "\n";
    for (const std::string &S : F.Samples)
      Out += S + "\n";
  }
  return Out;
}

ac::support::Json Router::federatedMetricsJson() {
  // One steady instant anchors the whole scrape: every block's
  // acd_scrape_age_seconds is measured against the same `Now`, so ages
  // across shards are comparable and a healthy fleet reads ~0 — while a
  // dead shard's last-good block ages visibly.
  auto Now = std::chrono::steady_clock::now();
  auto ageS = [&](std::chrono::steady_clock::time_point At) {
    return std::chrono::duration<double>(Now - At).count();
  };
  char Buf[256];
  std::vector<std::string> Bodies;
  std::string AgeBlock =
      "# HELP acd_scrape_age_seconds Age of each scraped block in the "
      "federated exposition (0 = scraped live this request).\n"
      "# TYPE acd_scrape_age_seconds gauge\n";
  for (const std::unique_ptr<ShardState> &S : ShardList) {
    std::string Body, Err;
    service::Client C =
        service::Client::connectTcp(S->Addr, Opts.ShardToken, Err);
    bool Live = C.connected() && C.metricsText(Body, Err);
    std::lock_guard<std::mutex> L(S->ScrapeM);
    if (Live) {
      S->LastMetricsBody = std::move(Body);
      S->LastMetricsAt = Now;
    }
    if (S->LastMetricsBody.empty())
      continue; // never scraped successfully: nothing to re-serve
    Bodies.push_back(S->LastMetricsBody);
    std::snprintf(Buf, sizeof(Buf),
                  "acd_scrape_age_seconds{shard_id=\"%s\"} %.6f\n",
                  S->Addr.c_str(), ageS(S->LastMetricsAt));
    AgeBlock += Buf;
  }
  if (!Opts.CacheAddr.empty()) {
    std::string Body, Err;
    service::Client C =
        service::Client::connectTcp(Opts.CacheAddr, Opts.ShardToken, Err);
    if (C.connected() && C.metricsText(Body, Err)) {
      Bodies.push_back(std::move(Body));
      std::snprintf(Buf, sizeof(Buf),
                    "acd_scrape_age_seconds{shard_id=\"%s\"} 0\n",
                    Opts.CacheAddr.c_str());
      AgeBlock += Buf;
    }
  }
  // The router's own block, through the same merger as everyone else's.
  std::string R;
  auto Counter = [&](const char *Name, const char *Help, uint64_t V) {
    std::snprintf(Buf, sizeof(Buf),
                  "# HELP %s %s\n# TYPE %s counter\n%s %llu\n", Name,
                  Help, Name, Name,
                  static_cast<unsigned long long>(V));
    R += Buf;
  };
  Counter("acrouter_requests_received_total",
          "Check requests accepted by the router.", Received.load());
  Counter("acrouter_requests_completed_total",
          "Check requests answered by a shard.", Completed.load());
  Counter("acrouter_rerouted_total",
          "Forward attempts rerouted after a transport failure.",
          Rerouted.load());
  Counter("acrouter_window_busy_total",
          "Requests bounced busy off a full shard window.",
          WindowBusy.load());
  R += "# HELP acrouter_forward_routed_total Attempts dispatched to "
       "each shard, failed ones included.\n"
       "# TYPE acrouter_forward_routed_total counter\n";
  for (const std::unique_ptr<ShardState> &S : ShardList) {
    std::snprintf(Buf, sizeof(Buf),
                  "acrouter_forward_routed_total{shard=\"%s\"} %llu\n",
                  S->Addr.c_str(),
                  static_cast<unsigned long long>(S->Routed.load()));
    R += Buf;
  }
  R += "# HELP acrouter_forward_winner_total Requests whose answer each "
       "shard supplied (exactly one winner per answered request).\n"
       "# TYPE acrouter_forward_winner_total counter\n";
  for (const std::unique_ptr<ShardState> &S : ShardList) {
    std::snprintf(Buf, sizeof(Buf),
                  "acrouter_forward_winner_total{shard=\"%s\"} %llu\n",
                  S->Addr.c_str(),
                  static_cast<unsigned long long>(S->Forwarded.load()));
    R += Buf;
  }
  R += "# HELP acrouter_shard_healthy 1 when the shard is marked up, 0 "
       "when a transport failure marked it down.\n"
       "# TYPE acrouter_shard_healthy gauge\n";
  for (const std::unique_ptr<ShardState> &S : ShardList) {
    std::snprintf(Buf, sizeof(Buf),
                  "acrouter_shard_healthy{shard=\"%s\"} %d\n",
                  S->Addr.c_str(), S->healthy() ? 1 : 0);
    R += Buf;
  }
  Bodies.push_back(std::move(R));
  Bodies.push_back(std::move(AgeBlock));
  Json J = Json::object();
  J.set("ok", true);
  J.set("op", "metrics");
  J.set("content_type", "text/plain; version=0.0.4");
  J.set("body", mergeExpositions(Bodies));
  return J;
}

ac::support::Json Router::fleetJson() {
  Json J = statsJson();
  J.set("op", "fleet");
  // Live stats scrape of each shard + the cache tier, nested next to
  // the router's own per-shard view so actop renders one payload.
  Json Details = Json::array();
  for (const std::unique_ptr<ShardState> &S : ShardList) {
    Json D = Json::object();
    D.set("addr", S->Addr);
    std::string Err;
    service::Client C =
        service::Client::connectTcp(S->Addr, Opts.ShardToken, Err);
    Json St;
    if (C.connected() && C.stats(St, Err)) {
      D.set("up", true);
      D.set("stats", std::move(St));
    } else {
      D.set("up", false);
    }
    Details.push(std::move(D));
  }
  J.set("shard_stats", std::move(Details));
  if (!Opts.CacheAddr.empty()) {
    Json D = Json::object();
    D.set("addr", Opts.CacheAddr);
    std::string Err;
    service::Client C =
        service::Client::connectTcp(Opts.CacheAddr, Opts.ShardToken, Err);
    Json St;
    if (C.connected() && C.stats(St, Err)) {
      D.set("up", true);
      D.set("stats", std::move(St));
    } else {
      D.set("up", false);
    }
    J.set("cache", std::move(D));
  }
  return J;
}
