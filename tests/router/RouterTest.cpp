//===- RouterTest.cpp - The consistent-hash fleet front-end ---------------===//
//
// Part of the autocorres-cpp project, under the BSD 2-Clause License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The acrouter routing contract (docs/PROTOCOL.md "Router"): keys are
/// fingerprints of request *content* (correlation ids and deadlines must
/// not move a request between shards), the ring maps keys to shards
/// stably under --shard flag reordering, requests forward to live shards
/// and reroute off dead ones with byte-identical answers, the bounded
/// in-flight window answers `busy` + retry_after without rerouting, and
/// deadlines are enforced in the router itself.
///
//===----------------------------------------------------------------------===//

#include "router/Router.h"
#include "service/CheckRunner.h"
#include "service/Client.h"
#include "service/Server.h"
#include "support/FaultInject.h"
#include "support/Fingerprint.h"
#include "support/Trace.h"

#include <gtest/gtest.h>

#include <chrono>
#include <filesystem>
#include <set>
#include <string>
#include <thread>
#include <unistd.h>

using namespace ac;
using namespace ac::router;
using service::CheckRequest;
using service::CheckResponse;

namespace {

std::string freshDir(const std::string &Tag) {
  // Pid-unique root: concurrent invocations of this binary (ctest -j,
  // stress loops) must not race each other's remove_all.
  std::string D = ::testing::TempDir() + "ac-router-" +
                  std::to_string(::getpid()) + "/" + Tag;
  std::error_code EC;
  std::filesystem::remove_all(D, EC);
  std::filesystem::create_directories(D);
  return D;
}

CheckRequest requestFor(const std::string &Src) {
  CheckRequest Req;
  Req.Source = Src;
  return Req;
}

std::string snapshot(const CheckResponse &R) {
  std::string S;
  for (const service::FuncResult &F : R.Functions)
    S += "== " + F.Name + "\n" + F.FinalKey + "\n" + F.Render + "\n" +
         F.Pipeline + "\n";
  for (const std::string &D : R.Diagnostics)
    S += D + "\n";
  return S;
}

//===----------------------------------------------------------------------===//
// Routing keys and the ring
//===----------------------------------------------------------------------===//

TEST(RoutingKey, ContentOnly) {
  CheckRequest A = requestFor("int f(int x) { return x; }\n");
  CheckRequest B = A;
  // Correlation, deadlines, caching, and job count are delivery detail,
  // not content: they must not move the request to another shard.
  B.TraceId = "different-trace";
  B.TimeoutMs = 1234;
  B.CacheDir = "/elsewhere";
  B.Jobs = 7;
  B.DebugDelayMs = 9;
  EXPECT_EQ(Router::routingKey(A), Router::routingKey(B));

  CheckRequest C = A;
  C.Source += " ";
  EXPECT_NE(Router::routingKey(A), Router::routingKey(C));

  CheckRequest D = A;
  D.WantSpecs = true;
  EXPECT_NE(Router::routingKey(A), Router::routingKey(D));

  // Per-function options are content, but their order is not.
  CheckRequest E1 = A, E2 = A;
  E1.NoHeapAbs = {"f", "g"};
  E2.NoHeapAbs = {"g", "f"};
  EXPECT_EQ(Router::routingKey(E1), Router::routingKey(E2));
  EXPECT_NE(Router::routingKey(A), Router::routingKey(E1));
}

TEST(Ring, StableUnderShardReordering) {
  std::string Dir = freshDir("ring-order");
  auto mkRouter = [&](std::vector<std::string> Shards,
                      const std::string &Sock) {
    RouterOptions O;
    O.SocketPath = Dir + "/" + Sock;
    O.Shards = std::move(Shards);
    O.HealthProbeMs = 10000; // probes irrelevant here
    return std::make_unique<Router>(std::move(O));
  };
  // Ports chosen dead: nothing answers, but the ring is pure arithmetic.
  std::vector<std::string> Fwd = {"127.0.0.1:1", "127.0.0.1:2",
                                  "127.0.0.1:3"};
  std::vector<std::string> Rev = {"127.0.0.1:3", "127.0.0.1:2",
                                  "127.0.0.1:1"};
  auto R1 = mkRouter(Fwd, "a.sock");
  auto R2 = mkRouter(Rev, "b.sock");
  ASSERT_TRUE(R1->start());
  ASSERT_TRUE(R2->start());
  for (uint64_t I = 0; I != 512; ++I) {
    support::Fingerprint FP;
    FP.u64(I);
    uint64_t Key = FP.digest();
    EXPECT_EQ(R1->options().Shards[R1->shardFor(Key)],
              R2->options().Shards[R2->shardFor(Key)])
        << "key " << I << " moved when --shard flags were reordered";
  }
  R1->stop();
  R2->stop();
}

TEST(Ring, SpreadsKeysAcrossShards) {
  std::string Dir = freshDir("ring-spread");
  RouterOptions O;
  O.SocketPath = Dir + "/r.sock";
  O.Shards = {"127.0.0.1:1", "127.0.0.1:2", "127.0.0.1:3",
              "127.0.0.1:4"};
  O.HealthProbeMs = 10000;
  Router R(O);
  ASSERT_TRUE(R.start());
  std::vector<unsigned> Count(O.Shards.size(), 0);
  const unsigned N = 2000;
  for (uint64_t I = 0; I != N; ++I) {
    support::Fingerprint FP;
    FP.u64(I);
    ++Count[R.shardFor(FP.digest())];
  }
  for (size_t S = 0; S != Count.size(); ++S) {
    EXPECT_GT(Count[S], N / 20) << "shard " << S << " is starved";
    EXPECT_LT(Count[S], N / 2) << "shard " << S << " dominates the ring";
  }
  R.stop();
}

//===----------------------------------------------------------------------===//
// Live forwarding
//===----------------------------------------------------------------------===//

/// A fleet fixture: N real acd shards on loopback TCP plus a router on a
/// Unix socket, all in-process.
struct Fleet {
  std::vector<std::unique_ptr<service::Server>> Shards;
  std::unique_ptr<Router> R;
  std::string Sock;

  explicit Fleet(unsigned NumShards, unsigned Window = 8,
                 unsigned ProbeMs = 50, bool TraceLive = false) {
    std::string Dir = freshDir("fleet-" + std::to_string(NumShards) + "-" +
                               std::to_string(Window));
    RouterOptions RO;
    for (unsigned I = 0; I != NumShards; ++I) {
      service::ServerOptions SO;
      SO.SocketPath = "";
      SO.ListenAddr = "127.0.0.1:0";
      SO.Workers = 2;
      SO.ShardId = "s" + std::to_string(I);
      SO.TraceLive = TraceLive;
      auto S = std::make_unique<service::Server>(SO);
      EXPECT_TRUE(S->start());
      RO.Shards.push_back("127.0.0.1:" + std::to_string(S->tcpPort()));
      Shards.push_back(std::move(S));
    }
    Sock = Dir + "/r.sock";
    RO.SocketPath = Sock;
    RO.MaxInFlightPerShard = Window;
    RO.HealthProbeMs = ProbeMs;
    RO.TraceLive = TraceLive;
    R = std::make_unique<Router>(RO);
    EXPECT_TRUE(R->start());
  }

  ~Fleet() {
    if (R)
      R->stop();
    for (auto &S : Shards)
      if (S)
        S->stop();
  }

  service::Client client() {
    service::Client C = service::Client::connect(Sock);
    EXPECT_TRUE(C.connected());
    return C;
  }
};

TEST(RouterLive, ForwardsAndMatchesLocalBytes) {
  Fleet F(2);
  service::Client C = F.client();
  std::string Err;
  CheckRequest Req =
      requestFor("unsigned int inc(unsigned int x) { return x + 1u; }\n");
  CheckResponse Via, Local = service::runLocalCheck(Req);
  ASSERT_TRUE(C.check(Req, Via, Err)) << Err;
  ASSERT_TRUE(Via.Ok) << Via.Message;
  EXPECT_EQ(snapshot(Via), snapshot(Local));

  support::Json Stats;
  ASSERT_TRUE(C.stats(Stats, Err)) << Err;
  EXPECT_EQ(Stats.get("role").asString(), "router");
  EXPECT_EQ(Stats.get("completed").asInt(), 1);
}

TEST(RouterLive, ReroutesOffDeadShardByteIdentically) {
  Fleet F(2, /*Window=*/8, /*ProbeMs=*/60000);
  service::Client C = F.client();
  std::string Err;

  // Find sources landing on each shard so killing shard 0 provably
  // reroutes at least one of them.
  std::vector<CheckRequest> Reqs;
  for (int I = 0; Reqs.size() < 2 && I != 64; ++I) {
    CheckRequest Req = requestFor(
        "unsigned int f" + std::to_string(I) + "(unsigned int x) { return x + " +
        std::to_string(I) + "u; }\n");
    size_t Shard = F.R->shardFor(Router::routingKey(Req));
    if (Shard == Reqs.size())
      Reqs.push_back(Req);
  }
  ASSERT_EQ(Reqs.size(), 2u) << "could not find sources for both shards";

  std::vector<CheckResponse> Local;
  for (const CheckRequest &Req : Reqs)
    Local.push_back(service::runLocalCheck(Req));

  // Kill shard 0 without warning (stop() is graceful but the router is
  // not told; with a 60 s probe interval it still believes it healthy).
  F.Shards[0]->stop();
  F.Shards[0].reset();

  for (size_t I = 0; I != Reqs.size(); ++I) {
    CheckResponse Via;
    ASSERT_TRUE(C.check(Reqs[I], Via, Err)) << Err;
    ASSERT_TRUE(Via.Ok) << Via.Message;
    EXPECT_EQ(snapshot(Via), snapshot(Local[I]))
        << "request " << I << " diverged after the shard died";
  }
  support::Json Stats;
  ASSERT_TRUE(C.stats(Stats, Err)) << Err;
  EXPECT_GE(Stats.get("rerouted").asInt(), 1)
      << "shard 0's request must have rerouted";
}

TEST(RouterLive, RestartedShardStaysRoutableAfterOneStaleForward) {
  // A shard restarted on its port leaves the router a dead pooled
  // connection. A failed forward on a pooled connection is redialed
  // once before it counts, so the restarted shard serves the request
  // itself and stays in rotation, with no probe (60 s interval) needed.
  Fleet F(2, /*Window=*/8, /*ProbeMs=*/60000);
  service::Client C = F.client();
  std::string Err;

  std::vector<CheckRequest> Reqs;
  for (int I = 0; Reqs.size() < 3 && I != 256; ++I) {
    CheckRequest Req = requestFor(
        "unsigned int rs" + std::to_string(I) +
        "(unsigned int x) { return x * " + std::to_string(I + 2) + "u; }\n");
    if (F.R->shardFor(Router::routingKey(Req)) == 0)
      Reqs.push_back(Req);
  }
  ASSERT_EQ(Reqs.size(), 3u) << "could not find three sources for shard 0";

  // The first forward leaves a pooled connection to shard 0.
  CheckResponse First;
  ASSERT_TRUE(C.check(Reqs[0], First, Err)) << Err;
  ASSERT_TRUE(First.Ok) << First.Message;

  service::ServerOptions SO = F.Shards[0]->options();
  SO.ListenAddr = "127.0.0.1:" + std::to_string(F.Shards[0]->tcpPort());
  F.Shards[0]->stop();
  F.Shards[0] = std::make_unique<service::Server>(SO);
  ASSERT_TRUE(F.Shards[0]->start()) << "could not rebind " << SO.ListenAddr;

  for (size_t I = 1; I != Reqs.size(); ++I) {
    CheckResponse Via;
    ASSERT_TRUE(C.check(Reqs[I], Via, Err)) << Err;
    ASSERT_TRUE(Via.Ok) << Via.Message;
    EXPECT_EQ(snapshot(Via), snapshot(service::runLocalCheck(Reqs[I])))
        << "request " << I << " diverged across the restart";
  }
  // The stale connection cost a redial, no error and no reroute: the
  // restarted shard served every request.
  support::Json Stats;
  ASSERT_TRUE(C.stats(Stats, Err)) << Err;
  const support::Json &S0 = Stats.get("shards").items()[0];
  EXPECT_TRUE(S0.get("healthy").asBool());
  EXPECT_EQ(S0.get("errors").asInt(), 0);
  EXPECT_EQ(Stats.get("rerouted").asInt(), 0);
  EXPECT_EQ(S0.get("won").asInt(), 3);
}

TEST(RouterLive, AllShardsDownAnswersBusy) {
  // The router runs no pipeline: with no routable shard it answers the
  // typed `busy`, and the client's fallback rule decides what happens.
  Fleet F(1, /*Window=*/8, /*ProbeMs=*/60000);
  service::Client C = F.client();
  std::string Err;
  F.Shards[0]->stop();
  F.Shards[0].reset();

  CheckRequest Req = requestFor("int g(int x) { return x; }\n");
  CheckResponse Via;
  ASSERT_TRUE(C.check(Req, Via, Err)) << Err;
  EXPECT_FALSE(Via.Ok);
  EXPECT_EQ(Via.Err, service::ErrorCode::Busy);
  EXPECT_GT(Via.RetryAfterMs, 0u);
  EXPECT_NE(Via.Message.find("no healthy shard"), std::string::npos)
      << Via.Message;
}

TEST(RouterLive, TcpRouterEndpointGetsAccsFallbackRule) {
  // acc --router dials a token-authenticated TCP endpoint and goes
  // through the same rule as a Unix socket (service::checkWithFallback):
  // a draining router degrades to an in-process run with the same
  // bytes, and a refused token stays a typed error.
  RouterOptions RO;
  RO.ListenAddr = "127.0.0.1:0";
  RO.AuthToken = "fleet-secret";
  RO.Shards = {"127.0.0.1:1"}; // never dialed: the router drains first
  RO.HealthProbeMs = 60000;
  Router R(RO);
  ASSERT_TRUE(R.start());
  const std::string Addr = "127.0.0.1:" + std::to_string(R.tcpPort());
  std::string Err;
  service::Client Admin =
      service::Client::connectTcp(Addr, RO.AuthToken, Err);
  ASSERT_TRUE(Admin.connected()) << Err;
  ASSERT_TRUE(Admin.drain(Err)) << Err;

  CheckRequest Req =
      requestFor("unsigned int tcp(unsigned int x) { return x + 5u; }\n");
  bool UsedFallback = false;
  std::string Note;
  CheckResponse Resp = service::checkWithFallback(
      service::Endpoint{"", Addr, RO.AuthToken}, Req, UsedFallback, Note);
  ASSERT_TRUE(Resp.Ok) << Resp.Message;
  EXPECT_TRUE(UsedFallback);
  EXPECT_NE(Note.find("draining"), std::string::npos) << Note;
  EXPECT_EQ(snapshot(Resp), snapshot(service::runLocalCheck(Req)));

  Resp = service::checkWithFallback(
      service::Endpoint{"", Addr, "not-the-secret"}, Req, UsedFallback, Note);
  EXPECT_FALSE(UsedFallback) << Note;
  EXPECT_FALSE(Resp.Ok);
  EXPECT_EQ(Resp.Err, service::ErrorCode::AuthFailed) << Resp.Message;
  R.stop();
}

TEST(RouterLive, WindowFullAnswersBusyWithRetryAfter) {
  // Window of 1 with one shard: a slow request (debug delay) occupies
  // the window; the next must get busy + retry_after, not queue behind.
  Fleet F(1, /*Window=*/1);
  service::Client Slow = F.client();
  service::Client Fast = F.client();
  std::string Err;

  CheckRequest SlowReq =
      requestFor("unsigned int s(unsigned int x) { return x; }\n");
  SlowReq.DebugDelayMs = 1500;

  std::thread Holder([&] {
    CheckResponse R;
    EXPECT_TRUE(Slow.check(SlowReq, R, Err));
  });
  // Wait until the slow request actually occupies the shard window.
  CheckResponse Busy;
  std::string FErr;
  bool SawBusy = false;
  for (int I = 0; I != 100 && !SawBusy; ++I) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    CheckRequest Probe = requestFor("int p(int x) { return x; }\n");
    CheckResponse R;
    ASSERT_TRUE(Fast.check(Probe, R, FErr)) << FErr;
    if (!R.Ok && R.Err == service::ErrorCode::Busy) {
      SawBusy = true;
      EXPECT_GT(R.RetryAfterMs, 0u);
      EXPECT_NE(R.Message.find("window"), std::string::npos) << R.Message;
    }
  }
  Holder.join();
  EXPECT_TRUE(SawBusy) << "the window never filled";

  // After the slow request finishes the window reopens.
  CheckRequest After = requestFor("int q(int x) { return x; }\n");
  CheckResponse R;
  ASSERT_TRUE(Fast.check(After, R, FErr)) << FErr;
  EXPECT_TRUE(R.Ok) << R.Message;
}

TEST(RouterLive, DeadlinePropagatesThroughTheRouter) {
  // The router forwards the *remaining* budget; the shard's waiting
  // connection thread enforces it against the held request and the typed
  // error comes back through the router unchanged.
  Fleet F(1, /*Window=*/8, /*ProbeMs=*/60000);
  service::Client C = F.client();
  std::string Err;

  CheckRequest Req =
      requestFor("unsigned int d(unsigned int x) { return x; }\n");
  Req.DebugDelayMs = 400;
  Req.TimeoutMs = 120;
  CheckResponse R;
  ASSERT_TRUE(C.check(Req, R, Err)) << Err;
  EXPECT_FALSE(R.Ok);
  EXPECT_EQ(R.Err, service::ErrorCode::DeadlineExceeded)
      << "deadline must propagate to the shard and be enforced";
}

TEST(RouterLive, DrainRefusesNewWork) {
  Fleet F(1);
  service::Client C = F.client();
  std::string Err;
  ASSERT_TRUE(C.drain(Err)) << Err;
  EXPECT_TRUE(F.R->draining());
  CheckRequest Req = requestFor("int z(int x) { return x; }\n");
  CheckResponse R;
  ASSERT_TRUE(C.check(Req, R, Err)) << Err;
  EXPECT_FALSE(R.Ok);
  EXPECT_EQ(R.Err, service::ErrorCode::Draining);
}

//===----------------------------------------------------------------------===//
// Fleet observability: trace propagation, winner attribution, federation
//===----------------------------------------------------------------------===//

TEST(RouterTrace, OneTraceIdChainsRouterAndShardSpans) {
  support::Trace::reset();
  {
    Fleet F(2, /*Window=*/8, /*ProbeMs=*/50, /*TraceLive=*/true);
    service::Client C = F.client();
    std::string Err;
    CheckRequest Req =
        requestFor("unsigned int tr(unsigned int x) { return x + 3u; }\n");
    Req.TraceId = "fleet-trace-1";
    CheckResponse R;
    ASSERT_TRUE(C.check(Req, R, Err)) << Err;
    ASSERT_TRUE(R.Ok) << R.Message;
  } // ~Fleet: Router::stop() joins the connection threads, so all
    // spans have landed in the (process-shared) buffers by here.
  std::string Exported = support::Trace::exportJson(/*Reset=*/true);
  support::Trace::stop();

  support::Json J;
  std::string PErr;
  ASSERT_TRUE(support::Json::parse(Exported, J, PErr)) << PErr;
  ASSERT_TRUE(J.get("traceEvents").isArray());
  // The shards run in-process, so one export holds the whole hop chain:
  // router.request -> router.forward -> acd.request, all stamped with
  // the client's correlation id and with parent refs resolving.
  std::set<std::string> Names, Spans;
  std::vector<std::string> Parents;
  for (const support::Json &E : J.get("traceEvents").items()) {
    const support::Json &A = E.get("args");
    if (A.get("span").isString())
      Spans.insert(A.get("span").asString());
    if (!A.get("trace_id").isString() ||
        A.get("trace_id").asString() != "fleet-trace-1")
      continue;
    Names.insert(E.get("name").asString());
    if (A.get("parent").isString())
      Parents.push_back(A.get("parent").asString());
  }
  EXPECT_TRUE(Names.count("router.request")) << Exported.substr(0, 400);
  EXPECT_TRUE(Names.count("router.forward"));
  EXPECT_TRUE(Names.count("acd.request"));
  EXPECT_TRUE(Names.count("acd.queue_wait"));
  ASSERT_FALSE(Parents.empty());
  for (const std::string &P : Parents)
    EXPECT_TRUE(Spans.count(P)) << "unresolved parent span " << P;
  support::Trace::reset();
}

TEST(RouterLive, FederatedMetricsMergeIntoOneExposition) {
  Fleet F(2);
  service::Client C = F.client();
  std::string Err;
  CheckRequest Req =
      requestFor("unsigned int fm(unsigned int x) { return x + 9u; }\n");
  CheckResponse R;
  ASSERT_TRUE(C.check(Req, R, Err)) << Err;
  ASSERT_TRUE(R.Ok) << R.Message;

  // The serving shard records the request's latency sample and exemplar
  // just after it sends the reply, and the router scrapes each shard over
  // a fresh connection, so a scrape right after the reply can come too
  // early: scrape until the exemplar lands.
  std::string Body;
  for (int Try = 0; Try != 500; ++Try) {
    ASSERT_TRUE(C.metricsText(Body, Err)) << Err;
    if (Body.find(" # {trace_id=\"") != std::string::npos)
      break;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  // The router's own counters.
  EXPECT_NE(Body.find("acrouter_requests_completed_total 1"),
            std::string::npos);
  // Winner attribution, labeled per shard address.
  EXPECT_NE(Body.find("acrouter_forward_winner_total{shard=\"127.0.0.1:"),
            std::string::npos);
  // Scraped shard blocks carry their shard_id label and role.
  EXPECT_NE(Body.find("shard_id=\"s0\""), std::string::npos);
  EXPECT_NE(Body.find("shard_id=\"s1\""), std::string::npos);
  EXPECT_NE(Body.find("role=\"shard\""), std::string::npos);
  // Every scraped block gets a freshness gauge against one scrape
  // instant.
  EXPECT_NE(Body.find("acd_scrape_age_seconds{shard_id=\"127.0.0.1:"),
            std::string::npos);
  // The serving shard's latency histogram survives the merge, exemplar
  // included.
  EXPECT_NE(Body.find("acd_request_duration_seconds_bucket"),
            std::string::npos);
  EXPECT_NE(Body.find(" # {trace_id=\""), std::string::npos);
  // Merged, not concatenated: one TYPE header per family even with two
  // shards scraped.
  const std::string TypeLine = "# TYPE acd_requests_received_total counter\n";
  size_t First = Body.find(TypeLine);
  ASSERT_NE(First, std::string::npos);
  EXPECT_EQ(Body.find(TypeLine, First + 1), std::string::npos)
      << "family header duplicated — expositions concatenated, not merged";
}

TEST(RouterLive, FleetOpReportsEveryShardsLiveStats) {
  Fleet F(2);
  service::Client C = F.client();
  std::string Err;
  CheckRequest Req =
      requestFor("unsigned int fl(unsigned int x) { return x + 11u; }\n");
  CheckResponse R;
  ASSERT_TRUE(C.check(Req, R, Err)) << Err;
  ASSERT_TRUE(R.Ok) << R.Message;

  // A shard counts a request completed only after its reply is sent, so
  // the router's answer can overtake the counter: poll the fleet op
  // (bounded) until the shard counters settle.
  support::Json Out;
  int64_t ShardCompleted = 0;
  for (int Poll = 0; Poll != 100; ++Poll) {
    ASSERT_TRUE(C.fleet(Out, Err)) << Err;
    ShardCompleted = 0;
    for (const support::Json &D : Out.get("shard_stats").items())
      ShardCompleted +=
          D.get("stats").get("requests").get("completed").asInt();
    if (ShardCompleted >= 1)
      break;
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  EXPECT_EQ(Out.get("op").asString(), "fleet");
  EXPECT_EQ(Out.get("role").asString(), "router");
  EXPECT_EQ(Out.get("completed").asInt(), 1);
  ASSERT_TRUE(Out.get("shard_stats").isArray());
  ASSERT_EQ(Out.get("shard_stats").items().size(), 2u);
  for (const support::Json &D : Out.get("shard_stats").items()) {
    EXPECT_TRUE(D.get("up").asBool()) << D.get("addr").asString();
    ASSERT_TRUE(D.get("stats").get("ok").asBool());
  }
  EXPECT_EQ(ShardCompleted, 1) << "exactly one shard served the request";
}

} // namespace
