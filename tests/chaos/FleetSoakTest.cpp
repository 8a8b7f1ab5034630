//===- FleetSoakTest.cpp - Seeded fleet soak under churn ------------------===//
//
// Part of the autocorres-cpp project, under the BSD 2-Clause License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A miniature fleet — three acd shards behind an acrouter front-end
/// with an accached remote tier — soaked with mixed bulk/interactive,
/// multi-tenant load while a seeded chaos schedule stops and restarts
/// shards and takes the cache daemon through outages. The whole
/// schedule derives from one seed (AC_SOAK_SEED, default pinned), so a
/// failing run replays exactly.
///
/// The invariants are the fleet's overload contract:
///   - every request gets exactly one *typed* answer: success or a
///     protocol error code, never a transport error or a hang;
///   - every completed answer is byte-identical to the in-process
///     golden for its source — churn may cost retries, never bytes;
///   - no tenant starves: each tenant completes work despite shedding;
///   - the router's stats surface stays coherent (counters present and
///     parseable) through the churn.
///
/// Whole-process SIGKILL soak — real processes, real signals — is
/// scripts/tier1.sh pass 11; this in-process twin runs under ASan in
/// every ctest invocation (label: fleet).
///
//===----------------------------------------------------------------------===//

#include "cache/RemoteCache.h"
#include "router/Router.h"
#include "service/CheckRunner.h"
#include "service/Client.h"
#include "service/Server.h"
#include "support/Json.h"

#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <memory>
#include <mutex>
#include <random>
#include <string>
#include <thread>
#include <unistd.h>
#include <vector>

using namespace ac;
using service::CheckRequest;
using service::CheckResponse;
using service::ErrorCode;
using service::Priority;

namespace {

std::string freshDir(const std::string &Tag) {
  std::string D = ::testing::TempDir() + "ac-fleetsoak-" +
                  std::to_string(::getpid()) + "/" + Tag;
  std::error_code EC;
  std::filesystem::remove_all(D, EC);
  std::filesystem::create_directories(D);
  return D;
}

/// The soak corpus: small, distinct sources so cache keys differ and
/// every shard can serve any of them.
const std::array<const char *, 3> SoakSources = {
    "unsigned int soak_a(unsigned int x) { return x + 1u; }\n",
    "unsigned int soak_b(unsigned int x, unsigned int y) {\n"
    "  if (x < y) { return x; }\n"
    "  return y;\n"
    "}\n",
    "void soak_c(unsigned int *p) { *p = *p + 2u; }\n",
};

std::string respSnapshot(const CheckResponse &Resp) {
  std::string S;
  for (const service::FuncResult &F : Resp.Functions)
    S += F.Name + "\n" + F.FinalKey + "\n" + F.Render + "\n" + F.Pipeline +
         "\n";
  for (const std::string &D : Resp.Diagnostics)
    S += D + "\n";
  return S;
}

/// One shard that can be stopped and restarted on its original port, as
/// the chaos schedule demands.
struct SoakShard {
  service::ServerOptions SO;
  std::unique_ptr<cache::RemoteCacheClient> Remote;
  std::unique_ptr<service::Server> Srv;
  uint16_t Port = 0;

  bool startFresh(const std::string &CachedSock) {
    Remote.reset(new cache::RemoteCacheClient(CachedSock));
    SO.SocketPath = "";
    SO.ListenAddr = "127.0.0.1:0";
    SO.Workers = 2;
    SO.QueueCapacity = 8;
    SO.Remote = Remote.get();
    Srv.reset(new service::Server(SO));
    if (!Srv->start())
      return false;
    Port = Srv->tcpPort();
    return true;
  }

  void kill() {
    if (Srv)
      Srv->stop();
    Srv.reset();
  }

  bool restart() {
    SO.ListenAddr = "127.0.0.1:" + std::to_string(Port);
    Srv.reset(new service::Server(SO));
    return Srv->start();
  }
};

TEST(FleetSoak, SeededChurnYieldsTypedAnswersAndExactBytes) {
  unsigned Seed = 20260808;
  if (const char *S = std::getenv("AC_SOAK_SEED"))
    Seed = static_cast<unsigned>(std::strtoul(S, nullptr, 10));
  std::mt19937 Rng(Seed);
  SCOPED_TRACE("AC_SOAK_SEED=" + std::to_string(Seed));

  std::string Dir = freshDir("soak");

  // Goldens first: the byte oracle every completed answer is held to.
  std::array<std::string, SoakSources.size()> Golden;
  for (size_t I = 0; I != SoakSources.size(); ++I) {
    CheckRequest Req;
    Req.Source = SoakSources[I];
    CheckResponse Ref = service::runLocalCheck(Req);
    ASSERT_TRUE(Ref.Ok) << Ref.Message;
    Golden[I] = respSnapshot(Ref);
  }

  // The shared remote tier (restarted mid-soak by the chaos schedule).
  cache::RemoteCacheServerOptions CO;
  CO.SocketPath = Dir + "/cached.sock";
  std::unique_ptr<cache::RemoteCacheServer> Cached(
      new cache::RemoteCacheServer(CO));
  ASSERT_TRUE(Cached->start());

  // Three shards, then the router over them. The schedule stops one
  // shard at a time, so the router always has a shard to reroute to.
  std::array<SoakShard, 3> Shards;
  router::RouterOptions RO;
  RO.SocketPath = Dir + "/router.sock";
  RO.HealthProbeMs = 40;
  for (SoakShard &S : Shards) {
    ASSERT_TRUE(S.startFresh(CO.SocketPath));
    RO.Shards.push_back("127.0.0.1:" + std::to_string(S.Port));
  }
  router::Router R(RO);
  ASSERT_TRUE(R.start());

  // Mixed load: 4 clients, 3:1 bulk:interactive, three tenants. Issue
  // counts and the per-request mix all derive from the seed.
  constexpr int ClientThreads = 4;
  constexpr int RequestsPerThread = 30;
  const std::array<const char *, 3> Tenants = {"t0", "t1", "t2"};

  std::atomic<uint64_t> Completed{0}, Refused{0}, Untyped{0}, Wrong{0};
  std::mutex TenantsM;
  std::map<std::string, uint64_t> TenantCompleted;

  // Per-thread RNGs forked off the master seed keep the schedule
  // deterministic regardless of thread interleaving.
  std::vector<std::thread> Clients;
  for (int T = 0; T != ClientThreads; ++T) {
    unsigned ThreadSeed = Rng();
    Clients.emplace_back([&, T, ThreadSeed] {
      std::mt19937 MyRng(ThreadSeed);
      for (int I = 0; I != RequestsPerThread; ++I) {
        size_t Src = MyRng() % SoakSources.size();
        CheckRequest Req;
        Req.Source = SoakSources[Src];
        Req.Prio = (MyRng() % 4 != 0) ? Priority::Bulk
                                      : Priority::Interactive;
        Req.Tenant = Tenants[MyRng() % Tenants.size()];
        if (Req.Prio == Priority::Bulk)
          Req.TimeoutMs = 30000; // ample: refusals come from churn
        Req.TraceId = "soak-" + std::to_string(T) + "-" + std::to_string(I);

        // One fresh connection per request: mid-churn the router may
        // drop a connection whose forward died with a shard; the
        // contract under test is the *answer* stream, so a dial retry
        // is allowed, an untyped answer is not.
        service::Client C = service::Client::connect(RO.SocketPath);
        if (!C.connected()) {
          Untyped.fetch_add(1);
          continue;
        }
        CheckResponse Resp;
        std::string Err;
        if (!C.check(Req, Resp, Err)) {
          Untyped.fetch_add(1);
          continue;
        }
        if (Resp.Ok) {
          Completed.fetch_add(1);
          if (respSnapshot(Resp) != Golden[Src])
            Wrong.fetch_add(1);
          std::lock_guard<std::mutex> L(TenantsM);
          TenantCompleted[Req.Tenant]++;
        } else if (Resp.Err == ErrorCode::Busy ||
                   Resp.Err == ErrorCode::Shed ||
                   Resp.Err == ErrorCode::Draining ||
                   Resp.Err == ErrorCode::DeadlineExceeded) {
          Refused.fetch_add(1);
        } else {
          ADD_FAILURE() << "unexpected typed error "
                        << service::errorCodeName(Resp.Err) << ": "
                        << Resp.Message;
          Untyped.fetch_add(1);
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(MyRng() % 8));
      }
    });
  }

  // The chaos schedule: four rounds of seeded shard churn, with one
  // accached outage in the middle. Runs concurrently with the load.
  std::thread Chaos([&] {
    std::mt19937 ChaosRng(Seed ^ 0x5eed);
    for (int Round = 0; Round != 4; ++Round) {
      size_t Victim = ChaosRng() % Shards.size();
      Shards[Victim].kill();
      std::this_thread::sleep_for(
          std::chrono::milliseconds(60 + ChaosRng() % 80));
      ASSERT_TRUE(Shards[Victim].restart())
          << "shard " << Victim << " could not rebind its port";
      if (Round == 1) {
        Cached->stop();
        Cached.reset();
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
        Cached.reset(new cache::RemoteCacheServer(CO));
        ASSERT_TRUE(Cached->start());
      }
      std::this_thread::sleep_for(
          std::chrono::milliseconds(40 + ChaosRng() % 60));
    }
  });

  for (std::thread &C : Clients)
    C.join();
  Chaos.join();

  // The contract: all issued requests were answered, typed; completed
  // answers carried exact bytes; nobody starved.
  uint64_t Issued =
      static_cast<uint64_t>(ClientThreads) * RequestsPerThread;
  EXPECT_EQ(Completed.load() + Refused.load() + Untyped.load(), Issued);
  EXPECT_EQ(Untyped.load(), 0u)
      << "some requests got transport errors instead of typed answers";
  EXPECT_EQ(Wrong.load(), 0u) << "churn changed answer bytes";
  EXPECT_GE(Completed.load(), Issued / 2)
      << "churn refused most of the load; the fleet never stabilised";
  {
    std::lock_guard<std::mutex> L(TenantsM);
    for (const char *T : Tenants)
      EXPECT_GE(TenantCompleted[T], 1u) << "tenant " << T << " starved";
  }

  // The stats surface survived the churn coherently.
  service::Client C = service::Client::connect(RO.SocketPath);
  ASSERT_TRUE(C.connected());
  support::Json Stats;
  std::string Err;
  ASSERT_TRUE(C.stats(Stats, Err)) << Err;
  EXPECT_GE(Stats.get("completed").asInt(), 1);
  EXPECT_TRUE(Stats.get("rerouted").isNumber());
  ASSERT_EQ(Stats.get("shards").items().size(), Shards.size());
  for (const support::Json &SJ : Stats.get("shards").items())
    EXPECT_TRUE(SJ.get("healthy").isBool());

  R.stop();
  for (SoakShard &S : Shards)
    S.kill();
  if (Cached)
    Cached->stop();
}

} // namespace
