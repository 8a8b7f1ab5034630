//===- RemoteCacheTest.cpp - The remote content-addressed cache tier ------===//
//
// Part of the autocorres-cpp project, under the BSD 2-Clause License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The fleet's third cache tier (memory → disk → remote): entry blobs
/// must round-trip the v2 record format exactly, the store must reject
/// corrupt or mislabeled blobs, the daemon/client pair must serve
/// get/put over the wire, a ResultCache must promote remote hits into
/// its memory tier, and — the acceptance scenario — a cold shard's
/// second pass over a corpus another shard already verified must be
/// served by the remote tier with byte-identical output.
///
//===----------------------------------------------------------------------===//

#include "cache/RemoteCache.h"
#include "core/ResultCache.h"
#include "service/Client.h"
#include "service/Server.h"
#include "support/FaultInject.h"
#include "support/Json.h"
#include "support/Trace.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <unistd.h>

using namespace ac;
using cache::RemoteCacheClient;
using cache::RemoteCacheServer;
using cache::RemoteCacheServerOptions;
using cache::RemoteCacheStore;
using core::CachedFunc;

namespace {

std::string freshDir(const std::string &Tag) {
  // Pid-unique root: concurrent invocations of this binary must not
  // race each other's remove_all.
  std::string D = ::testing::TempDir() + "ac-remotecache-" +
                  std::to_string(::getpid()) + "/" + Tag;
  std::error_code EC;
  std::filesystem::remove_all(D, EC);
  std::filesystem::create_directories(D);
  return D;
}

/// A representative entry with every field populated, so round-trip
/// equality is a real check of the serializer.
CachedFunc sampleEntry(uint64_t Key, const std::string &Name) {
  CachedFunc E;
  E.Key = Key;
  E.Name = Name;
  E.HeapLifted = true;
  E.WAEngineAbstracted = true;
  E.WordAbstracted = false;
  E.ArgNames = {"a", "b"};
  E.Render = Name + "' a b ==\ndo ret ← gets (λs. a + b);\nod";
  E.L1Spec = "l1 " + Name;
  E.L2Spec = "l2 " + Name;
  E.HLSpec = "hl " + Name;
  E.WASpec = "";
  E.PipelineProp = "ccorres ... " + Name;
  E.Notes = {"note one", "note two"};
  E.SpecLines = 3;
  E.TermSize = 42;
  return E;
}

std::string bytes(const CachedFunc &E) {
  return core::serializeCachedFunc(E);
}

TEST(RemoteCacheStore, RoundTripsValidEntries) {
  RemoteCacheStore S;
  CachedFunc E = sampleEntry(0x1234abcd5678ef00ull, "swap");
  ASSERT_TRUE(S.put(E.Key, bytes(E)));
  std::string Blob;
  ASSERT_TRUE(S.get(E.Key, Blob));
  CachedFunc Back;
  ASSERT_TRUE(core::parseCachedFunc(Blob, Back));
  EXPECT_EQ(bytes(Back), bytes(E));
  EXPECT_EQ(S.puts(), 1u);
  EXPECT_EQ(S.gets(), 1u);
  EXPECT_EQ(S.hits(), 1u);
  EXPECT_EQ(S.size(), 1u);
  // A miss counts a get but no hit.
  EXPECT_FALSE(S.get(0xdeadull, Blob));
  EXPECT_EQ(S.gets(), 2u);
  EXPECT_EQ(S.hits(), 1u);
}

TEST(RemoteCacheStore, RejectsCorruptAndMislabeledBlobs) {
  RemoteCacheStore S;
  CachedFunc E = sampleEntry(0x1111ull, "gcd");
  std::string Good = bytes(E);
  // Bit flip anywhere: the CRC trailer catches it.
  std::string Flipped = Good;
  Flipped[Good.size() / 2] ^= 0x20;
  EXPECT_FALSE(S.put(E.Key, Flipped));
  // Truncation: structurally broken.
  EXPECT_FALSE(S.put(E.Key, Good.substr(0, Good.size() / 2)));
  // Mislabeled: intact bytes filed under the wrong key would be served
  // to the wrong fingerprint later — rejected at the door.
  EXPECT_FALSE(S.put(0x2222ull, Good));
  EXPECT_FALSE(S.put(E.Key, ""));
  EXPECT_EQ(S.size(), 0u);
  EXPECT_EQ(S.puts(), 0u);
}

TEST(RemoteCacheWire, GetPutOverUnixSocket) {
  std::string Dir = freshDir("wire");
  RemoteCacheServerOptions O;
  O.SocketPath = Dir + "/cached.sock";
  RemoteCacheServer Srv(O);
  ASSERT_TRUE(Srv.start());

  RemoteCacheClient C(O.SocketPath);
  service::Client Admin = service::Client::connect(O.SocketPath);
  std::string Err;
  EXPECT_TRUE(Admin.ping(Err)) << Err;

  CachedFunc E = sampleEntry(0xfeedbeefull, "mid");
  CachedFunc Out;
  EXPECT_FALSE(C.get(E.Key, Out)) << "empty store must miss";
  C.put(E);
  ASSERT_TRUE(C.get(E.Key, Out));
  EXPECT_EQ(bytes(Out), bytes(E));

  support::Json Stats;
  ASSERT_TRUE(Admin.stats(Stats, Err)) << Err;
  EXPECT_TRUE(Stats.get("ok").asBool());
  EXPECT_EQ(Stats.get("entries").asInt(), 1);
  EXPECT_EQ(Stats.get("puts").asInt(), 1);
  Srv.stop();
}

TEST(RemoteCacheWire, TraceContextStampsAccachedSpans) {
  support::Trace::reset();
  std::string Dir = freshDir("tracespans");
  RemoteCacheServerOptions O;
  O.SocketPath = Dir + "/cached.sock";
  O.TraceLive = true;
  {
    RemoteCacheServer Srv(O);
    ASSERT_TRUE(Srv.start()); // enables process-wide live tracing
    RemoteCacheClient C(O.SocketPath);
    support::TraceContextScope Scope("cache-trace-1", 0);
    CachedFunc E = sampleEntry(0x1111222233334444ull, "traced");
    C.put(E);
    CachedFunc Out;
    ASSERT_TRUE(C.get(E.Key, Out));
    Srv.stop();
  }
  std::string Exported = support::Trace::exportJson(/*Reset=*/true);
  support::Trace::stop();

  support::Json J;
  std::string PErr;
  ASSERT_TRUE(support::Json::parse(Exported, J, PErr)) << PErr;
  // The wire carried the shard-side context: the store's get/put spans
  // hold the same correlation id and chain under the client's
  // remote.get/remote.put round-trip spans.
  std::set<std::string> Spans, Names;
  std::map<std::string, std::string> ParentOf;
  for (const support::Json &Ev : J.get("traceEvents").items()) {
    const support::Json &A = Ev.get("args");
    if (A.get("span").isString())
      Spans.insert(A.get("span").asString());
    if (!A.get("trace_id").isString() ||
        A.get("trace_id").asString() != "cache-trace-1")
      continue;
    std::string N = Ev.get("name").asString();
    Names.insert(N);
    if (N.rfind("accached.", 0) == 0 && A.get("parent").isString())
      ParentOf[N] = A.get("parent").asString();
  }
  EXPECT_TRUE(Names.count("remote.put"));
  EXPECT_TRUE(Names.count("remote.get"));
  ASSERT_TRUE(Names.count("accached.put")) << Exported.substr(0, 400);
  ASSERT_TRUE(Names.count("accached.get"));
  ASSERT_EQ(ParentOf.size(), 2u);
  for (const auto &[N, P] : ParentOf)
    EXPECT_TRUE(Spans.count(P)) << N << " has unresolved parent " << P;
  support::Trace::reset();
}

TEST(RemoteCacheWire, ClientSurvivesDaemonRestart) {
  std::string Dir = freshDir("restart");
  RemoteCacheServerOptions O;
  O.SocketPath = Dir + "/cached.sock";
  CachedFunc E = sampleEntry(0xabba00ull, "top");
  RemoteCacheClient C(O.SocketPath);

  {
    RemoteCacheServer Srv(O);
    ASSERT_TRUE(Srv.start());
    C.put(E);
    CachedFunc Out;
    ASSERT_TRUE(C.get(E.Key, Out));
    Srv.stop();
  }
  // Daemon gone: every call degrades to a miss/drop, never an error the
  // caller must handle.
  CachedFunc Out;
  EXPECT_FALSE(C.get(E.Key, Out));
  C.put(E);

  // Fresh daemon (empty store — it is memory-only): the client re-dials
  // transparently and the tier works again.
  RemoteCacheServer Srv2(O);
  ASSERT_TRUE(Srv2.start());
  std::string Err;
  EXPECT_TRUE(service::Client::connect(O.SocketPath).ping(Err)) << Err;
  EXPECT_FALSE(C.get(E.Key, Out)) << "restarted store starts cold";
  C.put(E);
  ASSERT_TRUE(C.get(E.Key, Out));
  EXPECT_EQ(bytes(Out), bytes(E));
  Srv2.stop();
}

TEST(RemoteCacheWire, GetPutRacingRestartUnderFaultsNeverServesWrongBytes) {
  std::string Dir = freshDir("restartrace");
  RemoteCacheServerOptions O;
  O.SocketPath = Dir + "/cached.sock";
  CachedFunc E = sampleEntry(0x5eed5eedull, "race");
  const std::string Want = bytes(E);

  // Sprinkle dial/fetch/store failures through the run on top of the
  // restarts themselves: every injected fault must surface as a miss or
  // a dropped put — never wrong bytes, never a client-visible error.
  support::FaultInject::disarmAll();
  ASSERT_TRUE(support::FaultInject::arm("remote.dial.fail", 3, 2));
  ASSERT_TRUE(support::FaultInject::arm("remote.get.fail", 5, 2));
  ASSERT_TRUE(support::FaultInject::arm("remote.put.fail", 4, 2));

  std::atomic<bool> Stop{false};
  std::atomic<uint64_t> Hits{0}, Misses{0}, Wrong{0};
  std::thread Hammer([&] {
    RemoteCacheClient C(O.SocketPath);
    while (!Stop.load()) {
      C.put(E);
      CachedFunc Out;
      if (C.get(E.Key, Out)) {
        Hits.fetch_add(1);
        if (bytes(Out) != Want)
          Wrong.fetch_add(1);
      } else {
        Misses.fetch_add(1);
      }
    }
  });

  // Three daemon lifetimes with dead gaps between them: the hammering
  // client races its round-trips against a socket that appears,
  // vanishes mid-conversation, and reappears cold.
  for (int Round = 0; Round != 3; ++Round) {
    RemoteCacheServer Srv(O);
    ASSERT_TRUE(Srv.start());
    std::this_thread::sleep_for(std::chrono::milliseconds(60));
    Srv.stop();
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  Stop.store(true);
  Hammer.join();
  support::FaultInject::disarmAll();

  EXPECT_EQ(Wrong.load(), 0u)
      << "a restart- or fault-torn round-trip served wrong bytes";
  EXPECT_GE(Hits.load(), 1u) << "the live windows never served a hit; "
                                "the race is vacuous";
  EXPECT_GE(Misses.load(), 1u) << "the dead windows never degraded to a "
                                  "miss; the race is vacuous";

  // Steady state after the chaos: a clean daemon serves exact bytes.
  RemoteCacheServer Srv(O);
  ASSERT_TRUE(Srv.start());
  RemoteCacheClient C(O.SocketPath);
  C.put(E);
  CachedFunc Out;
  ASSERT_TRUE(C.get(E.Key, Out));
  EXPECT_EQ(bytes(Out), Want);
  Srv.stop();
}

//===----------------------------------------------------------------------===//
// ResultCache integration: the third tier
//===----------------------------------------------------------------------===//

/// A RemoteTier over a local store — the transportless seam ResultCache
/// integration is tested through.
struct StoreTier : core::RemoteTier {
  RemoteCacheStore S;
  bool get(uint64_t Key, CachedFunc &Out) override {
    std::string Blob;
    return S.get(Key, Blob) && core::parseCachedFunc(Blob, Out) &&
           Out.Key == Key;
  }
  void put(const CachedFunc &E) override {
    S.put(E.Key, core::serializeCachedFunc(E));
  }
};

TEST(ResultCacheRemoteTier, WriteThroughAndPromotion) {
  StoreTier Tier;
  CachedFunc E = sampleEntry(0x77777ull, "lone");

  // Shard A computes: insert writes through to the remote tier.
  core::ResultCache A("");
  A.setRemote(&Tier);
  A.insert(E);
  EXPECT_EQ(Tier.S.size(), 1u);
  EXPECT_EQ(A.remoteHits(), 0u);
  ASSERT_TRUE(A.lookup(E.Key));
  EXPECT_EQ(A.remoteHits(), 0u) << "memory tier answers first";

  // Shard B is cold: its first lookup is a remote hit, promoted into its
  // memory tier so the second lookup never leaves the process.
  core::ResultCache B("");
  B.setRemote(&Tier);
  core::CachedFuncRef Got = B.lookup(E.Key);
  ASSERT_TRUE(Got);
  EXPECT_EQ(bytes(*Got), bytes(E));
  EXPECT_EQ(B.remoteHits(), 1u);
  EXPECT_TRUE(B.knowsFunction("lone"));
  uint64_t GetsBefore = Tier.S.gets();
  ASSERT_TRUE(B.lookup(E.Key));
  EXPECT_EQ(B.remoteHits(), 1u);
  EXPECT_EQ(Tier.S.gets(), GetsBefore) << "promotion must stick";

  // Detached tier: lookups are local again.
  core::ResultCache D("");
  EXPECT_FALSE(D.lookup(E.Key));
}

//===----------------------------------------------------------------------===//
// The acceptance scenario at daemon scale
//===----------------------------------------------------------------------===//

const char *fleetSource() {
  return "unsigned int add(unsigned int a, unsigned int b) {\n"
         "  return a + b;\n"
         "}\n"
         "unsigned int twice(unsigned int x) { return add(x, x); }\n";
}

std::string snapshot(const service::CheckResponse &R) {
  std::string S;
  for (const service::FuncResult &F : R.Functions) {
    S += "== " + F.Name + "\n" + F.FinalKey + "\n" + F.Render + "\n" +
         F.Pipeline + "\n";
  }
  for (const std::string &D : R.Diagnostics)
    S += D + "\n";
  return S;
}

TEST(RemoteCacheFleet, ColdShardIsServedByTheRemoteTier) {
  std::string Dir = freshDir("fleet");
  RemoteCacheServerOptions CO;
  CO.SocketPath = Dir + "/cached.sock";
  RemoteCacheServer Cached(CO);
  ASSERT_TRUE(Cached.start());

  RemoteCacheClient Tier1(CO.SocketPath), Tier2(CO.SocketPath);
  service::CheckRequest Req;
  Req.Source = fleetSource();
  std::string Err;

  // Shard 1, cold everything: computes, write-through populates accached.
  service::ServerOptions S1;
  S1.SocketPath = Dir + "/s1.sock";
  S1.Workers = 1;
  S1.CacheDir = Dir + "/d1";
  S1.Remote = &Tier1;
  service::Server Shard1(S1);
  ASSERT_TRUE(Shard1.start());
  service::Client C1 = service::Client::connect(S1.SocketPath);
  ASSERT_TRUE(C1.connected());
  service::CheckResponse R1;
  ASSERT_TRUE(C1.check(Req, R1, Err)) << Err;
  ASSERT_TRUE(R1.Ok) << R1.Message;
  EXPECT_EQ(R1.CacheHits, 0u);
  EXPECT_EQ(Cached.store().size(), 2u) << "both functions written through";
  Shard1.stop();

  // Shard 2, cold memory AND cold disk (fresh cache dir): every function
  // is served by the remote tier — hits, not misses — and the bytes are
  // identical to the computed run.
  service::ServerOptions S2;
  S2.SocketPath = Dir + "/s2.sock";
  S2.Workers = 1;
  S2.CacheDir = Dir + "/d2";
  S2.Remote = &Tier2;
  service::Server Shard2(S2);
  ASSERT_TRUE(Shard2.start());
  service::Client C2 = service::Client::connect(S2.SocketPath);
  ASSERT_TRUE(C2.connected());
  service::CheckResponse R2;
  uint64_t HitsBefore = Cached.store().hits();
  ASSERT_TRUE(C2.check(Req, R2, Err)) << Err;
  ASSERT_TRUE(R2.Ok) << R2.Message;
  EXPECT_EQ(R2.CacheHits, 2u) << "remote-tier hits count as cache hits";
  EXPECT_EQ(R2.CacheMisses, 0u);
  EXPECT_GE(Cached.store().hits(), HitsBefore + 2);
  EXPECT_EQ(snapshot(R2), snapshot(R1)) << "remote-served output must be "
                                           "byte-identical to computed";
  Shard2.stop();
  Cached.stop();
}

} // namespace
