//===- ChaosTest.cpp - Fault-injection coverage of the failure paths ------===//
//
// Part of the autocorres-cpp project, under the BSD 2-Clause License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Drives every registered fault-injection site (support/FaultInject.h)
/// through its failure and recovery path. The suite is table-driven and
/// closed over the site inventory: a site registered in the code but
/// missing from the driver table fails ChaosCoverage, as does a driver
/// naming a site that does not exist — the inventory and the tests can
/// never drift apart silently.
///
/// The invariant every driver enforces is the project's core promise:
/// an injected fault may cost a retry, a cache miss, or a refused save,
/// but never wrong bytes. After any fault, a re-run produces output
/// byte-identical to a never-faulted reference run.
///
/// Drivers here are single-threaded and deterministic (raw socket pairs,
/// direct ResultCache/ThreadPool use). Whole-process failure — SIGKILL of
/// a live daemon mid-request, fallback, restart — is exercised by
/// scripts/tier1.sh pass 6, where client and daemon are separate
/// processes and the fault registry is not shared.
///
//===----------------------------------------------------------------------===//

#include "cache/RemoteCache.h"
#include "core/AutoCorres.h"
#include "core/ResultCache.h"
#include "hol/Print.h"
#include "hol/Simp.h"
#include "router/Router.h"
#include "service/CheckRunner.h"
#include "service/Client.h"
#include "service/Server.h"
#include "support/FaultInject.h"
#include "support/FileLock.h"
#include "support/Json.h"
#include "support/Socket.h"
#include "support/ThreadPool.h"
#include "support/Trace.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <unistd.h>
#include <vector>

using namespace ac;
using support::FaultInject;
using support::FaultSite;
using support::FileLock;
using support::Socket;
using support::ThreadPool;

namespace {

/// A registered site that exists only to test the framework itself:
/// nth/count schedules, pass/fire counters, and counter rewind.
const FaultSite SelfTest("chaos.selftest");

/// Fresh empty directory for one driver run.
std::string freshDir(const std::string &Tag) {
  // Pid-unique root: concurrent invocations of this binary must not
  // race each other's remove_all.
  std::string D = ::testing::TempDir() + "ac-chaos-" +
                  std::to_string(::getpid()) + "/" + Tag;
  std::error_code EC;
  std::filesystem::remove_all(D, EC);
  std::filesystem::create_directories(D);
  return D;
}

//===----------------------------------------------------------------------===//
// Pipeline snapshot helpers (the byte-identity oracle, as in CacheTest)
//===----------------------------------------------------------------------===//

/// Five functions: a call chain (invalidation flows), a pure function,
/// and a pointer function (heap path) — enough shape that a lost or
/// damaged cache entry is visible in hit/miss counts.
const char *chainSource() {
  return "unsigned int leaf(unsigned int x) { return x + 1u; }\n"
         "unsigned int mid(unsigned int x) { return leaf(x) * 2u; }\n"
         "unsigned int top(unsigned int x) { return mid(x) + leaf(x); }\n"
         "unsigned int lone(unsigned int a, unsigned int b) {\n"
         "  if (a < b) { return a; }\n"
         "  return b;\n"
         "}\n"
         "void bump(unsigned int *p) { *p = *p + 1u; }\n";
}

struct Snapshot {
  std::vector<std::string> Names, Rendered, FinalKeys, Pipelines, Diags;
  core::ACStats Stats;
};

Snapshot runWith(const std::string &Src, const std::string &CacheDir,
                 const std::string &TracePath = "") {
  DiagEngine Diags;
  core::ACOptions Opts;
  Opts.Jobs = 1;
  Opts.CacheDir = CacheDir;
  Opts.TracePath = TracePath;
  auto AC = core::AutoCorres::run(Src, Diags, Opts);
  EXPECT_TRUE(AC) << Diags.str();
  Snapshot S;
  if (!AC)
    return S;
  for (const std::string &Name : AC->order()) {
    const core::FuncOutput *F = AC->func(Name);
    if (!F) {
      ADD_FAILURE() << "no output for " << Name;
      continue;
    }
    S.Names.push_back(Name);
    S.Rendered.push_back(AC->render(Name));
    S.FinalKeys.push_back(F->finalKey());
    S.Pipelines.push_back(F->pipelineProp());
  }
  for (const Diagnostic &D : Diags.diagnostics())
    S.Diags.push_back(D.str());
  S.Stats = AC->stats();
  return S;
}

void expectIdentical(const Snapshot &A, const Snapshot &B,
                     const std::string &What) {
  ASSERT_EQ(A.Names.size(), B.Names.size()) << What;
  for (size_t I = 0; I != A.Names.size(); ++I) {
    ASSERT_EQ(A.Names[I], B.Names[I]) << What;
    EXPECT_EQ(A.FinalKeys[I], B.FinalKeys[I]) << What << ": " << A.Names[I];
    EXPECT_EQ(A.Rendered[I], B.Rendered[I])
        << What << ": spec diverged after fault for " << A.Names[I];
    EXPECT_EQ(A.Pipelines[I], B.Pipelines[I])
        << What << ": theorem diverged after fault for " << A.Names[I];
  }
  EXPECT_EQ(A.Diags, B.Diags) << What << ": diagnostic stream diverged";
}

std::string cacheFilePath(const std::string &Dir) {
  return Dir + "/accache-v" +
         std::to_string(core::ResultCache::FormatVersion) + ".txt";
}

//===----------------------------------------------------------------------===//
// Per-site drivers. Each arms its site, provokes the failure, asserts the
// site actually fired, then proves recovery — usually by byte-comparing a
// post-fault run against a never-faulted reference.
//===----------------------------------------------------------------------===//

void driveSelfTest() {
  EXPECT_FALSE(FaultInject::arm("chaos.no.such.site", 1))
      << "arming an unregistered site must fail, not silently never fire";
  ASSERT_TRUE(FaultInject::arm("chaos.selftest", /*Nth=*/2, /*Count=*/2));
  EXPECT_FALSE(SelfTest.fire()); // passage 1
  EXPECT_TRUE(SelfTest.fire());  // 2: first of the armed window
  EXPECT_TRUE(SelfTest.fire());  // 3: count extends the window
  EXPECT_FALSE(SelfTest.fire()); // 4: window over
  EXPECT_EQ(FaultInject::passes("chaos.selftest"), 4u);
  EXPECT_EQ(FaultInject::fired("chaos.selftest"), 2u);
  // resetCounters rewinds the passage clock but keeps the schedule.
  FaultInject::resetCounters();
  EXPECT_FALSE(SelfTest.fire());
  EXPECT_TRUE(SelfTest.fire());
  EXPECT_EQ(FaultInject::fired("chaos.selftest"), 1u);
}

void driveConnectFail() {
  std::string Dir = freshDir("connect");
  Socket L = Socket::listenUnix(Dir + "/s.sock");
  ASSERT_TRUE(L.valid());
  ASSERT_TRUE(FaultInject::arm("socket.connect.fail", 1));
  EXPECT_FALSE(Socket::connectUnix(Dir + "/s.sock").valid());
  EXPECT_EQ(FaultInject::fired("socket.connect.fail"), 1u);
  FaultInject::disarmAll();
  EXPECT_TRUE(Socket::connectUnix(Dir + "/s.sock").valid());
}

void driveAcceptFail() {
  std::string Dir = freshDir("accept");
  Socket L = Socket::listenUnix(Dir + "/s.sock");
  ASSERT_TRUE(L.valid());
  ASSERT_TRUE(FaultInject::arm("socket.accept.fail", 1));
  Socket C = Socket::connectUnix(Dir + "/s.sock");
  ASSERT_TRUE(C.valid());
  ASSERT_TRUE(L.waitReadable(2000));
  EXPECT_FALSE(L.accept().valid());
  EXPECT_EQ(FaultInject::fired("socket.accept.fail"), 1u);
  FaultInject::disarmAll();
  // The connection is still pending in the backlog; the retry serves it.
  EXPECT_TRUE(L.accept().valid());
}

void driveWriteFail() {
  Socket A, B;
  ASSERT_TRUE(support::socketPair(A, B));
  ASSERT_TRUE(FaultInject::arm("socket.write.fail", 1));
  EXPECT_FALSE(A.sendFrame("doomed"));
  EXPECT_EQ(FaultInject::fired("socket.write.fail"), 1u);
  FaultInject::disarmAll();
  // The failure fired before any byte left, so the stream has no torn
  // frame: the retry round-trips cleanly.
  ASSERT_TRUE(A.sendFrame("after"));
  std::string P;
  ASSERT_TRUE(B.recvFrame(P));
  EXPECT_EQ(P, "after");
}

void driveWriteShort() {
  Socket A, B;
  ASSERT_TRUE(support::socketPair(A, B));
  ASSERT_TRUE(FaultInject::arm("socket.write.short", 1, /*Count=*/3));
  ASSERT_TRUE(A.sendFrame("short-write payload"));
  EXPECT_EQ(FaultInject::fired("socket.write.short"), 3u);
  std::string P;
  ASSERT_TRUE(B.recvFrame(P));
  EXPECT_EQ(P, "short-write payload") << "writeAll must resume after "
                                         "partial sends";
}

void driveWriteEintr() {
  Socket A, B;
  ASSERT_TRUE(support::socketPair(A, B));
  ASSERT_TRUE(FaultInject::arm("socket.write.eintr", 1));
  ASSERT_TRUE(A.sendFrame("interrupted"));
  EXPECT_EQ(FaultInject::fired("socket.write.eintr"), 1u);
  std::string P;
  ASSERT_TRUE(B.recvFrame(P));
  EXPECT_EQ(P, "interrupted") << "EINTR must be transparent to framing";
}

void driveReadFail() {
  Socket A, B;
  ASSERT_TRUE(support::socketPair(A, B));
  ASSERT_TRUE(A.sendFrame("never-arrives"));
  ASSERT_TRUE(FaultInject::arm("socket.read.fail", 1));
  std::string P;
  EXPECT_FALSE(B.recvFrame(P));
  EXPECT_EQ(FaultInject::fired("socket.read.fail"), 1u);
  FaultInject::disarmAll();
  Socket C, D;
  ASSERT_TRUE(support::socketPair(C, D));
  ASSERT_TRUE(C.sendFrame("fresh"));
  ASSERT_TRUE(D.recvFrame(P));
  EXPECT_EQ(P, "fresh");
}

void driveReadShort() {
  Socket A, B;
  ASSERT_TRUE(support::socketPair(A, B));
  ASSERT_TRUE(A.sendFrame("short-read payload"));
  ASSERT_TRUE(FaultInject::arm("socket.read.short", 1, /*Count=*/3));
  std::string P;
  ASSERT_TRUE(B.recvFrame(P));
  EXPECT_EQ(P, "short-read payload") << "readAll must resume after "
                                        "partial reads";
  EXPECT_EQ(FaultInject::fired("socket.read.short"), 3u);
}

void driveReadEintr() {
  Socket A, B;
  ASSERT_TRUE(support::socketPair(A, B));
  ASSERT_TRUE(A.sendFrame("interrupted"));
  ASSERT_TRUE(FaultInject::arm("socket.read.eintr", 1));
  std::string P;
  ASSERT_TRUE(B.recvFrame(P));
  EXPECT_EQ(P, "interrupted");
  EXPECT_EQ(FaultInject::fired("socket.read.eintr"), 1u);
}

void driveFileLockFail() {
  std::string Dir = freshDir("filelock");
  ASSERT_TRUE(FaultInject::arm("filelock.acquire.fail", 1));
  FileLock L = FileLock::acquire(Dir + "/x.lock", /*Exclusive=*/true);
  EXPECT_FALSE(L.held()) << "callers must degrade to lockless operation";
  EXPECT_EQ(FaultInject::fired("filelock.acquire.fail"), 1u);
  FaultInject::disarmAll();
  FileLock L2 = FileLock::acquire(Dir + "/x.lock", /*Exclusive=*/true);
  EXPECT_TRUE(L2.held());
}

void drivePoolPostThrow() {
  ThreadPool P(2);
  std::atomic<int> Ran{0};
  ASSERT_TRUE(FaultInject::arm("pool.post.throw", 2));
  for (int I = 0; I != 4; ++I)
    P.post([&] { Ran.fetch_add(1); });
  P.drain();
  EXPECT_EQ(Ran.load(), 3) << "the injected throw replaces exactly one task";
  EXPECT_EQ(FaultInject::fired("pool.post.throw"), 1u);
  std::exception_ptr E = P.takeError();
  ASSERT_TRUE(E) << "the worker exception must be captured, not lost";
  try {
    std::rethrow_exception(E);
  } catch (const std::exception &Ex) {
    EXPECT_NE(std::string(Ex.what()).find("pool.post.throw"),
              std::string::npos);
  }
  FaultInject::disarmAll();
  // The pool survives a worker exception: same workers, clean error slate.
  for (int I = 0; I != 2; ++I)
    P.post([&] { Ran.fetch_add(1); });
  P.drain();
  EXPECT_EQ(Ran.load(), 5);
  EXPECT_FALSE(P.takeError());
}

void drivePoolGraphThrow() {
  ThreadPool P(1); // one worker: passage order == task order
  std::atomic<int> Ran{0};
  std::vector<std::function<void()>> Tasks;
  for (int I = 0; I != 4; ++I)
    Tasks.push_back([&] { Ran.fetch_add(1); });
  // 0 and 1 independent; 2 needs 1; 3 needs 2.
  std::vector<std::vector<unsigned>> Deps = {{}, {}, {1}, {2}};
  ASSERT_TRUE(FaultInject::arm("pool.graph.throw", 2));
  EXPECT_THROW(support::runTaskGraph(P, Tasks, Deps), std::runtime_error);
  EXPECT_EQ(FaultInject::fired("pool.graph.throw"), 1u);
  EXPECT_EQ(Ran.load(), 1) << "dependents of the failed node must be "
                              "skipped, independent work completed";
  FaultInject::disarmAll();
  support::runTaskGraph(P, Tasks, Deps);
  EXPECT_EQ(Ran.load(), 5);
}

/// Common shape of the four clean-failure save sites: the save reports
/// failure, the published cache file is untouched (here: absent), and
/// the next run rebuilds full warmth with byte-identical output.
void driveSaveFailure(const char *Site) {
  std::string Dir = freshDir(Site);
  Snapshot Ref = runWith(chainSource(), /*CacheDir=*/"");

  ASSERT_TRUE(FaultInject::arm(Site, 1));
  Snapshot Cold = runWith(chainSource(), Dir);
  EXPECT_EQ(FaultInject::fired(Site), 1u);
  FaultInject::disarmAll();
  EXPECT_FALSE(std::filesystem::exists(cacheFilePath(Dir)))
      << Site << ": a failed save must not publish anything";
  expectIdentical(Ref, Cold, std::string(Site) + ": faulted cold run");

  Snapshot Retry = runWith(chainSource(), Dir); // save succeeds this time
  EXPECT_EQ(Retry.Stats.CacheHits, 0u);
  expectIdentical(Ref, Retry, std::string(Site) + ": retry run");

  Snapshot Warm = runWith(chainSource(), Dir);
  EXPECT_EQ(Warm.Stats.CacheHits, 5u)
      << Site << ": warmth must be fully restored";
  expectIdentical(Ref, Warm, std::string(Site) + ": warm run");
}

void driveSaveOpen() { driveSaveFailure("cache.save.open"); }
void driveSaveWrite() { driveSaveFailure("cache.save.write"); }
void driveSaveFsync() { driveSaveFailure("cache.save.fsync"); }
void driveSaveRename() { driveSaveFailure("cache.save.rename"); }

void driveSaveCrash() {
  std::string Dir = freshDir("crash");
  Snapshot Ref = runWith(chainSource(), /*CacheDir=*/"");

  // The crash site publishes a torn image — the state a power cut leaves.
  ASSERT_TRUE(FaultInject::arm("cache.save.crash", 1));
  Snapshot Cold = runWith(chainSource(), Dir);
  EXPECT_EQ(FaultInject::fired("cache.save.crash"), 1u);
  FaultInject::disarmAll();
  ASSERT_TRUE(std::filesystem::exists(cacheFilePath(Dir)));
  expectIdentical(Ref, Cold, "crash: faulted cold run");

  // Recovery: damaged tail entries are dropped (with a warning naming
  // the count), intact ones still serve, and the output is exact.
  ::testing::internal::CaptureStderr();
  Snapshot Rec = runWith(chainSource(), Dir);
  std::string Warn = ::testing::internal::GetCapturedStderr();
  EXPECT_NE(Warn.find("dropped"), std::string::npos)
      << "recovery must warn about dropped entries, got: " << Warn;
  EXPECT_GE(Rec.Stats.CacheDroppedEntries, 1u);
  EXPECT_EQ(Rec.Stats.CacheHits + Rec.Stats.CacheMisses, 5u);
  EXPECT_GE(Rec.Stats.CacheMisses, 1u) << "the torn tail must re-verify";
  expectIdentical(Ref, Rec, "crash: recovery run");

  // The recovery run re-saved a clean file: full warmth, no drops.
  Snapshot Warm = runWith(chainSource(), Dir);
  EXPECT_EQ(Warm.Stats.CacheDroppedEntries, 0u);
  EXPECT_EQ(Warm.Stats.CacheHits, 5u);
  expectIdentical(Ref, Warm, "crash: healed warm run");
}

void driveSaveBitflip() {
  std::string Dir = freshDir("bitflip");
  Snapshot Ref = runWith(chainSource(), /*CacheDir=*/"");

  // Silent corruption: the save itself claims success.
  ASSERT_TRUE(FaultInject::arm("cache.save.bitflip", 1));
  Snapshot Cold = runWith(chainSource(), Dir);
  EXPECT_EQ(FaultInject::fired("cache.save.bitflip"), 1u);
  FaultInject::disarmAll();
  expectIdentical(Ref, Cold, "bitflip: faulted cold run");

  // The flipped entry must be *detected* (CRC) and re-verified — a
  // corrupt entry served as-is would mean wrong specs, the one outcome
  // this whole subsystem exists to prevent.
  Snapshot Rec = runWith(chainSource(), Dir);
  EXPECT_EQ(Rec.Stats.CacheHits + Rec.Stats.CacheMisses, 5u);
  EXPECT_GE(Rec.Stats.CacheMisses, 1u)
      << "the flipped entry must miss, never be served";
  expectIdentical(Ref, Rec, "bitflip: recovery run");

  Snapshot Warm = runWith(chainSource(), Dir);
  EXPECT_EQ(Warm.Stats.CacheHits, 5u);
  EXPECT_EQ(Warm.Stats.CacheDroppedEntries, 0u);
  expectIdentical(Ref, Warm, "bitflip: healed warm run");
}

/// The observability promise: a trace sink that cannot be written costs
/// the trace and nothing else — the verification run still succeeds,
/// byte-identical to an untraced run, and a healthy retry produces a
/// parseable Chrome trace.
void driveTraceWriteFail() {
  std::string Dir = freshDir("tracewrite");
  std::string TracePath = Dir + "/run.json";
  Snapshot Ref = runWith(chainSource(), /*CacheDir=*/"");

  ASSERT_TRUE(FaultInject::arm("trace.write.fail", 1));
  Snapshot Faulted = runWith(chainSource(), /*CacheDir=*/"", TracePath);
  EXPECT_EQ(FaultInject::fired("trace.write.fail"), 1u);
  FaultInject::disarmAll();
  EXPECT_FALSE(std::filesystem::exists(TracePath))
      << "a failed trace flush must not leave a partial file";
  expectIdentical(Ref, Faulted, "trace.write.fail: faulted traced run");

  Snapshot Retry = runWith(chainSource(), /*CacheDir=*/"", TracePath);
  expectIdentical(Ref, Retry, "trace.write.fail: healthy traced run");
  ASSERT_TRUE(std::filesystem::exists(TracePath));
  std::ifstream In(TracePath, std::ios::binary);
  std::ostringstream Buf;
  Buf << In.rdbuf();
  support::Json J;
  std::string Err;
  ASSERT_TRUE(support::Json::parse(Buf.str(), J, Err)) << Err;
  EXPECT_TRUE(J.get("traceEvents").isArray());
}

/// The simplifier's normal-form memo is a pure accelerator: entries are
/// only written for results that are depth- and budget-independent, so
/// dropping any subset of them mid-run — the memo equivalent of a cache
/// eviction under memory pressure — may cost recomputation but can never
/// change a byte of output. The workload is a family of terms built
/// around one shared irreducible core, so once the first simplification
/// certifies the core normal, every later term's walk consults the memo
/// for it. Two eviction schedules prove the invariant: a total one
/// (every memo insert is dropped and every hit evicts its entry: the
/// memo is effectively off) and a partial one (a block of mid-run
/// operations fails, so hits, misses and dropped inserts all mix in one
/// run).
void driveSimpMemoEvict() {
  using hol::Term;
  using hol::TermRef;

  auto family = [] {
    std::vector<TermRef> Ts;
    TermRef P = Term::mkFree("p", hol::boolTy());
    TermRef A = Term::mkFree("a", hol::natTy());
    TermRef B = Term::mkFree("b", hol::natTy());
    // `if p then a else b` has no rule match — simp-normal, memoised.
    TermRef Core = hol::mkIte(P, A, B);
    for (unsigned I = 0; I != 16; ++I) {
      TermRef T = Core;
      for (unsigned J = 0; J != I % 5; ++J)
        T = hol::mkIte(hol::mkTrue(), T, Core); // reducible spine
      Ts.push_back(hol::mkConj(hol::mkTrue(),
                               hol::mkConj(hol::mkEq(T, Core),
                                           hol::mkTrue())));
    }
    return Ts;
  };
  // Each render starts from a fresh copy of the shared basic simpset
  // (same rules, private memo), so the three runs differ only in the
  // armed eviction schedule.
  auto render = [&family] {
    hol::Simpset SS = hol::basicSimpset();
    std::vector<std::string> Out;
    for (const TermRef &T : family())
      Out.push_back(hol::printTerm(hol::simplify(SS, T).Result));
    return Out;
  };

  std::vector<std::string> Ref = render();

  ASSERT_TRUE(FaultInject::arm("simp.memo.evict", 1, /*Count=*/100000000));
  std::vector<std::string> NoMemo = render();
  EXPECT_GE(FaultInject::fired("simp.memo.evict"), 1u)
      << "the rewriter never touched the memo; the driver is vacuous";
  FaultInject::disarmAll();
  EXPECT_EQ(Ref, NoMemo) << "simp.memo.evict: memo fully evicted";

  ASSERT_TRUE(FaultInject::arm("simp.memo.evict", 7, /*Count=*/200));
  std::vector<std::string> Partial = render();
  FaultInject::disarmAll();
  EXPECT_EQ(Ref, Partial) << "simp.memo.evict: partial eviction";
}

//===----------------------------------------------------------------------===//
// The fleet sites: remote cache tier and router network edges
//===----------------------------------------------------------------------===//

core::CachedFunc remoteSampleEntry() {
  core::CachedFunc E;
  E.Key = 0xc0ffee123456ull;
  E.Name = "sample";
  E.Render = "sample' x == gets (λs. x)";
  E.PipelineProp = "ccorres ... sample";
  E.Notes = {"driver entry"};
  return E;
}

/// Every client-side remote-tier failure must degrade to a miss or a
/// dropped put — the tier is an accelerator, never a correctness input.
void driveRemoteDialFail() {
  std::string Dir = freshDir("remotedial");
  cache::RemoteCacheServerOptions O;
  O.SocketPath = Dir + "/cached.sock";
  cache::RemoteCacheServer Srv(O);
  ASSERT_TRUE(Srv.start());
  cache::RemoteCacheClient C(O.SocketPath);
  core::CachedFunc E = remoteSampleEntry(), Out;

  ASSERT_TRUE(FaultInject::arm("remote.dial.fail", 1));
  EXPECT_FALSE(C.get(E.Key, Out)) << "a refused dial is a miss";
  EXPECT_EQ(FaultInject::fired("remote.dial.fail"), 1u);
  FaultInject::disarmAll();

  C.put(E); // re-dials transparently
  ASSERT_TRUE(C.get(E.Key, Out));
  EXPECT_EQ(core::serializeCachedFunc(Out), core::serializeCachedFunc(E));
  Srv.stop();
}

void driveRemoteGetFail() {
  std::string Dir = freshDir("remoteget");
  cache::RemoteCacheServerOptions O;
  O.SocketPath = Dir + "/cached.sock";
  cache::RemoteCacheServer Srv(O);
  ASSERT_TRUE(Srv.start());
  cache::RemoteCacheClient C(O.SocketPath);
  core::CachedFunc E = remoteSampleEntry(), Out;
  C.put(E);

  ASSERT_TRUE(FaultInject::arm("remote.get.fail", 1));
  EXPECT_FALSE(C.get(E.Key, Out)) << "a torn fetch is a miss, never "
                                     "partial bytes";
  EXPECT_EQ(FaultInject::fired("remote.get.fail"), 1u);
  FaultInject::disarmAll();

  ASSERT_TRUE(C.get(E.Key, Out)) << "the entry survived the client's bad "
                                    "round-trip";
  EXPECT_EQ(core::serializeCachedFunc(Out), core::serializeCachedFunc(E));
  Srv.stop();
}

void driveRemotePutFail() {
  std::string Dir = freshDir("remoteput");
  cache::RemoteCacheServerOptions O;
  O.SocketPath = Dir + "/cached.sock";
  cache::RemoteCacheServer Srv(O);
  ASSERT_TRUE(Srv.start());
  cache::RemoteCacheClient C(O.SocketPath);
  core::CachedFunc E = remoteSampleEntry(), Out;

  ASSERT_TRUE(FaultInject::arm("remote.put.fail", 1));
  C.put(E); // silently dropped
  EXPECT_EQ(FaultInject::fired("remote.put.fail"), 1u);
  FaultInject::disarmAll();
  EXPECT_FALSE(C.get(E.Key, Out)) << "the dropped put must not have "
                                     "half-published anything";

  C.put(E);
  ASSERT_TRUE(C.get(E.Key, Out));
  EXPECT_EQ(core::serializeCachedFunc(Out), core::serializeCachedFunc(E));
  Srv.stop();
}

void driveRemoteStoreTorn() {
  std::string Dir = freshDir("remotetorn");
  cache::RemoteCacheServerOptions O;
  O.SocketPath = Dir + "/cached.sock";
  cache::RemoteCacheServer Srv(O);
  ASSERT_TRUE(Srv.start());
  cache::RemoteCacheClient C(O.SocketPath);
  core::CachedFunc E = remoteSampleEntry(), Out;

  // The store accepts the put but persists a truncated image — a torn
  // write inside the tier. The later get must reject it by CRC and
  // report a miss: a damaged entry may cost a recompute, never serve
  // wrong bytes (the invariant the whole cache family enforces).
  ASSERT_TRUE(FaultInject::arm("remotecache.store.torn", 1));
  C.put(E);
  EXPECT_EQ(FaultInject::fired("remotecache.store.torn"), 1u);
  FaultInject::disarmAll();
  EXPECT_FALSE(C.get(E.Key, Out))
      << "a torn stored entry must be a miss, never wrong bytes";

  C.put(E); // clean overwrite heals the slot
  ASSERT_TRUE(C.get(E.Key, Out));
  EXPECT_EQ(core::serializeCachedFunc(Out), core::serializeCachedFunc(E));
  Srv.stop();
}

/// Shared harness for the two router edges: two real shards on loopback
/// TCP behind a router, and byte-identity of the faulted answer against
/// a never-faulted in-process reference.
void driveRouterEdge(const char *Site) {
  std::string Dir = freshDir(Site);
  std::vector<std::unique_ptr<service::Server>> Shards;
  router::RouterOptions RO;
  for (int I = 0; I != 2; ++I) {
    service::ServerOptions SO;
    SO.SocketPath = "";
    SO.ListenAddr = "127.0.0.1:0";
    SO.Workers = 1;
    Shards.push_back(std::make_unique<service::Server>(SO));
    ASSERT_TRUE(Shards.back()->start());
    RO.Shards.push_back("127.0.0.1:" +
                        std::to_string(Shards.back()->tcpPort()));
  }
  RO.SocketPath = Dir + "/r.sock";
  RO.HealthProbeMs = 50;
  router::Router R(RO);
  ASSERT_TRUE(R.start());

  service::Client C = service::Client::connect(RO.SocketPath);
  ASSERT_TRUE(C.connected());
  service::CheckRequest Req;
  Req.Source = "unsigned int edge(unsigned int x) { return x + 3u; }\n";
  service::CheckResponse Ref = service::runLocalCheck(Req);
  const size_t Home = R.shardFor(router::Router::routingKey(Req));

  auto snapshot = [](const service::CheckResponse &Resp) {
    std::string S;
    for (const service::FuncResult &F : Resp.Functions)
      S += F.Name + "\n" + F.FinalKey + "\n" + F.Render + "\n" +
           F.Pipeline + "\n";
    for (const std::string &D : Resp.Diagnostics)
      S += D + "\n";
    return S;
  };

  // The armed edge tears the forward to the request's home shard; the
  // router reroutes to the other shard in ring order — same bytes.
  std::string Err;
  service::CheckResponse Faulted;
  ASSERT_TRUE(FaultInject::arm(Site, 1));
  ASSERT_TRUE(C.check(Req, Faulted, Err)) << Err;
  EXPECT_EQ(FaultInject::fired(Site), 1u);
  FaultInject::disarmAll();
  ASSERT_TRUE(Faulted.Ok) << Faulted.Message;
  EXPECT_EQ(snapshot(Faulted), snapshot(Ref))
      << Site << ": the faulted answer diverged";
  support::Json Stats;
  ASSERT_TRUE(C.stats(Stats, Err)) << Err;
  EXPECT_EQ(Stats.get("rerouted").asInt(), 1)
      << Site << ": the faulted forward must reroute";
  EXPECT_EQ(Stats.get("shards").items()[1 - Home].get("won").asInt(), 1);

  // Recovery: the home shard is (or is probed back) up, and the next
  // request is served by it, still byte-identical.
  bool Revived = false;
  for (int I = 0; I != 100 && !Revived; ++I) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    ASSERT_TRUE(C.stats(Stats, Err)) << Err;
    Revived = Stats.get("shards").items()[Home].get("healthy").asBool();
  }
  ASSERT_TRUE(Revived) << Site << ": the prober never revived the shard";
  service::CheckResponse After;
  ASSERT_TRUE(C.check(Req, After, Err)) << Err;
  ASSERT_TRUE(After.Ok) << After.Message;
  EXPECT_EQ(snapshot(After), snapshot(Ref));
  ASSERT_TRUE(C.stats(Stats, Err)) << Err;
  EXPECT_GE(Stats.get("shards").items()[Home].get("forwarded").asInt(), 1)
      << Site << ": recovery must forward to the home shard again";

  R.stop();
  for (auto &S : Shards)
    S->stop();
}

void driveRouterDialFail() { driveRouterEdge("router.dial.fail"); }
void driveRouterForwardFail() { driveRouterEdge("router.forward.fail"); }

//===----------------------------------------------------------------------===//
// The overload decision point: admission shedding. The site forces the
// decision the happy path would only take under real overload, so the
// refusal/recovery bytes are reachable deterministically.
//===----------------------------------------------------------------------===//

std::string respSnapshot(const service::CheckResponse &Resp) {
  std::string S;
  for (const service::FuncResult &F : Resp.Functions)
    S += F.Name + "\n" + F.FinalKey + "\n" + F.Render + "\n" + F.Pipeline +
         "\n";
  for (const std::string &D : Resp.Diagnostics)
    S += D + "\n";
  return S;
}

/// The staleness shed: a bulk request with a deadline is refused with
/// the typed `shed` answer before it enters the queue; the retry (the
/// client replanning) is served byte-identically to a never-shed run.
void driveServerShedStale() {
  std::string Dir = freshDir("shedstale");
  service::ServerOptions SO;
  SO.SocketPath = Dir + "/acd.sock";
  SO.Workers = 1;
  service::Server Srv(SO);
  ASSERT_TRUE(Srv.start());
  service::Client C = service::Client::connect(SO.SocketPath);
  ASSERT_TRUE(C.connected());

  service::CheckRequest Req;
  Req.Source = "unsigned int stale(unsigned int x) { return x + 7u; }\n";
  Req.Prio = service::Priority::Bulk;
  Req.TimeoutMs = 60000; // shed-eligible: bulk with a deadline
  service::CheckResponse Ref = service::runLocalCheck(Req);

  std::string Err;
  service::CheckResponse Resp;
  ASSERT_TRUE(FaultInject::arm("server.shed.stale", 1));
  ASSERT_TRUE(C.check(Req, Resp, Err)) << Err;
  EXPECT_EQ(FaultInject::fired("server.shed.stale"), 1u);
  FaultInject::disarmAll();
  EXPECT_FALSE(Resp.Ok);
  EXPECT_EQ(Resp.Err, service::ErrorCode::Shed);
  EXPECT_EQ(Srv.metrics().Shed.load(), 1u);
  EXPECT_EQ(Srv.metrics().Received.load(), 0u)
      << "a shed request must never count as received";

  service::CheckResponse After;
  ASSERT_TRUE(C.check(Req, After, Err)) << Err;
  ASSERT_TRUE(After.Ok) << After.Message;
  EXPECT_EQ(respSnapshot(After), respSnapshot(Ref))
      << "the post-shed retry diverged";
  Srv.stop();
}

//===----------------------------------------------------------------------===//
// The driver table and the coverage gate
//===----------------------------------------------------------------------===//

struct SiteCase {
  const char *Site;
  void (*Drive)();
};

const SiteCase AllSites[] = {
    {"chaos.selftest", driveSelfTest},
    {"socket.connect.fail", driveConnectFail},
    {"socket.accept.fail", driveAcceptFail},
    {"socket.write.fail", driveWriteFail},
    {"socket.write.short", driveWriteShort},
    {"socket.write.eintr", driveWriteEintr},
    {"socket.read.fail", driveReadFail},
    {"socket.read.short", driveReadShort},
    {"socket.read.eintr", driveReadEintr},
    {"filelock.acquire.fail", driveFileLockFail},
    {"pool.post.throw", drivePoolPostThrow},
    {"pool.graph.throw", drivePoolGraphThrow},
    {"cache.save.open", driveSaveOpen},
    {"cache.save.write", driveSaveWrite},
    {"cache.save.fsync", driveSaveFsync},
    {"cache.save.rename", driveSaveRename},
    {"cache.save.crash", driveSaveCrash},
    {"cache.save.bitflip", driveSaveBitflip},
    {"trace.write.fail", driveTraceWriteFail},
    {"simp.memo.evict", driveSimpMemoEvict},
    {"remote.dial.fail", driveRemoteDialFail},
    {"remote.get.fail", driveRemoteGetFail},
    {"remote.put.fail", driveRemotePutFail},
    {"remotecache.store.torn", driveRemoteStoreTorn},
    {"router.dial.fail", driveRouterDialFail},
    {"router.forward.fail", driveRouterForwardFail},
    {"server.shed.stale", driveServerShedStale},
};

class ChaosSite : public ::testing::TestWithParam<SiteCase> {
protected:
  void SetUp() override {
    ::unsetenv("AC_CACHE");
    ::unsetenv("AC_CACHE_DIR");
    ::unsetenv("AC_FAULTS");
    FaultInject::disarmAll();
  }
  void TearDown() override { FaultInject::disarmAll(); }
};

TEST_P(ChaosSite, InjectAndRecover) {
  ASSERT_TRUE(FaultInject::isKnown(GetParam().Site))
      << "driver names an unregistered site: " << GetParam().Site;
  GetParam().Drive();
}

INSTANTIATE_TEST_SUITE_P(
    AllSites, ChaosSite, ::testing::ValuesIn(AllSites),
    [](const ::testing::TestParamInfo<SiteCase> &Info) {
      std::string Name = Info.param.Site;
      for (char &C : Name)
        if (C == '.')
          C = '_';
      return Name;
    });

/// The closure gate: the driver table and the registered inventory must
/// be the same set. Registering a new FaultSite without writing a chaos
/// driver — or driving a name that no code registers — fails here.
TEST(ChaosCoverage, DriverTableMatchesRegisteredSites) {
  std::set<std::string> Driven;
  for (const SiteCase &C : AllSites)
    Driven.insert(C.Site);
  std::set<std::string> Registered;
  for (const std::string &S : FaultInject::sites())
    Registered.insert(S);
  EXPECT_EQ(Registered, Driven)
      << "every registered fault site needs a chaos driver (and every "
         "driver a registered site)";
}

} // namespace
