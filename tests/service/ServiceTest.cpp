//===- ServiceTest.cpp - The acd verification service -----------*- C++ -*-===//
//
// Part of the autocorres-cpp project, under the BSD 2-Clause License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// End-to-end tests of the verification daemon (service/Server.h) and its
/// client: wire framing over a socketpair, byte-identity of daemon-served
/// specs against in-process runs (including under concurrent clients and
/// across a drain/restart cycle on a shared cache directory),
/// backpressure on a full admission queue, request cancellation when the
/// client hangs up, and the stats surface that proves no session leaks.
///
//===----------------------------------------------------------------------===//

#include "core/AutoCorres.h"
#include "corpus/Sources.h"
#include "corpus/Synthetic.h"
#include "hol/Term.h"
#include "service/CheckRunner.h"
#include "service/Client.h"
#include "service/Server.h"
#include "support/Log.h"
#include "support/Socket.h"
#include "support/ThreadPool.h"
#include "support/Trace.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cctype>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <random>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

using namespace ac;
using namespace ac::service;
using ac::support::Json;
using ac::support::Socket;

namespace {

//===----------------------------------------------------------------------===//
// Wire framing and protocol encode/decode (no server involved)
//===----------------------------------------------------------------------===//

TEST(WireFraming, FramesRoundTripOverASocketPair) {
  Socket A, B;
  ASSERT_TRUE(support::socketPair(A, B));
  ASSERT_TRUE(A.sendFrame("hello"));
  ASSERT_TRUE(A.sendFrame("")); // empty payloads are legal
  std::string P1, P2;
  ASSERT_TRUE(B.recvFrame(P1));
  ASSERT_TRUE(B.recvFrame(P2));
  EXPECT_EQ(P1, "hello");
  EXPECT_EQ(P2, "");
}

TEST(WireFraming, BinaryPayloadSurvives) {
  Socket A, B;
  ASSERT_TRUE(support::socketPair(A, B));
  std::string Payload;
  for (int I = 0; I != 1000; ++I)
    Payload.push_back(static_cast<char>(I % 256));
  ASSERT_TRUE(A.sendFrame(Payload));
  std::string Back;
  ASSERT_TRUE(B.recvFrame(Back));
  EXPECT_EQ(Back, Payload);
}

TEST(WireFraming, OversizedLengthPrefixIsRejected) {
  Socket A, B;
  ASSERT_TRUE(support::socketPair(A, B));
  // A corrupt 4-byte prefix claiming ~4 GiB must not allocate; the
  // receiver drops the connection instead.
  unsigned char Hdr[4] = {0xFF, 0xFF, 0xFF, 0xFF};
  ASSERT_TRUE(A.writeAll(Hdr, 4));
  std::string P;
  EXPECT_FALSE(B.recvFrame(P));
}

TEST(WireFraming, EofMidFrameIsAnError) {
  Socket A, B;
  ASSERT_TRUE(support::socketPair(A, B));
  unsigned char Hdr[4] = {0, 0, 0, 100}; // promises 100 bytes
  ASSERT_TRUE(A.writeAll(Hdr, 4));
  ASSERT_TRUE(A.writeAll("short", 5));
  A.close();
  std::string P;
  EXPECT_FALSE(B.recvFrame(P));
}

TEST(WireFraming, PeerClosedDetection) {
  Socket A, B;
  ASSERT_TRUE(support::socketPair(A, B));
  EXPECT_FALSE(B.peerClosed());
  A.close();
  EXPECT_TRUE(B.peerClosed());
}

TEST(Protocol, CheckRequestRoundTrips) {
  CheckRequest Req;
  Req.Source = "int f(void) { return 1; }\n";
  Req.NoHeapAbs = {"f", "g"};
  Req.NoWordAbs = {"h"};
  Req.Jobs = 4;
  Req.CacheDir = "/tmp/cache";
  Req.WantSpecs = true;
  Req.TimeoutMs = 2500;
  Req.Prio = Priority::Bulk;
  Req.Tenant = "ci-tenant";
  CheckRequest Back;
  std::string Err;
  ASSERT_TRUE(CheckRequest::fromJson(Req.toJson(), Back, Err)) << Err;
  EXPECT_EQ(Back.Source, Req.Source);
  EXPECT_EQ(Back.NoHeapAbs, Req.NoHeapAbs);
  EXPECT_EQ(Back.NoWordAbs, Req.NoWordAbs);
  EXPECT_EQ(Back.Jobs, 4u);
  EXPECT_EQ(Back.CacheDir, "/tmp/cache");
  EXPECT_TRUE(Back.WantSpecs);
  EXPECT_EQ(Back.TimeoutMs, 2500u);
  EXPECT_EQ(Back.Prio, Priority::Bulk);
  EXPECT_EQ(Back.Tenant, "ci-tenant");
}

TEST(Protocol, PriorityWireEncodingIsSparse) {
  // The default class and the empty tenant stay off the wire so the
  // pre-overload frame bytes are unchanged.
  CheckRequest Req;
  Req.Source = "int f(void) { return 1; }\n";
  std::string Wire = Req.toJson().dump();
  EXPECT_EQ(Wire.find("priority"), std::string::npos);
  EXPECT_EQ(Wire.find("tenant"), std::string::npos);

  CheckRequest Back;
  std::string Err;
  ASSERT_TRUE(CheckRequest::fromJson(Req.toJson(), Back, Err)) << Err;
  EXPECT_EQ(Back.Prio, Priority::Interactive);
  EXPECT_TRUE(Back.Tenant.empty());
}

TEST(Protocol, UnknownPriorityIsRejected) {
  CheckRequest Req;
  Req.Source = "int f(void) { return 1; }\n";
  Json J = Req.toJson();
  J.set("priority", "urgent");
  CheckRequest Back;
  std::string Err;
  EXPECT_FALSE(CheckRequest::fromJson(J, Back, Err));
  EXPECT_NE(Err.find("priority"), std::string::npos) << Err;
}

TEST(Protocol, CountsOutsideTheirRangeAreRejected) {
  // `jobs` sizes the daemon's shared pool, so the wire bounds it by the
  // pool's cap; a negative count must not wrap to ~4 billion.
  auto withJobs = [](double Jobs) {
    Json J = Json::object();
    J.set("source", "int f(void) { return 1; }\n");
    Json O = Json::object();
    O.set("jobs", Jobs);
    J.set("options", std::move(O));
    return J;
  };
  std::string Err;
  for (double Jobs : {257.0, 100000.0, -1.0}) {
    CheckRequest Back;
    EXPECT_FALSE(CheckRequest::fromJson(withJobs(Jobs), Back, Err)) << Jobs;
    EXPECT_NE(Err.find("options.jobs"), std::string::npos) << Err;
  }
  for (double Jobs : {0.0, 1.0, 256.0}) {
    CheckRequest Back;
    ASSERT_TRUE(CheckRequest::fromJson(withJobs(Jobs), Back, Err)) << Err;
    EXPECT_EQ(Back.Jobs, static_cast<unsigned>(Jobs));
  }
  for (const char *Field : {"timeout_ms", "debug_delay_ms"}) {
    Json J = withJobs(0);
    J.set(Field, -1.0);
    CheckRequest Back;
    EXPECT_FALSE(CheckRequest::fromJson(J, Back, Err)) << Field;
    EXPECT_NE(Err.find(Field), std::string::npos) << Err;
  }
}

TEST(Protocol, ErrorEnvelopeRoundTrips) {
  CheckResponse R =
      CheckResponse::error(ErrorCode::Busy, "admission queue full", 75);
  CheckResponse Back;
  std::string Err;
  ASSERT_TRUE(CheckResponse::fromJson(R.toJson(), Back, Err)) << Err;
  EXPECT_FALSE(Back.Ok);
  EXPECT_EQ(Back.Err, ErrorCode::Busy);
  EXPECT_EQ(Back.Message, "admission queue full");
  EXPECT_EQ(Back.RetryAfterMs, 75u);
}

TEST(Protocol, ErrorCodeNamesRoundTrip) {
  for (ErrorCode E :
       {ErrorCode::None, ErrorCode::Busy, ErrorCode::Draining,
        ErrorCode::BadRequest, ErrorCode::ParseError, ErrorCode::Internal,
        ErrorCode::DeadlineExceeded, ErrorCode::Shed})
    EXPECT_EQ(errorCodeFromName(errorCodeName(E)), E);
}

//===----------------------------------------------------------------------===//
// checkRetry backoff determinism
//===----------------------------------------------------------------------===//

TEST(Backoff, UnditheredScheduleIsExact) {
  // Doubling from the daemon's hint, capped at 2 s per sleep.
  EXPECT_EQ(retryBackoffMs(0, 50), 50u);
  EXPECT_EQ(retryBackoffMs(1, 50), 100u);
  EXPECT_EQ(retryBackoffMs(2, 50), 200u);
  EXPECT_EQ(retryBackoffMs(3, 50), 400u);
  EXPECT_EQ(retryBackoffMs(4, 50), 800u);
  EXPECT_EQ(retryBackoffMs(5, 50), 1600u);
  EXPECT_EQ(retryBackoffMs(6, 50), 2000u);
  EXPECT_EQ(retryBackoffMs(100, 50), 2000u) << "the shift must saturate, "
                                               "not overflow";
  // A daemon that sent no hint backs off from 10 ms.
  EXPECT_EQ(retryBackoffMs(0, 0), 10u);
  EXPECT_EQ(retryBackoffMs(7, 0), 1280u);
  EXPECT_EQ(retryBackoffMs(8, 0), 2000u);
}

TEST(Backoff, SeededSleepSequenceIsPinned) {
  // One seed, one thread: the whole jittered sleep sequence replays
  // exactly — the repeatability AC_RETRY_SEED exists for.
  ::setenv("AC_RETRY_SEED", "1234", 1);
  std::minstd_rand A = retryRng();
  std::minstd_rand B = retryRng();
  std::vector<uint64_t> SeqA, SeqB;
  for (unsigned I = 0; I != 12; ++I) {
    SeqA.push_back(retryDelayMs(I, 50, A));
    SeqB.push_back(retryDelayMs(I, 50, B));
  }
  EXPECT_EQ(SeqA, SeqB) << "same seed, same thread: the sleep sequence "
                           "must replay exactly";

  // Every jittered sleep stays within ±25% of the exact schedule.
  for (unsigned I = 0; I != 12; ++I) {
    double Exact = static_cast<double>(retryBackoffMs(I, 50));
    EXPECT_GE(static_cast<double>(SeqA[I]), 0.75 * Exact - 1) << I;
    EXPECT_LE(static_cast<double>(SeqA[I]), 1.25 * Exact + 1) << I;
  }

  // A different seed must move the jitter stream.
  ::setenv("AC_RETRY_SEED", "5678", 1);
  std::minstd_rand C = retryRng();
  std::vector<uint64_t> SeqC;
  for (unsigned I = 0; I != 12; ++I)
    SeqC.push_back(retryDelayMs(I, 50, C));
  EXPECT_NE(SeqA, SeqC);
  ::unsetenv("AC_RETRY_SEED");
}

//===----------------------------------------------------------------------===//
// Live-server fixture
//===----------------------------------------------------------------------===//

/// What an in-process run produces for one source — the oracle daemon
/// responses are compared against, field by field, byte for byte.
struct RefRun {
  bool Ok = false;
  std::vector<std::string> Names, FinalKeys, Renders, Pipelines, Diags;
};

RefRun inProcessRun(const std::string &Src) {
  RefRun R;
  DiagEngine Diags;
  auto AC = core::AutoCorres::run(Src, Diags);
  for (const Diagnostic &D : Diags.diagnostics())
    R.Diags.push_back(D.str());
  if (!AC)
    return R;
  R.Ok = true;
  for (const std::string &Name : AC->order()) {
    const core::FuncOutput *F = AC->func(Name);
    R.Names.push_back(Name);
    R.FinalKeys.push_back(F->finalKey());
    R.Renders.push_back(AC->render(Name));
    R.Pipelines.push_back(F->pipelineProp());
  }
  return R;
}

void expectMatchesRef(const CheckResponse &Resp, const RefRun &Ref,
                      const std::string &What) {
  ASSERT_TRUE(Resp.Ok) << What << ": " << Resp.Message;
  ASSERT_EQ(Resp.Functions.size(), Ref.Names.size()) << What;
  for (size_t I = 0; I != Ref.Names.size(); ++I) {
    EXPECT_EQ(Resp.Functions[I].Name, Ref.Names[I]) << What;
    EXPECT_EQ(Resp.Functions[I].FinalKey, Ref.FinalKeys[I]) << What;
    EXPECT_EQ(Resp.Functions[I].Render, Ref.Renders[I])
        << What << ": daemon-served spec diverged for " << Ref.Names[I];
    EXPECT_EQ(Resp.Functions[I].Pipeline, Ref.Pipelines[I])
        << What << ": composed theorem diverged for " << Ref.Names[I];
  }
  EXPECT_EQ(Resp.Diagnostics, Ref.Diags) << What;
}

class ServiceTest : public ::testing::Test {
protected:
  void SetUp() override {
    ::unsetenv("AC_CACHE");
    ::unsetenv("AC_CACHE_DIR");
    ::unsetenv("AC_JOBS");
    const char *Name =
        ::testing::UnitTest::GetInstance()->current_test_info()->name();
    Root = ::testing::TempDir() + "ac-service-" + Name;
    std::filesystem::remove_all(Root);
    std::filesystem::create_directories(Root);
    SockPath = Root + "/acd.sock";
  }
  void TearDown() override { std::filesystem::remove_all(Root); }

  ServerOptions baseOpts() {
    ServerOptions O;
    O.SocketPath = SockPath;
    O.Workers = 2;
    O.QueueCapacity = 4;
    return O;
  }

  /// Polls the daemon's stats endpoint until \p Pred holds.
  bool waitStats(const std::function<bool(const Json &)> &Pred,
                 int TimeoutMs = 5000) {
    auto Deadline = std::chrono::steady_clock::now() +
                    std::chrono::milliseconds(TimeoutMs);
    while (std::chrono::steady_clock::now() < Deadline) {
      Client C = Client::connect(SockPath);
      Json J;
      std::string Err;
      if (C.connected() && C.stats(J, Err) && Pred(J))
        return true;
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    return false;
  }

  std::string Root, SockPath;
};

/// The daemon flushes per-request trace files after delivering the
/// response, so a client that just got its answer may still be a few
/// microseconds ahead of the file.
bool waitForFile(const std::string &Path, int TimeoutMs = 5000) {
  auto Deadline = std::chrono::steady_clock::now() +
                  std::chrono::milliseconds(TimeoutMs);
  while (std::chrono::steady_clock::now() < Deadline) {
    if (std::filesystem::exists(Path))
      return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  return false;
}

} // namespace

TEST_F(ServiceTest, PingAndStats) {
  Server Srv(baseOpts());
  ASSERT_TRUE(Srv.start());
  Client C = Client::connect(SockPath);
  ASSERT_TRUE(C.connected());
  std::string Err;
  EXPECT_TRUE(C.ping(Err)) << Err;
  Json St;
  ASSERT_TRUE(C.stats(St, Err)) << Err;
  EXPECT_TRUE(St.get("ok").asBool());
  EXPECT_FALSE(St.get("draining").asBool(true));
  EXPECT_EQ(St.get("workers").asInt(), 2);
  EXPECT_EQ(St.get("queue_capacity").asInt(), 4);
  EXPECT_EQ(St.get("requests").get("received").asInt(), 0);
  Srv.stop();
}

TEST_F(ServiceTest, ServedSpecsAreByteIdenticalToInProcessRuns) {
  Server Srv(baseOpts());
  ASSERT_TRUE(Srv.start());
  Client C = Client::connect(SockPath);
  ASSERT_TRUE(C.connected());
  const char *Sources[] = {corpus::maxSource(), corpus::swapSource(),
                           corpus::reverseSource(),
                           corpus::suzukiSource()};
  for (const char *Src : Sources) {
    RefRun Ref = inProcessRun(Src);
    CheckRequest Req;
    Req.Source = Src;
    CheckResponse Resp;
    std::string Err;
    ASSERT_TRUE(C.check(Req, Resp, Err)) << Err;
    expectMatchesRef(Resp, Ref, "single client");
  }
  // Same connection, warm tier: second serving is identical too.
  RefRun Ref = inProcessRun(corpus::maxSource());
  CheckRequest Req;
  Req.Source = corpus::maxSource();
  CheckResponse Resp;
  std::string Err;
  ASSERT_TRUE(C.check(Req, Resp, Err)) << Err;
  expectMatchesRef(Resp, Ref, "warm re-check");
  EXPECT_GT(Resp.CacheHits, 0u) << "in-memory tier did not warm up";
  Srv.stop();
}

TEST_F(ServiceTest, ConcurrentClientsEachGetExactResults) {
  // Different programs in flight at once exercise run()'s reentrancy
  // (shared intern tables, axiom inventory, lifted-globals axioms with
  // program-dependent names); every client must still get byte-exact
  // output for its own program.
  Server Srv(baseOpts());
  ASSERT_TRUE(Srv.start());

  const char *Sources[] = {corpus::maxSource(),      corpus::gcdSource(),
                           corpus::swapSource(),     corpus::midpointSource(),
                           corpus::reverseSource(),  corpus::suzukiSource()};
  constexpr size_t N = sizeof(Sources) / sizeof(Sources[0]);
  std::vector<RefRun> Refs(N);
  for (size_t I = 0; I != N; ++I)
    Refs[I] = inProcessRun(Sources[I]);

  std::atomic<int> Failures{0};
  std::vector<std::thread> Ts;
  for (size_t I = 0; I != N; ++I)
    Ts.emplace_back([&, I] {
      for (int Round = 0; Round != 3; ++Round) {
        Client C = Client::connect(SockPath);
        CheckRequest Req;
        Req.Source = Sources[I];
        CheckResponse Resp;
        std::string Err;
        if (!C.connected() || !C.checkRetry(Req, Resp, Err) || !Resp.Ok) {
          Failures.fetch_add(1);
          return;
        }
        if (Resp.Functions.size() != Refs[I].Names.size()) {
          Failures.fetch_add(1);
          return;
        }
        for (size_t F = 0; F != Refs[I].Names.size(); ++F)
          if (Resp.Functions[F].Render != Refs[I].Renders[F] ||
              Resp.Functions[F].Pipeline != Refs[I].Pipelines[F] ||
              Resp.Functions[F].FinalKey != Refs[I].FinalKeys[F])
            Failures.fetch_add(1);
      }
    });
  for (std::thread &T : Ts)
    T.join();
  EXPECT_EQ(Failures.load(), 0);

  // Every admitted request is accounted for, nothing leaks.
  EXPECT_TRUE(waitStats([](const Json &St) {
    return St.get("in_flight").asInt() == 0 &&
           St.get("queue_depth").asInt() == 0;
  }));
  ServiceMetrics &M = Srv.metrics();
  EXPECT_EQ(M.Received.load(), M.Completed.load());
  EXPECT_EQ(M.Failed.load(), 0u);
  EXPECT_EQ(M.Cancelled.load(), 0u);
  Srv.stop();
}

TEST_F(ServiceTest, FullQueueGetsBusyWithRetryHint) {
  ServerOptions O = baseOpts();
  O.Workers = 1;
  O.QueueCapacity = 1;
  O.RetryAfterMs = 25;
  Server Srv(O);
  ASSERT_TRUE(Srv.start());

  CheckRequest Slow;
  Slow.Source = corpus::maxSource();
  Slow.DebugDelayMs = 400;

  // A occupies the single worker...
  Client A = Client::connect(SockPath);
  std::thread TA([&] {
    CheckResponse R;
    std::string E;
    A.check(Slow, R, E);
  });
  ASSERT_TRUE(waitStats(
      [](const Json &St) { return St.get("in_flight").asInt() == 1; }));

  // ...B fills the one queue slot...
  Client B = Client::connect(SockPath);
  std::thread TB([&] {
    CheckResponse R;
    std::string E;
    B.check(Slow, R, E);
  });
  ASSERT_TRUE(waitStats(
      [](const Json &St) { return St.get("queue_depth").asInt() == 1; }));

  // ...so C must be rejected immediately with the retry hint.
  Client C = Client::connect(SockPath);
  CheckRequest Quick;
  Quick.Source = corpus::maxSource();
  CheckResponse R;
  std::string Err;
  ASSERT_TRUE(C.check(Quick, R, Err)) << Err;
  EXPECT_FALSE(R.Ok);
  EXPECT_EQ(R.Err, ErrorCode::Busy);
  EXPECT_EQ(R.RetryAfterMs, 25u);
  EXPECT_GE(Srv.metrics().Rejected.load(), 1u);

  // Obeying the backpressure signal eventually gets through.
  CheckResponse R2;
  ASSERT_TRUE(C.checkRetry(Quick, R2, Err)) << Err;
  EXPECT_TRUE(R2.Ok) << R2.Message;

  TA.join();
  TB.join();
  Srv.stop();
}

TEST_F(ServiceTest, DisconnectedClientsRequestIsCancelledNotLeaked) {
  ServerOptions O = baseOpts();
  O.Workers = 1;
  Server Srv(O);
  ASSERT_TRUE(Srv.start());

  // Keep the single worker busy so the victim's request has to queue.
  CheckRequest Slow;
  Slow.Source = corpus::maxSource();
  Slow.DebugDelayMs = 300;
  Client A = Client::connect(SockPath);
  std::thread TA([&] {
    CheckResponse R;
    std::string E;
    A.check(Slow, R, E);
  });
  ASSERT_TRUE(waitStats(
      [](const Json &St) { return St.get("in_flight").asInt() == 1; }));

  // The victim submits a check, then hangs up without waiting.
  {
    Client B = Client::connect(SockPath);
    ASSERT_TRUE(B.connected());
    CheckRequest Req;
    Req.Source = corpus::gcdSource();
    ASSERT_TRUE(B.socket().sendFrame(Req.toJson().dump()));
    ASSERT_TRUE(waitStats(
        [](const Json &St) { return St.get("queue_depth").asInt() == 1; }));
  } // B's socket closes here, with its request still queued

  // The worker must detect the hang-up at dequeue, free the slot, and
  // account the request as cancelled — not run it, not leak it.
  TA.join();
  ASSERT_TRUE(waitStats([](const Json &St) {
    return St.get("requests").get("cancelled").asInt() == 1 &&
           St.get("in_flight").asInt() == 0 &&
           St.get("queue_depth").asInt() == 0;
  }));
  ServiceMetrics &M = Srv.metrics();
  EXPECT_EQ(M.Received.load(), 2u);
  EXPECT_EQ(M.Completed.load(), 1u); // A's
  EXPECT_EQ(M.Cancelled.load(), 1u); // B's
  EXPECT_EQ(M.Failed.load(), 0u);
  Srv.stop();
}

TEST_F(ServiceTest, JobsAboveTheCapIsABadRequest) {
  Server Srv(baseOpts());
  ASSERT_TRUE(Srv.start());
  Client C = Client::connect(SockPath);
  CheckRequest Req;
  Req.Source = corpus::maxSource();
  Req.Jobs = support::ThreadPool::MaxJobs + 1;
  CheckResponse Resp;
  std::string Err;
  ASSERT_TRUE(C.check(Req, Resp, Err)) << Err;
  EXPECT_FALSE(Resp.Ok);
  EXPECT_EQ(Resp.Err, ErrorCode::BadRequest);
  EXPECT_NE(Resp.Message.find("options.jobs"), std::string::npos)
      << Resp.Message;

  // The daemon is unharmed and serves the next check.
  RefRun Ref = inProcessRun(corpus::maxSource());
  Req.Jobs = 0;
  ASSERT_TRUE(C.check(Req, Resp, Err)) << Err;
  expectMatchesRef(Resp, Ref, "after a rejected jobs count");
  Srv.stop();
}

TEST_F(ServiceTest, MalformedAndInvalidRequestsGetTypedErrors) {
  Server Srv(baseOpts());
  ASSERT_TRUE(Srv.start());
  Client C = Client::connect(SockPath);
  ASSERT_TRUE(C.connected());

  auto roundTripRaw = [&](const std::string &Raw, CheckResponse &Out) {
    EXPECT_TRUE(C.socket().sendFrame(Raw));
    std::string Reply;
    EXPECT_TRUE(C.socket().recvFrame(Reply));
    Json J;
    std::string Err;
    EXPECT_TRUE(Json::parse(Reply, J, Err)) << Err;
    EXPECT_TRUE(CheckResponse::fromJson(J, Out, Err)) << Err;
  };

  CheckResponse R;
  roundTripRaw("this is not json", R);
  EXPECT_EQ(R.Err, ErrorCode::BadRequest);

  roundTripRaw(R"({"v":1,"op":"frobnicate"})", R);
  EXPECT_EQ(R.Err, ErrorCode::BadRequest);

  roundTripRaw(R"({"v":99,"op":"ping"})", R);
  EXPECT_EQ(R.Err, ErrorCode::BadRequest);

  roundTripRaw(R"({"v":1,"op":"check"})", R); // no source
  EXPECT_EQ(R.Err, ErrorCode::BadRequest);

  // Valid request, invalid C: a parse_error with diagnostics, and the
  // connection stays usable afterwards.
  CheckRequest Req;
  Req.Source = "int broken(void) { return ; }\n";
  CheckResponse Bad;
  std::string Err;
  ASSERT_TRUE(C.check(Req, Bad, Err)) << Err;
  EXPECT_FALSE(Bad.Ok);
  EXPECT_EQ(Bad.Err, ErrorCode::ParseError);
  EXPECT_FALSE(Bad.Diagnostics.empty());
  // The failure counter is bumped after the response is delivered, so
  // observe it through the (eventually consistent) stats endpoint.
  EXPECT_TRUE(waitStats([](const Json &St) {
    return St.get("requests").get("failed").asInt() == 1;
  }));

  Req.Source = corpus::maxSource();
  CheckResponse Good;
  ASSERT_TRUE(C.check(Req, Good, Err)) << Err;
  EXPECT_TRUE(Good.Ok);
  Srv.stop();
}

TEST_F(ServiceTest, DrainRefusesNewWorkAndFinishesQueued) {
  ServerOptions O = baseOpts();
  O.Workers = 1;
  Server Srv(O);
  ASSERT_TRUE(Srv.start());

  CheckRequest Slow;
  Slow.Source = corpus::maxSource();
  Slow.DebugDelayMs = 250;
  Client A = Client::connect(SockPath);
  CheckResponse RA;
  std::string ErrA;
  std::thread TA([&] { A.check(Slow, RA, ErrA); });
  ASSERT_TRUE(waitStats(
      [](const Json &St) { return St.get("in_flight").asInt() == 1; }));

  Client D = Client::connect(SockPath);
  std::string Err;
  ASSERT_TRUE(D.drain(Err)) << Err;
  EXPECT_TRUE(Srv.draining());

  // New work is refused while the in-flight request still completes.
  Client C = Client::connect(SockPath);
  CheckRequest Req;
  Req.Source = corpus::gcdSource();
  CheckResponse R;
  ASSERT_TRUE(C.check(Req, R, Err)) << Err;
  EXPECT_FALSE(R.Ok);
  EXPECT_EQ(R.Err, ErrorCode::Draining);

  TA.join();
  EXPECT_TRUE(RA.Ok) << ErrA << " " << RA.Message;
  Srv.stop();
  EXPECT_EQ(Srv.metrics().Completed.load(), 1u);
}

TEST_F(ServiceTest, WarmCacheSurvivesDrainAndRestart) {
  std::string CacheDir = Root + "/cache";
  RefRun Ref = inProcessRun(corpus::reverseSource());

  ServerOptions O = baseOpts();
  O.CacheDir = CacheDir;
  {
    Server Srv(O);
    ASSERT_TRUE(Srv.start());
    Client C = Client::connect(SockPath);
    CheckRequest Req;
    Req.Source = corpus::reverseSource();
    CheckResponse Resp;
    std::string Err;
    ASSERT_TRUE(C.check(Req, Resp, Err)) << Err;
    expectMatchesRef(Resp, Ref, "first daemon, cold");
    EXPECT_GT(Resp.CacheMisses, 0u);
    Srv.stop(); // drains and flushes the tier to disk
  }
  ASSERT_TRUE(std::filesystem::exists(CacheDir));

  // A fresh daemon on the same directory serves the same bytes from a
  // warm tier: all hits, no recompute.
  {
    Server Srv(O);
    ASSERT_TRUE(Srv.start());
    Client C = Client::connect(SockPath);
    CheckRequest Req;
    Req.Source = corpus::reverseSource();
    CheckResponse Resp;
    std::string Err;
    ASSERT_TRUE(C.check(Req, Resp, Err)) << Err;
    expectMatchesRef(Resp, Ref, "second daemon, warm");
    EXPECT_EQ(Resp.CacheMisses, 0u);
    EXPECT_GT(Resp.CacheHits, 0u);
    Srv.stop();
  }
}

TEST_F(ServiceTest, PerRequestOptionsAreHonoured) {
  Server Srv(baseOpts());
  ASSERT_TRUE(Srv.start());
  Client C = Client::connect(SockPath);

  // swap normally heap-lifts; NoHeapAbs must turn that off for exactly
  // this request and be reflected in the result signature.
  CheckRequest Req;
  Req.Source = corpus::swapSource();
  CheckResponse Lifted;
  std::string Err;
  ASSERT_TRUE(C.check(Req, Lifted, Err)) << Err;
  ASSERT_EQ(Lifted.Functions.size(), 1u);
  EXPECT_TRUE(Lifted.Functions[0].HeapLifted);

  Req.NoHeapAbs = {"swap"};
  CheckResponse Raw;
  ASSERT_TRUE(C.check(Req, Raw, Err)) << Err;
  ASSERT_EQ(Raw.Functions.size(), 1u);
  EXPECT_FALSE(Raw.Functions[0].HeapLifted);
  EXPECT_NE(Raw.Functions[0].Render, Lifted.Functions[0].Render);

  // want_specs controls the per-phase payload.
  Req.NoHeapAbs.clear();
  Req.WantSpecs = true;
  CheckResponse Specs;
  ASSERT_TRUE(C.check(Req, Specs, Err)) << Err;
  ASSERT_EQ(Specs.Functions.size(), 1u);
  EXPECT_FALSE(Specs.Functions[0].L1Spec.empty());
  EXPECT_FALSE(Specs.Functions[0].HLSpec.empty());
  Srv.stop();
}

TEST_F(ServiceTest, ParallelRequestsUseTheSharedPool) {
  ServerOptions O = baseOpts();
  O.Jobs = 4; // daemon default: abstraction stages on the shared pool
  Server Srv(O);
  ASSERT_TRUE(Srv.start());
  Client C = Client::connect(SockPath);
  RefRun Ref = inProcessRun(corpus::reverseSource());
  CheckRequest Req;
  Req.Source = corpus::reverseSource();
  CheckResponse Resp;
  std::string Err;
  ASSERT_TRUE(C.check(Req, Resp, Err)) << Err;
  expectMatchesRef(Resp, Ref, "shared-pool run");
  EXPECT_EQ(Resp.Jobs, 4u);
  Srv.stop();
}

//===----------------------------------------------------------------------===//
// Deadlines, retry bounds, and graceful degradation
//===----------------------------------------------------------------------===//

TEST_F(ServiceTest, QueuedRequestPastDeadlineIsAnsweredAndSlotFreed) {
  ServerOptions O = baseOpts();
  O.Workers = 1; // one slow request blocks the only worker
  Server Srv(O);
  ASSERT_TRUE(Srv.start());

  // Occupy the worker (generously: the suite may share a loaded box).
  std::thread Slow([&] {
    Client C = Client::connect(SockPath);
    CheckRequest Req;
    Req.Source = corpus::maxSource();
    Req.DebugDelayMs = 2000;
    CheckResponse Resp;
    std::string Err;
    EXPECT_TRUE(C.check(Req, Resp, Err)) << Err;
    EXPECT_TRUE(Resp.Ok) << Resp.Message;
  });
  bool Occupied = waitStats(
      [](const Json &St) { return St.get("in_flight").asInt() == 1; });
  if (!Occupied) {
    Slow.join();
    Srv.stop();
    FAIL() << "worker never became busy";
  }

  // A queued request with a 100 ms deadline must be answered by its
  // waiting connection thread long before the worker frees up.
  Client C = Client::connect(SockPath);
  CheckRequest Req;
  Req.Source = corpus::maxSource();
  Req.TimeoutMs = 100;
  CheckResponse Resp;
  std::string Err;
  auto T0 = std::chrono::steady_clock::now();
  ASSERT_TRUE(C.check(Req, Resp, Err)) << Err;
  auto ElapsedMs = std::chrono::duration_cast<std::chrono::milliseconds>(
                       std::chrono::steady_clock::now() - T0)
                       .count();
  EXPECT_FALSE(Resp.Ok);
  EXPECT_EQ(Resp.Err, ErrorCode::DeadlineExceeded) << Resp.Message;
  EXPECT_LT(ElapsedMs, 1500) << "the deadline must not wait for the worker";
  // The expired request's queue slot was freed, not leaked.
  EXPECT_TRUE(waitStats([](const Json &St) {
    return St.get("queue_depth").asInt() == 0 &&
           St.get("requests").get("deadline_exceeded").asInt() == 1;
  }));
  Slow.join();
  Srv.stop();
}

TEST_F(ServiceTest, InFlightRequestOverDeadlineIsCancelled) {
  ServerOptions O = baseOpts();
  O.Workers = 1;
  Server Srv(O);
  ASSERT_TRUE(Srv.start());

  // The request itself dawdles past its own deadline.
  Client C = Client::connect(SockPath);
  CheckRequest Req;
  Req.Source = corpus::maxSource();
  Req.DebugDelayMs = 2000;
  Req.TimeoutMs = 100;
  CheckResponse Resp;
  std::string Err;
  auto T0 = std::chrono::steady_clock::now();
  ASSERT_TRUE(C.check(Req, Resp, Err)) << Err;
  auto ElapsedMs = std::chrono::duration_cast<std::chrono::milliseconds>(
                       std::chrono::steady_clock::now() - T0)
                       .count();
  EXPECT_FALSE(Resp.Ok);
  EXPECT_EQ(Resp.Err, ErrorCode::DeadlineExceeded) << Resp.Message;
  EXPECT_LT(ElapsedMs, 1500)
      << "the deadline response must not wait out the full delay";

  // The worker survives: it discards the cancelled result and serves the
  // next request normally.
  RefRun Ref = inProcessRun(corpus::maxSource());
  Client C2 = Client::connect(SockPath);
  CheckRequest Req2;
  Req2.Source = corpus::maxSource();
  CheckResponse Resp2;
  ASSERT_TRUE(C2.check(Req2, Resp2, Err)) << Err;
  expectMatchesRef(Resp2, Ref, "after a cancelled in-flight request");
  EXPECT_TRUE(waitStats([](const Json &St) {
    return St.get("requests").get("deadline_exceeded").asInt() == 1 &&
           St.get("in_flight").asInt() == 0;
  }));
  Srv.stop();
}

TEST_F(ServiceTest, SameConnectionChecksAgainAfterAnInFlightDeadline) {
  ServerOptions O = baseOpts();
  O.Workers = 1;
  Server Srv(O);
  ASSERT_TRUE(Srv.start());

  // The connection thread answers the deadline while the worker still
  // holds the request, then goes back to reading this same connection.
  Client C = Client::connect(SockPath);
  CheckRequest Req;
  Req.Source = corpus::maxSource();
  Req.DebugDelayMs = 2000;
  Req.TimeoutMs = 100;
  CheckResponse Resp;
  std::string Err;
  ASSERT_TRUE(C.check(Req, Resp, Err)) << Err;
  EXPECT_FALSE(Resp.Ok);
  EXPECT_EQ(Resp.Err, ErrorCode::DeadlineExceeded) << Resp.Message;

  // Its next check is served in full once the worker frees up.
  RefRun Ref = inProcessRun(corpus::maxSource());
  CheckRequest Req2;
  Req2.Source = corpus::maxSource();
  CheckResponse Resp2;
  ASSERT_TRUE(C.check(Req2, Resp2, Err)) << Err;
  expectMatchesRef(Resp2, Ref, "same connection after a deadline answer");
  EXPECT_TRUE(waitStats([](const Json &St) {
    const Json &Rq = St.get("requests");
    return Rq.get("deadline_exceeded").asInt() == 1 &&
           Rq.get("completed").asInt() == 1 && St.get("in_flight").asInt() == 0;
  }));
  Srv.stop();
}

TEST_F(ServiceTest, CheckRetryBoundsTotalTimeUnderSaturation) {
  ServerOptions O = baseOpts();
  O.Workers = 1;
  O.QueueCapacity = 1;
  O.RetryAfterMs = 30;
  Server Srv(O);
  ASSERT_TRUE(Srv.start());

  // Saturate: one in flight, one queued — everything else gets `busy`.
  // Started one at a time (the second would itself bounce off the
  // size-1 queue while the first still sits in it), with holds generous
  // enough that the saturated window survives a loaded box.
  // The in-flight hold outlasts the 5 s saturation wait below by a
  // margin wider than the probe's 300 ms budget, so the probe can never
  // slip into a freed slot however slowly the wait converged.
  auto Holder = [&](unsigned DelayMs) {
    Client C = Client::connect(SockPath);
    CheckRequest Req;
    Req.Source = corpus::maxSource();
    Req.DebugDelayMs = DelayMs;
    CheckResponse Resp;
    std::string Err;
    C.check(Req, Resp, Err);
  };
  std::vector<std::thread> Holders;
  Holders.emplace_back(Holder, 8000u);
  bool InFlight = waitStats([](const Json &St) {
    return St.get("in_flight").asInt() == 1 &&
           St.get("queue_depth").asInt() == 0;
  });
  if (InFlight)
    Holders.emplace_back(Holder, 100u);
  bool Saturated =
      InFlight && waitStats([](const Json &St) {
        return St.get("in_flight").asInt() == 1 &&
               St.get("queue_depth").asInt() == 1;
      });
  if (!Saturated) {
    for (std::thread &T : Holders)
      T.join();
    Srv.stop();
    FAIL() << "daemon never reached the saturated state";
  }

  // A bounded retry loop must give up with the daemon's last `busy`
  // answer well before the holders finish, not spin until admitted.
  Client C = Client::connect(SockPath);
  CheckRequest Req;
  Req.Source = corpus::maxSource();
  CheckResponse Resp;
  std::string Err;
  auto T0 = std::chrono::steady_clock::now();
  ASSERT_TRUE(C.checkRetry(Req, Resp, Err, /*MaxAttempts=*/50,
                           /*MaxTotalMs=*/300))
      << Err;
  auto ElapsedMs = std::chrono::duration_cast<std::chrono::milliseconds>(
                       std::chrono::steady_clock::now() - T0)
                       .count();
  EXPECT_FALSE(Resp.Ok);
  EXPECT_EQ(Resp.Err, ErrorCode::Busy);
  // Far below the ~8 s the holders occupy the daemon: the loop gave up
  // on its own clock instead of waiting to be admitted.
  EXPECT_LT(ElapsedMs, 3000) << "retry loop must respect its time bound";
  for (std::thread &T : Holders)
    T.join();
  Srv.stop();
}

TEST_F(ServiceTest, FallbackServesIdenticalResultsWithNoDaemon) {
  RefRun Ref = inProcessRun(corpus::gcdSource());
  CheckRequest Req;
  Req.Source = corpus::gcdSource();
  bool UsedFallback = false;
  std::string Note;
  // Nothing listens on SockPath: the check must degrade to an
  // in-process run and still produce exact results.
  CheckResponse Resp =
      checkWithFallback(Endpoint{SockPath, "", ""}, Req, UsedFallback, Note);
  EXPECT_TRUE(UsedFallback);
  EXPECT_NE(Note.find("falling back"), std::string::npos) << Note;
  expectMatchesRef(Resp, Ref, "fallback with no daemon");
}

TEST_F(ServiceTest, FallbackKicksInWhenTheDaemonMissesTheDeadline) {
  ServerOptions O = baseOpts();
  O.Workers = 1;
  Server Srv(O);
  ASSERT_TRUE(Srv.start());

  RefRun Ref = inProcessRun(corpus::maxSource());
  CheckRequest Req;
  Req.Source = corpus::maxSource();
  Req.DebugDelayMs = 800; // the daemon will sit on it...
  Req.TimeoutMs = 100;    // ...past the deadline
  bool UsedFallback = false;
  std::string Note;
  CheckResponse Resp =
      checkWithFallback(Endpoint{SockPath, "", ""}, Req, UsedFallback, Note);
  EXPECT_TRUE(UsedFallback);
  EXPECT_NE(Note.find("deadline"), std::string::npos) << Note;
  // The local run ignores the daemon-side debug delay and serves the
  // same bytes the daemon would have.
  expectMatchesRef(Resp, Ref, "fallback after deadline_exceeded");
  Srv.stop();
}

TEST_F(ServiceTest, FallbackDoesNotMaskRequestErrors) {
  Server Srv(baseOpts());
  ASSERT_TRUE(Srv.start());
  CheckRequest Req;
  Req.Source = "this is not C;"; // a parse_error, the *request's* fault
  bool UsedFallback = false;
  std::string Note;
  CheckResponse Resp =
      checkWithFallback(Endpoint{SockPath, "", ""}, Req, UsedFallback, Note);
  EXPECT_FALSE(UsedFallback)
      << "an error the daemon *diagnosed* must not silently re-run "
         "locally: " << Note;
  EXPECT_FALSE(Resp.Ok);
  EXPECT_EQ(Resp.Err, ErrorCode::ParseError) << Resp.Message;
  Srv.stop();
}

//===----------------------------------------------------------------------===//
// Observability: trace ids, metrics exposition, structured logs
//===----------------------------------------------------------------------===//

TEST_F(ServiceTest, TraceIdRoundTripsAndIsMintedWhenAbsent) {
  ServerOptions O = baseOpts();
  O.TraceDir = Root + "/traces";
  std::filesystem::create_directories(O.TraceDir);
  Server Srv(O);
  ASSERT_TRUE(Srv.start());
  Client C = Client::connect(SockPath);
  ASSERT_TRUE(C.connected());

  // Client-supplied id echoes back verbatim, on success...
  CheckRequest Req;
  Req.Source = corpus::maxSource();
  Req.TraceId = "ci-run-42";
  CheckResponse Resp;
  std::string Err;
  ASSERT_TRUE(C.check(Req, Resp, Err)) << Err;
  EXPECT_TRUE(Resp.Ok);
  EXPECT_EQ(Resp.TraceId, "ci-run-42");
  // ...and the per-request trace file lands under TraceDir by that name.
  EXPECT_TRUE(waitForFile(O.TraceDir + "/ci-run-42.json"));

  // ...and on failure.
  CheckRequest Bad;
  Bad.Source = "this is not C;";
  Bad.TraceId = "ci-run-43";
  CheckResponse BadResp;
  ASSERT_TRUE(C.check(Bad, BadResp, Err)) << Err;
  EXPECT_FALSE(BadResp.Ok);
  EXPECT_EQ(BadResp.TraceId, "ci-run-43");

  // Absent id: the daemon mints one and still echoes it.
  CheckRequest Anon;
  Anon.Source = corpus::maxSource();
  CheckResponse AnonResp;
  ASSERT_TRUE(C.check(Anon, AnonResp, Err)) << Err;
  EXPECT_TRUE(AnonResp.Ok);
  EXPECT_FALSE(AnonResp.TraceId.empty());
  EXPECT_EQ(AnonResp.TraceId.rfind("req-", 0), 0u) << AnonResp.TraceId;
  Srv.stop();
}

TEST_F(ServiceTest, UnsafeTraceIdsAreReplacedNeverUsedAsPaths) {
  ServerOptions O = baseOpts();
  O.TraceDir = Root + "/traces";
  std::filesystem::create_directories(O.TraceDir);
  Server Srv(O);
  ASSERT_TRUE(Srv.start());
  Client C = Client::connect(SockPath);
  ASSERT_TRUE(C.connected());
  std::string Err;

  // A traversal id must not steer the trace file outside --trace-dir:
  // the daemon renames the request and answers with the id it used.
  CheckRequest Req;
  Req.Source = corpus::maxSource();
  Req.TraceId = "../escape";
  CheckResponse Resp;
  ASSERT_TRUE(C.check(Req, Resp, Err)) << Err;
  EXPECT_TRUE(Resp.Ok);
  EXPECT_EQ(Resp.TraceId.rfind("req-", 0), 0u)
      << "unsafe id echoed back: " << Resp.TraceId;
  EXPECT_TRUE(waitForFile(O.TraceDir + "/" + Resp.TraceId + ".json"));
  EXPECT_FALSE(std::filesystem::exists(Root + "/escape.json"))
      << "trace file escaped --trace-dir";

  // Every other unsafe shape is replaced too...
  for (const char *Bad :
       {"a/b", "..", ".hidden", "-dash", "id with space",
        "nul\1byte"}) {
    CheckRequest B;
    B.Source = corpus::maxSource();
    B.TraceId = Bad;
    CheckResponse R;
    ASSERT_TRUE(C.check(B, R, Err)) << Err;
    EXPECT_EQ(R.TraceId.rfind("req-", 0), 0u)
        << "accepted unsafe id: " << Bad;
  }
  CheckRequest Long;
  Long.Source = corpus::maxSource();
  Long.TraceId = std::string(300, 'a');
  CheckResponse LongResp;
  ASSERT_TRUE(C.check(Long, LongResp, Err)) << Err;
  EXPECT_EQ(LongResp.TraceId.rfind("req-", 0), 0u);

  // ...while the documented safe alphabet passes through verbatim.
  CheckRequest Good;
  Good.Source = corpus::maxSource();
  Good.TraceId = "CI-run_7.3";
  CheckResponse GoodResp;
  ASSERT_TRUE(C.check(Good, GoodResp, Err)) << Err;
  EXPECT_EQ(GoodResp.TraceId, "CI-run_7.3");
  EXPECT_TRUE(waitForFile(O.TraceDir + "/CI-run_7.3.json"));
  Srv.stop();
}

TEST_F(ServiceTest, PerRequestTraceFilesAreValidChromeJson) {
  ServerOptions O = baseOpts();
  O.TraceDir = Root + "/traces";
  std::filesystem::create_directories(O.TraceDir);
  Server Srv(O);
  ASSERT_TRUE(Srv.start());
  Client C = Client::connect(SockPath);
  ASSERT_TRUE(C.connected());
  CheckRequest Req;
  Req.Source = corpus::swapSource();
  Req.TraceId = "trace-json-check";
  CheckResponse Resp;
  std::string Err;
  ASSERT_TRUE(C.check(Req, Resp, Err)) << Err;
  ASSERT_TRUE(Resp.Ok);
  ASSERT_TRUE(waitForFile(O.TraceDir + "/trace-json-check.json"));

  std::ifstream In(O.TraceDir + "/trace-json-check.json");
  ASSERT_TRUE(In.good());
  std::stringstream SS;
  SS << In.rdbuf();
  Json J;
  ASSERT_TRUE(Json::parse(SS.str(), J, Err)) << Err;
  ASSERT_TRUE(J.get("traceEvents").isArray());
  // The served pipeline's phases are in there.
  bool SawFn = false;
  for (const Json &E : J.get("traceEvents").items())
    if (E.get("name").asString() == "core.fn")
      SawFn = true;
  EXPECT_TRUE(SawFn) << "per-request trace carries no pipeline spans";
  Srv.stop();
}

TEST_F(ServiceTest, FirstTracedRequestOfAFreshServerHasItsRootSpan) {
  // A fresh acd: nothing in this process collects spans before start().
  // The first request's file must still be rooted at acd.request, with
  // the queue wait, the pipeline run and the reply tail (assembly, the
  // reply object, the frame's encoding and its write) as its children.
  support::Trace::stop();
  support::Trace::reset();
  ServerOptions O = baseOpts();
  O.TraceDir = Root + "/traces";
  Server Srv(O);
  ASSERT_TRUE(Srv.start());
  Client C = Client::connect(SockPath);
  ASSERT_TRUE(C.connected());
  CheckRequest Req;
  Req.Source = corpus::maxSource();
  Req.TraceId = "first-request";
  CheckResponse Resp;
  std::string Err;
  ASSERT_TRUE(C.check(Req, Resp, Err)) << Err;
  ASSERT_TRUE(Resp.Ok);
  ASSERT_TRUE(waitForFile(O.TraceDir + "/first-request.json"));
  Srv.stop();
  support::Trace::stop();
  support::Trace::reset();

  std::ifstream In(O.TraceDir + "/first-request.json");
  std::stringstream SS;
  SS << In.rdbuf();
  Json J;
  ASSERT_TRUE(Json::parse(SS.str(), J, Err)) << Err;
  std::string RootSpan;
  std::map<std::string, std::string> ParentOf; // span name -> parent id
  for (const Json &E : J.get("traceEvents").items()) {
    const std::string Name = E.get("name").asString();
    const Json &Args = E.get("args");
    if (Name == "acd.request")
      RootSpan = Args.get("span").asString();
    if (Name == "acd.queue_wait" || Name == "ac.run" ||
        Name == "check.respond" || Name == "acd.reply" ||
        Name == "frame.encode" || Name == "frame.write")
      ParentOf[Name] = Args.get("parent").asString();
  }
  ASSERT_FALSE(RootSpan.empty()) << "no acd.request span: " << SS.str();
  for (const char *Child : {"acd.queue_wait", "ac.run", "check.respond",
                            "acd.reply", "frame.encode", "frame.write"})
    EXPECT_EQ(ParentOf[Child], RootSpan) << Child;
}

TEST_F(ServiceTest, MetricsRequestServesPrometheusText) {
  Server Srv(baseOpts());
  ASSERT_TRUE(Srv.start());
  Client C = Client::connect(SockPath);
  ASSERT_TRUE(C.connected());

  // One served request so the counters are warm.
  CheckRequest Req;
  Req.Source = corpus::maxSource();
  CheckResponse Resp;
  std::string Err;
  ASSERT_TRUE(C.check(Req, Resp, Err)) << Err;

  std::string Body;
  ASSERT_TRUE(C.metricsText(Body, Err)) << Err;
  // Exposition-format lint: every non-comment line is `name{labels} value`,
  // every metric has # HELP and # TYPE headers before its samples.
  std::set<std::string> Typed;
  std::istringstream Lines(Body);
  std::string Line;
  while (std::getline(Lines, Line)) {
    if (Line.empty())
      continue;
    if (Line.rfind("# TYPE ", 0) == 0) {
      std::istringstream T(Line.substr(7));
      std::string Name, Kind;
      T >> Name >> Kind;
      EXPECT_TRUE(Kind == "counter" || Kind == "gauge" ||
                  Kind == "summary" || Kind == "histogram")
          << Line;
      Typed.insert(Name);
      continue;
    }
    if (Line.rfind("# HELP ", 0) == 0 || Line.rfind("#", 0) == 0)
      continue;
    // An exemplar rides after ` # ` on histogram bucket lines; lint the
    // sample half.
    std::string Sample = Line.substr(0, Line.find(" # "));
    size_t Sp = Sample.rfind(' ');
    ASSERT_NE(Sp, std::string::npos) << Line;
    std::string Name = Sample.substr(0, Sample.find_first_of("{ "));
    // Summary/histogram _sum/_count/_bucket samples belong to the base
    // metric's TYPE.
    for (const char *Suffix : {"_sum", "_count", "_bucket"}) {
      size_t L = Name.size(), SL = strlen(Suffix);
      if (L > SL && Name.compare(L - SL, SL, Suffix) == 0 &&
          Typed.count(Name.substr(0, L - SL)))
        Name = Name.substr(0, L - SL);
    }
    EXPECT_TRUE(Typed.count(Name)) << "sample without TYPE: " << Line;
    EXPECT_NO_THROW((void)std::stod(Sample.substr(Sp + 1))) << Line;
  }
  EXPECT_TRUE(Typed.count("acd_requests_received_total"));
  EXPECT_TRUE(Typed.count("acd_in_flight_peak"));
  EXPECT_TRUE(Typed.count("acd_phase_parse_cpu_seconds_total"));
  EXPECT_TRUE(Typed.count("acd_latency_total_seconds"));
  // True Prometheus histograms: cumulative buckets up to +Inf, with a
  // trace-id exemplar attached to the bucket the request landed in.
  EXPECT_TRUE(Typed.count("acd_request_duration_seconds"));
  EXPECT_TRUE(Typed.count("acd_queue_wait_seconds"));
  EXPECT_NE(Body.find("acd_request_duration_seconds_bucket{le=\"+Inf\"} 1"),
            std::string::npos)
      << Body;
  EXPECT_NE(Body.find(" # {trace_id=\""), std::string::npos)
      << "no exemplar in:\n"
      << Body;
  EXPECT_NE(Body.find("acd_requests_completed_total 1"), std::string::npos)
      << Body;
  // The CPU counters are fed from the run's thread-CPU clocks: one
  // completed request leaves both strictly positive.
  auto SampleValue = [&Body](const std::string &Name) {
    size_t At = Body.find("\n" + Name + " ");
    EXPECT_NE(At, std::string::npos) << Name;
    if (At == std::string::npos)
      return 0.0;
    return std::stod(Body.substr(At + Name.size() + 2));
  };
  EXPECT_GT(SampleValue("acd_phase_parse_cpu_seconds_total"), 0.0);
  EXPECT_GT(SampleValue("acd_phase_abstract_cpu_seconds_total"), 0.0);
  Srv.stop();
}

TEST_F(ServiceTest, TracePullDrainsLiveSpansExactlyOnce) {
  support::Trace::reset();
  ServerOptions O = baseOpts();
  O.TraceLive = true;
  Server Srv(O);
  ASSERT_TRUE(Srv.start());
  Client C = Client::connect(SockPath);
  ASSERT_TRUE(C.connected());
  CheckRequest Req;
  Req.Source = corpus::swapSource();
  Req.TraceId = "fleet-pull-1";
  Req.ParentSpan = "424242"; // the router's forward span, on the wire
  CheckResponse Resp;
  std::string Err;
  ASSERT_TRUE(C.check(Req, Resp, Err)) << Err;
  ASSERT_TRUE(Resp.Ok);

  Json Pull;
  ASSERT_TRUE(C.tracePull(Pull, Err)) << Err;
  EXPECT_EQ(Pull.get("role").asString(), "shard");
  EXPECT_GT(Pull.get("pid").asInt(), 0);
  Json Frag;
  ASSERT_TRUE(Json::parse(Pull.get("body").asString(), Frag, Err)) << Err;
  ASSERT_TRUE(Frag.get("traceEvents").isArray());
  // The request span carries the wire trace context: our trace id, the
  // remote parent, and a queue-wait child chained under it.
  bool SawReq = false, SawWait = false;
  for (const Json &E : Frag.get("traceEvents").items()) {
    const Json &Args = E.get("args");
    if (Args.get("trace_id").asString() != "fleet-pull-1")
      continue;
    if (E.get("name").asString() == "acd.request") {
      SawReq = true;
      EXPECT_EQ(Args.get("parent").asString(), "424242");
    }
    if (E.get("name").asString() == "acd.queue_wait") {
      SawWait = true;
      EXPECT_FALSE(Args.get("parent").asString().empty());
    }
  }
  EXPECT_TRUE(SawReq) << Pull.get("body").asString();
  EXPECT_TRUE(SawWait);
  // The pull drained the buffers: a second pull has no events for the
  // request (exactly-once fragment semantics).
  Json Again;
  ASSERT_TRUE(C.tracePull(Again, Err)) << Err;
  EXPECT_EQ(Again.get("body").asString().find("fleet-pull-1"),
            std::string::npos);
  Srv.stop();
  support::Trace::stop();
  support::Trace::reset();
}

TEST_F(ServiceTest, StatsCarryRecentRequestRing) {
  Server Srv(baseOpts());
  ASSERT_TRUE(Srv.start());
  Client C = Client::connect(SockPath);
  ASSERT_TRUE(C.connected());
  CheckRequest Req;
  Req.Source = corpus::swapSource();
  Req.TraceId = "recent-ring-1";
  Req.Tenant = "obs-tenant";
  CheckResponse Resp;
  std::string Err;
  ASSERT_TRUE(C.check(Req, Resp, Err)) << Err;
  ASSERT_TRUE(Resp.Ok);

  Json Stats;
  ASSERT_TRUE(C.stats(Stats, Err)) << Err;
  ASSERT_TRUE(Stats.get("recent").isArray());
  bool Found = false;
  for (const Json &R : Stats.get("recent").items())
    if (R.get("trace_id").asString() == "recent-ring-1") {
      Found = true;
      EXPECT_GT(R.get("total_ms").asNumber(), 0.0);
      EXPECT_EQ(R.get("tenant").asString(), "obs-tenant");
      EXPECT_TRUE(R.get("ok").asBool());
      EXPECT_GE(R.get("age_s").asNumber(), 0.0);
    }
  EXPECT_TRUE(Found) << Stats.dump();
  Srv.stop();
}

TEST_F(ServiceTest, FailedRequestsEmitStructuredLogLines) {
  std::string LogPath = Root + "/acd.jsonl";
  ASSERT_TRUE(support::Log::setFile(LogPath));
  support::Log::setLevel(support::LogLevel::Info);

  Server Srv(baseOpts());
  ASSERT_TRUE(Srv.start());
  Client C = Client::connect(SockPath);
  ASSERT_TRUE(C.connected());
  CheckRequest Req;
  Req.Source = "this is not C;";
  Req.TraceId = "log-test-1";
  CheckResponse Resp;
  std::string Err;
  ASSERT_TRUE(C.check(Req, Resp, Err)) << Err;
  EXPECT_FALSE(Resp.Ok);
  Srv.stop();
  support::Log::setFile(""); // back to stderr before asserting

  // Every line is one JSON object; among them are the received and
  // failed events for our trace id, in that order.
  std::ifstream In(LogPath);
  ASSERT_TRUE(In.good());
  std::string Line;
  int ReceivedAt = -1, FailedAt = -1, N = 0;
  while (std::getline(In, Line)) {
    if (Line.empty())
      continue;
    Json J;
    ASSERT_TRUE(Json::parse(Line, J, Err)) << Line << ": " << Err;
    EXPECT_TRUE(J.get("ts").isNumber()) << Line;
    EXPECT_TRUE(J.get("level").isString()) << Line;
    EXPECT_TRUE(J.get("event").isString()) << Line;
    if (J.get("trace_id").asString() == "log-test-1") {
      if (J.get("event").asString() == "request.received")
        ReceivedAt = N;
      if (J.get("event").asString() == "request.failed") {
        FailedAt = N;
        EXPECT_EQ(J.get("level").asString(), "error") << Line;
        EXPECT_EQ(J.get("error").asString(), "parse_error") << Line;
      }
    }
    ++N;
  }
  EXPECT_GE(ReceivedAt, 0) << "no request.received line for log-test-1";
  EXPECT_GT(FailedAt, ReceivedAt) << "no request.failed line after receive";
}

//===----------------------------------------------------------------------===//
// Overload: priority classes, staleness shedding, the tenant ledger
//===----------------------------------------------------------------------===//

TEST_F(ServiceTest, StaleBulkIsShedInteractiveIsNot) {
  ServerOptions O = baseOpts();
  O.ShedMinSamples = 1; // one completed request is enough history
  Server Srv(O);
  ASSERT_TRUE(Srv.start());
  Client C = Client::connect(SockPath);
  ASSERT_TRUE(C.connected());

  // Teach the p99 estimator that requests take ~80 ms here.
  CheckRequest Warm;
  Warm.Source = "unsigned int w(unsigned int x) { return x; }\n";
  Warm.DebugDelayMs = 80;
  CheckResponse Resp;
  std::string Err;
  ASSERT_TRUE(C.check(Warm, Resp, Err)) << Err;
  ASSERT_TRUE(Resp.Ok) << Resp.Message;

  // A bulk request whose whole deadline is below that p99 would only
  // expire in queue: it is refused up front, with no retry hint.
  CheckRequest Stale = Warm;
  Stale.DebugDelayMs = 0;
  Stale.Prio = Priority::Bulk;
  Stale.TimeoutMs = 10;
  Stale.Tenant = "batch";
  ASSERT_TRUE(C.check(Stale, Resp, Err)) << Err;
  EXPECT_FALSE(Resp.Ok);
  EXPECT_EQ(Resp.Err, ErrorCode::Shed);
  EXPECT_EQ(Resp.RetryAfterMs, 0u);

  // The same hopeless deadline on interactive work is still admitted
  // (and may well run to deadline_exceeded — that is the client's
  // call): staleness shedding only ever touches bulk.
  CheckRequest Urgent = Stale;
  Urgent.Prio = Priority::Interactive;
  ASSERT_TRUE(C.check(Urgent, Resp, Err)) << Err;
  EXPECT_NE(Resp.Err, ErrorCode::Shed);

  // Ample-deadline bulk is admitted normally.
  CheckRequest Fine = Stale;
  Fine.TimeoutMs = 60000;
  ASSERT_TRUE(C.check(Fine, Resp, Err)) << Err;
  EXPECT_TRUE(Resp.Ok) << Resp.Message;
  EXPECT_EQ(Srv.metrics().Shed.load(), 1u);
  EXPECT_EQ(Srv.metrics().Received.load(), 3u)
      << "shed requests never count as received";

  // The tenant's ledger saw the shed and both admissions; the
  // anonymous warm-up request is not tracked.
  auto Snap = Srv.metrics().snapshot(0, 0, 0, 1, 0, false);
  ASSERT_EQ(Snap.Tenants.size(), 1u);
  EXPECT_EQ(Snap.Tenants[0].Name, "batch");
  EXPECT_EQ(Snap.Tenants[0].Admitted, 2u);
  EXPECT_EQ(Snap.Tenants[0].Shed, 1u);
  Srv.stop();
}

/// Bumps one `<digits>u` literal of \p Src, picked by \p Rng, by one.
static void bumpOneLiteral(std::string &Src, std::mt19937 &Rng) {
  auto IdentChar = [](char C) {
    return std::isalnum(static_cast<unsigned char>(C)) || C == '_';
  };
  std::vector<std::pair<size_t, size_t>> Lits; // start, digit count
  for (size_t I = 0; I < Src.size(); ++I) {
    if (!std::isdigit(static_cast<unsigned char>(Src[I])) ||
        (I && IdentChar(Src[I - 1])))
      continue;
    size_t J = I;
    while (J < Src.size() && std::isdigit(static_cast<unsigned char>(Src[J])))
      ++J;
    if (J < Src.size() && Src[J] == 'u' &&
        (J + 1 == Src.size() || !IdentChar(Src[J + 1])))
      Lits.push_back({I, J - I});
    I = J;
  }
  ASSERT_FALSE(Lits.empty());
  auto [Pos, Len] = Lits[Rng() % Lits.size()];
  Src.replace(Pos, Len, std::to_string(std::stoull(Src.substr(Pos, Len)) + 1));
}

/// A check's terms die with it: a primed daemon re-checking a 40-function
/// unit after each of ten seeded one-literal edits leaves the interned
/// term count the test thread reads where it was, and its last answer is
/// an in-process run's.
TEST_F(ServiceTest, EditChecksLeaveTheInternStoreFlat) {
  ServerOptions O = baseOpts();
  O.Jobs = 1;
  Server Srv(O);
  ASSERT_TRUE(Srv.start());
  Client C = Client::connect(SockPath);
  ASSERT_TRUE(C.connected());
  CheckRequest Req;
  Req.Source = corpus::generateSyntheticProgram(corpus::echronosScale());
  CheckResponse Resp;
  std::string Err;
  ASSERT_TRUE(C.check(Req, Resp, Err)) << Err;
  ASSERT_TRUE(Resp.Ok) << Resp.Message;

  const size_t Before = hol::internedTermCount();
  std::mt19937 Rng(7);
  for (int Edit = 0; Edit != 10; ++Edit) {
    bumpOneLiteral(Req.Source, Rng);
    Resp = CheckResponse();
    ASSERT_TRUE(C.check(Req, Resp, Err)) << Err;
    ASSERT_TRUE(Resp.Ok) << Resp.Message;
  }
  EXPECT_EQ(hol::internedTermCount(), Before)
      << "edit checks left term nodes in the base store";
  EXPECT_GT(Resp.CacheHits, 0u) << "the edits were not warm checks";

  CheckResponse Local = runLocalCheck(Req);
  ASSERT_TRUE(Local.Ok) << Local.Message;
  ASSERT_EQ(Resp.Functions.size(), Local.Functions.size());
  for (size_t I = 0; I != Local.Functions.size(); ++I) {
    const FuncResult &A = Resp.Functions[I], &B = Local.Functions[I];
    EXPECT_EQ(A.Name, B.Name);
    EXPECT_EQ(A.FinalKey, B.FinalKey) << A.Name;
    EXPECT_EQ(A.Render, B.Render) << A.Name;
    EXPECT_EQ(A.Pipeline, B.Pipeline) << A.Name;
  }
  EXPECT_EQ(Resp.Diagnostics, Local.Diagnostics);
  Srv.stop();
}
