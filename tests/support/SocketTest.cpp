//===- SocketTest.cpp - TCP transport and auth handshake ------------------===//
//
// Part of the autocorres-cpp project, under the BSD 2-Clause License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The fleet transport contract (docs/PROTOCOL.md): the length-prefixed
/// frame layer must behave identically over TCP and Unix sockets —
/// partial reads, EINTR, and oversized frames included — and the TCP
/// auth handshake must answer a typed `auth_failed` and close the
/// connection for a wrong or missing token, while Unix connections are
/// never challenged (filesystem permissions are their auth). acd,
/// acrouter and accached share one FrameServer, so the handshake, the
/// frame errors and the shared ops are checked on each of them, byte for
/// byte.
///
//===----------------------------------------------------------------------===//

#include "cache/RemoteCache.h"
#include "router/Router.h"
#include "service/Client.h"
#include "service/Protocol.h"
#include "service/Server.h"
#include "support/FaultInject.h"
#include "support/Json.h"
#include "support/Socket.h"

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <string>
#include <sys/socket.h>
#include <thread>
#include <unistd.h>

using namespace ac;
using support::FaultInject;
using support::Json;
using support::Socket;

namespace {

std::string freshDir(const std::string &Tag) {
  // Pid-unique root: concurrent invocations of this binary must not
  // race each other's remove_all.
  std::string D = ::testing::TempDir() + "ac-socket-" +
                  std::to_string(::getpid()) + "/" + Tag;
  std::error_code EC;
  std::filesystem::remove_all(D, EC);
  std::filesystem::create_directories(D);
  return D;
}

/// A loopback TCP listener plus a connected pair through it.
struct TcpPair {
  Socket Listener, Client, Server;

  TcpPair() {
    Listener = Socket::listenTcp("127.0.0.1", 0);
    EXPECT_TRUE(Listener.valid());
    Client = Socket::connectTcp("127.0.0.1", Listener.boundPort());
    EXPECT_TRUE(Client.valid());
    EXPECT_TRUE(Listener.waitReadable(2000));
    Server = Listener.accept();
    EXPECT_TRUE(Server.valid());
  }
};

class SocketTcp : public ::testing::Test {
protected:
  void SetUp() override { FaultInject::disarmAll(); }
  void TearDown() override { FaultInject::disarmAll(); }
};

TEST_F(SocketTcp, FramesRoundTripOverLoopback) {
  TcpPair P;
  ASSERT_TRUE(P.Client.sendFrame("hello fleet"));
  std::string Got;
  ASSERT_TRUE(P.Server.recvFrame(Got));
  EXPECT_EQ(Got, "hello fleet");
  // Both directions, including an empty and a binary payload.
  ASSERT_TRUE(P.Server.sendFrame(""));
  ASSERT_TRUE(P.Client.recvFrame(Got));
  EXPECT_EQ(Got, "");
  std::string Binary("\x00\xff\n\x01", 4);
  ASSERT_TRUE(P.Server.sendFrame(Binary));
  ASSERT_TRUE(P.Client.recvFrame(Got));
  EXPECT_EQ(Got, Binary);
}

TEST_F(SocketTcp, LargeFrameSurvivesKernelChunking) {
  // 8 MiB forces many partial send/recv cycles through loopback buffers.
  TcpPair P;
  std::string Big(8u << 20, 'x');
  for (size_t I = 0; I != Big.size(); I += 4096)
    Big[I] = static_cast<char>('a' + (I / 4096) % 26);
  std::thread Writer([&] { EXPECT_TRUE(P.Client.sendFrame(Big)); });
  std::string Got;
  ASSERT_TRUE(P.Server.recvFrame(Got));
  Writer.join();
  EXPECT_EQ(Got, Big);
}

TEST_F(SocketTcp, PartialReadsAndEintrAreTransparent) {
  // The same fault sites that harden the Unix path fire on TCP reads:
  // framing must resume after short reads and retry after EINTR.
  TcpPair P;
  ASSERT_TRUE(P.Client.sendFrame("tcp short-read payload"));
  ASSERT_TRUE(FaultInject::arm("socket.read.short", 1, /*Count=*/3));
  std::string Got;
  ASSERT_TRUE(P.Server.recvFrame(Got));
  EXPECT_EQ(Got, "tcp short-read payload");
  EXPECT_EQ(FaultInject::fired("socket.read.short"), 3u);
  FaultInject::disarmAll();

  ASSERT_TRUE(P.Client.sendFrame("tcp interrupted"));
  ASSERT_TRUE(FaultInject::arm("socket.read.eintr", 1));
  ASSERT_TRUE(P.Server.recvFrame(Got));
  EXPECT_EQ(Got, "tcp interrupted");
  EXPECT_EQ(FaultInject::fired("socket.read.eintr"), 1u);
  FaultInject::disarmAll();

  ASSERT_TRUE(FaultInject::arm("socket.write.short", 1, /*Count=*/2));
  ASSERT_TRUE(P.Server.sendFrame("tcp short-write payload"));
  EXPECT_EQ(FaultInject::fired("socket.write.short"), 2u);
  ASSERT_TRUE(P.Client.recvFrame(Got));
  EXPECT_EQ(Got, "tcp short-write payload");
}

TEST_F(SocketTcp, OversizedFrameHeaderIsRejected) {
  // A peer announcing a frame beyond MaxFrameBytes must be refused
  // before any allocation of that size — write the raw header by hand.
  TcpPair P;
  uint32_t Huge = htonl(static_cast<uint32_t>(Socket::MaxFrameBytes) + 1);
  ASSERT_EQ(::send(P.Client.fd(), &Huge, sizeof(Huge), 0),
            static_cast<ssize_t>(sizeof(Huge)));
  std::string Got;
  EXPECT_FALSE(P.Server.recvFrame(Got));
}

TEST_F(SocketTcp, OversizedSendIsRefusedLocally) {
  TcpPair P;
  std::string TooBig(Socket::MaxFrameBytes + 1, 'x');
  EXPECT_FALSE(P.Client.sendFrame(TooBig));
  // The refusal wrote nothing: the stream still frames cleanly.
  ASSERT_TRUE(P.Client.sendFrame("still clean"));
  std::string Got;
  ASSERT_TRUE(P.Server.recvFrame(Got));
  EXPECT_EQ(Got, "still clean");
}

TEST_F(SocketTcp, BothEndsDisableNagle) {
  // Without TCP_NODELAY on the accepted end, a daemon's reply waits for
  // the client's delayed ACK: ~44 ms per round trip over loopback.
  TcpPair P;
  for (const Socket *S : {&P.Client, &P.Server}) {
    int On = 0;
    socklen_t Len = sizeof(On);
    ASSERT_EQ(::getsockopt(S->fd(), IPPROTO_TCP, TCP_NODELAY, &On, &Len), 0);
    EXPECT_NE(On, 0) << (S == &P.Client ? "connected" : "accepted")
                     << " end has Nagle's algorithm on";
  }
}

TEST_F(SocketTcp, ConnectToClosedPortFails) {
  uint16_t DeadPort = 0;
  {
    Socket L = Socket::listenTcp("127.0.0.1", 0);
    ASSERT_TRUE(L.valid());
    DeadPort = L.boundPort();
  } // closed: nothing listens there now
  EXPECT_FALSE(Socket::connectTcp("127.0.0.1", DeadPort).valid());
}

TEST(ParseHostPort, AcceptsAndRejects) {
  std::string H;
  uint16_t P = 0;
  EXPECT_TRUE(support::parseHostPort("127.0.0.1:8080", H, P));
  EXPECT_EQ(H, "127.0.0.1");
  EXPECT_EQ(P, 8080);
  EXPECT_TRUE(support::parseHostPort("localhost:65535", H, P));
  EXPECT_EQ(P, 65535);
  // Port 0 means "pick for me" — only listeners may ask for that.
  EXPECT_FALSE(support::parseHostPort("127.0.0.1:0", H, P));
  EXPECT_TRUE(
      support::parseHostPort("127.0.0.1:0", H, P, /*AllowPortZero=*/true));
  EXPECT_FALSE(support::parseHostPort("no-port-here", H, P));
  EXPECT_FALSE(support::parseHostPort(":80", H, P));
  EXPECT_FALSE(support::parseHostPort("host:", H, P));
  EXPECT_FALSE(support::parseHostPort("host:abc", H, P));
  EXPECT_FALSE(support::parseHostPort("host:65536", H, P));
  EXPECT_FALSE(support::parseHostPort("", H, P));
}

TEST(ConstantTimeEqual, Compares) {
  using service::constantTimeEqual;
  EXPECT_TRUE(constantTimeEqual("", ""));
  EXPECT_TRUE(constantTimeEqual("secret", "secret"));
  EXPECT_FALSE(constantTimeEqual("secret", "secreT"));
  EXPECT_FALSE(constantTimeEqual("secret", "secret2"));
  EXPECT_FALSE(constantTimeEqual("secret", ""));
  EXPECT_FALSE(constantTimeEqual("", "secret"));
}

//===----------------------------------------------------------------------===//
// The auth handshake and frame errors against every live daemon
//===----------------------------------------------------------------------===//

/// What a test needs of a daemon, whichever of the three it is.
struct AnyDaemon {
  virtual ~AnyDaemon() = default;
  virtual bool start() = 0;
  virtual void stop() = 0;
  virtual uint16_t tcpPort() const = 0;
};

template <typename DaemonT> struct Boxed : AnyDaemon {
  DaemonT Impl;
  template <typename OptsT> explicit Boxed(OptsT O) : Impl(std::move(O)) {}
  bool start() override { return Impl.start(); }
  void stop() override { Impl.stop(); }
  uint16_t tcpPort() const override { return Impl.tcpPort(); }
};

/// The daemon named \p Kind ("acd", "acrouter" or "accached") on the
/// listeners \p L describes.
std::unique_ptr<AnyDaemon> makeDaemon(const std::string &Kind,
                                      const service::ListenOptions &L) {
  if (Kind == "acd") {
    service::ServerOptions O;
    static_cast<service::ListenOptions &>(O) = L;
    O.Workers = 1;
    return std::make_unique<Boxed<service::Server>>(O);
  }
  if (Kind == "acrouter") {
    router::RouterOptions O;
    static_cast<service::ListenOptions &>(O) = L;
    O.Shards = {"127.0.0.1:1"}; // never dialed: no check is sent
    O.HealthProbeMs = 60000;
    return std::make_unique<Boxed<router::Router>>(O);
  }
  cache::RemoteCacheServerOptions O;
  static_cast<service::ListenOptions &>(O) = L;
  return std::make_unique<Boxed<cache::RemoteCacheServer>>(O);
}

/// Replies every daemon must send, pinned byte for byte.
const char *const AuthMismatch =
    R"({"ok":false,"error":"auth_failed","message":"auth token mismatch"})";
const char *const AuthRequired = R"({"ok":false,"error":"auth_failed",)"
                                 R"("message":"auth required before `ping`"})";
const char *const AuthOk = R"({"ok":true,"op":"auth"})";
const char *const Malformed = R"({"ok":false,"error":"bad_request",)"
                              R"("message":"malformed JSON: expected '\"'"})";
const char *const Pong = R"({"ok":true,"op":"pong"})";

/// Sends \p Frame raw and returns the raw reply ("" when the connection
/// closed instead).
std::string replyTo(Socket &S, const std::string &Frame) {
  std::string Raw;
  if (!S.sendFrame(Frame) || !S.recvFrame(Raw))
    return "";
  return Raw;
}

/// A daemon (the test parameter) on a TCP listener requiring `Token`,
/// plus an optional Unix listener.
class TcpAuth : public ::testing::TestWithParam<const char *> {
protected:
  void boot(const std::string &Token, const std::string &Unix = "") {
    service::ListenOptions L;
    L.SocketPath = Unix;
    L.ListenAddr = "127.0.0.1:0";
    L.AuthToken = Token;
    D = makeDaemon(GetParam(), L);
    ASSERT_TRUE(D->start());
  }
  void TearDown() override {
    if (D)
      D->stop();
  }

  Socket dial() { return Socket::connectTcp("127.0.0.1", D->tcpPort()); }
  std::string addr() { return "127.0.0.1:" + std::to_string(D->tcpPort()); }

  std::unique_ptr<AnyDaemon> D;
};

/// The daemon hangs up after a failed handshake: either the next send
/// bounces off the closed socket or its reply never comes.
void expectClosed(Socket &S) {
  EXPECT_EQ(replyTo(S, R"({"v":1,"op":"ping"})"), "");
}

TEST_P(TcpAuth, WrongTokenGetsTypedErrorAndClose) {
  boot("right-token");
  Socket S = dial();
  ASSERT_TRUE(S.valid());
  EXPECT_EQ(replyTo(S, R"({"v":1,"op":"auth","token":"wrong-token"})"),
            AuthMismatch);
  expectClosed(S);
}

TEST_P(TcpAuth, MissingAuthGetsTypedErrorAndClose) {
  boot("right-token");
  Socket S = dial();
  ASSERT_TRUE(S.valid());
  EXPECT_EQ(replyTo(S, R"({"v":1,"op":"ping"})"), AuthRequired);
  expectClosed(S);
}

TEST_P(TcpAuth, RightTokenUnlocksTheConnection) {
  boot("right-token");
  Socket S = dial();
  ASSERT_TRUE(S.valid());
  EXPECT_EQ(replyTo(S, R"({"v":1,"op":"auth","token":"right-token"})"),
            AuthOk);
  EXPECT_EQ(replyTo(S, R"({"v":1,"op":"ping"})"), Pong);
}

TEST_P(TcpAuth, ClientHelperSurfacesAuthFailure) {
  boot("right-token");
  std::string Err;
  service::Client Bad = service::Client::connectTcp(addr(), "wrong", Err);
  EXPECT_FALSE(Bad.connected());
  EXPECT_NE(Err.find("auth_failed"), std::string::npos) << Err;

  service::Client Good =
      service::Client::connectTcp(addr(), "right-token", Err);
  ASSERT_TRUE(Good.connected()) << Err;
  EXPECT_TRUE(Good.ping(Err)) << Err;
}

TEST_P(TcpAuth, UnixListenerIsNeverChallenged) {
  // Same daemon, both listeners: TCP requires the token, the Unix socket
  // answers without any handshake (filesystem permissions are its auth).
  std::string Sock =
      freshDir(std::string("unix-open-") + GetParam()) + "/d.sock";
  boot("right-token", Sock);
  service::Client C = service::Client::connect(Sock);
  ASSERT_TRUE(C.connected());
  std::string Err;
  EXPECT_TRUE(C.ping(Err)) << Err;
}

TEST_P(TcpAuth, OpenListenerSkipsHandshake) {
  // No token configured: TCP connections work without auth frames.
  boot("");
  std::string Err;
  service::Client C = service::Client::connectTcp(addr(), "", Err);
  ASSERT_TRUE(C.connected()) << Err;
  EXPECT_TRUE(C.ping(Err)) << Err;
}

TEST_P(TcpAuth, FrameErrorsAndSharedOpsAnswerPinnedBytes) {
  // One script, one pinned reply per frame, the same on every daemon.
  boot("right-token");
  Socket S = dial();
  ASSERT_TRUE(S.valid());
  EXPECT_EQ(replyTo(S, R"({"v":1,"op":"auth","token":"right-token"})"),
            AuthOk);
  const std::pair<const char *, const char *> Script[] = {
      {"{not json", Malformed},
      {R"({"v":2,"op":"ping"})",
       R"({"ok":false,"error":"bad_request",)"
       R"("message":"unsupported protocol version"})"},
      {R"({"v":1,"op":"frobnicate"})",
       R"({"ok":false,"error":"bad_request",)"
       R"("message":"unknown op `frobnicate`"})"},
      {R"({"v":1,"op":"ping"})", Pong},
      {R"({"v":1,"op":"drain"})", R"({"ok":true,"draining":true})"},
  };
  for (const auto &[Frame, Reply] : Script)
    EXPECT_EQ(replyTo(S, Frame), Reply) << "frame: " << Frame;
}

TEST_P(TcpAuth, GarbageFirstFrameOnAuthListenerCloses) {
  // Unauthenticated peers get exactly one frame, even a malformed one.
  boot("right-token");
  Socket S = dial();
  ASSERT_TRUE(S.valid());
  EXPECT_EQ(replyTo(S, "{x"), Malformed);
  expectClosed(S);
}

TEST_P(TcpAuth, FailedStartLeavesNoSocketFile) {
  // The Unix listener binds, the TCP address is unusable: start() fails
  // and must not leave the socket file behind.
  std::string Sock =
      freshDir(std::string("failed-start-") + GetParam()) + "/d.sock";
  service::ListenOptions L;
  L.SocketPath = Sock;
  L.ListenAddr = "bogus";
  std::unique_ptr<AnyDaemon> Failed = makeDaemon(GetParam(), L);
  EXPECT_FALSE(Failed->start());
  EXPECT_FALSE(std::filesystem::exists(Sock));
}

INSTANTIATE_TEST_SUITE_P(EveryDaemon, TcpAuth,
                         ::testing::Values("acd", "acrouter", "accached"),
                         [](const ::testing::TestParamInfo<const char *> &I) {
                           return std::string(I.param);
                         });

TEST(ReadTokenFile, FirstLineStripped) {
  std::string Dir = freshDir("token");
  std::string Tok;
  EXPECT_FALSE(service::readTokenFile(Dir + "/missing", Tok));
  {
    std::ofstream Out(Dir + "/tok");
    Out << "  seekrit \n# trailing junk ignored\n";
  }
  ASSERT_TRUE(service::readTokenFile(Dir + "/tok", Tok));
  EXPECT_EQ(Tok, "  seekrit ") << "only line endings are stripped; the "
                                  "token's own bytes are preserved";
  {
    std::ofstream Out(Dir + "/empty");
    Out << "\n";
  }
  EXPECT_FALSE(service::readTokenFile(Dir + "/empty", Tok))
      << "an empty token would silently disable auth";
}

} // namespace
