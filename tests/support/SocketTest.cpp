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
/// never challenged (filesystem permissions are their auth).
///
//===----------------------------------------------------------------------===//

#include "service/Protocol.h"
#include "service/Server.h"
#include "service/Client.h"
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
// The auth handshake against a live daemon
//===----------------------------------------------------------------------===//

/// A TCP-only daemon requiring `Token`, plus a raw frame round-tripper.
struct AuthFixture {
  service::ServerOptions Opts;
  service::Server Srv;

  explicit AuthFixture(const std::string &Token, const std::string &Unix = "")
      : Opts([&] {
          service::ServerOptions O;
          O.SocketPath = Unix;
          O.ListenAddr = "127.0.0.1:0";
          O.AuthToken = Token;
          O.Workers = 1;
          return O;
        }()),
        Srv(Opts) {
    EXPECT_TRUE(Srv.start());
  }

  ~AuthFixture() { Srv.stop(); }

  Socket dial() { return Socket::connectTcp("127.0.0.1", Srv.tcpPort()); }

  static bool roundTrip(Socket &S, const Json &Req, Json &Resp) {
    if (!S.sendFrame(Req.dump()))
      return false;
    std::string Raw, Err;
    if (!S.recvFrame(Raw))
      return false;
    return Json::parse(Raw, Resp, Err);
  }

  static Json op(const std::string &Op) {
    Json J = Json::object();
    J.set("v", static_cast<int64_t>(service::ProtocolVersion));
    J.set("op", Op);
    return J;
  }
};

TEST(TcpAuth, WrongTokenGetsTypedErrorAndClose) {
  AuthFixture F("right-token");
  Socket S = F.dial();
  ASSERT_TRUE(S.valid());
  Json Req = AuthFixture::op("auth");
  Req.set("token", "wrong-token");
  Json Resp;
  ASSERT_TRUE(AuthFixture::roundTrip(S, Req, Resp));
  EXPECT_FALSE(Resp.get("ok").asBool());
  EXPECT_EQ(Resp.get("error").asString(), "auth_failed");
  // The daemon hangs up after a failed handshake: either the next send
  // bounces off the closed socket or its reply never comes.
  bool Sent = S.sendFrame(AuthFixture::op("ping").dump());
  std::string Raw;
  EXPECT_FALSE(Sent && S.recvFrame(Raw));
}

TEST(TcpAuth, MissingAuthGetsTypedErrorAndClose) {
  AuthFixture F("right-token");
  Socket S = F.dial();
  ASSERT_TRUE(S.valid());
  Json Resp;
  ASSERT_TRUE(AuthFixture::roundTrip(S, AuthFixture::op("ping"), Resp));
  EXPECT_FALSE(Resp.get("ok").asBool());
  EXPECT_EQ(Resp.get("error").asString(), "auth_failed");
  bool Sent = S.sendFrame(AuthFixture::op("ping").dump());
  std::string Raw;
  EXPECT_FALSE(Sent && S.recvFrame(Raw));
}

TEST(TcpAuth, RightTokenUnlocksTheConnection) {
  AuthFixture F("right-token");
  Socket S = F.dial();
  ASSERT_TRUE(S.valid());
  Json Req = AuthFixture::op("auth");
  Req.set("token", "right-token");
  Json Resp;
  ASSERT_TRUE(AuthFixture::roundTrip(S, Req, Resp));
  EXPECT_TRUE(Resp.get("ok").asBool());
  ASSERT_TRUE(AuthFixture::roundTrip(S, AuthFixture::op("ping"), Resp));
  EXPECT_TRUE(Resp.get("ok").asBool());
  EXPECT_EQ(Resp.get("op").asString(), "pong");
}

TEST(TcpAuth, ClientHelperSurfacesAuthFailure) {
  AuthFixture F("right-token");
  std::string Err;
  std::string Addr = "127.0.0.1:" + std::to_string(F.Srv.tcpPort());
  service::Client Bad = service::Client::connectTcp(Addr, "wrong", Err);
  EXPECT_FALSE(Bad.connected());
  EXPECT_NE(Err.find("auth_failed"), std::string::npos) << Err;

  service::Client Good = service::Client::connectTcp(Addr, "right-token", Err);
  ASSERT_TRUE(Good.connected()) << Err;
  EXPECT_TRUE(Good.ping(Err)) << Err;
}

TEST(TcpAuth, UnixListenerIsNeverChallenged) {
  // Same daemon, both listeners: TCP requires the token, the Unix socket
  // answers without any handshake (filesystem permissions are its auth).
  std::string Dir = freshDir("unix-open");
  AuthFixture F("right-token", Dir + "/acd.sock");
  service::Client C = service::Client::connect(Dir + "/acd.sock");
  ASSERT_TRUE(C.connected());
  std::string Err;
  EXPECT_TRUE(C.ping(Err)) << Err;
}

TEST(TcpAuth, OpenListenerSkipsHandshake) {
  // No token configured: TCP connections work without auth frames.
  AuthFixture F("");
  std::string Err;
  std::string Addr = "127.0.0.1:" + std::to_string(F.Srv.tcpPort());
  service::Client C = service::Client::connectTcp(Addr, "", Err);
  ASSERT_TRUE(C.connected()) << Err;
  EXPECT_TRUE(C.ping(Err)) << Err;
}

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
