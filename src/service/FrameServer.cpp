//===- FrameServer.cpp ----------------------------------------------------===//

#include "service/FrameServer.h"

#include "service/Protocol.h"
#include "support/Log.h"
#include "support/Trace.h"

#include <algorithm>
#include <sys/socket.h>
#include <unistd.h>

using namespace ac::service;
using ac::support::Json;
using ac::support::Socket;

bool FrameConn::send(const Json &J) {
  std::string Frame;
  {
    AC_SPAN("frame.encode");
    Frame = J.dump();
  }
  AC_SPAN("frame.write");
  std::lock_guard<std::mutex> L(WriteM);
  return Sock.sendFrame(Frame);
}

FrameServer::FrameServer(const ListenOptions &O, const char *D,
                         const char *Role)
    : Opts(O), Daemon(D), TraceRole(Role) {}

bool FrameServer::start() {
  if (Opts.SocketPath.empty() && Opts.ListenAddr.empty())
    return false; // nothing to listen on
  bool Bound = true;
  if (!Opts.SocketPath.empty()) {
    Listen = Socket::listenUnix(Opts.SocketPath);
    Bound = Listen.valid();
  }
  if (Bound && !Opts.ListenAddr.empty()) {
    std::string Host;
    uint16_t Port = 0;
    Bound = support::parseHostPort(Opts.ListenAddr, Host, Port,
                                   /*AllowPortZero=*/true) &&
            (ListenTcp = Socket::listenTcp(Host, Port)).valid();
  }
  if (!Bound) {
    closeListeners(); // a daemon that fails to start leaves nothing behind
    return false;
  }
  TcpPort = ListenTcp.valid() ? ListenTcp.boundPort() : 0;
  if (Opts.TraceLive) {
    support::Trace::setRole(TraceRole);
    support::Trace::start();
  }
  Started = true;
  if (Listen.valid())
    Acceptors.emplace_back([this] { acceptLoop(Listen, false); });
  if (ListenTcp.valid())
    Acceptors.emplace_back(
        [this] { acceptLoop(ListenTcp, !Opts.AuthToken.empty()); });
  return true;
}

void FrameServer::stop() {
  if (!Started)
    return;
  Stopping.store(true);
  for (std::thread &A : Acceptors)
    A.join();
  Acceptors.clear();
  // Wake reader threads blocked in waitReadable and wait for each to
  // unregister itself; they hold shared ownership of their connection,
  // so the sockets stay valid until the last reader is gone.
  {
    std::unique_lock<std::mutex> L(ConnsM);
    for (const ConnRef &C : Conns)
      ::shutdown(C->Sock.fd(), SHUT_RDWR);
    ConnsCV.wait(L, [&] { return Conns.empty(); });
  }
  closeListeners();
  Started = false;
}

void FrameServer::closeListeners() {
  // Only a socket file this server bound is ours to remove.
  if (Listen.valid())
    ::unlink(Opts.SocketPath.c_str());
  Listen.close();
  ListenTcp.close();
}

void FrameServer::acceptLoop(Socket &L, bool RequireAuth) {
  while (!Stopping.load()) {
    if (!L.waitReadable(100))
      continue;
    Socket S = L.accept();
    if (!S.valid() || Stopping.load())
      continue;
    auto C = std::make_shared<FrameConn>(std::move(S));
    C->NeedsAuth = RequireAuth;
    {
      std::lock_guard<std::mutex> G(ConnsM);
      Conns.push_back(C);
    }
    // Reader threads are detached; stop() waits for Conns to empty, so
    // none can outlive the server.
    std::thread([this, C] { connLoop(C); }).detach();
  }
}

void FrameServer::connLoop(ConnRef C) {
  while (!Stopping.load()) {
    if (!C->Sock.waitReadable(200)) {
      if (C->Sock.peerClosed())
        break;
      continue;
    }
    std::string Raw;
    if (!C->Sock.recvFrame(Raw) || !handleFrame(C, Raw))
      break; // EOF, framing error or failed handshake
  }
  std::lock_guard<std::mutex> L(ConnsM);
  Conns.erase(std::find(Conns.begin(), Conns.end(), C));
  ConnsCV.notify_all();
}

bool FrameServer::handleFrame(const ConnRef &C, const std::string &Raw) {
  Json J;
  std::string Err;
  bool Parsed = Json::parse(Raw, J, Err);
  if (!Parsed || (J.has("v") && J.get("v").asInt() != ProtocolVersion)) {
    C->send(CheckResponse::error(ErrorCode::BadRequest,
                                 Parsed ? "unsupported protocol version"
                                        : "malformed JSON: " + Err)
                .toJson());
    // A garbage first frame on an authenticated listener still drops
    // the connection — unauthenticated peers get exactly one frame.
    return !C->NeedsAuth;
  }
  const std::string &Op = J.get("op").asString();
  Json R = Json::object();
  R.set("ok", true);
  if (Op == "auth" || C->NeedsAuth) {
    // Constant-time compare even when no token is configured, so an
    // open listener is timing-indistinguishable too.
    const std::string &Given = J.get("token").asString();
    if (Op == "auth" && constantTimeEqual(Given, Opts.AuthToken)) {
      C->NeedsAuth = false;
      R.set("op", "auth");
      C->send(R);
      return true;
    }
    AuthFailed.fetch_add(1);
    support::Log::warn("auth.failed",
                       {{"daemon", Daemon},
                        {"reason", Op != "auth"     ? "no auth handshake"
                                   : Given.empty() ? "missing token"
                                                   : "wrong token"},
                        {"op", Op}});
    C->send(CheckResponse::error(ErrorCode::AuthFailed,
                                 Op == "auth"
                                     ? "auth token mismatch"
                                     : "auth required before `" + Op + "`")
                .toJson());
    return false; // close the connection
  }
  if (Op == "ping") {
    R.set("op", "pong");
  } else if (Op == "trace_pull") {
    // Drains this process's span buffers into one Chrome-JSON fragment;
    // a collector (actrace) pulls every fleet member and merges.
    R.set("op", "trace_pull");
    R.set("pid", static_cast<uint64_t>(::getpid()));
    R.set("role", support::Trace::role());
    R.set("body", support::Trace::exportJson(/*Reset=*/true));
  } else if (Op == "drain") {
    beginDrain();
    R.set("draining", true);
  } else if (auto It = Handlers.find(Op); It != Handlers.end()) {
    It->second(C, J);
    return true;
  } else {
    R = CheckResponse::error(ErrorCode::BadRequest, "unknown op `" + Op + "`")
            .toJson();
  }
  C->send(R);
  return true;
}
