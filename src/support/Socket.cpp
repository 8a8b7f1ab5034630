//===- Socket.cpp ---------------------------------------------------------===//

#include "support/Socket.h"

#include "support/FaultInject.h"

#include <arpa/inet.h>
#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

using namespace ac::support;

// Fault-injection sites for every way the wire can betray us. Each fires
// with the exact failure shape the kernel would deliver, so the recovery
// paths under chaos test are the real ones.
static const FaultSite FaultConnect("socket.connect.fail");
static const FaultSite FaultAccept("socket.accept.fail");
static const FaultSite FaultWriteFail("socket.write.fail");
static const FaultSite FaultWriteShort("socket.write.short");
static const FaultSite FaultWriteEintr("socket.write.eintr");
static const FaultSite FaultReadFail("socket.read.fail");
static const FaultSite FaultReadShort("socket.read.short");
static const FaultSite FaultReadEintr("socket.read.eintr");

Socket &Socket::operator=(Socket &&O) noexcept {
  if (this != &O) {
    close();
    Fd = O.Fd;
    O.Fd = -1;
  }
  return *this;
}

Socket::~Socket() { close(); }

void Socket::close() {
  if (Fd >= 0) {
    ::close(Fd);
    Fd = -1;
  }
}

static bool fillAddr(const std::string &Path, sockaddr_un &Addr) {
  if (Path.size() >= sizeof(Addr.sun_path))
    return false;
  std::memset(&Addr, 0, sizeof(Addr));
  Addr.sun_family = AF_UNIX;
  std::memcpy(Addr.sun_path, Path.c_str(), Path.size() + 1);
  return true;
}

Socket Socket::connectUnix(const std::string &Path) {
  if (FaultConnect.fire())
    return Socket(); // daemon unreachable (ECONNREFUSED)
  sockaddr_un Addr;
  if (!fillAddr(Path, Addr))
    return Socket();
  int Fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (Fd < 0)
    return Socket();
  int Rc;
  do {
    Rc = ::connect(Fd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr));
  } while (Rc < 0 && errno == EINTR);
  if (Rc < 0) {
    ::close(Fd);
    return Socket();
  }
  return Socket(Fd);
}

Socket Socket::listenUnix(const std::string &Path, int Backlog) {
  sockaddr_un Addr;
  if (!fillAddr(Path, Addr))
    return Socket();
  ::unlink(Path.c_str()); // stale socket file from a previous run
  int Fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (Fd < 0)
    return Socket();
  if (::bind(Fd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) < 0 ||
      ::listen(Fd, Backlog) < 0) {
    ::close(Fd);
    return Socket();
  }
  return Socket(Fd);
}

Socket Socket::connectTcp(const std::string &Host, uint16_t Port) {
  if (FaultConnect.fire())
    return Socket(); // shard unreachable (ECONNREFUSED)
  addrinfo Hints{};
  Hints.ai_family = AF_INET;
  Hints.ai_socktype = SOCK_STREAM;
  addrinfo *Res = nullptr;
  char PortStr[8];
  std::snprintf(PortStr, sizeof(PortStr), "%u", unsigned(Port));
  if (::getaddrinfo(Host.c_str(), PortStr, &Hints, &Res) != 0 || !Res)
    return Socket();
  int Fd = ::socket(Res->ai_family, Res->ai_socktype, Res->ai_protocol);
  if (Fd < 0) {
    ::freeaddrinfo(Res);
    return Socket();
  }
  int Rc;
  do {
    Rc = ::connect(Fd, Res->ai_addr, Res->ai_addrlen);
  } while (Rc < 0 && errno == EINTR);
  ::freeaddrinfo(Res);
  if (Rc < 0) {
    ::close(Fd);
    return Socket();
  }
  int One = 1;
  ::setsockopt(Fd, IPPROTO_TCP, TCP_NODELAY, &One, sizeof(One));
  return Socket(Fd);
}

Socket Socket::listenTcp(const std::string &Host, uint16_t Port,
                         int Backlog) {
  sockaddr_in Addr{};
  Addr.sin_family = AF_INET;
  Addr.sin_port = htons(Port);
  if (Host.empty() || Host == "0.0.0.0") {
    Addr.sin_addr.s_addr = htonl(INADDR_ANY);
  } else if (::inet_pton(AF_INET, Host.c_str(), &Addr.sin_addr) != 1) {
    // Not a dotted quad — resolve (e.g. "localhost").
    addrinfo Hints{};
    Hints.ai_family = AF_INET;
    Hints.ai_socktype = SOCK_STREAM;
    Hints.ai_flags = AI_PASSIVE;
    addrinfo *Res = nullptr;
    if (::getaddrinfo(Host.c_str(), nullptr, &Hints, &Res) != 0 || !Res)
      return Socket();
    Addr.sin_addr =
        reinterpret_cast<sockaddr_in *>(Res->ai_addr)->sin_addr;
    ::freeaddrinfo(Res);
  }
  int Fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (Fd < 0)
    return Socket();
  int One = 1;
  ::setsockopt(Fd, SOL_SOCKET, SO_REUSEADDR, &One, sizeof(One));
  if (::bind(Fd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) < 0 ||
      ::listen(Fd, Backlog) < 0) {
    ::close(Fd);
    return Socket();
  }
  return Socket(Fd);
}

uint16_t Socket::boundPort() const {
  sockaddr_storage SS{};
  socklen_t Len = sizeof(SS);
  if (Fd < 0 ||
      ::getsockname(Fd, reinterpret_cast<sockaddr *>(&SS), &Len) != 0)
    return 0;
  if (SS.ss_family != AF_INET)
    return 0;
  return ntohs(reinterpret_cast<sockaddr_in *>(&SS)->sin_port);
}

Socket Socket::accept() const {
  if (FaultAccept.fire())
    return Socket(); // transient accept(2) failure (EMFILE and friends)
  int Conn;
  do {
    Conn = ::accept(Fd, nullptr, nullptr);
  } while (Conn < 0 && errno == EINTR);
  if (Conn < 0)
    return Socket();
  // Replies are small and latency-bound, as in connectTcp: without
  // TCP_NODELAY every reply on an accepted TCP connection waits out the
  // peer's delayed ACK (~40 ms). On a Unix socket the call fails
  // harmlessly.
  int One = 1;
  ::setsockopt(Conn, IPPROTO_TCP, TCP_NODELAY, &One, sizeof(One));
  return Socket(Conn);
}

bool Socket::peerClosed() const {
  char C;
  ssize_t N = ::recv(Fd, &C, 1, MSG_PEEK | MSG_DONTWAIT);
  return N == 0;
}

bool Socket::waitReadable(int TimeoutMs) const {
  pollfd P{Fd, POLLIN, 0};
  int Rc;
  do {
    Rc = ::poll(&P, 1, TimeoutMs);
  } while (Rc < 0 && errno == EINTR);
  return Rc > 0;
}

bool Socket::writeAll(const void *Buf, size_t Len) const {
  const char *P = static_cast<const char *>(Buf);
  while (Len > 0) {
    if (FaultWriteFail.fire()) {
      errno = ECONNRESET; // peer reset mid-write
      return false;
    }
    if (FaultWriteEintr.fire()) {
      errno = EINTR; // signal landed before any byte moved
      continue;
    }
    // A short write: the kernel accepted one byte and the loop must
    // carry the rest — exactly what a full socket buffer produces.
    size_t Chunk = FaultWriteShort.fire() ? 1 : Len;
    ssize_t N = ::send(Fd, P, Chunk, MSG_NOSIGNAL);
    if (N < 0) {
      if (errno == EINTR)
        continue;
      return false;
    }
    P += N;
    Len -= static_cast<size_t>(N);
  }
  return true;
}

bool Socket::readAll(void *Buf, size_t Len) const {
  char *P = static_cast<char *>(Buf);
  while (Len > 0) {
    if (FaultReadFail.fire()) {
      errno = ECONNRESET; // peer reset mid-read
      return false;
    }
    if (FaultReadEintr.fire()) {
      errno = EINTR;
      continue;
    }
    // A short read: one byte arrives, the loop must reassemble.
    size_t Chunk = FaultReadShort.fire() ? 1 : Len;
    ssize_t N = ::recv(Fd, P, Chunk, 0);
    if (N < 0) {
      if (errno == EINTR)
        continue;
      return false;
    }
    if (N == 0)
      return false; // EOF mid-message
    P += N;
    Len -= static_cast<size_t>(N);
  }
  return true;
}

bool Socket::sendFrame(const std::string &Payload) const {
  if (Payload.size() > MaxFrameBytes)
    return false;
  uint32_t Len = static_cast<uint32_t>(Payload.size());
  unsigned char Hdr[4] = {
      static_cast<unsigned char>(Len >> 24),
      static_cast<unsigned char>(Len >> 16),
      static_cast<unsigned char>(Len >> 8),
      static_cast<unsigned char>(Len),
  };
  return writeAll(Hdr, 4) && writeAll(Payload.data(), Payload.size());
}

bool Socket::recvFrame(std::string &Payload) const {
  unsigned char Hdr[4];
  if (!readAll(Hdr, 4))
    return false;
  uint32_t Len = (uint32_t(Hdr[0]) << 24) | (uint32_t(Hdr[1]) << 16) |
                 (uint32_t(Hdr[2]) << 8) | uint32_t(Hdr[3]);
  if (Len > MaxFrameBytes)
    return false;
  Payload.resize(Len);
  return Len == 0 || readAll(Payload.data(), Len);
}

bool ac::support::socketPair(Socket &A, Socket &B) {
  int Fds[2];
  if (::socketpair(AF_UNIX, SOCK_STREAM, 0, Fds) != 0)
    return false;
  A = Socket(Fds[0]);
  B = Socket(Fds[1]);
  return true;
}

bool ac::support::parseHostPort(const std::string &Spec, std::string &Host,
                                uint16_t &Port, bool AllowPortZero) {
  size_t Colon = Spec.rfind(':');
  if (Colon == std::string::npos || Colon == 0 || Colon + 1 == Spec.size())
    return false;
  const char *P = Spec.c_str() + Colon + 1;
  char *End = nullptr;
  unsigned long V = std::strtoul(P, &End, 10);
  if (End == P || *End != '\0' || V > 65535 || (V == 0 && !AllowPortZero))
    return false;
  Host = Spec.substr(0, Colon);
  Port = static_cast<uint16_t>(V);
  return true;
}
