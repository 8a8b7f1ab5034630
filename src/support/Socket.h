//===- Socket.h - Unix-domain sockets and wire framing ----------*- C++ -*-===//
//
// Part of the autocorres-cpp project, under the BSD 2-Clause License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Thin RAII wrappers over AF_UNIX and TCP stream sockets plus the
/// service wire framing: every message is a 4-byte big-endian payload
/// length followed by that many bytes of UTF-8 JSON (docs/PROTOCOL.md).
/// All calls handle EINTR; writes are SIGPIPE-proof (MSG_NOSIGNAL) so a
/// vanished client surfaces as an error return, not a killed daemon. The
/// framing layer is transport-agnostic: a frame sent over TCP is byte-
/// identical to the same frame over a Unix socket.
///
//===----------------------------------------------------------------------===//

#ifndef AC_SUPPORT_SOCKET_H
#define AC_SUPPORT_SOCKET_H

#include <cstdint>
#include <string>

namespace ac::support {

/// An owned socket file descriptor. Move-only.
class Socket {
public:
  Socket() = default;
  explicit Socket(int Fd) : Fd(Fd) {}
  Socket(Socket &&O) noexcept : Fd(O.Fd) { O.Fd = -1; }
  Socket &operator=(Socket &&O) noexcept;
  ~Socket();

  Socket(const Socket &) = delete;
  Socket &operator=(const Socket &) = delete;

  bool valid() const { return Fd >= 0; }
  int fd() const { return Fd; }
  void close();

  /// Connects to the Unix socket at \p Path. Invalid socket on failure.
  static Socket connectUnix(const std::string &Path);

  /// Binds + listens on \p Path (unlinking any stale socket file first).
  static Socket listenUnix(const std::string &Path, int Backlog = 64);

  /// Connects a TCP stream to \p Host:\p Port (numeric or resolvable
  /// host). TCP_NODELAY is set: frames are small and latency-bound.
  /// Invalid socket on failure. Shares the socket.connect.fail site with
  /// connectUnix so chaos coverage spans both transports.
  static Socket connectTcp(const std::string &Host, uint16_t Port);

  /// Binds + listens on \p Host:\p Port with SO_REUSEADDR. Port 0 asks
  /// the kernel for an ephemeral port; recover it with boundPort() and
  /// print it so scripts can discover the address.
  static Socket listenTcp(const std::string &Host, uint16_t Port,
                          int Backlog = 64);

  /// The local port a listening/connected TCP socket is bound to
  /// (getsockname); 0 on failure or for Unix sockets.
  uint16_t boundPort() const;

  /// accept(2) on a listening socket; invalid socket on failure/EAGAIN.
  /// An accepted TCP connection gets TCP_NODELAY, like connectTcp's.
  Socket accept() const;

  /// True if the peer has closed its end (half-close or full close),
  /// detected without consuming data (MSG_PEEK | MSG_DONTWAIT). Used to
  /// drop queued requests whose client already hung up.
  bool peerClosed() const;

  /// Waits up to \p TimeoutMs for the socket to become readable (data or
  /// EOF). Lets server loops interleave blocking reads with shutdown
  /// checks. Returns false on timeout.
  bool waitReadable(int TimeoutMs) const;

  /// Writes the whole buffer; false on any error.
  bool writeAll(const void *Buf, size_t Len) const;
  /// Reads exactly \p Len bytes; false on EOF or error.
  bool readAll(void *Buf, size_t Len) const;

  /// Sends one length-prefixed frame.
  bool sendFrame(const std::string &Payload) const;
  /// Receives one frame; false on EOF, error, or oversized payload.
  bool recvFrame(std::string &Payload) const;

  /// Largest accepted frame payload (64 MiB) — a corrupt length prefix
  /// must not allocate unbounded memory.
  static constexpr uint32_t MaxFrameBytes = 64u << 20;

private:
  int Fd = -1;
};

/// Creates a connected AF_UNIX stream pair (socketpair) for in-process
/// protocol tests. Returns false on failure.
bool socketPair(Socket &A, Socket &B);

/// Splits "host:port" into its parts. The host may be empty ("":0 is
/// rejected); the port must be 1..65535 unless \p AllowPortZero. Returns
/// false on malformed input. IPv6 literals are not supported — the fleet
/// protocol addresses shards as IPv4/hostname:port.
bool parseHostPort(const std::string &Spec, std::string &Host,
                   uint16_t &Port, bool AllowPortZero = false);

} // namespace ac::support

#endif // AC_SUPPORT_SOCKET_H
