//===- RemoteCache.h - Remote content-addressed cache tier ------*- C++ -*-===//
//
// Part of the autocorres-cpp project, under the BSD 2-Clause License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The fleet's shared cache tier behind the `accached` daemon: a
/// content-addressed get/put store of serialized ResultCache entries,
/// spoken over the same length-prefixed JSON framing as the verification
/// service (docs/PROTOCOL.md "Remote cache"). One shard's cold miss
/// becomes every other shard's warm hit — the fleet analogue of the
/// interactive cache's "only re-verify what changed".
///
/// Three pieces:
///   - RemoteCacheStore: the in-process store (also driven directly by
///     tests and the bench, no sockets needed),
///   - RemoteCacheServer: the daemon loop (`tools/accached.cpp`),
///   - RemoteCacheClient: a core::RemoteTier implementation the shards
///     plug into their ResultCache (memory → disk → remote).
///
/// Entries travel and rest in the v2 on-disk record format with its
/// per-entry CRC-32 (core::serializeCachedFunc), so a torn store write
/// or a flipped bit in transit is caught by exactly the code path that
/// catches a torn disk cache — and is likewise just a miss.
///
//===----------------------------------------------------------------------===//

#ifndef AC_CACHE_REMOTECACHE_H
#define AC_CACHE_REMOTECACHE_H

#include "core/ResultCache.h"
#include "service/Client.h"
#include "service/FrameServer.h"
#include "support/Json.h"

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>

namespace ac::cache {

/// The content-addressed blob store: key -> serialized entry. Fully
/// thread-safe; counters feed the `stats` op (and the fleet bench's
/// remote-hit-rate column).
class RemoteCacheStore {
public:
  /// The blob under \p Key. False on miss. Counts a get (and a hit).
  bool get(uint64_t Key, std::string &Blob);

  /// Stores \p Blob under \p Key after validating that it parses as a
  /// CRC-intact entry whose key matches — a corrupt or mislabeled blob
  /// is rejected, never served later. Counts a put only when stored.
  bool put(uint64_t Key, const std::string &Blob);

  uint64_t gets() const { return Gets.load(); }
  uint64_t hits() const { return Hits.load(); }
  uint64_t puts() const { return Puts.load(); }
  size_t size() const;

private:
  std::map<uint64_t, std::string> Entries;
  std::atomic<uint64_t> Gets{0}, Hits{0}, Puts{0};
  mutable std::mutex M;
};

/// accached daemon configuration: the listener options alone. With
/// TraceLive the store records get/put spans (role "cache"), chained
/// under the trace context a shard's RemoteCacheClient sends with each
/// round-trip.
struct RemoteCacheServerOptions : service::ListenOptions {};

/// The daemon: every op (get/put/ping/stats/drain) is answered inline by
/// the connection's reader thread — there is no work queue, the store is
/// the whole state.
class RemoteCacheServer {
public:
  explicit RemoteCacheServer(RemoteCacheServerOptions Opts);

  bool start() { return Frames.start(); }
  void stop() { Frames.stop(); }

  bool draining() const { return Frames.draining(); }
  uint16_t tcpPort() const { return Frames.tcpPort(); }
  RemoteCacheStore &store() { return Store; }

private:
  RemoteCacheStore Store;
  service::FrameServer Frames;
};

/// The shard-side tier: one connection to an accached daemon, lazily
/// dialed and re-dialed after any transport failure, every round-trip
/// serialized under a mutex (concurrent sessions share one tier). Every
/// failure shape — dial refused, torn reply, CRC mismatch — degrades to
/// a miss (get) or a drop (put); the fleet keeps verifying without its
/// cache tier, just colder.
class RemoteCacheClient : public core::RemoteTier {
public:
  /// \p Addr is "host:port" (TCP) or a filesystem path (Unix socket).
  /// \p Token authenticates TCP dials ("" = none).
  RemoteCacheClient(std::string Addr, std::string Token = "");

  bool get(uint64_t Key, core::CachedFunc &Out) override;
  void put(const core::CachedFunc &E) override;

private:
  /// Dials (and authenticates) if not connected. Caller holds M.
  bool ensureConnected();

  std::string Addr, Token;
  service::Client Conn;
  std::mutex M;
};

} // namespace ac::cache

#endif // AC_CACHE_REMOTECACHE_H
