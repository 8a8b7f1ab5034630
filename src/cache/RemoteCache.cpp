//===- RemoteCache.cpp ----------------------------------------------------===//

#include "cache/RemoteCache.h"

#include "service/Protocol.h"
#include "support/FaultInject.h"
#include "support/Fingerprint.h"
#include "support/Log.h"
#include "support/Trace.h"

#include <cstdio>
#include <cstdlib>

using namespace ac;
using namespace ac::cache;
using support::FaultSite;
using support::Fingerprint;
using support::Json;

// Fault sites at every new network/IO edge of the tier. Client-side
// failures degrade to a miss/drop; the store-side torn write proves the
// CRC path rejects a damaged entry at get() instead of serving it.
static const FaultSite FaultDial("remote.dial.fail");
static const FaultSite FaultGet("remote.get.fail");
static const FaultSite FaultPut("remote.put.fail");
static const FaultSite FaultStoreTorn("remotecache.store.torn");

//===----------------------------------------------------------------------===//
// RemoteCacheStore
//===----------------------------------------------------------------------===//

bool RemoteCacheStore::get(uint64_t Key, std::string &Blob) {
  Gets.fetch_add(1);
  std::lock_guard<std::mutex> L(M);
  auto It = Entries.find(Key);
  if (It == Entries.end())
    return false;
  Hits.fetch_add(1);
  Blob = It->second;
  return true;
}

bool RemoteCacheStore::put(uint64_t Key, const std::string &Blob) {
  std::string Stored = Blob;
  // remotecache.store.torn: the store accepts the put but persists a
  // truncated image — a torn write inside the tier. The CRC validation
  // below happens on the *offered* bytes (they are intact); the torn
  // bytes are what a later get() serves, and the client's parse must
  // reject them as a miss.
  if (FaultStoreTorn.fire())
    Stored.resize(Stored.size() / 2);
  core::CachedFunc E;
  if (!core::parseCachedFunc(Blob, E) || E.Key != Key) {
    support::Log::warn("remotecache.put_rejected",
                       {{"key", Fingerprint::hex(Key)},
                        {"reason", "corrupt or mislabeled entry"}});
    return false;
  }
  std::lock_guard<std::mutex> L(M);
  Entries[Key] = std::move(Stored);
  Puts.fetch_add(1);
  return true;
}

size_t RemoteCacheStore::size() const {
  std::lock_guard<std::mutex> L(M);
  return Entries.size();
}

//===----------------------------------------------------------------------===//
// RemoteCacheServer
//===----------------------------------------------------------------------===//

/// The wire-carried parent span of a request forwarded from a traced
/// shard (0 = none): the store's spans chain under the shard's
/// remote.get/remote.put span.
static uint64_t wireParent(const Json &J) {
  const Json &P = J.get("parent_span");
  return P.isString() ? std::strtoull(P.asString().c_str(), nullptr, 10) : 0;
}

static Json badRequest(const std::string &Msg) {
  return service::CheckResponse::error(service::ErrorCode::BadRequest, Msg)
      .toJson();
}

RemoteCacheServer::RemoteCacheServer(RemoteCacheServerOptions O)
    : Frames(O, "accached", "cache") {
  using ConnRef = service::FrameServer::ConnRef;
  Frames.on("get", [this](const ConnRef &C, const Json &J) {
    uint64_t Key = 0;
    if (!Fingerprint::parseHex(J.get("key").asString(), Key)) {
      C->send(badRequest("get lacks a 16-hex `key`"));
      return;
    }
    support::TraceContextScope TScope(J.get("trace_id").asString(),
                                      wireParent(J));
    support::Span S("accached.get");
    S.arg("key", Fingerprint::hex(Key));
    Json R = Json::object();
    R.set("ok", true);
    std::string Blob;
    if (Store.get(Key, Blob)) {
      S.arg("hit", "1");
      R.set("found", true);
      R.set("entry", std::move(Blob));
    } else {
      S.arg("hit", "0");
      R.set("found", false);
    }
    S.end();
    C->send(R);
  });
  Frames.on("put", [this](const ConnRef &C, const Json &J) {
    uint64_t Key = 0;
    if (!Fingerprint::parseHex(J.get("key").asString(), Key) ||
        !J.get("entry").isString()) {
      C->send(badRequest("put wants `key` and `entry`"));
      return;
    }
    support::TraceContextScope TScope(J.get("trace_id").asString(),
                                      wireParent(J));
    support::Span S("accached.put");
    S.arg("key", Fingerprint::hex(Key));
    bool Stored = Store.put(Key, J.get("entry").asString());
    S.end();
    Json R = Json::object();
    R.set("ok", true);
    R.set("stored", Stored);
    C->send(R);
  });
  Frames.on("stats", [this](const ConnRef &C, const Json &) {
    Json R = Json::object();
    R.set("ok", true);
    R.set("entries", static_cast<uint64_t>(Store.size()));
    R.set("gets", Store.gets());
    R.set("hits", Store.hits());
    R.set("puts", Store.puts());
    R.set("draining", Frames.draining());
    C->send(R);
  });
  Frames.on("metrics", [this](const ConnRef &C, const Json &) {
    // The store's Prometheus block, role-labelled so a federated scrape
    // can tell the cache tier's samples from the shards'.
    std::string Body;
    auto Counter = [&](const char *Name, const char *Help,
                       const char *Type, uint64_t V) {
      char Buf[256];
      std::snprintf(Buf, sizeof(Buf),
                    "# HELP %s %s\n# TYPE %s %s\n%s{role=\"cache\"} %llu\n",
                    Name, Help, Name, Type, Name,
                    static_cast<unsigned long long>(V));
      Body += Buf;
    };
    Counter("accached_entries", "Entries resident in the store.", "gauge",
            Store.size());
    Counter("accached_gets_total", "Get requests served.", "counter",
            Store.gets());
    Counter("accached_hits_total", "Get requests that found an entry.",
            "counter", Store.hits());
    Counter("accached_puts_total", "Entries accepted by put.", "counter",
            Store.puts());
    Json R = Json::object();
    R.set("ok", true);
    R.set("content_type", "text/plain; version=0.0.4");
    R.set("body", Body);
    C->send(R);
  });
}

//===----------------------------------------------------------------------===//
// RemoteCacheClient
//===----------------------------------------------------------------------===//

RemoteCacheClient::RemoteCacheClient(std::string A, std::string T)
    : Addr(std::move(A)), Token(std::move(T)) {}

bool RemoteCacheClient::ensureConnected() {
  if (Conn.connected())
    return true;
  if (FaultDial.fire())
    return false; // tier unreachable: every get is a miss, puts drop
  std::string Host, Err;
  uint16_t Port = 0;
  if (support::parseHostPort(Addr, Host, Port))
    Conn = service::Client::connectTcp(Addr, Token, Err);
  else if ((Conn = service::Client::connect(Addr)).connected())
    Conn.authenticate(Token, Err);
  return Conn.connected();
}

bool RemoteCacheClient::get(uint64_t Key, core::CachedFunc &Out) {
  std::lock_guard<std::mutex> L(M);
  if (!ensureConnected())
    return false;
  if (FaultGet.fire()) {
    // The connection died mid-exchange; next call re-dials.
    Conn = service::Client();
    return false;
  }
  // The round-trip span; its id rides along as parent_span so the
  // store's accached.get chains under it in a merged fleet trace.
  support::Span S("remote.get");
  S.arg("key", Fingerprint::hex(Key));
  Json Req = Json::object();
  Req.set("v", service::ProtocolVersion);
  Req.set("op", "get");
  Req.set("key", Fingerprint::hex(Key));
  if (S.active()) {
    const support::Trace::Context &TC = support::Trace::context();
    if (!TC.TraceId.empty())
      Req.set("trace_id", TC.TraceId);
    Req.set("parent_span", std::to_string(S.id()));
  }
  Json Resp;
  std::string Err;
  if (!Conn.roundTrip(Req, Resp, Err)) {
    Conn = service::Client(); // torn: the next call re-dials
    return false;
  }
  if (!Resp.get("ok").asBool() || !Resp.get("found").asBool())
    return false;
  // The CRC inside the blob guards the whole store+transit path: a torn
  // store write or flipped bit parses false and is simply a miss.
  if (!core::parseCachedFunc(Resp.get("entry").asString(), Out) ||
      Out.Key != Key) {
    support::Log::warn("remotecache.entry_rejected",
                       {{"key", Fingerprint::hex(Key)},
                        {"reason", "CRC/parse failure; treating as miss"}});
    return false;
  }
  return true;
}

void RemoteCacheClient::put(const core::CachedFunc &E) {
  std::lock_guard<std::mutex> L(M);
  if (!ensureConnected())
    return;
  if (FaultPut.fire()) {
    Conn = service::Client();
    return;
  }
  support::Span S("remote.put");
  S.arg("key", Fingerprint::hex(E.Key));
  Json Req = Json::object();
  Req.set("v", service::ProtocolVersion);
  Req.set("op", "put");
  Req.set("key", Fingerprint::hex(E.Key));
  Req.set("entry", core::serializeCachedFunc(E));
  if (S.active()) {
    const support::Trace::Context &TC = support::Trace::context();
    if (!TC.TraceId.empty())
      Req.set("trace_id", TC.TraceId);
    Req.set("parent_span", std::to_string(S.id()));
  }
  // Best-effort: a dropped put is recomputed; a torn one re-dials next.
  Json Resp;
  std::string Err;
  if (!Conn.roundTrip(Req, Resp, Err))
    Conn = service::Client();
}
