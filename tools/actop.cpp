//===- actop.cpp - Live fleet inspector ------------------------------------===//
//
// Polls a router's `fleet` op and renders the whole fleet on one screen:
// per-shard up/down marks, in-flight windows, queue depths, shed
// counters, winner attribution, the cache tier, and the slowest
// recent requests across every shard (keyed by trace_id, so a slow row
// can be chased with `actrace`).
//
//   actop --router 127.0.0.1:7000            # refreshing dashboard
//   actop --router 127.0.0.1:7000 --once --json   # one machine-readable
//                                                 # snapshot
//
//===----------------------------------------------------------------------===//

#include "daemon_main.h"
#include "service/Client.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

using ac::service::Client;
using ac::support::Json;

namespace {

void usage(const char *Argv0) {
  std::fprintf(
      stderr,
      "usage: %s --router HOST:PORT [options]\n"
      "  --router HOST:PORT  the acrouter front-end to poll\n"
      "  --auth-token-file F auth token for the router connection\n"
      "  --interval-ms N     refresh cadence (default: 1000)\n"
      "  --once              render one snapshot and exit\n"
      "  --json              print the raw fleet payload (with --once)\n"
      "  --top N             slowest-recent-requests rows (default: 8)\n",
      Argv0);
}

/// One slow-request row, pooled across every shard's `recent` ring.
struct SlowRow {
  std::string TraceId, Shard, Tenant, Priority;
  double TotalMs = 0, WaitMs = 0, AgeS = 0;
  bool Ok = true;
};

void render(const Json &Fleet, unsigned TopK) {
  const Json &Shards = Fleet.get("shards");
  const Json &Details = Fleet.get("shard_stats");
  std::printf("acrouter fleet — received %lld  completed %lld  "
              "rerouted %lld  window_busy %lld%s\n\n",
              static_cast<long long>(Fleet.get("received").asInt()),
              static_cast<long long>(Fleet.get("completed").asInt()),
              static_cast<long long>(Fleet.get("rerouted").asInt()),
              static_cast<long long>(Fleet.get("window_busy").asInt()),
              Fleet.get("draining").asBool() ? "  [DRAINING]" : "");

  std::printf("%-22s %-6s %5s %7s %6s %5s %6s %5s %8s\n", "SHARD",
              "HEALTH", "INFL", "ROUTED", "WON", "ERR", "QUEUE", "SHED",
              "P99(ms)");
  std::vector<SlowRow> Slow;
  for (size_t I = 0; I != Shards.items().size(); ++I) {
    const Json &S = Shards.items()[I];
    const std::string &Addr = S.get("addr").asString();
    // The router's view (up/down, windows, attribution) joins the
    // shard's own stats scrape (queue, shed, latency) by index —
    // fleetJson emits both arrays in shard-list order.
    const Json *D = I < Details.items().size() ? &Details.items()[I]
                                               : nullptr;
    bool Up = D && D->get("up").asBool();
    const Json &St = Up ? D->get("stats") : Json();
    const Json &Req = St.get("requests");
    char P99[32] = "-";
    if (Up)
      std::snprintf(P99, sizeof(P99), "%.1f",
                    St.get("latency").get("total").get("p99_ms")
                        .asNumber());
    std::printf(
        "%-22s %-6s %5lld %7lld %6lld %5lld %6s %5lld %8s\n",
        Addr.c_str(), S.get("healthy").asBool() ? "up" : "down",
        static_cast<long long>(S.get("in_flight").asInt()),
        static_cast<long long>(S.get("routed").asInt()),
        static_cast<long long>(S.get("won").asInt()),
        static_cast<long long>(S.get("errors").asInt()),
        Up ? (std::to_string(St.get("queue_depth").asInt()) + "/" +
              std::to_string(St.get("queue_capacity").asInt()))
                 .c_str()
           : "-",
        static_cast<long long>(Req.get("shed").asInt()), P99);
    if (Up)
      for (const Json &R : St.get("recent").items()) {
        SlowRow Row;
        Row.TraceId = R.get("trace_id").asString();
        Row.Shard = Addr;
        Row.Tenant = R.get("tenant").asString();
        Row.Priority = R.get("priority").asString();
        Row.TotalMs = R.get("total_ms").asNumber();
        Row.WaitMs = R.get("wait_ms").asNumber();
        Row.AgeS = R.get("age_s").asNumber();
        Row.Ok = R.get("ok").asBool();
        Slow.push_back(std::move(Row));
      }
  }

  if (Fleet.has("cache")) {
    const Json &Cd = Fleet.get("cache");
    if (Cd.get("up").asBool()) {
      const Json &St = Cd.get("stats");
      std::printf("\ncache %-16s entries %lld  gets %lld  hits %lld  "
                  "puts %lld\n",
                  Cd.get("addr").asString().c_str(),
                  static_cast<long long>(St.get("entries").asInt()),
                  static_cast<long long>(St.get("gets").asInt()),
                  static_cast<long long>(St.get("hits").asInt()),
                  static_cast<long long>(St.get("puts").asInt()));
    } else {
      std::printf("\ncache %-16s DOWN\n",
                  Cd.get("addr").asString().c_str());
    }
  }

  if (!Slow.empty()) {
    std::sort(Slow.begin(), Slow.end(),
              [](const SlowRow &A, const SlowRow &B) {
                return A.TotalMs > B.TotalMs;
              });
    if (Slow.size() > TopK)
      Slow.resize(TopK);
    std::printf("\nslowest recent requests\n");
    std::printf("%-28s %-22s %-9s %9s %9s %7s %3s\n", "TRACE_ID", "SHARD",
                "PRIO", "TOTAL(ms)", "WAIT(ms)", "AGE(s)", "OK");
    for (const SlowRow &R : Slow)
      std::printf("%-28s %-22s %-9s %9.1f %9.1f %7.1f %3s\n",
                  R.TraceId.c_str(), R.Shard.c_str(), R.Priority.c_str(),
                  R.TotalMs, R.WaitMs, R.AgeS, R.Ok ? "ok" : "ERR");
  }
  std::fflush(stdout);
}

} // namespace

int main(int argc, char **argv) {
  std::string RouterAddr;
  std::string Token;
  unsigned IntervalMs = 1000;
  unsigned TopK = 8;
  bool Once = false;
  bool AsJson = false;

  ac::tools::DaemonFlags Flags("actop", usage, argc, argv);
  int RC = Flags.parse([&](const std::string &Arg) {
    if (Arg == "--router")
      return Flags.str(RouterAddr);
    if (Arg == "--auth-token-file")
      return Flags.token(Token, "auth");
    if (Arg == "--interval-ms")
      return Flags.num(IntervalMs, 1);
    if (Arg == "--top")
      return Flags.num(TopK, 1);
    if (Arg == "--once")
      return Flags.set(Once);
    if (Arg == "--json")
      return Flags.set(AsJson);
    return ac::tools::Flag::Unknown;
  });
  if (RC >= 0)
    return RC;
  if (RouterAddr.empty()) {
    usage(argv[0]);
    return 2;
  }

  for (;;) {
    std::string Err;
    Client C = Client::connectTcp(RouterAddr, Token, Err);
    Json Fleet;
    if (!C.connected() || !C.fleet(Fleet, Err)) {
      std::fprintf(stderr, "actop: %s: %s\n", RouterAddr.c_str(),
                   Err.empty() ? "fleet poll failed" : Err.c_str());
      if (Once)
        return 1;
    } else if (AsJson) {
      std::printf("%s\n", Fleet.dump().c_str());
      std::fflush(stdout);
    } else {
      if (!Once)
        std::printf("\x1b[2J\x1b[H"); // clear + home between refreshes
      render(Fleet, TopK);
    }
    if (Once)
      return 0;
    std::this_thread::sleep_for(std::chrono::milliseconds(IntervalMs));
  }
}
