//===- acrouter.cpp - Consistent-hash front-end for an acd fleet ----------===//
//
// Speaks the verification-service protocol to clients and forwards each
// check to one of N acd shards, chosen by consistent-hashing the request
// content (docs/PROTOCOL.md "Router"). Shards that die are probed back to
// health and requests reroute; with no healthy shard the router answers
// `busy`. It runs no pipeline itself: falling back to an in-process run
// is the client's decision (acc, service::checkWithFallback).
//
//   acrouter --listen 127.0.0.1:0
//            --shard 127.0.0.1:7001 --shard 127.0.0.1:7002
//
//===----------------------------------------------------------------------===//

#include "daemon_main.h"
#include "router/Router.h"
#include "support/Log.h"

#include <cstdio>
#include <string>

using namespace ac::router;

namespace {

void usage(const char *Argv0) {
  std::fprintf(
      stderr,
      "usage: %s --shard HOST:PORT [--shard ...] [options]\n"
      "  --shard HOST:PORT   an acd shard (repeatable; at least one)\n"
      "  --socket PATH       listening Unix socket (default: none)\n"
      "  --listen HOST:PORT  listen on TCP (port 0 picks an ephemeral\n"
      "                      port, printed at startup)\n"
      "  --auth-token-file F require the shared token in F on every\n"
      "                      client TCP connection\n"
      "  --shard-token-file F token presented when dialing shards\n"
      "  --window N          max in-flight forwards per shard before\n"
      "                      answering busy (default: 8)\n"
      "  --retry-after-ms N  retry hint on busy answers (default: 50)\n"
      "  --probe-ms N        health-probe cadence (default: 250)\n"
      "  --cache HOST:PORT   the accached daemon, scraped into the\n"
      "                      federated `metrics` and `fleet` payloads\n"
      "  --trace             keep spans in memory for the `trace_pull`\n"
      "                      op and propagate trace context on forwards\n"
      "  --log-file PATH     append structured JSONL log lines to PATH\n"
      "  --log-level LVL     debug|info|warn|error|off (default: info)\n",
      Argv0);
}

} // namespace

int main(int argc, char **argv) {
  RouterOptions Opts;

  ac::tools::DaemonFlags Flags("acrouter", usage, argc, argv);
  int RC = Flags.parse(Opts, [&](const std::string &Arg) {
    if (Arg == "--shard") {
      std::string Addr;
      ac::tools::Flag F = Flags.str(Addr);
      if (F == ac::tools::Flag::Taken)
        Opts.Shards.push_back(Addr);
      return F;
    }
    if (Arg == "--shard-token-file")
      return Flags.token(Opts.ShardToken, "shard");
    if (Arg == "--window")
      return Flags.num(Opts.MaxInFlightPerShard, 1);
    if (Arg == "--retry-after-ms")
      return Flags.num(Opts.RetryAfterMs);
    if (Arg == "--probe-ms")
      return Flags.num(Opts.HealthProbeMs, 1);
    if (Arg == "--cache")
      return Flags.str(Opts.CacheAddr);
    return ac::tools::Flag::Unknown;
  });
  if (RC >= 0)
    return RC;

  if (Opts.Shards.empty()) {
    std::fprintf(stderr, "acrouter: need at least one --shard\n");
    usage(argv[0]);
    return 2;
  }
  if (Opts.SocketPath.empty() && Opts.ListenAddr.empty()) {
    std::fprintf(stderr, "acrouter: need --socket or --listen\n");
    return 2;
  }

  ac::tools::ShutdownSignals Signals;
  Router R(Opts);
  if (!R.start()) {
    std::fprintf(stderr, "acrouter: cannot listen\n");
    return 1;
  }
  if (!Opts.SocketPath.empty())
    std::printf("acrouter: listening on %s (%zu shards)\n",
                Opts.SocketPath.c_str(), Opts.Shards.size());
  if (!Opts.ListenAddr.empty())
    std::printf("acrouter: listening on tcp port %u (%zu shards)\n",
                static_cast<unsigned>(R.tcpPort()), Opts.Shards.size());
  std::fflush(stdout);
  ac::support::Log::info(
      "router.started",
      {{"listen", Opts.ListenAddr},
       {"shards", static_cast<uint64_t>(Opts.Shards.size())}});

  Signals.wait(R);

  std::printf("acrouter: draining (finishing in-flight forwards)\n");
  std::fflush(stdout);
  R.stop();
  std::printf("acrouter: drained, bye\n");
  ac::support::Log::info("router.stopped", {});
  return 0;
}
