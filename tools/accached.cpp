//===- accached.cpp - The fleet's shared cache daemon ----------------------===//
//
// Content-addressed store of serialized abstraction-cache entries, shared
// by every acd shard in a fleet as a third cache tier (memory -> disk ->
// remote; docs/PROTOCOL.md "Remote cache"). One shard's cold miss becomes
// every other shard's warm hit.
//
//   accached --listen 127.0.0.1:0 --auth-token-file fleet.token
//
// SIGTERM / SIGINT (or a client `drain` request) exit gracefully; the
// store is memory-only, so there is nothing to flush.
//
//===----------------------------------------------------------------------===//

#include "cache/RemoteCache.h"
#include "daemon_main.h"
#include "support/Log.h"

#include <cstdio>
#include <string>

using namespace ac::cache;

namespace {

void usage(const char *Argv0) {
  std::fprintf(
      stderr,
      "usage: %s [options]\n"
      "  --socket PATH      listening Unix socket (default: none)\n"
      "  --listen HOST:PORT listen on TCP (port 0 picks an ephemeral\n"
      "                     port, printed at startup)\n"
      "  --auth-token-file F require the shared token in F on every TCP\n"
      "                     connection\n"
      "  --trace            keep spans in memory for the `trace_pull`\n"
      "                     op (fleet tracing)\n"
      "  --log-file PATH    append structured JSONL log lines to PATH\n"
      "  --log-level LVL    debug|info|warn|error|off (default: info)\n",
      Argv0);
}

} // namespace

int main(int argc, char **argv) {
  RemoteCacheServerOptions Opts;

  int RC = ac::tools::DaemonFlags("accached", usage, argc, argv)
               .parse(Opts, [](const std::string &) {
                 return ac::tools::Flag::Unknown;
               });
  if (RC >= 0)
    return RC;

  if (Opts.SocketPath.empty() && Opts.ListenAddr.empty()) {
    std::fprintf(stderr, "accached: need --socket or --listen\n");
    return 2;
  }

  ac::tools::ShutdownSignals Signals;
  RemoteCacheServer Srv(Opts);
  if (!Srv.start()) {
    std::fprintf(stderr, "accached: cannot listen\n");
    return 1;
  }
  if (!Opts.SocketPath.empty())
    std::printf("accached: listening on %s\n", Opts.SocketPath.c_str());
  if (!Opts.ListenAddr.empty())
    std::printf("accached: listening on tcp port %u\n",
                static_cast<unsigned>(Srv.tcpPort()));
  std::fflush(stdout);
  ac::support::Log::info("cached.started", {{"socket", Opts.SocketPath},
                                            {"listen", Opts.ListenAddr}});

  Signals.wait(Srv);

  std::printf("accached: draining\n");
  std::fflush(stdout);
  Srv.stop();
  std::printf("accached: drained, bye\n");
  ac::support::Log::info("cached.stopped",
                         {{"entries", static_cast<uint64_t>(
                                          Srv.store().size())},
                          {"hits", Srv.store().hits()}});
  return 0;
}
