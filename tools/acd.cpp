//===- acd.cpp - The AutoCorres verification daemon ------------------------===//
//
// Long-lived verification service: keeps interned terms, the abstraction
// cache, and a warm worker pool resident across requests, and serves
// check/stats/ping/drain requests over a Unix-domain socket
// (docs/PROTOCOL.md). `acc` is the matching client.
//
//   acd --socket /tmp/acd.sock --workers 2 --queue 8 --jobs 4
//
// SIGTERM / SIGINT (or a client `drain` request) trigger a graceful
// drain: in-flight and queued requests finish, cache tiers are flushed
// to disk, new work is refused, then the process exits 0.
//
//===----------------------------------------------------------------------===//

#include "cache/RemoteCache.h"
#include "daemon_main.h"
#include "service/Server.h"
#include "support/Log.h"

#include <cstdio>
#include <memory>
#include <string>

using namespace ac::service;

namespace {

void usage(const char *Argv0) {
  std::fprintf(
      stderr,
      "usage: %s [options]\n"
      "  --socket PATH      listening Unix socket (default: acd.sock;\n"
      "                     `none` disables it for TCP-only shards)\n"
      "  --listen HOST:PORT additionally listen on TCP (port 0 picks an\n"
      "                     ephemeral port, printed at startup)\n"
      "  --auth-token-file F require the shared token in F on every TCP\n"
      "                     connection (first-frame auth handshake)\n"
      "  --shard-id NAME    label every Prometheus metric with\n"
      "                     shard_id=\"NAME\" (fleet aggregation)\n"
      "  --remote-cache A   use the accached daemon at A (host:port or\n"
      "                     Unix path) as a third cache tier\n"
      "  --remote-token-file F token file for --remote-cache dials\n"
      "  --workers N        concurrent check sessions, at most 256\n"
      "                     (default: 2)\n"
      "  --queue N          admission queue capacity (default: 8)\n"
      "  --jobs N           default abstraction jobs per request, at\n"
      "                     most 256 (default: $AC_JOBS, 1 when unset)\n"
      "  --cache-dir DIR    default abstraction-cache directory\n"
      "  --retry-after-ms N backpressure retry hint (default: 50)\n"
      "  --shed-min-samples N completed requests needed before stale\n"
      "                     bulk work is shed (default: 16)\n"
      "  --trace-dir DIR    write a Chrome trace JSON per request to\n"
      "                     DIR/<trace_id>.json (best-effort)\n"
      "  --trace            keep spans in memory for the `trace_pull`\n"
      "                     op (fleet tracing; wins over --trace-dir)\n"
      "  --cert-dir DIR     write a proof certificate per request to\n"
      "                     DIR/<trace_id>.acpc, checkable with `acpc`\n"
      "                     (best-effort)\n"
      "  --log-file PATH    append structured JSONL log lines to PATH\n"
      "                     (default: stderr)\n"
      "  --log-level LVL    debug|info|warn|error|off (default: info)\n",
      Argv0);
}

} // namespace

int main(int argc, char **argv) {
  ServerOptions Opts;
  Opts.SocketPath = "acd.sock";
  std::string RemoteAddr;
  std::string RemoteToken;

  ac::tools::DaemonFlags Flags("acd", usage, argc, argv);
  int RC = Flags.parse(Opts, [&](const std::string &Arg) {
    if (Arg == "--shard-id")
      return Flags.str(Opts.ShardId);
    if (Arg == "--remote-cache")
      return Flags.str(RemoteAddr);
    if (Arg == "--remote-token-file")
      return Flags.token(RemoteToken, "remote");
    if (Arg == "--workers")
      return Flags.num(Opts.Workers, 0, ac::support::ThreadPool::MaxJobs);
    if (Arg == "--queue")
      return Flags.num(Opts.QueueCapacity);
    if (Arg == "--jobs")
      return Flags.num(Opts.Jobs, 0, ac::support::ThreadPool::MaxJobs);
    if (Arg == "--cache-dir")
      return Flags.str(Opts.CacheDir);
    if (Arg == "--retry-after-ms")
      return Flags.num(Opts.RetryAfterMs);
    if (Arg == "--shed-min-samples")
      return Flags.num(Opts.ShedMinSamples);
    if (Arg == "--trace-dir")
      return Flags.str(Opts.TraceDir);
    if (Arg == "--cert-dir")
      return Flags.str(Opts.CertDir);
    return ac::tools::Flag::Unknown;
  });
  if (RC >= 0)
    return RC;
  if (Opts.SocketPath == "none")
    Opts.SocketPath.clear(); // TCP-only shard

  // The remote cache tier is wired before the server starts so every
  // cacheFor() slot sees it from the first request.
  std::unique_ptr<ac::cache::RemoteCacheClient> Remote;
  if (!RemoteAddr.empty()) {
    Remote.reset(new ac::cache::RemoteCacheClient(RemoteAddr, RemoteToken));
    Opts.Remote = Remote.get();
  }

  // Blocked before the server spawns its threads, so a SIGTERM turns into
  // a drain instead of killing mid-request.
  ac::tools::ShutdownSignals Signals;
  Server Srv(Opts);
  if (!Srv.start()) {
    std::fprintf(stderr, "acd: cannot listen on %s\n",
                 Opts.SocketPath.empty() ? Opts.ListenAddr.c_str()
                                         : Opts.SocketPath.c_str());
    return 1;
  }
  if (!Opts.SocketPath.empty())
    std::printf("acd: listening on %s (workers=%u queue=%zu)\n",
                Opts.SocketPath.c_str(), Srv.options().Workers,
                Srv.options().QueueCapacity);
  if (!Opts.ListenAddr.empty())
    std::printf("acd: listening on tcp port %u (workers=%u queue=%zu)\n",
                static_cast<unsigned>(Srv.tcpPort()), Srv.options().Workers,
                Srv.options().QueueCapacity);
  std::fflush(stdout);
  ac::support::Log::info(
      "daemon.started",
      {{"socket", Opts.SocketPath},
       {"listen", Opts.ListenAddr},
       {"shard_id", Opts.ShardId},
       {"workers", Srv.options().Workers},
       {"queue", static_cast<uint64_t>(Srv.options().QueueCapacity)}});

  Signals.wait(Srv);

  std::printf("acd: draining (finishing in-flight work)\n");
  std::fflush(stdout);
  Srv.stop(); // drain + flush caches + teardown
  std::printf("acd: drained, bye\n");
  ac::support::Log::info("daemon.stopped", {});
  return 0;
}
