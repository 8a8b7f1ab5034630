//===- actrace.cpp - Collect and merge fleet trace fragments --------------===//
//
// Pulls each process's trace fragment over the wire (`trace_pull`, which
// drains the remote buffers exactly once) and merges them into a single
// Chrome trace-event JSON: one pid lane per process labeled with its
// role, all timestamps rebased onto the earliest process's wall-clock
// anchor, spans chained across processes by trace_id/span/parent args.
//
//   actrace --out merged.json 127.0.0.1:7000 127.0.0.1:7001 ...
//
// Load the result in chrome://tracing or Perfetto, or gate its shape in
// CI with `aclint trace` / `aclint fleettrace`.
//
//===----------------------------------------------------------------------===//

#include "daemon_main.h"
#include "service/Client.h"
#include "support/TraceMerge.h"

#include <cstdio>
#include <string>
#include <vector>

using ac::service::Client;
using ac::support::Json;

namespace {

void usage(const char *Argv0) {
  std::fprintf(
      stderr,
      "usage: %s [options] HOST:PORT [HOST:PORT ...]\n"
      "  --out FILE          write the merged trace here (default: stdout)\n"
      "  --auth-token-file F auth token presented to each daemon\n"
      "\n"
      "Each address is an acd / acrouter / accached daemon; `trace_pull`\n"
      "drains its in-memory span buffer (boot the daemons with --trace).\n",
      Argv0);
}

} // namespace

int main(int argc, char **argv) {
  std::string OutPath;
  std::string Token;
  std::vector<std::string> Addrs;

  ac::tools::DaemonFlags Flags("actrace", usage, argc, argv);
  int RC = Flags.parse([&](const std::string &Arg) {
    if (Arg == "--out")
      return Flags.str(OutPath);
    if (Arg == "--auth-token-file")
      return Flags.token(Token, "auth");
    if (!Arg.empty() && Arg[0] == '-')
      return ac::tools::Flag::Unknown;
    Addrs.push_back(Arg);
    return ac::tools::Flag::Taken;
  });
  if (RC >= 0)
    return RC;
  if (Addrs.empty()) {
    usage(argv[0]);
    return 2;
  }

  std::vector<std::string> Fragments;
  bool AllOk = true;
  for (const std::string &Addr : Addrs) {
    std::string Err;
    Client C = Client::connectTcp(Addr, Token, Err);
    Json Resp;
    if (!C.connected() || !C.tracePull(Resp, Err)) {
      std::fprintf(stderr, "actrace: %s: %s\n", Addr.c_str(),
                   Err.empty() ? "trace_pull failed" : Err.c_str());
      AllOk = false;
      continue;
    }
    std::fprintf(stderr, "actrace: %s: pid %lld role `%s`\n", Addr.c_str(),
                 static_cast<long long>(Resp.get("pid").asInt()),
                 Resp.get("role").asString().c_str());
    Fragments.push_back(Resp.get("body").asString());
  }
  if (Fragments.empty()) {
    std::fprintf(stderr, "actrace: no fragments collected\n");
    return 1;
  }

  std::string Merged, Err;
  if (!ac::support::mergeTraceFragments(Fragments, Merged, Err)) {
    std::fprintf(stderr, "actrace: merge failed: %s\n", Err.c_str());
    return 1;
  }

  if (OutPath.empty()) {
    std::fwrite(Merged.data(), 1, Merged.size(), stdout);
  } else {
    std::FILE *F = std::fopen(OutPath.c_str(), "w");
    if (!F || std::fwrite(Merged.data(), 1, Merged.size(), F) !=
                  Merged.size()) {
      std::fprintf(stderr, "actrace: cannot write %s\n", OutPath.c_str());
      if (F)
        std::fclose(F);
      return 1;
    }
    std::fclose(F);
    std::fprintf(stderr, "actrace: wrote %s (%zu fragments)\n",
                 OutPath.c_str(), Fragments.size());
  }
  return AllOk ? 0 : 1;
}
