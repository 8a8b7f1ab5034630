//===- acc.cpp - Thin client for the acd verification daemon ---------------===//
//
// Submits one translation unit to a running acd and prints what came
// back. Sources come from a file, stdin (`-`), or the embedded corpus
// (`--corpus max`); `--golden` prints the exact golden-snapshot format
// of tests/core/GoldenSpecTest.cpp so daemon output can be diffed
// byte-for-byte against tests/golden/*.expected.
//
// Degrades gracefully: when the daemon or router is unreachable, dies
// mid-request, or answers `deadline_exceeded`/`busy`/`draining`, the
// check runs in-process through the same response builder
// (service/CheckRunner.h), against the same cache directory — the output
// bytes are identical either way. `--socket` and `--router` go through
// the one rule, service::checkWithFallback. `--no-fallback` turns this
// off for scripts that must know the daemon served them.
//
//   acc --socket /tmp/acd.sock file.c
//   acc --router 127.0.0.1:7000 --auth-token-file tok file.c
//   acc --socket /tmp/acd.sock --corpus swap --golden
//   acc --socket /tmp/acd.sock --stats
//
//===----------------------------------------------------------------------===//

#include "core/AutoCorres.h"
#include "corpus/Sources.h"
#include "daemon_main.h"
#include "service/CheckRunner.h"
#include "service/Client.h"
#include "support/RuleProfile.h"
#include "support/ThreadPool.h"

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>

using namespace ac::service;

namespace {

void usage(const char *Argv0) {
  std::fprintf(
      stderr,
      "usage: %s [options] [file.c | -]\n"
      "  --socket PATH     daemon socket (default: acd.sock)\n"
      "  --router H:P      send to an acrouter fleet front-end over TCP\n"
      "                    instead of a local daemon socket\n"
      "  --auth-token-file F present the shared token in F when dialing\n"
      "                    a --router (or any TCP) endpoint\n"
      "  --corpus NAME     use an embedded source instead of a file:\n"
      "                    max gcd swap midpoint binary_search suzuki\n"
      "                    memset reverse schorr_waite, or a synthetic\n"
      "                    scale: sel4 capdl piccolo echronos\n"
      "  --golden          print the golden-snapshot format (byte-\n"
      "                    compatible with tests/golden/*.expected)\n"
      "  --specs           request and print per-phase specs\n"
      "  --no-heap-abs F   keep F on the byte-level heap (repeatable)\n"
      "  --no-word-abs F   keep F on machine words (repeatable)\n"
      "  --jobs N          abstraction jobs for this request (0-256)\n"
      "  --cache-dir DIR   cache tier for this request\n"
      "  --timeout-ms N    per-request deadline enforced by the daemon\n"
      "  --priority P      interactive|bulk admission class (default:\n"
      "                    interactive; bulk is shed first on overload)\n"
      "  --tenant NAME     tenant label for the daemon's per-tenant\n"
      "                    admitted/shed ledger\n"
      "  --debug-delay-ms N  ask the daemon to hold the request (tests)\n"
      "  --no-fallback     fail instead of degrading to an in-process\n"
      "                    run when the daemon cannot serve the check\n"
      "  --trace FILE      run in-process and write a Chrome trace\n"
      "                    (chrome://tracing / Perfetto) to FILE\n"
      "  --cert FILE       run in-process and write a proof certificate\n"
      "                    claiming every pipeline theorem to FILE\n"
      "                    (check it with `acpc FILE`)\n"
      "  --cert-dir DIR    run in-process and write one certificate per\n"
      "                    function to DIR/<fingerprint>.acpc\n"
      "  --rule-profile    run in-process and print the per-rule\n"
      "                    fire/miss/self-time table\n"
      "  --trace-id ID     correlation id sent with the request\n"
      "  --log-file PATH   append structured JSONL log lines to PATH\n"
      "  --stats           print daemon stats JSON and exit\n"
      "  --metrics         print daemon metrics in Prometheus text\n"
      "                    exposition format and exit\n"
      "  --ping            liveness probe (exit 0 iff alive)\n"
      "  --drain           ask the daemon to drain and exit\n",
      Argv0);
}

/// Reproduces GoldenSpecTest's snapshot() byte-for-byte from a response.
std::string goldenSnapshot(const CheckResponse &Resp) {
  std::ostringstream OS;
  for (const FuncResult &F : Resp.Functions) {
    OS << "== function: " << F.Name << "\n";
    OS << "final: " << F.FinalKey << "\n";
    OS << "-- spec\n" << F.Render << "\n";
    OS << "-- theorem\n" << F.Pipeline << "\n";
  }
  OS << "== diagnostics\n";
  for (const std::string &D : Resp.Diagnostics)
    OS << D << "\n";
  return OS.str();
}

} // namespace

int main(int argc, char **argv) {
  Endpoint EP{"acd.sock", "", ""};
  std::string File, Corpus, TracePath, CertPath, CertDir;
  bool Golden = false, Stats = false, Ping = false, Drain = false;
  bool NoFallback = false, Metrics = false, RuleProfile = false;
  CheckRequest Req;

  std::string PrioName;
  ac::tools::DaemonFlags Flags("acc", usage, argc, argv);
  int RC = Flags.parse([&](const std::string &Arg) {
    using ac::tools::Flag;
    if (Arg == "--socket")
      return Flags.str(EP.SocketPath);
    if (Arg == "--router")
      return Flags.str(EP.TcpAddr);
    if (Arg == "--auth-token-file")
      return Flags.token(EP.Token, "auth");
    if (Arg == "--corpus")
      return Flags.str(Corpus);
    if (Arg == "--golden")
      return Flags.set(Golden);
    if (Arg == "--specs")
      return Flags.set(Req.WantSpecs);
    if (Arg == "--no-heap-abs")
      return Flags.add(Req.NoHeapAbs);
    if (Arg == "--no-word-abs")
      return Flags.add(Req.NoWordAbs);
    if (Arg == "--jobs")
      return Flags.num(Req.Jobs, 0, ac::support::ThreadPool::MaxJobs);
    if (Arg == "--cache-dir")
      return Flags.str(Req.CacheDir);
    if (Arg == "--timeout-ms")
      return Flags.num(Req.TimeoutMs);
    if (Arg == "--priority") {
      Flag F = Flags.str(PrioName);
      if (F == Flag::Taken && PrioName != "interactive" &&
          PrioName != "bulk") {
        std::fprintf(stderr, "acc: bad --priority `%s`\n", PrioName.c_str());
        return Flag::Failed;
      }
      Req.Prio = PrioName == "bulk" ? Priority::Bulk : Priority::Interactive;
      return F;
    }
    if (Arg == "--tenant")
      return Flags.str(Req.Tenant);
    if (Arg == "--debug-delay-ms")
      return Flags.num(Req.DebugDelayMs);
    if (Arg == "--no-fallback")
      return Flags.set(NoFallback);
    if (Arg == "--stats")
      return Flags.set(Stats);
    if (Arg == "--metrics")
      return Flags.set(Metrics);
    if (Arg == "--rule-profile")
      return Flags.set(RuleProfile);
    if (Arg == "--trace")
      return Flags.str(TracePath);
    if (Arg == "--cert")
      return Flags.str(CertPath);
    if (Arg == "--cert-dir")
      return Flags.str(CertDir);
    if (Arg == "--trace-id")
      return Flags.str(Req.TraceId);
    if (Arg == "--log-file")
      return Flags.logFile();
    if (Arg == "--ping")
      return Flags.set(Ping);
    if (Arg == "--drain")
      return Flags.set(Drain);
    if (Arg[0] == '-' && Arg != "-")
      return Flag::Unknown;
    File = Arg;
    return Flag::Taken;
  });
  if (RC >= 0)
    return RC;

  std::string Err;

  // Admin ops address a specific daemon; there is nothing to degrade to.
  if (Ping || Stats || Metrics || Drain) {
    Client C = EP.dial(Err);
    if (!C.connected()) {
      std::fprintf(stderr, "acc: cannot connect to %s (%s)\n",
                   EP.name().c_str(),
                   Err.empty() ? "is the daemon running?" : Err.c_str());
      return 1;
    }
    if (Ping) {
      if (!C.ping(Err)) {
        std::fprintf(stderr, "acc: ping failed: %s\n", Err.c_str());
        return 1;
      }
      std::printf("pong\n");
      return 0;
    }
    if (Stats) {
      ac::support::Json J;
      if (!C.stats(J, Err)) {
        std::fprintf(stderr, "acc: stats failed: %s\n", Err.c_str());
        return 1;
      }
      std::printf("%s\n", J.dump().c_str());
      return 0;
    }
    if (Metrics) {
      std::string Text;
      if (!C.metricsText(Text, Err)) {
        std::fprintf(stderr, "acc: metrics failed: %s\n", Err.c_str());
        return 1;
      }
      std::fputs(Text.c_str(), stdout);
      return 0;
    }
    if (!C.drain(Err)) {
      std::fprintf(stderr, "acc: drain failed: %s\n", Err.c_str());
      return 1;
    }
    std::printf("draining\n");
    return 0;
  }

  if (!Corpus.empty()) {
    if (!ac::corpus::namedSource(Corpus, Req.Source)) {
      std::fprintf(stderr, "acc: unknown corpus `%s`\n", Corpus.c_str());
      return 2;
    }
  } else if (File == "-") {
    std::ostringstream Buf;
    Buf << std::cin.rdbuf();
    Req.Source = Buf.str();
  } else if (!File.empty()) {
    std::ifstream In(File, std::ios::binary);
    if (!In.good()) {
      std::fprintf(stderr, "acc: cannot read %s\n", File.c_str());
      return 1;
    }
    std::ostringstream Buf;
    Buf << In.rdbuf();
    Req.Source = Buf.str();
  } else {
    usage(argv[0]);
    return 2;
  }

  CheckResponse Resp;
  bool UsedFallback = false;
  if (!TracePath.empty() || !CertPath.empty() || !CertDir.empty() ||
      RuleProfile) {
    // Tracing, certificate export, and rule profiling observe *this*
    // process's pipeline (a certificate records the local kernel's
    // derivations), so these modes always run in-process. Daemon-side
    // certificates go through `acd --cert-dir`.
    if (RuleProfile)
      ac::support::RuleProfile::setEnabled(true);
    CheckContext Ctx;
    Ctx.Jobs = Req.Jobs;
    Ctx.TracePath = TracePath;
    Ctx.CertPath = CertPath;
    Ctx.CertDir = CertDir;
    Resp = runCheck(Req, Ctx);
    UsedFallback = true;
  } else if (NoFallback) {
    Client C = EP.dial(Err);
    if (!C.connected()) {
      std::fprintf(stderr, "acc: cannot connect to %s (%s)\n",
                   EP.name().c_str(),
                   Err.empty() ? "is the daemon running?" : Err.c_str());
      return 1;
    }
    if (!C.checkRetry(Req, Resp, Err)) {
      std::fprintf(stderr, "acc: request failed: %s\n", Err.c_str());
      return 1;
    }
  } else {
    std::string Note;
    Resp = checkWithFallback(EP, Req, UsedFallback, Note);
    if (UsedFallback)
      std::fprintf(stderr, "acc: %s\n", Note.c_str());
  }
  if (!Resp.Ok) {
    std::fprintf(stderr, "acc: check failed: %s (%s)\n",
                 errorCodeName(Resp.Err), Resp.Message.c_str());
    for (const std::string &D : Resp.Diagnostics)
      std::fprintf(stderr, "  %s\n", D.c_str());
    return 1;
  }

  if (Golden) {
    std::fputs(goldenSnapshot(Resp).c_str(), stdout);
    return 0;
  }

  for (const FuncResult &F : Resp.Functions) {
    std::printf("---- %s ----\n", F.Name.c_str());
    std::printf("final: %s (heap-lifted: %s, word-abstracted: %s)\n",
                F.FinalKey.c_str(), F.HeapLifted ? "yes" : "no",
                F.WordAbstracted ? "yes" : "no");
    std::printf("%s\n", F.Render.c_str());
    if (Req.WantSpecs) {
      if (!F.L1Spec.empty())
        std::printf("-- L1\n%s\n", F.L1Spec.c_str());
      if (!F.L2Spec.empty())
        std::printf("-- L2\n%s\n", F.L2Spec.c_str());
      if (!F.HLSpec.empty())
        std::printf("-- HL\n%s\n", F.HLSpec.c_str());
      if (!F.WASpec.empty())
        std::printf("-- WA\n%s\n", F.WASpec.c_str());
    }
  }
  for (const std::string &D : Resp.Diagnostics)
    std::printf("note: %s\n", D.c_str());
  std::printf("[%s] functions=%u jobs=%u parse=%.3fs abstract=%.3fs "
              "cache(hits=%u misses=%u invalidations=%u)%s%s\n",
              UsedFallback ? "local" : "acd", Resp.NumFunctions, Resp.Jobs,
              Resp.ParseSeconds, Resp.AbstractWallSeconds, Resp.CacheHits,
              Resp.CacheMisses, Resp.CacheInvalidations,
              Resp.TraceId.empty() ? "" : " trace_id=",
              Resp.TraceId.c_str());
  if (!CertPath.empty() || !CertDir.empty())
    std::printf("certs: written=%u claims=%u skipped=%u\n",
                Resp.CertsWritten, Resp.CertClaims, Resp.CertSkipped);
  if (RuleProfile) {
    // Zero-fire rules still show up, so "this rule never fired on this
    // input" is visible.
    ac::core::AutoCorres::preregisterRules();
    std::fputs(ac::support::RuleProfile::table().c_str(), stdout);
  }
  return 0;
}
