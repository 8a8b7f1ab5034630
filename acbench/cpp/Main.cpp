//===- Main.cpp - acbench: the cold / edit benchmark ----------------------===//
//
// Runs one workload for a fixed time and prints its metrics. Normally
// started through acbench/run.py, which builds this binary first:
//
//   acbench --workload cold|edit --seed N --seconds S --trace 0|1
//           [--repo DIR] [--out DIR] [--setup-only 1]
//
// --trace 0 prints the end-to-end metrics of the workload; --trace 1
// repeats the workload with the benchmark's own spans around every call
// and then runs the per-layer suite (Workloads.h), printing the
// per-layer metrics and writing a Chrome trace under --out. The last
// line of stdout is the result object. --setup-only 1 sets the workload
// up once, prints {"setup_s": S} and exits: an untraced run starts
// itself that way for its set-up samples.
//
//===----------------------------------------------------------------------===//

#include "Workloads.h"

#include "support/Json.h"
#include "support/Log.h"

#include <spawn.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>

extern char **environ;

using namespace acbench;
using ac::support::Json;

namespace {

#ifndef ACBENCH_BUILD_TYPE
#define ACBENCH_BUILD_TYPE "unknown"
#endif

/// Environment that would change what the program does behind the
/// benchmark's back; the benchmark pins jobs and cache settings itself.
std::vector<std::string> clearProgramEnv() {
  static const char *const Prefixes[] = {"AC_JOBS", "AC_CACHE", "AC_TRACE",
                                         "AC_CERT", "AC_FAULTS"};
  std::vector<std::string> Names;
  for (char **E = environ; *E; ++E) {
    std::string Var(*E);
    std::string Name = Var.substr(0, Var.find('='));
    for (const char *P : Prefixes)
      if (Name.rfind(P, 0) == 0)
        Names.push_back(Name);
  }
  for (const std::string &N : Names)
    ::unsetenv(N.c_str());
  return Names;
}

struct Metric {
  std::string Name, Unit;
  double Value;
};

/// The result object: the last line of stdout.
void printResult(bool Correct, unsigned Attempted, unsigned Failed,
                 const std::vector<Metric> &Ms) {
  Json Metrics = Json::object();
  for (const Metric &M : Ms) {
    Json V = Json::object();
    V.set("value", M.Value);
    V.set("unit", M.Unit);
    Metrics.set(M.Name, std::move(V));
  }
  Json Out = Json::object();
  Out.set("correct", Correct);
  Out.set("attempted", Attempted);
  Out.set("failed", Failed);
  Out.set("metrics", std::move(Metrics));
  std::printf("%s\n", Out.dump().c_str());
}

/// Starts this binary \p N times, one after the other, to set the
/// workload up once each (--setup-only), and returns the seconds each
/// reports: the first set-up of a fresh process, so one-time
/// initialisation is in every sample. Waits for every child.
std::vector<double> freshSetUps(const RunConfig &C, unsigned N,
                                std::vector<std::string> &Errors) {
  std::vector<double> Out;
  for (unsigned I = 0; I != N; ++I) {
    std::vector<std::string> Args = {
        "acbench", "--workload", C.Workload, "--seed", std::to_string(C.Seed),
        "--repo",  C.RepoDir,    "--out",    C.OutDir, "--setup-only", "1"};
    std::vector<char *> Argv;
    for (std::string &A : Args)
      Argv.push_back(A.data());
    Argv.push_back(nullptr);
    int Pipe[2];
    if (::pipe(Pipe) != 0) {
      Errors.push_back("set-up child: cannot create a pipe");
      return Out;
    }
    posix_spawn_file_actions_t Fa;
    posix_spawn_file_actions_init(&Fa);
    posix_spawn_file_actions_adddup2(&Fa, Pipe[1], STDOUT_FILENO);
    posix_spawn_file_actions_addclose(&Fa, Pipe[0]);
    posix_spawn_file_actions_addclose(&Fa, Pipe[1]);
    pid_t Pid = 0;
    int Rc = ::posix_spawn(&Pid, "/proc/self/exe", &Fa, nullptr, Argv.data(),
                           environ);
    posix_spawn_file_actions_destroy(&Fa);
    ::close(Pipe[1]);
    std::string Text;
    char Buf[4096];
    while (Rc == 0) {
      ssize_t K = ::read(Pipe[0], Buf, sizeof(Buf));
      if (K > 0)
        Text.append(Buf, static_cast<size_t>(K));
      else if (K == 0 || errno != EINTR)
        break;
    }
    ::close(Pipe[0]);
    int Status = 0;
    bool Exited = Rc == 0 && ::waitpid(Pid, &Status, 0) == Pid &&
                  WIFEXITED(Status) && WEXITSTATUS(Status) == 0;
    Json J;
    std::string Err;
    if (!Exited || !Json::parse(Text, J, Err) || !J.get("setup_s").isNumber()) {
      Errors.push_back("set-up child " + std::to_string(I) + " failed");
      continue;
    }
    Out.push_back(J.get("setup_s").asNumber());
  }
  return Out;
}

/// Units of the per-layer metrics, in the order they are printed.
const std::vector<std::pair<std::string, std::string>> &layerUnits() {
  static const std::vector<std::pair<std::string, std::string>> U = {
      {"cparser.parse_ms", "ms"},
      {"cparser.sema_ms", "ms"},
      {"simpl.translate_ms", "ms"},
      {"core.fingerprint_ms", "ms"},
      {"core.misses_per_check", "count"},
      {"core.cache_hit_rate", "ratio"},
      {"core.speedup_j4", "ratio"},
      {"core.cpu_inflation_j4", "ratio"},
      {"core.walk_coverage", "ratio"},
      {"monad.l1_ms", "ms"},
      {"monad.l2_ms", "ms"},
      {"heapabs.hl_ms", "ms"},
      {"heapabs.lifted_frac", "ratio"},
      {"wordabs.wa_ms", "ms"},
      {"wordabs.abstracted_frac", "ratio"},
      {"hol.render_ms", "ms"},
      {"hol.interned_per_check", "count"},
      {"service.rtt_ms", "ms"},
      {"service.runcheck_ms", "ms"},
      {"service.encode_ms", "ms"},
      {"service.decode_ms", "ms"},
      {"service.response_kb", "KiB"},
      {"router.overhead_ms", "ms"},
      {"router.busy_per_check", "count"},
      {"router.reroutes_per_check", "count"},
      {"router.hedges_per_check", "count"},
      {"router.busier_shard_share", "ratio"},
      {"cache.remote_get_ms", "ms"},
      {"cache.remote_gets_per_check", "count"},
      {"cache.remote_hit_rate", "ratio"},
      {"support.tcp_rtt_ms", "ms"},
      {"support.unix_rtt_ms", "ms"},
      {"bench.host_probe_ms", "ms"},
  };
  return U;
}

int usage() {
  std::fprintf(stderr, "usage: acbench --workload cold|edit --seed N "
                       "--seconds S --trace 0|1 [--repo DIR] [--out DIR]\n");
  return 2;
}

} // namespace

int main(int argc, char **argv) {
  std::vector<std::string> Cleared = clearProgramEnv();
  RunConfig C;
  bool SetupOnly = false;
  for (int I = 1; I < argc; ++I) {
    std::string A = argv[I];
    if (I + 1 >= argc)
      return usage();
    std::string V = argv[++I];
    if (A == "--workload")
      C.Workload = V;
    else if (A == "--seed")
      C.Seed = std::strtoull(V.c_str(), nullptr, 10);
    else if (A == "--seconds")
      C.Seconds = std::atof(V.c_str());
    else if (A == "--trace")
      C.Trace = V == "1";
    else if (A == "--repo")
      C.RepoDir = V;
    else if (A == "--out")
      C.OutDir = V;
    else if (A == "--setup-only")
      SetupOnly = V == "1";
    else
      return usage();
  }
  if (C.Seconds <= 0)
    return usage();
  ::mkdir(C.OutDir.c_str(), 0755);
  // Five in-process daemons would otherwise log every request.
  ac::support::Log::setLevel(ac::support::LogLevel::Warn);

  if (SetupOnly) {
    std::string Err;
    double S = setUpOnce(C, Err);
    if (S < 0) {
      std::fprintf(stderr, "acbench: set-up failed: %s\n", Err.c_str());
      return 1;
    }
    Json Out = Json::object();
    Out.set("setup_s", S);
    std::printf("%s\n", Out.dump().c_str());
    return 0;
  }

  std::vector<std::string> SetupErrors;
  std::vector<double> Setups;
  if (!C.Trace)
    Setups = freshSetUps(C, SetupReps - 1, SetupErrors);

  Tracer T(C.Trace);
  WorkloadResult R;
  Scoped Whole(T, "run." + C.Workload);
  if (C.Workload == "cold")
    R = runCold(C, T);
  else if (C.Workload == "edit")
    R = runEdit(C, T);
  else
    return usage();
  Whole.finish();
  Setups.push_back(R.SetupS);

  const LoopStats &L = R.Loop;
  std::optional<double> P50 = percentile(L.LatMs, 0.5);
  std::optional<double> P90 = percentile(L.LatMs, 0.9);
  double Ok = L.Attempted - L.Failed;
  std::printf("# acbench %s seed=%llu trace=%d: %u checks in %.2f s, "
              "setup %.3f s (median of %zu), references %.2f s, "
              "%u golden checks\n",
              C.Workload.c_str(), static_cast<unsigned long long>(C.Seed),
              C.Trace, L.Attempted, L.WallS, median(Setups), Setups.size(),
              R.RefS, R.GoldenChecked);
  if (P50 && P90)
    std::printf("# loop p50 %.2f ms, p90 %.2f ms, %.2f checks/s, "
                "host probe median %.2f ms\n",
                *P50, *P90, Ok / L.WallS, median(L.ProbeMs));

  std::vector<double> Probes = L.ProbeMs;
  std::map<std::string, double> Layers;
  std::vector<std::string> SuiteErrors = SetupErrors;
  if (C.Trace) {
    Scoped S(T, "suite");
    Layers = runLayerSuite(C, T, Probes, SuiteErrors);
    S.finish();
    Layers["bench.host_probe_ms"] = median(Probes);
    std::string Path = C.OutDir + "/trace-" + C.Workload + "-seed" +
                       std::to_string(C.Seed) + ".json";
    if (!T.writeChrome(Path))
      SuiteErrors.push_back("cannot write trace " + Path);
    std::printf("# trace written to %s; self time by span:\n", Path.c_str());
    for (const auto &[Name, Ms] : T.selfMs())
      std::printf("#   %-22s %10.1f ms\n", Name.c_str(), Ms);
  }

  for (const std::string &E : R.Errors)
    std::printf("# error: %s\n", E.c_str());
  for (const std::string &E : SuiteErrors)
    std::printf("# error: %s\n", E.c_str());

  Json Info = Json::object();
  Info.set("workload", C.Workload);
  Info.set("seed", C.Seed);
  Info.set("seconds", C.Seconds);
  Info.set("trace", C.Trace ? 1 : 0);
  Info.set("checks", L.Attempted);
  Info.set("loop_wall_s", L.WallS);
  Info.set("reference_s", R.RefS);
  Info.set("golden_checked", R.GoldenChecked);
  Info.set("host_probe_ms", median(L.ProbeMs));
  Info.set("nproc", std::thread::hardware_concurrency());
  Info.set("build_type", ACBENCH_BUILD_TYPE);
  Json SetupSamples = Json::array();
  for (double S : Setups)
    SetupSamples.push(S);
  Info.set("setup_samples_s", std::move(SetupSamples));
  Json Env = Json::array();
  for (const std::string &N : Cleared)
    Env.push(N);
  Info.set("env_cleared", std::move(Env));
  for (const auto &[K, V] : R.Info)
    Info.set(K, V);
  // Checks per second of the loop: with one caller, the inverse of the
  // mean latency, which slow host phases move more than the median.
  Info.set("ops_per_s", L.WallS > 0 ? Ok / L.WallS : 0);
  if (P50 && C.Trace)
    Info.set("traced_p50_ms", *P50);
  Json InfoLine = Json::object();
  InfoLine.set("info", std::move(Info));
  std::printf("%s\n", InfoLine.dump().c_str());

  if (L.Attempted == 0 || !P50 || !P90) {
    std::fprintf(stderr, "acbench: the %s loop did not produce enough "
                         "checks for its percentiles\n",
                 C.Workload.c_str());
    return 1;
  }
  bool Correct = R.Mismatches == 0 && L.Failed == 0 && SuiteErrors.empty();

  std::vector<Metric> Ms;
  if (!C.Trace) {
    Ms = {{"setup_s", "s", median(Setups)},
          {"p50_ms", "ms", *P50},
          {"p90_ms", "ms", *P90},
          {"cpu_ms_per_op", "ms", L.CpuS * 1e3 / L.Attempted},
          {"peak_rss_mb", "MiB", peakRssMb()}};
  } else {
    for (const auto &[Name, Unit] : layerUnits()) {
      auto It = Layers.find(Name);
      if (It == Layers.end()) {
        std::fprintf(stderr, "acbench: layer metric %s not measured\n",
                     Name.c_str());
        return 1;
      }
      Ms.push_back({Name, Unit, It->second});
    }
  }
  std::fflush(stdout);
  printResult(Correct, L.Attempted + R.GoldenChecked,
              L.Failed + R.Mismatches +
                  static_cast<unsigned>(SuiteErrors.size()),
              Ms);
  std::fflush(stdout);
  return Correct ? 0 : 1;
}
