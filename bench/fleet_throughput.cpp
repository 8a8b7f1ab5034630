//===- fleet_throughput.cpp - Router + remote cache tier under load --------===//
//
// Measures what the fleet exists for: aggregate check throughput across
// shards behind acrouter, and the cost of a shard restart. The workload
// is a stream of *distinct* translation units (a CI fleet checking many
// files), driven by dozens of concurrent clients through the real
// router socket, with every response byte-compared against a reference
// captured up front — zero correctness diffs is part of the pass
// criterion, not an afterthought.
//
// The headline comparison: after a restart (deploy) wipes the local
// memory and disk tiers, a standalone daemon — the pre-fleet
// architecture — re-pays full verification for every request, while
// fleet shards refill from the shared accached store. The requests/sec
// ratio between those two is the speedup column; the acceptance floor
// is 5x at 4 shards. Per shard count we also report p50/p99 client
// latency and the remote-tier hit rate observed by the accached store.
//
// A second, overload-focused pass drives a deliberately small fleet at
// 4x saturation with a 3:1 bulk:interactive mix.
// Pass criteria: interactive p99 within 2x of its unloaded value, at
// least 90% of sheds landing on bulk, zero starved tenants, and zero
// byte diffs among completed answers.
//
// Results are printed as a table and written to BENCH_fleet.json
// (linted by `aclint fleet`).
//
//===----------------------------------------------------------------------===//

#include "cache/RemoteCache.h"
#include "corpus/Synthetic.h"
#include "router/Router.h"
#include "service/CheckRunner.h"
#include "service/Client.h"
#include "service/Server.h"
#include "support/Json.h"
#include "support/Log.h"

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

using namespace ac;
using namespace ac::service;
using ac::support::Json;

namespace {

using Clock = std::chrono::steady_clock;

double msSince(Clock::time_point T0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - T0)
      .count();
}

double percentile(std::vector<double> V, double Q) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  size_t I = static_cast<size_t>(Q * (V.size() - 1) + 0.5);
  return V[std::min(I, V.size() - 1)];
}

/// The byte-identity snapshot (same shape as RouterTest's): every spec,
/// key, pipeline line and diagnostic a response carries.
std::string snapshot(const CheckResponse &R) {
  std::string S;
  for (const FuncResult &F : R.Functions)
    S += "== " + F.Name + "\n" + F.FinalKey + "\n" + F.Render + "\n" +
         F.Pipeline + "\n";
  for (const std::string &D : R.Diagnostics)
    S += D + "\n";
  return S;
}

/// One measured pass: C client threads drive the source pool through
/// `dial`, each source exactly once, byte-checking against `Refs`.
struct PassResult {
  double Rps = 0, P50 = 0, P99 = 0;
  int Ok = 0, Diffs = 0, Requests = 0;
};

template <typename DialFn>
PassResult drivePool(const std::vector<std::string> &Pool,
                     const std::vector<std::string> &Refs, unsigned Clients,
                     DialFn dial, std::vector<std::string> *CaptureRefs) {
  PassResult R;
  R.Requests = static_cast<int>(Pool.size());
  std::vector<std::thread> Ts;
  std::vector<std::vector<double>> Lat(Clients);
  std::atomic<int> Ok{0}, Diffs{0};
  auto T0 = Clock::now();
  for (unsigned CI = 0; CI != Clients; ++CI)
    Ts.emplace_back([&, CI] {
      Client C = dial();
      for (size_t I = CI; I < Pool.size(); I += Clients) {
        CheckRequest Req;
        Req.Source = Pool[I];
        CheckResponse Resp;
        std::string Err;
        auto TR = Clock::now();
        bool Sent = C.checkRetry(Req, Resp, Err);
        Lat[CI].push_back(msSince(TR));
        if (!Sent || !Resp.Ok) {
          ++Diffs; // a lost request is a correctness diff, not a blip
          continue;
        }
        ++Ok;
        if (CaptureRefs)
          (*CaptureRefs)[I] = snapshot(Resp);
        else if (snapshot(Resp) != Refs[I])
          ++Diffs;
      }
    });
  for (std::thread &T : Ts)
    T.join();
  double Secs = msSince(T0) / 1e3;
  std::vector<double> AllMs;
  for (const std::vector<double> &L : Lat)
    AllMs.insert(AllMs.end(), L.begin(), L.end());
  R.Rps = Secs > 0 ? Ok.load() / Secs : 0;
  R.P50 = percentile(AllMs, 0.50);
  R.P99 = percentile(AllMs, 0.99);
  R.Ok = Ok.load();
  R.Diffs = Diffs.load();
  return R;
}

} // namespace

int main() {
  // Per-request info logs from five daemons would drown the table.
  support::Log::setLevel(support::LogLevel::Warn);
  std::string Root =
      (std::filesystem::temp_directory_path() / "ac-fleet-bench").string();
  std::filesystem::remove_all(Root);
  std::filesystem::create_directories(Root);

  // The workload: a pool of distinct small translation units (the fleet
  // case is many files, not one file many times — repeats of one file
  // pin to one shard by design, cache affinity).
  constexpr unsigned PoolSize = 96, Clients = 32;
  std::vector<std::string> Pool;
  for (unsigned I = 0; I != PoolSize; ++I) {
    corpus::SyntheticSpec Spec;
    Spec.Name = "fleet" + std::to_string(I);
    Spec.TargetFunctions = 3;
    Spec.StatementsPerFunction = 14;
    Spec.Seed = I + 1;
    Pool.push_back(corpus::generateSyntheticProgram(Spec));
  }

  // The shared content-addressed store every fleet shard writes through
  // to — one accached, in-process, on a private Unix socket.
  cache::RemoteCacheServerOptions CO;
  CO.SocketPath = Root + "/accached.sock";
  cache::RemoteCacheServer Cached(CO);
  if (!Cached.start()) {
    std::printf("cannot start accached on %s\n", CO.SocketPath.c_str());
    return 1;
  }

  // Seed pass: one daemon with the remote tier attached computes the
  // whole pool cold, write-through warming accached, and its responses
  // become the byte-identity reference for every later pass.
  std::vector<std::string> Refs(PoolSize);
  PassResult Seed;
  {
    cache::RemoteCacheClient Remote(CO.SocketPath);
    ServerOptions SO;
    SO.SocketPath = Root + "/seed.sock";
    SO.Workers = 2;
    SO.QueueCapacity = 32;
    SO.CacheDir = Root + "/seed-cache";
    SO.Remote = &Remote;
    Server Srv(SO);
    if (!Srv.start()) {
      std::printf("cannot start seed daemon\n");
      return 1;
    }
    Seed = drivePool(Pool, Refs, Clients,
                     [&] { return Client::connect(SO.SocketPath); }, &Refs);
    Srv.stop();
    if (Seed.Ok != static_cast<int>(PoolSize)) {
      std::printf("seed pass failed: %d/%u ok\n", Seed.Ok, PoolSize);
      return 1;
    }
  }
  // Spot-check the reference against the in-process pipeline: the
  // daemon-served bytes and a local run must agree before we benchmark.
  for (unsigned I = 0; I != PoolSize; I += PoolSize / 4) {
    CheckRequest Req;
    Req.Source = Pool[I];
    CheckResponse Local = runLocalCheck(Req);
    if (!Local.Ok || snapshot(Local) != Refs[I]) {
      std::printf("reference diverged from in-process run at source %u\n",
                  I);
      return 1;
    }
  }

  // Baseline: the pre-fleet architecture after a restart. A standalone
  // daemon with fresh tiers and no remote store recomputes everything.
  PassResult Single;
  {
    ServerOptions SO;
    SO.SocketPath = "";
    SO.ListenAddr = "127.0.0.1:0";
    SO.Workers = 2;
    SO.QueueCapacity = 32;
    SO.CacheDir = Root + "/single-cache";
    Server Srv(SO);
    if (!Srv.start()) {
      std::printf("cannot start baseline daemon\n");
      return 1;
    }
    std::string Addr = "127.0.0.1:" + std::to_string(Srv.tcpPort());
    Single = drivePool(Pool, Refs, Clients,
                       [&] {
                         std::string Err;
                         return Client::connectTcp(Addr, "", Err);
                       },
                       nullptr);
    Srv.stop();
  }

  // Fleet passes: P fresh shards (cold memory + disk, like the baseline)
  // behind acrouter, refilling from the warm accached store.
  struct FleetRow {
    unsigned Shards;
    PassResult R;
    double HitRate;
  };
  std::vector<FleetRow> Rows;
  for (unsigned P : {1u, 2u, 4u}) {
    std::string Dir = Root + "/fleet" + std::to_string(P);
    std::filesystem::create_directories(Dir);
    std::vector<std::unique_ptr<cache::RemoteCacheClient>> Remotes;
    std::vector<std::unique_ptr<Server>> Shards;
    router::RouterOptions RO;
    for (unsigned I = 0; I != P; ++I) {
      Remotes.push_back(
          std::make_unique<cache::RemoteCacheClient>(CO.SocketPath));
      ServerOptions SO;
      SO.SocketPath = "";
      SO.ListenAddr = "127.0.0.1:0";
      SO.Workers = 2;
      SO.QueueCapacity = 32;
      SO.CacheDir = Dir + "/shard" + std::to_string(I);
      SO.Remote = Remotes.back().get();
      auto S = std::make_unique<Server>(SO);
      if (!S->start()) {
        std::printf("cannot start shard %u/%u\n", I, P);
        return 1;
      }
      RO.Shards.push_back("127.0.0.1:" + std::to_string(S->tcpPort()));
      Shards.push_back(std::move(S));
    }
    RO.SocketPath = Dir + "/r.sock";
    RO.MaxInFlightPerShard = 16;
    RO.RetryAfterMs = 5;
    RO.HealthProbeMs = 200;
    router::Router R(RO);
    if (!R.start()) {
      std::printf("cannot start router for %u shards\n", P);
      return 1;
    }
    uint64_t Gets0 = Cached.store().gets(), Hits0 = Cached.store().hits();
    PassResult PR =
        drivePool(Pool, Refs, Clients,
                  [&] { return Client::connect(RO.SocketPath); }, nullptr);
    uint64_t Gets = Cached.store().gets() - Gets0;
    uint64_t Hits = Cached.store().hits() - Hits0;
    R.stop();
    for (auto &S : Shards)
      S->stop();
    Rows.push_back(
        {P, PR, Gets ? static_cast<double>(Hits) / Gets : 0.0});
  }

  // Overload pass: the same warm pool against a deliberately small
  // fleet (2 shards, 1 worker and a 4-slot queue each), first with
  // interactive load alone, then with 4x the client count by adding a
  // 3:1 bulk mix on top. The overload contract: the bulk flood is shed
  // (staleness), not queued ahead of interactive work, so interactive
  // p99 stays within 2x of its unloaded value; at least 90% of sheds
  // land on bulk; every tenant still completes work; and completed
  // answers stay byte-identical to the reference.
  struct OverloadResult {
    double UnloadedP99 = 0, LoadedP99 = 0;
    uint64_t InteractiveOk = 0, BulkOk = 0;
    uint64_t ShedBulk = 0, ShedInteractive = 0, Busy = 0;
    int Diffs = 0, StarvedTenants = 0;
  } Ov;
  {
    std::string Dir = Root + "/overload";
    std::filesystem::create_directories(Dir);
    std::vector<std::unique_ptr<cache::RemoteCacheClient>> Remotes;
    std::vector<std::unique_ptr<Server>> Shards;
    router::RouterOptions RO;
    for (unsigned I = 0; I != 2; ++I) {
      Remotes.push_back(
          std::make_unique<cache::RemoteCacheClient>(CO.SocketPath));
      ServerOptions SO;
      SO.SocketPath = "";
      SO.ListenAddr = "127.0.0.1:0";
      SO.Workers = 1;
      SO.QueueCapacity = 4;
      SO.CacheDir = Dir + "/shard" + std::to_string(I);
      SO.Remote = Remotes.back().get();
      auto S = std::make_unique<Server>(SO);
      if (!S->start()) {
        std::printf("cannot start overload shard %u\n", I);
        return 1;
      }
      RO.Shards.push_back("127.0.0.1:" + std::to_string(S->tcpPort()));
      Shards.push_back(std::move(S));
    }
    RO.SocketPath = Dir + "/r.sock";
    RO.RetryAfterMs = 2;
    RO.HealthProbeMs = 200;
    router::Router R(RO);
    if (!R.start()) {
      std::printf("cannot start overload router\n");
      return 1;
    }

    const std::array<const char *, 4> FgTenants = {"fg0", "fg1", "fg2",
                                                   "fg3"};
    const std::array<const char *, 4> BulkTenants = {"bulk0", "bulk1",
                                                     "bulk2", "bulk3"};
    std::mutex TenantsM;
    std::map<std::string, uint64_t> TenantOk;

    // One interactive client: paced (2 ms think time) so the
    // interactive load alone never saturates the fleet — the unloaded
    // p99 is a real latency floor, not another congestion measurement.
    auto interactiveClient = [&](unsigned Id, int Requests,
                                 std::vector<double> &Lat,
                                 std::atomic<uint64_t> &OkC,
                                 std::atomic<uint64_t> &ShedC,
                                 std::atomic<uint64_t> &BusyC,
                                 std::atomic<int> &DiffsC) {
      for (int I = 0; I != Requests; ++I) {
        size_t Src = (Id * 131 + static_cast<size_t>(I) * 17) % PoolSize;
        CheckRequest Req;
        Req.Source = Pool[Src];
        Req.Tenant = FgTenants[Id % FgTenants.size()];
        Client C = Client::connect(RO.SocketPath);
        CheckResponse Resp;
        std::string Err;
        auto TR = Clock::now();
        bool Sent = C.check(Req, Resp, Err);
        double Ms = msSince(TR);
        if (!Sent) {
          ++DiffsC;
        } else if (Resp.Ok) {
          Lat.push_back(Ms);
          OkC.fetch_add(1);
          if (snapshot(Resp) != Refs[Src])
            ++DiffsC;
          std::lock_guard<std::mutex> L(TenantsM);
          TenantOk[Req.Tenant]++;
        } else if (Resp.Err == ErrorCode::Shed) {
          ShedC.fetch_add(1);
        } else if (Resp.Err == ErrorCode::Busy) {
          BusyC.fetch_add(1);
        } else {
          ++DiffsC; // interactive load must never see other errors here
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
      }
    };

    constexpr unsigned FgClients = 8;
    constexpr int FgRequests = 40;
    // The bound below is 2x the unloaded p99, so that p99 needs samples
    // beyond it: 8 x 128 puts ten there, where 8 x 40 put three.
    constexpr int FgUnloadedRequests = 128;
    std::atomic<uint64_t> FgOk{0}, FgShed{0}, FgBusy{0};
    std::atomic<int> OvDiffs{0};

    // Phase 1: unloaded — interactive alone.
    {
      std::vector<std::vector<double>> Lat(FgClients);
      std::vector<std::thread> Ts;
      for (unsigned I = 0; I != FgClients; ++I)
        Ts.emplace_back([&, I] {
          interactiveClient(I, FgUnloadedRequests, Lat[I], FgOk, FgShed,
                            FgBusy, OvDiffs);
        });
      for (std::thread &T : Ts)
        T.join();
      std::vector<double> All;
      for (const std::vector<double> &L : Lat)
        All.insert(All.end(), L.begin(), L.end());
      Ov.UnloadedP99 = percentile(All, 0.99);
    }

    // Teach both shards that slow requests exist: a handful of held
    // requests (server-side debug delay) push the observed p99 service
    // time to tens of milliseconds, so a bulk deadline below it is
    // recognisably hopeless — the condition staleness shedding tests.
    {
      std::vector<std::thread> Ts;
      for (unsigned I = 0; I != 12; ++I)
        Ts.emplace_back([&, I] {
          corpus::SyntheticSpec Spec;
          Spec.Name = "ovslow" + std::to_string(I);
          Spec.TargetFunctions = 1;
          Spec.StatementsPerFunction = 4;
          Spec.Seed = 9000 + I;
          CheckRequest Req;
          Req.Source = corpus::generateSyntheticProgram(Spec);
          Req.DebugDelayMs = 30;
          Client C = Client::connect(RO.SocketPath);
          CheckResponse Resp;
          std::string Err;
          C.checkRetry(Req, Resp, Err);
        });
      for (std::thread &T : Ts)
        T.join();
    }

    // Phase 2: 4x saturation — the same interactive load plus a 3:1
    // bulk flood. Half the bulk carries a 5 ms deadline (hopeless
    // against the ~30 ms observed p99: shed on sight), half an ample
    // one (queues into the bulk-capped slots, keeps bulk tenants fed).
    std::atomic<uint64_t> BulkOk{0}, BulkShed{0}, BulkBusy{0};
    double LoadedP99 = 0;
    {
      constexpr unsigned BulkClients = FgClients * 3; // 3:1 mix, 4x total
      constexpr int BulkRequests = 40;
      std::vector<std::vector<double>> Lat(FgClients);
      std::vector<std::thread> Ts;
      for (unsigned I = 0; I != FgClients; ++I)
        Ts.emplace_back([&, I] {
          interactiveClient(I, FgRequests, Lat[I], FgOk, FgShed, FgBusy,
                            OvDiffs);
        });
      for (unsigned B = 0; B != BulkClients; ++B)
        Ts.emplace_back([&, B] {
          for (int I = 0; I != BulkRequests; ++I) {
            size_t Src =
                (B * 37 + static_cast<size_t>(I) * 11) % PoolSize;
            CheckRequest Req;
            Req.Source = Pool[Src];
            Req.Prio = Priority::Bulk;
            Req.Tenant = BulkTenants[B % BulkTenants.size()];
            Req.TimeoutMs = (I % 2) ? 5u : 60000u;
            Client C = Client::connect(RO.SocketPath);
            CheckResponse Resp;
            std::string Err;
            // Viable bulk behaves like a real batch client: bounded
            // busy retries. (checkRetry never retries `shed`, so a
            // tenant whose every request is shed registers as starved.)
            bool Sent = (I % 2) ? C.check(Req, Resp, Err)
                                : C.checkRetry(Req, Resp, Err, 6, 2000);
            if (!Sent) {
              ++OvDiffs;
            } else if (Resp.Ok) {
              BulkOk.fetch_add(1);
              if (snapshot(Resp) != Refs[Src])
                ++OvDiffs;
              std::lock_guard<std::mutex> L(TenantsM);
              TenantOk[Req.Tenant]++;
            } else if (Resp.Err == ErrorCode::Shed) {
              BulkShed.fetch_add(1);
            } else if (Resp.Err == ErrorCode::Busy ||
                       Resp.Err == ErrorCode::DeadlineExceeded) {
              BulkBusy.fetch_add(1);
            } else {
              ++OvDiffs;
            }
          }
        });
      for (std::thread &T : Ts)
        T.join();
      std::vector<double> All;
      for (const std::vector<double> &L : Lat)
        All.insert(All.end(), L.begin(), L.end());
      LoadedP99 = percentile(All, 0.99);
    }

    Ov.LoadedP99 = LoadedP99;
    Ov.InteractiveOk = FgOk.load();
    Ov.BulkOk = BulkOk.load();
    Ov.ShedBulk = BulkShed.load();
    Ov.ShedInteractive = FgShed.load();
    Ov.Busy = FgBusy.load() + BulkBusy.load();
    Ov.Diffs = OvDiffs.load();
    {
      std::lock_guard<std::mutex> L(TenantsM);
      for (const char *T : FgTenants)
        if (!TenantOk[T])
          ++Ov.StarvedTenants;
      for (const char *T : BulkTenants)
        if (!TenantOk[T])
          ++Ov.StarvedTenants;
    }

    R.stop();
    for (auto &S : Shards)
      S->stop();
  }

  Cached.stop();

  double Speedup4 = 0;
  for (const FleetRow &Row : Rows)
    if (Row.Shards == 4 && Single.Rps > 0)
      Speedup4 = Row.R.Rps / Single.Rps;

  std::printf("fleet throughput (%u distinct sources, %u concurrent "
              "clients, post-restart pass)\n",
              PoolSize, Clients);
  std::printf("  %-26s %8.1f req/s   p50 %7.2f ms   p99 %7.2f ms  "
              "(%d/%d ok)\n",
              "single daemon (no fleet)", Single.Rps, Single.P50,
              Single.P99, Single.Ok, Single.Requests);
  for (const FleetRow &Row : Rows)
    std::printf("  %u shard(s) behind acrouter  %8.1f req/s   p50 %7.2f "
                "ms   p99 %7.2f ms  (%d/%d ok, remote hit rate %.2f)\n",
                Row.Shards, Row.R.Rps, Row.R.P50, Row.R.P99, Row.R.Ok,
                Row.R.Requests, Row.HitRate);
  std::printf("  speedup at 4 shards          %.1fx  (floor >= 5x)\n",
              Speedup4);
  int TotalDiffs = Single.Diffs;
  for (const FleetRow &Row : Rows)
    TotalDiffs += Row.R.Diffs;
  TotalDiffs += Ov.Diffs;
  if (TotalDiffs)
    std::printf("  FAIL: %d correctness diffs against the reference\n",
                TotalDiffs);

  // The overload verdict. The p99 bound gets a 1 ms floor so a
  // sub-millisecond unloaded measurement on a fast box does not turn
  // scheduler jitter into a failed bench.
  uint64_t ShedsTotal = Ov.ShedBulk + Ov.ShedInteractive;
  double BulkShedFrac =
      ShedsTotal ? static_cast<double>(Ov.ShedBulk) / ShedsTotal : 1.0;
  double P99Bound = 2.0 * std::max(Ov.UnloadedP99, 1.0);
  bool OvLatencyOk = Ov.LoadedP99 <= P99Bound;
  bool OvShedsOk = ShedsTotal >= 1 && BulkShedFrac >= 0.9;
  bool OvPass = OvLatencyOk && OvShedsOk && Ov.StarvedTenants == 0 &&
                Ov.Diffs == 0;
  std::printf("overload (4x saturation, 3:1 bulk:interactive)\n");
  std::printf("  interactive p99              %7.2f ms unloaded -> %7.2f "
              "ms loaded  (bound %.2f ms)%s\n",
              Ov.UnloadedP99, Ov.LoadedP99, P99Bound,
              OvLatencyOk ? "" : "  FAIL");
  std::printf("  sheds                        %llu total, %.0f%% bulk  "
              "(floor 90%%)%s\n",
              static_cast<unsigned long long>(ShedsTotal),
              BulkShedFrac * 100, OvShedsOk ? "" : "  FAIL");
  std::printf("  completed                    %llu interactive, %llu bulk, "
              "%llu busy/deadline, %d starved tenant(s), %d diffs\n",
              static_cast<unsigned long long>(Ov.InteractiveOk),
              static_cast<unsigned long long>(Ov.BulkOk),
              static_cast<unsigned long long>(Ov.Busy), Ov.StarvedTenants,
              Ov.Diffs);

  auto passJson = [](const PassResult &P) {
    Json J = Json::object();
    J.set("requests_per_sec", P.Rps);
    J.set("p50_ms", P.P50);
    J.set("p99_ms", P.P99);
    J.set("ok", static_cast<int64_t>(P.Ok));
    J.set("requests", static_cast<int64_t>(P.Requests));
    J.set("diffs", static_cast<int64_t>(P.Diffs));
    return J;
  };
  Json Out = Json::object();
  Out.set("bench", "fleet_throughput");
  Out.set("sources", static_cast<uint64_t>(PoolSize));
  Out.set("concurrent_clients", static_cast<uint64_t>(Clients));
  Out.set("baseline", passJson(Single));
  Json Fleets = Json::array();
  for (const FleetRow &Row : Rows) {
    Json F = passJson(Row.R);
    F.set("shards", static_cast<uint64_t>(Row.Shards));
    F.set("remote_hit_rate", Row.HitRate);
    Fleets.push(std::move(F));
  }
  Out.set("fleets", std::move(Fleets));
  Out.set("speedup_at_4", Speedup4);
  Out.set("target_speedup", 5);
  {
    Json OvJ = Json::object();
    OvJ.set("unloaded_interactive_p99_ms", Ov.UnloadedP99);
    OvJ.set("loaded_interactive_p99_ms", Ov.LoadedP99);
    OvJ.set("p99_bound_ms", P99Bound);
    OvJ.set("sheds_total", ShedsTotal);
    OvJ.set("sheds_bulk_fraction", BulkShedFrac);
    OvJ.set("interactive_ok", Ov.InteractiveOk);
    OvJ.set("bulk_ok", Ov.BulkOk);
    OvJ.set("busy_or_deadline", Ov.Busy);
    OvJ.set("starved_tenants", static_cast<int64_t>(Ov.StarvedTenants));
    OvJ.set("diffs", static_cast<int64_t>(Ov.Diffs));
    OvJ.set("pass", OvPass);
    Out.set("overload", std::move(OvJ));
  }
  {
    FILE *F = std::fopen("BENCH_fleet.json", "w");
    if (F) {
      std::string S = Out.dump();
      std::fwrite(S.data(), 1, S.size(), F);
      std::fputc('\n', F);
      std::fclose(F);
      std::printf("  wrote BENCH_fleet.json\n");
    }
  }
  std::filesystem::remove_all(Root);
  return (Speedup4 >= 5.0 && TotalDiffs == 0 && OvPass) ? 0 : 1;
}
