//===- Workloads.cpp - The cold and edit workloads, the layer suite -------===//

#include "Workloads.h"

#include "cache/RemoteCache.h"
#include "core/AutoCorres.h"
#include "core/ResultCache.h"
#include "corpus/Synthetic.h"
#include "cparser/Parser.h"
#include "cparser/Sema.h"
#include "hol/Print.h"
#include "hol/Term.h"
#include "router/Router.h"
#include "service/CheckRunner.h"
#include "service/Client.h"
#include "service/Server.h"
#include "simpl/Program.h"
#include "support/Diagnostics.h"

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <functional>
#include <memory>
#include <thread>

using namespace acbench;
using namespace ac;
using service::CheckContext;
using service::CheckRequest;
using service::CheckResponse;
using service::Client;

void WorkloadResult::fail(const std::string &What) {
  if (Errors.size() < 8)
    Errors.push_back(What);
}

namespace {

/// The cold workload runs at the daemonless `acc` default of one job
/// (AC_JOBS unset). At four jobs its end-to-end figures moved by up to
/// 2x from run to run with the load other tenants put on the host's
/// cores (README.md, "Noise"); the traced run reports parallel
/// efficiency per layer instead (core.speedup_j4, core.cpu_inflation_j4).
constexpr unsigned ColdJobs = 1;
constexpr unsigned ParallelJobs = 4;
constexpr unsigned FleetClients = 4;
const char *const FleetToken = "acbench-fleet-token";

/// The loop's stop rule (see MinChecks).
bool keepGoing(Clock::time_point T0, double Seconds, size_t Done) {
  double S = msSince(T0) / 1e3;
  if (S >= std::max(MaxLoopSeconds, Seconds * 4))
    return false;
  return S < Seconds || Done < MinChecks;
}

/// A check through the daemonless path, as `acc` runs it without a
/// daemon: no abstraction cache, a private pool per run above one job.
CheckResponse localCheck(const std::string &Src, unsigned Jobs,
                         core::ResultCache *Cache = nullptr) {
  CheckRequest Req;
  Req.Source = Src;
  Req.Jobs = Jobs;
  CheckContext Ctx;
  Ctx.Jobs = Jobs;
  Ctx.SharedCache = Cache;
  return service::runCheck(Req, Ctx);
}

/// The serial, uncached, in-process answer every other path must match.
std::string reference(const std::string &Src) {
  return snapshot(localCheck(Src, 1));
}

using CheckFn = std::function<bool(const std::string &, CheckResponse &,
                                   std::string &)>;

/// The five paper examples through one workload's path, byte for byte
/// against tests/golden/*.expected.
void checkGoldens(const RunConfig &C, const std::string &Path,
                  const CheckFn &Check, WorkloadResult &R) {
  for (const auto &[Name, Src] : goldenExamples()) {
    ++R.GoldenChecked;
    std::string Want = readGolden(C.RepoDir, Name);
    CheckResponse Resp;
    std::string Err;
    if (Want.empty()) {
      ++R.Mismatches;
      R.fail("golden " + Name + ": cannot read tests/golden/" + Name +
             ".expected");
    } else if (!Check(Src, Resp, Err) || !Resp.Ok) {
      ++R.Mismatches;
      R.fail("golden " + Name + " via " + Path + ": check failed " + Err +
             Resp.Message);
    } else if (goldenSnapshot(Resp) != Want) {
      ++R.Mismatches;
      R.fail("golden " + Name + " via " + Path + ": output differs");
    }
  }
}

/// cold's set-up: there is no daemon to start, so it is one check of a
/// program outside the pool, which does the lazy rule and simpset set-up
/// before the timed loop.
bool coldWarmUp(std::string &Err) {
  const std::string WarmUp =
      corpus::generateSyntheticProgram(corpus::echronosScale());
  if (localCheck(WarmUp, ColdJobs).Ok)
    return true;
  Err = "cold warm-up check failed";
  return false;
}

std::string socketPath(const RunConfig &C, const std::string &Tag) {
  static std::atomic<unsigned> Seq{0};
  return C.OutDir + "/" + Tag + "-" + std::to_string(::getpid()) + "-" +
         std::to_string(Seq++) + ".sock";
}

//===----------------------------------------------------------------------===//
// The edit daemon
//===----------------------------------------------------------------------===//

/// An in-process acd on a Unix socket, primed with one translation unit.
struct EditDaemon {
  std::unique_ptr<service::Server> Srv;
  Client Conn;
  CheckResponse Primed;

  EditDaemon() = default;
  EditDaemon(const EditDaemon &) = delete;
  EditDaemon &operator=(const EditDaemon &) = delete;

  bool start(const RunConfig &C, const std::string &Base, std::string &Err) {
    service::ServerOptions SO;
    SO.SocketPath = socketPath(C, "acd");
    SO.Jobs = 1; // the daemon default
    Srv = std::make_unique<service::Server>(SO);
    if (!Srv->start()) {
      Err = "cannot start acd on " + SO.SocketPath;
      return false;
    }
    Conn = Client::connect(SO.SocketPath);
    if (!Conn.connected()) {
      Err = "cannot connect to acd";
      return false;
    }
    CheckRequest Req;
    Req.Source = Base;
    if (!Conn.check(Req, Primed, Err) || !Primed.Ok) {
      Err = "prime failed: " + Err + Primed.Message;
      return false;
    }
    // Warm re-checks of the unchanged unit: every function a hit.
    for (int I = 0; I != 2; ++I) {
      CheckResponse Warm;
      if (!Conn.check(Req, Warm, Err) || !Warm.Ok) {
        Err = "warm-up failed: " + Err;
        return false;
      }
    }
    return true;
  }

  ~EditDaemon() {
    Conn = Client();
    if (Srv)
      Srv->stop();
  }
};

//===----------------------------------------------------------------------===//
// The fleet
//===----------------------------------------------------------------------===//

/// Fills accached in-process: a ResultCache whose remote tier writes
/// straight into the store, standing in for the previous deploy.
class StoreTier : public core::RemoteTier {
public:
  StoreTier(cache::RemoteCacheStore &S, std::vector<uint64_t> &Keys)
      : S(S), Keys(Keys) {}
  StoreTier(const StoreTier &) = delete;
  StoreTier &operator=(const StoreTier &) = delete;
  bool get(uint64_t Key, core::CachedFunc &Out) override {
    std::string Blob;
    return S.get(Key, Blob) && core::parseCachedFunc(Blob, Out);
  }
  void put(const core::CachedFunc &E) override {
    if (S.put(E.Key, core::serializeCachedFunc(E)))
      Keys.push_back(E.Key);
  }

private:
  cache::RemoteCacheStore &S;
  std::vector<uint64_t> &Keys;
};

/// accached, two acd shards and acrouter, all in-process over TCP
/// loopback with token auth. Shard 0 also listens on a Unix socket so
/// the two transports can be compared on one daemon.
struct Fleet {
  std::unique_ptr<cache::RemoteCacheServer> Cached;
  std::vector<std::unique_ptr<cache::RemoteCacheClient>> Remotes;
  std::vector<std::unique_ptr<service::Server>> Shards;
  std::unique_ptr<router::Router> Rtr;
  std::string RouterAddr, CacheAddr, Shard0Unix;
  std::vector<std::string> ShardAddrs;
  std::vector<Client> Clients;
  std::vector<uint64_t> StoredKeys; ///< what the fill put into accached

  Fleet() = default;
  Fleet(const Fleet &) = delete;
  Fleet &operator=(const Fleet &) = delete;

  bool start(const RunConfig &C, const std::vector<std::string> &Pool,
             std::string &Err) {
    cache::RemoteCacheServerOptions CO;
    CO.ListenAddr = "127.0.0.1:0";
    CO.AuthToken = FleetToken;
    Cached = std::make_unique<cache::RemoteCacheServer>(CO);
    if (!Cached->start()) {
      Err = "cannot start accached";
      return false;
    }
    CacheAddr = "127.0.0.1:" + std::to_string(Cached->tcpPort());

    // The previous deploy: every pool unit verified once into accached.
    {
      StoreTier Tier(Cached->store(), StoredKeys);
      core::ResultCache Fill("");
      Fill.setRemote(&Tier);
      for (const std::string &Src : Pool)
        if (!localCheck(Src, 1, &Fill).Ok) {
          Err = "accached fill failed";
          return false;
        }
    }

    router::RouterOptions RO;
    for (size_t I = 0; I != fleetShardAddrs().size(); ++I) {
      Remotes.push_back(
          std::make_unique<cache::RemoteCacheClient>(CacheAddr, FleetToken));
      service::ServerOptions SO;
      SO.ListenAddr = fleetShardAddrs()[I];
      SO.AuthToken = FleetToken;
      SO.ShardId = "s" + std::to_string(I);
      SO.Remote = Remotes.back().get();
      SO.Jobs = 1;
      if (I == 0)
        SO.SocketPath = Shard0Unix = socketPath(C, "shard0");
      Shards.push_back(std::make_unique<service::Server>(SO));
      if (!Shards.back()->start()) {
        Err = "cannot start shard " + std::to_string(I) + " on " +
              SO.ListenAddr + " (is the port in use?)";
        return false;
      }
      ShardAddrs.push_back("127.0.0.1:" +
                           std::to_string(Shards.back()->tcpPort()));
      RO.Shards.push_back(ShardAddrs.back());
    }
    RO.ListenAddr = "127.0.0.1:0";
    RO.AuthToken = FleetToken;
    RO.ShardToken = FleetToken;
    Rtr = std::make_unique<router::Router>(RO);
    if (!Rtr->start()) {
      Err = "cannot start acrouter";
      return false;
    }
    RouterAddr = "127.0.0.1:" + std::to_string(Rtr->tcpPort());

    for (unsigned I = 0; I != FleetClients; ++I) {
      Clients.push_back(Client::connectTcp(RouterAddr, FleetToken, Err));
      if (!Clients.back().connected()) {
        Err = "cannot connect to acrouter: " + Err;
        return false;
      }
      // Warm-up: one check per connection, from its own half.
      CheckRequest Req;
      Req.Source = Pool[(I % 2) * (FleetPoolSize / 2) + I / 2];
      CheckResponse Resp;
      if (!Clients.back().checkRetry(Req, Resp, Err) || !Resp.Ok) {
        Err = "fleet warm-up failed: " + Err + Resp.Message;
        return false;
      }
    }
    return true;
  }

  void stop() {
    Clients.clear();
    if (Rtr)
      Rtr->stop();
    for (auto &S : Shards)
      S->stop();
    if (Cached)
      Cached->stop();
  }
  ~Fleet() { stop(); }
};

/// Router `stats` counters (window_busy, rerouted, hedges).
support::Json routerStats(const Fleet &F) {
  std::string Err;
  Client C = Client::connectTcp(F.RouterAddr, FleetToken, Err);
  support::Json J;
  if (C.connected())
    C.stats(J, Err);
  return J;
}

/// FleetClients callers drawing from the pool until the stop rule fires.
void fleetLoop(Fleet &F, const std::vector<std::string> &Pool,
               const std::vector<std::string> &Refs, uint64_t Seed,
               double Seconds, Tracer &T, WorkloadResult &R) {
  std::mutex M;
  std::atomic<size_t> Done{0};
  auto T0 = Clock::now();
  double Cpu0 = processCpuSeconds();
  std::vector<std::thread> Ts;
  for (unsigned CI = 0; CI != FleetClients; ++CI)
    Ts.emplace_back([&, CI] {
      std::vector<size_t> Draws = fleetDraws(Seed, CI, 1 << 16);
      std::vector<double> Lat, Probes;
      unsigned Attempted = 0, Failed = 0;
      std::vector<std::string> Errs;
      for (size_t I = 0; I != Draws.size() && keepGoing(T0, Seconds, Done);
           ++I) {
        if (CI == 0 && I % 8 == 0)
          Probes.push_back(hostProbeMs());
        CheckRequest Req;
        Req.Source = Pool[Draws[I]];
        CheckResponse Resp;
        std::string Err;
        ++Attempted;
        Scoped S(T, "fleet.check");
        bool Sent = F.Clients[CI].checkRetry(Req, Resp, Err);
        Lat.push_back(S.finish());
        ++Done;
        if (!Sent || !Resp.Ok) {
          ++Failed;
          Errs.push_back("fleet check failed: " + Err + Resp.Message);
        } else if (snapshot(Resp) != Refs[Draws[I]]) {
          ++Failed;
          Errs.push_back("fleet answer differs from reference");
        }
      }
      std::lock_guard<std::mutex> L(M);
      R.Loop.LatMs.insert(R.Loop.LatMs.end(), Lat.begin(), Lat.end());
      R.Loop.ProbeMs.insert(R.Loop.ProbeMs.end(), Probes.begin(),
                            Probes.end());
      R.Loop.Attempted += Attempted;
      R.Loop.Failed += Failed;
      for (const std::string &E : Errs)
        R.fail(E);
    });
  for (std::thread &Th : Ts)
    Th.join();
  R.Loop.WallS = msSince(T0) / 1e3;
  R.Loop.CpuS = processCpuSeconds() - Cpu0;
}

} // namespace

//===----------------------------------------------------------------------===//
// cold
//===----------------------------------------------------------------------===//

WorkloadResult acbench::runCold(const RunConfig &C, Tracer &T) {
  WorkloadResult R;
  std::string SetupErr;
  auto T0 = Clock::now();
  bool Ready = coldWarmUp(SetupErr);
  R.SetupS = msSince(T0) / 1e3;
  if (!Ready) {
    R.fail(SetupErr);
    ++R.Mismatches;
    return R;
  }

  checkGoldens(C, "runCheck",
               [](const std::string &Src, CheckResponse &Out, std::string &) {
                 Out = localCheck(Src, ColdJobs);
                 return true;
               },
               R);

  const std::vector<std::string> Pool = coldPool();
  auto TR = Clock::now();
  std::vector<std::string> Refs;
  for (const std::string &Src : Pool)
    Refs.push_back(reference(Src));
  R.RefS = msSince(TR) / 1e3;

  std::vector<size_t> Order = coldOrder(C.Seed, Pool.size(), 1 << 16);
  auto TL = Clock::now();
  double Cpu0 = processCpuSeconds();
  for (size_t I = 0; I != Order.size() && keepGoing(TL, C.Seconds, I); ++I) {
    if (I % 8 == 0)
      R.Loop.ProbeMs.push_back(hostProbeMs());
    ++R.Loop.Attempted;
    Scoped S(T, "cold.check");
    CheckResponse Resp = localCheck(Pool[Order[I]], ColdJobs);
    R.Loop.LatMs.push_back(S.finish());
    if (!Resp.Ok) {
      ++R.Loop.Failed;
      R.fail("cold check failed: " + Resp.Message);
    } else if (snapshot(Resp) != Refs[Order[I]]) {
      ++R.Loop.Failed;
      R.fail("cold answer differs from the serial reference");
    }
  }
  R.Loop.WallS = msSince(TL) / 1e3;
  R.Loop.CpuS = processCpuSeconds() - Cpu0;
  return R;
}

//===----------------------------------------------------------------------===//
// edit
//===----------------------------------------------------------------------===//

WorkloadResult acbench::runEdit(const RunConfig &C, Tracer &T) {
  WorkloadResult R;
  const std::string Base = editBase();
  EditDaemon D;
  std::string SetupErr;
  auto T0 = Clock::now();
  bool Ready = D.start(C, Base, SetupErr);
  R.SetupS = msSince(T0) / 1e3;
  if (!Ready) {
    R.fail(SetupErr);
    ++R.Mismatches;
    return R;
  }

  checkGoldens(C, "acd",
               [&](const std::string &Src, CheckResponse &Out,
                   std::string &Err) {
                 CheckRequest Req;
                 Req.Source = Src;
                 return D.Conn.check(Req, Out, Err);
               },
               R);

  // The primed answer must equal the serial, uncached one; untouched
  // functions are then checked against it after every edit.
  auto TR = Clock::now();
  if (snapshot(D.Primed) != reference(Base)) {
    ++R.Mismatches;
    R.fail("primed answer differs from the serial reference");
  }
  R.RefS = msSince(TR) / 1e3;
  std::vector<std::string> Names;
  std::map<std::string, std::string> PrimedFn;
  for (const service::FuncResult &F : D.Primed.Functions) {
    Names.push_back(F.Name);
    PrimedFn[F.Name] = functionSnapshot(F);
  }

  std::string Src = Base;
  Rng Edits(mixSeed(C.Seed, 5));
  std::set<std::string> Dirty;
  std::vector<uint64_t> StepHash;
  double MissesTotal = 0;
  auto TL = Clock::now();
  double Cpu0 = processCpuSeconds();
  for (size_t I = 0; keepGoing(TL, C.Seconds, I); ++I) {
    if (I % 8 == 0)
      R.Loop.ProbeMs.push_back(hostProbeMs());
    std::string Fn = applyEdit(Src, Edits);
    std::set<std::string> Touched = withTransitiveCallers(Src, Fn);
    Dirty.insert(Touched.begin(), Touched.end());

    CheckRequest Req;
    Req.Source = Src;
    CheckResponse Resp;
    std::string Err;
    ++R.Loop.Attempted;
    Scoped S(T, "edit.check");
    bool Sent = D.Conn.check(Req, Resp, Err);
    R.Loop.LatMs.push_back(S.finish());
    StepHash.push_back(Sent && Resp.Ok ? fnv1a(snapshot(Resp)) : 0);
    if (!Sent || !Resp.Ok) {
      ++R.Loop.Failed;
      R.fail("edit check failed: " + Err + Resp.Message);
      continue;
    }
    MissesTotal += Resp.CacheMisses;
    bool Same = Resp.Functions.size() == Names.size();
    for (size_t K = 0; Same && K != Names.size(); ++K) {
      const service::FuncResult &F = Resp.Functions[K];
      Same = F.Name == Names[K] &&
             (Dirty.count(F.Name) || functionSnapshot(F) == PrimedFn[F.Name]);
    }
    if (!Same) {
      ++R.Loop.Failed;
      R.fail("edit answer: an untouched function differs from the prime");
    }
  }
  R.Loop.WallS = msSince(TL) / 1e3;
  R.Loop.CpuS = processCpuSeconds() - Cpu0;
  R.Info["misses_per_check"] =
      R.Loop.Attempted ? MissesTotal / R.Loop.Attempted : 0;
  R.Info["dirty_functions"] = static_cast<double>(Dirty.size());

  // A seeded sample of edit steps recomputed cold: replay the edits up to
  // the step and compare the whole answer with the serial reference.
  Rng Pick(mixSeed(C.Seed, 6));
  std::set<size_t> Sample;
  while (Sample.size() < std::min<size_t>(2, StepHash.size()))
    Sample.insert(Pick.below(StepHash.size()));
  auto TS = Clock::now();
  std::string Replay = Base;
  Rng ReplayEdits(mixSeed(C.Seed, 5));
  for (size_t I = 0; !Sample.empty() && I <= *Sample.rbegin(); ++I) {
    applyEdit(Replay, ReplayEdits);
    if (Sample.count(I) && fnv1a(reference(Replay)) != StepHash[I]) {
      ++R.Mismatches;
      R.fail("edit step " + std::to_string(I) +
             " differs from its cold recompute");
    }
  }
  R.RefS += msSince(TS) / 1e3;
  return R;
}

double acbench::setUpOnce(const RunConfig &C, std::string &Err) {
  if (C.Workload == "cold") {
    auto T0 = Clock::now();
    return coldWarmUp(Err) ? msSince(T0) / 1e3 : -1;
  }
  if (C.Workload == "edit") {
    const std::string Base = editBase();
    EditDaemon D;
    auto T0 = Clock::now();
    return D.start(C, Base, Err) ? msSince(T0) / 1e3 : -1;
  }
  Err = "unknown workload " + C.Workload;
  return -1;
}

//===----------------------------------------------------------------------===//
// The traced per-layer suite
//===----------------------------------------------------------------------===//

namespace {

/// One outside-in serial walk of a translation unit, in FunctionOrder:
/// the public call of every layer, timed.
struct Walk {
  double Parse = 0, Sema = 0, Translate = 0, HLSetup = 0, Fingerprint = 0;
  double L1 = 0, L2 = 0, HL = 0, WA = 0, Render = 0;
  unsigned Fns = 0, Lifted = 0, Abstracted = 0;
  bool Ok = false;

  double total() const {
    return Parse + Sema + Translate + HLSetup + Fingerprint + L1 + L2 + HL +
           WA + Render;
  }
};

/// What the front of the pipeline leaves for the abstraction stages.
/// Not movable: the heap abstraction holds references to the others.
struct Front {
  std::unique_ptr<simpl::SimplProgram> Prog;
  monad::InterpCtx Ctx;
  std::unique_ptr<heapabs::HeapAbstraction> HL;

  Front() = default;
  Front(const Front &) = delete;
  Front &operator=(const Front &) = delete;
};

/// The front as AutoCorres::run orders it: parse, sema, translate, the
/// heap abstraction's set-up (which adds the lifted-globals record the
/// fingerprints cover), then fingerprints. False on a front-end error.
bool walkFront(const std::string &Src, Tracer &T, Walk &W, Front &F) {
  DiagEngine Diags;
  std::unique_ptr<cparser::TranslationUnit> TU;
  {
    Scoped S(T, "cparser.parse");
    TU = cparser::parseTranslationUnit(Src, Diags);
    W.Parse = S.finish();
  }
  if (!TU)
    return false;
  {
    Scoped S(T, "cparser.sema");
    bool Ok = cparser::checkTranslationUnit(*TU, Diags);
    W.Sema = S.finish();
    if (!Ok)
      return false;
  }
  {
    Scoped S(T, "simpl.translate");
    F.Prog = simpl::translateToSimpl(std::move(TU), Diags);
    W.Translate = S.finish();
  }
  if (!F.Prog)
    return false;
  {
    Scoped S(T, "heapabs.setup");
    F.Ctx = monad::InterpCtx(F.Prog.get());
    F.HL = std::make_unique<heapabs::HeapAbstraction>(*F.Prog, F.Ctx);
    W.HLSetup = S.finish();
  }
  {
    Scoped S(T, "core.fingerprint");
    core::computeFunctionKeys(*F.Prog, {}, {});
    W.Fingerprint = S.finish();
  }
  return true;
}

Walk walkProgram(const std::string &Src, Tracer &T) {
  Walk W;
  Scoped Whole(T, "walk");
  Front Fr;
  if (!walkFront(Src, T, W, Fr))
    return W;
  const simpl::SimplProgram &Prog = *Fr.Prog;
  wordabs::WordAbstraction WA(Fr.Ctx);
  for (const std::string &Name : Prog.FunctionOrder) {
    const simpl::SimplFunc *F = Prog.function(Name);
    monad::L1Result L1R;
    {
      Scoped S(T, "monad.l1");
      L1R = monad::convertL1(Prog, *F);
      W.L1 += S.finish();
    }
    Fr.Ctx.installDef("l1:" + Name, L1R.Term);
    monad::L2Result L2R;
    {
      Scoped S(T, "monad.l2");
      L2R = monad::convertL2(Prog, *F);
      W.L2 += S.finish();
    }
    Fr.Ctx.installDef("l2:" + Name, L2R.Def);
    hol::TermRef WAInput;
    {
      Scoped S(T, "heapabs.hl");
      const heapabs::HLResult &H = Fr.HL->abstractFunction(*F, L2R, true);
      W.HL += S.finish();
      W.Lifted += H.Lifted;
      WAInput = H.Lifted ? H.AppliedBody : L2R.AppliedBody;
    }
    hol::TermRef Final = WAInput;
    {
      Scoped S(T, "wordabs.wa");
      const wordabs::WAResult &R = WA.abstractFunction(
          Name, WAInput, L2R.ArgNames, L2R.ArgTys, wordabs::WAOptions());
      W.WA += S.finish();
      W.Abstracted += R.Abstracted;
      // AutoCorres::run's per-function selection (core/AutoCorres.cpp).
      if (R.Abstracted && hol::termSize(R.AppliedBody) <=
                              (hol::termSize(WAInput) * 3) / 2 + 64)
        Final = R.AppliedBody;
    }
    {
      Scoped S(T, "hol.render");
      std::string Text = hol::printTerm(Final);
      W.Render += S.finish();
    }
    ++W.Fns;
  }
  W.Ok = true;
  return W;
}

/// AutoCorres::run at \p Jobs: wall ms and process CPU ms.
std::pair<double, double> timedRun(const std::string &Src, unsigned Jobs,
                                   Tracer &T) {
  core::ACOptions O;
  O.Jobs = Jobs;
  DiagEngine Diags;
  double Cpu0 = processCpuSeconds();
  Scoped S(T, "core.run.j" + std::to_string(Jobs));
  auto AC = core::AutoCorres::run(Src, Diags, O);
  double Wall = S.finish();
  return {AC ? Wall : -1, (processCpuSeconds() - Cpu0) * 1e3};
}

void coldLayers(const RunConfig &C, Tracer &T,
                std::map<std::string, double> &M,
                std::vector<double> &Probes,
                std::vector<std::string> &Errors) {
  std::vector<double> L1, L2, HL, WA, Render, Interned, Speedup, Inflation,
      Coverage;
  double Fns = 0, Lifted = 0, Abstracted = 0;
  for (const std::string &Src : walkPrograms(C.Seed)) {
    Probes.push_back(hostProbeMs());
    // First sight: the arenas grow by what this program adds.
    size_t I0 = hol::internedTermCount();
    Walk First = walkProgram(Src, T);
    Interned.push_back(double(hol::internedTermCount() - I0));
    auto [Wall1, Cpu1] = timedRun(Src, 1, T);
    auto [Wall4, Cpu4] = timedRun(Src, ParallelJobs, T);
    // A second walk compares like with like: the runs above also met
    // the program's terms already interned.
    Walk W = walkProgram(Src, T);
    if (!First.Ok || !W.Ok || Wall1 <= 0 || Wall4 <= 0) {
      Errors.push_back("layer walk failed on a cold program");
      continue;
    }
    L1.push_back(W.L1);
    L2.push_back(W.L2);
    HL.push_back(W.HL);
    WA.push_back(W.WA);
    Render.push_back(W.Render);
    Speedup.push_back(Wall1 / Wall4);
    Inflation.push_back(Cpu4 / Cpu1);
    Coverage.push_back(W.total() / Wall1);
    Fns += W.Fns;
    Lifted += W.Lifted;
    Abstracted += W.Abstracted;
  }
  M["monad.l1_ms"] = median(L1);
  M["monad.l2_ms"] = median(L2);
  M["heapabs.hl_ms"] = median(HL);
  M["heapabs.lifted_frac"] = Fns ? Lifted / Fns : 0;
  M["wordabs.wa_ms"] = median(WA);
  M["wordabs.abstracted_frac"] = Fns ? Abstracted / Fns : 0;
  M["hol.render_ms"] = median(Render);
  M["hol.interned_per_check"] = median(Interned);
  M["core.speedup_j4"] = median(Speedup);
  M["core.cpu_inflation_j4"] = median(Inflation);
  M["core.walk_coverage"] = median(Coverage);
}

void editLayers(const RunConfig &C, Tracer &T,
                std::map<std::string, double> &M,
                std::vector<double> &Probes,
                std::vector<std::string> &Errors) {
  const std::string Base = editBase();
  EditDaemon D;
  std::string Err;
  if (!D.start(C, Base, Err)) {
    Errors.push_back("edit layers: " + Err);
    return;
  }
  // An identically primed in-process tier for the runCheck comparison.
  core::ResultCache Local("");
  localCheck(Base, 1, &Local);

  std::vector<double> Parse, Sema, Translate, Fingerprint, Rtt, RunCheck,
      Encode, Decode, Kb;
  double Hits = 0, Lookups = 0, Misses = 0;
  std::string Src = Base;
  Rng Edits(mixSeed(C.Seed, 5));
  constexpr unsigned Steps = 24;
  for (unsigned I = 0; I != Steps; ++I) {
    if (I % 8 == 0)
      Probes.push_back(hostProbeMs());
    applyEdit(Src, Edits);
    Walk W;
    Front Fr;
    if (!walkFront(Src, T, W, Fr)) {
      Errors.push_back("edit layers: an edited unit does not translate");
      return;
    }
    Parse.push_back(W.Parse);
    Sema.push_back(W.Sema);
    Translate.push_back(W.Translate);
    Fingerprint.push_back(W.Fingerprint);

    CheckRequest Req;
    Req.Source = Src;
    CheckResponse Resp;
    {
      Scoped S(T, "service.rtt");
      bool Sent = D.Conn.check(Req, Resp, Err);
      Rtt.push_back(S.finish());
      if (!Sent || !Resp.Ok) {
        Errors.push_back("edit layers: check failed " + Err);
        return;
      }
    }
    Misses += Resp.CacheMisses;
    Hits += Resp.CacheHits;
    Lookups += Resp.CacheHits + Resp.CacheMisses;
    {
      Scoped S(T, "service.runcheck");
      CheckResponse Same = localCheck(Src, 1, &Local);
      RunCheck.push_back(S.finish());
      if (snapshot(Same) != snapshot(Resp))
        Errors.push_back("edit layers: runCheck and acd disagree");
    }
    std::string Wire;
    {
      Scoped S(T, "service.encode");
      Wire = Resp.toJson().dump();
      Encode.push_back(S.finish());
    }
    Kb.push_back(Wire.size() / 1024.0);
    {
      Scoped S(T, "service.decode");
      support::Json J;
      std::string PErr;
      CheckResponse Back;
      bool Ok = support::Json::parse(Wire, J, PErr) &&
                CheckResponse::fromJson(J, Back, PErr);
      Decode.push_back(S.finish());
      if (!Ok || snapshot(Back) != snapshot(Resp))
        Errors.push_back("edit layers: response does not round-trip");
    }
  }
  M["cparser.parse_ms"] = median(Parse);
  M["cparser.sema_ms"] = median(Sema);
  M["simpl.translate_ms"] = median(Translate);
  M["core.fingerprint_ms"] = median(Fingerprint);
  M["core.misses_per_check"] = Misses / Steps;
  M["core.cache_hit_rate"] = Lookups ? Hits / Lookups : 0;
  M["service.rtt_ms"] = median(Rtt);
  M["service.runcheck_ms"] = median(RunCheck);
  M["service.encode_ms"] = median(Encode);
  M["service.decode_ms"] = median(Decode);
  M["service.response_kb"] = median(Kb);
}

void fleetLayers(const RunConfig &C, Tracer &T,
                 std::map<std::string, double> &M,
                 std::vector<double> &Probes,
                 std::vector<std::string> &Errors) {
  const std::vector<std::string> Pool = fleetPool();
  Fleet F;
  std::string Err;
  if (!F.start(C, Pool, Err)) {
    Errors.push_back("fleet layers: " + Err);
    return;
  }
  // The router's path must reproduce the paper examples too.
  WorkloadResult Golden;
  checkGoldens(C, "acrouter",
               [&](const std::string &Src, CheckResponse &Out,
                   std::string &E) {
                 CheckRequest Req;
                 Req.Source = Src;
                 return F.Clients[0].checkRetry(Req, Out, E);
               },
               Golden);
  for (const std::string &E : Golden.Errors)
    Errors.push_back("fleet layers: " + E);
  std::vector<std::string> Refs;
  for (const std::string &Src : Pool)
    Refs.push_back(reference(Src));

  // A short fleet loop for the per-check counters.
  cache::RemoteCacheStore &Store = F.Cached->store();
  support::Json R0 = routerStats(F);
  uint64_t Gets0 = Store.gets(), Hits0 = Store.hits();
  auto ShardDone = [&](size_t I) {
    return double(F.Shards[I]->metrics().Completed.load());
  };
  double Done0 = ShardDone(0), Done1 = ShardDone(1);
  WorkloadResult Loop;
  fleetLoop(F, Pool, Refs, C.Seed, 3, T, Loop);
  support::Json R1 = routerStats(F);
  // The ring's split of the pool: the busier shard's share of the
  // checks, 0.5 when the pool was drawn.
  double On0 = ShardDone(0) - Done0, On1 = ShardDone(1) - Done1;
  M["router.busier_shard_share"] =
      On0 + On1 ? std::max(On0, On1) / (On0 + On1) : 0;
  for (const std::string &E : Loop.Errors)
    Errors.push_back("fleet layers: " + E);
  Probes.insert(Probes.end(), Loop.Loop.ProbeMs.begin(),
                Loop.Loop.ProbeMs.end());
  double N = Loop.Loop.Attempted ? Loop.Loop.Attempted : 1;
  auto Delta = [&](const char *Key) {
    return R1.get(Key).asNumber() - R0.get(Key).asNumber();
  };
  M["router.busy_per_check"] = Delta("window_busy") / N;
  M["router.reroutes_per_check"] = Delta("rerouted") / N;
  M["router.hedges_per_check"] = Delta("hedges") / N;
  M["cache.remote_gets_per_check"] = (Store.gets() - Gets0) / N;
  M["cache.remote_hit_rate"] =
      Store.gets() > Gets0
          ? double(Store.hits() - Hits0) / double(Store.gets() - Gets0)
          : 0;

  // Router overhead: the same warm source via the router and directly
  // to the shard the ring puts it on.
  CheckRequest Req;
  Req.Source = Pool[0];
  size_t Shard = F.Rtr->shardFor(router::Router::routingKey(Req));
  Client Direct = Client::connectTcp(F.ShardAddrs[Shard], FleetToken, Err);
  std::vector<double> Via, Dir;
  for (int I = 0; I != 16 && Direct.connected(); ++I) {
    CheckResponse Resp;
    {
      Scoped S(T, "router.via");
      F.Clients[0].check(Req, Resp, Err);
      Via.push_back(S.finish());
    }
    {
      Scoped S(T, "router.direct");
      Direct.check(Req, Resp, Err);
      Dir.push_back(S.finish());
    }
  }
  M["router.overhead_ms"] = median(Via) - median(Dir);

  // Remote gets of the keys the fill stored.
  cache::RemoteCacheClient RC(F.CacheAddr, FleetToken);
  std::vector<double> Gets;
  for (size_t I = 0; I != F.StoredKeys.size() && I != 24; ++I) {
    core::CachedFunc E;
    Scoped S(T, "cache.remote_get");
    bool Hit = RC.get(F.StoredKeys[I], E);
    Gets.push_back(S.finish());
    if (!Hit)
      Errors.push_back("fleet layers: accached lost a stored entry");
  }
  M["cache.remote_get_ms"] = median(Gets);

  // One shard over each transport.
  Client Tcp = Client::connectTcp(F.ShardAddrs[0], FleetToken, Err);
  Client Unix = Client::connect(F.Shard0Unix);
  std::vector<double> TcpMs, UnixMs;
  for (int I = 0; I != 16 && Tcp.connected() && Unix.connected(); ++I) {
    {
      Scoped S(T, "support.ping.tcp");
      Tcp.ping(Err);
      TcpMs.push_back(S.finish());
    }
    {
      Scoped S(T, "support.ping.unix");
      Unix.ping(Err);
      UnixMs.push_back(S.finish());
    }
  }
  M["support.tcp_rtt_ms"] = median(TcpMs);
  M["support.unix_rtt_ms"] = median(UnixMs);
}

} // namespace

std::map<std::string, double>
acbench::runLayerSuite(const RunConfig &C, Tracer &T,
                       std::vector<double> &Probes,
                       std::vector<std::string> &Errors) {
  std::map<std::string, double> M;
  {
    Scoped S(T, "suite.cold");
    coldLayers(C, T, M, Probes, Errors);
  }
  {
    Scoped S(T, "suite.edit");
    editLayers(C, T, M, Probes, Errors);
  }
  {
    Scoped S(T, "suite.fleet");
    fleetLayers(C, T, M, Probes, Errors);
  }
  return M;
}
