//===- Common.cpp - Shared pieces of the acbench benchmark ----------------===//

#include "Bench.h"

#include "core/ResultCache.h"
#include "corpus/Sources.h"
#include "corpus/Synthetic.h"
#include "heapabs/HeapAbs.h"
#include "monad/Interp.h"
#include "simpl/Program.h"
#include "support/Diagnostics.h"
#include "support/Json.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <fstream>
#include <iterator>
#include <sstream>
#include <thread>

using namespace acbench;
using ac::service::CheckResponse;
using ac::service::FuncResult;

double acbench::msSince(Clock::time_point T0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - T0)
      .count();
}

double acbench::processCpuSeconds() {
  rusage U{};
  getrusage(RUSAGE_SELF, &U);
  return U.ru_utime.tv_sec + U.ru_utime.tv_usec / 1e6 + U.ru_stime.tv_sec +
         U.ru_stime.tv_usec / 1e6;
}

double acbench::peakRssMb() {
  rusage U{};
  getrusage(RUSAGE_SELF, &U);
  return U.ru_maxrss / 1024.0; // Linux reports KiB
}

std::optional<double> acbench::percentile(std::vector<double> V, double Q) {
  if (V.empty() || Q <= 0 || Q >= 1)
    return std::nullopt;
  std::sort(V.begin(), V.end());
  // Nearest rank: the smallest sample with at least Q of the data at or
  // below it.
  size_t Rank = static_cast<size_t>(std::ceil(Q * V.size()));
  Rank = std::max<size_t>(Rank, 1);
  if (V.size() - Rank < 10)
    return std::nullopt;
  return V[Rank - 1];
}

double acbench::median(std::vector<double> V) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  size_t N = V.size();
  return N % 2 ? V[N / 2] : (V[N / 2 - 1] + V[N / 2]) / 2;
}

/// Keeps the probe loop's result alive past the optimiser.
volatile uint64_t ProbeSink = 0;

double acbench::hostProbeMs() {
  auto T0 = Clock::now();
  uint64_t X = 0x9e3779b97f4a7c15ull;
  for (unsigned I = 0; I != 2000000; ++I)
    X = (X ^ (X >> 29)) * 0xbf58476d1ce4e5b9ull + I;
  ProbeSink = X;
  return msSince(T0);
}

uint64_t Rng::next() {
  uint64_t Z = (State += 0x9e3779b97f4a7c15ull);
  Z = (Z ^ (Z >> 30)) * 0xbf58476d1ce4e5b9ull;
  Z = (Z ^ (Z >> 27)) * 0x94d049bb133111ebull;
  return Z ^ (Z >> 31);
}

uint64_t acbench::mixSeed(uint64_t Seed, uint64_t Tag) {
  Rng R(Seed * 0x100000001b3ull ^ (Tag + 0x51ed27ull));
  return R.next();
}

//===----------------------------------------------------------------------===//
// Spans
//===----------------------------------------------------------------------===//

namespace {
thread_local std::vector<int> OpenSpans;

unsigned threadTag() {
  static std::mutex M;
  static std::map<std::thread::id, unsigned> Ids;
  std::lock_guard<std::mutex> L(M);
  auto It = Ids.find(std::this_thread::get_id());
  if (It != Ids.end())
    return It->second;
  unsigned Id = static_cast<unsigned>(Ids.size()) + 1;
  Ids.emplace(std::this_thread::get_id(), Id);
  return Id;
}
} // namespace

int Tracer::begin(const std::string &Name) {
  if (!Enabled)
    return -1;
  Span S;
  S.Name = Name;
  S.StartUs = std::chrono::duration<double, std::micro>(Clock::now() - T0)
                  .count();
  S.Parent = OpenSpans.empty() ? -1 : OpenSpans.back();
  S.Tid = threadTag();
  std::lock_guard<std::mutex> L(M);
  Spans.push_back(std::move(S));
  int Id = static_cast<int>(Spans.size()) - 1;
  OpenSpans.push_back(Id);
  return Id;
}

void Tracer::end(int Id) {
  if (!Enabled || Id < 0)
    return;
  double Now =
      std::chrono::duration<double, std::micro>(Clock::now() - T0).count();
  {
    std::lock_guard<std::mutex> L(M);
    Spans[Id].EndUs = Now;
  }
  auto It = std::find(OpenSpans.rbegin(), OpenSpans.rend(), Id);
  if (It != OpenSpans.rend())
    OpenSpans.erase(std::next(It).base());
}

std::vector<Tracer::Span> Tracer::spans() const {
  std::lock_guard<std::mutex> L(M);
  return Spans;
}

std::map<std::string, double> Tracer::selfMs() const {
  std::vector<Span> All = spans();
  std::vector<double> ChildUs(All.size(), 0);
  for (const Span &S : All)
    if (S.Parent >= 0)
      ChildUs[S.Parent] += S.EndUs - S.StartUs;
  std::map<std::string, double> Self;
  for (size_t I = 0; I != All.size(); ++I)
    Self[All[I].Name] += (All[I].EndUs - All[I].StartUs - ChildUs[I]) / 1e3;
  return Self;
}

bool Tracer::writeChrome(const std::string &Path) const {
  using ac::support::Json;
  std::vector<Span> All = spans();
  Json Events = Json::array();
  for (size_t I = 0; I != All.size(); ++I) {
    const Span &S = All[I];
    Json E = Json::object();
    E.set("name", S.Name);
    E.set("ph", "X");
    E.set("ts", S.StartUs);
    E.set("dur", S.EndUs - S.StartUs);
    E.set("pid", 1);
    E.set("tid", S.Tid);
    Json Args = Json::object();
    Args.set("id", static_cast<int>(I));
    Args.set("parent", S.Parent);
    E.set("args", std::move(Args));
    Events.push(std::move(E));
  }
  Json Doc = Json::object();
  Doc.set("traceEvents", std::move(Events));
  Doc.set("displayTimeUnit", "ms");
  std::ofstream Out(Path, std::ios::binary | std::ios::trunc);
  Out << Doc.dump() << "\n";
  return Out.good();
}

double Scoped::finish() {
  if (Ms < 0) {
    Ms = msSince(Start);
    T.end(Id);
  }
  return Ms;
}

//===----------------------------------------------------------------------===//
// Seeded inputs
//===----------------------------------------------------------------------===//

namespace {

/// Statements per function of the cold and walk programs. Smaller than
/// the presets' 10-17 so a run holds enough checks for a p90; the
/// function counts keep the presets' range.
constexpr unsigned ColdStatements = 4;

std::string synthUnit(const std::string &Name, unsigned Fns, unsigned Stmts,
                      unsigned GeneratorSeed) {
  ac::corpus::SyntheticSpec S;
  S.Name = Name;
  S.TargetFunctions = Fns;
  S.StatementsPerFunction = Stmts;
  S.Seed = GeneratorSeed;
  return ac::corpus::generateSyntheticProgram(S);
}

std::string synth(const std::string &Name, unsigned Fns, unsigned Stmts,
                  uint64_t Seed) {
  return synthUnit(Name, Fns, Stmts, static_cast<unsigned>(Seed >> 32) | 1u);
}

bool isIdentChar(char C) {
  return std::isalnum(static_cast<unsigned char>(C)) || C == '_';
}

/// Function counts of the cold pool (see coldPool): sixteen sizes about
/// eight functions apart. Host speed alternates between phases some 30%
/// apart, so each program's checks form a fast and a slow cluster. A
/// percentile that falls inside one program's checks jumps between its
/// two clusters from run to run; among many programs of close cost it
/// moves smoothly with the share of slow phases.
constexpr unsigned ColdLadder[] = {40, 48, 56, 65, 73, 81, 89, 97,
                                   106, 114, 122, 130, 138, 147, 155, 163};
/// Generator seeds of the cold pool, one per rung, drawn once. Programs
/// drawn per seed differ in cost by seed alone (a 92-function program
/// ranged 279-367 ms over ten seeds), so every seed checks these programs
/// and draws only their order.
constexpr unsigned ColdUnitSeeds[std::size(ColdLadder)] = {
    2337456035u, 1780753617u, 4166876355u, 2630299711u,
    1839978193u, 3878189895u, 1940412171u, 2718271841u,
    1207316763u, 1120721855u, 2681336927u, 71030989u,
    3299490845u, 1611092935u, 3570110141u, 3416897931u};

/// Generator seeds of the fleet pool, each yielding a unit that defines
/// exactly calc_0, update_1 and dispatch_2. They were drawn once, when the
/// benchmark was written, so that on the ring of fleetShardAddrs() the
/// first sixteen routed to shard 0 and the rest to shard 1. They are never
/// re-selected: a change to routing moves the split, which the run records
/// (fleet_shard0_share) and which shows in the fleet's latency.
constexpr unsigned FleetUnitSeeds[FleetPoolSize] = {
    3746952501u, 1778767743u, 1053717141u, 3420738269u, 2135242703u,
    1266564693u, 3083480951u, 1937974933u, 3773770421u, 2517778311u,
    4284069025u, 3559548261u, 194201527u,  2330901479u, 1661992729u,
    1464271839u, 3727853261u, 465031031u,  1389016405u, 3354815923u,
    3607134289u, 2247387509u, 2300918091u, 3209900515u, 36308571u,
    4082434645u, 119100167u,  2354267885u, 4210057581u, 3367527733u,
    1968155743u, 3028006187u};

} // namespace

std::vector<std::string> acbench::coldPool() {
  std::vector<std::string> Pool;
  for (size_t I = 0; I != std::size(ColdLadder); ++I)
    Pool.push_back(synthUnit("cold-" + std::to_string(I), ColdLadder[I],
                             ColdStatements, ColdUnitSeeds[I]));
  return Pool;
}

std::vector<std::string> acbench::walkPrograms(uint64_t Seed) {
  std::vector<std::string> Out;
  const unsigned Rungs[] = {40, 88, 163};
  for (unsigned I = 0; I != 3; ++I)
    Out.push_back(synth("walk-" + std::to_string(I), Rungs[I],
                        ColdStatements, mixSeed(Seed, 900 + I)));
  return Out;
}

std::vector<size_t> acbench::coldOrder(uint64_t Seed, size_t PoolSize,
                                       size_t N) {
  Rng R(mixSeed(Seed, 1));
  std::vector<size_t> Order;
  while (Order.size() < N) {
    std::vector<size_t> Pass(PoolSize);
    for (size_t I = 0; I != PoolSize; ++I)
      Pass[I] = I;
    for (size_t I = PoolSize; I > 1; --I)
      std::swap(Pass[I - 1], Pass[R.below(I)]);
    for (size_t I : Pass)
      if (Order.size() < N)
        Order.push_back(I);
  }
  return Order;
}

std::string acbench::editBase() {
  return ac::corpus::generateSyntheticProgram(ac::corpus::capdlScale());
}

std::vector<FnExtent> acbench::functionExtents(const std::string &Src) {
  std::vector<FnExtent> Out;
  size_t Pos = 0;
  FnExtent Cur;
  bool Open = false;
  while (Pos < Src.size()) {
    size_t Eol = Src.find('\n', Pos);
    if (Eol == std::string::npos)
      Eol = Src.size();
    std::string_view Line(Src.data() + Pos, Eol - Pos);
    if (!Open && Line.size() > 3 &&
        Line.substr(Line.size() - 3) == ") {" &&
        (Line.rfind("unsigned ", 0) == 0 || Line.rfind("void ", 0) == 0)) {
      size_t Paren = Line.find('(');
      size_t Start = Paren;
      while (Start > 0 && isIdentChar(Line[Start - 1]))
        --Start;
      Cur = FnExtent{std::string(Line.substr(Start, Paren - Start)), Pos, 0};
      Open = true;
    } else if (Open && Line == "}") {
      Cur.End = std::min(Eol + 1, Src.size());
      Out.push_back(Cur);
      Open = false;
    }
    Pos = Eol + 1;
  }
  return Out;
}

namespace {

/// Caller -> callees among the unit's own functions.
std::map<std::string, std::set<std::string>>
callGraph(const std::string &Src) {
  std::vector<FnExtent> Fns = functionExtents(Src);
  std::set<std::string> Names;
  for (const FnExtent &F : Fns)
    Names.insert(F.Name);
  std::map<std::string, std::set<std::string>> G;
  for (const FnExtent &F : Fns) {
    std::set<std::string> &Callees = G[F.Name];
    size_t BodyStart = Src.find('\n', F.Begin);
    for (size_t I = BodyStart; I < F.End; ++I) {
      if (!isIdentChar(Src[I]) || isIdentChar(Src[I - 1]))
        continue;
      size_t J = I;
      while (J < F.End && isIdentChar(Src[J]))
        ++J;
      std::string Id = Src.substr(I, J - I);
      if (J < F.End && Src[J] == '(' && Names.count(Id) && Id != F.Name)
        Callees.insert(Id);
      I = J;
    }
  }
  return G;
}

} // namespace

std::set<std::string> acbench::withTransitiveCallers(const std::string &Src,
                                                     const std::string &Fn) {
  std::map<std::string, std::set<std::string>> G = callGraph(Src);
  std::set<std::string> Out = {Fn};
  for (bool Grew = true; Grew;) {
    Grew = false;
    for (const auto &[Caller, Callees] : G) {
      if (Out.count(Caller))
        continue;
      for (const std::string &C : Callees)
        if (Out.count(C)) {
          Out.insert(Caller);
          Grew = true;
          break;
        }
    }
  }
  return Out;
}

std::string acbench::applyEdit(std::string &Src, Rng &R) {
  struct Lit {
    size_t Begin, End; // the digits
  };
  std::vector<std::pair<std::string, std::vector<Lit>>> Candidates;
  for (const FnExtent &F : functionExtents(Src)) {
    std::vector<Lit> Lits;
    size_t BodyStart = Src.find('\n', F.Begin);
    for (size_t I = BodyStart; I < F.End; ++I) {
      if (!std::isdigit(static_cast<unsigned char>(Src[I])) ||
          isIdentChar(Src[I - 1]))
        continue;
      size_t J = I;
      while (J < F.End && std::isdigit(static_cast<unsigned char>(Src[J])))
        ++J;
      if (J < F.End && Src[J] == 'u' && !isIdentChar(Src[J + 1]))
        Lits.push_back({I, J});
      I = J;
    }
    if (!Lits.empty())
      Candidates.emplace_back(F.Name, std::move(Lits));
  }
  if (Candidates.empty())
    return "";
  auto &[Name, Lits] = Candidates[R.below(Candidates.size())];
  const Lit &L = Lits[R.below(Lits.size())];
  unsigned long long V = std::stoull(Src.substr(L.Begin, L.End - L.Begin));
  Src.replace(L.Begin, L.End - L.Begin, std::to_string(V + 1));
  return Name;
}

const std::vector<std::string> &acbench::fleetShardAddrs() {
  static const std::vector<std::string> Addrs = {"127.0.0.1:27141",
                                                 "127.0.0.1:27142"};
  return Addrs;
}

std::vector<std::string> acbench::fleetPool() {
  std::vector<std::string> Pool;
  for (unsigned S : FleetUnitSeeds)
    Pool.push_back(synthUnit("fleet", 3, 14, S));
  return Pool;
}

std::vector<size_t> acbench::fleetDraws(uint64_t Seed, unsigned Client,
                                        size_t N) {
  Rng R(mixSeed(Seed, 4000 + Client));
  const size_t Half = FleetPoolSize / 2, Base = (Client % 2) * Half;
  std::vector<size_t> Out;
  for (size_t I = 0; I != N; ++I)
    Out.push_back(Base + R.below(Half));
  return Out;
}

std::map<std::string, uint64_t>
acbench::functionKeys(const std::string &Src) {
  ac::DiagEngine Diags;
  std::unique_ptr<ac::simpl::SimplProgram> Prog =
      ac::simpl::parseAndTranslate(Src, Diags);
  if (!Prog)
    return {};
  // As in AutoCorres::run: the heap abstraction registers the
  // lifted-globals record first, and records are part of every key.
  ac::monad::InterpCtx Ctx(Prog.get());
  ac::heapabs::HeapAbstraction HL(*Prog, Ctx);
  return ac::core::computeFunctionKeys(*Prog, {}, {});
}

//===----------------------------------------------------------------------===//
// Answers
//===----------------------------------------------------------------------===//

std::string acbench::functionSnapshot(const FuncResult &F) {
  std::string S = "== " + F.Name + "\n" + F.FinalKey + "\n";
  S += F.HeapLifted ? "hl " : "- ";
  S += F.WordAbstracted ? "wa\n" : "-\n";
  S += F.Render + "\n" + F.Pipeline + "\n";
  return S;
}

std::string acbench::snapshot(const CheckResponse &R) {
  std::string S = R.Ok ? "ok\n" : "error\n";
  for (const FuncResult &F : R.Functions)
    S += functionSnapshot(F);
  S += "== diagnostics\n";
  for (const std::string &D : R.Diagnostics)
    S += D + "\n";
  return S;
}

std::string acbench::goldenSnapshot(const CheckResponse &R) {
  std::ostringstream OS;
  for (const FuncResult &F : R.Functions) {
    OS << "== function: " << F.Name << "\n";
    OS << "final: " << F.FinalKey << "\n";
    OS << "-- spec\n" << F.Render << "\n";
    OS << "-- theorem\n" << F.Pipeline << "\n";
  }
  OS << "== diagnostics\n";
  for (const std::string &D : R.Diagnostics)
    OS << D << "\n";
  return OS.str();
}

uint64_t acbench::fnv1a(const std::string &S) {
  uint64_t H = 0xcbf29ce484222325ull;
  for (unsigned char C : S)
    H = (H ^ C) * 0x100000001b3ull;
  return H;
}

std::vector<std::pair<std::string, std::string>> acbench::goldenExamples() {
  using namespace ac::corpus;
  return {{"max", maxSource()},
          {"gcd", gcdSource()},
          {"swap", swapSource()},
          {"midpoint", midpointSource()},
          {"reverse", reverseSource()}};
}

std::string acbench::readGolden(const std::string &RepoDir,
                                const std::string &Name) {
  std::ifstream In(RepoDir + "/tests/golden/" + Name + ".expected",
                   std::ios::binary);
  if (!In)
    return "";
  std::ostringstream Buf;
  Buf << In.rdbuf();
  return Buf.str();
}
