//===- AutoCorres.cpp -----------------------------------------------------===//

#include "core/AutoCorres.h"

#include "core/ResultCache.h"
#include "heapabs/HeapAbs.h"
#include "hol/Cert.h"
#include "hol/Generation.h"
#include "hol/Names.h"
#include "hol/Print.h"
#include "simpl/PrintSimpl.h"
#include "support/Fingerprint.h"
#include "support/Log.h"
#include "support/RuleProfile.h"
#include "support/ThreadPool.h"
#include "support/Trace.h"
#include "wordabs/WordAbs.h"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <cstdlib>
#include <ctime>
#include <filesystem>
#include <mutex>
#include <sstream>
#include <tuple>

using namespace ac;
using namespace ac::core;
using namespace ac::hol;
namespace nm = ac::hol::names;

namespace {

double secondsSince(std::chrono::steady_clock::time_point T0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       T0)
      .count();
}

/// CPU time consumed by the calling thread, in seconds. Summed across
/// workers this gives the schedule-independent "abstraction effort"
/// number Table 5 reports, next to the wall clock.
double threadCpuSeconds() {
  timespec TS;
  if (clock_gettime(CLOCK_THREAD_CPUTIME_ID, &TS) != 0)
    return 0;
  return double(TS.tv_sec) + double(TS.tv_nsec) * 1e-9;
}

/// ac_corres A S — the composed whole-pipeline refinement judgement.
TermRef mkAcCorres(const TermRef &A, const TermRef &S) {
  TermRef J = Term::mkConst(
      nm::ACCorres, funTys({typeOf(A), typeOf(S)}, boolTy()));
  return mkApps(J, {A, S});
}

/// The composition axioms: each phase theorem's *proposition* is a
/// premise; the conclusion is the composite claim. (The soundness of the
/// composition is exactly the transitivity-of-refinement argument of
/// Sec 2; registered once per judgement-shape in the inventory.)
Thm composeChain(const std::vector<Thm> &Phases, const TermRef &Final,
                 const TermRef &SimplC) {
  // Build `P1 --> ... --> Pn --> ac_corres Final SIMPL` and register it
  // as an instance-independent axiom is impossible (the propositions are
  // program-specific), so the axiom is stated with schematic premises
  // via the phase propositions themselves being instances. We derive the
  // composite through one generic axiom per arity by instantiating
  // schematic placeholders with the full phase propositions.
  TermRef Concl = mkAcCorres(Final, SimplC);
  // Generic axiom: ?p1 --> ... --> ?pn --> ?q, with q the composite.
  // That shape would be unsound for arbitrary q, so instead the axiom is
  // per-shape: it requires the premises to be the actual judgement
  // constants applied to shared terms. We encode this by building the
  // implication chain from the actual propositions and registering it as
  // a *derived-by-composition* oracle, keeping the phase theorems as
  // premises in the derivation tree via repeated mp.
  TermRef Chain = Concl;
  for (size_t I = Phases.size(); I-- > 0;)
    Chain = mkImp(Phases[I].prop(), Chain);
  Thm Impl = Kernel::oracle("refinement_composition", Chain);
  Thm Cur = Impl;
  for (const Thm &P : Phases)
    Cur = Kernel::mp(Cur, P);
  return Cur;
}

std::string envOrEmpty(const char *Name) {
  const char *V = std::getenv(Name);
  return V ? std::string(V) : std::string();
}

/// The final spec of \p Out, paper style: `name' arg1 ... argn ==` and
/// the body on the lines below. Printed into Out.Render on first use.
const std::string &printFinal(FuncOutput &Out) {
  if (Out.Render.empty()) {
    std::ostringstream OS;
    OS << Out.Name << "'";
    for (const std::string &A : Out.ArgNames)
      OS << " " << A;
    OS << " ==\n" << printTerm(Out.finalBody());
    Out.Render = OS.str();
  }
  return Out.Render;
}

} // namespace

std::unique_ptr<AutoCorres> AutoCorres::run(const std::string &Source,
                                            DiagEngine &Diags,
                                            const ACOptions &Opts) {
  auto AC = std::unique_ptr<AutoCorres>(new AutoCorres());

  const std::string TracePath =
      !Opts.TracePath.empty() ? Opts.TracePath : support::Trace::envPath();
  // A traced run also profiles rules: the exported trace's `ruleProfile`
  // key carries per-rule fire counts, so AC_TRACE alone answers "which
  // rules carried this run" without a separate profiling pass. A
  // run-local trace restores the profiler's prior state on the way out.
  const bool ProfWasEnabled = support::RuleProfile::enabled();
  if (!TracePath.empty()) {
    support::RuleProfile::setEnabled(true);
    support::Trace::start();
  }

  // Certificate export: recording must be live before any theorem of
  // this run is minted, or `instantiate`/`spec` nodes lack their replay
  // payloads and their claims are unexportable. Sticky process-wide
  // (hol/Cert.h), so concurrent daemon runs cannot disable a neighbour's
  // recording.
  const std::string CertPath =
      !Opts.CertPath.empty() ? Opts.CertPath : envOrEmpty("AC_CERT");
  const std::string CertDir =
      !Opts.CertDir.empty() ? Opts.CertDir : envOrEmpty("AC_CERT_DIR");
  const bool WantCerts = !CertPath.empty() || !CertDir.empty();
  if (WantCerts)
    hol::CertLog::enable();

  support::Span RunSpan("ac.run");

  // The parser stage in two parts: here everything program-wide (the
  // cache keys need no more), and further down the Simpl bodies of just
  // the functions the cache cannot replay.
  auto T0 = std::chrono::steady_clock::now();
  double PC0 = threadCpuSeconds();
  AC->Prog = simpl::parseAndDeclare(Source, Diags);
  if (!AC->Prog)
    return nullptr;
  AC->Stats.ParserSeconds = secondsSince(T0);
  AC->Stats.ParserCpuSeconds = threadCpuSeconds() - PC0;
  AC->Stats.SourceLines = AC->Prog->TU->SourceLines;
  AC->Stats.NumFunctions = AC->Prog->FunctionOrder.size();

  AC->Ctx = monad::InterpCtx(AC->Prog.get());

  unsigned Jobs =
      Opts.Jobs ? Opts.Jobs : support::ThreadPool::defaultJobs();
  AC->Stats.Jobs = Jobs;

  auto T1 = std::chrono::steady_clock::now();
  AC->HL =
      std::make_unique<heapabs::HeapAbstraction>(*AC->Prog, AC->Ctx);
  AC->WA = std::make_unique<wordabs::WordAbstraction>(AC->Ctx);

  const std::vector<std::string> &Order = AC->Prog->FunctionOrder;
  // Per-function sinks, indexed by source position so the merged stream
  // and the summed CPU time are identical under any schedule.
  std::vector<DiagEngine> FnDiags(Order.size());
  std::vector<double> FnCpuSeconds(Order.size(), 0);
  std::mutex OutputM; // guards AC->Funcs insertions

  // Content-addressed abstraction cache (opt-in): replay every function
  // whose fingerprint — definition tokens, program-wide declarations,
  // options, and transitively its callees' fingerprints — has a stored
  // entry, and seed the HL/WA result maps with the replayed signatures so
  // that non-cached callers still translate their calls exactly as a
  // cold run would. The cache is either this run's own (loaded from
  // CacheDir, saved at the end) or a caller-owned shared instance (the
  // daemon's in-memory tier, which persists across requests and is
  // flushed by its owner).
  std::unique_ptr<ResultCache> OwnedCache;
  ResultCache *Cache = Opts.SharedCache;
  if (!Cache) {
    std::string CacheDir = ResultCache::resolveDir(Opts.CacheDir);
    if (!CacheDir.empty()) {
      OwnedCache = std::make_unique<ResultCache>(CacheDir);
      Cache = OwnedCache.get();
    }
  }
  std::map<std::string, uint64_t> Keys;
  std::vector<char> Hit(Order.size(), 0);
  // Table 5 parser-column contributions (spec lines, term size) of each
  // Simpl body: replayed on a hit, measured once on a miss.
  std::vector<std::pair<unsigned, unsigned>> SimplStats(Order.size());
  std::vector<char> HaveSimplStats(Order.size(), 0);
  auto simplStats = [&](size_t I) -> const std::pair<unsigned, unsigned> & {
    if (!HaveSimplStats[I]) {
      const simpl::SimplFunc &F = *AC->Prog->function(Order[I]);
      SimplStats[I] = {simpl::simplSpecLines(F), F.Body->termSize()};
      HaveSimplStats[I] = 1;
    }
    return SimplStats[I];
  };
  if (Cache) {
    AC->Stats.CacheEnabled = true;
    AC->Stats.CacheDroppedEntries =
        static_cast<unsigned>(Cache->corruptDropped());
    {
      AC_SPAN("cache.fingerprint");
      Keys = computeFunctionKeys(*AC->Prog, Opts.NoHeapAbs, Opts.NoWordAbs);
    }
    for (size_t I = 0; I != Order.size(); ++I) {
      const std::string &Name = Order[I];
      CachedFuncRef E = Cache->lookup(Keys.at(Name));
      if (!E || E->Name != Name) {
        ++AC->Stats.CacheMisses;
        if (Cache->knowsFunction(Name))
          ++AC->Stats.CacheInvalidations;
        continue;
      }
      Hit[I] = 1;
      ++AC->Stats.CacheHits;
      AC->HL->seedCached(Name, E->HeapLifted);
      AC->WA->seedCached(Name, E->WAEngineAbstracted);
      FuncOutput Out;
      Out.Name = Name;
      Out.ArgNames = E->ArgNames;
      Out.HeapLifted = E->HeapLifted;
      Out.WordAbstracted = E->WordAbstracted;
      Out.Cached = E;
      SimplStats[I] = {E->ParserSpecLines, E->ParserTermSize};
      HaveSimplStats[I] = 1;
      // Replay the driver notes so the merged diagnostic stream is
      // byte-identical to a cold run.
      for (const std::string &Msg : E->Notes)
        FnDiags[I].note({}, Msg);
      AC->Funcs.emplace(Name, std::move(Out));
    }
  }

  // Simpl bodies for the misses (every function when the cache is off),
  // serially and up front: the translator shares the program's records.
  // Their time belongs to the parser column, not the abstraction clock
  // that has been running since before the cache lookup.
  double BodySeconds;
  {
    AC_SPAN("simpl.translate");
    auto TB = std::chrono::steady_clock::now();
    double CB = threadCpuSeconds();
    for (size_t I = 0; I != Order.size(); ++I)
      if (!Hit[I])
        simpl::translateBody(*AC->Prog, I);
    BodySeconds = secondsSince(TB);
    AC->Stats.ParserSeconds += BodySeconds;
    AC->Stats.ParserCpuSeconds += threadCpuSeconds() - CB;
  }

  // The whole L1 -> L2 -> HL -> WA chain for the function at \p OrderIdx.
  // Safe to run concurrently for different functions once their callees
  // are done (the call-graph schedule guarantees it). Every job count
  // runs it callee-first, so a caller always sees its callees' final
  // abstractions, even for a call to a function defined later.
  auto processFn = [&](size_t OrderIdx) {
    double C0 = threadCpuSeconds();
    const std::string &Name = Order[OrderIdx];
    support::Span FnSpan("core.fn");
    FnSpan.arg("fn", Name);
    const simpl::SimplFunc *F = AC->Prog->function(Name);

    monad::L1Result L1R = monad::convertL1(*AC->Prog, *F);
    AC->Ctx.installDef("l1:" + Name, L1R.Term);
    monad::L2Result L2R = monad::convertL2(*AC->Prog, *F);
    AC->Ctx.installDef("l2:" + Name, L2R.Def);

    FuncOutput Out;
    Out.Name = Name;
    Out.ArgNames = L2R.ArgNames;
    Out.L1Term = L1R.Term;
    Out.L1Corres = L1R.Corres;
    Out.L2Body = L2R.AppliedBody;
    Out.L2Corres = L2R.Corres;

    bool WantLift = Opts.NoHeapAbs.count(Name) == 0;
    const heapabs::HLResult &H =
        AC->HL->abstractFunction(*F, L2R, /*Lift=*/WantLift);
    if (H.Lifted) {
      Out.HeapLifted = true;
      Out.HLBody = H.AppliedBody;
      Out.HLCorres = H.Corres;
    } else if (WantLift) {
      FnDiags[OrderIdx].note(
          {}, "function '" + Name +
                  "' stays on the byte-level heap (no HL rule applied)");
    }

    wordabs::WAOptions WOpts;
    WOpts.Enabled = Opts.NoWordAbs.count(Name) == 0;
    const hol::TermRef &WAInput =
        H.Lifted ? H.AppliedBody : L2R.AppliedBody;
    const wordabs::WAResult &W = AC->WA->abstractFunction(
        Name, WAInput, L2R.ArgNames, L2R.ArgTys, WOpts);
    // Per-function selection (Sec 3.2): keep the machine-word version
    // when the ideal-arithmetic abstraction only adds coercion noise
    // (bit-twiddling code is the classic case).
    bool KeepWA =
        W.Abstracted &&
        termSize(W.AppliedBody) <= (termSize(WAInput) * 3) / 2 + 64;
    if (KeepWA) {
      Out.WordAbstracted = true;
      Out.WABody = W.AppliedBody;
      Out.WACorres = W.Corres;
      Out.FinalArgTys = W.AbsArgTys;
    } else {
      Out.FinalArgTys = L2R.ArgTys;
      if (WOpts.Enabled && !W.Abstracted)
        FnDiags[OrderIdx].note(
            {}, "function '" + Name +
                    "' stays on machine words (no WA rule applied)");
    }
    Out.FinalRetTy = Out.WordAbstracted
                         ? wordabs::absTy(L2R.RetTy)
                         : L2R.RetTy;

    // Compose the end-to-end theorem.
    std::vector<Thm> Phases;
    if (Out.WordAbstracted)
      Phases.push_back(Out.WACorres);
    if (Out.HeapLifted)
      Phases.push_back(Out.HLCorres);
    Phases.push_back(Out.L2Corres);
    Phases.push_back(Out.L1Corres);
    {
      AC_SPAN("core.compose");
      Out.Pipeline = composeChain(Phases, Out.finalBody(),
                                  monad::simplBodyConst(*F));
    }

    FnCpuSeconds[OrderIdx] = threadCpuSeconds() - C0;
    std::lock_guard<std::mutex> L(OutputM);
    AC->Funcs.emplace(Name, std::move(Out));
  };

  // One unit of work per call-graph SCC (simpl/CallGraph.h), callee
  // components first; an SCC runs its members in FunctionOrder.
  // Cache-replayed functions are skipped inside their SCC, so a fully
  // cached SCC is a no-op that merely releases its dependents.
  const simpl::CallGraph &CG = AC->Prog->Calls;
  if (Jobs <= 1) {
    // Serial reference path: no pool, no scheduler, the SCCs in order.
    for (const std::vector<unsigned> &SCC : CG.SCCs)
      for (unsigned I : SCC)
        if (!Hit[I])
          processFn(I);
  } else {
    // One task per SCC, ready the moment its callee components finish —
    // no phase barriers. Each task interns into the caller's request
    // generation, if it has one (hol/Generation.h).
    hol::Generation *Gen = hol::Generation::current();
    std::vector<std::function<void()>> Tasks;
    Tasks.reserve(CG.SCCs.size());
    for (const std::vector<unsigned> &SCC : CG.SCCs)
      Tasks.push_back([&processFn, &SCC, &Hit, Gen] {
        hol::Generation::Enter InGen(Gen);
        for (unsigned I : SCC)
          if (!Hit[I])
            processFn(I);
      });
    if (Opts.SharedPool) {
      // The daemon's warm pool: concurrent runs interleave their SCC
      // tasks on it; runTaskGraph keeps per-call bookkeeping, so the
      // schedules never interfere.
      AC->Stats.Jobs = Opts.SharedPool->jobs();
      runTaskGraph(*Opts.SharedPool, Tasks, CG.Deps);
    } else {
      support::ThreadPool Pool(Jobs);
      runTaskGraph(Pool, Tasks, CG.Deps);
    }
  }

  // Store every freshly computed result before the timing gate closes:
  // rendering the artefacts is part of what a warm run saves.
  if (Cache) {
    for (size_t I = 0; I != Order.size(); ++I) {
      if (Hit[I])
        continue;
      const std::string &Name = Order[I];
      FuncOutput &Out = AC->Funcs.at(Name);
      CachedFunc E;
      E.Key = Keys.at(Name);
      E.Name = Name;
      E.HeapLifted = Out.HeapLifted;
      E.WAEngineAbstracted = AC->WA->results().at(Name).Abstracted;
      E.WordAbstracted = Out.WordAbstracted;
      E.ArgNames = Out.ArgNames;
      E.Render = printFinal(Out);
      E.L1Spec = Out.l1Spec();
      E.L2Spec = Out.l2Spec();
      E.HLSpec = Out.hlSpec();
      E.WASpec = Out.waSpec();
      E.PipelineProp = Out.pipelineProp();
      // Everything processFn reports is a driver note; replaying the
      // messages as notes reproduces the stream exactly.
      for (const Diagnostic &D : FnDiags[I].diagnostics())
        E.Notes.push_back(D.Message);
      E.SpecLines = Out.finalSpecLines();
      E.TermSize = Out.finalTermSize();
      std::tie(E.ParserSpecLines, E.ParserTermSize) = simplStats(I);
      Cache->insert(std::move(E));
    }
    if (OwnedCache)
      OwnedCache->save(); // best-effort; a failed save only costs warmth
  }

  AC->Stats.AutoCorresWallSeconds = secondsSince(T1) - BodySeconds;
  for (double S : FnCpuSeconds)
    AC->Stats.AutoCorresSeconds += S;
  for (const DiagEngine &D : FnDiags)
    Diags.merge(D);

  // Close the whole-run span before any flush: a still-open span would
  // miss this run's trace file and, after reset(), leak a stale ac.run
  // event into the next traced run in this process.
  RunSpan.end();

  // Certificate flush, outside the timed region like the trace flush:
  // claims walk only pointers the run already holds, so this is pure
  // serialisation + I/O and is best-effort — a cert that cannot be
  // written warns and never fails the run.
  if (WantCerts) {
    // Per-function certs are keyed like the abstraction cache; compute
    // the fingerprints if the cache did not already.
    if (!CertDir.empty() && Keys.empty() && !Order.empty())
      Keys = computeFunctionKeys(*AC->Prog, Opts.NoHeapAbs, Opts.NoWordAbs);
    if (!CertDir.empty()) {
      std::error_code EC;
      std::filesystem::create_directories(CertDir, EC); // best-effort
    }
    hol::CertWriter All;
    All.meta("generator", "autocorres-cpp");
    All.meta("functions", std::to_string(Order.size()));
    for (size_t I = 0; I != Order.size(); ++I) {
      const std::string &Name = Order[I];
      const FuncOutput &Out = AC->Funcs.at(Name);
      if (Out.Cached) {
        ++AC->Stats.CertSkipped; // replayed render, no live derivation
        continue;
      }
      bool Claimed = false;
      if (!CertPath.empty())
        Claimed = All.claim(Name, Out.Pipeline);
      if (!CertDir.empty()) {
        hol::CertWriter One;
        One.meta("function", Name);
        const std::string Key = support::Fingerprint::hex(Keys.at(Name));
        One.meta("key", Key);
        if (One.claim(Name, Out.Pipeline)) {
          Claimed = true;
          const std::string FilePath = CertDir + "/" + Key + ".acpc";
          if (One.write(FilePath))
            ++AC->Stats.CertsWritten;
          else
            support::Log::warn("cert.write_failed", {{"path", FilePath}});
        }
      }
      if (Claimed)
        ++AC->Stats.CertClaims;
      else
        ++AC->Stats.CertSkipped; // minted before recording was enabled
    }
    if (!CertPath.empty()) {
      if (All.write(CertPath))
        ++AC->Stats.CertsWritten;
      else
        support::Log::warn("cert.write_failed", {{"path", CertPath}});
    }
  }

  if (!TracePath.empty()) {
    // The dumped profile covers the whole registered rule inventory, not
    // just the rules this input happened to exercise.
    preregisterRules();
    if (!support::Trace::flush(TracePath))
      support::Log::warn("trace.write_failed", {{"path", TracePath}});
    // A run-local trace (Opts.TracePath without ambient AC_TRACE) must
    // not leave collection running for the rest of the process.
    if (support::Trace::envPath().empty()) {
      support::Trace::stop();
      support::Trace::reset();
      if (!ProfWasEnabled)
        support::RuleProfile::setEnabled(false);
    }
  }

  // Table 5 metrics. Without a cache, each final spec is printed here,
  // outside the timed region.
  for (size_t I = 0; I != Order.size(); ++I) {
    const auto &[SpecLines, TermSize] = simplStats(I);
    AC->Stats.ParserSpecLines += SpecLines;
    AC->Stats.ParserTermSizeTotal += TermSize;
    FuncOutput &Out = AC->Funcs.at(Order[I]);
    if (!Out.Cached)
      printFinal(Out);
    AC->Stats.ACSpecLines += Out.finalSpecLines() + 1;
    AC->Stats.ACTermSizeTotal += Out.finalTermSize();
  }
  return AC;
}

//===----------------------------------------------------------------------===//
// FuncOutput rendered views: live terms, or the cache replay.
//===----------------------------------------------------------------------===//

std::string FuncOutput::l1Spec() const {
  return Cached ? Cached->L1Spec : printTerm(L1Term);
}
std::string FuncOutput::l2Spec() const {
  return Cached ? Cached->L2Spec : printTerm(L2Body);
}
std::string FuncOutput::hlSpec() const {
  if (Cached)
    return Cached->HLSpec;
  return HLBody ? printTerm(HLBody) : std::string();
}
std::string FuncOutput::waSpec() const {
  if (Cached)
    return Cached->WASpec;
  return WABody ? printTerm(WABody) : std::string();
}
std::string FuncOutput::pipelineProp() const {
  return Cached ? Cached->PipelineProp : printTerm(Pipeline.prop());
}
unsigned FuncOutput::finalSpecLines() const {
  if (Cached)
    return Cached->SpecLines;
  assert(!Render.empty() && "the final spec is not printed yet");
  return static_cast<unsigned>(std::count(Render.begin(), Render.end(), '\n'));
}
unsigned FuncOutput::finalTermSize() const {
  return Cached ? Cached->TermSize : termSize(finalBody());
}

std::pair<unsigned, unsigned> AutoCorres::preregisterRules() {
  wordabs::WordAbstraction::registerStandardRules();
  heapabs::HeapAbstraction::registerStandardRules();
  unsigned WA = 0, HL = 0;
  for (const auto &[N, P] : Inventory::instance().axioms()) {
    bool IsWA = N.rfind("WA.", 0) == 0;
    if (!IsWA && N.rfind("HL.", 0) != 0)
      continue;
    ++(IsWA ? WA : HL);
    support::RuleProfile::preregister(N);
  }
  return {WA, HL};
}

std::string AutoCorres::render(const std::string &Name) const {
  const FuncOutput *Out = func(Name);
  if (!Out)
    return "<unknown function>";
  return Out->Cached ? Out->Cached->Render : Out->Render;
}
