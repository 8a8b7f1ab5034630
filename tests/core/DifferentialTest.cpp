//===- DifferentialTest.cpp - Randomized pipeline fuzzing -------*- C++ -*-===//
//
// Part of the autocorres-cpp project, under the BSD 2-Clause License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A seeded random C program generator feeding the full pipeline, with
/// every function cross-checked differentially: the Simpl interpreter
/// (ground truth) against the L1 monad, the L2 lifted function, and the
/// most abstract (HL/WA) output on random initial states. Any divergence
/// is a refinement bug — in the engines, the composition, or (since the
/// parallel scheduler reuses this machinery) the concurrency rework.
///
/// Reproduction workflow: a failing seed prints a self-contained command
///
///   AC_DIFF_SEED=<seed> ./tests/test_differential
///
/// which re-runs exactly that program with its source dumped and extra
/// trials per function.
///
//===----------------------------------------------------------------------===//

#include "../common/TestUtil.h"

#include "core/AutoCorres.h"
#include "corpus/Synthetic.h"
#include "heapabs/LiftedGlobals.h"
#include "wordabs/WordAbs.h"

#include "../../tools/acpc_check.h"

#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>

using namespace ac;
using namespace ac::hol;
using namespace ac::monad;
using namespace ac::test;
using namespace ac::wordabs;

namespace {

//===----------------------------------------------------------------------===//
// Program generator
//===----------------------------------------------------------------------===//

/// Emits one random translation unit: straight-line arithmetic, branches,
/// bounded loops, heap reads/writes on two struct types, and calls into
/// previously generated functions — every construct the C subset
/// supports and the guard machinery cares about.
class DiffGen {
public:
  explicit DiffGen(uint64_t Seed) : R(Seed) {}

  std::string run() {
    OS << "struct node { struct node *next; unsigned val; int w; };\n";
    OS << "struct box { unsigned a; unsigned b; };\n";
    OS << "unsigned g_acc = 0;\n";
    OS << "int g_sign = 0;\n";
    unsigned NumFns = 2 + static_cast<unsigned>(R.below(4));
    for (unsigned I = 0; I != NumFns; ++I)
      emitFunction(I);
    return OS.str();
  }

private:
  Rng R;
  std::ostringstream OS;
  std::vector<std::string> UnsignedFns; ///< name(unsigned, unsigned)

  unsigned pick(unsigned N) { return static_cast<unsigned>(R.below(N)); }

  void emitFunction(unsigned Idx) {
    switch (pick(6)) {
    case 0:
      emitArith(Idx);
      break;
    case 1:
      emitSigned(Idx);
      break;
    case 2:
      emitHeapNode(Idx);
      break;
    case 3:
      emitHeapBox(Idx);
      break;
    case 4:
      emitLoop(Idx);
      break;
    default:
      if (!UnsignedFns.empty())
        emitCaller(Idx);
      else
        emitArith(Idx);
      break;
    }
  }

  /// Straight-line unsigned arithmetic with branches.
  void emitArith(unsigned Idx) {
    std::string Name = "arith_" + std::to_string(Idx);
    OS << "unsigned " << Name << "(unsigned a, unsigned b) {\n";
    OS << "  unsigned acc = a;\n";
    unsigned Stmts = 2 + pick(5);
    for (unsigned I = 0; I != Stmts; ++I) {
      switch (pick(6)) {
      case 0:
        OS << "  acc = acc + (b % " << (2 + pick(29)) << "u);\n";
        break;
      case 1:
        OS << "  acc = acc * " << (1 + pick(5)) << "u;\n";
        break;
      case 2:
        OS << "  if (acc > " << (10 + pick(500)) << "u) acc = acc / "
           << (2 + pick(7)) << "u;\n";
        break;
      case 3:
        OS << "  acc = acc ^ (b << " << pick(8) << ");\n";
        break;
      case 4:
        OS << "  if (b < " << (1 + pick(100)) << "u) acc = acc - (acc % "
           << (2 + pick(9)) << "u);\n";
        break;
      default:
        OS << "  b = (b >> " << (1 + pick(4)) << ") + " << pick(10)
           << "u;\n";
        break;
      }
    }
    OS << "  return acc;\n}\n";
    UnsignedFns.push_back(Name);
  }

  /// Signed arithmetic: exercises sint abstraction and overflow guards.
  void emitSigned(unsigned Idx) {
    OS << "int sgn_" << Idx << "(int x, int y) {\n";
    OS << "  int r = 0;\n";
    unsigned Stmts = 2 + pick(3);
    for (unsigned I = 0; I != Stmts; ++I) {
      switch (pick(4)) {
      case 0:
        OS << "  if (x > y) r = r + " << (1 + pick(50))
           << "; else r = r - " << (1 + pick(50)) << ";\n";
        break;
      case 1:
        OS << "  if (x < " << (100 + pick(400)) << " && x > -"
           << (100 + pick(400)) << ") r = r + x / " << (2 + pick(5))
           << ";\n";
        break;
      case 2:
        OS << "  if (y != 0) r = x % " << (3 + pick(11)) << ";\n";
        break;
      default:
        OS << "  g_sign = r;\n";
        break;
      }
    }
    OS << "  return r;\n}\n";
  }

  /// Heap reads/writes on struct node behind a null check.
  void emitHeapNode(unsigned Idx) {
    OS << "unsigned node_" << Idx << "(struct node *p, unsigned v) {\n";
    OS << "  if (p == NULL)\n    return 0u;\n";
    unsigned Stmts = 2 + pick(4);
    for (unsigned I = 0; I != Stmts; ++I) {
      switch (pick(5)) {
      case 0:
        OS << "  p->val = p->val + (v % " << (2 + pick(30)) << "u);\n";
        break;
      case 1:
        OS << "  if (p->val > " << (10 + pick(200)) << "u) p->w = "
           << pick(64) << ";\n";
        break;
      case 2:
        OS << "  if (p->next != NULL) p->next->val = v;\n";
        break;
      case 3:
        OS << "  g_acc = g_acc + p->val;\n";
        break;
      default:
        OS << "  v = v + p->val;\n";
        break;
      }
    }
    OS << "  return v + p->val;\n}\n";
  }

  /// Heap reads/writes on the second struct type.
  void emitHeapBox(unsigned Idx) {
    OS << "unsigned box_" << Idx << "(struct box *p) {\n";
    OS << "  if (p == NULL)\n    return " << pick(16) << "u;\n";
    unsigned Stmts = 1 + pick(4);
    for (unsigned I = 0; I != Stmts; ++I) {
      switch (pick(4)) {
      case 0:
        OS << "  p->a = p->a + p->b;\n";
        break;
      case 1:
        OS << "  if (p->b > p->a) p->b = p->b - p->a;\n";
        break;
      case 2:
        OS << "  p->b = p->b ^ " << (1 + pick(255)) << "u;\n";
        break;
      default:
        OS << "  g_acc = p->a;\n";
        break;
      }
    }
    OS << "  return p->a + p->b;\n}\n";
  }

  /// Bounded while loop (always terminates within fuel).
  void emitLoop(unsigned Idx) {
    std::string Name = "loop_" + std::to_string(Idx);
    OS << "unsigned " << Name << "(unsigned a, unsigned b) {\n";
    OS << "  unsigned i = 0;\n";
    OS << "  unsigned acc = b % " << (5 + pick(20)) << "u;\n";
    OS << "  while (i < (a % " << (3 + pick(12)) << "u)) {\n";
    switch (pick(3)) {
    case 0:
      OS << "    acc = acc + i;\n";
      break;
    case 1:
      OS << "    acc = acc * 2u + 1u;\n";
      break;
    default:
      OS << "    if (acc > " << (20 + pick(100)) << "u) acc = acc - "
         << (1 + pick(20)) << "u;\n";
      break;
    }
    OS << "    i = i + 1u;\n";
    OS << "  }\n";
    OS << "  return acc;\n}\n";
    UnsignedFns.push_back(Name);
  }

  /// Calls previously generated unsigned functions.
  void emitCaller(unsigned Idx) {
    OS << "unsigned call_" << Idx << "(unsigned x, unsigned y) {\n";
    OS << "  unsigned r = 0;\n";
    unsigned Calls = 1 + pick(2);
    for (unsigned I = 0; I != Calls; ++I) {
      const std::string &Callee =
          UnsignedFns[pick(static_cast<unsigned>(UnsignedFns.size()))];
      OS << "  r = r + " << Callee << "(x % " << (3 + pick(17))
         << "u, y % " << (5 + pick(50)) << "u);\n";
    }
    OS << "  return r;\n}\n";
  }
};

//===----------------------------------------------------------------------===//
// Differential checks
//===----------------------------------------------------------------------===//

/// The rx image of a concrete runtime value (mirrors Sec 3.3's rx).
Value rxValue(const Value &V, const TypeRef &CTy) {
  switch (kindOf(CTy)) {
  case AbsKind::Nat:
    return Value::num(V.N, natTy()); // unsigned words are non-negative
  case AbsKind::Int:
    return Value::num(V.N, intTy()); // stored sign-extended
  case AbsKind::Pair:
    return Value::pair(rxValue(V.PairV->first, CTy->arg(0)),
                       rxValue(V.PairV->second, CTy->arg(1)));
  case AbsKind::Id:
    return V;
  }
  return V;
}

/// Observational equality of lifted states (same probing discipline as
/// the HL test suite): split heaps compared at world objects plus a few
/// invalid addresses, plain globals directly.
bool liftedEq(const Value &A, const Value &B,
              const heapabs::LiftedGlobals &LG, const TestWorld &W) {
  for (const TypeRef &T : LG.HeapTypes) {
    std::vector<uint32_t> Probes = {0, 2, 0xfffffffc};
    // Probe every known object of every type (cross-type aliasing).
    for (const auto &[Name, Addrs] : W.Objects) {
      (void)Name;
      Probes.insert(Probes.end(), Addrs.begin(), Addrs.end());
    }
    const Value &VA = A.Rec->at(heapabs::validFieldFor(T));
    const Value &VB = B.Rec->at(heapabs::validFieldFor(T));
    const Value &HA = A.Rec->at(heapabs::heapFieldFor(T));
    const Value &HB = B.Rec->at(heapabs::heapFieldFor(T));
    for (uint32_t P : Probes) {
      Value PV = Value::ptr(P, typeStr(T));
      Value ValidA = VA.Fun(PV);
      Value ValidB = VB.Fun(PV);
      if (ValidA.B != ValidB.B)
        return false;
      if (ValidA.B && !Value::equal(HA.Fun(PV), HB.Fun(PV)))
        return false;
    }
  }
  for (const auto &[Name, Ty] : LG.PlainGlobals) {
    (void)Ty;
    if (!Value::equal(A.Rec->at(Name), B.Rec->at(Name)))
      return false;
  }
  return true;
}

/// Simpl ground truth vs the most abstract (finalKey) monadic output.
/// Composed semantics: if the abstract run does not fail, the concrete
/// execution must not fault and its observations must abstract to the
/// abstract run's (rx on the return value, lift_global_heap on state).
Diff checkFinalOnce(core::AutoCorres &AC, const std::string &Fn, Rng &R) {
  const simpl::SimplProgram &Prog = AC.program();
  const simpl::SimplFunc *F = Prog.function(Fn);
  const core::FuncOutput *Out = AC.func(Fn);
  InterpCtx &Ctx = AC.ctx();

  TestWorld W = buildWorld(Prog, Ctx, R);
  std::vector<Value> Args, AbsArgs;
  for (const auto &[Name, Ty] : F->Params) {
    (void)Name;
    Value V = randomValue(Ty, W, R, Ctx);
    AbsArgs.push_back(Out->WordAbstracted ? rxValue(V, Ty) : V);
    Args.push_back(std::move(V));
  }
  Value Globals = randomGlobals(Prog, W, R, Ctx);

  Ctx.reset();
  SimplOutcome SO = runSimplFunction(*F, Args, Globals, Ctx);
  if (SO.K == SimplOutcome::Kind::Stuck)
    return Diff::Skip;

  Value State =
      Out->HeapLifted ? Ctx.LiftGlobalHeap(Globals, Ctx) : Globals;
  Ctx.reset();
  Value Fun = evalClosed(Ctx.FunDefs.at(Out->finalKey()), Ctx);
  for (const Value &A : AbsArgs)
    Fun = Fun.Fun(A);
  MonadResult AR = runMonad(Fun, State, Ctx);
  if (Ctx.OutOfFuel)
    return Diff::Skip;

  // The abstract program may fail more often than SIMPL (heap and
  // overflow guards); a failing abstract run makes the refinement
  // statement vacuous.
  if (AR.Failed)
    return Diff::Ok;
  if (SO.K == SimplOutcome::Kind::Fault)
    return Diff::Mismatch; // abstract succeeded; concrete must too
  if (AR.Results.size() != 1 || AR.Results[0].IsExn)
    return Diff::Mismatch;
  const MonadResult::Res &ARes = AR.Results[0];

  // Return value: the abstract result is the rx image of the concrete.
  if (F->RetTy) {
    Value CRet = SO.State.Rec->at(simpl::retVarName());
    Value Want = Out->WordAbstracted ? rxValue(CRet, F->RetTy) : CRet;
    if (!Value::equal(Want, ARes.V))
      return Diff::Mismatch;
  }

  // Final state: abstract against the lifted image of the concrete one.
  Value CGlobals = SO.State.Rec->at("globals");
  if (Out->HeapLifted) {
    Value LiftedFinal = Ctx.LiftGlobalHeap(CGlobals, Ctx);
    if (!liftedEq(LiftedFinal, ARes.State, AC.lifted(), W))
      return Diff::Mismatch;
  } else if (!Value::equal(ARes.State, CGlobals)) {
    return Diff::Mismatch;
  }
  return Diff::Ok;
}

//===----------------------------------------------------------------------===//
// Harness
//===----------------------------------------------------------------------===//

struct Tally {
  unsigned Ok = 0;
  unsigned Skip = 0;
  std::vector<std::string> Failures;
};

void count(Diff D, const std::string &What, uint64_t Seed, Tally &T) {
  switch (D) {
  case Diff::Ok:
    ++T.Ok;
    break;
  case Diff::Skip:
    ++T.Skip;
    break;
  case Diff::Mismatch:
    T.Failures.push_back(
        What + " diverged\nreproduce with: AC_DIFF_SEED=" +
        std::to_string(Seed) + " ./tests/test_differential");
    break;
  }
}

/// Pipes one seeded program through the pipeline and checks every
/// function at every level. \p Verbose dumps source and per-function
/// detail (used by the AC_DIFF_SEED reproduction mode).
void checkProgram(uint64_t Seed, unsigned TrialsPerFn, Tally &T,
                  bool Verbose = false) {
  std::string Src = DiffGen(Seed).run();
  if (Verbose)
    std::fprintf(stderr, "=== seed %llu ===\n%s\n",
                 static_cast<unsigned long long>(Seed), Src.c_str());

  DiagEngine Diags;
  auto AC = core::AutoCorres::run(Src, Diags);
  if (!AC) {
    T.Failures.push_back("pipeline failed (seed " + std::to_string(Seed) +
                         "):\n" + Diags.str() + "\nsource:\n" + Src);
    return;
  }

  for (const std::string &Fn : AC->order()) {
    if (Verbose) {
      const core::FuncOutput *O = AC->func(Fn);
      std::fprintf(stderr, "  %s -> %s  ret=%s\n%s\n", Fn.c_str(),
                   O->finalKey().c_str(),
                   O->FinalRetTy ? typeStr(O->FinalRetTy).c_str() : "void",
                   AC->render(Fn).c_str());
    }
    for (unsigned I = 0; I != TrialsPerFn; ++I) {
      uint64_t TrialSeed = Seed * 1000003 + I * 7919;
      {
        Rng R(TrialSeed);
        count(checkL1Once(AC->program(), Fn, AC->ctx(), R),
              "L1 vs Simpl [" + Fn + "]", Seed, T);
      }
      {
        Rng R(TrialSeed ^ 0x5bd1e995);
        count(checkL2Once(AC->program(), Fn, AC->ctx(), R),
              "L2 vs Simpl [" + Fn + "]", Seed, T);
      }
      {
        Rng R(TrialSeed ^ 0xc2b2ae35);
        count(checkFinalOnce(*AC, Fn, R),
              AC->func(Fn)->finalKey() + " vs Simpl [" + Fn + "]", Seed,
              T);
      }
    }
  }
}

void reportFailures(const Tally &T) {
  for (const std::string &F : T.Failures)
    ADD_FAILURE() << F;
}

} // namespace

// Two disjoint seed banks: the original 220-program bank, and a second
// bank added when the kernel representation moved to hash-consing —
// fresh programs the interning, rule-index and memo fast paths have never
// seen, summing to a 500-program sweep.
constexpr unsigned BankAPrograms = 220;
constexpr uint64_t BankABase = 0xd1ff0001;
constexpr unsigned BankBPrograms = 280;
constexpr uint64_t BankBBase = 0xd1ffba5e;

TEST(Differential, RandomProgramSweep) {
  // AC_DIFF_SEED replays a single failing seed with its source dumped.
  if (const char *E = std::getenv("AC_DIFF_SEED")) {
    uint64_t Seed = std::strtoull(E, nullptr, 10);
    Tally T;
    checkProgram(Seed, /*TrialsPerFn=*/12, T, /*Verbose=*/true);
    reportFailures(T);
    EXPECT_GT(T.Ok, 0u) << "all trials inconclusive for seed " << Seed;
    return;
  }

  Tally T;
  for (unsigned P = 0; P != BankAPrograms; ++P)
    checkProgram(BankABase + P, /*TrialsPerFn=*/4, T);
  for (unsigned P = 0; P != BankBPrograms; ++P)
    checkProgram(BankBBase + P, /*TrialsPerFn=*/4, T);
  reportFailures(T);
  // The sweep must be conclusive, not vacuously green: most trials run
  // three checks per function, so Ok counts should dwarf program count.
  EXPECT_GT(T.Ok, (BankAPrograms + BankBPrograms) * 3)
      << "sweep mostly inconclusive: Ok=" << T.Ok << " Skip=" << T.Skip;
}

/// Seeds that once surfaced a divergence (or exercised a then-new fast
/// path) are pinned here with extra trials, so the exact program that
/// broke an engine keeps guarding it after the sweep's banks move on.
/// Every entry records why it earned its place.
TEST(Differential, PinnedSeeds) {
  struct Pin {
    uint64_t Seed;
    const char *Why;
  };
  const Pin Pins[] = {
      // Bank boundaries of the 500-program sweep: first/last program of
      // each bank, replayed at triple trials. These pin the sweep's
      // endpoints against generator drift when banks are renumbered.
      {0xd1ff0001, "bank A first program"},
      {0xd1ff0001 + 219, "bank A last program"},
      {0xd1ffba5e, "bank B first program"},
      {0xd1ffba5e + 279, "bank B last program"},
  };
  Tally T;
  for (const Pin &P : Pins) {
    size_t Before = T.Failures.size();
    checkProgram(P.Seed, /*TrialsPerFn=*/12, T);
    for (size_t I = Before; I != T.Failures.size(); ++I)
      T.Failures[I] += std::string("\npinned because: ") + P.Why;
  }
  reportFailures(T);
  EXPECT_GT(T.Ok, 0u);
}

namespace {

/// The canonical user-visible image of one run, GoldenSpecTest-style:
/// per function the final-definition key, the rendered spec, and the
/// composed theorem; then the diagnostic stream.
std::string dumpRun(const std::string &Src, core::ACOptions Opts,
                    unsigned &CertClaims) {
  DiagEngine Diags;
  auto AC = core::AutoCorres::run(Src, Diags, Opts);
  if (!AC)
    return "<run failed>\n" + Diags.str();
  std::ostringstream OS;
  for (const std::string &Fn : AC->order()) {
    const core::FuncOutput *F = AC->func(Fn);
    OS << "== " << Fn << "\n";
    OS << F->finalKey() << "\n";
    OS << AC->render(Fn) << "\n";
    OS << F->pipelineProp() << "\n";
  }
  for (const Diagnostic &D : Diags.diagnostics())
    OS << D.str() << "\n";
  CertClaims = AC->stats().CertClaims;
  return OS.str();
}

} // namespace

/// Certificate recording must be a pure observer: over a pinned
/// 50-program subsample of bank A, every run's user-visible output is
/// byte-identical with and without a certificate being exported, and the
/// exported certificate re-derives under the independent checker with
/// one claim per function. Runs in two strict phases — all baselines
/// before the first cert run — because recording is process-sticky once
/// enabled; this test must therefore stay the last one registered in
/// this suite that cares about recording being off.
TEST(Differential, CertificateNonPerturbation) {
  constexpr unsigned Programs = 50;
  constexpr uint64_t Base = 0xd1ff0001; // bank A, stride 4 subsample
  namespace fs = std::filesystem;
  std::string Scratch =
      (fs::temp_directory_path() /
       ("ac-diffcert-" + std::to_string(getpid())))
          .string();
  std::error_code EC;
  fs::create_directories(Scratch, EC);
  ASSERT_FALSE(EC) << "cannot create scratch dir " << Scratch;

  // Phase 1: baselines, recording off. Private cold cache directories
  // keep the comparison honest under $AC_CACHE_DIR (a cache replay
  // never mints derivations, so a warm cert run would be vacuous).
  std::vector<std::string> Sources(Programs), Baselines(Programs);
  for (unsigned P = 0; P != Programs; ++P) {
    uint64_t Seed = Base + P * 4;
    Sources[P] = DiffGen(Seed).run();
    core::ACOptions Opts;
    Opts.CacheDir = Scratch + "/base-" + std::to_string(P);
    unsigned Claims = ~0u;
    Baselines[P] = dumpRun(Sources[P], Opts, Claims);
    EXPECT_EQ(Claims, 0u) << "baseline run claimed certificates";
  }

  // Phase 2: identical runs with a certificate exported.
  for (unsigned P = 0; P != Programs; ++P) {
    uint64_t Seed = Base + P * 4;
    core::ACOptions Opts;
    Opts.CacheDir = Scratch + "/cert-" + std::to_string(P);
    Opts.CertPath = Scratch + "/p" + std::to_string(P) + ".acpc";
    unsigned Claims = 0;
    std::string Dump = dumpRun(Sources[P], Opts, Claims);
    EXPECT_EQ(Dump, Baselines[P])
        << "recording perturbed pipeline output; reproduce with: "
           "AC_DIFF_SEED="
        << Seed << " ./tests/test_differential";
    EXPECT_GT(Claims, 0u);

    std::ifstream In(Opts.CertPath, std::ios::binary);
    ASSERT_TRUE(In.good()) << "certificate not written for seed " << Seed;
    std::ostringstream Buf;
    Buf << In.rdbuf();
    acpc::Result R = acpc::check(Buf.str());
    EXPECT_TRUE(R.Ok) << "seed " << Seed << ": line " << R.Line << ": "
                      << R.Error;
    EXPECT_EQ(R.ClaimCount, Claims);
  }
  fs::remove_all(Scratch, EC);
}

//===----------------------------------------------------------------------===//
// Declaration-pass invariants. The abstraction cache keys a function from
// what the declaration pass computed, and a warm run translates only the
// bodies that miss, so the declaration pass must leave no body anything
// program-wide to add, and its AST call graph must be the one the bodies
// express.
//===----------------------------------------------------------------------===//

namespace {

std::string typeName(const TypeRef &T) { return T ? typeStr(T) : "<void>"; }

std::string varsStr(const std::vector<std::pair<std::string, TypeRef>> &Vs) {
  std::string S;
  for (const auto &[Name, Ty] : Vs)
    S += Name + ":" + typeName(Ty) + ";";
  return S;
}

/// Every function a Simpl body calls, deduplicated, in first-call order.
void simplCallees(const simpl::SimplStmtPtr &S,
                  std::vector<std::string> &Out) {
  if (!S)
    return;
  if (S->kind() == simpl::SimplStmt::Kind::Call &&
      std::find(Out.begin(), Out.end(), S->Callee) == Out.end())
    Out.push_back(S->Callee);
  simplCallees(S->A, Out);
  simplCallees(S->B, Out);
}

void checkDeclarationPass(const std::string &Src, const std::string &What) {
  DiagEngine D1, D2;
  auto Decl = simpl::parseAndDeclare(Src, D1);
  auto Full = simpl::parseAndTranslate(Src, D2);
  ASSERT_TRUE(Decl && Full) << What << "\n" << D1.str() << D2.str();

  // The program-wide state a body reads.
  ASSERT_EQ(Decl->Records.all().size(), Full->Records.all().size()) << What;
  for (const auto &[Name, RI] : Full->Records.all()) {
    const RecordInfo *DI = Decl->Records.lookup(Name);
    ASSERT_TRUE(DI) << What << ": record " << Name
                    << " appears only with the bodies";
    EXPECT_EQ(varsStr(DI->Fields), varsStr(RI.Fields))
        << What << ": record " << Name;
  }
  ASSERT_EQ(Decl->HeapTypes.size(), Full->HeapTypes.size()) << What;
  for (size_t I = 0; I != Full->HeapTypes.size(); ++I)
    EXPECT_EQ(typeName(Decl->HeapTypes[I]), typeName(Full->HeapTypes[I]))
        << What << ": heap type " << I;
  EXPECT_EQ(typeName(Decl->GlobalsTy), typeName(Full->GlobalsTy)) << What;
  ASSERT_EQ(Decl->FunctionOrder, Full->FunctionOrder) << What;

  for (size_t I = 0; I != Full->FunctionOrder.size(); ++I) {
    const std::string &Name = Full->FunctionOrder[I];
    const simpl::SimplFunc &DF = *Decl->function(Name);
    const simpl::SimplFunc &FF = *Full->function(Name);
    const std::string At = What + ": " + Name;
    EXPECT_EQ(varsStr(DF.Params), varsStr(FF.Params)) << At;
    EXPECT_EQ(typeName(DF.RetTy), typeName(FF.RetTy)) << At;
    EXPECT_EQ(varsStr(DF.Locals), varsStr(FF.Locals)) << At;
    EXPECT_EQ(typeName(DF.StateTy), typeName(FF.StateTy)) << At;
    EXPECT_EQ(DF.IsRecursive, FF.IsRecursive) << At;
    EXPECT_FALSE(DF.Body) << At << ": the declaration pass made a body";

    // The AST call graph against the translated body's Call statements.
    std::vector<std::string> FromBody, FromGraph;
    simplCallees(FF.Body, FromBody);
    for (unsigned C : Decl->Calls.Callees[I])
      FromGraph.push_back(Decl->FunctionOrder[C]);
    EXPECT_EQ(FromGraph, FromBody) << At;
  }
}

} // namespace

TEST(Differential, DeclarationPassInvariants) {
  unsigned Recursive = 0, Calls = 0, HeapTyped = 0;
  auto Check = [&](const std::string &Src, const std::string &What) {
    checkDeclarationPass(Src, What);
    DiagEngine Diags;
    auto Prog = simpl::parseAndDeclare(Src, Diags);
    ASSERT_TRUE(Prog) << What;
    HeapTyped += !Prog->HeapTypes.empty();
    for (unsigned I = 0; I != Prog->FunctionOrder.size(); ++I) {
      Recursive += Prog->Calls.isRecursive(I);
      Calls += static_cast<unsigned>(Prog->Calls.Callees[I].size());
    }
  };
  for (unsigned P = 0; P != BankAPrograms; ++P)
    Check(DiffGen(BankABase + P).run(),
          "bank A program " + std::to_string(P));
  for (unsigned P = 0; P != BankBPrograms; ++P)
    Check(DiffGen(BankBBase + P).run(),
          "bank B program " + std::to_string(P));
  for (const corpus::SyntheticSpec &Spec :
       {corpus::sel4Scale(), corpus::capdlScale(), corpus::piccoloScale(),
        corpus::echronosScale()})
    Check(corpus::generateSyntheticProgram(Spec), Spec.Name + " preset");
  // Neither source recurses; a cycle through three functions, one of
  // them calling itself, covers IsRecursive.
  Check("unsigned int even(unsigned int n) { unsigned int r; "
        "if (n == 0u) { return 1u; } r = odd(n - 1u); return r; }\n"
        "unsigned int odd(unsigned int n) { unsigned int r; "
        "if (n == 0u) { return 0u; } r = even(n - 1u); return r; }\n"
        "unsigned int spin(unsigned int n) { unsigned int r; "
        "if (n < 2u) { return even(n); } r = spin(n - 2u); return r; }\n"
        "unsigned int top(unsigned int n) { return spin(n) + odd(n); }\n",
        "recursive unit");
  // Not vacuous: the inputs call, recurse and touch the heap.
  EXPECT_GT(Calls, 300u);
  EXPECT_GT(HeapTyped, 300u);
  EXPECT_EQ(Recursive, 3u);
}
