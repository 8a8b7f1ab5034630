//===- WordAbsTest.cpp - Word abstraction (Sec 3) --------------------------===//
//
// Validates the abs_w_stmt refinement statement of Sec 3.3 differentially
// and reproduces the paper's worked examples: Fig 2's max, the binary
// search midpoint with its UINT_MAX guard, gcd, and the custom
// overflow-test idiom rule.
//
//===----------------------------------------------------------------------===//

#include "../common/TestUtil.h"

#include "heapabs/HeapAbs.h"
#include "hol/Print.h"
#include "wordabs/WordAbs.h"

#include <gtest/gtest.h>

using namespace ac;
using namespace ac::hol;
using namespace ac::monad;
using namespace ac::test;
using namespace ac::wordabs;

namespace {

/// Full pipeline: parse -> L1 -> L2 -> HL -> WA.
struct FullPipeline {
  std::unique_ptr<simpl::SimplProgram> Prog;
  InterpCtx Ctx;
  std::map<std::string, L2Result> L2;
  std::unique_ptr<heapabs::HeapAbstraction> HL;
  std::unique_ptr<WordAbstraction> WA;

  explicit FullPipeline(const std::string &Src) : Ctx(nullptr) {
    DiagEngine Diags;
    Prog = simpl::parseAndTranslate(Src, Diags);
    EXPECT_TRUE(Prog != nullptr) << Diags.str();
    Ctx = InterpCtx(Prog.get());
    convertAllL1(*Prog, Ctx);
    L2 = convertAllL2(*Prog, Ctx);
    HL = std::make_unique<heapabs::HeapAbstraction>(*Prog, Ctx);
    WA = std::make_unique<WordAbstraction>(Ctx);
    for (const std::string &Name : Prog->FunctionOrder) {
      const simpl::SimplFunc *F = Prog->function(Name);
      const heapabs::HLResult &H =
          HL->abstractFunction(*F, L2.at(Name));
      const L2Result &L = L2.at(Name);
      WA->abstractFunction(Name, H.AppliedBody, L.ArgNames, L.ArgTys);
    }
  }

  const WAResult &result(const std::string &Fn) const {
    return WA->results().at(Fn);
  }
  bool lifted(const std::string &Fn) const {
    return HL->results().at(Fn).Lifted;
  }
};

/// The rx image of a concrete runtime value.
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

/// One differential trial of abs_w_stmt over the heap-lifted program.
Diff checkWAOnce(FullPipeline &P, const std::string &Fn, Rng &R) {
  const simpl::SimplFunc *F = P.Prog->function(Fn);
  InterpCtx &Ctx = P.Ctx;
  TestWorld W = buildWorld(*P.Prog, Ctx, R);
  std::vector<Value> Args, AbsArgs;
  for (const auto &[Name, Ty] : F->Params) {
    Value V = randomValue(Ty, W, R, Ctx);
    AbsArgs.push_back(rxValue(V, Ty));
    Args.push_back(std::move(V));
  }
  Value Globals = randomGlobals(*P.Prog, W, R, Ctx);
  Value State = P.lifted(Fn) ? Ctx.LiftGlobalHeap(Globals, Ctx) : Globals;

  auto Apply = [&](const std::string &Prefix,
                   const std::vector<Value> &As) {
    Ctx.reset();
    Value Fun = evalClosed(Ctx.FunDefs.at(Prefix + Fn), Ctx);
    for (const Value &A : As)
      Fun = Fun.Fun(A);
    return runMonad(Fun, State, Ctx);
  };

  std::string CPrefix = P.lifted(Fn) ? "hl:" : "l2:";
  MonadResult CR = Apply(CPrefix, Args);
  bool CFuel = Ctx.OutOfFuel;
  MonadResult AR = Apply("wa:", AbsArgs);
  bool AFuel = Ctx.OutOfFuel;
  if (CFuel || AFuel)
    return Diff::Skip;

  // abs_w_stmt: if A does not fail, then C's values abstract to A's and
  // C does not fail.
  if (AR.Failed)
    return Diff::Ok;
  if (CR.Failed)
    return Diff::Mismatch;
  if (CR.Results.size() != 1 || AR.Results.size() != 1)
    return Diff::Mismatch;
  const auto &CRes = CR.Results[0];
  const auto &ARes = AR.Results[0];
  if (CRes.IsExn != ARes.IsExn)
    return Diff::Mismatch;
  TypeRef RetTy = F->RetTy ? F->RetTy : unitTy();
  if (!Value::equal(rxValue(CRes.V, RetTy), ARes.V))
    return Diff::Mismatch;
  // The state is untouched by word abstraction; final states must agree
  // on plain-global observations (heap comparisons happen in the HL
  // tests; here both sides run the same state transformers).
  return Diff::Ok;
}

const char *MaxSrc = "int max(int a, int b) {\n"
                     "  if (a < b) return b;\n"
                     "  return a;\n"
                     "}\n";

const char *MidpointSrc =
    "unsigned mid(unsigned l, unsigned r) { return (l + r) / 2; }\n";

const char *GcdSrc = "unsigned gcd(unsigned a, unsigned b) {\n"
                     "  while (b != 0) {\n"
                     "    unsigned t = b;\n"
                     "    b = a % b;\n"
                     "    a = t;\n"
                     "  }\n"
                     "  return a;\n"
                     "}\n";

const char *SignedSumSrc = "int add(int a, int b) { return a + b; }\n";

const char *SwapSrc = "void swap(unsigned *a, unsigned *b) {\n"
                      "  unsigned t = *a;\n"
                      "  *a = *b;\n"
                      "  *b = t;\n"
                      "}\n";

const char *OverflowTestSrc =
    "unsigned safe_add(unsigned x, unsigned y) {\n"
    "  if (x + y < x) return 0;\n"
    "  return x + y;\n"
    "}\n";

} // namespace

TEST(WordAbs, MidpointMatchesPaper) {
  // Sec 3.3: the running example. Expected output:
  //   do guard (l + r <= UINT_MAX); return ((l + r) div 2) od
  FullPipeline P(MidpointSrc);
  const WAResult &R = P.result("mid");
  ASSERT_TRUE(R.Abstracted);
  std::string Out = printTerm(R.AppliedBody);
  EXPECT_NE(Out.find("l + r ≤ 4294967295"), std::string::npos) << Out;
  EXPECT_NE(Out.find("(l + r) div 2"), std::string::npos) << Out;
  // The arguments became ideal naturals.
  ASSERT_EQ(R.AbsArgTys.size(), 2u);
  EXPECT_TRUE(typeEq(R.AbsArgTys[0], natTy()));
}

TEST(WordAbs, MidpointDifferential) {
  FullPipeline P(MidpointSrc);
  EXPECT_TRUE(runTrials(300, 31,
                        [&](Rng &R) { return checkWAOnce(P, "mid", R); }));
}

TEST(WordAbs, MaxBecomesIdealMax) {
  // Fig 2: max' a b = if a < b then b else a — over ideal integers.
  FullPipeline P(MaxSrc);
  const WAResult &R = P.result("max");
  ASSERT_TRUE(R.Abstracted);
  std::string Out = printTerm(R.AppliedBody);
  EXPECT_NE(Out.find("if a < b then b else a"), std::string::npos) << Out;
  // No machine-word operators remain.
  EXPECT_EQ(Out.find("<s"), std::string::npos) << Out;
  EXPECT_TRUE(typeEq(R.AbsArgTys[0], intTy()));
}

TEST(WordAbs, MaxDifferential) {
  FullPipeline P(MaxSrc);
  EXPECT_TRUE(runTrials(300, 32,
                        [&](Rng &R) { return checkWAOnce(P, "max", R); }));
}

TEST(WordAbs, SignedSumEmitsIdealGuards) {
  FullPipeline P(SignedSumSrc);
  const WAResult &R = P.result("add");
  ASSERT_TRUE(R.Abstracted);
  std::string Out = printTerm(R.AppliedBody);
  // INT_MIN <= a + b and a + b <= INT_MAX over ideal integers.
  EXPECT_NE(Out.find("-2147483648 ≤ a + b"), std::string::npos) << Out;
  EXPECT_NE(Out.find("a + b ≤ 2147483647"), std::string::npos) << Out;
}

TEST(WordAbs, SignedSumDifferential) {
  FullPipeline P(SignedSumSrc);
  EXPECT_TRUE(runTrials(300, 33,
                        [&](Rng &R) { return checkWAOnce(P, "add", R); }));
}

TEST(WordAbs, GcdDifferentialAndLoopLifts) {
  FullPipeline P(GcdSrc);
  const WAResult &R = P.result("gcd");
  ASSERT_TRUE(R.Abstracted);
  std::string Out = printTerm(R.AppliedBody);
  EXPECT_NE(Out.find("whileLoop"), std::string::npos) << Out;
  // The loop iterates over ideal naturals (mod needs no guard).
  EXPECT_EQ(Out.find("unat"), std::string::npos) << Out;
  EXPECT_TRUE(runTrials(200, 34,
                        [&](Rng &R2) { return checkWAOnce(P, "gcd", R2); }));
}

TEST(WordAbs, HeapProgramsAbstract) {
  // swap: pointers stay, the word32 heap values get unat images.
  FullPipeline P(SwapSrc);
  const WAResult &R = P.result("swap");
  ASSERT_TRUE(R.Abstracted);
  EXPECT_TRUE(runTrials(200, 35,
                        [&](Rng &R2) { return checkWAOnce(P, "swap", R2); }));
}

TEST(WordAbs, CorresTheoremShape) {
  FullPipeline P(MidpointSrc);
  const Thm &T = P.result("mid").Corres;
  std::vector<TermRef> Args;
  TermRef Head = stripApp(T.prop(), Args);
  EXPECT_TRUE(Head->isConst(names::AbsWStmt));
  ASSERT_EQ(Args.size(), 5u);
  // rx is unat (the function returns unsigned).
  EXPECT_TRUE(Args[1]->isConst(names::Unat));
  std::set<std::string> Axs, Oracles;
  collectLeaves(T, Axs, Oracles);
  for (const std::string &A : Axs)
    EXPECT_TRUE(A.rfind("WA.", 0) == 0) << "unexpected axiom " << A;
  EXPECT_TRUE(Oracles.empty());
  EXPECT_TRUE(Inventory::instance().hasAxiom("WA.triv"));
  EXPECT_TRUE(Inventory::instance().hasAxiom("WA.nat_plus_pp.32") ||
              Inventory::instance().hasAxiom("WA.nat_plus.32"));
}

TEST(WordAbs, RuleCountMatchesPaperScale) {
  // "approximately 40 rules built-in ... an additional 11 for each type"
  FullPipeline P(MidpointSrc);
  unsigned Rules = 0;
  for (const auto &[Name, Prop] : Inventory::instance().axioms())
    Rules += Name.rfind("WA.", 0) == 0;
  EXPECT_GE(Rules, 20u);
}

TEST(WordAbs, CustomIdiomRule) {
  // Sec 3.3: `x + y < x` tests unsigned overflow; without a custom rule
  // the abstraction guards the addition (making the test useless); with
  // the rule it becomes UINT_MAX < x + y.
  DiagEngine Diags;
  auto Prog = simpl::parseAndTranslate(OverflowTestSrc, Diags);
  ASSERT_TRUE(Prog != nullptr) << Diags.str();
  InterpCtx Ctx(Prog.get());
  convertAllL1(*Prog, Ctx);
  auto L2 = convertAllL2(*Prog, Ctx);
  heapabs::HeapAbstraction HL(*Prog, Ctx);
  const heapabs::HLResult &H =
      HL.abstractFunction(*Prog->function("safe_add"),
                          L2.at("safe_add"));
  WordAbstraction WA(Ctx);
  // Build the custom rule:
  //   abs_w_val P unat x' x ==> abs_w_val Q unat y' y ==>
  //   abs_w_val (P & Q) id_abs (UINT_MAX < x' + y') (x +w y <w x)
  TypeRef W32 = wordTy(32);
  TermRef UnatC = Term::mkConst(names::Unat, funTy(W32, natTy()));
  TermRef IdB = Term::mkConst("id_abs", funTy(boolTy(), boolTy()));
  TermRef Pv = Term::mkVar("P", 0, boolTy());
  TermRef Qv = Term::mkVar("Q", 0, boolTy());
  TermRef Xa = Term::mkVar("x'", 0, natTy());
  TermRef Xc = Term::mkVar("x", 0, W32);
  TermRef Ya = Term::mkVar("y'", 0, natTy());
  TermRef Yc = Term::mkVar("y", 0, W32);
  TermRef JV = Term::mkConst(
      names::AbsWVal,
      funTys({boolTy(), funTy(W32, natTy()), natTy(), W32}, boolTy()));
  TermRef JB = Term::mkConst(
      names::AbsWVal,
      funTys({boolTy(), funTy(boolTy(), boolTy()), boolTy(), boolTy()},
             boolTy()));
  TermRef Prem1 = mkApps(JV, {Pv, UnatC, Xa, Xc});
  TermRef Prem2 = mkApps(JV, {Qv, UnatC, Ya, Yc});
  TermRef AbsSide =
      mkLess(mkNumOf(natTy(), wordMaxVal(32)), mkPlus(Xa, Ya));
  TermRef ConcSide = mkLess(mkPlus(Xc, Yc), Xc);
  TermRef Concl = mkApps(JB, {mkConj(Pv, Qv), IdB, AbsSide, ConcSide});
  Thm Rule = Kernel::axiom("user.unsigned_overflow_test",
                           mkImp(Prem1, mkImp(Prem2, Concl)));
  WA.addValRule(Rule);
  const L2Result &L = L2.at("safe_add");
  const WAResult &R = WA.abstractFunction("safe_add", H.AppliedBody,
                                          L.ArgNames, L.ArgTys);
  ASSERT_TRUE(R.Abstracted);
  std::string Out = printTerm(R.AppliedBody);
  EXPECT_NE(Out.find("4294967295 < x + y"), std::string::npos) << Out;
}

TEST(WordAbs, Table2IdentitiesHoldAfterAbstraction) {
  // The Table 2 counterexamples live at the word level; after
  // abstraction the identities are restored on ideal types. Check the
  // semantics: unat images never wrap.
  InterpCtx Ctx;
  Rng R(77);
  for (int I = 0; I != 1000; ++I) {
    uint32_t U = static_cast<uint32_t>(R.next());
    // u + 1 > u: false at the word level for u = 2^32-1...
    uint32_t WordSum = U + 1;
    bool WordHolds = WordSum > U;
    // ...but always true on the ideal image.
    unsigned long long Ideal = static_cast<unsigned long long>(U) + 1;
    EXPECT_TRUE(Ideal > U);
    if (U == 0xffffffffu) {
      EXPECT_FALSE(WordHolds);
    }
  }
}
