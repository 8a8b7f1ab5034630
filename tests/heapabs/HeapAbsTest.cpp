//===- HeapAbsTest.cpp - Heap abstraction (Sec 4) --------------------------===//
//
// Validates the abs_h_stmt refinement statement of Sec 4.5 differentially:
// for every concrete execution of the byte-level program, the lifted
// program — run on the lifted state — produces the corresponding abstract
// behaviour, and abstract non-failure implies concrete non-failure.
//
//===----------------------------------------------------------------------===//

#include "../common/TestUtil.h"

#include "heapabs/HeapAbs.h"
#include "hol/Print.h"

#include <gtest/gtest.h>

#include <functional>

using namespace ac;
using namespace ac::hol;
using namespace ac::monad;
using namespace ac::test;
using namespace ac::heapabs;

namespace {

struct HLPipeline {
  std::unique_ptr<simpl::SimplProgram> Prog;
  InterpCtx Ctx;
  std::map<std::string, L2Result> L2;
  std::unique_ptr<HeapAbstraction> HL;

  /// \p Setup runs on the engine before any function is abstracted.
  explicit HLPipeline(
      const std::string &Src,
      const std::function<void(HeapAbstraction &)> &Setup = {})
      : Ctx(nullptr) {
    DiagEngine Diags;
    Prog = simpl::parseAndTranslate(Src, Diags);
    EXPECT_TRUE(Prog != nullptr) << Diags.str();
    Ctx = InterpCtx(Prog.get());
    convertAllL1(*Prog, Ctx);
    L2 = convertAllL2(*Prog, Ctx);
    HL = std::make_unique<HeapAbstraction>(*Prog, Ctx);
    if (Setup)
      Setup(*HL);
    for (const std::string &Name : Prog->FunctionOrder)
      HL->abstractFunction(*Prog->function(Name), L2.at(Name));
  }

  const HLResult &result(const std::string &Fn) const {
    return HL->results().at(Fn);
  }
};

/// Observational equality of lifted states: probe the split heaps at the
/// world's object addresses plus a few invalid ones, and compare plain
/// globals directly.
bool liftedEq(const Value &A, const Value &B, const LiftedGlobals &LG,
              const TestWorld &W) {
  for (const TypeRef &T : LG.HeapTypes) {
    std::vector<uint32_t> Probes = {0, 2, 0xfffffffc};
    if (const auto *Objs = W.objectsOf(typeStr(T)))
      Probes.insert(Probes.end(), Objs->begin(), Objs->end());
    // Probe every known object of every type (cross-type aliasing).
    for (const auto &[Name, Addrs] : W.Objects)
      Probes.insert(Probes.end(), Addrs.begin(), Addrs.end());
    const Value &VA = A.Rec->at(validFieldFor(T));
    const Value &VB = B.Rec->at(validFieldFor(T));
    const Value &HA = A.Rec->at(heapFieldFor(T));
    const Value &HB = B.Rec->at(heapFieldFor(T));
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

/// One differential trial of abs_h_stmt for a function.
Diff checkHLOnce(HLPipeline &P, const std::string &Fn, Rng &R) {
  const simpl::SimplFunc *F = P.Prog->function(Fn);
  InterpCtx &Ctx = P.Ctx;
  TestWorld W = buildWorld(*P.Prog, Ctx, R);
  std::vector<Value> Args;
  for (const auto &[Name, Ty] : F->Params)
    Args.push_back(randomValue(Ty, W, R, Ctx));
  Value Globals = randomGlobals(*P.Prog, W, R, Ctx);

  auto Apply = [&](const std::string &Prefix, const Value &S) {
    Ctx.reset();
    Value Fun = evalClosed(Ctx.FunDefs.at(Prefix + Fn), Ctx);
    for (const Value &A : Args)
      Fun = Fun.Fun(A);
    return runMonad(Fun, S, Ctx);
  };

  MonadResult CR = Apply("l2:", Globals);
  bool CFuel = Ctx.OutOfFuel;
  Value Lifted = Ctx.LiftGlobalHeap(Globals, Ctx);
  MonadResult AR = Apply("hl:", Lifted);
  bool AFuel = Ctx.OutOfFuel;
  if (CFuel || AFuel)
    return Diff::Skip;

  // abs_h_stmt: if A does not fail, C's behaviours are reproduced and C
  // does not fail.
  if (AR.Failed)
    return Diff::Ok; // vacuous (A failed; nothing to check)
  if (CR.Failed)
    return Diff::Mismatch;
  if (CR.Results.size() != 1 || AR.Results.size() != 1)
    return Diff::Mismatch;
  const auto &CRes = CR.Results[0];
  const auto &ARes = AR.Results[0];
  if (CRes.IsExn != ARes.IsExn || !Value::equal(CRes.V, ARes.V))
    return Diff::Mismatch;
  Value LiftedFinal = Ctx.LiftGlobalHeap(CRes.State, Ctx);
  return liftedEq(LiftedFinal, ARes.State, P.HL->lifted(), W)
             ? Diff::Ok
             : Diff::Mismatch;
}

const char *SwapSrc = "void swap(unsigned *a, unsigned *b) {\n"
                      "  unsigned t = *a;\n"
                      "  *a = *b;\n"
                      "  *b = t;\n"
                      "}\n";

const char *ReverseSrc =
    "struct node { struct node *next; unsigned data; };\n"
    "struct node *reverse(struct node *list) {\n"
    "  struct node *rev = NULL;\n"
    "  while (list) {\n"
    "    struct node *next = list->next;\n"
    "    list->next = rev; rev = list; list = next;\n"
    "  }\n"
    "  return rev;\n"
    "}\n";

const char *SuzukiSrc =
    "struct node { struct node *next; int data; };\n"
    "int suzuki(struct node *w, struct node *x, struct node *y,\n"
    "           struct node *z) {\n"
    "  w->next = x; x->next = y; y->next = z; x->next = z;\n"
    "  w->data = 1; x->data = 2; y->data = 3; z->data = 4;\n"
    "  return w->next->next->data;\n"
    "}\n";

const char *GlobalsSrc = "unsigned counter = 0;\n"
                         "unsigned bump(unsigned *p) {\n"
                         "  counter = counter + *p;\n"
                         "  *p = counter;\n"
                         "  return counter;\n"
                         "}\n";

const char *CallSrc = "unsigned get(unsigned *p) { return *p; }\n"
                      "void put(unsigned *p, unsigned v) { *p = v; }\n"
                      "void move(unsigned *a, unsigned *b) {\n"
                      "  unsigned v = get(a);\n"
                      "  put(b, v);\n"
                      "}\n";

const char *NotSrc = "unsigned inv(unsigned *p) { return ~*p; }\n";

/// The user idiom rule
///   abs_h_val ?P ?a ?c ==>
///   abs_h_val ?P (%s. bitNOT (?a s)) (%s. bitNOT (?c s))
/// at word32, lifting C's `~` through its operand's abstraction.
Thm bitNotUserRule() {
  TypeRef W32 = wordTy(32);
  TypeRef LTy = recordTy(liftedRecName());
  TypeRef GTy = recordTy(simpl::globalsRecName());
  TermRef AbsHVal = Term::mkConst(
      names::AbsHVal,
      funTys({funTy(LTy, boolTy()), funTy(LTy, W32), funTy(GTy, W32)},
             boolTy()));
  TermRef NotC = Term::mkConst(names::BitNot, funTy(W32, W32));
  TermRef P = Term::mkVar("P", 0, funTy(LTy, boolTy()));
  TermRef A = Term::mkVar("a", 0, funTy(LTy, W32));
  TermRef C = Term::mkVar("c", 0, funTy(GTy, W32));
  auto notOf = [&](const TermRef &F, const TypeRef &STy) {
    return Term::mkLam(
        "s", STy,
        Term::mkApp(NotC, Term::mkApp(F, Term::mkBound(0))));
  };
  return Kernel::axiom(
      "user.hl_bitnot",
      mkImp(mkApps(AbsHVal, {P, A, C}),
            mkApps(AbsHVal, {P, notOf(A, LTy), notOf(C, GTy)})));
}

} // namespace

TEST(HeapAbs, SwapLiftsAndMatchesFig5) {
  HLPipeline P(SwapSrc);
  const HLResult &R = P.result("swap");
  ASSERT_TRUE(R.Lifted);
  std::string Out = printTerm(R.AppliedBody);
  // Fig 5: guards become is_valid_w32; accesses become s[p] / s[p := v].
  EXPECT_NE(Out.find("is_valid_w32"), std::string::npos) << Out;
  EXPECT_NE(Out.find("s[a]"), std::string::npos) << Out;
  EXPECT_NE(Out.find("s[b := "), std::string::npos) << Out;
  // No byte-level operations remain.
  EXPECT_EQ(Out.find("heap'"), std::string::npos) << Out;
  EXPECT_EQ(Out.find("ptr_aligned"), std::string::npos) << Out;
}

TEST(HeapAbs, SwapDifferential) {
  HLPipeline P(SwapSrc);
  EXPECT_TRUE(runTrials(300, 21,
                        [&](Rng &R) { return checkHLOnce(P, "swap", R); }));
}

TEST(HeapAbs, ReverseLiftsAndDifferential) {
  HLPipeline P(ReverseSrc);
  ASSERT_TRUE(P.result("reverse").Lifted);
  std::string Out = printTerm(P.result("reverse").AppliedBody);
  EXPECT_NE(Out.find("is_valid_node_C"), std::string::npos) << Out;
  EXPECT_NE(Out.find("[list"), std::string::npos) << Out;
  EXPECT_TRUE(runTrials(200, 22, [&](Rng &R) {
    return checkHLOnce(P, "reverse", R);
  }));
}

TEST(HeapAbs, SuzukiDifferential) {
  HLPipeline P(SuzukiSrc);
  ASSERT_TRUE(P.result("suzuki").Lifted);
  EXPECT_TRUE(runTrials(300, 23, [&](Rng &R) {
    return checkHLOnce(P, "suzuki", R);
  }));
}

TEST(HeapAbs, SuzukiComputesFourOnDistinctNodes) {
  HLPipeline P(SuzukiSrc);
  InterpCtx &Ctx = P.Ctx;
  Rng R(99);
  TestWorld W = buildWorld(*P.Prog, Ctx, R);
  const auto &Nodes = W.Objects.at("node_C");
  ASSERT_GE(Nodes.size(), 4u);
  Value Globals = randomGlobals(*P.Prog, W, R, Ctx);
  Value Lifted = Ctx.LiftGlobalHeap(Globals, Ctx);
  Value Fun = evalClosed(Ctx.FunDefs.at("hl:suzuki"), Ctx);
  for (unsigned I = 0; I != 4; ++I)
    Fun = Fun.Fun(Value::ptr(Nodes[I], "node_C"));
  Ctx.reset();
  MonadResult MR = runMonad(Fun, Lifted, Ctx);
  ASSERT_FALSE(MR.Failed);
  ASSERT_EQ(MR.Results.size(), 1u);
  EXPECT_EQ(static_cast<long long>(MR.Results[0].V.N), 4);
}

TEST(HeapAbs, GlobalsMixDifferential) {
  HLPipeline P(GlobalsSrc);
  ASSERT_TRUE(P.result("bump").Lifted);
  EXPECT_TRUE(runTrials(300, 24,
                        [&](Rng &R) { return checkHLOnce(P, "bump", R); }));
}

TEST(HeapAbs, CallsDifferential) {
  HLPipeline P(CallSrc);
  ASSERT_TRUE(P.result("move").Lifted);
  EXPECT_TRUE(runTrials(200, 25,
                        [&](Rng &R) { return checkHLOnce(P, "move", R); }));
}

TEST(HeapAbs, DerivationLeavesAreHLRules) {
  HLPipeline P(SwapSrc);
  std::set<std::string> Axs, Oracles;
  collectLeaves(P.result("swap").Corres, Axs, Oracles);
  for (const std::string &A : Axs)
    EXPECT_TRUE(A.rfind("HL.", 0) == 0) << "unexpected axiom " << A;
  // The swap derivation is pure rule application: no oracles at all.
  EXPECT_TRUE(Oracles.empty());
  // And the derivation is substantial (one instantiation per node).
  EXPECT_GT(derivSize(P.result("swap").Corres), 20u);
}

TEST(HeapAbs, UserValRuleFiresAndKeepsTheSpec) {
  // Without the user rule, HL.val_app lifts `~*p`; with it, the rule
  // fires instead and must derive the same spec.
  HLPipeline Plain(NotSrc);
  ASSERT_TRUE(Plain.result("inv").Lifted);
  HLPipeline User(NotSrc, [](HeapAbstraction &HL) {
    HL.addValRule(bitNotUserRule());
  });
  const HLResult &R = User.result("inv");
  ASSERT_TRUE(R.Lifted);
  EXPECT_EQ(printTerm(R.AppliedBody),
            printTerm(Plain.result("inv").AppliedBody));
  std::set<std::string> Axs, Oracles;
  collectLeaves(R.Corres, Axs, Oracles);
  EXPECT_TRUE(Axs.count("user.hl_bitnot"));
}

TEST(HeapAbs, CorrectTheoremStatement) {
  HLPipeline P(SwapSrc);
  const Thm &T = P.result("swap").Corres;
  std::vector<TermRef> Args;
  TermRef Head = stripApp(T.prop(), Args);
  EXPECT_TRUE(Head->isConst(names::AbsHStmt));
  ASSERT_EQ(Args.size(), 2u);
  // The concrete side is the L2 body.
  EXPECT_TRUE(termEq(Args[1], P.L2.at("swap").AppliedBody));
}

TEST(HeapAbs, RuleInventoryRegistered) {
  HLPipeline P(SwapSrc);
  unsigned Rules = 0;
  for (const auto &[Name, Prop] : Inventory::instance().axioms())
    Rules += Name.rfind("HL.", 0) == 0;
  EXPECT_GE(Rules, 15u);
  EXPECT_TRUE(Inventory::instance().hasAxiom("HL.bind"));
  EXPECT_TRUE(Inventory::instance().hasAxiom("HL.read.w32"));
  EXPECT_TRUE(Inventory::instance().hasAxiom("HL.write.w32"));
  EXPECT_TRUE(Inventory::instance().hasAxiom("HL.ptr_guard.w32"));
}

TEST(HeapAbs, HeapLiftSemantics) {
  // heap_lift (Fig 4): Some value iff tagged + aligned + in range.
  HLPipeline P(SwapSrc);
  InterpCtx &Ctx = P.Ctx;
  Rng R(7);
  TestWorld W = buildWorld(*P.Prog, Ctx, R);
  uint32_t Obj = W.Objects.at("word32")[0];
  std::map<std::string, Value> GF;
  GF.emplace(simpl::heapFieldName(), Value::heap(W.Heap));
  Value G = Value::record(simpl::globalsRecName(), GF);
  Value L = Ctx.LiftGlobalHeap(G, Ctx);
  const Value &Valid = L.Rec->at("is_valid_w32");
  EXPECT_TRUE(Valid.Fun(Value::ptr(Obj, "word32")).B);
  EXPECT_FALSE(Valid.Fun(Value::ptr(0, "word32")).B);       // NULL
  EXPECT_FALSE(Valid.Fun(Value::ptr(Obj + 1, "word32")).B); // misaligned
  EXPECT_FALSE(Valid.Fun(Value::ptr(0x9000, "word32")).B);  // untagged
  // The lifted value agrees with the byte decoding.
  const Value &Heap = L.Rec->at("heap_w32");
  EXPECT_TRUE(Value::equal(Heap.Fun(Value::ptr(Obj, "word32")),
                           Ctx.decode(*W.Heap, Obj, wordTy(32))));
}
