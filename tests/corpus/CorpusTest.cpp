//===- CorpusTest.cpp - Case studies, List theory, synthetic corpus -------===//
//
// Part of the autocorres-cpp project, under the BSD 2-Clause License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Validates the Sec 5 layer end-to-end: the two case-study proofs go
/// through, every axiom of the ported List theory survives countermodel
/// search, the paper's Fig 8 sources all translate with an auditable
/// trusted base, and the synthetic Table 5 corpora both translate and
/// agree with the executable Simpl semantics on sampled runs.
///
//===----------------------------------------------------------------------===//

#include "../common/TestUtil.h"
#include "core/AutoCorres.h"
#include "corpus/CaseStudies.h"
#include "corpus/Sources.h"
#include "corpus/Synthetic.h"
#include "hol/Print.h"
#include "proof/Auto.h"
#include "proof/ListLib.h"

#include <gtest/gtest.h>

using namespace ac;
using namespace ac::hol;
using namespace ac::proof;
using namespace ac::test;

namespace {

std::unique_ptr<core::AutoCorres> runAC(const std::string &Src,
                                        core::ACOptions Opts = {}) {
  DiagEngine Diags;
  auto AC = core::AutoCorres::run(Src, Diags, Opts);
  EXPECT_TRUE(AC) << Diags.str();
  return AC;
}

//===----------------------------------------------------------------------===//
// Sec 5.2 / 5.3 case studies as regression tests.
//===----------------------------------------------------------------------===//

TEST(CaseStudies, ListReversalVerifiedTotal) {
  corpus::CaseStudyReport R = corpus::verifyListReversal();
  for (const std::string &F : R.Failures)
    ADD_FAILURE() << F;
  EXPECT_TRUE(R.Verified);
  EXPECT_TRUE(R.TotalCorrectness);
  // The Table 6 breakdown has all four components, each non-empty.
  ASSERT_EQ(R.Components.size(), 4u);
  for (const corpus::ProofComponent &C : R.Components) {
    EXPECT_TRUE(C.Ok) << C.Name;
    EXPECT_GT(C.ScriptLines, 0u) << C.Name;
  }
}

TEST(CaseStudies, SchorrWaiteBoundedGraphs) {
  // Reduced family for the unit-test run (exhaustive <= 2 nodes plus 60
  // random graphs); the full Table 6 configuration runs in the bench.
  corpus::CaseStudyReport R = corpus::verifySchorrWaite(2, 60);
  for (const std::string &F : R.Failures)
    ADD_FAILURE() << F;
  EXPECT_TRUE(R.Verified);
  EXPECT_TRUE(R.TotalCorrectness);
  ASSERT_EQ(R.Components.size(), 4u);
}

//===----------------------------------------------------------------------===//
// List theory validation: every registered axiom must survive the
// countermodel search that kills Table 2's unsound variants.
//===----------------------------------------------------------------------===//

class ListLemmaTest : public ::testing::TestWithParam<size_t> {
public:
  static void SetUpTestSuite() {
    DiagEngine Diags;
    AC = core::AutoCorres::run(corpus::reverseSource(), Diags).release();
    ASSERT_TRUE(AC) << Diags.str();
    Theory = new ListTheory(makeListTheory("node_C", "next"));
  }
  static void TearDownTestSuite() {
    delete Theory;
    delete AC;
    Theory = nullptr;
    AC = nullptr;
  }
  static core::AutoCorres *AC;
  static ListTheory *Theory;
};

core::AutoCorres *ListLemmaTest::AC = nullptr;
ListTheory *ListLemmaTest::Theory = nullptr;

/// Axioms are stated with schematic variables (so the engines can
/// instantiate them); the evaluator wants frees.
TermRef varsToFrees(const TermRef &T) {
  switch (T->kind()) {
  case Term::Kind::Var:
    return Term::mkFree("sk_" + T->name(), T->type());
  case Term::Kind::App:
    return Term::mkApp(varsToFrees(T->fun()), varsToFrees(T->argTerm()));
  case Term::Kind::Lam:
    return Term::mkLam(T->name(), T->type(), varsToFrees(T->body()));
  default:
    return T;
  }
}

TEST_P(ListLemmaTest, AxiomSurvivesCountermodelSearch) {
  if (GetParam() >= Theory->Lemmas.size())
    GTEST_SKIP() << "theory has " << Theory->Lemmas.size() << " lemmas";
  const Thm &L = Theory->Lemmas[GetParam()];
  SCOPED_TRACE(L.str());
  EXPECT_FALSE(
      AutoProver::refute(varsToFrees(L.prop()), AC->ctx(), 400, 11))
      << "countermodel found for " << L.str();
}

INSTANTIATE_TEST_SUITE_P(AllLemmas, ListLemmaTest,
                         ::testing::Range<size_t>(0, 12));

TEST_F(ListLemmaTest, TheoryHasExpectedShape) {
  EXPECT_GE(Theory->Lemmas.size(), 6u);
  EXPECT_EQ(Theory->RecName, "node_C");
  EXPECT_TRUE(Theory->NodeTy->isCon("record:node_C"));
}

TEST_F(ListLemmaTest, MutatedStepLemmaIsRefuted) {
  // Negative control: an unsound variant of the step lemma — extend the
  // chain through p's next-field without requiring p to be a valid
  // non-NULL node — must be killed by the same countermodel search that
  // the real axioms survive (Table 2's methodology).
  TermRef V = Term::mkFree("v", funTy(Theory->PtrTy, boolTy()));
  TermRef H = Term::mkFree("h", funTy(Theory->PtrTy, Theory->NodeTy));
  TermRef P = Term::mkFree("p", Theory->PtrTy);
  TermRef Ps = Term::mkFree("ps", Theory->listTy());
  TermRef Node = Term::mkApp(H, P);
  TermRef Next = mkFieldGet(Theory->RecName, Theory->NextField,
                            Theory->PtrTy, Theory->NodeTy, Node);
  TermRef ConsC = Term::mkConst(
      names::Cons,
      funTy(Theory->PtrTy, funTy(Theory->listTy(), Theory->listTy())));
  TermRef Bad = mkImp(Theory->list(V, H, Next, Ps),
                      Theory->list(V, H, P, mkApps(ConsC, {P, Ps})));
  EXPECT_TRUE(AutoProver::refute(Bad, AC->ctx(), 3000, 7));
}

//===----------------------------------------------------------------------===//
// Fig 8 sources: every benchmark program in the paper's appendix
// translates, and the pipeline theorem's trusted base is exactly the
// documented oracle/axiom set.
//===----------------------------------------------------------------------===//

struct NamedSource {
  const char *Name;
  const char *(*Source)();
};

class Fig8Test : public ::testing::TestWithParam<NamedSource> {};

TEST_P(Fig8Test, TranslatesWithAuditableTrustedBase) {
  auto AC = runAC(GetParam().Source());
  ASSERT_TRUE(AC);
  ASSERT_FALSE(AC->order().empty());
  static const std::set<std::string> KnownOracles = {
      "monadic_conversion", "local_var_lifting",      "heap_abs_call",
      "word_abs_call",      "refinement_composition", "ground_eval",
      "auto"};
  for (const std::string &Fn : AC->order()) {
    const core::FuncOutput *F = AC->func(Fn);
    ASSERT_NE(F, nullptr);
    EXPECT_TRUE(F->Pipeline.isValid()) << Fn;
    std::set<std::string> Axioms, Oracles;
    collectLeaves(F->Pipeline, Axioms, Oracles);
    for (const std::string &O : Oracles)
      EXPECT_TRUE(KnownOracles.count(O))
          << "undocumented oracle " << O << " in " << Fn;
    for (const std::string &A : Axioms) {
      std::string Fam = A.substr(0, A.find('.'));
      EXPECT_TRUE(Fam == "HL" || Fam == "WA" || Fam == "List" ||
                  Fam == "Word")
          << "undocumented axiom family " << A << " in " << Fn;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    PaperPrograms, Fig8Test,
    ::testing::Values(NamedSource{"max", corpus::maxSource},
                      NamedSource{"gcd", corpus::gcdSource},
                      NamedSource{"swap", corpus::swapSource},
                      NamedSource{"midpoint", corpus::midpointSource},
                      NamedSource{"bsearch", corpus::binarySearchSource},
                      NamedSource{"suzuki", corpus::suzukiSource},
                      NamedSource{"memset", corpus::memsetSource},
                      NamedSource{"reverse", corpus::reverseSource},
                      NamedSource{"schorr_waite",
                                  corpus::schorrWaiteSource}),
    [](const ::testing::TestParamInfo<NamedSource> &I) {
      return I.param.Name;
    });

//===----------------------------------------------------------------------===//
// Synthetic Table 5 corpora.
//===----------------------------------------------------------------------===//

TEST(Synthetic, GeneratorIsDeterministic) {
  corpus::SyntheticSpec Spec = corpus::echronosScale();
  EXPECT_EQ(corpus::generateSyntheticProgram(Spec),
            corpus::generateSyntheticProgram(Spec));
  Spec.Seed += 1;
  EXPECT_NE(corpus::generateSyntheticProgram(Spec),
            corpus::generateSyntheticProgram(corpus::echronosScale()));
}

TEST(Synthetic, ScalePresetsMatchTable5Rows) {
  // LoC within ~15% of the paper's rows.
  struct Row {
    corpus::SyntheticSpec Spec;
    unsigned LoC;
  };
  const Row Rows[] = {{corpus::sel4Scale(), 10121},
                      {corpus::capdlScale(), 2079},
                      {corpus::piccoloScale(), 936},
                      {corpus::echronosScale(), 563}};
  for (const Row &R : Rows) {
    std::string Src = corpus::generateSyntheticProgram(R.Spec);
    unsigned Lines = 1;
    for (char C : Src)
      Lines += C == '\n';
    EXPECT_NEAR(double(Lines), double(R.LoC), 0.15 * R.LoC) << R.Spec.Name;
  }
}

TEST(Synthetic, EchronosScaleCorpusTranslates) {
  std::string Src =
      corpus::generateSyntheticProgram(corpus::echronosScale());
  auto AC = runAC(Src);
  ASSERT_TRUE(AC);
  EXPECT_GE(AC->order().size(), 40u);
  // Table 5's message: the abstract specs are smaller than the parser
  // output at corpus scale.
  const core::ACStats &S = AC->stats();
  EXPECT_LT(S.ACSpecLines, S.ParserSpecLines);
}

/// rx image of a concrete runtime value under the Sec 3 abstraction.
monad::Value rxOf(const monad::Value &V, const TypeRef &CTy) {
  if (isWordTy(CTy))
    return monad::Value::num(V.N, natTy());
  if (isSwordTy(CTy))
    return monad::Value::num(V.N, intTy());
  return V;
}

/// One end-to-end differential trial: the *final* abstract spec of \p Fn
/// (through heap lifting and word abstraction) against the Simpl
/// operational semantics at the very bottom of the refinement chain.
Diff checkEndToEndOnce(core::AutoCorres &AC, const std::string &Fn,
                       Rng &R) {
  const simpl::SimplProgram &Prog = AC.program();
  const simpl::SimplFunc *F = Prog.function(Fn);
  const core::FuncOutput *Out = AC.func(Fn);
  monad::InterpCtx &Ctx = AC.ctx();

  TestWorld W = buildWorld(Prog, Ctx, R);
  std::vector<monad::Value> Args, AbsArgs;
  for (const auto &[Name, Ty] : F->Params) {
    monad::Value V = randomValue(Ty, W, R, Ctx);
    AbsArgs.push_back(Out->WordAbstracted ? rxOf(V, Ty) : V);
    Args.push_back(std::move(V));
  }
  monad::Value Globals = randomGlobals(Prog, W, R, Ctx);

  Ctx.reset();
  monad::SimplOutcome SO =
      monad::runSimplFunction(*F, Args, Globals, Ctx);
  if (SO.K == monad::SimplOutcome::Kind::Stuck)
    return Diff::Skip;

  Ctx.reset();
  monad::Value Fun = monad::evalClosed(Ctx.FunDefs.at(Out->finalKey()), Ctx);
  for (const monad::Value &A : AbsArgs)
    Fun = Fun.Fun(A);
  monad::Value State =
      Out->HeapLifted ? Ctx.LiftGlobalHeap(Globals, Ctx) : Globals;
  monad::MonadResult MR = monad::runMonad(Fun, State, Ctx);
  if (Ctx.OutOfFuel)
    return Diff::Skip;

  // ac_corres direction: when the abstract program does not fail, the
  // concrete one neither faults nor diverges and the results correspond.
  if (MR.Failed)
    return Diff::Ok;
  if (SO.K == monad::SimplOutcome::Kind::Fault)
    return Diff::Mismatch;
  if (MR.Results.size() != 1 || MR.Results[0].IsExn)
    return Diff::Mismatch;
  if (F->RetTy) {
    monad::Value CRet = SO.State.Rec->at(simpl::retVarName());
    monad::Value Want = Out->WordAbstracted ? rxOf(CRet, F->RetTy) : CRet;
    if (!monad::Value::equal(Want, MR.Results[0].V))
      return Diff::Mismatch;
  }
  return Diff::Ok;
}

TEST(Synthetic, SampledFunctionsAgreeWithSimplSemantics) {
  corpus::SyntheticSpec Spec = corpus::echronosScale();
  Spec.TargetFunctions = 12;
  Spec.Seed = 77;
  Spec.Name = "sample";
  std::string Src = corpus::generateSyntheticProgram(Spec);
  auto AC = runAC(Src);
  ASSERT_TRUE(AC);
  for (const std::string &Fn : AC->order()) {
    SCOPED_TRACE(Fn);
    EXPECT_TRUE(runTrials(
        20, std::hash<std::string>()(Fn),
        [&](Rng &R) { return checkEndToEndOnce(*AC, Fn, R); }));
  }
}

//===----------------------------------------------------------------------===//
// Undefined-behaviour guards, end to end: the abstract spec must fail
// exactly where C's semantics gives out (Sec 3.1's "unavoidable" guards),
// and must NOT guard defined wrap-around.
//===----------------------------------------------------------------------===//

/// Runs the final abstract spec of \p Fn on the given abstract argument
/// values over an empty-heap state; returns the failure flag and result.
monad::MonadResult runAbstract(core::AutoCorres &AC, const std::string &Fn,
                               const std::vector<monad::Value> &Args) {
  monad::InterpCtx &Ctx = AC.ctx();
  const core::FuncOutput *F = AC.func(Fn);
  TestWorld W;
  Rng R(1);
  monad::Value Globals = randomGlobals(AC.program(), W, R, Ctx);
  monad::Value State =
      F->HeapLifted ? Ctx.LiftGlobalHeap(Globals, Ctx) : Globals;
  Ctx.reset();
  monad::Value Fun =
      monad::evalClosed(Ctx.FunDefs.at(F->finalKey()), Ctx);
  for (const monad::Value &A : Args)
    Fun = Fun.Fun(A);
  return monad::runMonad(Fun, State, Ctx);
}

TEST(Guards, SignedOverflowGuardFails) {
  auto AC = runAC("int inc(int x) { return x + 1; }");
  ASSERT_TRUE(AC);
  ASSERT_TRUE(AC->func("inc")->WordAbstracted);
  // x = INT_MAX: C has undefined behaviour; the abstract spec must fail.
  monad::MonadResult Bad = runAbstract(
      *AC, "inc", {monad::Value::num(2147483647, intTy())});
  EXPECT_TRUE(Bad.Failed);
  // x = 41: defined; must succeed with the ideal result.
  monad::MonadResult Ok =
      runAbstract(*AC, "inc", {monad::Value::num(41, intTy())});
  ASSERT_FALSE(Ok.Failed);
  ASSERT_EQ(Ok.Results.size(), 1u);
  EXPECT_EQ((long long)Ok.Results[0].V.N, 42);
}

TEST(Guards, UnsignedOverflowGuardedUnderWA) {
  // Sec 3.1: abstraction to ideal ℕ guards unsigned additions (the
  // midpoint example's `l + r <= UINT_MAX`), even though C defines the
  // wrap — the guard is the price of ideal arithmetic.
  auto AC = runAC("unsigned inc(unsigned x) { return x + 1; }");
  ASSERT_TRUE(AC);
  ASSERT_TRUE(AC->func("inc")->WordAbstracted);
  monad::MonadResult R = runAbstract(
      *AC, "inc", {monad::Value::num(4294967295LL, natTy())});
  EXPECT_TRUE(R.Failed);
  monad::MonadResult Ok =
      runAbstract(*AC, "inc", {monad::Value::num(7, natTy())});
  ASSERT_FALSE(Ok.Failed);
  ASSERT_EQ(Ok.Results.size(), 1u);
  EXPECT_EQ((long long)Ok.Results[0].V.N, 8);
}

TEST(Guards, UnsignedWrapDefinedWithoutWA) {
  // Sec 3.2: code that *means* to wrap opts out of word abstraction and
  // keeps C's defined modular semantics.
  core::ACOptions Opts;
  Opts.NoWordAbs.insert("inc");
  auto AC = runAC("unsigned inc(unsigned x) { return x + 1; }", Opts);
  ASSERT_TRUE(AC);
  ASSERT_FALSE(AC->func("inc")->WordAbstracted);
  monad::MonadResult R = runAbstract(
      *AC, "inc", {monad::Value::num(4294967295LL, wordTy(32))});
  ASSERT_FALSE(R.Failed);
  ASSERT_EQ(R.Results.size(), 1u);
  EXPECT_EQ((long long)R.Results[0].V.N, 0);
}

TEST(Guards, DivisionByZeroGuardFails) {
  auto AC = runAC("unsigned div(unsigned a, unsigned b) "
                  "{ return a / b; }");
  ASSERT_TRUE(AC);
  monad::MonadResult Bad =
      runAbstract(*AC, "div", {monad::Value::num(6, natTy()),
                               monad::Value::num(0, natTy())});
  EXPECT_TRUE(Bad.Failed);
  monad::MonadResult Ok =
      runAbstract(*AC, "div", {monad::Value::num(6, natTy()),
                               monad::Value::num(3, natTy())});
  ASSERT_FALSE(Ok.Failed);
  ASSERT_EQ(Ok.Results.size(), 1u);
  EXPECT_EQ((long long)Ok.Results[0].V.N, 2);
}

TEST(Guards, IntMinDividedByMinusOneGuardFails) {
  auto AC = runAC("int div(int a, int b) { return a / b; }");
  ASSERT_TRUE(AC);
  monad::MonadResult Bad = runAbstract(
      *AC, "div", {monad::Value::num(-2147483648LL, intTy()),
                   monad::Value::num(-1, intTy())});
  EXPECT_TRUE(Bad.Failed);
  monad::MonadResult Ok = runAbstract(
      *AC, "div", {monad::Value::num(-12, intTy()),
                   monad::Value::num(-3, intTy())});
  ASSERT_FALSE(Ok.Failed);
  ASSERT_EQ(Ok.Results.size(), 1u);
  EXPECT_EQ((long long)Ok.Results[0].V.N, 4);
}

TEST(Guards, NullDereferenceGuardFails) {
  auto AC = runAC("unsigned get(unsigned *p) { return *p; }");
  ASSERT_TRUE(AC);
  monad::MonadResult Bad =
      runAbstract(*AC, "get", {monad::Value::ptr(0, "word32")});
  EXPECT_TRUE(Bad.Failed);
}

//===----------------------------------------------------------------------===//
// Operator/type sweep: every binary operator of the C subset, at several
// integer types, abstracted end-to-end and differentially validated
// against the Simpl semantics (guards included — division, shifts and
// signed overflow must fail on exactly the same inputs).
//===----------------------------------------------------------------------===//

struct OpCase {
  const char *TypeName; ///< C type spelling
  const char *TypeTag;  ///< for the gtest name
  const char *Op;
  const char *OpTag;
};

class BinOpTest : public ::testing::TestWithParam<OpCase> {};

TEST_P(BinOpTest, AgreesWithSimplSemantics) {
  const OpCase &C = GetParam();
  std::string Src = std::string(C.TypeName) + " f(" + C.TypeName +
                    " a, " + C.TypeName + " b) { return a " + C.Op +
                    " b; }";
  auto AC = runAC(Src);
  ASSERT_TRUE(AC);
  EXPECT_TRUE(runTrials(40, std::hash<std::string>()(Src), [&](Rng &R) {
    return checkEndToEndOnce(*AC, "f", R);
  }));
}

INSTANTIATE_TEST_SUITE_P(
    Arith, BinOpTest,
    ::testing::Values(OpCase{"unsigned", "u32", "+", "add"},
                      OpCase{"unsigned", "u32", "-", "sub"},
                      OpCase{"unsigned", "u32", "*", "mul"},
                      OpCase{"unsigned", "u32", "/", "div"},
                      OpCase{"unsigned", "u32", "%", "mod"},
                      OpCase{"int", "s32", "+", "add"},
                      OpCase{"int", "s32", "-", "sub"},
                      OpCase{"int", "s32", "*", "mul"},
                      OpCase{"int", "s32", "/", "div"},
                      OpCase{"int", "s32", "%", "mod"},
                      // Sub-int widths exercise the C integer promotions
                      // (ucast to int, guard, cast back).
                      OpCase{"unsigned char", "u8", "+", "add"},
                      OpCase{"unsigned char", "u8", "*", "mul"},
                      OpCase{"unsigned char", "u8", "-", "sub"},
                      OpCase{"unsigned short", "u16", "+", "add"},
                      OpCase{"unsigned short", "u16", "/", "div"},
                      OpCase{"short", "s16", "+", "add"},
                      OpCase{"short", "s16", "*", "mul"}),
    [](const ::testing::TestParamInfo<OpCase> &I) {
      return std::string(I.param.TypeTag) + "_" + I.param.OpTag;
    });

INSTANTIATE_TEST_SUITE_P(
    Bitwise, BinOpTest,
    ::testing::Values(OpCase{"unsigned", "u32", "&", "and"},
                      OpCase{"unsigned", "u32", "|", "or"},
                      OpCase{"unsigned", "u32", "^", "xor"},
                      OpCase{"unsigned", "u32", "<<", "shl"},
                      OpCase{"unsigned", "u32", ">>", "shr"},
                      OpCase{"int", "s32", "&", "and"},
                      OpCase{"int", "s32", "^", "xor"},
                      OpCase{"int", "s32", ">>", "shr"}),
    [](const ::testing::TestParamInfo<OpCase> &I) {
      return std::string(I.param.TypeTag) + "_" + I.param.OpTag;
    });

struct CmpCase {
  const char *TypeName;
  const char *TypeTag;
  const char *Op;
  const char *OpTag;
};

class CmpOpTest : public ::testing::TestWithParam<CmpCase> {};

TEST_P(CmpOpTest, AgreesWithSimplSemantics) {
  const CmpCase &C = GetParam();
  // Comparisons yield int in C; exercise them through a branch so the
  // result also feeds control flow.
  std::string Src = std::string("unsigned f(") + C.TypeName + " a, " +
                    C.TypeName + " b) { if (a " + C.Op +
                    " b) return 1u; return 0u; }";
  auto AC = runAC(Src);
  ASSERT_TRUE(AC);
  EXPECT_TRUE(runTrials(40, std::hash<std::string>()(Src), [&](Rng &R) {
    return checkEndToEndOnce(*AC, "f", R);
  }));
}

INSTANTIATE_TEST_SUITE_P(
    AllCmps, CmpOpTest,
    ::testing::Values(CmpCase{"unsigned", "u32", "<", "lt"},
                      CmpCase{"unsigned", "u32", "<=", "le"},
                      CmpCase{"unsigned", "u32", ">", "gt"},
                      CmpCase{"unsigned", "u32", ">=", "ge"},
                      CmpCase{"unsigned", "u32", "==", "eq"},
                      CmpCase{"unsigned", "u32", "!=", "ne"},
                      CmpCase{"int", "s32", "<", "lt"},
                      CmpCase{"int", "s32", "<=", "le"},
                      CmpCase{"int", "s32", ">", "gt"},
                      CmpCase{"int", "s32", ">=", "ge"},
                      CmpCase{"int", "s32", "==", "eq"},
                      CmpCase{"int", "s32", "!=", "ne"}),
    [](const ::testing::TestParamInfo<CmpCase> &I) {
      return std::string(I.param.TypeTag) + "_" + I.param.OpTag;
    });

//===----------------------------------------------------------------------===//
// Control-flow shapes: every statement form of the subset, composed into
// small canonical programs and checked end-to-end.
//===----------------------------------------------------------------------===//

struct FlowCase {
  const char *Name;
  const char *Source;
};

class ControlFlowTest : public ::testing::TestWithParam<FlowCase> {};

TEST_P(ControlFlowTest, AgreesWithSimplSemantics) {
  auto AC = runAC(GetParam().Source);
  ASSERT_TRUE(AC);
  for (const std::string &Fn : AC->order()) {
    SCOPED_TRACE(Fn);
    EXPECT_TRUE(runTrials(
        30, std::hash<std::string>()(GetParam().Name),
        [&](Rng &R) { return checkEndToEndOnce(*AC, Fn, R); }));
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, ControlFlowTest,
    ::testing::Values(
        FlowCase{"while_break",
                 "unsigned f(unsigned n) {\n"
                 "  unsigned i = 0;\n"
                 "  n = n % 50u;\n"
                 "  while (1) {\n"
                 "    if (i >= n) break;\n"
                 "    i = i + 2;\n"
                 "  }\n"
                 "  return i;\n"
                 "}\n"},
        FlowCase{"while_continue",
                 "unsigned f(unsigned n) {\n"
                 "  unsigned i = 0; unsigned acc = 0;\n"
                 "  n = n % 50u;\n"
                 "  while (i < n) {\n"
                 "    i = i + 1;\n"
                 "    if (i % 2u == 0u) continue;\n"
                 "    acc = acc + 1;\n"
                 "  }\n"
                 "  return acc;\n"
                 "}\n"},
        FlowCase{"for_loop",
                 "unsigned f(unsigned n) {\n"
                 "  unsigned acc = 0;\n"
                 "  unsigned i;\n"
                 "  n = n % 50u;\n"
                 "  for (i = 0; i < n; i = i + 1)\n"
                 "    acc = acc + i;\n"
                 "  return acc;\n"
                 "}\n"},
        FlowCase{"do_while",
                 "unsigned f(unsigned n) {\n"
                 "  unsigned i = 0;\n"
                 "  n = n % 50u;\n"
                 "  do {\n"
                 "    i = i + 1;\n"
                 "  } while (i < n);\n"
                 "  return i;\n"
                 "}\n"},
        FlowCase{"nested_loops",
                 "unsigned f(unsigned n) {\n"
                 "  unsigned acc = 0; unsigned i = 0;\n"
                 "  n = n % 20u;\n"
                 "  while (i < n) {\n"
                 "    unsigned j = 0;\n"
                 "    while (j < i) {\n"
                 "      acc = acc + 1;\n"
                 "      j = j + 1;\n"
                 "    }\n"
                 "    i = i + 1;\n"
                 "  }\n"
                 "  return acc;\n"
                 "}\n"},
        FlowCase{"early_return_in_loop",
                 "unsigned f(unsigned n, unsigned k) {\n"
                 "  unsigned i = 0;\n"
                 "  n = n % 50u;\n"
                 "  while (i < n) {\n"
                 "    if (i == k) return i * 10u;\n"
                 "    i = i + 1;\n"
                 "  }\n"
                 "  return 0u;\n"
                 "}\n"},
        FlowCase{"else_if_chain",
                 "int f(int v) {\n"
                 "  if (v < -10) return -1;\n"
                 "  else if (v < 0) return -2;\n"
                 "  else if (v == 0) return 0;\n"
                 "  else if (v < 10) return 2;\n"
                 "  return 1;\n"
                 "}\n"},
        FlowCase{"global_state",
                 "unsigned hits = 0;\n"
                 "unsigned misses = 0;\n"
                 "unsigned f(unsigned x) {\n"
                 "  if (x % 3u == 0u) hits = hits + 1;\n"
                 "  else misses = misses + 1;\n"
                 "  return hits;\n"
                 "}\n"},
        FlowCase{"short_circuit",
                 "unsigned f(unsigned a, unsigned b) {\n"
                 "  if (a != 0u && 100u / a > b)\n"
                 "    return 1u;\n"
                 "  if (a == 0u || b / a == 0u)\n"
                 "    return 2u;\n"
                 "  return 3u;\n"
                 "}\n"},
        FlowCase{"struct_chain",
                 "struct pt { int x; int y; };\n"
                 "struct box { struct pt *lo; struct pt *hi; };\n"
                 "int f(struct box *b) {\n"
                 "  if (b == NULL || b->lo == NULL || b->hi == NULL)\n"
                 "    return 0;\n"
                 "  return (b->hi->x - b->lo->x) + (b->hi->y - b->lo->y);\n"
                 "}\n"},
        FlowCase{"ternary_via_if",
                 "unsigned f(unsigned a, unsigned b) {\n"
                 "  unsigned m;\n"
                 "  if (a < b) m = b; else m = a;\n"
                 "  return m - (a < b ? a : b);\n"
                 "}\n"},
        FlowCase{"call_chain",
                 "unsigned sq(unsigned x) { return x * x; }\n"
                 "unsigned cube(unsigned x) { return sq(x) * x; }\n"
                 "unsigned f(unsigned x) { return cube(x) + sq(x); }\n"}),
    [](const ::testing::TestParamInfo<FlowCase> &I) {
      return I.param.Name;
    });

class UnaryOpTest : public ::testing::TestWithParam<OpCase> {};

TEST_P(UnaryOpTest, AgreesWithSimplSemantics) {
  const OpCase &C = GetParam();
  std::string Src = std::string(C.TypeName) + " f(" + C.TypeName +
                    " a) { return " + C.Op + "a; }";
  auto AC = runAC(Src);
  ASSERT_TRUE(AC);
  EXPECT_TRUE(runTrials(40, std::hash<std::string>()(Src), [&](Rng &R) {
    return checkEndToEndOnce(*AC, "f", R);
  }));
}

INSTANTIATE_TEST_SUITE_P(
    AllUnary, UnaryOpTest,
    ::testing::Values(OpCase{"unsigned", "u32", "-", "neg"},
                      OpCase{"unsigned", "u32", "~", "not"},
                      OpCase{"int", "s32", "-", "neg"},
                      OpCase{"int", "s32", "~", "not"}),
    [](const ::testing::TestParamInfo<OpCase> &I) {
      return std::string(I.param.TypeTag) + "_" + I.param.OpTag;
    });

//===----------------------------------------------------------------------===//
// Sec 4.6: exec_concrete semantics — run a byte-level (type-unsafe)
// function from a lifted state and observe the effect on the typed heap.
//===----------------------------------------------------------------------===//

/// Runs the byte-level my_memset over a fresh heap holding one typed
/// word32 object at \p Addr, then re-lifts and returns the lifted state.
monad::Value memsetAndLift(core::AutoCorres &AC, uint32_t Addr,
                           unsigned Count) {
  monad::InterpCtx &Ctx = AC.ctx();
  auto H = std::make_shared<monad::HeapVal>();
  Ctx.encode(*H, Addr, monad::Value::num(0xdeadbeef, wordTy(32)),
             wordTy(32));
  Ctx.retype(*H, Addr, wordTy(32));
  std::map<std::string, monad::Value> GF;
  GF.emplace(simpl::heapFieldName(), monad::Value::heap(H));
  monad::Value G =
      monad::Value::record(simpl::globalsRecName(), std::move(GF));

  // The low-level run (the role of exec_concrete).
  Ctx.reset();
  monad::Value Fun =
      monad::evalClosed(Ctx.FunDefs.at("l2:my_memset"), Ctx);
  Fun = Fun.Fun(monad::Value::ptr(Addr, "sword8"));
  Fun = Fun.Fun(monad::Value::num(0, swordTy(8)));
  Fun = Fun.Fun(monad::Value::num(Count, wordTy(32)));
  monad::MonadResult MR = monad::runMonad(Fun, G, Ctx);
  EXPECT_FALSE(MR.Failed);
  EXPECT_EQ(MR.Results.size(), 1u);
  return Ctx.LiftGlobalHeap(MR.Results[0].State, Ctx);
}

TEST(ExecConcrete, MemsetUpdatesTypedHeap) {
  // read_word forces word32 into the program's heap types so the lifted
  // state has a heap_w32 field to observe.
  auto AC = runAC(std::string(corpus::memsetSource()) +
                  "unsigned read_word(unsigned *p) { return *p; }\n");
  ASSERT_TRUE(AC);
  // The paper's triple: {is_valid p} memset' p 0 4 {is_valid p, s[p]=0}.
  monad::Value Lifted = memsetAndLift(*AC, 0x100, 4);
  monad::Value P = monad::Value::ptr(0x100, "word32");
  EXPECT_TRUE(Lifted.Rec->at("is_valid_w32").Fun(P).B);
  EXPECT_EQ((long long)Lifted.Rec->at("heap_w32").Fun(P).N, 0);
}

TEST(ExecConcrete, PartialMemsetStillTypedAndObservable) {
  // Clearing only the low half of the word: the object stays typed and
  // the lift shows exactly the bytes written (little-endian ILP32).
  auto AC = runAC(std::string(corpus::memsetSource()) +
                  "unsigned read_word(unsigned *p) { return *p; }\n");
  ASSERT_TRUE(AC);
  monad::Value Lifted = memsetAndLift(*AC, 0x200, 2);
  monad::Value P = monad::Value::ptr(0x200, "word32");
  EXPECT_TRUE(Lifted.Rec->at("is_valid_w32").Fun(P).B);
  EXPECT_EQ((unsigned long long)Lifted.Rec->at("heap_w32").Fun(P).N,
            0xdead0000ULL);
}

//===----------------------------------------------------------------------===//
// Cross-boundary word-abstraction coercion (Sec 3.2): an abstracted
// caller of a machine-word callee must still agree with the Simpl
// semantics.
//===----------------------------------------------------------------------===//

TEST(Boundary, AbstractedCallerOfMachineWordCallee) {
  const char *Src = "unsigned mask(unsigned x) { return x & 0xffu; }\n"
                    "unsigned twice_masked(unsigned x) {\n"
                    "  return mask(x) + mask(x + 1);\n"
                    "}\n";
  core::ACOptions Opts;
  Opts.NoWordAbs.insert("mask");
  auto AC = runAC(Src, Opts);
  ASSERT_TRUE(AC);
  EXPECT_FALSE(AC->func("mask")->WordAbstracted);
  EXPECT_TRUE(AC->func("twice_masked")->WordAbstracted);
  for (const std::string &Fn : AC->order()) {
    SCOPED_TRACE(Fn);
    EXPECT_TRUE(runTrials(
        25, 99 + std::hash<std::string>()(Fn),
        [&](Rng &R) { return checkEndToEndOnce(*AC, Fn, R); }));
  }
}

TEST(Boundary, ByteLevelCalleeUnderLiftedCaller) {
  // Sec 4.6 analogue at scale: the caller is heap-lifted and
  // word-abstracted, the callee stays fully concrete.
  const char *Src =
      "unsigned load(unsigned *p) { return *p; }\n"
      "unsigned sum2(unsigned *p, unsigned *q) {\n"
      "  return load(p) + load(q);\n"
      "}\n";
  core::ACOptions Opts;
  Opts.NoWordAbs.insert("load");
  auto AC = runAC(Src, Opts);
  ASSERT_TRUE(AC);
  for (const std::string &Fn : AC->order()) {
    SCOPED_TRACE(Fn);
    EXPECT_TRUE(runTrials(
        25, 7 + std::hash<std::string>()(Fn),
        [&](Rng &R) { return checkEndToEndOnce(*AC, Fn, R); }));
  }
}

TEST(Synthetic, PaperProgramsAgreeWithSimplSemantics) {
  // The same end-to-end differential over the Fig 8 programs that have
  // word/pointer signatures.
  for (const char *Src :
       {corpus::maxSource(), corpus::gcdSource(), corpus::swapSource(),
        corpus::midpointSource(), corpus::suzukiSource(),
        corpus::reverseSource()}) {
    auto AC = runAC(Src);
    ASSERT_TRUE(AC);
    for (const std::string &Fn : AC->order()) {
      SCOPED_TRACE(Fn);
      EXPECT_TRUE(runTrials(
          25, 1234 + std::hash<std::string>()(Fn),
          [&](Rng &R) { return checkEndToEndOnce(*AC, Fn, R); }));
    }
  }
}

} // namespace
