//===- PeepholeTest.cpp - Flow-simplification unit tests --------*- C++ -*-===//
//
// Part of the autocorres-cpp project, under the BSD 2-Clause License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Deterministic unit tests for the guard-run deduplication inside
/// simplifyMonadTerm, pinning the soundness fix the randomized
/// differential harness caught in the parallel-pipeline PR: a data-only
/// heap write (`heap_T_update`) preserves *validity* knowledge but
/// clobbers any guard conjunct that reads the heap data being written, so
/// only data-update-immune conjuncts may survive in the "seen" set. These
/// tests build the guard/modify spines directly, so the behavior no
/// longer relies on the randomized harness to be caught.
///
/// The FlowSimp tests pin the normal-form memo to the output of the
/// simplifier that re-walked every subterm: a loop stopped at the step
/// cap, a small budget, and a normal node under both branches.
///
//===----------------------------------------------------------------------===//

#include "monad/Peephole.h"

#include "hol/Builder.h"
#include "hol/Print.h"

#include <gtest/gtest.h>

#include <cassert>

using namespace ac;
using namespace ac::hol;
namespace nm = ac::hol::names;

namespace {

//===----------------------------------------------------------------------===//
// Term scaffolding: a hand-built lifted_globals state with one w32 heap.
//===----------------------------------------------------------------------===//

const TypeRef &stateTy() {
  static TypeRef S = recordTy("lifted_globals");
  return S;
}
const TypeRef &heapFieldTy() {
  static TypeRef T = funTy(ptrTy(wordTy(32)), wordTy(32));
  return T;
}
const TypeRef &validFieldTy() {
  static TypeRef T = funTy(ptrTy(wordTy(32)), boolTy());
  return T;
}

TermRef ptrFree(const char *Name) {
  return Term::mkFree(Name, ptrTy(wordTy(32)));
}

/// s[p] — a heap *data* read on the state variable (Bound 0 inside the
/// guard lambda).
TermRef heapRead(const TermRef &P) {
  TermRef Fld = mkFieldGet("lifted_globals", "heap_w32", heapFieldTy(),
                           stateTy(), Term::mkBound(0));
  return Term::mkApp(Fld, P);
}

/// is_valid_w32 s p — a validity read, immune to data-only updates.
TermRef validRead(const TermRef &P) {
  TermRef Fld = mkFieldGet("lifted_globals", "is_valid_w32",
                           validFieldTy(), stateTy(), Term::mkBound(0));
  return Term::mkApp(Fld, P);
}

TermRef mkStateGuard(const TermRef &Cond) {
  return mkGuard(stateTy(), unitTy(),
                 Term::mkLam("s", stateTy(), Cond));
}

/// modify (λs. heap_w32_update (λh. <h or a rewrite>) s) — the data-only
/// shape isDataOnlyModify recognizes.
TermRef dataOnlyModify() {
  TermRef UpdFn = Term::mkLam("h", heapFieldTy(), Term::mkBound(0));
  TermRef Body = mkFieldUpdate("lifted_globals", "heap_w32",
                               heapFieldTy(), stateTy(), UpdFn,
                               Term::mkBound(0));
  return mkModify(stateTy(), unitTy(),
                  Term::mkLam("s", stateTy(), Body));
}

/// modify (λs. is_valid_w32_update (λv. v) s) — NOT data-only: validity
/// changes must clear all guard knowledge.
TermRef validityModify() {
  TermRef UpdFn = Term::mkLam("v", validFieldTy(), Term::mkBound(0));
  TermRef Body = mkFieldUpdate("lifted_globals", "is_valid_w32",
                               validFieldTy(), stateTy(), UpdFn,
                               Term::mkBound(0));
  return mkModify(stateTy(), unitTy(),
                  Term::mkLam("s", stateTy(), Body));
}

/// bind chain m1 >>= λ_. m2 >>= λ_. ... >>= λ_. return 0. Each binder
/// takes the step's value type (unit for guard/modify, w32 for gets).
TermRef spine(const std::vector<TermRef> &Steps) {
  TermRef Tail = mkReturn(stateTy(), unitTy(),
                          Term::mkNum(0, wordTy(32)));
  for (size_t I = Steps.size(); I-- > 0;) {
    TypeRef S, A, E;
    bool IsMonad = destMonadTy(typeOf(Steps[I]), S, A, E);
    assert(IsMonad && "spine step is not monadic");
    (void)IsMonad;
    Tail = mkBind(Steps[I], Term::mkLam("u", A, Tail));
  }
  return Tail;
}

/// A chain that the bind-of-return rule unwinds one level per step, all
/// in the loop of the node it starts at: `bind (return X1) f1`, where
/// X_k = return X_{k+1} (down to the word 7) and f_k = λv. bind v f_{k+1}
/// (down to λx. return x). Every subterm is normal already, so the
/// \p Levels steps all fire at the root.
TermRef unwindChain(unsigned Levels) {
  TypeRef S = stateTy(), E = unitTy();
  // Ty[K] is X_K's type: the word, then one monad around it per level.
  std::vector<TypeRef> Ty(Levels + 1);
  Ty[Levels] = wordTy(32);
  for (unsigned K = Levels; K-- > 1;)
    Ty[K] = monadTy(S, Ty[K + 1], E);
  TypeRef Res = monadTy(S, wordTy(32), E);
  TermRef X = Term::mkNum(7, wordTy(32));
  for (unsigned K = Levels; K-- > 1;)
    X = mkReturn(S, E, X);
  // Built by hand: the binder's variable is open, so typeOf cannot type
  // it for mkReturn/mkBind.
  TermRef Ret = Term::mkConst(nm::Return, funTy(wordTy(32), Res));
  TermRef F = Term::mkLam("x", wordTy(32), Term::mkApp(Ret, Term::mkBound(0)));
  for (unsigned K = Levels; K-- > 1;) {
    TermRef BindC = Term::mkConst(
        nm::Bind, funTys({Ty[K], funTy(Ty[K + 1], Res)}, Res));
    F = Term::mkLam("v", Ty[K], mkApps(BindC, {Term::mkBound(0), F}));
  }
  return mkBind(mkReturn(S, E, X), F);
}

/// condition (λs. b) Chain (return 0), bound to an opaque g, behind a
/// skip: the skip step hands the condition's bind back to the
/// simplifier after Chain's loop stopped at the cap.
TermRef chainBehindSkip(unsigned Levels) {
  TypeRef S = stateTy(), E = unitTy();
  TermRef Cond =
      mkCondition(Term::mkLam("s", S, Term::mkFree("b", boolTy())),
                  unwindChain(Levels),
                  mkReturn(S, E, Term::mkNum(0, wordTy(32))));
  TermRef G = Term::mkFree(
      "g", funTy(wordTy(32), monadTy(S, wordTy(32), E)));
  return mkBind(mkSkip(S, E),
                Term::mkLam("u", unitTy(), mkBind(Cond, G)));
}

unsigned countGuards(const TermRef &T) {
  switch (T->kind()) {
  case Term::Kind::Const:
    return T->isConst(nm::Guard) ? 1 : 0;
  case Term::Kind::App:
    return countGuards(T->fun()) + countGuards(T->argTerm());
  case Term::Kind::Lam:
    return countGuards(T->body());
  default:
    return 0;
  }
}

} // namespace

//===----------------------------------------------------------------------===//
// Baseline dedup behavior (state-preserving steps keep the seen set).
//===----------------------------------------------------------------------===//

TEST(GuardDedup, RepeatedGuardAcrossGetsIsDropped) {
  TermRef P = ptrFree("p");
  TermRef G = mkStateGuard(validRead(P));
  TermRef Gets = mkGets(stateTy(), unitTy(),
                        Term::mkLam("s", stateTy(), heapRead(P)));
  TermRef In = spine({G, Gets, G});
  TermRef Out = monad::simplifyMonadTerm(In);
  EXPECT_EQ(countGuards(Out), 1u)
      << "gets preserves guard knowledge; got:\n" << printTerm(Out);
}

TEST(GuardDedup, DistinctGuardsBothSurvive) {
  TermRef G1 = mkStateGuard(validRead(ptrFree("p")));
  TermRef G2 = mkStateGuard(validRead(ptrFree("q")));
  TermRef Out = monad::simplifyMonadTerm(spine({G1, G2}));
  EXPECT_EQ(countGuards(Out), 2u) << printTerm(Out);
}

//===----------------------------------------------------------------------===//
// The PR 1 soundness fix: data-only heap writes.
//===----------------------------------------------------------------------===//

TEST(GuardDedup, DataReadingGuardIsNotDeduplicatedAcrossDataWrite) {
  // guard (s[p] < n); modify (heap data); guard (s[p] < n)
  //
  // The write changes exactly the data the guard reads: dropping the
  // second guard was the soundness bug the differential harness caught.
  TermRef P = ptrFree("p");
  TermRef N = Term::mkFree("n", wordTy(32));
  TermRef G = mkStateGuard(mkLess(heapRead(P), N));
  TermRef In = spine({G, dataOnlyModify(), G});
  TermRef Out = monad::simplifyMonadTerm(In);
  EXPECT_EQ(countGuards(Out), 2u)
      << "arithmetic guard over heap data must survive a data-only "
         "write; got:\n"
      << printTerm(Out);
}

TEST(GuardDedup, ValidityGuardIsDeduplicatedAcrossDataWrite) {
  // guard (is_valid s p); modify (heap data); guard (is_valid s p)
  //
  // The Sec 4.4 design point: data writes cannot change validity, so the
  // repeated validity guard stays redundant (the fix must not be
  // over-broad and pessimize the common split-heap pattern).
  TermRef P = ptrFree("p");
  TermRef G = mkStateGuard(validRead(P));
  TermRef In = spine({G, dataOnlyModify(), G});
  TermRef Out = monad::simplifyMonadTerm(In);
  EXPECT_EQ(countGuards(Out), 1u)
      << "validity knowledge survives data-only writes; got:\n"
      << printTerm(Out);
}

TEST(GuardDedup, MixedConjunctionKeepsOnlyTheDataHalf) {
  // guard (is_valid s p ∧ s[p] < n); data write; same guard again.
  // The repeat is not fully covered (its data conjunct was clobbered),
  // so the second guard must survive.
  TermRef P = ptrFree("p");
  TermRef N = Term::mkFree("n", wordTy(32));
  TermRef G =
      mkStateGuard(mkConj(validRead(P), mkLess(heapRead(P), N)));
  TermRef In = spine({G, dataOnlyModify(), G});
  TermRef Out = monad::simplifyMonadTerm(In);
  EXPECT_EQ(countGuards(Out), 2u) << printTerm(Out);
}

TEST(GuardDedup, ValidityWriteClearsAllGuardKnowledge) {
  // guard (is_valid s p); modify (is_valid field); guard (is_valid s p)
  //
  // A write that can change validity invalidates even validity facts.
  TermRef P = ptrFree("p");
  TermRef G = mkStateGuard(validRead(P));
  TermRef In = spine({G, validityModify(), G});
  TermRef Out = monad::simplifyMonadTerm(In);
  EXPECT_EQ(countGuards(Out), 2u)
      << "non-data-only writes must clear the seen set; got:\n"
      << printTerm(Out);
}

//===----------------------------------------------------------------------===//
// Exactness of the normal-form memo: the expected texts are what the
// simplifier printed before it remembered normal nodes.
//===----------------------------------------------------------------------===//

TEST(FlowSimp, RootLoopStopsAtTheStepCap) {
  // 103 levels: the root's loop stops after 100 steps, three short.
  TermRef Out = monad::simplifyMonadTerm(unwindChain(103));
  EXPECT_EQ(printTerm(Out),
            "do v ← return (return (return 7));\n"
            "   v' ← v;\n"
            "   v'\n"
            "od");
}

TEST(FlowSimp, CappedResultIsSimplifiedAgainWhenRevisited) {
  // The chain stops at the cap inside the condition; after the skip
  // step its enclosing bind is simplified again, which finishes it. A
  // memo that counted the capped subterm's ancestors as normal would
  // hand the 20 levels left back unsimplified.
  TermRef Out = monad::simplifyMonadTerm(chainBehindSkip(120));
  EXPECT_EQ(printTerm(Out), "bind (return (if b then 7 else 0)) g");
}

TEST(FlowSimp, SmallBudgetStopsEarly) {
  TermRef Out = monad::simplifyMonadTerm(chainBehindSkip(8), 3);
  EXPECT_EQ(printTerm(Out),
            "do skip;\n"
            "   bind\n"
            "     (condition\n"
            "       (λs. b)\n"
            "       do v ← return (return (return (return (return (return 7)))));\n"
            "          v' ← v;\n"
            "          v'1 ← v';\n"
            "          v'2 ← v'1;\n"
            "          v'3 ← v'2;\n"
            "          v'3\n"
            "       od\n"
            "       (return 0))\n"
            "     g\n"
            "od");
}

TEST(FlowSimp, NormalSubtermSharedByBothBranches) {
  // One normal node under both branches: the second visit is a memo hit
  // and must print as the first did.
  TermRef P = ptrFree("p");
  TermRef G = mkStateGuard(validRead(P));
  TermRef Gets = mkGets(stateTy(), unitTy(),
                        Term::mkLam("s", stateTy(), heapRead(P)));
  TermRef Shared = spine({G, Gets});
  TypeRef WTy = typeOf(Shared);
  TermRef K1 = Term::mkFree("k1", funTy(wordTy(32), WTy));
  TermRef K2 = Term::mkFree("k2", funTy(wordTy(32), WTy));
  TermRef In = mkCondition(
      Term::mkLam("s", stateTy(), Term::mkFree("b", boolTy())),
      mkBind(Shared, K1), mkBind(Shared, K2));
  TermRef Out = monad::simplifyMonadTerm(In);
  EXPECT_EQ(printTerm(Out),
            "condition\n"
            "  (λs. b)\n"
            "  do guard (λs. is_valid_w32 s p);\n"
            "     gets (λs. s[p]);\n"
            "     k1 0\n"
            "  od\n"
            "  do guard (λs. is_valid_w32 s p);\n"
            "     gets (λs. s[p]);\n"
            "     k2 0\n"
            "  od");
}
