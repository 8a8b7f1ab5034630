//===- HeapAbs.cpp --------------------------------------------------------===//

#include "heapabs/HeapAbs.h"

#include "support/RuleProfile.h"
#include "support/Trace.h"

#include "hol/Names.h"
#include "hol/RuleCache.h"
#include "monad/Peephole.h"

#include <mutex>

using namespace ac;
using namespace ac::heapabs;
using namespace ac::hol;
namespace nm = ac::hol::names;

thread_local std::string HeapAbstraction::CurFn;
thread_local unsigned HeapAbstraction::FreshCtr = 0;
thread_local std::unordered_map<uint64_t, HeapAbstraction::ValOut>
    HeapAbstraction::ValMemo;

//===----------------------------------------------------------------------===//
// Judgement constants (explicitly typed so rule terms with loose bound
// variables can be built without typeOf)
//===----------------------------------------------------------------------===//

namespace {

TypeRef liftedTy() { return recordTy(liftedRecName()); }
TypeRef globTy() { return recordTy(simpl::globalsRecName()); }

TermRef absHStmtC(const TypeRef &ATy, const TypeRef &CTy) {
  return Term::mkConst(nm::AbsHStmt, funTys({ATy, CTy}, boolTy()));
}
TermRef absHValC(const TypeRef &XTy) {
  return Term::mkConst(nm::AbsHVal,
                       funTys({funTy(liftedTy(), boolTy()),
                               funTy(liftedTy(), XTy),
                               funTy(globTy(), XTy)},
                              boolTy()));
}
TermRef absHModC() {
  return Term::mkConst(nm::AbsHModifies,
                       funTys({funTy(liftedTy(), boolTy()),
                               funTy(liftedTy(), liftedTy()),
                               funTy(globTy(), globTy())},
                              boolTy()));
}

TermRef mkAbsHStmt(const TermRef &A, const TermRef &C, const TypeRef &ATy,
                   const TypeRef &CTy) {
  return mkApps(absHStmtC(ATy, CTy), {A, C});
}
TermRef mkAbsHVal(const TermRef &P, const TermRef &A, const TermRef &C,
                  const TypeRef &XTy) {
  return mkApps(absHValC(XTy), {P, A, C});
}
TermRef mkAbsHMod(const TermRef &P, const TermRef &A, const TermRef &C) {
  return mkApps(absHModC(), {P, A, C});
}

TermRef V(const char *N, TypeRef Ty) {
  return Term::mkVar(N, 0, std::move(Ty));
}

/// `bind (guard P) (%_. M)` at explicit types.
TermRef guardThen(const TypeRef &S, const TypeRef &A, const TypeRef &E,
                  const TermRef &P, const TermRef &M) {
  return mkApps(bindC(S, unitTy(), A, E),
                {Term::mkApp(guardC(S, E), P),
                 Term::mkLam("_", unitTy(), liftLoose(M, 1))});
}

/// A literally-true precondition %s. True over the lifted state.
TermRef trueP() {
  return Term::mkLam("s", liftedTy(), mkTrue());
}

/// Abstracts the free variable "s!" out of \p Body, displaying the
/// binder as plain `s`.
TermRef lamStateDisp(const TypeRef &Ty, const TermRef &Body) {
  TermRef L = lambdaFree("s!", Ty, Body);
  return Term::mkLam("s", Ty, L->body());
}

//===----------------------------------------------------------------------===//
// The HL rule set (named axioms). Generic rules are polymorphic in the
// value/exception types via type variables; per-type rules are generated
// on first use for each heap type / plain global.
//===----------------------------------------------------------------------===//

struct HLRules {
  TypeRef L = liftedTy();
  TypeRef G = globTy();
  TypeRef a = Type::var("a"), e = Type::var("e"), x = Type::var("x"),
          y = Type::var("y"), i = Type::var("i");

  Thm Return_, Throw_, Skip_, Fail_;
  Thm Gets, GetsPure, Modify, ModifyPure, Guard, GuardPure, GuardAbsorb;
  Thm Bind, Catch, Cond, CondPure, While, WhilePure;
  Thm ValConst, ValApp, ValConstFun;
  Thm ValWeakenL, ValWeakenR, ModWeakenL, ModWeakenR;
  Thm ValDisjSC, ValConjSC;

  Thm ax(const std::string &Name, TermRef Prop) {
    return Kernel::axiom("HL." + Name, std::move(Prop));
  }

  HLRules() {
    TermRef xv = V("x", a);
    Return_ = ax("return",
                 mkAbsHStmt(Term::mkApp(returnC(L, a, e), xv),
                            Term::mkApp(returnC(G, a, e), xv),
                            monadTy(L, a, e), monadTy(G, a, e)));
    TermRef ev = V("ex", e);
    Throw_ = ax("throw",
                mkAbsHStmt(Term::mkApp(throwC(L, a, e), ev),
                           Term::mkApp(throwC(G, a, e), ev),
                           monadTy(L, a, e), monadTy(G, a, e)));
    Skip_ = ax("skip", mkAbsHStmt(skipC(L, e), skipC(G, e),
                                  monadTy(L, unitTy(), e),
                                  monadTy(G, unitTy(), e)));
    Fail_ = ax("fail", mkAbsHStmt(failC(L, a, e), failC(G, a, e),
                                  monadTy(L, a, e), monadTy(G, a, e)));

    // gets.
    {
      TermRef P = V("P", funTy(L, boolTy()));
      TermRef A = V("a", funTy(L, x));
      TermRef C = V("c", funTy(G, x));
      TermRef Prem = mkAbsHVal(P, A, C, x);
      TermRef AbsM = guardThen(L, x, e, P,
                               Term::mkApp(getsC(L, x, e), A));
      Gets = ax("gets",
                mkImp(Prem, mkAbsHStmt(AbsM,
                                       Term::mkApp(getsC(G, x, e), C),
                                       monadTy(L, x, e),
                                       monadTy(G, x, e))));
      TermRef PremPure = mkAbsHVal(trueP(), A, C, x);
      GetsPure =
          ax("gets_pure",
             mkImp(PremPure,
                   mkAbsHStmt(Term::mkApp(getsC(L, x, e), A),
                              Term::mkApp(getsC(G, x, e), C),
                              monadTy(L, x, e), monadTy(G, x, e))));
    }
    // modify.
    {
      TermRef P = V("P", funTy(L, boolTy()));
      TermRef A = V("a", funTy(L, L));
      TermRef C = V("c", funTy(G, G));
      TermRef Prem = mkAbsHMod(P, A, C);
      Modify =
          ax("modify",
             mkImp(Prem,
                   mkAbsHStmt(guardThen(L, unitTy(), e, P,
                                        Term::mkApp(modifyC(L, e), A)),
                              Term::mkApp(modifyC(G, e), C),
                              monadTy(L, unitTy(), e),
                              monadTy(G, unitTy(), e))));
      ModifyPure =
          ax("modify_pure",
             mkImp(mkAbsHMod(trueP(), A, C),
                   mkAbsHStmt(Term::mkApp(modifyC(L, e), A),
                              Term::mkApp(modifyC(G, e), C),
                              monadTy(L, unitTy(), e),
                              monadTy(G, unitTy(), e))));
    }
    // guard: abstract condition is P ∧ a.
    {
      TermRef P = V("P", funTy(L, boolTy()));
      TermRef A = V("a", funTy(L, boolTy()));
      TermRef C = V("c", funTy(G, boolTy()));
      TermRef Prem = mkAbsHVal(P, A, C, boolTy());
      TermRef Conj = Term::mkLam(
          "s", L,
          mkConj(Term::mkApp(liftLoose(P, 1), Term::mkBound(0)),
                 Term::mkApp(liftLoose(A, 1), Term::mkBound(0))));
      Guard = ax("guard",
                 mkImp(Prem,
                       mkAbsHStmt(Term::mkApp(guardC(L, e), Conj),
                                  Term::mkApp(guardC(G, e), C),
                                  monadTy(L, unitTy(), e),
                                  monadTy(G, unitTy(), e))));
      GuardPure =
          ax("guard_pure",
             mkImp(mkAbsHVal(trueP(), A, C, boolTy()),
                   mkAbsHStmt(Term::mkApp(guardC(L, e), A),
                              Term::mkApp(guardC(G, e), C),
                              monadTy(L, unitTy(), e),
                              monadTy(G, unitTy(), e))));
      // The pointer-guard case: abstract condition is constantly True
      // (is_valid subsumes it), so the guard is just the precondition.
      GuardAbsorb =
          ax("guard_absorb",
             mkImp(mkAbsHVal(P, Term::mkLam("s", L, mkTrue()), C,
                             boolTy()),
                   mkAbsHStmt(Term::mkApp(guardC(L, e), P),
                              Term::mkApp(guardC(G, e), C),
                              monadTy(L, unitTy(), e),
                              monadTy(G, unitTy(), e))));
    }
    // bind (HBIND of Table 4).
    {
      TermRef Lp = V("L'", monadTy(L, x, e));
      TermRef Lc = V("L", monadTy(G, x, e));
      TermRef Rp = V("R'", funTy(x, monadTy(L, y, e)));
      TermRef Rc = V("R", funTy(x, monadTy(G, y, e)));
      TermRef Prem1 = mkAbsHStmt(Lp, Lc, monadTy(L, x, e),
                                 monadTy(G, x, e));
      TermRef Prem2 = mkAllLamLoose(
          "r", x,
          mkAbsHStmt(Term::mkApp(liftLoose(Rp, 1), Term::mkBound(0)),
                     Term::mkApp(liftLoose(Rc, 1), Term::mkBound(0)),
                     monadTy(L, y, e), monadTy(G, y, e)));
      TermRef Concl =
          mkAbsHStmt(mkApps(bindC(L, x, y, e), {Lp, Rp}),
                     mkApps(bindC(G, x, y, e), {Lc, Rc}),
                     monadTy(L, y, e), monadTy(G, y, e));
      Bind = ax("bind", mkImp(Prem1, mkImp(Prem2, Concl)));
    }
    // catch.
    {
      TermRef Mp = V("M'", monadTy(L, a, e));
      TermRef Mc = V("M", monadTy(G, a, e));
      TypeRef e2 = Type::var("e2");
      TermRef Hp = V("H'", funTy(e, monadTy(L, a, e2)));
      TermRef Hc = V("H", funTy(e, monadTy(G, a, e2)));
      TermRef Prem1 =
          mkAbsHStmt(Mp, Mc, monadTy(L, a, e), monadTy(G, a, e));
      TermRef Prem2 = mkAllLamLoose(
          "ex", e,
          mkAbsHStmt(Term::mkApp(liftLoose(Hp, 1), Term::mkBound(0)),
                     Term::mkApp(liftLoose(Hc, 1), Term::mkBound(0)),
                     monadTy(L, a, e2), monadTy(G, a, e2)));
      TermRef Concl =
          mkAbsHStmt(mkApps(catchC(L, a, e, e2), {Mp, Hp}),
                     mkApps(catchC(G, a, e, e2), {Mc, Hc}),
                     monadTy(L, a, e2), monadTy(G, a, e2));
      Catch = ax("catch", mkImp(Prem1, mkImp(Prem2, Concl)));
    }
    // condition (with and without a guard for the condition).
    {
      TermRef P = V("P", funTy(L, boolTy()));
      TermRef Cp = V("c'", funTy(L, boolTy()));
      TermRef Cc = V("c", funTy(G, boolTy()));
      TermRef Ap = V("A'", monadTy(L, a, e));
      TermRef Ac = V("A", monadTy(G, a, e));
      TermRef Bp = V("B'", monadTy(L, a, e));
      TermRef Bc = V("B", monadTy(G, a, e));
      TermRef PremV = mkAbsHVal(P, Cp, Cc, boolTy());
      TermRef PremA =
          mkAbsHStmt(Ap, Ac, monadTy(L, a, e), monadTy(G, a, e));
      TermRef PremB =
          mkAbsHStmt(Bp, Bc, monadTy(L, a, e), monadTy(G, a, e));
      TermRef AbsCond = mkApps(condC(L, a, e), {Cp, Ap, Bp});
      TermRef ConCond = mkApps(condC(G, a, e), {Cc, Ac, Bc});
      Cond = ax("cond",
                mkImp(PremV,
                      mkImp(PremA,
                            mkImp(PremB,
                                  mkAbsHStmt(guardThen(L, a, e, P,
                                                       AbsCond),
                                             ConCond, monadTy(L, a, e),
                                             monadTy(G, a, e))))));
      TermRef PremVPure = mkAbsHVal(trueP(), Cp, Cc, boolTy());
      CondPure =
          ax("cond_pure",
             mkImp(PremVPure,
                   mkImp(PremA,
                         mkImp(PremB,
                               mkAbsHStmt(AbsCond, ConCond,
                                          monadTy(L, a, e),
                                          monadTy(G, a, e))))));
    }
    // whileLoop, with and without condition guards.
    {
      TermRef P = V("P", funTys({i, L}, boolTy()));
      TermRef Cp = V("c'", funTys({i, L}, boolTy()));
      TermRef Cc = V("c", funTys({i, G}, boolTy()));
      TermRef Bp = V("B'", funTy(i, monadTy(L, i, e)));
      TermRef Bc = V("B", funTy(i, monadTy(G, i, e)));
      TermRef Iv = V("i", i);
      TermRef PremV = mkAllLamLoose(
          "r", i,
          mkAbsHVal(Term::mkApp(liftLoose(P, 1), Term::mkBound(0)),
                    Term::mkApp(liftLoose(Cp, 1), Term::mkBound(0)),
                    Term::mkApp(liftLoose(Cc, 1), Term::mkBound(0)),
                    boolTy()));
      TermRef PremB = mkAllLamLoose(
          "r", i,
          mkAbsHStmt(Term::mkApp(liftLoose(Bp, 1), Term::mkBound(0)),
                     Term::mkApp(liftLoose(Bc, 1), Term::mkBound(0)),
                     monadTy(L, i, e), monadTy(G, i, e)));
      // Abstract body: %r. do x <- B' r; guard (P x); return x od.
      TermRef BodyAbs = Term::mkLam(
          "r", i,
          mkApps(bindC(L, i, i, e),
                 {Term::mkApp(liftLoose(Bp, 1), Term::mkBound(0)),
                  Term::mkLam(
                      "x", i,
                      mkApps(bindC(L, unitTy(), i, e),
                             {Term::mkApp(
                                  guardC(L, e),
                                  Term::mkApp(liftLoose(P, 2),
                                              Term::mkBound(0))),
                              Term::mkLam("_", unitTy(),
                                          Term::mkApp(
                                              returnC(L, i, e),
                                              Term::mkBound(1)))}))}));
      TermRef AbsLoop =
          mkApps(whileC(L, i, e), {Cp, BodyAbs, Iv});
      TermRef AbsWhole = guardThen(
          L, i, e, Term::mkApp(P, Iv), AbsLoop);
      TermRef ConLoop = mkApps(whileC(G, i, e), {Cc, Bc, Iv});
      While = ax("while",
                 mkImp(PremV,
                       mkImp(PremB,
                             mkAbsHStmt(AbsWhole, ConLoop,
                                        monadTy(L, i, e),
                                        monadTy(G, i, e)))));
      // Pure-condition variant: no guards anywhere.
      TermRef PremVPure = mkAllLamLoose(
          "r", i,
          mkAbsHVal(trueP(),
                    Term::mkApp(liftLoose(Cp, 1), Term::mkBound(0)),
                    Term::mkApp(liftLoose(Cc, 1), Term::mkBound(0)),
                    boolTy()));
      TermRef AbsPure = mkApps(whileC(L, i, e), {Cp, Bp, Iv});
      WhilePure = ax("while_pure",
                     mkImp(PremVPure,
                           mkImp(PremB,
                                 mkAbsHStmt(AbsPure, ConLoop,
                                            monadTy(L, i, e),
                                            monadTy(G, i, e)))));
    }
    // Value rules.
    {
      TermRef C = V("k", x);
      ValConst = ax("val_const",
                    mkAbsHVal(trueP(),
                              Term::mkLam("s", L, liftLoose(C, 1)),
                              Term::mkLam("s", G, liftLoose(C, 1)), x));
    }
    // Short-circuit boolean connectives: the right operand's
    // precondition is only required when the left operand does not
    // decide the result (matching the C parser's guard weakening).
    {
      TermRef P1 = V("P", funTy(L, boolTy()));
      TermRef P2 = V("Q", funTy(L, boolTy()));
      TermRef A1 = V("a1", funTy(L, boolTy()));
      TermRef C1 = V("c1", funTy(G, boolTy()));
      TermRef A2 = V("a2", funTy(L, boolTy()));
      TermRef C2 = V("c2", funTy(G, boolTy()));
      auto App0 = [&](const TermRef &F) {
        return Term::mkApp(liftLoose(F, 1), Term::mkBound(0));
      };
      TermRef Prem1 = mkAbsHVal(P1, A1, C1, boolTy());
      TermRef Prem2 = mkAbsHVal(P2, A2, C2, boolTy());
      // Disjunction.
      TermRef PreD = Term::mkLam(
          "s", L, mkConj(App0(P1), mkDisj(App0(A1), App0(P2))));
      TermRef AbsD =
          Term::mkLam("s", L, mkDisj(App0(A1), App0(A2)));
      TermRef ConD =
          Term::mkLam("s", G, mkDisj(App0(C1), App0(C2)));
      ValDisjSC = ax("val_disj_sc",
                     mkImp(Prem1, mkImp(Prem2,
                                        mkAbsHVal(PreD, AbsD, ConD,
                                                  boolTy()))));
      // Conjunction.
      TermRef PreC = Term::mkLam(
          "s", L,
          mkConj(App0(P1), mkDisj(mkNot(App0(A1)), App0(P2))));
      TermRef AbsC =
          Term::mkLam("s", L, mkConj(App0(A1), App0(A2)));
      TermRef ConC =
          Term::mkLam("s", G, mkConj(App0(C1), App0(C2)));
      ValConjSC = ax("val_conj_sc",
                     mkImp(Prem1, mkImp(Prem2,
                                        mkAbsHVal(PreC, AbsC, ConC,
                                                  boolTy()))));
    }

    // Precondition normalisation: strip literal Trues from conjunctions.
    {
      TermRef Q = V("Q", funTy(L, boolTy()));
      TermRef A2 = V("a", funTy(L, x));
      TermRef C2 = V("c", funTy(G, x));
      auto TrueConjL = Term::mkLam(
          "s", L,
          mkConj(mkTrue(),
                 Term::mkApp(liftLoose(Q, 1), Term::mkBound(0))));
      auto TrueConjR = Term::mkLam(
          "s", L,
          mkConj(Term::mkApp(liftLoose(Q, 1), Term::mkBound(0)),
                 mkTrue()));
      ValWeakenL = ax("val_weaken_true_l",
                      mkImp(mkAbsHVal(TrueConjL, A2, C2, x),
                            mkAbsHVal(Q, A2, C2, x)));
      ValWeakenR = ax("val_weaken_true_r",
                      mkImp(mkAbsHVal(TrueConjR, A2, C2, x),
                            mkAbsHVal(Q, A2, C2, x)));
      TermRef AM = V("a", funTy(L, L));
      TermRef CM = V("c", funTy(G, G));
      ModWeakenL = ax("mod_weaken_true_l",
                      mkImp(mkAbsHMod(TrueConjL, AM, CM),
                            mkAbsHMod(Q, AM, CM)));
      ModWeakenR = ax("mod_weaken_true_r",
                      mkImp(mkAbsHMod(TrueConjR, AM, CM),
                            mkAbsHMod(Q, AM, CM)));
    }
    {
      TermRef P = V("P", funTy(L, boolTy()));
      TermRef Q = V("Q", funTy(L, boolTy()));
      TermRef Fp = V("f'", funTy(L, funTy(x, y)));
      TermRef Fc = V("f", funTy(G, funTy(x, y)));
      TermRef Xp = V("x'", funTy(L, x));
      TermRef Xc = V("xc", funTy(G, x));
      TermRef Prem1 = mkAbsHVal(P, Fp, Fc, funTy(x, y));
      TermRef Prem2 = mkAbsHVal(Q, Xp, Xc, x);
      auto AppLam = [&](const TermRef &F, const TermRef &X,
                        const TypeRef &S) {
        return Term::mkLam(
            "s", S,
            Term::mkApp(
                Term::mkApp(liftLoose(F, 1), Term::mkBound(0)),
                Term::mkApp(liftLoose(X, 1), Term::mkBound(0))));
      };
      TermRef ConjP = Term::mkLam(
          "s", L,
          mkConj(Term::mkApp(liftLoose(P, 1), Term::mkBound(0)),
                 Term::mkApp(liftLoose(Q, 1), Term::mkBound(0))));
      ValApp = ax("val_app",
                  mkImp(Prem1,
                        mkImp(Prem2, mkAbsHVal(ConjP, AppLam(Fp, Xp, L),
                                               AppLam(Fc, Xc, G), y))));
    }
    {
      TermRef P = V("P", funTy(L, boolTy()));
      TermRef Vp = V("v'", funTy(L, x));
      TermRef Vc = V("v", funTy(G, x));
      TermRef Prem = mkAbsHVal(P, Vp, Vc, x);
      auto KLam = [&](const TermRef &F, const TypeRef &S) {
        return Term::mkLam(
            "s", S,
            Term::mkLam("_", y,
                        Term::mkApp(liftLoose(F, 2), Term::mkBound(1))));
      };
      ValConstFun =
          ax("val_constfun",
             mkImp(Prem, mkAbsHVal(P, KLam(Vp, L), KLam(Vc, G),
                                   funTy(y, x))));
    }
  }

  /// All (%n:Ty. Body) where Body already uses Bound 0.
  static TermRef mkAllLamLoose(const char *N, const TypeRef &Ty,
                               const TermRef &Body) {
    TermRef Lam = Term::mkLam(N, Ty, Body);
    TermRef C = Term::mkConst(nm::All,
                              funTy(funTy(Ty, boolTy()), boolTy()));
    return Term::mkApp(C, Lam);
  }
};

HLRules &rules() {
  static HLRules *R = new HLRules();
  return *R;
}

} // namespace

//===----------------------------------------------------------------------===//
// Per-type / per-global rules (generated on first use)
//===----------------------------------------------------------------------===//

namespace {

/// Mint-once cache for the per-type / per-global rules below (see
/// RuleCache.h). The heap engine requests a rule per *use* of a heap
/// operation; only the first request per axiom name builds the
/// proposition.
RuleCache &mintCache() {
  static auto *C = new RuleCache();
  return *C;
}

/// abs_h_val ?P ?a' ?a ==> abs_h_val (%s. ?P s & is_valid_T s (?a' s))
///                                  (%s. heap_T s (?a' s))
///                                  (%s. read (heap' s) (?a s))
Thm readRule(const LiftedGlobals &LG, const TypeRef &T) {
  return mintCache().get("HL.read." + heapTypeTag(T), [&] {
    TypeRef L = liftedTy(), G = globTy();
    TypeRef PT = ptrTy(T);
    TermRef P = V("P", funTy(L, boolTy()));
    TermRef Ap = V("a'", funTy(L, PT));
    TermRef Ac = V("a", funTy(G, PT));
    TermRef Prem = mkAbsHVal(P, Ap, Ac, PT);

    TermRef SL = Term::mkFree("s!", L);
    TermRef SG = Term::mkFree("s!", G);
    TermRef PreBody =
        mkConj(Term::mkApp(P, SL),
               LG.isValid(T, SL, Term::mkApp(Ap, SL)));
    TermRef Pre = lamStateDisp( L, PreBody);
    TermRef Abs =
        lamStateDisp( L, LG.heapVal(T, SL, Term::mkApp(Ap, SL)));
    TermRef HeapAt = mkFieldGet(simpl::globalsRecName(),
                                simpl::heapFieldName(), heapTy(), G, SG);
    TermRef Con = lamStateDisp( G, mkReadHeap(HeapAt, betaNorm(Term::mkApp(Ac, SG))));
    return Kernel::axiom("HL.read." + heapTypeTag(T),
                         mkImp(Prem, mkAbsHVal(Pre, Abs, Con, T)));
  });
}

/// Pointer-validity guards (HPTR of Table 4).
Thm ptrGuardRule(const LiftedGlobals &LG, const TypeRef &T) {
  return mintCache().get("HL.ptr_guard." + heapTypeTag(T), [&] {
    TypeRef L = liftedTy(), G = globTy();
    TypeRef PT = ptrTy(T);
    TermRef P = V("P", funTy(L, boolTy()));
    TermRef Ap = V("a'", funTy(L, PT));
    TermRef Ac = V("a", funTy(G, PT));
    TermRef Prem = mkAbsHVal(P, Ap, Ac, PT);
    TermRef SL = Term::mkFree("s!", L);
    TermRef SG = Term::mkFree("s!", G);
    TermRef Pre = lamStateDisp( L,
        mkConj(Term::mkApp(P, SL),
               LG.isValid(T, SL, Term::mkApp(Ap, SL))));
    TermRef Abs = Term::mkLam("s", L, mkTrue());
    TermRef CP = betaNorm(Term::mkApp(Ac, SG));
    TermRef Con = lamStateDisp( G, mkConj(mkPtrAligned(CP), mkPtrRangeOk(CP)));
    return Kernel::axiom("HL.ptr_guard." + heapTypeTag(T),
                         mkImp(Prem, mkAbsHVal(Pre, Abs, Con, boolTy())));
  });
}

/// Heap write.
Thm writeRule(const LiftedGlobals &LG, const TypeRef &T) {
  return mintCache().get("HL.write." + heapTypeTag(T), [&] {
    TypeRef L = liftedTy(), G = globTy();
    TypeRef PT = ptrTy(T);
    TermRef Pp = V("P", funTy(L, boolTy()));
    TermRef Qp = V("Q", funTy(L, boolTy()));
    TermRef App_ = V("a'", funTy(L, PT));
    TermRef Apc = V("a", funTy(G, PT));
    TermRef Vp = V("v'", funTy(L, T));
    TermRef Vc = V("v", funTy(G, T));
    TermRef Prem1 = mkAbsHVal(Pp, App_, Apc, PT);
    TermRef Prem2 = mkAbsHVal(Qp, Vp, Vc, T);

    TermRef SL = Term::mkFree("s!", L);
    TermRef SG = Term::mkFree("s!", G);
    TermRef Pre = lamStateDisp( L,
        mkConj(Term::mkApp(Pp, SL),
               mkConj(Term::mkApp(Qp, SL),
                      LG.isValid(T, SL, Term::mkApp(App_, SL)))));
    // Abstract: %s. heap_T_update (%h. h(p := v)) s.
    TermRef HFree = Term::mkFree("h!", funTy(PT, T));
    TermRef FunUpd = Term::mkConst(
        "fun_upd",
        funTys({funTy(PT, T), PT, T}, funTy(PT, T)));
    TermRef NewH = mkApps(FunUpd, {HFree, Term::mkApp(App_, SL),
                                   Term::mkApp(Vp, SL)});
    TermRef UpdFn = lambdaFree("h!", funTy(PT, T), NewH);
    TermRef Abs = lamStateDisp( L,
        mkFieldUpdate(liftedRecName(), heapFieldFor(T), funTy(PT, T), L,
                      UpdFn, SL));
    // Concrete: %s. heap'_update (%_. write (heap' s) p v) s.
    TermRef HeapAt = mkFieldGet(simpl::globalsRecName(),
                                simpl::heapFieldName(), heapTy(), G, SG);
    TermRef W = mkWriteHeap(HeapAt, betaNorm(Term::mkApp(Apc, SG)),
                            betaNorm(Term::mkApp(Vc, SG)));
    TermRef Con = lamStateDisp( G,
        mkFieldSet(simpl::globalsRecName(), simpl::heapFieldName(),
                   heapTy(), G, W, SG));
    return Kernel::axiom(
        "HL.write." + heapTypeTag(T),
        mkImp(Prem1, mkImp(Prem2, mkAbsHMod(Pre, Abs, Con))));
  });
}

/// Plain global read: abs_h_val True (%s. g s) (%s. g s).
Thm globalGetRule(const std::string &Name, const TypeRef &Ty) {
  // The type tag keeps the axiom name injective over propositions: two
  // concurrently-served programs may both have a global `counter`, and
  // only identically-typed ones may share the registered axiom.
  return mintCache().get(
      "HL.global_get." + Name + "." + heapTypeTag(Ty), [&] {
        TypeRef L = liftedTy(), G = globTy();
        TermRef SL = Term::mkFree("s!", L);
        TermRef SG = Term::mkFree("s!", G);
        TermRef Abs =
            lamStateDisp( L, mkFieldGet(liftedRecName(), Name, Ty, L, SL));
        TermRef Con = lamStateDisp(
            G, mkFieldGet(simpl::globalsRecName(), Name, Ty, G, SG));
        return Kernel::axiom("HL.global_get." + Name + "." + heapTypeTag(Ty),
                             mkAbsHVal(trueP(), Abs, Con, Ty));
      });
}

/// Plain global update.
Thm globalUpdRule(const std::string &Name, const TypeRef &Ty) {
  return mintCache().get(
      "HL.global_upd." + Name + "." + heapTypeTag(Ty), [&] {
        TypeRef L = liftedTy(), G = globTy();
        TermRef P = V("P", funTy(L, boolTy()));
        TermRef Vp = V("v'", funTy(L, Ty));
        TermRef Vc = V("v", funTy(G, Ty));
        TermRef Prem = mkAbsHVal(P, Vp, Vc, Ty);
        TermRef SL = Term::mkFree("s!", L);
        TermRef SG = Term::mkFree("s!", G);
        TermRef Abs = lamStateDisp( L,
            mkFieldSet(liftedRecName(), Name, Ty, L,
                       betaNorm(Term::mkApp(Vp, SL)), SL));
        TermRef Con = lamStateDisp( G,
            mkFieldSet(simpl::globalsRecName(), Name, Ty, G,
                       betaNorm(Term::mkApp(Vc, SG)), SG));
        return Kernel::axiom("HL.global_upd." + Name + "." + heapTypeTag(Ty),
                             mkImp(Prem, mkAbsHMod(P, Abs, Con)));
      });
}

} // namespace

//===----------------------------------------------------------------------===//
// Engine
//===----------------------------------------------------------------------===//

HeapAbstraction::HeapAbstraction(simpl::SimplProgram &Prog,
                                 monad::InterpCtx &Ctx)
    : Prog(Prog), Ctx(Ctx), LG(buildLiftedGlobals(Prog)) {
  (void)rules(); // force axiom registration
  installLiftSemantics(Ctx, LG);
}

void HeapAbstraction::registerStandardRules() {
  (void)rules(); // the generic Table 4 rules

  // The per-type read/write/guard family at the standard word widths.
  // These axioms only depend on the heap type (lifted_globals is a
  // fixed record name), so a detached LiftedGlobals carrying just the
  // canonical types mints the exact propositions a real program would.
  static std::once_flag Once;
  std::call_once(Once, [] {
    LiftedGlobals LG;
    LG.LiftedTy = liftedTy();
    LG.ConcreteTy = globTy();
    for (unsigned W : {8u, 16u, 32u, 64u}) {
      TypeRef T = wordTy(W);
      (void)readRule(LG, T);
      (void)writeRule(LG, T);
      (void)ptrGuardRule(LG, T);
    }
  });
}

void HeapAbstraction::addValRule(const Thm &Rule) {
  UserValRules.push_back(Rule);
  ValMemo.clear(); // cached val results predate the new rule
}

TermRef HeapAbstraction::absOf(const Thm &StmtThm) const {
  // abs_h_stmt A C: A is the first argument.
  std::vector<TermRef> Args;
  stripApp(StmtThm.prop(), Args);
  assert(Args.size() == 2 && "malformed abs_h_stmt theorem");
  return Args[0];
}

namespace {

/// Splits `abs_h_val P a c` into its parts.
void destVal(const Thm &T, TermRef &P, TermRef &A, TermRef &C) {
  std::vector<TermRef> Args;
  stripApp(T.prop(), Args);
  assert(Args.size() == 3 && "malformed abs_h_val theorem");
  P = Args[0];
  A = Args[1];
  C = Args[2];
}

bool isTrueP(const TermRef &P) {
  return P->isLam() && P->body()->isConst(nm::True);
}

/// Abstracts a free variable but keeps a display name (shared with the
/// L2 converter's convention for tuple binders).
TermRef lamWithDisplay(const std::string &FreeName,
                       const std::string &Display, const TypeRef &Ty,
                       const TermRef &Body) {
  TermRef L = lambdaFree(FreeName, Ty, Body);
  return Term::mkLam(Display.empty() ? FreeName : Display, Ty, L->body());
}

/// `fld:globals.heap' s` applied to exactly the free \p SG?
bool isHeapAt(const TermRef &T, const TermRef &SG) {
  return T->isApp() && termEq(T->argTerm(), SG) && T->fun()->isConst() &&
         T->fun()->name() ==
             std::string("fld:") + simpl::globalsRecName() + "." +
                 simpl::heapFieldName();
}

} // namespace

namespace {

/// Repeatedly strips `True &` / `& True` from a theorem's precondition
/// using the weaken rules (\p IsMod selects the abs_h_modifies variants).
Thm normalizePre(Thm Th, bool IsMod) {
  HLRules &R = rules();
  for (unsigned Iter = 0; Iter != 16; ++Iter) {
    std::vector<TermRef> Args;
    stripApp(Th.prop(), Args);
    if (Args.size() != 3 || !Args[0]->isLam())
      return Th;
    TermRef PL, PR;
    if (!destConj(Args[0]->body(), PL, PR))
      return Th;
    bool LeftTrue = PL->isConst(nm::True);
    bool RightTrue = PR->isConst(nm::True);
    if (!LeftTrue && !RightTrue)
      return Th;
    TermRef Rest = LeftTrue ? PR : PL;
    TermRef Q = Term::mkLam("s", Args[0]->type(), Rest);
    TypeRef XTy;
    if (!IsMod)
      XTy = ranTy(typeOf(Args[1]));
    Thm Rule = IsMod ? (LeftTrue ? R.ModWeakenL : R.ModWeakenR)
                     : (LeftTrue ? R.ValWeakenL : R.ValWeakenR);
    std::vector<std::pair<const char *, TermRef>> Tms = {
        {"Q", Q}, {"a", Args[1]}, {"c", Args[2]}};
    Thm Inst = IsMod ? inst(Rule, Tms)
                     : inst(Rule, Tms, {{"x", XTy}});
    Th = Kernel::mp(Inst, Th);
  }
  return Th;
}

} // namespace

std::optional<HeapAbstraction::ValOut>
HeapAbstraction::val(const TermRef &C) {
  auto It = ValMemo.find(C->id());
  if (It != ValMemo.end())
    return It->second;
  unsigned FreshBefore = FreshCtr;
  std::optional<ValOut> R = valUncached(C);
  // Cache only fresh-free computations: a hit then returns exactly what
  // recomputation would have produced and leaves the fresh-name sequence
  // untouched, so abstraction output is identical with or without it.
  if (R && FreshCtr == FreshBefore)
    ValMemo.emplace(C->id(), *R);
  return R;
}

std::optional<HeapAbstraction::ValOut>
HeapAbstraction::valUncached(const TermRef &C) {
  assert(C->isLam() && "abs_h_val inputs are state functions");
  // A reserved probe name, not a fresh one: it is abstracted back out of
  // every term before val returns, engine fresh names always end in a
  // digit, and '~' cannot occur in a C identifier — so the constant can
  // never collide, and val stays a pure function of its argument (which
  // is what makes the id-keyed memo above sound).
  std::string SGName = "sgv~";
  TermRef SG = Term::mkFree(SGName, C->type());
  TermRef Body = betaNorm(substBound(C->body(), SG));
  HLRules &R = rules();

  auto Close = [&](const Thm &Th0) {
    Thm Th = normalizePre(Th0, /*IsMod=*/false);
    ValOut Out;
    Out.Th = Th;
    TermRef CC;
    destVal(Th, Out.P, Out.A, CC);
    return Out;
  };

  // Pointer-validity guard: ptr_aligned p & ptr_range_ok p. This must be
  // recognised before the state-free case: the condition does not read
  // the state, but its abstraction strengthens it to is_valid (HPTR).
  {
    TermRef LHS, RHS;
    if (destConj(Body, LHS, RHS)) {
      std::vector<TermRef> AArgs, RArgs;
      if (destConstApp(LHS, nm::PtrAligned, 1, AArgs) &&
          destConstApp(RHS, nm::PtrRangeOk, 1, RArgs) &&
          termEq(AArgs[0], RArgs[0])) {
        TermRef PtrC = lambdaFree(SGName, C->type(), AArgs[0]);
        std::optional<ValOut> Sub = val(PtrC);
        if (Sub) {
          TypeRef T = typeOf(AArgs[0])->arg(0);
          Thm Rule = ptrGuardRule(LG, T);
          Thm Inst = inst(Rule, {{"P", Sub->P}, {"a'", Sub->A},
                                 {"a", PtrC}});
          return Close(Kernel::mp(Inst, Sub->Th));
        }
      }
    }
  }

  // Constant (state-free) expression.
  if (!occursFree(Body, SGName)) {
    Thm Th = inst(R.ValConst, {{"k", Body}},
                  {{"x", typeOf(Body)}});
    return Close(Th);
  }

  std::vector<TermRef> Args;
  TermRef Head = stripApp(Body, Args);

  // Typed heap read: read (heap' s) P.
  if (Head->isConst(nm::ReadHeap) && Args.size() == 2 &&
      isHeapAt(Args[0], SG)) {
    TermRef PtrC = lambdaFree(SGName, C->type(), Args[1]);
    std::optional<ValOut> Sub = val(PtrC);
    if (!Sub)
      return ruleMissN(
          [&] { return "HL.read." + heapTypeTag(typeOf(Body)); });
    TypeRef T = typeOf(Body);
    Thm Rule = readRule(LG, T);
    Thm Inst = inst(Rule, {{"P", Sub->P}, {"a'", Sub->A},
                           {"a", PtrC}});
    Thm Th = Kernel::mp(Inst, Sub->Th);
    return Close(Th);
  }

  // Plain global read: fld:globals.g s.
  if (Head->isConst() && Args.size() == 1 && termEq(Args[0], SG) &&
      Head->name().rfind(std::string("fld:") + simpl::globalsRecName() +
                             ".",
                         0) == 0) {
    std::string GName = Head->name().substr(Head->name().rfind('.') + 1);
    if (GName != simpl::heapFieldName()) {
      Thm Th = globalGetRule(GName, typeOf(Body));
      return Close(Th);
    }
    return std::nullopt; // raw heap value: not liftable
  }

  // User-supplied idiom rules, in the order they were added: match the
  // conclusion's concrete side, then solve the premises recursively,
  // unifying the schematics with the derived abstractions.
  for (const Thm &UR : UserValRules) {
    std::vector<TermRef> Prems;
    TermRef Concl;
    stripImps(UR.prop(), Prems, Concl);
    std::vector<TermRef> CArgs;
    stripApp(Concl, CArgs);
    if (CArgs.size() != 3)
      continue;
    std::optional<Subst> M = matchTerm(CArgs[2], C);
    if (!M)
      continue;
    Subst S = *M;
    bool Ok = true;
    std::vector<Thm> SubThms;
    for (const TermRef &Prem : Prems) {
      TermRef PInst = S.apply(Prem);
      std::vector<TermRef> PArgs;
      TermRef PHead = stripApp(PInst, PArgs);
      if (!PHead->isConst(nm::AbsHVal) || PArgs.size() != 3 ||
          PArgs[2]->hasSchematic()) {
        Ok = false;
        break;
      }
      std::optional<ValOut> Sub = val(PArgs[2]);
      if (!Sub || !unifyTerms(PInst, Sub->Th.prop(), S)) {
        Ok = false;
        break;
      }
      SubThms.push_back(Sub->Th);
    }
    if (!Ok) {
      (void)ruleMiss(UR);
      continue;
    }
    Thm Cur = [&] {
      support::RuleTimer RuleRT([&] { return UR.deriv()->name(); });
      RuleRT.hit();
      return Kernel::instantiate(UR, S);
    }();
    for (const Thm &Sub : SubThms)
      Cur = Kernel::mp(Cur, Sub);
    return Close(Cur);
  }

  // Short-circuit connectives whose right side carries a precondition.
  {
    std::vector<TermRef> BArgs;
    TermRef BHead = stripApp(Body, BArgs);
    if (BHead->isConst() && BArgs.size() == 2 &&
        (BHead->name() == nm::Disj || BHead->name() == nm::Conj)) {
      TermRef LC = lambdaFree(SGName, C->type(), BArgs[0]);
      TermRef RC = lambdaFree(SGName, C->type(), BArgs[1]);
      std::optional<ValOut> LV = val(LC);
      std::optional<ValOut> RV = LV ? val(RC) : std::nullopt;
      if (LV && RV) {
        if (isTrueP(RV->P)) {
          // Pure right side: plain congruence via the generic path
          // below gives a cleaner precondition.
        } else {
          Thm Rule = BHead->name() == nm::Disj ? rules().ValDisjSC
                                               : rules().ValConjSC;
          Thm Inst = inst(Rule, {{"P", LV->P}, {"Q", RV->P},
                                 {"a1", LV->A}, {"c1", LC},
                                 {"a2", RV->A}, {"c2", RC}});
          return Close(Kernel::mp(Kernel::mp(Inst, LV->Th), RV->Th));
        }
      }
    }
  }

  // Generic application: (f s) (x s).
  if (Body->isApp()) {
    TermRef FC = lambdaFree(SGName, C->type(), Body->fun());
    TermRef XC = lambdaFree(SGName, C->type(), Body->argTerm());
    std::optional<ValOut> FV = val(FC);
    if (!FV)
      return ruleMiss(R.ValApp);
    std::optional<ValOut> XV = val(XC);
    if (!XV)
      return ruleMiss(R.ValApp);
    TypeRef XTy = typeOf(Body->argTerm());
    TypeRef YTy = typeOf(Body);
    Thm Inst = inst(R.ValApp,
                    {{"P", FV->P}, {"Q", XV->P}, {"f'", FV->A},
                     {"f", FC}, {"x'", XV->A}, {"xc", XC}},
                    {{"x", XTy}, {"y", YTy}});
    return Close(Kernel::mp(Kernel::mp(Inst, FV->Th), XV->Th));
  }

  // Inner lambda with an unused binder (%_. V).
  if (Body->isLam()) {
    TermRef Probe = Term::mkFree(fresh("probe"), Body->type());
    TermRef Inner = betaNorm(substBound(Body->body(), Probe));
    if (!occursFree(Inner, Probe->name())) {
      TermRef VC = lambdaFree(SGName, C->type(), Inner);
      std::optional<ValOut> Sub = val(VC);
      if (!Sub)
        return ruleMiss(rules().ValConstFun);
      Thm Inst = inst(rules().ValConstFun,
                      {{"P", Sub->P}, {"v'", Sub->A}, {"v", VC}},
                      {{"x", typeOf(Inner)}, {"y", Body->type()}});
      return Close(Kernel::mp(Inst, Sub->Th));
    }
    return std::nullopt;
  }

  return std::nullopt;
}

std::optional<HeapAbstraction::ValOut>
HeapAbstraction::mod(const TermRef &C) {
  assert(C->isLam() && "abs_h_modifies inputs are state updates");
  std::string SGName = fresh("sgm");
  TermRef SG = Term::mkFree(SGName, C->type());
  TermRef Body = betaNorm(substBound(C->body(), SG));

  std::vector<TermRef> Args;
  TermRef Head = stripApp(Body, Args);
  if (!Head->isConst() || Args.size() != 2 || !termEq(Args[1], SG))
    return std::nullopt;
  const std::string UpdPrefix =
      std::string("upd:") + simpl::globalsRecName() + ".";
  if (Head->name().rfind(UpdPrefix, 0) != 0)
    return std::nullopt;
  std::string Field = Head->name().substr(Head->name().rfind('.') + 1);
  const TermRef &Fn = Args[0];
  if (!Fn->isLam())
    return std::nullopt;
  TermRef Probe = Term::mkFree(fresh("probe"), Fn->type());
  TermRef NewVal = betaNorm(substBound(Fn->body(), Probe));
  if (occursFree(NewVal, Probe->name()))
    return std::nullopt; // non-constant update function

  auto Close = [&](const Thm &Th0) {
    Thm Th = normalizePre(Th0, /*IsMod=*/true);
    ValOut Out;
    Out.Th = Th;
    TermRef CC;
    destVal(Th, Out.P, Out.A, CC);
    return Out;
  };

  if (Field == simpl::heapFieldName()) {
    // write (heap' s) p v.
    std::vector<TermRef> WArgs;
    if (!destConstApp(NewVal, nm::WriteHeap, 3, WArgs) ||
        !isHeapAt(WArgs[0], SG))
      return std::nullopt;
    TermRef PtrC = lambdaFree(SGName, C->type(), WArgs[1]);
    TermRef ValC = lambdaFree(SGName, C->type(), WArgs[2]);
    std::optional<ValOut> PV = val(PtrC);
    if (!PV)
      return ruleMissN(
          [&] { return "HL.write." + heapTypeTag(typeOf(WArgs[2])); });
    std::optional<ValOut> VV = val(ValC);
    if (!VV)
      return ruleMissN(
          [&] { return "HL.write." + heapTypeTag(typeOf(WArgs[2])); });
    TypeRef T = typeOf(WArgs[2]);
    Thm Rule = writeRule(LG, T);
    Thm Inst = inst(Rule, {{"P", PV->P}, {"Q", VV->P}, {"a'", PV->A},
                           {"a", PtrC}, {"v'", VV->A}, {"v", ValC}});
    return Close(Kernel::mp(Kernel::mp(Inst, PV->Th), VV->Th));
  }

  // Plain global update.
  const hol::RecordInfo *GRec =
      Prog.Records.lookup(simpl::globalsRecName());
  const TypeRef *FT = GRec->fieldType(Field);
  if (!FT)
    return std::nullopt;
  TermRef ValC = lambdaFree(SGName, C->type(), NewVal);
  std::optional<ValOut> VV = val(ValC);
  if (!VV)
    return ruleMissN([&] { return "HL.global_upd." + Field; });
  Thm Rule = globalUpdRule(Field, *FT);
  Thm Inst = inst(Rule, {{"P", VV->P}, {"v'", VV->A}, {"v", ValC}});
  return Close(Kernel::mp(Inst, VV->Th));
}

std::optional<Thm> HeapAbstraction::stmt(const TermRef &C) {
  HLRules &R = rules();
  std::vector<TermRef> Args;
  TermRef Head = stripApp(C, Args);
  TypeRef S, A, E;
  bool IsMonad = destMonadTy(typeOf(C), S, A, E);
  assert(IsMonad && "abs_h_stmt input must be monadic");
  (void)IsMonad;

  if (Head->isConst(nm::Return) && Args.size() == 1)
    return inst(R.Return_, {{"x", Args[0]}}, {{"a", A}, {"e", E}});
  if (Head->isConst(nm::Throw) && Args.size() == 1)
    return inst(R.Throw_, {{"ex", Args[0]}}, {{"a", A}, {"e", E}});
  if (Head->isConst(nm::Skip))
    return inst(R.Skip_, {}, {{"e", E}});
  if (Head->isConst(nm::Fail))
    return inst(R.Fail_, {}, {{"a", A}, {"e", E}});

  if (Head->isConst(nm::Gets) && Args.size() == 1) {
    std::optional<ValOut> VO = val(Args[0]);
    if (!VO)
      return ruleMiss(R.Gets);
    Thm Rule = isTrueP(VO->P) ? R.GetsPure : R.Gets;
    Thm Inst = isTrueP(VO->P)
                   ? inst(Rule, {{"a", VO->A}, {"c", Args[0]}},
                          {{"x", A}, {"e", E}})
                   : inst(Rule,
                          {{"P", VO->P}, {"a", VO->A}, {"c", Args[0]}},
                          {{"x", A}, {"e", E}});
    return Kernel::mp(Inst, VO->Th);
  }

  if (Head->isConst(nm::Modify) && Args.size() == 1) {
    std::optional<ValOut> VO = mod(Args[0]);
    if (!VO)
      return ruleMiss(R.Modify);
    Thm Rule = isTrueP(VO->P) ? R.ModifyPure : R.Modify;
    Thm Inst = isTrueP(VO->P)
                   ? inst(Rule, {{"a", VO->A}, {"c", Args[0]}},
                          {{"e", E}})
                   : inst(Rule,
                          {{"P", VO->P}, {"a", VO->A}, {"c", Args[0]}},
                          {{"e", E}});
    return Kernel::mp(Inst, VO->Th);
  }

  if (Head->isConst(nm::Guard) && Args.size() == 1) {
    std::optional<ValOut> VO = val(Args[0]);
    if (!VO)
      return ruleMiss(R.Guard);
    Thm Inst;
    if (isTrueP(VO->A) && !isTrueP(VO->P))
      Inst = inst(R.GuardAbsorb, {{"P", VO->P}, {"c", Args[0]}},
                  {{"e", E}});
    else if (isTrueP(VO->P))
      Inst = inst(R.GuardPure, {{"a", VO->A}, {"c", Args[0]}},
                  {{"e", E}});
    else
      Inst = inst(R.Guard,
                  {{"P", VO->P}, {"a", VO->A}, {"c", Args[0]}},
                  {{"e", E}});
    return Kernel::mp(Inst, VO->Th);
  }

  if (Head->isConst(nm::Bind) && Args.size() == 2 && Args[1]->isLam()) {
    std::optional<Thm> LT = stmt(Args[0]);
    if (!LT)
      return ruleMiss(R.Bind);
    std::string RName = fresh("r");
    TermRef RFree = Term::mkFree(RName, Args[1]->type());
    TermRef RBody = betaNorm(Term::mkApp(Args[1], RFree));
    std::optional<Thm> RT = stmt(RBody);
    if (!RT)
      return ruleMiss(R.Bind);
    TermRef RAbs = lamWithDisplay(RName, Args[1]->name(),
                                  Args[1]->type(), absOf(*RT));
    Thm RAll = Kernel::generalize(RName, Args[1]->type(), *RT);
    TypeRef XTy = Args[1]->type();
    TypeRef S2, B2, E2;
    destMonadTy(typeOf(RBody), S2, B2, E2);
    Thm Inst = inst(R.Bind,
                    {{"L'", absOf(*LT)},
                     {"L", Args[0]},
                     {"R'", RAbs},
                     {"R", Args[1]}},
                    {{"x", XTy}, {"y", B2}, {"e", E}});
    return Kernel::mp(Kernel::mp(Inst, *LT), RAll);
  }

  if (Head->isConst(nm::Catch) && Args.size() == 2 && Args[1]->isLam()) {
    std::optional<Thm> MT = stmt(Args[0]);
    if (!MT)
      return ruleMiss(R.Catch);
    std::string EName = fresh("ex");
    TermRef EFree = Term::mkFree(EName, Args[1]->type());
    TermRef HBody = betaNorm(Term::mkApp(Args[1], EFree));
    std::optional<Thm> HT = stmt(HBody);
    if (!HT)
      return ruleMiss(R.Catch);
    TermRef HAbs = lamWithDisplay(EName, Args[1]->name(),
                                  Args[1]->type(), absOf(*HT));
    Thm HAll = Kernel::generalize(EName, Args[1]->type(), *HT);
    TypeRef E1 = Args[1]->type(); // inner exception type
    Thm Inst = inst(R.Catch,
                    {{"M'", absOf(*MT)},
                     {"M", Args[0]},
                     {"H'", HAbs},
                     {"H", Args[1]}},
                    {{"a", A}, {"e", E1}, {"e2", E}});
    return Kernel::mp(Kernel::mp(Inst, *MT), HAll);
  }

  if (Head->isConst(nm::Condition) && Args.size() == 3) {
    std::optional<ValOut> CV = val(Args[0]);
    if (!CV)
      return ruleMiss(R.Cond);
    std::optional<Thm> AT = stmt(Args[1]);
    std::optional<Thm> BT = AT ? stmt(Args[2]) : std::nullopt;
    if (!BT)
      return ruleMiss(R.Cond);
    bool Pure = isTrueP(CV->P);
    Thm Rule = Pure ? R.CondPure : R.Cond;
    std::vector<std::pair<const char *, TermRef>> Tms = {
        {"c'", CV->A}, {"c", Args[0]},  {"A'", absOf(*AT)},
        {"A", Args[1]}, {"B'", absOf(*BT)}, {"B", Args[2]}};
    if (!Pure)
      Tms.push_back({"P", CV->P});
    Thm Inst = inst(Rule, Tms, {{"a", A}, {"e", E}});
    return Kernel::mp(Kernel::mp(Kernel::mp(Inst, CV->Th), *AT), *BT);
  }

  if (Head->isConst(nm::WhileLoop) && Args.size() == 3 &&
      Args[0]->isLam() && Args[1]->isLam()) {
    TypeRef ITy = Args[0]->type();
    // Condition (per-iterate).
    std::string RN1 = fresh("r");
    TermRef R1 = Term::mkFree(RN1, ITy);
    TermRef CondAt = betaNorm(Term::mkApp(Args[0], R1));
    std::optional<ValOut> CV = val(CondAt);
    if (!CV)
      return ruleMiss(R.While);
    bool Pure = isTrueP(CV->P);
    TermRef CondAbs = lamWithDisplay(RN1, Args[0]->name(), ITy, CV->A);
    TermRef PAbs = lamWithDisplay(RN1, Args[0]->name(), ITy, CV->P);
    Thm CondAll = Kernel::generalize(RN1, ITy, CV->Th);
    // Body.
    std::string RN2 = fresh("r");
    TermRef R2 = Term::mkFree(RN2, ITy);
    TermRef BodyAt = betaNorm(Term::mkApp(Args[1], R2));
    std::optional<Thm> BT = stmt(BodyAt);
    if (!BT)
      return ruleMiss(R.While);
    TermRef BodyAbs = lamWithDisplay(RN2, Args[1]->name(), ITy,
                                     absOf(*BT));
    Thm BodyAll = Kernel::generalize(RN2, ITy, *BT);
    Thm Rule = Pure ? R.WhilePure : R.While;
    std::vector<std::pair<const char *, TermRef>> Tms = {
        {"c'", CondAbs}, {"c", Args[0]}, {"B'", BodyAbs},
        {"B", Args[1]}, {"i", Args[2]}};
    if (!Pure)
      Tms.push_back({"P", PAbs});
    Thm Inst = inst(Rule, Tms, {{"i", ITy}, {"e", E}});
    // Note: type variable "i" and term variable "i" are distinct maps.
    return Kernel::mp(Kernel::mp(Inst, CondAll), BodyAll);
  }

  // Function calls: l2:<fn> a1 ... an.
  if (Head->isConst() && Head->name().rfind("l2:", 0) == 0) {
    std::string Callee = Head->name().substr(3);
    // Recursive self-call, or a call to an already-lifted callee.
    bool CalleeLifted = (Callee == CurFn);
    if (!CalleeLifted) {
      std::shared_lock<std::shared_mutex> L(ResultsM);
      auto It = Results.find(Callee);
      CalleeLifted = It != Results.end() && It->second.Lifted;
    }
    if (!CalleeLifted)
      return std::nullopt;
    const simpl::SimplFunc *CF = Prog.function(Callee);
    std::vector<TypeRef> ArgTys;
    for (const auto &[N2, T2] : CF->Params)
      ArgTys.push_back(T2);
    TypeRef RetTy = CF->RetTy ? CF->RetTy : unitTy();
    TermRef HLC = Term::mkConst(
        "hl:" + Callee, funTys(ArgTys, monadTy(liftedTy(), RetTy, E)));
    TermRef AbsCall = mkApps(HLC, Args);
    TermRef Prop = mkAbsHStmt(AbsCall, C, typeOf(AbsCall), typeOf(C));
    // Justified by the callee's own (differentially validated)
    // abstraction; recursion uses the standard fixpoint argument.
    return Kernel::oracle("heap_abs_call", Prop);
  }

  return std::nullopt;
}

HLResult &HeapAbstraction::abstractFunction(const simpl::SimplFunc &F,
                                            const monad::L2Result &L2,
                                            bool Lift) {
  support::Span Sp("heapabs.fn");
  Sp.arg("fn", F.Name);
  CurFn = F.Name;
  FreshCtr = 0; // Fresh names restart per function: schedule-independent.
  ValMemo.clear();
  HLResult Res;
  if (Lift) {
    std::optional<Thm> Th = stmt(L2.AppliedBody);
    if (Th) {
      Res.Lifted = true;
      Res.Corres = *Th;
      Res.AppliedBody = monad::simplifyMonadTerm(absOf(*Th));
      TermRef Def = Res.AppliedBody;
      for (size_t I = L2.ArgNames.size(); I-- > 0;)
        Def = lambdaFree(L2.ArgNames[I], L2.ArgTys[I], Def);
      Res.Def = Def;
      Ctx.installDef("hl:" + F.Name, Def);
    }
  }
  if (!Res.Lifted) {
    // Per-function fallback: stay at the byte level.
    Res.Def = L2.Def;
    Res.AppliedBody = L2.AppliedBody;
  }
  std::unique_lock<std::shared_mutex> L(ResultsM);
  return Results.emplace(F.Name, std::move(Res)).first->second;
}

void HeapAbstraction::seedCached(const std::string &Name, bool Lifted) {
  HLResult Res;
  Res.Lifted = Lifted;
  std::unique_lock<std::shared_mutex> L(ResultsM);
  Results.emplace(Name, std::move(Res));
}

//===----------------------------------------------------------------------===//
// Runtime semantics of lift_global_heap
//===----------------------------------------------------------------------===//

void ac::heapabs::installLiftSemantics(monad::InterpCtx &Ctx,
                                       const LiftedGlobals &LG) {
  LiftedGlobals Copy = LG;
  Ctx.LiftGlobalHeap = [Copy](const monad::Value &G,
                              monad::InterpCtx &C) {
    using monad::Value;
    assert(G.K == Value::Kind::Record && "lifting a non-record state");
    Value HeapV = G.Rec->at(simpl::heapFieldName());
    std::shared_ptr<monad::HeapVal> H = HeapV.Heap;
    std::map<std::string, Value> Fields;
    for (const TypeRef &T : Copy.HeapTypes) {
      monad::InterpCtx *CP = &C;
      auto Valid = [CP, H, T](const Value &P) {
        uint32_t A = P.addr();
        return Value::boolean(CP->typeTagValid(*H, A, T) &&
                              CP->ptrAligned(A, T) &&
                              CP->ptrRangeOk(A, T));
      };
      Fields.emplace(validFieldFor(T), Value::fun(Valid));
      Fields.emplace(heapFieldFor(T),
                     Value::fun([CP, H, T, Valid](const Value &P) {
                       if (Valid(P).B)
                         return CP->decode(*H, P.addr(), T);
                       return CP->defaultValue(T);
                     }));
    }
    for (const auto &[Name, Ty] : Copy.PlainGlobals) {
      (void)Ty;
      Fields.emplace(Name, G.Rec->at(Name));
    }
    return Value::record(liftedRecName(), std::move(Fields));
  };
}
