//===- Simp.cpp -----------------------------------------------------------===//

#include "hol/Simp.h"

#include "hol/GroundEval.h"
#include "hol/Names.h"
#include "support/FaultInject.h"

using namespace ac::hol;
namespace nm = ac::hol::names;

/// Chaos hook: randomly dropping memo entries (at lookup) or refusing
/// inserts must never change results, only timings (see Simpset doc).
static const ac::support::FaultSite FaultMemoEvict("simp.memo.evict");

Simpset::Simpset(const Simpset &O) {
  std::lock_guard<std::mutex> L(O.MemoM);
  Rules = O.Rules;
  Solvers = O.Solvers;
  NormalMemo = O.NormalMemo;
}

Simpset &Simpset::operator=(const Simpset &O) {
  if (this == &O)
    return *this;
  Simpset Tmp(O);
  std::lock_guard<std::mutex> L(MemoM);
  Rules = std::move(Tmp.Rules);
  Solvers = std::move(Tmp.Solvers);
  NormalMemo = std::move(Tmp.NormalMemo);
  return *this;
}

bool Simpset::memoNormal(const TermRef &T) const {
  std::lock_guard<std::mutex> L(MemoM);
  auto It = NormalMemo.find(T->id());
  if (It == NormalMemo.end())
    return false;
  if (FaultMemoEvict.fire()) {
    NormalMemo.erase(It);
    return false;
  }
  return true;
}

void Simpset::memoMarkNormal(const TermRef &T) const {
  std::lock_guard<std::mutex> L(MemoM);
  if (FaultMemoEvict.fire())
    return;
  NormalMemo.insert(T->id());
}

void Simpset::addRule(const Thm &T) {
  Rule R;
  R.Origin = T;
  TermRef Body;
  stripImps(T.prop(), R.Conds, Body);
  TermRef L, RT;
  if (destEq(Body, L, RT)) {
    R.Lhs = L;
    R.Rhs = RT;
  } else {
    R.Lhs = Body;
    R.Rhs = mkTrue();
    R.AsEqTrue = true;
  }
  // Match targets are always beta-normal (the rewriter normalizes as it
  // rebuilds, and the unifier normalizes on every substitution step), so
  // store the normalized lhs. A lhs the normalizer contracts to a
  // schematic head — e.g. `fst (?a, ?b)`, which betaNorm projects
  // straight to `?a` — is a root wildcard: it would "match" every term,
  // rewrite none of them (its rhs is the same projection), and its
  // vacuous matches would bump the event counter that gates the
  // normal-form memo at every single node. betaNorm itself already
  // performs the contraction such a rule describes, so skip it.
  R.Lhs = betaNorm(R.Lhs);
  TermRef Head = R.Lhs;
  while (Head->isApp())
    Head = Head->fun();
  if (Head->isVar())
    return;
  Rules.push_back(std::move(R));
  // Context changed: terms normal under the old rule set may now be
  // rewritable.
  std::lock_guard<std::mutex> MemoL(MemoM);
  NormalMemo.clear();
}

void Simpset::addSolver(CondSolver Solver) {
  Solvers.push_back(std::move(Solver));
  // Solvers discharge rule conditions, so a new solver can unlock
  // conditional rewrites; the memo only records unconditional normality,
  // but clearing keeps the invalidation story uniform and cheap.
  std::lock_guard<std::mutex> L(MemoM);
  NormalMemo.clear();
}

namespace {

class Rewriter {
public:
  Rewriter(const Simpset &SS, unsigned Budget) : SS(SS), Budget(Budget) {}

  /// |- T = result.
  SimpResult run(const TermRef &T) {
    TermRef Norm = betaNorm(T);
    Thm Eq = termEq(Norm, T) ? Kernel::refl(T) : Kernel::betaConv(T);
    SimpResult Inner = conv(Norm, /*Depth=*/0);
    return {Inner.Result, Kernel::trans(Eq, Inner.Eq)};
  }

  std::optional<Thm> prove(const TermRef &Goal, unsigned Depth) {
    if (Depth > 20)
      return std::nullopt;
    SimpResult R = run(Goal);
    if (R.Result->isConst(nm::True))
      return Kernel::eqTrueElim(R.Eq);
    if (std::optional<Thm> G = proveGround(R.Result))
      return Kernel::eqMp(Kernel::sym(R.Eq), *G);
    for (const CondSolver &Solver : SS.solvers())
      if (std::optional<Thm> T = Solver(R.Result))
        return Kernel::eqMp(Kernel::sym(R.Eq), *T);
    return std::nullopt;
  }

private:
  const Simpset &SS;
  unsigned Budget;
  /// Number of binders currently opened by enclosing convOnce frames.
  /// Fresh frees are named by this level ("s!0", "s!1", ...): two live
  /// opens are always at distinct levels, so no capture, and the name is
  /// a function of the term position alone — a memo hit that skips a
  /// sibling subtree cannot shift the names later opens pick (which a
  /// monotonic counter would, breaking byte-for-byte reproducibility
  /// under memo eviction).
  unsigned OpenLevel = 0;
  /// Bumped whenever something happened that makes the current subtree's
  /// result depend on more than the rule heads: a rule lhs matched (even
  /// if the rewrite was then rejected), ground evaluation applied, or the
  /// budget gate closed the rule loop. A conv round that ends with zero
  /// new events and an unchanged term has proved the term normal in a
  /// context-independent way — only those certificates enter the memo.
  uint64_t Events = 0;

  /// Fully simplifies a beta-normal term.
  SimpResult conv(const TermRef &T, unsigned Depth) {
    TermRef Cur = T;
    Thm Eq = Kernel::refl(T);
    for (unsigned Iter = 0; Iter != 100; ++Iter) {
      if (SS.memoNormal(Cur))
        return {Cur, Eq};
      uint64_t Before = Events;
      SimpResult Step = convOnce(Cur, Depth);
      if (termEq(Step.Result, Cur)) {
        if (Events == Before)
          SS.memoMarkNormal(Cur);
        return {Cur, Eq};
      }
      Eq = Kernel::trans(Eq, Step.Eq);
      Cur = Step.Result;
      if (Budget == 0)
        break;
    }
    return {Cur, Eq};
  }

  /// One pass: simplify children, then try one round of rules at the root.
  SimpResult convOnce(const TermRef &T, unsigned Depth) {
    TermRef Cur;
    Thm Eq;
    switch (T->kind()) {
    case Term::Kind::App: {
      SimpResult F = conv(T->fun(), Depth);
      SimpResult X = conv(T->argTerm(), Depth);
      Eq = Kernel::combination(F.Eq, X.Eq);
      Cur = betaNorm(Term::mkApp(F.Result, X.Result));
      break;
    }
    case Term::Kind::Lam: {
      std::string FreeName = "s!" + std::to_string(OpenLevel);
      TermRef Free = Term::mkFree(FreeName, T->type());
      TermRef Opened = betaNorm(substBound(T->body(), Free));
      ++OpenLevel;
      SimpResult B = conv(Opened, Depth);
      --OpenLevel;
      Eq = Kernel::abstract(FreeName, T->type(), B.Eq);
      TermRef L, R;
      bool IsEq = destEq(Eq.prop(), L, R);
      assert(IsEq && "abstract must produce an equality");
      (void)IsEq;
      assert(termEq(L, T) && "binder reconstruction mismatch");
      Cur = R;
      break;
    }
    default:
      Cur = T;
      Eq = Kernel::refl(T);
      break;
    }

    // Ground computation at this node.
    if (!Cur->isNum() && !Cur->isConst()) {
      if (std::optional<Thm> G = computeEq(Cur)) {
        ++Events;
        TermRef L, R;
        destEq(G->prop(), L, R);
        return {R, Kernel::trans(Eq, *G)};
      }
    }

    // Try each rule once at the root, in rule order.
    for (const Simpset::Rule &Rule : SS.rules()) {
      if (Budget == 0) {
        // Rules went untried; this proves nothing normal. Events only
        // decides what enters the memo, so counting one at a node that
        // no rule could match costs a memo entry, never a result.
        ++Events;
        break;
      }
      std::optional<Subst> M = matchTerm(Rule.Lhs, Cur);
      if (!M)
        continue;
      ++Events;
      TermRef Rhs = M->apply(Rule.Rhs);
      if (Rhs->hasSchematic() && !Cur->hasSchematic())
        continue; // under-determined instantiation
      if (termEq(Rhs, Cur))
        continue; // no progress
      // Discharge the conditions.
      std::vector<Thm> CondProofs;
      bool AllOk = true;
      for (const TermRef &C : Rule.Conds) {
        TermRef CInst = M->apply(C);
        if (CInst->hasSchematic()) {
          AllOk = false;
          break;
        }
        std::optional<Thm> P = prove(CInst, Depth + 1);
        if (!P) {
          AllOk = false;
          break;
        }
        CondProofs.push_back(*P);
      }
      if (!AllOk)
        continue;
      --Budget;
      Thm Inst = Kernel::instantiate(Rule.Origin, *M);
      for (const Thm &P : CondProofs)
        Inst = Kernel::mp(Inst, P);
      // Inst : |- lhsI = rhsI (or |- lhsI for AsEqTrue rules).
      Thm StepEq = Rule.AsEqTrue ? Kernel::eqTrueIntro(Inst) : Inst;
      TermRef L, R;
      bool IsEq = destEq(StepEq.prop(), L, R);
      assert(IsEq && "rewrite step must be an equality");
      (void)IsEq;
      assert(termEq(L, Cur) && "rewrite lhs mismatch");
      return {R, Kernel::trans(Eq, StepEq)};
    }
    return {Cur, Eq};
  }
};

} // namespace

SimpResult ac::hol::simplify(const Simpset &SS, const TermRef &T,
                             unsigned StepBudget) {
  Rewriter RW(SS, StepBudget);
  return RW.run(T);
}

std::optional<Thm> ac::hol::simpProve(const Simpset &SS, const TermRef &Goal,
                                      unsigned StepBudget) {
  Rewriter RW(SS, StepBudget);
  return RW.prove(Goal, 0);
}

//===----------------------------------------------------------------------===//
// Basic simpset
//===----------------------------------------------------------------------===//

namespace {

TypeRef tv(const char *N) { return Type::var(N); }
TermRef sv(const char *N, TypeRef Ty) {
  return Term::mkVar(N, 0, std::move(Ty));
}

void addBasicRules(Simpset &SS) {
  TypeRef V = tv("v");
  TermRef A = sv("a", V), B = sv("b", V);
  TermRef P = sv("p", boolTy()), Q = sv("q", boolTy());

  auto Ax = [&SS](const char *Name, TermRef Prop) {
    SS.addRule(Kernel::axiom(Name, std::move(Prop)));
  };

  // if-then-else.
  Ax("simp.if_True", mkEq(mkIte(mkTrue(), A, B), A));
  Ax("simp.if_False", mkEq(mkIte(mkFalse(), A, B), B));
  Ax("simp.if_same", mkEq(mkIte(P, A, A), A));

  // Conjunction / disjunction / negation / implication units.
  Ax("simp.conj_True_l", mkEq(mkConj(mkTrue(), P), P));
  Ax("simp.conj_True_r", mkEq(mkConj(P, mkTrue()), P));
  Ax("simp.conj_False_l", mkEq(mkConj(mkFalse(), P), mkFalse()));
  Ax("simp.conj_False_r", mkEq(mkConj(P, mkFalse()), mkFalse()));
  Ax("simp.disj_True_l", mkEq(mkDisj(mkTrue(), P), mkTrue()));
  Ax("simp.disj_True_r", mkEq(mkDisj(P, mkTrue()), mkTrue()));
  Ax("simp.disj_False_l", mkEq(mkDisj(mkFalse(), P), P));
  Ax("simp.disj_False_r", mkEq(mkDisj(P, mkFalse()), P));
  Ax("simp.not_True", mkEq(mkNot(mkTrue()), mkFalse()));
  Ax("simp.not_False", mkEq(mkNot(mkFalse()), mkTrue()));
  Ax("simp.not_not", mkEq(mkNot(mkNot(P)), P));
  Ax("simp.imp_True_l", mkEq(mkImp(mkTrue(), P), P));
  Ax("simp.imp_True_r", mkEq(mkImp(P, mkTrue()), mkTrue()));
  Ax("simp.imp_False_l", mkEq(mkImp(mkFalse(), P), mkTrue()));
  Ax("simp.conj_dup", mkEq(mkConj(P, P), P));
  Ax("simp.eq_refl", mkEq(mkEq(A, A), mkTrue()));
  Ax("simp.eq_True_iff", mkEq(mkEq(P, mkTrue()), P));

  // Pairs.
  Ax("simp.fst_pair", mkEq(mkFst(mkPair(A, B)), A));
  Ax("simp.snd_pair", mkEq(mkSnd(mkPair(A, B)), B));
  {
    TypeRef TA = tv("a"), TB = tv("b"), TC = tv("c");
    TermRef F = sv("f", funTys({TA, TB}, TC));
    TermRef X = sv("x", TA), Y = sv("y", TB);
    Ax("simp.case_prod",
       mkEq(mkCaseProd(F, mkPair(X, Y)), mkApps(F, {X, Y})));
  }

  // Options.
  {
    TypeRef TA = tv("a");
    TermRef X = sv("x", TA), Y = sv("y", TA);
    Ax("simp.the_Some", mkEq(mkThe(mkSome(X)), X));
    Ax("simp.Some_eq", mkEq(mkEq(mkSome(X), mkSome(Y)), mkEq(X, Y)));
    Ax("simp.Some_ne_None", mkEq(mkEq(mkSome(X), mkNone(TA)), mkFalse()));
    Ax("simp.None_ne_Some", mkEq(mkEq(mkNone(TA), mkSome(X)), mkFalse()));
  }

  // Function update: (f(x := v)) y = (if y = x then v else f y).
  {
    TypeRef TA = tv("a"), TB = tv("b");
    TermRef F = sv("f", funTy(TA, TB));
    TermRef X = sv("x", TA), Y = sv("y", TA), Vv = sv("v", TB);
    TermRef FunUpd = Term::mkConst(
        "fun_upd", funTys({funTy(TA, TB), TA, TB}, funTy(TA, TB)));
    TermRef Lhs = Term::mkApp(mkApps(FunUpd, {F, X, Vv}), Y);
    TermRef Rhs = mkIte(mkEq(Y, X), Vv, Term::mkApp(F, Y));
    Ax("simp.fun_upd_apply", mkEq(Lhs, Rhs));
  }
  (void)Q;
}

} // namespace

const Simpset &ac::hol::basicSimpset() {
  static Simpset *SS = [] {
    auto *S = new Simpset();
    addBasicRules(*S);
    return S;
  }();
  return *SS;
}
