//===- Peephole.cpp -------------------------------------------------------===//

#include "monad/Peephole.h"

#include "support/Trace.h"

#include "hol/Names.h"

#include <string_view>
#include <unordered_set>
#include <vector>

using namespace ac;
using namespace ac::monad;
using namespace ac::hol;
namespace nm = ac::hol::names;

namespace {

/// A value cheap enough to inline at every use site.
bool isCheapValue(const TermRef &T) {
  switch (T->kind()) {
  case Term::Kind::Free:
  case Term::Kind::Num:
  case Term::Kind::Const:
  case Term::Kind::Bound:
    return true;
  case Term::Kind::App: {
    std::vector<TermRef> Args;
    TermRef Cpy = T;
    TermRef Head = stripApp(Cpy, Args);
    if (!Head->isConst())
      return false;
    const std::string &N = Head->name();
    if ((N == nm::Fst || N == nm::Snd) && Args.size() == 1)
      return isCheapValue(Args[0]);
    if (N == nm::PairC && Args.size() == 2)
      return isCheapValue(Args[0]) && isCheapValue(Args[1]);
    return false;
  }
  default:
    return false;
  }
}

/// Number of references to Bound \p Idx in \p T.
unsigned usesOfBound(const TermRef &T, unsigned Idx) {
  switch (T->kind()) {
  case Term::Kind::Bound:
    return T->index() == Idx ? 1 : 0;
  case Term::Kind::App:
    return usesOfBound(T->fun(), Idx) + usesOfBound(T->argTerm(), Idx);
  case Term::Kind::Lam:
    return usesOfBound(T->body(), Idx + 1);
  default:
    return 0;
  }
}

/// Monadic heads that can never raise an exception or fail in a way that
/// the catch handler would see differently.
bool isNothrowHead(const TermRef &T) {
  std::vector<TermRef> Args;
  TermRef Head = stripApp(T, Args);
  if (!Head->isConst())
    return false;
  const std::string &N = Head->name();
  if (N == nm::Gets || N == nm::Modify || N == nm::Guard ||
      N == nm::Return || N == nm::Skip || N == nm::Get || N == nm::Put)
    return true;
  // Lifted function constants never throw: the L2 converter catches all
  // abrupt exits at the function boundary, and the HL/WA phases preserve
  // that. (L1 constants are excluded — returns are still encoded as
  // throws at that level.)
  return N.rfind("l2:", 0) == 0 || N.rfind("hl:", 0) == 0 ||
         N.rfind("wa:", 0) == 0;
}

/// Conservative proof that a monadic term never raises an exception
/// (used to push catch inside binds / drop it entirely).
bool neverThrows(const TermRef &T) {
  std::vector<TermRef> Args;
  TermRef Head = stripApp(T, Args);
  if (Head->isLam())
    return Args.empty() && neverThrows(Head->body());
  if (!Head->isConst())
    return false;
  const std::string &N = Head->name();
  if (N == nm::Gets || N == nm::Modify || N == nm::Guard ||
      N == nm::Return || N == nm::Skip || N == nm::Get || N == nm::Put ||
      N == nm::Fail)
    return true;
  if (N == nm::Bind && Args.size() == 2)
    return neverThrows(Args[0]) &&
           (Args[1]->isLam() ? neverThrows(Args[1]->body()) : false);
  if (N == nm::Condition && Args.size() == 3)
    return neverThrows(Args[1]) && neverThrows(Args[2]);
  if (N == nm::WhileLoop && Args.size() == 3) {
    const TermRef &B = Args[1];
    return B->isLam() && neverThrows(B->body());
  }
  if (N == nm::Catch && Args.size() == 2)
    return Args[1]->isLam() && neverThrows(Args[1]->body());
  return isNothrowHead(T);
}

/// A term stripped once: its head, its arguments, and the head's name
/// (empty unless the head is a constant). Names live in the immortal
/// name pool, so the view stays valid.
struct Spine {
  std::vector<TermRef> Args;
  TermRef Head;
  std::string_view Name;

  explicit Spine(const TermRef &T) : Head(stripApp(T, Args)) {
    if (Head->isConst())
      Name = Head->name();
  }
  /// `Name a1 .. aN` exactly.
  bool is(const char *N, size_t Arity) const {
    return Args.size() == Arity && Name == N;
  }
};

class Peephole {
public:
  explicit Peephole(unsigned Budget) : Budget(Budget) {}

  TermRef run(const TermRef &T) { return simp(T); }

private:
  unsigned Budget;
  /// Ids of nodes known to be in normal form: simplifying one fires no
  /// rule and spends no budget, so it returns at once. Ids are never
  /// reused, and every node lives for the whole call.
  std::unordered_set<uint64_t> Normal;
  /// Loops that ended at the 100-step cap or on an empty budget; a
  /// result is normal only if none ended so while it was built.
  unsigned Stops = 0;

  TermRef simp(const TermRef &T) {
    // A leaf has no children, and no rule matches it.
    if (!T->isApp() && !T->isLam())
      return T;
    if (Normal.count(T->id()))
      return T;
    unsigned StopsBefore = Stops;
    TermRef Cur = simpChildren(T);
    for (unsigned I = 0; I != 100 && Budget != 0; ++I) {
      TermRef Next = rules(Cur);
      if (Next.get() == Cur.get()) {
        if (Stops == StopsBefore)
          Normal.insert(Cur->id());
        return Cur;
      }
      --Budget;
      Cur = simpChildren(Next);
    }
    ++Stops;
    return Cur;
  }

  TermRef simpChildren(const TermRef &T) {
    switch (T->kind()) {
    case Term::Kind::App: {
      TermRef F = simp(T->fun());
      TermRef X = simp(T->argTerm());
      if (F.get() == T->fun().get() && X.get() == T->argTerm().get())
        return T;
      return Term::mkApp(std::move(F), std::move(X));
    }
    case Term::Kind::Lam: {
      TermRef B = simp(T->body());
      if (B.get() == T->body().get())
        return T;
      return Term::mkLam(T->name(), T->type(), std::move(B));
    }
    default:
      return T;
    }
  }

  /// Result monad type of a bind/catch constant (the range of its range).
  static TypeRef resultMonadTy(const TermRef &HeadConst) {
    return ranTy(ranTy(HeadConst->type()));
  }

  /// One rewrite step at the root of \p T, or T itself. The spine is
  /// stripped once and dispatched on its head's name.
  TermRef rules(const TermRef &T) {
    if (!T->isApp())
      return T;
    Spine S(T);
    if (S.is(nm::Bind, 2))
      return bindRules(T, S);
    if (S.is(nm::Catch, 2))
      return catchRules(T, S);
    if (S.is(nm::Guard, 1))
      return guardRules(T, S);
    if (S.is(nm::Condition, 3))
      return conditionRules(T, S);
    return T;
  }

  TermRef bindRules(const TermRef &T, const Spine &S) {
    const TermRef &BindHead = S.Head;
    const TermRef &M = S.Args[0];
    const TermRef &F = S.Args[1];
    TypeRef ResTy = resultMonadTy(BindHead);
    Spine MS(M);

    // bind (return x) f  ==>  f x — but only when inlining x cannot
    // blow the term up (cheap value or single use).
    if (MS.is(nm::Return, 1)) {
      bool SingleUse = F->isLam() && usesOfBound(F->body(), 0) <= 1;
      if (isCheapValue(MS.Args[0]) || SingleUse)
        return betaNorm(Term::mkApp(F, MS.Args[0]));
    }
    // bind skip f  ==>  f ()
    if (MS.is(nm::Skip, 0))
      return betaNorm(Term::mkApp(F, mkUnit()));
    // bind (guard (%_. True)) f  ==>  f ()
    if (MS.is(nm::Guard, 1) && MS.Args[0]->isLam() &&
        MS.Args[0]->body()->isConst(nm::True))
      return betaNorm(Term::mkApp(F, mkUnit()));
    // bind (throw e) f  ==>  throw e (at the result type)
    if (MS.is(nm::Throw, 1)) {
      TermRef NewThrow = Term::mkConst(
          nm::Throw, funTy(domTy(MS.Head->type()), ResTy));
      return Term::mkApp(NewThrow, MS.Args[0]);
    }
    // bind fail f  ==>  fail
    if (MS.is(nm::Fail, 0))
      return Term::mkConst(nm::Fail, ResTy);
    if (F->isLam()) {
      Spine FB(F->body());
      // bind m (%v. return v)  ==>  m
      if (FB.is(nm::Return, 1) && FB.Args[0]->isBound() &&
          FB.Args[0]->index() == 0)
        return M;
      // Adjacent identical guards: guard P; guard P; K  ==>  guard P; K
      if (MS.is(nm::Guard, 1) && FB.is(nm::Bind, 2)) {
        Spine GB(FB.Args[0]);
        if (GB.is(nm::Guard, 1) && GB.Args[0]->maxLoose() == 0 &&
            termEq(MS.Args[0], GB.Args[0]) && FB.Args[1]->isLam()) {
          // Drop the inner guard; both unit binders are unused.
          TermRef InnerBody = substBound(
              FB.Args[1]->body(), Term::mkConst(nm::Unity, unitTy()));
          TermRef NewF = Term::mkLam(F->name(), F->type(), InnerBody);
          TermRef BindC2 = Term::mkConst(
              nm::Bind, funTys({domTy(BindHead->type()),
                                funTy(F->type(), ResTy)},
                               ResTy));
          return mkApps(BindC2, {M, NewF});
        }
      }
    }
    // bind (bind m g) f  ==>  bind m (%v. bind (g v) f)
    if (MS.is(nm::Bind, 2) && MS.Args[1]->isLam()) {
      const TermRef &InnerHead = MS.Head;
      const TermRef &M0 = MS.Args[0];
      const TermRef &G = MS.Args[1];
      // All types come from the two bind constants (subterms may be
      // open, so typeOf is not available here).
      TypeRef M0Ty = domTy(InnerHead->type());
      TypeRef GTy = domTy(ranTy(InnerHead->type()));
      TypeRef FTy = domTy(ranTy(BindHead->type()));
      TypeRef VTy = G->type();
      TermRef GV =
          betaNorm(Term::mkApp(liftLoose(G, 1), Term::mkBound(0)));
      TermRef NewInner =
          Term::mkConst(nm::Bind, funTys({ranTy(GTy), FTy}, ResTy));
      TermRef Body = mkApps(NewInner, {GV, liftLoose(F, 1)});
      TermRef NewF = Term::mkLam(G->name(), VTy, Body);
      TermRef NewOuter = Term::mkConst(
          nm::Bind, funTys({M0Ty, funTy(VTy, ResTy)}, ResTy));
      return mkApps(NewOuter, {M0, NewF});
    }
    // bind (condition c X Y) f  ==>  condition c (bind X f) (bind Y f)
    // (bounded duplication of f)
    if (MS.is(nm::Condition, 3)) {
      const std::vector<TermRef> &CA = MS.Args;
      const TermRef &CondHead = MS.Head;
      // Only push the continuation into the branches when both are
      // trivial (return/throw) AND the continuation is small: that
      // collapses the max-style pattern without duplicating real code.
      std::string_view X = Spine(CA[1]).Name, Y = Spine(CA[2]).Name;
      bool BranchesTrivial = (X == nm::Throw || X == nm::Return) &&
                             (Y == nm::Throw || Y == nm::Return);
      if (BranchesTrivial && F->size() <= 24) {
        TypeRef BranchTy = domTy(ranTy(CondHead->type()));
        TypeRef FTy = domTy(ranTy(BindHead->type()));
        TermRef BindC =
            Term::mkConst(nm::Bind, funTys({BranchTy, FTy}, ResTy));
        TermRef NewX = mkApps(BindC, {CA[1], F});
        TermRef NewY = mkApps(BindC, {CA[2], F});
        TermRef CondC = Term::mkConst(
            nm::Condition,
            funTys({domTy(CondHead->type()), ResTy, ResTy}, ResTy));
        return mkApps(CondC, {CA[0], NewX, NewY});
      }
    }
    return T;
  }

  TermRef catchRules(const TermRef &T, const Spine &S) {
    const TermRef &CatchHead = S.Head;
    const TermRef &M = S.Args[0];
    const TermRef &H = S.Args[1];
    TypeRef ResTy = resultMonadTy(CatchHead);
    Spine MS(M);

    // catch (return x) h  ==>  return x
    if (MS.is(nm::Return, 1)) {
      TermRef RetC = Term::mkConst(
          nm::Return, funTy(domTy(MS.Head->type()), ResTy));
      return Term::mkApp(RetC, MS.Args[0]);
    }
    // catch (throw e) h  ==>  h e
    if (MS.is(nm::Throw, 1))
      return betaNorm(Term::mkApp(H, MS.Args[0]));
    // catch fail h  ==>  fail
    if (MS.is(nm::Fail, 0))
      return Term::mkConst(nm::Fail, ResTy);
    // catch m (%e. throw e)  ==>  m  (only at unchanged exception type)
    if (H->isLam() && typeEq(domTy(CatchHead->type()), ResTy)) {
      Spine HB(H->body());
      if (HB.is(nm::Throw, 1) && HB.Args[0]->isBound() &&
          HB.Args[0]->index() == 0)
        return M;
    }
    // catch m h  ==>  m, when m never throws (type permitting).
    if (neverThrows(M) && typeEq(domTy(CatchHead->type()), ResTy))
      return M;
    // catch (bind NT g) h  ==>  bind NT (%v. catch (g v) h)
    if (MS.is(nm::Bind, 2) && MS.Args[1]->isLam() &&
        (isNothrowHead(MS.Args[0]) || neverThrows(MS.Args[0]))) {
      const TermRef &IBHead = MS.Head;
      const TermRef &NT = MS.Args[0];
      const TermRef &G = MS.Args[1];
      TypeRef HTy = domTy(ranTy(CatchHead->type()));
      TypeRef NTTy = domTy(IBHead->type());
      TypeRef GTy = domTy(ranTy(IBHead->type()));
      TermRef GV =
          betaNorm(Term::mkApp(liftLoose(G, 1), Term::mkBound(0)));
      TermRef NewCatch =
          Term::mkConst(nm::Catch, funTys({ranTy(GTy), HTy}, ResTy));
      TermRef Body = mkApps(NewCatch, {GV, liftLoose(H, 1)});
      TermRef NewG = Term::mkLam(G->name(), G->type(), Body);
      TermRef BindC = Term::mkConst(
          nm::Bind, funTys({NTTy, funTy(G->type(), ResTy)}, ResTy));
      return mkApps(BindC, {NT, NewG});
    }
    // catch (condition c X Y) h  ==>  condition c (catch X h) (catch Y h)
    if (MS.is(nm::Condition, 3)) {
      const std::vector<TermRef> &CA = MS.Args;
      const TermRef &CondHead = MS.Head;
      TypeRef HTy = domTy(ranTy(CatchHead->type()));
      TypeRef BranchTy = domTy(ranTy(CondHead->type()));
      TermRef CatchC =
          Term::mkConst(nm::Catch, funTys({BranchTy, HTy}, ResTy));
      TermRef X = mkApps(CatchC, {CA[1], H});
      TermRef Y = mkApps(CatchC, {CA[2], H});
      TermRef CondC = Term::mkConst(
          nm::Condition,
          funTys({domTy(CondHead->type()), ResTy, ResTy}, ResTy));
      return mkApps(CondC, {CA[0], X, Y});
    }
    return T;
  }

  /// Guard body cleanup: True conjuncts inside guard lambdas.
  TermRef guardRules(const TermRef &T, const Spine &S) {
    const TermRef &P = S.Args[0];
    TermRef L, R;
    if (!P->isLam() || !destConj(P->body(), L, R))
      return T;
    TermRef NewBody;
    if (L->isConst(nm::True))
      NewBody = R;
    else if (R->isConst(nm::True))
      NewBody = L;
    if (!NewBody)
      return T;
    return Term::mkApp(S.Head, Term::mkLam(P->name(), P->type(), NewBody));
  }

  TermRef conditionRules(const TermRef &T, const Spine &S) {
    const std::vector<TermRef> &A = S.Args;
    const TermRef &C = A[0];
    // condition c X X ==> X
    if (termEq(A[1], A[2]))
      return A[1];
    if (C->isLam() && C->body()->maxLoose() == 0) {
      // Fully pure conditional of returns: return (if c then x else y).
      Spine XS(A[1]);
      if (XS.is(nm::Return, 1)) {
        Spine YS(A[2]);
        if (YS.is(nm::Return, 1)) {
          TermRef CondBody =
              substBound(C->body(), Term::mkFree("_", C->type()));
          return Term::mkApp(XS.Head, mkIte(CondBody, XS.Args[0], YS.Args[0]));
        }
      }
      // condition with literal condition.
      if (C->body()->isConst(nm::True))
        return A[1];
      if (C->body()->isConst(nm::False))
        return A[2];
    }
    return T;
  }
};

//===----------------------------------------------------------------------===//
// Guard-run deduplication
//===----------------------------------------------------------------------===//
//
// Along a bind spine, a guard whose conjuncts have all been established by
// earlier guards is redundant. The "seen" set survives state-preserving
// steps (gets/return/skip) and - the split-heap design point of Sec 4.4 -
// data-only heap updates (`heap_T_update`), which cannot change validity.

void conjuncts(const TermRef &T, std::vector<TermRef> &Out) {
  TermRef A, B;
  if (destConj(T, A, B)) {
    conjuncts(A, Out);
    conjuncts(B, Out);
    return;
  }
  Out.push_back(T);
}

bool seenHas(const std::vector<TermRef> &Seen, const TermRef &T) {
  for (const TermRef &S : Seen)
    if (termEq(S, T))
      return true;
  return false;
}

/// True if a modify function only updates heap_* data fields of the
/// lifted state (validity-preserving).
bool isDataOnlyModify(const TermRef &Fn) {
  if (!Fn->isLam())
    return false;
  std::vector<TermRef> Args;
  TermRef Head = stripApp(Fn->body(), Args);
  return Head->isConst() && Args.size() == 2 &&
         Head->name().rfind("upd:lifted_globals.heap_", 0) == 0 &&
         Args[1]->isBound() && Args[1]->index() == 0;
}

/// True if every use of the state variable (loose Bound \p Depth) in \p T
/// is a field read a data-only heap update cannot change: validity fields
/// and plain globals, but not heap_* data fields. Only such conjuncts may
/// stay in the "seen" set across a data-only modify — an arithmetic guard
/// over heap reads is clobbered by the very write it guards.
bool dataUpdateImmune(const TermRef &T, unsigned Depth) {
  switch (T->kind()) {
  case Term::Kind::Bound:
    return T->index() != Depth;
  case Term::Kind::Lam:
    return dataUpdateImmune(T->body(), Depth + 1);
  case Term::Kind::App: {
    const TermRef &F = T->fun();
    const TermRef &X = T->argTerm();
    if (F->isConst() && X->isBound() && X->index() == Depth) {
      const std::string &N = F->name();
      if (N.rfind("fld:lifted_globals.", 0) == 0 &&
          N.rfind("fld:lifted_globals.heap_", 0) != 0)
        return true;
    }
    return dataUpdateImmune(F, Depth) && dataUpdateImmune(X, Depth);
  }
  default:
    return true;
  }
}

TermRef dedupSpine(const TermRef &T, std::vector<TermRef> Seen);

/// \p F with body \p B: F itself when the body did not change.
TermRef withBody(const TermRef &F, TermRef B) {
  if (B.get() == F->body().get())
    return F;
  return Term::mkLam(F->name(), F->type(), std::move(B));
}

/// The bind \p T (stripped as \p S) over \p M and \p F: T itself when
/// neither changed.
TermRef rebind(const TermRef &T, const Spine &S, TermRef M, TermRef F) {
  if (M.get() == S.Args[0].get() && F.get() == S.Args[1].get())
    return T;
  return mkApps(S.Head, {std::move(M), std::move(F)});
}

TermRef dedupChildren(const TermRef &T) {
  switch (T->kind()) {
  case Term::Kind::App: {
    TermRef F = dedupChildren(T->fun());
    TermRef X = dedupSpine(T->argTerm(), {});
    if (F.get() == T->fun().get() && X.get() == T->argTerm().get())
      return T;
    return Term::mkApp(std::move(F), std::move(X));
  }
  case Term::Kind::Lam:
    return withBody(T, dedupSpine(T->body(), {}));
  default:
    return T;
  }
}

TermRef dedupSpine(const TermRef &T, std::vector<TermRef> Seen) {
  Spine S(T);
  if (!S.is(nm::Bind, 2) || !S.Args[1]->isLam())
    return dedupChildren(T);
  const TermRef &M = S.Args[0];
  const TermRef &F = S.Args[1];
  Spine MS(M);

  if (MS.is(nm::Guard, 1) && MS.Args[0]->isLam() &&
      MS.Args[0]->body()->maxLoose() <= 1) {
    std::vector<TermRef> Cs;
    conjuncts(MS.Args[0]->body(), Cs);
    bool AllSeen = true;
    for (const TermRef &C : Cs)
      if (!seenHas(Seen, C)) {
        AllSeen = false;
        break;
      }
    if (AllSeen) {
      // Redundant guard: drop it (the unit binder is unused).
      TermRef Rest =
          substBound(F->body(), Term::mkConst(nm::Unity, unitTy()));
      return dedupSpine(Rest, std::move(Seen));
    }
    for (const TermRef &C : Cs)
      if (!seenHas(Seen, C))
        Seen.push_back(C);
    return rebind(T, S, M,
                  withBody(F, dedupSpine(F->body(), std::move(Seen))));
  }

  // Decide whether the step preserves the guard knowledge.
  bool Preserves = false;
  if (MS.is(nm::Gets, 1) || MS.is(nm::Return, 1) || MS.is(nm::Skip, 0))
    Preserves = true;
  else if (MS.is(nm::Modify, 1) && isDataOnlyModify(MS.Args[0])) {
    // The write changes heap data: drop conjuncts that read it, keep
    // validity facts and plain globals (the Sec 4.4 design point).
    std::vector<TermRef> Kept;
    for (const TermRef &C : Seen)
      if (dataUpdateImmune(C, 0))
        Kept.push_back(C);
    Seen = std::move(Kept);
    Preserves = true;
  }
  if (!Preserves)
    Seen.clear();
  TermRef NewM = dedupChildren(M);
  return rebind(T, S, std::move(NewM),
                withBody(F, dedupSpine(F->body(), std::move(Seen))));
}

} // namespace

TermRef ac::monad::simplifyMonadTerm(const TermRef &T, unsigned Budget) {
  AC_SPAN("monad.peephole");
  Peephole P(Budget);
  return dedupSpine(P.run(T), {});
}
