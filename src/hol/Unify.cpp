//===- Unify.cpp ----------------------------------------------------------===//

#include "hol/Unify.h"

#include <functional>

using namespace ac::hol;

//===----------------------------------------------------------------------===//
// Subst
//===----------------------------------------------------------------------===//

TypeRef Subst::applyTy(const TypeRef &T) const {
  if (!T || !T->hasVar())
    return T;
  if (T->isVar()) {
    auto It = TyMap.find(T->name());
    if (It == TyMap.end())
      return T;
    return applyTy(It->second);
  }
  std::vector<TypeRef> Args;
  bool Changed = false;
  Args.reserve(T->args().size());
  for (const TypeRef &A : T->args()) {
    TypeRef A2 = applyTy(A);
    Changed = Changed || A2.get() != A.get();
    Args.push_back(std::move(A2));
  }
  if (!Changed)
    return T;
  return Type::con(T->name(), std::move(Args));
}

static TermRef applyRaw(const Subst &S, const TermRef &T) {
  // A substitution can only touch schematic variables and type
  // variables; a term containing neither is fixed. The node flags make
  // this O(1), which stops the unifier re-walking ground subtrees.
  if (!T->hasSchematic() && !T->hasTyVar())
    return T;
  switch (T->kind()) {
  case Term::Kind::Const: {
    TypeRef Ty = S.applyTy(T->type());
    if (Ty.get() == T->type().get())
      return T;
    return Term::mkConst(T->name(), std::move(Ty));
  }
  case Term::Kind::Free: {
    TypeRef Ty = S.applyTy(T->type());
    if (Ty.get() == T->type().get())
      return T;
    return Term::mkFree(T->name(), std::move(Ty));
  }
  case Term::Kind::Num: {
    TypeRef Ty = S.applyTy(T->type());
    if (Ty.get() == T->type().get())
      return T;
    return Term::mkNum(T->value(), std::move(Ty));
  }
  case Term::Kind::Var: {
    if (const TermRef *B = S.lookup(T->name(), T->index()))
      return applyRaw(S, *B);
    TypeRef Ty = S.applyTy(T->type());
    if (Ty.get() == T->type().get())
      return T;
    return Term::mkVar(T->name(), T->index(), std::move(Ty));
  }
  case Term::Kind::Bound:
    return T;
  case Term::Kind::Lam: {
    TypeRef Ty = S.applyTy(T->type());
    TermRef B = applyRaw(S, T->body());
    if (Ty.get() == T->type().get() && B.get() == T->body().get())
      return T;
    return Term::mkLam(T->name(), std::move(Ty), std::move(B));
  }
  case Term::Kind::App: {
    TermRef F = applyRaw(S, T->fun());
    TermRef X = applyRaw(S, T->argTerm());
    if (F.get() == T->fun().get() && X.get() == T->argTerm().get())
      return T;
    return Term::mkApp(std::move(F), std::move(X));
  }
  }
  return T;
}

TermRef Subst::apply(const TermRef &T) const {
  if (empty() || (!T->hasSchematic() && !T->hasTyVar()))
    return betaNorm(T);
  return betaNorm(applyRaw(*this, T));
}

void Subst::bindTy(const std::string &Name, TypeRef T) {
  TyMap[Name] = std::move(T);
}
void Subst::bind(const std::string &Name, unsigned Index, TermRef T) {
  TmMap[{Name, Index}] = std::move(T);
}
const TermRef *Subst::lookup(const std::string &Name, unsigned Index) const {
  auto It = TmMap.find({Name, Index});
  return It == TmMap.end() ? nullptr : &It->second;
}

//===----------------------------------------------------------------------===//
// Type unification
//===----------------------------------------------------------------------===//

static bool occursTy(const std::string &Name, const TypeRef &T) {
  if (T->isVar())
    return T->name() == Name;
  for (const TypeRef &A : T->args())
    if (occursTy(Name, A))
      return true;
  return false;
}

bool ac::hol::unifyTypes(const TypeRef &A0, const TypeRef &B0, Subst &S) {
  TypeRef A = S.applyTy(A0);
  TypeRef B = S.applyTy(B0);
  if (typeEq(A, B))
    return true;
  if (A->isVar()) {
    if (occursTy(A->name(), B))
      return false;
    S.bindTy(A->name(), B);
    return true;
  }
  if (B->isVar()) {
    if (occursTy(B->name(), A))
      return false;
    S.bindTy(B->name(), A);
    return true;
  }
  if (A->name() != B->name() || A->args().size() != B->args().size())
    return false;
  for (size_t I = 0; I != A->args().size(); ++I)
    if (!unifyTypes(A->arg(I), B->arg(I), S))
      return false;
  return true;
}

//===----------------------------------------------------------------------===//
// Term unification
//===----------------------------------------------------------------------===//

static bool occursVar(const std::string &Name, unsigned Index,
                      const TermRef &T) {
  if (!T->hasSchematic())
    return false;
  switch (T->kind()) {
  case Term::Kind::Var:
    return T->name() == Name && T->index() == Index;
  case Term::Kind::Lam:
    return occursVar(Name, Index, T->body());
  case Term::Kind::App:
    return occursVar(Name, Index, T->fun()) ||
           occursVar(Name, Index, T->argTerm());
  default:
    return false;
  }
}

namespace {

/// Rewrites loose bound variables of \p T according to \p Perm (loose index
/// -> new lambda position from the inside). Returns nullptr on a loose
/// bound not covered by the pattern's arguments.
TermRef remapLoose(const TermRef &T, const std::map<unsigned, unsigned> &Perm,
                   unsigned Depth) {
  if (T->maxLoose() <= Depth)
    return T;
  switch (T->kind()) {
  case Term::Kind::Bound: {
    unsigned Loose = T->index() - Depth;
    auto It = Perm.find(Loose);
    if (It == Perm.end())
      return nullptr;
    return Term::mkBound(It->second + Depth);
  }
  case Term::Kind::Lam: {
    TermRef B = remapLoose(T->body(), Perm, Depth + 1);
    if (!B)
      return nullptr;
    return Term::mkLam(T->name(), T->type(), std::move(B));
  }
  case Term::Kind::App: {
    TermRef F = remapLoose(T->fun(), Perm, Depth);
    TermRef X = remapLoose(T->argTerm(), Perm, Depth);
    if (!F || !X)
      return nullptr;
    return Term::mkApp(std::move(F), std::move(X));
  }
  default:
    return T;
  }
}

/// If \p T is `?F b_{i1} .. b_{ik}` with distinct bound args, returns the
/// head Var and fills \p BoundArgs with the indices.
TermRef asPattern(const TermRef &T, std::vector<unsigned> &BoundArgs) {
  BoundArgs.clear();
  std::vector<TermRef> Args;
  TermRef Head = stripApp(T, Args);
  if (!Head->isVar())
    return nullptr;
  for (const TermRef &A : Args) {
    if (!A->isBound())
      return nullptr;
    for (unsigned Seen : BoundArgs)
      if (Seen == A->index())
        return nullptr;
    BoundArgs.push_back(A->index());
  }
  return Head;
}

bool unifyRec(const TermRef &A0, const TermRef &B0, Subst &S,
              bool RigidRight, unsigned Depth);

/// Attempts to solve `?F bs == T` by binding ?F.
bool bindPattern(const TermRef &Head, const std::vector<unsigned> &BoundArgs,
                 const TermRef &T, Subst &S) {
  if (occursVar(Head->name(), Head->index(), T))
    return termEq(S.apply(T), Head); // only trivial self-solutions
  std::map<unsigned, unsigned> Perm;
  unsigned K = BoundArgs.size();
  for (unsigned J = 0; J != K; ++J)
    Perm[BoundArgs[J]] = K - 1 - J;
  TermRef Body = K == 0 ? (T->maxLoose() == 0 ? T : nullptr)
                        : remapLoose(T, Perm, 0);
  if (!Body)
    return false;
  // Wrap K lambdas using the domains of the Var's (resolved) type.
  TypeRef HTy = S.applyTy(Head->type());
  std::vector<TypeRef> Doms;
  TypeRef Cur = HTy;
  for (unsigned J = 0; J != K; ++J) {
    if (!isFunTy(Cur))
      return false;
    Doms.push_back(domTy(Cur));
    Cur = ranTy(Cur);
  }
  TermRef Lam = Body;
  for (unsigned J = K; J-- > 0;)
    Lam = Term::mkLam("x" + std::to_string(J), Doms[J], std::move(Lam));
  S.bind(Head->name(), Head->index(), std::move(Lam));
  return true;
}

bool unifyRec(const TermRef &A0, const TermRef &B0, Subst &S,
              bool RigidRight, unsigned Depth) {
  if (Depth > 10000)
    return false;
  TermRef A = S.apply(A0);
  TermRef B = S.apply(B0);
  if (termEq(A, B))
    return true;

  std::vector<unsigned> ABounds, BBounds;
  TermRef AHead = asPattern(A, ABounds);
  TermRef BHead = asPattern(B, BBounds);

  // Flexible left side.
  if (AHead) {
    // Unify the result types first.
    if (B->maxLoose() == 0 && ABounds.empty()) {
      TypeRef BTy = typeOf(B);
      if (!unifyTypes(AHead->type(), BTy, S))
        return false;
      return bindPattern(AHead, ABounds, S.apply(B), S);
    }
    if (bindPattern(AHead, ABounds, B, S))
      return true;
    // Fall through to try the right side.
  }
  if (BHead && !RigidRight) {
    if (A->maxLoose() == 0 && BBounds.empty()) {
      TypeRef ATy = typeOf(A);
      if (!unifyTypes(BHead->type(), ATy, S))
        return false;
      return bindPattern(BHead, BBounds, S.apply(A), S);
    }
    if (bindPattern(BHead, BBounds, A, S))
      return true;
  }
  if (AHead || BHead)
    return false; // flex-flex or unsupported flex-rigid

  // Rigid-rigid decomposition.
  if (A->kind() != B->kind())
    return false;
  switch (A->kind()) {
  case Term::Kind::Const:
    return A->name() == B->name() && unifyTypes(A->type(), B->type(), S);
  case Term::Kind::Free:
    return A->name() == B->name() && unifyTypes(A->type(), B->type(), S);
  case Term::Kind::Bound:
    return A->index() == B->index();
  case Term::Kind::Num:
    return A->value() == B->value() &&
           unifyTypes(A->type(), B->type(), S);
  case Term::Kind::Lam:
    return unifyTypes(A->type(), B->type(), S) &&
           unifyRec(A->body(), B->body(), S, RigidRight, Depth + 1);
  case Term::Kind::App:
    return unifyRec(A->fun(), B->fun(), S, RigidRight, Depth + 1) &&
           unifyRec(A->argTerm(), B->argTerm(), S, RigidRight, Depth + 1);
  case Term::Kind::Var:
    return false; // handled above
  }
  return false;
}

} // namespace

bool ac::hol::unifyTerms(const TermRef &A, const TermRef &B, Subst &S,
                         bool RigidRight) {
  return unifyRec(A, B, S, RigidRight, 0);
}

std::optional<Subst> ac::hol::matchTerm(const TermRef &Pattern,
                                        const TermRef &T) {
  Subst S;
  if (unifyTerms(Pattern, T, S, /*RigidRight=*/true))
    return S;
  return std::nullopt;
}

//===----------------------------------------------------------------------===//
// Freshening
//===----------------------------------------------------------------------===//

static TypeRef freshenTy(const TypeRef &T, unsigned Offset) {
  if (!T->hasVar())
    return T;
  if (T->isVar())
    return Type::var(T->name() + "#" + std::to_string(Offset));
  std::vector<TypeRef> Args;
  for (const TypeRef &A : T->args())
    Args.push_back(freshenTy(A, Offset));
  return Type::con(T->name(), std::move(Args));
}

TermRef ac::hol::freshenSchematics(const TermRef &T, unsigned Offset) {
  // Nothing to rename below a ground subtree (and with interning the
  // identity rebuild would return this very node anyway).
  if (!T->hasSchematic() && !T->hasTyVar())
    return T;
  switch (T->kind()) {
  case Term::Kind::Const: {
    TypeRef Ty = freshenTy(T->type(), Offset);
    return Ty.get() == T->type().get() ? T : Term::mkConst(T->name(), Ty);
  }
  case Term::Kind::Free: {
    TypeRef Ty = freshenTy(T->type(), Offset);
    return Ty.get() == T->type().get() ? T : Term::mkFree(T->name(), Ty);
  }
  case Term::Kind::Num: {
    TypeRef Ty = freshenTy(T->type(), Offset);
    return Ty.get() == T->type().get() ? T : Term::mkNum(T->value(), Ty);
  }
  case Term::Kind::Var:
    return Term::mkVar(T->name(), T->index() + Offset,
                       freshenTy(T->type(), Offset));
  case Term::Kind::Bound:
    return T;
  case Term::Kind::Lam:
    return Term::mkLam(T->name(), freshenTy(T->type(), Offset),
                       freshenSchematics(T->body(), Offset));
  case Term::Kind::App:
    return Term::mkApp(freshenSchematics(T->fun(), Offset),
                       freshenSchematics(T->argTerm(), Offset));
  }
  return T;
}
