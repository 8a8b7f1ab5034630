//===- Unify.cpp ----------------------------------------------------------===//

#include "hol/Unify.h"

#include "hol/Generation.h"

#include <algorithm>
#include <functional>
#include <unordered_set>

using namespace ac::hol;

//===----------------------------------------------------------------------===//
// Subst
//===----------------------------------------------------------------------===//

TypeRef Subst::applyTy(const TypeRef &T) const {
  if (!T || !T->hasVar())
    return T;
  if (T->isVar()) {
    const TypeRef *B = lookupTy(T->name());
    return B ? applyTy(*B) : T;
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

// A substitution can only touch schematic variables and type variables;
// the node flags tell in O(1) which subtrees hold neither, so both passes
// below stop there instead of re-walking ground subtrees.

/// The type pass: \p T with every type resolved, schematics untouched.
static TermRef instTypes(const Subst &S, const TermRef &T) {
  if (!T->hasTyVar())
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
    TypeRef Ty = S.applyTy(T->type());
    if (Ty.get() == T->type().get())
      return T;
    return Term::mkVar(T->name(), T->index(), std::move(Ty));
  }
  case Term::Kind::Bound:
    return T;
  case Term::Kind::Lam: {
    TypeRef Ty = S.applyTy(T->type());
    TermRef B = instTypes(S, T->body());
    if (Ty.get() == T->type().get() && B.get() == T->body().get())
      return T;
    return Term::mkLam(T->name(), std::move(Ty), std::move(B));
  }
  case Term::Kind::App: {
    TermRef F = instTypes(S, T->fun());
    TermRef X = instTypes(S, T->argTerm());
    if (F.get() == T->fun().get() && X.get() == T->argTerm().get())
      return T;
    return Term::mkApp(std::move(F), std::move(X));
  }
  }
  return T;
}

/// The term pass over a term whose types are resolved: each bound
/// schematic becomes its binding, instantiated in turn (a binding is not
/// memoised: it is whatever term the caller matched), and the result is
/// betaNorm of the substituted term. Only the paths to schematics are
/// rebuilt, once: a redex that a binding forms is contracted where it
/// forms, so neither the redex nor a second walk down to it is built.
static TermRef instTerms(const Subst &S, const TermRef &T) {
  if (!T->hasSchematic())
    return betaNorm(T);
  switch (T->kind()) {
  case Term::Kind::Var:
    if (const TermRef *B = S.lookup(T->name(), T->index()))
      return instTerms(S, instTypes(S, *B));
    return T;
  case Term::Kind::Lam: {
    TermRef B = instTerms(S, T->body());
    if (B.get() == T->body().get())
      return T;
    return Term::mkLam(T->name(), T->type(), std::move(B));
  }
  case Term::Kind::App: {
    TermRef F = instTerms(S, T->fun());
    TermRef X = instTerms(S, T->argTerm());
    if (F->isLam())
      return betaNorm(substBound(F->body(), X));
    TermRef R = F.get() == T->fun().get() && X.get() == T->argTerm().get()
                    ? T
                    : Term::mkApp(std::move(F), std::move(X));
    // Both sides are normal; only a projection redex can remain.
    return R->isBetaNormal() ? R : betaNorm(R);
  }
  default:
    return T;
  }
}

TermRef Subst::apply(const TermRef &T) const {
  if (empty() || (!T->hasSchematic() && !T->hasTyVar()))
    return betaNorm(T);
  TermRef Typed = TyBinds.empty() || !T->hasTyVar()
                      ? T
                      : TypeInstances::current().get(*this, T);
  return instTerms(*this, Typed);
}

//===----------------------------------------------------------------------===//
// TypeInstances
//===----------------------------------------------------------------------===//

static void collectTyVars(const Type *Ty, std::vector<const Type *> &Vars) {
  if (!Ty->hasVar())
    return;
  if (!Ty->isVar()) {
    for (const TypeRef &A : Ty->args())
      collectTyVars(A.get(), Vars);
    return;
  }
  for (const Type *V : Vars)
    if (V == Ty)
      return;
  Vars.push_back(Ty);
}

static void collectTyVars(const TermRef &T, std::vector<const Type *> &Vars,
                          std::unordered_set<uint64_t> &Seen) {
  if (!T->hasTyVar() || !Seen.insert(T->id()).second)
    return;
  switch (T->kind()) {
  case Term::Kind::Lam:
    collectTyVars(T->type().get(), Vars);
    collectTyVars(T->body(), Vars, Seen);
    return;
  case Term::Kind::App:
    collectTyVars(T->fun(), Vars, Seen);
    collectTyVars(T->argTerm(), Vars, Seen);
    return;
  case Term::Kind::Bound:
    return;
  default:
    collectTyVars(T->type().get(), Vars);
    return;
  }
}

TypeInstances &TypeInstances::current() {
  if (Generation *G = Generation::current())
    return G->typeInstances();
  // Leaked like the base term store, whose nodes it holds.
  static auto *Base = new TypeInstances();
  return *Base;
}

size_t TypeInstances::KeyHash::operator()(const std::vector<uint64_t> &K) const {
  size_t H = 0;
  for (uint64_t Id : K)
    H = H * 1000003 ^ std::hash<uint64_t>()(Id);
  return H;
}

TermRef TypeInstances::get(const Subst &S, const TermRef &T) {
  std::vector<uint64_t> Key;
  {
    std::lock_guard<std::mutex> L(M);
    auto [It, Fresh] = Vars.try_emplace(T->id());
    if (Fresh) {
      std::unordered_set<uint64_t> Seen;
      collectTyVars(T, It->second, Seen);
    }
    Key.reserve(1 + It->second.size());
    Key.push_back(T->id());
    bool Moved = false;
    for (const Type *V : It->second) {
      Key.push_back(S.applyTy(TypeRef(TypeRef(), V))->id());
      Moved = Moved || Key.back() != V->id();
    }
    if (!Moved)
      return T;
    auto Hit = Instances.find(Key);
    if (Hit != Instances.end())
      return TermRef(TermRef(), Hit->second);
  }
  TermRef Typed = instTypes(S, T);
  std::lock_guard<std::mutex> L(M);
  // A thread of the same generation may have stored it meanwhile; the
  // interner gave both the same node.
  Instances.emplace(std::move(Key), Typed.get());
  return Typed;
}

const TypeRef *Subst::lookupTy(const std::string &Name) const {
  for (const TyBinding &B : TyBinds)
    if (B.first == Name)
      return &B.second;
  return nullptr;
}

void Subst::bindTy(const std::string &Name, TypeRef T) {
  auto It = std::lower_bound(
      TyBinds.begin(), TyBinds.end(), Name,
      [](const TyBinding &B, const std::string &N) { return B.first < N; });
  if (It != TyBinds.end() && It->first == Name)
    It->second = std::move(T);
  else
    TyBinds.emplace(It, Name, std::move(T));
}

void Subst::bind(const std::string &Name, unsigned Index, TermRef T) {
  std::pair<std::string, unsigned> Key(Name, Index);
  auto It = std::lower_bound(
      TmBinds.begin(), TmBinds.end(), Key,
      [](const TmBinding &B, const std::pair<std::string, unsigned> &K) {
        return B.first < K;
      });
  if (It != TmBinds.end() && It->first == Key)
    It->second = std::move(T);
  else
    TmBinds.emplace(It, std::move(Key), std::move(T));
}

const TermRef *Subst::lookup(const std::string &Name, unsigned Index) const {
  for (const TmBinding &B : TmBinds)
    if (B.first.second == Index && B.first.first == Name)
      return &B.second;
  return nullptr;
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
