//===- Type.cpp -----------------------------------------------------------===//

#include "hol/Type.h"

#include "hol/Intern.h"

#include <functional>
#include <sstream>

using namespace ac::hol;

static size_t combineHash(size_t A, size_t B) {
  return A ^ (B + 0x9e3779b97f4a7c15ULL + (A << 6) + (A >> 2));
}

static size_t typeHash(Type::Kind K, const std::string &Name,
                       const std::vector<TypeRef> &Args) {
  size_t H =
      combineHash(std::hash<std::string>()(Name), static_cast<size_t>(K));
  for (const TypeRef &A : Args)
    H = combineHash(H, A->hash());
  return H;
}

Type::Type(Kind K, std::string Name, std::vector<TypeRef> Args, uint64_t Id)
    : K(K), Name(std::move(Name)), Args(std::move(Args)), Id(Id) {
  Hash = typeHash(K, this->Name, this->Args);
  ContainsVar = (K == Kind::Var);
  for (const TypeRef &A : this->Args)
    ContainsVar = ContainsVar || A->hasVar();
}

/// Process-wide arena store (see Intern.h). Because every type flows
/// through var()/con(), structurally equal types are pointer-equal: the
/// argument refs of a prospective node are themselves canonical, so the
/// structural match below reduces to pointer comparisons.
static InternStore<Type> &typeStore() {
  // Leaked on purpose: avoids destruction-order races with other statics
  // and makes every TypeRef immortal (they are non-owning aliases).
  static auto *T = new InternStore<Type>();
  return *T;
}

/// Structural match of an interned candidate against prospective pieces.
/// Args are canonical, so element equality is pointer equality.
static bool sameType(const Type &R, Type::Kind K, const std::string &Name,
                     const std::vector<TypeRef> &Args) {
  if (R.kind() != K || R.args().size() != Args.size() || R.name() != Name)
    return false;
  for (size_t I = 0; I != Args.size(); ++I)
    if (R.arg(I).get() != Args[I].get())
      return false;
  return true;
}

TypeRef Type::var(const std::string &Name) {
  return typeStore().get(
      typeHash(Kind::Var, Name, {}),
      [&](const Type &R) { return sameType(R, Kind::Var, Name, {}); },
      [&](uint64_t Id) { return Type(Kind::Var, Name, {}, Id); });
}

TypeRef Type::con(const std::string &Name, std::vector<TypeRef> Args) {
  return typeStore().get(
      typeHash(Kind::Con, Name, Args),
      [&](const Type &R) { return sameType(R, Kind::Con, Name, Args); },
      [&](uint64_t Id) {
        return Type(Kind::Con, Name, std::move(Args), Id);
      });
}

bool ac::hol::typeEq(const TypeRef &A, const TypeRef &B) {
  if (A.get() == B.get())
    return true;
  if (!A || !B)
    return false;
  if (A->hash() != B->hash() || A->kind() != B->kind() ||
      A->name() != B->name() || A->args().size() != B->args().size())
    return false;
  for (size_t I = 0; I != A->args().size(); ++I)
    if (!typeEq(A->arg(I), B->arg(I)))
      return false;
  return true;
}

//===----------------------------------------------------------------------===//
// Builtin factories. Nullary builtins are cached.
//===----------------------------------------------------------------------===//

static TypeRef cached(const char *Name) {
  // Function-local statics avoid global constructor ordering issues.
  return Type::con(Name);
}

TypeRef ac::hol::boolTy() {
  static TypeRef T = cached("bool");
  return T;
}
TypeRef ac::hol::natTy() {
  static TypeRef T = cached("nat");
  return T;
}
TypeRef ac::hol::intTy() {
  static TypeRef T = cached("int");
  return T;
}
TypeRef ac::hol::unitTy() {
  static TypeRef T = cached("unit");
  return T;
}

TypeRef ac::hol::wordTy(unsigned Bits) {
  assert((Bits == 8 || Bits == 16 || Bits == 32 || Bits == 64) &&
         "unsupported word width");
  switch (Bits) {
  case 8: {
    static TypeRef T = cached("word8");
    return T;
  }
  case 16: {
    static TypeRef T = cached("word16");
    return T;
  }
  case 32: {
    static TypeRef T = cached("word32");
    return T;
  }
  default: {
    static TypeRef T = cached("word64");
    return T;
  }
  }
}

TypeRef ac::hol::swordTy(unsigned Bits) {
  assert((Bits == 8 || Bits == 16 || Bits == 32 || Bits == 64) &&
         "unsupported word width");
  switch (Bits) {
  case 8: {
    static TypeRef T = cached("sword8");
    return T;
  }
  case 16: {
    static TypeRef T = cached("sword16");
    return T;
  }
  case 32: {
    static TypeRef T = cached("sword32");
    return T;
  }
  default: {
    static TypeRef T = cached("sword64");
    return T;
  }
  }
}

TypeRef ac::hol::funTy(TypeRef Dom, TypeRef Ran) {
  return Type::con("fun", {std::move(Dom), std::move(Ran)});
}
TypeRef ac::hol::prodTy(TypeRef A, TypeRef B) {
  return Type::con("prod", {std::move(A), std::move(B)});
}
TypeRef ac::hol::optionTy(TypeRef A) {
  return Type::con("option", {std::move(A)});
}
TypeRef ac::hol::listTy(TypeRef A) { return Type::con("list", {std::move(A)}); }
TypeRef ac::hol::ptrTy(TypeRef A) { return Type::con("ptr", {std::move(A)}); }
TypeRef ac::hol::recordTy(const std::string &Name) {
  return Type::con("record:" + Name);
}

TypeRef ac::hol::funTys(const std::vector<TypeRef> &Doms, TypeRef Ran) {
  TypeRef T = std::move(Ran);
  for (auto It = Doms.rbegin(); It != Doms.rend(); ++It)
    T = funTy(*It, T);
  return T;
}

bool ac::hol::isWordTy(const TypeRef &T) {
  if (!T || !T->isCon())
    return false;
  const std::string &N = T->name();
  return N == "word8" || N == "word16" || N == "word32" || N == "word64";
}

bool ac::hol::isSwordTy(const TypeRef &T) {
  if (!T || !T->isCon())
    return false;
  const std::string &N = T->name();
  return N == "sword8" || N == "sword16" || N == "sword32" || N == "sword64";
}

unsigned ac::hol::wordBits(const TypeRef &T) {
  assert((isWordTy(T) || isSwordTy(T)) && "not a machine word type");
  const std::string &N = T->name();
  if (N.ends_with("64"))
    return 64;
  if (N.ends_with("32"))
    return 32;
  if (N.ends_with("16"))
    return 16;
  return 8;
}

bool ac::hol::isFunTy(const TypeRef &T) { return T && T->isCon("fun"); }
bool ac::hol::isPtrTy(const TypeRef &T) { return T && T->isCon("ptr"); }

TypeRef ac::hol::domTy(const TypeRef &T) {
  assert(isFunTy(T) && "domTy of non-function type");
  return T->arg(0);
}
TypeRef ac::hol::ranTy(const TypeRef &T) {
  assert(isFunTy(T) && "ranTy of non-function type");
  return T->arg(1);
}

static void typeStrImpl(const TypeRef &T, std::ostringstream &OS,
                        bool Parens) {
  if (T->isVar()) {
    OS << "'" << T->name();
    return;
  }
  if (T->isCon("fun")) {
    if (Parens)
      OS << "(";
    typeStrImpl(T->arg(0), OS, /*Parens=*/true);
    OS << " => ";
    typeStrImpl(T->arg(1), OS, /*Parens=*/false);
    if (Parens)
      OS << ")";
    return;
  }
  if (T->isCon("prod") || T->isCon("sum")) {
    const char *Op = T->isCon("prod") ? " * " : " + ";
    if (Parens)
      OS << "(";
    typeStrImpl(T->arg(0), OS, /*Parens=*/true);
    OS << Op;
    typeStrImpl(T->arg(1), OS, /*Parens=*/true);
    if (Parens)
      OS << ")";
    return;
  }
  // Postfix one-argument constructors, Isabelle style: "'a ptr", "'a set".
  if (T->args().size() == 1) {
    typeStrImpl(T->arg(0), OS, /*Parens=*/true);
    OS << " " << T->name();
    return;
  }
  // Nominal records print bare: "record:node_C" -> "node_C".
  if (T->name().rfind("record:", 0) == 0) {
    OS << T->name().substr(7);
    return;
  }
  OS << T->name();
  for (const TypeRef &A : T->args()) {
    OS << " ";
    typeStrImpl(A, OS, /*Parens=*/true);
  }
}

std::string ac::hol::typeStr(const TypeRef &T) {
  if (!T)
    return "<null-type>";
  std::ostringstream OS;
  typeStrImpl(T, OS, /*Parens=*/false);
  return OS.str();
}
