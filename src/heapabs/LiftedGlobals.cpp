//===- LiftedGlobals.cpp --------------------------------------------------===//

#include "heapabs/LiftedGlobals.h"

using namespace ac;
using namespace ac::heapabs;
using namespace ac::hol;

std::string ac::heapabs::heapTypeTag(const TypeRef &T) {
  if (isWordTy(T))
    return "w" + std::to_string(wordBits(T));
  if (isSwordTy(T))
    return "sw" + std::to_string(wordBits(T));
  if (isPtrTy(T))
    return "p_" + heapTypeTag(T->arg(0));
  if (T->isCon() && T->name().rfind("record:", 0) == 0)
    return T->name().substr(7);
  if (T->isCon("unit"))
    return "unit";
  assert(false && "no field tag for this heap type");
  return "ty";
}

std::string ac::heapabs::heapFieldFor(const TypeRef &T) {
  return "heap_" + heapTypeTag(T);
}
std::string ac::heapabs::validFieldFor(const TypeRef &T) {
  return "is_valid_" + heapTypeTag(T);
}

TermRef LiftedGlobals::isValid(const TypeRef &T, TermRef S,
                               TermRef P) const {
  TermRef Fld = mkFieldGet(liftedRecName(), validFieldFor(T),
                           funTy(ptrTy(T), boolTy()), LiftedTy,
                           std::move(S));
  return Term::mkApp(std::move(Fld), std::move(P));
}

TermRef LiftedGlobals::heapVal(const TypeRef &T, TermRef S,
                               TermRef P) const {
  TermRef Fld = mkFieldGet(liftedRecName(), heapFieldFor(T),
                           funTy(ptrTy(T), T), LiftedTy, std::move(S));
  return Term::mkApp(std::move(Fld), std::move(P));
}

LiftedGlobals ac::heapabs::buildLiftedGlobals(simpl::SimplProgram &Prog) {
  LiftedGlobals LG;
  LG.ConcreteTy = Prog.GlobalsTy;
  LG.HeapTypes = Prog.HeapTypes;
  RecordInfo RI;
  RI.Name = liftedRecName();
  for (const TypeRef &T : Prog.HeapTypes) {
    RI.Fields.emplace_back(validFieldFor(T), funTy(ptrTy(T), boolTy()));
    RI.Fields.emplace_back(heapFieldFor(T), funTy(ptrTy(T), T));
  }
  const RecordInfo *G = Prog.Records.lookup(simpl::globalsRecName());
  assert(G && "globals record must exist before lifting");
  for (const auto &[Name, Ty] : G->Fields) {
    if (Name == simpl::heapFieldName())
      continue;
    RI.Fields.emplace_back(Name, Ty);
    LG.PlainGlobals.emplace_back(Name, Ty);
  }
  Prog.Records.define(std::move(RI));
  LG.LiftedTy = recordTy(liftedRecName());
  return LG;
}
