//===- Builder.cpp --------------------------------------------------------===//

#include "hol/Builder.h"

using namespace ac::hol;
namespace nm = ac::hol::names;

//===----------------------------------------------------------------------===//
// Logic
//===----------------------------------------------------------------------===//

TermRef ac::hol::mkTrue() {
  static TermRef T = Term::mkConst(nm::True, boolTy());
  return T;
}
TermRef ac::hol::mkFalse() {
  static TermRef T = Term::mkConst(nm::False, boolTy());
  return T;
}
TermRef ac::hol::mkBoolLit(bool B) { return B ? mkTrue() : mkFalse(); }

TermRef ac::hol::mkNot(TermRef A) {
  static TermRef C = Term::mkConst(nm::Not, funTy(boolTy(), boolTy()));
  return Term::mkApp(C, std::move(A));
}

static TermRef boolBinop(const char *Name, TermRef A, TermRef B) {
  TermRef C =
      Term::mkConst(Name, funTys({boolTy(), boolTy()}, boolTy()));
  return mkApps(C, {std::move(A), std::move(B)});
}

TermRef ac::hol::mkConj(TermRef A, TermRef B) {
  return boolBinop(nm::Conj, std::move(A), std::move(B));
}
TermRef ac::hol::mkDisj(TermRef A, TermRef B) {
  return boolBinop(nm::Disj, std::move(A), std::move(B));
}
TermRef ac::hol::mkImp(TermRef A, TermRef B) {
  return boolBinop(nm::Implies, std::move(A), std::move(B));
}

TermRef ac::hol::mkEq(TermRef A, TermRef B) {
  TypeRef Ty = typeOf(A);
  TermRef C = Term::mkConst(nm::Eq, funTys({Ty, Ty}, boolTy()));
  return mkApps(C, {std::move(A), std::move(B)});
}

TermRef ac::hol::mkConjs(const std::vector<TermRef> &Cs) {
  if (Cs.empty())
    return mkTrue();
  TermRef Out = Cs.back();
  for (size_t I = Cs.size() - 1; I-- > 0;)
    Out = mkConj(Cs[I], Out);
  return Out;
}

TermRef ac::hol::mkAllLam(TermRef Lam) {
  TypeRef LamTy = typeOf(Lam);
  TermRef C = Term::mkConst(nm::All, funTy(LamTy, boolTy()));
  return Term::mkApp(C, std::move(Lam));
}

TermRef ac::hol::mkAll(const std::string &Name, TypeRef Ty, TermRef Body) {
  return mkAllLam(lambdaFree(Name, std::move(Ty), Body));
}

TermRef ac::hol::mkEx(const std::string &Name, TypeRef Ty, TermRef Body) {
  TermRef Lam = lambdaFree(Name, std::move(Ty), Body);
  TermRef C = Term::mkConst(nm::Ex, funTy(typeOf(Lam), boolTy()));
  return Term::mkApp(C, std::move(Lam));
}

TermRef ac::hol::mkIte(TermRef C, TermRef T, TermRef E) {
  TypeRef Ty = typeOf(T);
  TermRef IteC = Term::mkConst(nm::Ite, funTys({boolTy(), Ty, Ty}, Ty));
  return mkApps(IteC, {std::move(C), std::move(T), std::move(E)});
}

bool ac::hol::destConstApp(const TermRef &T, const std::string &Name,
                           unsigned Arity, std::vector<TermRef> &Args) {
  TermRef Head = stripApp(T, Args);
  return Head->isConst(Name) && Args.size() == Arity;
}

bool ac::hol::destImp(const TermRef &T, TermRef &A, TermRef &B) {
  std::vector<TermRef> Args;
  if (!destConstApp(T, nm::Implies, 2, Args))
    return false;
  A = Args[0];
  B = Args[1];
  return true;
}

void ac::hol::stripImps(TermRef T, std::vector<TermRef> &Premises,
                        TermRef &Concl) {
  Premises.clear();
  TermRef A, B;
  while (destImp(T, A, B)) {
    Premises.push_back(A);
    T = B;
  }
  Concl = T;
}

bool ac::hol::destEq(const TermRef &T, TermRef &L, TermRef &R) {
  std::vector<TermRef> Args;
  if (!destConstApp(T, nm::Eq, 2, Args))
    return false;
  L = Args[0];
  R = Args[1];
  return true;
}

bool ac::hol::destConj(const TermRef &T, TermRef &L, TermRef &R) {
  std::vector<TermRef> Args;
  if (!destConstApp(T, nm::Conj, 2, Args))
    return false;
  L = Args[0];
  R = Args[1];
  return true;
}

bool ac::hol::destAll(const TermRef &T, TermRef &Lam) {
  std::vector<TermRef> Args;
  if (!destConstApp(T, nm::All, 1, Args))
    return false;
  Lam = Args[0];
  return true;
}

//===----------------------------------------------------------------------===//
// Arithmetic
//===----------------------------------------------------------------------===//

TermRef ac::hol::mkNumOf(TypeRef Ty, Int128 V) {
  return Term::mkNum(V, std::move(Ty));
}

TermRef ac::hol::mkBinop(const std::string &Name, TypeRef ResTy, TermRef A,
                         TermRef B) {
  TypeRef Ty = typeOf(A);
  TermRef C = Term::mkConst(Name, funTys({Ty, Ty}, std::move(ResTy)));
  return mkApps(C, {std::move(A), std::move(B)});
}

static TermRef arithBinop(const char *Name, TermRef A, TermRef B) {
  TypeRef Ty = typeOf(A);
  return mkBinop(Name, Ty, std::move(A), std::move(B));
}

TermRef ac::hol::mkPlus(TermRef A, TermRef B) {
  return arithBinop(nm::Plus, std::move(A), std::move(B));
}
TermRef ac::hol::mkMinus(TermRef A, TermRef B) {
  return arithBinop(nm::Minus, std::move(A), std::move(B));
}
TermRef ac::hol::mkTimes(TermRef A, TermRef B) {
  return arithBinop(nm::Times, std::move(A), std::move(B));
}
TermRef ac::hol::mkDiv(TermRef A, TermRef B) {
  return arithBinop(nm::Div, std::move(A), std::move(B));
}
TermRef ac::hol::mkMod(TermRef A, TermRef B) {
  return arithBinop(nm::Mod, std::move(A), std::move(B));
}

TermRef ac::hol::mkUMinus(TermRef A) {
  TypeRef Ty = typeOf(A);
  TermRef C = Term::mkConst(nm::UMinus, funTy(Ty, Ty));
  return Term::mkApp(C, std::move(A));
}

TermRef ac::hol::mkLess(TermRef A, TermRef B) {
  return mkBinop(nm::Less, boolTy(), std::move(A), std::move(B));
}
TermRef ac::hol::mkLessEq(TermRef A, TermRef B) {
  return mkBinop(nm::LessEq, boolTy(), std::move(A), std::move(B));
}

TermRef ac::hol::mkUnat(TermRef W) {
  TypeRef Ty = typeOf(W);
  assert(isWordTy(Ty) && "unat expects an unsigned machine word");
  TermRef C = Term::mkConst(nm::Unat, funTy(Ty, natTy()));
  return Term::mkApp(C, std::move(W));
}

TermRef ac::hol::mkSint(TermRef W) {
  TypeRef Ty = typeOf(W);
  assert(isSwordTy(Ty) && "sint expects a signed machine word");
  TermRef C = Term::mkConst(nm::Sint, funTy(Ty, intTy()));
  return Term::mkApp(C, std::move(W));
}

TermRef ac::hol::mkUnop(const std::string &Name, TypeRef ResTy, TermRef A) {
  TypeRef Ty = typeOf(A);
  TermRef C = Term::mkConst(Name, funTy(Ty, std::move(ResTy)));
  return Term::mkApp(C, std::move(A));
}

Int128 ac::hol::wordMaxVal(unsigned Bits) {
  return (static_cast<Int128>(1) << Bits) - 1;
}
Int128 ac::hol::swordMinVal(unsigned Bits) {
  return -(static_cast<Int128>(1) << (Bits - 1));
}
Int128 ac::hol::swordMaxVal(unsigned Bits) {
  return (static_cast<Int128>(1) << (Bits - 1)) - 1;
}

//===----------------------------------------------------------------------===//
// Pairs / unit / option
//===----------------------------------------------------------------------===//

TermRef ac::hol::mkUnit() {
  static TermRef T = Term::mkConst(nm::Unity, unitTy());
  return T;
}

TermRef ac::hol::mkPair(TermRef A, TermRef B) {
  TypeRef TA = typeOf(A), TB = typeOf(B);
  TermRef C = Term::mkConst(nm::PairC, funTys({TA, TB}, prodTy(TA, TB)));
  return mkApps(C, {std::move(A), std::move(B)});
}

TermRef ac::hol::mkFst(TermRef P) {
  TypeRef Ty = typeOf(P);
  assert(Ty->isCon("prod") && "fst of non-pair");
  TermRef C = Term::mkConst(nm::Fst, funTy(Ty, Ty->arg(0)));
  return Term::mkApp(C, std::move(P));
}

TermRef ac::hol::mkSnd(TermRef P) {
  TypeRef Ty = typeOf(P);
  assert(Ty->isCon("prod") && "snd of non-pair");
  TermRef C = Term::mkConst(nm::Snd, funTy(Ty, Ty->arg(1)));
  return Term::mkApp(C, std::move(P));
}

TermRef ac::hol::mkCaseProd(TermRef Lam2, TermRef P) {
  TypeRef PTy = typeOf(P);
  TypeRef LamTy = typeOf(Lam2);
  assert(PTy->isCon("prod") && "case_prod scrutinee must be a pair");
  // Lam2 : 'a => 'b => 'c.
  TypeRef ResTy = ranTy(ranTy(LamTy));
  TermRef C = Term::mkConst(nm::CaseProd, funTys({LamTy, PTy}, ResTy));
  return mkApps(C, {std::move(Lam2), std::move(P)});
}

TermRef ac::hol::mkNone(TypeRef ElemTy) {
  return Term::mkConst(nm::NoneC, optionTy(std::move(ElemTy)));
}

TermRef ac::hol::mkSome(TermRef A) {
  TypeRef Ty = typeOf(A);
  TermRef C = Term::mkConst(nm::SomeC, funTy(Ty, optionTy(Ty)));
  return Term::mkApp(C, std::move(A));
}

TermRef ac::hol::mkThe(TermRef Opt) {
  TypeRef Ty = typeOf(Opt);
  assert(Ty->isCon("option") && "the of non-option");
  TermRef C = Term::mkConst(nm::The, funTy(Ty, Ty->arg(0)));
  return Term::mkApp(C, std::move(Opt));
}

//===----------------------------------------------------------------------===//
// Pointers / heap
//===----------------------------------------------------------------------===//

TypeRef ac::hol::heapTy() {
  static TypeRef T = Type::con("heap");
  return T;
}

TermRef ac::hol::mkNullPtr(TypeRef Pointee) {
  return Term::mkConst(nm::NullPtr, ptrTy(std::move(Pointee)));
}

TermRef ac::hol::mkPtr(TypeRef Pointee, TermRef Addr) {
  TypeRef PT = ptrTy(std::move(Pointee));
  TermRef C = Term::mkConst(nm::PtrC, funTy(wordTy(32), PT));
  return Term::mkApp(C, std::move(Addr));
}

TermRef ac::hol::mkPtrVal(TermRef P) {
  TypeRef Ty = typeOf(P);
  assert(isPtrTy(Ty) && "ptr_val of non-pointer");
  TermRef C = Term::mkConst(nm::PtrVal, funTy(Ty, wordTy(32)));
  return Term::mkApp(C, std::move(P));
}

TermRef ac::hol::mkPtrAligned(TermRef P) {
  return mkUnop(nm::PtrAligned, boolTy(), std::move(P));
}
TermRef ac::hol::mkPtrRangeOk(TermRef P) {
  return mkUnop(nm::PtrRangeOk, boolTy(), std::move(P));
}

TermRef ac::hol::mkReadHeap(TermRef Heap, TermRef P) {
  TypeRef PTy = typeOf(P);
  assert(isPtrTy(PTy) && "read of non-pointer");
  TermRef C =
      Term::mkConst(nm::ReadHeap, funTys({heapTy(), PTy}, PTy->arg(0)));
  return mkApps(C, {std::move(Heap), std::move(P)});
}

TermRef ac::hol::mkWriteHeap(TermRef Heap, TermRef P, TermRef V) {
  TypeRef PTy = typeOf(P);
  assert(isPtrTy(PTy) && "write of non-pointer");
  TermRef C = Term::mkConst(
      nm::WriteHeap, funTys({heapTy(), PTy, PTy->arg(0)}, heapTy()));
  return mkApps(C, {std::move(Heap), std::move(P), std::move(V)});
}

//===----------------------------------------------------------------------===//
// Monad
//===----------------------------------------------------------------------===//

TypeRef ac::hol::monadTy(TypeRef S, TypeRef A, TypeRef E) {
  return Type::con("monad", {std::move(S), std::move(A), std::move(E)});
}

bool ac::hol::destMonadTy(const TypeRef &T, TypeRef &S, TypeRef &A,
                          TypeRef &E) {
  if (!T || !T->isCon("monad"))
    return false;
  S = T->arg(0);
  A = T->arg(1);
  E = T->arg(2);
  return true;
}

TermRef ac::hol::returnC(const TypeRef &S, const TypeRef &A,
                         const TypeRef &E) {
  return Term::mkConst(nm::Return, funTy(A, monadTy(S, A, E)));
}
TermRef ac::hol::throwC(const TypeRef &S, const TypeRef &A,
                        const TypeRef &E) {
  return Term::mkConst(nm::Throw, funTy(E, monadTy(S, A, E)));
}
TermRef ac::hol::guardC(const TypeRef &S, const TypeRef &E) {
  return Term::mkConst(nm::Guard,
                       funTy(funTy(S, boolTy()), monadTy(S, unitTy(), E)));
}
TermRef ac::hol::getsC(const TypeRef &S, const TypeRef &A,
                       const TypeRef &E) {
  return Term::mkConst(nm::Gets, funTy(funTy(S, A), monadTy(S, A, E)));
}
TermRef ac::hol::modifyC(const TypeRef &S, const TypeRef &E) {
  return Term::mkConst(nm::Modify,
                       funTy(funTy(S, S), monadTy(S, unitTy(), E)));
}
TermRef ac::hol::bindC(const TypeRef &S, const TypeRef &A, const TypeRef &B,
                       const TypeRef &E) {
  return Term::mkConst(
      nm::Bind, funTys({monadTy(S, A, E), funTy(A, monadTy(S, B, E))},
                       monadTy(S, B, E)));
}
TermRef ac::hol::catchC(const TypeRef &S, const TypeRef &A, const TypeRef &E,
                        const TypeRef &E2) {
  return Term::mkConst(
      nm::Catch, funTys({monadTy(S, A, E), funTy(E, monadTy(S, A, E2))},
                        monadTy(S, A, E2)));
}
TermRef ac::hol::condC(const TypeRef &S, const TypeRef &A,
                       const TypeRef &E) {
  TypeRef M = monadTy(S, A, E);
  return Term::mkConst(nm::Condition,
                       funTys({funTy(S, boolTy()), M, M}, M));
}
TermRef ac::hol::whileC(const TypeRef &S, const TypeRef &I,
                        const TypeRef &E) {
  return Term::mkConst(
      nm::WhileLoop,
      funTys({funTys({I, S}, boolTy()), funTy(I, monadTy(S, I, E)), I},
             monadTy(S, I, E)));
}
TermRef ac::hol::skipC(const TypeRef &S, const TypeRef &E) {
  return Term::mkConst(nm::Skip, monadTy(S, unitTy(), E));
}
TermRef ac::hol::failC(const TypeRef &S, const TypeRef &A,
                       const TypeRef &E) {
  return Term::mkConst(nm::Fail, monadTy(S, A, E));
}

TermRef ac::hol::mkReturn(TypeRef S, TypeRef E, TermRef V) {
  TermRef C = returnC(S, typeOf(V), E);
  return Term::mkApp(C, std::move(V));
}

TermRef ac::hol::mkBind(TermRef M, TermRef F) {
  TypeRef MTy = typeOf(M);
  TypeRef S, A, E;
  bool IsMonad = destMonadTy(MTy, S, A, E);
  assert(IsMonad && "bind of non-monadic term");
  (void)IsMonad;
  TypeRef FTy = typeOf(F);
  TypeRef ResTy = ranTy(FTy);
  TermRef C = Term::mkConst(nm::Bind, funTys({MTy, FTy}, ResTy));
  return mkApps(C, {std::move(M), std::move(F)});
}

TermRef ac::hol::mkGets(TypeRef S, TypeRef E, TermRef F) {
  TermRef C = getsC(S, ranTy(typeOf(F)), E);
  return Term::mkApp(C, std::move(F));
}

TermRef ac::hol::mkModify(TypeRef S, TypeRef E, TermRef F) {
  return Term::mkApp(modifyC(S, E), std::move(F));
}

TermRef ac::hol::mkGuard(TypeRef S, TypeRef E, TermRef P) {
  return Term::mkApp(guardC(S, E), std::move(P));
}

TermRef ac::hol::mkFail(TypeRef S, TypeRef A, TypeRef E) {
  return failC(S, A, E);
}

TermRef ac::hol::mkSkip(TypeRef S, TypeRef E) { return skipC(S, E); }

TermRef ac::hol::mkThrow(TypeRef S, TypeRef A, TermRef E) {
  TermRef C = throwC(S, A, typeOf(E));
  return Term::mkApp(C, std::move(E));
}

TermRef ac::hol::mkCatch(TermRef M, TermRef Handler) {
  TypeRef MTy = typeOf(M);
  TypeRef HTy = typeOf(Handler);
  TypeRef ResTy = ranTy(HTy);
  TermRef C = Term::mkConst(nm::Catch, funTys({MTy, HTy}, ResTy));
  return mkApps(C, {std::move(M), std::move(Handler)});
}

TermRef ac::hol::mkCondition(TermRef C, TermRef T, TermRef E) {
  TypeRef MTy = typeOf(T);
  TypeRef CTy = typeOf(C);
  TermRef K = Term::mkConst(nm::Condition, funTys({CTy, MTy, MTy}, MTy));
  return mkApps(K, {std::move(C), std::move(T), std::move(E)});
}

TermRef ac::hol::mkWhileLoop(TermRef Cond, TermRef Body, TermRef Init) {
  TypeRef CondTy = typeOf(Cond);
  TypeRef BodyTy = typeOf(Body);
  TypeRef ITy = typeOf(Init);
  TypeRef MTy = ranTy(BodyTy);
  TermRef C =
      Term::mkConst(nm::WhileLoop, funTys({CondTy, BodyTy, ITy}, MTy));
  return mkApps(C, {std::move(Cond), std::move(Body), std::move(Init)});
}

//===----------------------------------------------------------------------===//
// Records
//===----------------------------------------------------------------------===//

TermRef ac::hol::mkFieldGet(const std::string &RecName,
                            const std::string &Field, TypeRef FieldTy,
                            TypeRef RecTy, TermRef Rec) {
  TermRef C = Term::mkConst("fld:" + RecName + "." + Field,
                            funTy(std::move(RecTy), std::move(FieldTy)));
  return Term::mkApp(C, std::move(Rec));
}

TermRef ac::hol::mkFieldUpdate(const std::string &RecName,
                               const std::string &Field, TypeRef FieldTy,
                               TypeRef RecTy, TermRef Fn, TermRef Rec) {
  TermRef C = Term::mkConst(
      "upd:" + RecName + "." + Field,
      funTys({funTy(FieldTy, FieldTy), RecTy}, RecTy));
  return mkApps(C, {std::move(Fn), std::move(Rec)});
}

TermRef ac::hol::mkFieldSet(const std::string &RecName,
                            const std::string &Field, TypeRef FieldTy,
                            TypeRef RecTy, TermRef V, TermRef Rec) {
  TermRef Fn = Term::mkLam("_", FieldTy, liftLoose(V, 1));
  return mkFieldUpdate(RecName, Field, std::move(FieldTy), std::move(RecTy),
                       std::move(Fn), std::move(Rec));
}
