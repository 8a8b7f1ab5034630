//===- Builder.h - Smart constructors for common terms ----------*- C++ -*-===//
//
// Part of the autocorres-cpp project, under the BSD 2-Clause License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Convenience constructors and destructors for the logical, arithmetic,
/// pointer/heap and monadic vocabulary of Names.h. These compute the fully
/// instantiated constant types so callers never spell a `fun` type chain
/// by hand.
///
//===----------------------------------------------------------------------===//

#ifndef AC_HOL_BUILDER_H
#define AC_HOL_BUILDER_H

#include "hol/Names.h"
#include "hol/Term.h"

namespace ac::hol {

//===----------------------------------------------------------------------===//
// Logic
//===----------------------------------------------------------------------===//

TermRef mkTrue();
TermRef mkFalse();
TermRef mkBoolLit(bool B);
TermRef mkNot(TermRef A);
TermRef mkConj(TermRef A, TermRef B);
TermRef mkDisj(TermRef A, TermRef B);
TermRef mkImp(TermRef A, TermRef B);
/// Equality at the type of \p A (computed via typeOf; A must be closed
/// enough for typeOf, which all builder call sites guarantee).
TermRef mkEq(TermRef A, TermRef B);
/// Right-nested conjunction of \p Cs (True when empty).
TermRef mkConjs(const std::vector<TermRef> &Cs);
/// `All (%x. Body)` where \p Body is a lambda.
TermRef mkAllLam(TermRef Lam);
/// Universally quantifies the free variable \p Name : \p Ty in \p Body.
TermRef mkAll(const std::string &Name, TypeRef Ty, TermRef Body);
TermRef mkEx(const std::string &Name, TypeRef Ty, TermRef Body);
/// if-then-else at the common type of the branches.
TermRef mkIte(TermRef C, TermRef T, TermRef E);

/// Peels `A --> B`; true on success.
bool destImp(const TermRef &T, TermRef &A, TermRef &B);
/// Splits `P1 --> ... --> Pn --> C` into premises and conclusion.
void stripImps(TermRef T, std::vector<TermRef> &Premises, TermRef &Concl);
bool destEq(const TermRef &T, TermRef &L, TermRef &R);
bool destConj(const TermRef &T, TermRef &L, TermRef &R);
/// Peels `All (%x. B)`, exposing the body with Bound 0 for x.
bool destAll(const TermRef &T, TermRef &Lam);
/// Decomposes `h a1 .. an` where h is the constant \p Name with exactly
/// \p Arity arguments.
bool destConstApp(const TermRef &T, const std::string &Name, unsigned Arity,
                  std::vector<TermRef> &Args);

//===----------------------------------------------------------------------===//
// Arithmetic. Binary operators take their instance type from \p A.
//===----------------------------------------------------------------------===//

TermRef mkNumOf(TypeRef Ty, Int128 V);
TermRef mkPlus(TermRef A, TermRef B);
TermRef mkMinus(TermRef A, TermRef B);
TermRef mkTimes(TermRef A, TermRef B);
TermRef mkDiv(TermRef A, TermRef B);
TermRef mkMod(TermRef A, TermRef B);
TermRef mkUMinus(TermRef A);
TermRef mkLess(TermRef A, TermRef B);
TermRef mkLessEq(TermRef A, TermRef B);
/// unat : wordN => nat.
TermRef mkUnat(TermRef W);
/// sint : swordN => int.
TermRef mkSint(TermRef W);
/// Generic unary constant application C : ArgTy => ResTy.
TermRef mkUnop(const std::string &Name, TypeRef ResTy, TermRef A);
/// Generic binary operator at A's type: Name : t => t => ResTy.
TermRef mkBinop(const std::string &Name, TypeRef ResTy, TermRef A, TermRef B);

/// The largest value of unsigned word type \p Bits (e.g. UINT_MAX).
Int128 wordMaxVal(unsigned Bits);
/// INT_MIN / INT_MAX for signed word type \p Bits.
Int128 swordMinVal(unsigned Bits);
Int128 swordMaxVal(unsigned Bits);

//===----------------------------------------------------------------------===//
// Pairs / unit / option
//===----------------------------------------------------------------------===//

TermRef mkUnit();
TermRef mkPair(TermRef A, TermRef B);
TermRef mkFst(TermRef P);
TermRef mkSnd(TermRef P);
/// case_prod (%a b. Body) : 'a * 'b => 'c applied to \p P.
TermRef mkCaseProd(TermRef Lam2, TermRef P);
TermRef mkNone(TypeRef ElemTy);
TermRef mkSome(TermRef A);
TermRef mkThe(TermRef Opt);

//===----------------------------------------------------------------------===//
// Pointers and the byte-level heap
//===----------------------------------------------------------------------===//

TermRef mkNullPtr(TypeRef Pointee);
TermRef mkPtr(TypeRef Pointee, TermRef Addr);
TermRef mkPtrVal(TermRef P);
TermRef mkPtrAligned(TermRef P);
TermRef mkPtrRangeOk(TermRef P);
/// read Heap P at pointee type of P.
TermRef mkReadHeap(TermRef Heap, TermRef P);
/// write Heap P V.
TermRef mkWriteHeap(TermRef Heap, TermRef P, TermRef V);

/// The nominal type of the byte-level heap (bytes + Tuch type tags).
TypeRef heapTy();

//===----------------------------------------------------------------------===//
// Monad (Table 1). The monad type is abstractly ('s,'a,'e) monad.
//===----------------------------------------------------------------------===//

TypeRef monadTy(TypeRef S, TypeRef A, TypeRef E);
/// Destructures a monad type.
bool destMonadTy(const TypeRef &T, TypeRef &S, TypeRef &A, TypeRef &E);

/// The combinator constants at explicit state \p S, result \p A (\p B)
/// and exception \p E types, so rule terms with loose bound variables can
/// be built without typeOf.
TermRef returnC(const TypeRef &S, const TypeRef &A, const TypeRef &E);
TermRef throwC(const TypeRef &S, const TypeRef &A, const TypeRef &E);
TermRef guardC(const TypeRef &S, const TypeRef &E);
TermRef getsC(const TypeRef &S, const TypeRef &A, const TypeRef &E);
TermRef modifyC(const TypeRef &S, const TypeRef &E);
TermRef bindC(const TypeRef &S, const TypeRef &A, const TypeRef &B,
              const TypeRef &E);
/// catch : M(S, A, E) => (E => M(S, A, E2)) => M(S, A, E2).
TermRef catchC(const TypeRef &S, const TypeRef &A, const TypeRef &E,
               const TypeRef &E2);
TermRef condC(const TypeRef &S, const TypeRef &A, const TypeRef &E);
/// whileLoop over iterator type \p I.
TermRef whileC(const TypeRef &S, const TypeRef &I, const TypeRef &E);
TermRef skipC(const TypeRef &S, const TypeRef &E);
TermRef failC(const TypeRef &S, const TypeRef &A, const TypeRef &E);

TermRef mkReturn(TypeRef S, TypeRef E, TermRef V);
TermRef mkBind(TermRef M, TermRef F);
TermRef mkGets(TypeRef S, TypeRef E, TermRef F);
TermRef mkModify(TypeRef S, TypeRef E, TermRef F);
TermRef mkGuard(TypeRef S, TypeRef E, TermRef P);
TermRef mkFail(TypeRef S, TypeRef A, TypeRef E);
TermRef mkSkip(TypeRef S, TypeRef E);
TermRef mkThrow(TypeRef S, TypeRef A, TermRef E);
TermRef mkCatch(TermRef M, TermRef Handler);
TermRef mkCondition(TermRef C, TermRef T, TermRef E);
/// whileLoop Cond Body Init where Cond : 'a => 's => bool,
/// Body : 'a => ('s,'a,'e) monad, Init : 'a.
TermRef mkWhileLoop(TermRef Cond, TermRef Body, TermRef Init);

//===----------------------------------------------------------------------===//
// Records. Field access/update constants are named "fld:Rec.f" and
// "upd:Rec.f"; updates take an update *function*, Isabelle style.
//===----------------------------------------------------------------------===//

/// rec.f — field access.
TermRef mkFieldGet(const std::string &RecName, const std::string &Field,
                   TypeRef FieldTy, TypeRef RecTy, TermRef Rec);
/// f_update Fn Rec.
TermRef mkFieldUpdate(const std::string &RecName, const std::string &Field,
                      TypeRef FieldTy, TypeRef RecTy, TermRef Fn, TermRef Rec);
/// Constant-valued field update: f_update (%_. V) Rec.
TermRef mkFieldSet(const std::string &RecName, const std::string &Field,
                   TypeRef FieldTy, TypeRef RecTy, TermRef V, TermRef Rec);

} // namespace ac::hol

#endif // AC_HOL_BUILDER_H
