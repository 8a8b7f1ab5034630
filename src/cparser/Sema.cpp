//===- Sema.cpp -----------------------------------------------------------===//

#include "cparser/Sema.h"

#include "cparser/Parser.h"
#include "support/Trace.h"

#include <map>

using namespace ac;
using namespace ac::cparser;

namespace {

CTypeRef intTy32(bool Signed = true) { return CType::intTy(32, Signed); }

/// Wraps \p E in a cast to \p Ty unless it already has that type.
ExprPtr castTo(ExprPtr E, const CTypeRef &Ty) {
  if (CType::equal(E->Type, Ty))
    return E;
  auto C = std::make_unique<Expr>(Expr::Kind::Cast);
  C->Loc = E->Loc;
  C->CastType = Ty;
  C->Type = Ty;
  C->A = std::move(E);
  return C;
}

class Sema {
public:
  Sema(TranslationUnit &TU, DiagEngine &Diags) : TU(TU), Diags(Diags) {}

  bool run() {
    // Check globals have scalar types.
    for (GlobalVarDecl &G : TU.Globals) {
      if (G.Type->isVoid()) {
        Diags.error(G.Loc, "global '" + G.Name + "' has void type");
        return false;
      }
      if (G.Type->isStruct()) {
        Diags.error(G.Loc, "struct-typed globals are unsupported; use "
                           "heap-allocated objects instead");
        return false;
      }
    }
    for (auto &F : TU.Functions) {
      if (!F->Body)
        continue;
      if (!checkFunction(*F))
        return false;
    }
    return !Diags.hasErrors();
  }

private:
  TranslationUnit &TU;
  DiagEngine &Diags;
  FuncDecl *CurFn = nullptr;
  /// Flat per-function scope: parameters + locals.
  std::map<std::string, CTypeRef> Vars;
  unsigned LoopDepth = 0;

  bool err(SourceLoc Loc, const std::string &Msg) {
    Diags.error(Loc, Msg);
    return false;
  }

  bool checkFunction(FuncDecl &F) {
    CurFn = &F;
    Vars.clear();
    LoopDepth = 0;
    for (const ParamDecl &P : F.Params) {
      if (P.Name.empty())
        return err(F.Loc, "unnamed parameter in definition of '" + F.Name +
                              "'");
      if (P.Type->isStruct())
        return err(F.Loc, "passing structs by value is unsupported");
      if (!Vars.emplace(P.Name, P.Type).second)
        return err(F.Loc, "duplicate parameter '" + P.Name + "'");
    }
    return checkStmt(*F.Body);
  }

  //===--------------------------------------------------------------------===//
  // Statements
  //===--------------------------------------------------------------------===//

  bool checkStmt(Stmt &S) {
    switch (S.K) {
    case Stmt::Kind::Compound:
      for (auto &Sub : S.Body)
        if (!checkStmt(*Sub))
          return false;
      return true;
    case Stmt::Kind::Empty:
      return true;
    case Stmt::Kind::If:
    case Stmt::Kind::While:
    case Stmt::Kind::DoWhile: {
      if (!checkCond(S.Cond))
        return false;
      bool IsLoop = S.K != Stmt::Kind::If;
      if (IsLoop)
        ++LoopDepth;
      if (!checkStmt(*S.Then))
        return false;
      if (S.Else && !checkStmt(*S.Else))
        return false;
      if (IsLoop)
        --LoopDepth;
      return true;
    }
    case Stmt::Kind::For: {
      if (S.ForInit && !checkStmt(*S.ForInit))
        return false;
      if (S.Cond && !checkCond(S.Cond))
        return false;
      if (S.ForStep && !checkStmt(*S.ForStep))
        return false;
      ++LoopDepth;
      bool Ok = checkStmt(*S.Then);
      --LoopDepth;
      return Ok;
    }
    case Stmt::Kind::Return: {
      if (CurFn->RetType->isVoid()) {
        if (S.Value)
          return err(S.Loc, "returning a value from a void function");
        return true;
      }
      if (!S.Value)
        return err(S.Loc, "non-void function must return a value");
      if (!checkExpr(S.Value))
        return false;
      if (!isAssignableTo(S.Value->Type, CurFn->RetType))
        return err(S.Loc, "return type mismatch");
      S.Value = castTo(std::move(S.Value), CurFn->RetType);
      return true;
    }
    case Stmt::Kind::Break:
    case Stmt::Kind::Continue:
      if (LoopDepth == 0)
        return err(S.Loc, "break/continue outside of a loop");
      return true;
    case Stmt::Kind::Decl: {
      if (S.DeclType->isVoid())
        return err(S.Loc, "variable '" + S.DeclName + "' has void type");
      if (S.DeclType->isStruct())
        return err(S.Loc, "struct-valued locals are unsupported; use "
                          "pointers to heap objects");
      if (Vars.count(S.DeclName))
        return err(S.Loc, "redeclaration/shadowing of '" + S.DeclName +
                              "' (unsupported; rename the variable)");
      if (TU.global(S.DeclName))
        return err(S.Loc, "local '" + S.DeclName + "' shadows a global");
      Vars.emplace(S.DeclName, S.DeclType);
      if (S.DeclInit) {
        if (!checkExpr(S.DeclInit))
          return false;
        if (!isAssignableTo(S.DeclInit->Type, S.DeclType))
          return err(S.Loc, "initialiser type mismatch for '" + S.DeclName +
                                "'");
        S.DeclInit = castTo(std::move(S.DeclInit), S.DeclType);
      }
      return true;
    }
    case Stmt::Kind::Assign: {
      if (!checkExpr(S.Target))
        return false;
      if (!isLValue(*S.Target))
        return err(S.Loc, "assignment target is not an lvalue");
      if (!checkExpr(S.Value))
        return false;
      if (!isAssignableTo(S.Value->Type, S.Target->Type))
        return err(S.Loc, "assignment type mismatch (" +
                              S.Value->Type->str() + " to " +
                              S.Target->Type->str() + ")");
      S.Value = castTo(std::move(S.Value), S.Target->Type);
      return true;
    }
    case Stmt::Kind::CallStmt:
      return checkExpr(S.CallExpr);
    }
    return true;
  }

  bool checkCond(ExprPtr &E) {
    if (!checkExpr(E))
      return false;
    if (!E->Type->isInt() && !E->Type->isPointer())
      return err(E->Loc, "condition must have scalar type");
    return true;
  }

  //===--------------------------------------------------------------------===//
  // Expressions
  //===--------------------------------------------------------------------===//

  static bool isLValue(const Expr &E) {
    switch (E.K) {
    case Expr::Kind::VarRef:
      return true;
    case Expr::Kind::Unary:
      return E.UOp == UnOp::Deref;
    case Expr::Kind::Member:
      return E.Arrow || isLValue(*E.A);
    default:
      return false;
    }
  }

  /// True for lvalues that live in the heap (so & is meaningful).
  static bool isHeapLValue(const Expr &E) {
    switch (E.K) {
    case Expr::Kind::Unary:
      return E.UOp == UnOp::Deref;
    case Expr::Kind::Member:
      return E.Arrow || isHeapLValue(*E.A);
    default:
      return false;
    }
  }

  bool isAssignableTo(const CTypeRef &From, const CTypeRef &To) {
    if (CType::equal(From, To))
      return true;
    if (From->isInt() && To->isInt())
      return true;
    if (From->isPointer() && To->isPointer())
      return true; // includes void* conversions
    if (From->isInt() && To->isPointer())
      return true; // constant-to-pointer (NULL-style); kept permissive
    return false;
  }

  /// Integer promotion: anything smaller than int promotes to int.
  CTypeRef promote(const CTypeRef &T) {
    if (T->isInt() && T->bits() < 32)
      return intTy32();
    return T;
  }

  /// Usual arithmetic conversions for two promoted operands.
  CTypeRef usualArith(const CTypeRef &A, const CTypeRef &B) {
    unsigned Bits = std::max(A->bits(), B->bits());
    bool Signed = A->isSigned() && B->isSigned();
    if (A->bits() == B->bits())
      return CType::intTy(Bits, Signed);
    // Wider type wins; if widths differ the narrower converts.
    return A->bits() > B->bits() ? A : B;
  }

  bool checkExpr(ExprPtr &E) {
    switch (E->K) {
    case Expr::Kind::IntLit: {
      if (!E->Name.empty() && E->Name[0] == 'u')
        E->Type = intTy32(false);
      else if (E->Name.rfind("sizeof:", 0) == 0) {
        E->IntValue = TU.Layout.sizeOf(E->CastType);
        E->Type = intTy32(false);
      } else if (E->IntValue > 0x7fffffffLL)
        E->Type = intTy32(false);
      else
        E->Type = intTy32();
      return true;
    }
    case Expr::Kind::NullLit:
      E->Type = CType::pointerTo(CType::voidTy());
      return true;
    case Expr::Kind::VarRef: {
      auto It = Vars.find(E->Name);
      if (It != Vars.end()) {
        E->Type = It->second;
        return true;
      }
      if (const GlobalVarDecl *G = TU.global(E->Name)) {
        E->Type = G->Type;
        E->IsGlobal = true;
        return true;
      }
      return err(E->Loc, "use of undeclared identifier '" + E->Name + "'");
    }
    case Expr::Kind::Unary:
      return checkUnary(E);
    case Expr::Kind::Binary:
      return checkBinary(E);
    case Expr::Kind::Cond: {
      if (!checkExpr(E->A) || !checkExpr(E->B) || !checkExpr(E->C))
        return false;
      if (!E->A->Type->isInt() && !E->A->Type->isPointer())
        return err(E->Loc, "?: condition must be scalar");
      if (E->B->Type->isInt() && E->C->Type->isInt()) {
        CTypeRef T = usualArith(promote(E->B->Type), promote(E->C->Type));
        E->B = castTo(std::move(E->B), T);
        E->C = castTo(std::move(E->C), T);
        E->Type = T;
        return true;
      }
      if (E->B->Type->isPointer() && E->C->Type->isPointer()) {
        E->Type = E->B->Type;
        E->C = castTo(std::move(E->C), E->Type);
        return true;
      }
      return err(E->Loc, "?: branches have incompatible types");
    }
    case Expr::Kind::Cast: {
      if (!checkExpr(E->A))
        return false;
      const CTypeRef &To = E->CastType;
      const CTypeRef &From = E->A->Type;
      bool FromScalar = From->isInt() || From->isPointer();
      bool ToScalar = To->isInt() || To->isPointer();
      if (!FromScalar || !ToScalar)
        return err(E->Loc, "unsupported cast");
      E->Type = To;
      return true;
    }
    case Expr::Kind::Member: {
      if (!checkExpr(E->A))
        return false;
      CTypeRef Base = E->A->Type;
      if (E->Arrow) {
        if (!Base->isPointer() || !Base->pointee()->isStruct())
          return err(E->Loc, "'->' requires a pointer to struct");
        Base = Base->pointee();
      } else if (!Base->isStruct()) {
        return err(E->Loc, "'.' requires a struct");
      }
      const CStructInfo *Info = TU.Layout.lookupStruct(Base->structName());
      if (!Info)
        return err(E->Loc, "use of undefined struct '" + Base->structName() +
                               "'");
      const CField *F = Info->field(E->Name);
      if (!F)
        return err(E->Loc, "no field '" + E->Name + "' in struct " +
                               Base->structName());
      E->Type = F->Type;
      return true;
    }
    case Expr::Kind::Call: {
      const FuncDecl *Callee = TU.function(E->Name);
      if (!Callee)
        return err(E->Loc, "call to undeclared function '" + E->Name + "'");
      if (Callee->Params.size() != E->Args.size())
        return err(E->Loc, "wrong number of arguments to '" + E->Name +
                               "'");
      for (size_t I = 0; I != E->Args.size(); ++I) {
        if (!checkExpr(E->Args[I]))
          return false;
        const CTypeRef &PTy = Callee->Params[I].Type;
        if (!isAssignableTo(E->Args[I]->Type, PTy))
          return err(E->Args[I]->Loc, "argument type mismatch in call to '" +
                                          E->Name + "'");
        E->Args[I] = castTo(std::move(E->Args[I]), PTy);
      }
      E->Type = Callee->RetType;
      return true;
    }
    }
    return true;
  }

  bool checkUnary(ExprPtr &E) {
    if (!checkExpr(E->A))
      return false;
    switch (E->UOp) {
    case UnOp::Neg:
    case UnOp::BitNot: {
      if (!E->A->Type->isInt())
        return err(E->Loc, "operand must have integer type");
      CTypeRef T = promote(E->A->Type);
      E->A = castTo(std::move(E->A), T);
      E->Type = T;
      return true;
    }
    case UnOp::LogNot:
      if (!E->A->Type->isInt() && !E->A->Type->isPointer())
        return err(E->Loc, "operand of ! must be scalar");
      E->Type = intTy32();
      return true;
    case UnOp::Deref: {
      if (!E->A->Type->isPointer())
        return err(E->Loc, "dereference of non-pointer");
      CTypeRef P = E->A->Type->pointee();
      if (P->isVoid())
        return err(E->Loc, "dereference of void pointer");
      E->Type = P;
      return true;
    }
    case UnOp::AddrOf: {
      if (!isHeapLValue(*E->A))
        return err(E->Loc,
                   "address-of is only supported on heap lvalues (the "
                   "subset has no references to local variables)");
      E->Type = CType::pointerTo(E->A->Type);
      return true;
    }
    }
    return true;
  }

  bool checkBinary(ExprPtr &E) {
    if (!checkExpr(E->A) || !checkExpr(E->B))
      return false;
    const CTypeRef &TA = E->A->Type;
    const CTypeRef &TB = E->B->Type;
    switch (E->BOp) {
    case BinOp::LogAnd:
    case BinOp::LogOr: {
      auto Scalar = [](const CTypeRef &T) {
        return T->isInt() || T->isPointer();
      };
      if (!Scalar(TA) || !Scalar(TB))
        return err(E->Loc, "logical operands must be scalar");
      E->Type = intTy32();
      return true;
    }
    case BinOp::EqEq:
    case BinOp::Ne:
    case BinOp::Lt:
    case BinOp::Gt:
    case BinOp::Le:
    case BinOp::Ge: {
      if (TA->isPointer() || TB->isPointer()) {
        // Pointer comparison; allow NULL/int-0 on either side.
        CTypeRef PT = TA->isPointer() ? TA : TB;
        E->A = castTo(std::move(E->A), PT);
        E->B = castTo(std::move(E->B), PT);
        E->Type = intTy32();
        return true;
      }
      if (!TA->isInt() || !TB->isInt())
        return err(E->Loc, "comparison operands must be scalar");
      CTypeRef T = usualArith(promote(TA), promote(TB));
      E->A = castTo(std::move(E->A), T);
      E->B = castTo(std::move(E->B), T);
      E->Type = intTy32();
      return true;
    }
    case BinOp::Shl:
    case BinOp::Shr: {
      if (!TA->isInt() || !TB->isInt())
        return err(E->Loc, "shift operands must have integer type");
      CTypeRef T = promote(TA);
      E->A = castTo(std::move(E->A), T);
      E->B = castTo(std::move(E->B), promote(TB));
      E->Type = T;
      return true;
    }
    default:
      break;
    }
    // Arithmetic / bit ops, including pointer arithmetic for +/-.
    if ((E->BOp == BinOp::Add || E->BOp == BinOp::Sub) && TA->isPointer()) {
      if (!TB->isInt())
        return err(E->Loc, "pointer arithmetic needs an integer offset");
      if (TA->pointee()->isVoid())
        return err(E->Loc, "arithmetic on void pointer");
      E->B = castTo(std::move(E->B), intTy32(false));
      E->Type = TA;
      return true;
    }
    if (E->BOp == BinOp::Add && TB->isPointer()) {
      if (!TA->isInt())
        return err(E->Loc, "pointer arithmetic needs an integer offset");
      // Normalize to pointer-on-the-left.
      std::swap(E->A, E->B);
      E->B = castTo(std::move(E->B), intTy32(false));
      E->Type = E->A->Type;
      return true;
    }
    if (!TA->isInt() || !TB->isInt())
      return err(E->Loc, "arithmetic operands must have integer type");
    CTypeRef T = usualArith(promote(TA), promote(TB));
    E->A = castTo(std::move(E->A), T);
    E->B = castTo(std::move(E->B), T);
    E->Type = T;
    return true;
  }
};

} // namespace

//===----------------------------------------------------------------------===//
// Call hoisting
//===----------------------------------------------------------------------===//
//
// Calls embedded in larger expressions (`return n * fact(n - 1)`) are
// lifted into fresh temporaries so that downstream phases only ever see
// calls in statement position: `tmp = fact(n - 1); return n * tmp;`.
// Evaluation order is fixed left-to-right, innermost first. Calls in loop
// conditions would need re-evaluation plumbing and are rejected.

namespace {

class CallHoister {
public:
  CallHoister(TranslationUnit &TU, DiagEngine &Diags)
      : TU(TU), Diags(Diags) {}

  bool run() {
    for (auto &F : TU.Functions) {
      if (!F->Body)
        continue;
      unsigned Base = Counter;
      if (!hoistStmt(F->Body))
        return false;
      F->HoistBase = Counter != Base ? Base : 0;
    }
    return true;
  }

private:
  TranslationUnit &TU;
  DiagEngine &Diags;
  unsigned Counter = 0;

  /// Lifts every call inside \p E (including E itself if \p WholeToo)
  /// into temporaries, appending decl+assign statements to \p Prefix.
  void hoistExpr(ExprPtr &E, std::vector<StmtPtr> &Prefix, bool WholeToo) {
    if (!E)
      return;
    hoistExpr(E->A, Prefix, /*WholeToo=*/true);
    hoistExpr(E->B, Prefix, /*WholeToo=*/true);
    hoistExpr(E->C, Prefix, /*WholeToo=*/true);
    for (ExprPtr &Arg : E->Args)
      hoistExpr(Arg, Prefix, /*WholeToo=*/true);
    if (E->K != Expr::Kind::Call || !WholeToo)
      return;
    std::string Tmp = "call_tmp__" + std::to_string(Counter++);
    auto Decl = std::make_unique<Stmt>(Stmt::Kind::Decl);
    Decl->Loc = E->Loc;
    Decl->DeclName = Tmp;
    Decl->DeclType = E->Type;
    auto Var = std::make_unique<Expr>(Expr::Kind::VarRef);
    Var->Loc = E->Loc;
    Var->Name = Tmp;
    Var->Type = E->Type;
    auto Assign = std::make_unique<Stmt>(Stmt::Kind::Assign);
    Assign->Loc = E->Loc;
    Assign->Target = cloneExpr(*Var);
    Assign->Value = std::move(E);
    Prefix.push_back(std::move(Decl));
    Prefix.push_back(std::move(Assign));
    E = std::move(Var);
  }

  static bool containsCall(const Expr *E) {
    if (!E)
      return false;
    if (E->K == Expr::Kind::Call)
      return true;
    for (const auto &Arg : E->Args)
      if (containsCall(Arg.get()))
        return true;
    return containsCall(E->A.get()) || containsCall(E->B.get()) ||
           containsCall(E->C.get());
  }

  bool hoistStmt(StmtPtr &S) {
    std::vector<StmtPtr> Prefix;
    switch (S->K) {
    case Stmt::Kind::Compound: {
      std::vector<StmtPtr> NewBody;
      for (StmtPtr &Sub : S->Body) {
        if (!hoistStmt(Sub))
          return false;
        NewBody.push_back(std::move(Sub));
      }
      S->Body = std::move(NewBody);
      return true;
    }
    case Stmt::Kind::Return:
      hoistExpr(S->Value, Prefix, /*WholeToo=*/true);
      break;
    case Stmt::Kind::Decl:
      if (S->DeclInit && S->DeclInit->K == Expr::Kind::Call) {
        // `T x = f(...)` becomes `T x; x = f(...)` (the call stays in
        // statement position).
        hoistExpr(S->DeclInit->A, Prefix, true); // no-op, keeps symmetry
        auto Var = std::make_unique<Expr>(Expr::Kind::VarRef);
        Var->Loc = S->Loc;
        Var->Name = S->DeclName;
        Var->Type = S->DeclType;
        auto Assign = std::make_unique<Stmt>(Stmt::Kind::Assign);
        Assign->Loc = S->Loc;
        Assign->Target = std::move(Var);
        Assign->Value = std::move(S->DeclInit);
        hoistStmtExprCalls(*Assign, Prefix);
        auto Block = std::make_unique<Stmt>(Stmt::Kind::Compound);
        Block->Loc = S->Loc;
        auto Decl = std::make_unique<Stmt>(Stmt::Kind::Decl);
        Decl->Loc = S->Loc;
        Decl->DeclName = S->DeclName;
        Decl->DeclType = S->DeclType;
        Block->Body.push_back(std::move(Decl));
        for (StmtPtr &P : Prefix)
          Block->Body.push_back(std::move(P));
        Block->Body.push_back(std::move(Assign));
        S = std::move(Block);
        return true;
      }
      hoistExpr(S->DeclInit, Prefix, /*WholeToo=*/true);
      break;
    case Stmt::Kind::Assign:
      hoistStmtExprCalls(*S, Prefix);
      break;
    case Stmt::Kind::CallStmt:
      // Only hoist nested calls inside the arguments.
      for (ExprPtr &Arg : S->CallExpr->Args)
        hoistExpr(Arg, Prefix, /*WholeToo=*/true);
      break;
    case Stmt::Kind::If:
      hoistExpr(S->Cond, Prefix, /*WholeToo=*/true);
      if (!hoistStmt(S->Then))
        return false;
      if (S->Else && !hoistStmt(S->Else))
        return false;
      break;
    case Stmt::Kind::While:
    case Stmt::Kind::DoWhile:
    case Stmt::Kind::For: {
      if (S->Cond && containsCall(S->Cond.get())) {
        Diags.error(S->Loc,
                    "function calls in loop conditions are unsupported; "
                    "assign the result to a variable first");
        return false;
      }
      if (S->ForInit && !hoistStmt(S->ForInit))
        return false;
      if (S->ForStep && !hoistStmt(S->ForStep))
        return false;
      if (!hoistStmt(S->Then))
        return false;
      break;
    }
    default:
      break;
    }
    if (Prefix.empty())
      return true;
    // Wrap prefix + statement into a block.
    auto Block = std::make_unique<Stmt>(Stmt::Kind::Compound);
    Block->Loc = S->Loc;
    for (StmtPtr &P : Prefix)
      Block->Body.push_back(std::move(P));
    Block->Body.push_back(std::move(S));
    S = std::move(Block);
    return true;
  }

  /// Hoists calls out of an Assign's operands, keeping a whole-rhs call
  /// in place (the translator handles `x = f(...)` directly).
  void hoistStmtExprCalls(Stmt &S, std::vector<StmtPtr> &Prefix) {
    hoistExpr(S.Target, Prefix, /*WholeToo=*/true);
    if (S.Value && S.Value->K == Expr::Kind::Call) {
      for (ExprPtr &Arg : S.Value->Args)
        hoistExpr(Arg, Prefix, /*WholeToo=*/true);
      return;
    }
    hoistExpr(S.Value, Prefix, /*WholeToo=*/true);
  }
};

} // namespace

bool ac::cparser::checkTranslationUnit(TranslationUnit &TU,
                                       DiagEngine &Diags) {
  support::Span Sp("cparser.sema");
  Sema S(TU, Diags);
  if (!S.run())
    return false;
  CallHoister H(TU, Diags);
  return H.run();
}
