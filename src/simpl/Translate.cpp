//===- Translate.cpp - C AST to Simpl with UB guards ----------------------===//
//
// Part of the autocorres-cpp project, under the BSD 2-Clause License.
//
//===----------------------------------------------------------------------===//
//
// The "C parser" stage (Sec 2): a literal, conservative translation of the
// type-checked C AST into Simpl. Guards are emitted exactly where the C
// standard demands a proof obligation:
//
//   * signed +, -, *, unary minus: result within [INT_MIN, INT_MAX]
//     (two guard statements, lower and upper bound, over sint images);
//   * signed and unsigned division/modulo: divisor non-zero, and for
//     signed, not INT_MIN / -1;
//   * shifts: amount within the width, shifted value non-negative and
//     small enough for signed left shifts;
//   * every heap access: pointer aligned, non-NULL, no address wrap;
//   * control reaching the end of a non-void function: Guard DontReach.
//
// Abrupt termination is encoded as in Fig 2: `return e` becomes
// ret := e ;; global_exn_var := Return ;; THROW, with TRY/CATCH frames
// around loop bodies (filtering Continue), loops (filtering Break) and the
// function body (catching Return).
//
//===----------------------------------------------------------------------===//

#include "cparser/Parser.h"
#include "cparser/Sema.h"
#include "simpl/Program.h"

#include "hol/GroundEval.h"
#include "support/Trace.h"

#include <algorithm>
#include <map>
#include <set>

using namespace ac;
using namespace ac::simpl;
using namespace ac::hol;
namespace nm = ac::hol::names;
using cparser::BinOp;
using cparser::CType;
using cparser::CTypeRef;
using cparser::Expr;
using cparser::Stmt;
using cparser::UnOp;

//===----------------------------------------------------------------------===//
// Ghost exception type
//===----------------------------------------------------------------------===//

TypeRef ac::simpl::cExnTy() {
  static TypeRef T = Type::con("c_exntype");
  return T;
}
TermRef ac::simpl::exnReturn() {
  static TermRef T = Term::mkConst("Return", cExnTy());
  return T;
}
TermRef ac::simpl::exnBreak() {
  static TermRef T = Term::mkConst("Break", cExnTy());
  return T;
}
TermRef ac::simpl::exnContinue() {
  static TermRef T = Term::mkConst("Continue", cExnTy());
  return T;
}

//===----------------------------------------------------------------------===//
// Type mapping
//===----------------------------------------------------------------------===//

TypeRef TypeMapper::holType(const CTypeRef &T) {
  switch (T->kind()) {
  case CType::Kind::Void:
    return unitTy();
  case CType::Kind::Int:
    return T->isSigned() ? swordTy(T->bits()) : wordTy(T->bits());
  case CType::Kind::Pointer: {
    const CTypeRef &P = T->pointee();
    if (P->isVoid())
      return ptrTy(unitTy()); // void* — byte-addressed, coerced on use
    return ptrTy(holType(P));
  }
  case CType::Kind::Struct: {
    std::string RecName = structRecName(T->structName());
    if (!Records.lookup(RecName)) {
      const cparser::CStructInfo *Info = Layout.lookupStruct(T->structName());
      assert(Info && "struct used before definition");
      // Register a placeholder first so recursive structs terminate.
      Records.define({RecName, {}});
      RecordInfo RI;
      RI.Name = RecName;
      for (const cparser::CField &F : Info->Fields)
        RI.Fields.emplace_back(F.Name, holType(F.Type));
      Records.define(std::move(RI));
    }
    return recordTy(RecName);
  }
  }
  return unitTy();
}

//===----------------------------------------------------------------------===//
// Translator
//===----------------------------------------------------------------------===//

namespace {

using Guard = std::pair<GuardKind, TermRef>;

class Translator {
public:
  explicit Translator(SimplProgram &Prog)
      : Prog(Prog), TM(Prog.Records, Prog.TU->Layout) {}

  /// The declaration pass (see Program.h).
  bool declare(DiagEngine &D) {
    Diags = &D;
    defineGlobalsRecord();
    for (auto &F : Prog.TU->Functions) {
      if (!F->Body)
        continue;
      if (FnIndex.count(F->Name))
        return err(F->Loc, "redefinition of function '" + F->Name + "'");
      FnIndex.emplace(F->Name, Prog.FunctionOrder.size());
      declareFunction(*F);
      Prog.FunctionOrder.push_back(F->Name);
    }
    std::vector<std::vector<unsigned>> Callees(Prog.FunctionOrder.size());
    for (unsigned I = 0; I != Callees.size(); ++I) {
      CurCallees = &Callees[I];
      if (!scanStmt(*Prog.Functions.at(Prog.FunctionOrder[I]).Decl->Body))
        return false;
    }
    Prog.Calls = buildCallGraph(std::move(Callees));
    for (unsigned I = 0; I != Prog.FunctionOrder.size(); ++I)
      Prog.Functions.at(Prog.FunctionOrder[I]).IsRecursive =
          Prog.Calls.isRecursive(I);
    return !D.hasErrors();
  }

  /// The body pass for one declared function.
  void translateBody(SimplFunc &SF) {
    CurSF = &SF;
    SVar = Term::mkFree("s", SF.StateTy);

    SimplStmtPtr Body = transStmt(*SF.Decl->Body);
    assert(Body && "the declaration pass rejects every failing body");

    std::vector<SimplStmtPtr> Tail;
    Tail.push_back(Body);
    if (SF.RetTy) {
      // Falling off the end of a non-void function is undefined.
      Tail.push_back(
          SimplStmt::mkGuard(GuardKind::DontReach, lamS(mkFalse())));
    } else {
      // Implicit return.
      Tail.push_back(basic(setStateField(exnVarName(), exnReturn())));
      Tail.push_back(SimplStmt::mkThrow());
    }
    SF.Body =
        SimplStmt::mkTryCatch(SimplStmt::mkSeqs(std::move(Tail)),
                              SimplStmt::mkSkip(), FrameKind::FunctionBody);
  }

private:
  SimplProgram &Prog;
  TypeMapper TM;
  SimplFunc *CurSF = nullptr;
  TermRef SVar; ///< the state variable `s` as a Free

  // Declaration-pass state.
  DiagEngine *Diags = nullptr;
  std::map<std::string, unsigned> FnIndex; ///< name -> FunctionOrder index
  std::vector<unsigned> *CurCallees = nullptr; ///< the scanned body's row
  std::set<std::string> HeapTypeNames;

  bool err(SourceLoc Loc, const std::string &Msg) {
    Diags->error(Loc, Msg);
    return false;
  }

  //===------------------------------------------------------------------===//
  // Records and state accessors
  //===------------------------------------------------------------------===//

  void defineGlobalsRecord() {
    RecordInfo G;
    G.Name = globalsRecName();
    G.Fields.emplace_back(heapFieldName(), heapTy());
    for (const cparser::GlobalVarDecl &GV : Prog.TU->Globals)
      G.Fields.emplace_back(GV.Name, TM.holType(GV.Type));
    Prog.Records.define(std::move(G));
    Prog.GlobalsTy = recordTy(globalsRecName());
  }

  TypeRef stateTy() const { return CurSF->StateTy; }

  TermRef stateField(const std::string &Field) {
    const RecordInfo *RI = Prog.Records.lookup(CurSF->StateRecName);
    const TypeRef *FT = RI->fieldType(Field);
    assert(FT && "unknown state field");
    return mkFieldGet(CurSF->StateRecName, Field, *FT, stateTy(), SVar);
  }

  TermRef setStateField(const std::string &Field, TermRef V) {
    const RecordInfo *RI = Prog.Records.lookup(CurSF->StateRecName);
    const TypeRef *FT = RI->fieldType(Field);
    assert(FT && "unknown state field");
    return mkFieldSet(CurSF->StateRecName, Field, *FT, stateTy(),
                      std::move(V), SVar);
  }

  TermRef globalsOf() { return stateField("globals"); }

  TermRef globalField(const std::string &Field) {
    const RecordInfo *RI = Prog.Records.lookup(globalsRecName());
    const TypeRef *FT = RI->fieldType(Field);
    assert(FT && "unknown global field");
    return mkFieldGet(globalsRecName(), Field, *FT, Prog.GlobalsTy,
                      globalsOf());
  }

  TermRef heapTerm() { return globalField(heapFieldName()); }

  /// s with globals.Field := V.
  TermRef setGlobalField(const std::string &Field, TermRef V) {
    const RecordInfo *RI = Prog.Records.lookup(globalsRecName());
    const TypeRef *FT = RI->fieldType(Field);
    assert(FT && "unknown global field");
    TermRef NewGlobals = mkFieldSet(globalsRecName(), Field, *FT,
                                    Prog.GlobalsTy, std::move(V),
                                    globalsOf());
    return setStateField("globals", std::move(NewGlobals));
  }

  /// Wraps a term over `s` into %s. T.
  TermRef lamS(const TermRef &OverS) {
    return lambdaFree("s", stateTy(), OverS);
  }

  SimplStmtPtr basic(const TermRef &UpdOverS) {
    return SimplStmt::mkBasic(lamS(UpdOverS));
  }

  void flushGuards(std::vector<SimplStmtPtr> &Out, std::vector<Guard> &Gs) {
    for (auto &[K, G] : Gs)
      Out.push_back(SimplStmt::mkGuard(K, lamS(G)));
    Gs.clear();
  }

  /// Weakens guards by a condition (for short-circuit contexts).
  static void weakenGuards(std::vector<Guard> &Gs, const TermRef &Unless,
                           size_t From) {
    for (size_t I = From; I != Gs.size(); ++I)
      Gs[I].second = mkDisj(Unless, Gs[I].second);
  }

  //===------------------------------------------------------------------===//
  // Function translation
  //===------------------------------------------------------------------===//

  static void collectLocals(const Stmt &S,
                            std::vector<std::pair<std::string,
                                                  CTypeRef>> &Out) {
    if (S.K == Stmt::Kind::Decl)
      Out.emplace_back(S.DeclName, S.DeclType);
    for (const auto &Sub : S.Body)
      collectLocals(*Sub, Out);
    if (S.ForInit)
      collectLocals(*S.ForInit, Out);
    if (S.ForStep)
      collectLocals(*S.ForStep, Out);
    if (S.Then)
      collectLocals(*S.Then, Out);
    if (S.Else)
      collectLocals(*S.Else, Out);
  }

  /// Signature, locals and the `<f>_state` record of one definition.
  void declareFunction(const cparser::FuncDecl &F) {
    SimplFunc SF;
    SF.Name = F.Name;
    SF.Decl = &F;
    SF.StateRecName = F.Name + "_state";
    SF.RetTy = F.RetType->isVoid() ? nullptr : TM.holType(F.RetType);

    RecordInfo RI;
    RI.Name = SF.StateRecName;
    for (const cparser::ParamDecl &P : F.Params) {
      TypeRef Ty = TM.holType(P.Type);
      SF.Params.emplace_back(P.Name, Ty);
      RI.Fields.emplace_back(P.Name, Ty);
    }
    std::vector<std::pair<std::string, CTypeRef>> Locals;
    collectLocals(*F.Body, Locals);
    for (auto &[Name, CTy] : Locals) {
      TypeRef Ty = TM.holType(CTy);
      SF.Locals.emplace_back(Name, Ty);
      RI.Fields.emplace_back(Name, Ty);
    }
    if (SF.RetTy) {
      SF.Locals.emplace_back(retVarName(), SF.RetTy);
      RI.Fields.emplace_back(retVarName(), SF.RetTy);
    }
    RI.Fields.emplace_back(exnVarName(), cExnTy());
    RI.Fields.emplace_back("globals", Prog.GlobalsTy);
    Prog.Records.define(std::move(RI));
    SF.StateTy = recordTy(SF.StateRecName);
    Prog.Functions.emplace(F.Name, std::move(SF));
  }

  //===------------------------------------------------------------------===//
  // Typed-AST scan (declaration pass)
  //===------------------------------------------------------------------===//

  /// Visits a body's statements and expressions in exactly the order the
  /// body pass translates them, so that heap types are noted in the order
  /// a full translation first accesses them. Along the way it registers
  /// every record type the body pass maps, collects the callees, and
  /// rejects calls the body pass could not translate.
  bool scanStmt(const Stmt &S) {
    switch (S.K) {
    case Stmt::Kind::Compound:
      for (const auto &Sub : S.Body)
        if (!scanStmt(*Sub))
          return false;
      return true;
    case Stmt::Kind::Empty:
    case Stmt::Kind::Break:
    case Stmt::Kind::Continue:
      return true;
    case Stmt::Kind::Decl:
      scanExpr(S.DeclInit.get());
      return true;
    case Stmt::Kind::Assign:
      if (S.Value->K == Expr::Kind::Call) {
        if (!scanCall(*S.Value, S.Loc))
          return false;
      } else {
        scanExpr(S.Value.get());
      }
      scanExpr(S.Target.get());
      return true;
    case Stmt::Kind::CallStmt:
      return scanCall(*S.CallExpr, S.Loc);
    case Stmt::Kind::Return:
      scanExpr(S.Value.get());
      return true;
    case Stmt::Kind::If:
      scanExpr(S.Cond.get());
      return scanStmt(*S.Then) && (!S.Else || scanStmt(*S.Else));
    case Stmt::Kind::While:
    case Stmt::Kind::DoWhile:
      // transLoop translates the condition before the body, do-while too.
      scanExpr(S.Cond.get());
      return scanStmt(*S.Then);
    case Stmt::Kind::For:
      if (S.ForInit && !scanStmt(*S.ForInit))
        return false;
      scanExpr(S.Cond.get());
      return scanStmt(*S.Then) && (!S.ForStep || scanStmt(*S.ForStep));
    }
    return true;
  }

  bool scanCall(const Expr &CallE, SourceLoc Loc) {
    const cparser::FuncDecl *Callee = Prog.TU->function(CallE.Name);
    assert(Callee && "Sema resolved the callee");
    if (!Callee->Body)
      return err(Loc, "call to function '" + CallE.Name +
                          "' which has no body in this translation unit");
    for (const auto &A : CallE.Args)
      scanExpr(A.get());
    unsigned I = FnIndex.at(CallE.Name);
    if (std::find(CurCallees->begin(), CurCallees->end(), I) ==
        CurCallees->end())
      CurCallees->push_back(I);
    return true;
  }

  /// Operands first, then the node: the body pass notes a heap access
  /// after translating the pointer it goes through.
  void scanExpr(const Expr *E) {
    if (!E)
      return;
    scanExpr(E->A.get());
    scanExpr(E->B.get());
    scanExpr(E->C.get());
    switch (E->K) {
    case Expr::Kind::Unary:
      if (E->UOp == UnOp::Deref)
        noteHeapType(E->A->Type->pointee());
      break;
    case Expr::Kind::Member:
      if (E->Arrow)
        noteHeapType(E->A->Type->pointee());
      break;
    case Expr::Kind::Cast:
      TM.holType(E->Type);
      break;
    case Expr::Kind::Binary:
      if (E->A->Type->isPointer() &&
          (E->BOp == BinOp::Add || E->BOp == BinOp::Sub))
        TM.holType(E->A->Type->pointee());
      break;
    default:
      break;
    }
  }

  void noteHeapType(const CTypeRef &CTy) {
    TypeRef T = TM.holType(CTy);
    if (HeapTypeNames.insert(typeStr(T)).second)
      Prog.HeapTypes.push_back(T);
  }

  //===------------------------------------------------------------------===//
  // Statements
  //===------------------------------------------------------------------===//

  SimplStmtPtr fail() { return nullptr; }

  SimplStmtPtr transStmt(const Stmt &S) {
    switch (S.K) {
    case Stmt::Kind::Compound: {
      std::vector<SimplStmtPtr> Out;
      for (const auto &Sub : S.Body) {
        SimplStmtPtr T = transStmt(*Sub);
        if (!T)
          return fail();
        Out.push_back(std::move(T));
      }
      return SimplStmt::mkSeqs(std::move(Out));
    }
    case Stmt::Kind::Empty:
      return SimplStmt::mkSkip();
    case Stmt::Kind::Decl: {
      if (!S.DeclInit)
        return SimplStmt::mkSkip(); // uninitialised local: value left as-is
      std::vector<Guard> Gs;
      TermRef V = transExpr(*S.DeclInit, Gs);
      if (!V)
        return fail();
      std::vector<SimplStmtPtr> Out;
      flushGuards(Out, Gs);
      Out.push_back(basic(setStateField(S.DeclName, V)));
      return SimplStmt::mkSeqs(std::move(Out));
    }
    case Stmt::Kind::Assign:
      return transAssign(S);
    case Stmt::Kind::CallStmt:
      return transCall(*S.CallExpr, /*Target=*/nullptr);
    case Stmt::Kind::Return: {
      std::vector<SimplStmtPtr> Out;
      if (S.Value) {
        std::vector<Guard> Gs;
        TermRef V = transExpr(*S.Value, Gs);
        if (!V)
          return fail();
        flushGuards(Out, Gs);
        Out.push_back(basic(setStateField(retVarName(), V)));
      }
      Out.push_back(basic(setStateField(exnVarName(), exnReturn())));
      Out.push_back(SimplStmt::mkThrow());
      return SimplStmt::mkSeqs(std::move(Out));
    }
    case Stmt::Kind::Break: {
      std::vector<SimplStmtPtr> Out;
      Out.push_back(basic(setStateField(exnVarName(), exnBreak())));
      Out.push_back(SimplStmt::mkThrow());
      return SimplStmt::mkSeqs(std::move(Out));
    }
    case Stmt::Kind::Continue: {
      std::vector<SimplStmtPtr> Out;
      Out.push_back(basic(setStateField(exnVarName(), exnContinue())));
      Out.push_back(SimplStmt::mkThrow());
      return SimplStmt::mkSeqs(std::move(Out));
    }
    case Stmt::Kind::If: {
      std::vector<Guard> Gs;
      TermRef C = transCond(*S.Cond, Gs);
      if (!C)
        return fail();
      SimplStmtPtr Then = transStmt(*S.Then);
      if (!Then)
        return fail();
      SimplStmtPtr Else =
          S.Else ? transStmt(*S.Else) : SimplStmt::mkSkip();
      if (!Else)
        return fail();
      std::vector<SimplStmtPtr> Out;
      flushGuards(Out, Gs);
      Out.push_back(SimplStmt::mkCond(lamS(C), Then, Else));
      return SimplStmt::mkSeqs(std::move(Out));
    }
    case Stmt::Kind::While:
      return transLoop(S.Cond.get(), S.Then.get(), /*Step=*/nullptr,
                       /*TestFirst=*/true);
    case Stmt::Kind::DoWhile:
      return transLoop(S.Cond.get(), S.Then.get(), /*Step=*/nullptr,
                       /*TestFirst=*/false);
    case Stmt::Kind::For: {
      SimplStmtPtr Init =
          S.ForInit ? transStmt(*S.ForInit) : SimplStmt::mkSkip();
      if (!Init)
        return fail();
      SimplStmtPtr Loop = transLoop(S.Cond.get(), S.Then.get(),
                                    S.ForStep.get(), /*TestFirst=*/true);
      if (!Loop)
        return fail();
      return SimplStmt::mkSeq(Init, Loop);
    }
    }
    return fail();
  }

  /// Shared while/do-while/for translation with break/continue frames.
  SimplStmtPtr transLoop(const Expr *CondE, const Stmt *BodyS,
                         const Stmt *StepS, bool TestFirst) {
    std::vector<Guard> Gs;
    TermRef C = CondE ? transCond(*CondE, Gs) : mkTrue();
    if (!C)
      return fail();

    SimplStmtPtr Body = transStmt(*BodyS);
    if (!Body)
      return fail();
    // continue jumps to the step/condition: filter it here.
    SimplStmtPtr ContFilter = SimplStmt::mkCond(
        lamS(mkEq(stateField(exnVarName()), exnContinue())),
        SimplStmt::mkSkip(), SimplStmt::mkThrow());
    SimplStmtPtr Framed =
        SimplStmt::mkTryCatch(Body, ContFilter, FrameKind::LoopContinue);

    std::vector<SimplStmtPtr> Iter;
    Iter.push_back(Framed);
    if (StepS) {
      SimplStmtPtr Step = transStmt(*StepS);
      if (!Step)
        return fail();
      Iter.push_back(std::move(Step));
    }
    // The condition's guards must hold on every re-evaluation.
    for (auto &[K, G] : Gs)
      Iter.push_back(SimplStmt::mkGuard(K, lamS(G)));
    SimplStmtPtr IterBody = SimplStmt::mkSeqs(std::move(Iter));

    SimplStmtPtr Loop = SimplStmt::mkWhile(lamS(C), IterBody);

    std::vector<SimplStmtPtr> Out;
    if (!TestFirst) {
      // do-while: run the body once before the loop; the condition (and
      // hence its guards) is first evaluated only after that body.
      SimplStmtPtr FirstBody = transStmt(*BodyS);
      if (!FirstBody)
        return fail();
      Out.push_back(SimplStmt::mkTryCatch(
          FirstBody,
          SimplStmt::mkCond(
              lamS(mkEq(stateField(exnVarName()), exnContinue())),
              SimplStmt::mkSkip(), SimplStmt::mkThrow()),
          FrameKind::LoopContinue));
    }
    // Guards for the first condition evaluation.
    for (auto &[K, G] : Gs)
      Out.push_back(SimplStmt::mkGuard(K, lamS(G)));
    Out.push_back(Loop);
    SimplStmtPtr Whole = SimplStmt::mkSeqs(std::move(Out));

    // break unwinds to just past the loop: filter it here.
    SimplStmtPtr BreakFilter = SimplStmt::mkCond(
        lamS(mkEq(stateField(exnVarName()), exnBreak())),
        SimplStmt::mkSkip(), SimplStmt::mkThrow());
    return SimplStmt::mkTryCatch(Whole, BreakFilter, FrameKind::LoopBreak);
  }

  SimplStmtPtr transAssign(const Stmt &S) {
    if (S.Value->K == Expr::Kind::Call)
      return transCall(*S.Value, S.Target.get());
    std::vector<Guard> Gs;
    TermRef V = transExpr(*S.Value, Gs);
    if (!V)
      return fail();
    TermRef Upd = storeLValue(*S.Target, V, Gs);
    if (!Upd)
      return fail();
    std::vector<SimplStmtPtr> Out;
    flushGuards(Out, Gs);
    Out.push_back(basic(Upd));
    return SimplStmt::mkSeqs(std::move(Out));
  }

  SimplStmtPtr transCall(const Expr &CallE, const Expr *Target) {
    const cparser::FuncDecl *Callee = Prog.TU->function(CallE.Name);
    assert(Callee && Callee->Body && "the declaration pass checked calls");
    std::vector<Guard> Gs;
    std::vector<TermRef> Args;
    for (const auto &A : CallE.Args) {
      TermRef T = transExpr(*A, Gs);
      if (!T)
        return fail();
      Args.push_back(lamS(T));
    }
    TermRef ResultStore;
    if (Target) {
      TypeRef RetTy = TM.holType(Callee->RetType);
      TermRef RetVar = Term::mkFree("call_ret", RetTy);
      TermRef Upd = storeLValue(*Target, RetVar, Gs);
      if (!Upd)
        return fail();
      ResultStore = lamS(lambdaFree("call_ret", RetTy, Upd));
    }
    std::vector<SimplStmtPtr> Out;
    flushGuards(Out, Gs);
    Out.push_back(SimplStmt::mkCall(CallE.Name, std::move(Args),
                                    std::move(ResultStore)));
    return SimplStmt::mkSeqs(std::move(Out));
  }

  //===------------------------------------------------------------------===//
  // L-values
  //===------------------------------------------------------------------===//

  struct LValue {
    enum class Kind { Local, Global, Heap } K;
    std::string Name;      ///< Local/Global
    TermRef Ptr;           ///< Heap: typed pointer to the whole object
    CTypeRef ObjCTy;       ///< Heap: C type of the pointee
    std::vector<std::string> Path; ///< nested field names inside ObjCTy
  };

  std::optional<LValue> transLValue(const Expr &E, std::vector<Guard> &Gs) {
    switch (E.K) {
    case Expr::Kind::VarRef: {
      LValue LV;
      LV.K = E.IsGlobal ? LValue::Kind::Global : LValue::Kind::Local;
      LV.Name = E.Name;
      return LV;
    }
    case Expr::Kind::Unary: {
      assert(E.UOp == UnOp::Deref && "non-lvalue unary");
      TermRef P = transExpr(*E.A, Gs);
      if (!P)
        return std::nullopt;
      LValue LV;
      LV.K = LValue::Kind::Heap;
      LV.Ptr = P;
      LV.ObjCTy = E.A->Type->pointee();
      Gs.emplace_back(GuardKind::PtrValid, ptrOkGuard(P));
      return LV;
    }
    case Expr::Kind::Member: {
      if (E.Arrow) {
        TermRef P = transExpr(*E.A, Gs);
        if (!P)
          return std::nullopt;
        LValue LV;
        LV.K = LValue::Kind::Heap;
        LV.Ptr = P;
        LV.ObjCTy = E.A->Type->pointee();
        LV.Path.push_back(E.Name);
        Gs.emplace_back(GuardKind::PtrValid, ptrOkGuard(P));
        return LV;
      }
      std::optional<LValue> Base = transLValue(*E.A, Gs);
      if (!Base)
        return std::nullopt;
      assert(Base->K == LValue::Kind::Heap &&
             "Sema guarantees struct lvalues are heap lvalues");
      Base->Path.push_back(E.Name);
      return Base;
    }
    default:
      assert(false && "not an lvalue (Sema should have rejected)");
      return std::nullopt;
    }
  }

  /// Both alignment and range validity of a typed pointer.
  static TermRef ptrOkGuard(const TermRef &P) {
    return mkConj(mkPtrAligned(P), mkPtrRangeOk(P));
  }

  /// Walks a field path, returning (holRecName, fieldName, fieldTy,
  /// recTy) tuples for nested updates.
  struct PathStep {
    std::string RecName;
    std::string Field;
    TypeRef FieldTy;
    TypeRef RecTy;
  };

  bool pathSteps(const CTypeRef &ObjCTy, const std::vector<std::string> &Path,
                 std::vector<PathStep> &Steps) {
    CTypeRef Cur = ObjCTy;
    for (const std::string &F : Path) {
      assert(Cur->isStruct() && "field path through non-struct");
      const cparser::CStructInfo *Info =
          Prog.TU->Layout.lookupStruct(Cur->structName());
      const cparser::CField *CF = Info->field(F);
      assert(CF && "Sema checked field existence");
      PathStep S;
      S.RecName = TypeMapper::structRecName(Cur->structName());
      S.Field = F;
      S.FieldTy = TM.holType(CF->Type);
      S.RecTy = recordTy(S.RecName);
      Steps.push_back(std::move(S));
      Cur = CF->Type;
    }
    return true;
  }

  /// Reads the value of an lvalue (term over s).
  TermRef readLValue(const LValue &LV) {
    switch (LV.K) {
    case LValue::Kind::Local:
      return stateField(LV.Name);
    case LValue::Kind::Global:
      return globalField(LV.Name);
    case LValue::Kind::Heap: {
      TermRef V = mkReadHeap(heapTerm(), LV.Ptr);
      std::vector<PathStep> Steps;
      pathSteps(LV.ObjCTy, LV.Path, Steps);
      for (const PathStep &S : Steps)
        V = mkFieldGet(S.RecName, S.Field, S.FieldTy, S.RecTy, V);
      return V;
    }
    }
    return nullptr;
  }

  /// Builds the state update storing \p V into \p Target (term over s).
  TermRef storeLValue(const Expr &Target, const TermRef &V,
                      std::vector<Guard> &Gs) {
    std::optional<LValue> LV = transLValue(Target, Gs);
    if (!LV)
      return nullptr;
    switch (LV->K) {
    case LValue::Kind::Local:
      return setStateField(LV->Name, V);
    case LValue::Kind::Global:
      return setGlobalField(LV->Name, V);
    case LValue::Kind::Heap: {
      std::vector<PathStep> Steps;
      pathSteps(LV->ObjCTy, LV->Path, Steps);
      // Innermost-out: rebuild nested records.
      TermRef NewVal = V;
      if (!Steps.empty()) {
        // Read the current object, then update along the path.
        TermRef Obj = mkReadHeap(heapTerm(), LV->Ptr);
        NewVal = updateAlongPath(Obj, Steps, 0, V);
      }
      return setGlobalField(heapFieldName(),
                            mkWriteHeap(heapTerm(), LV->Ptr, NewVal));
    }
    }
    return nullptr;
  }

  TermRef updateAlongPath(const TermRef &Obj,
                          const std::vector<PathStep> &Steps, size_t I,
                          const TermRef &V) {
    if (I == Steps.size())
      return V;
    const PathStep &S = Steps[I];
    TermRef Inner =
        mkFieldGet(S.RecName, S.Field, S.FieldTy, S.RecTy, Obj);
    TermRef NewInner = updateAlongPath(Inner, Steps, I + 1, V);
    return mkFieldSet(S.RecName, S.Field, S.FieldTy, S.RecTy, NewInner,
                      Obj);
  }

  //===------------------------------------------------------------------===//
  // Expressions
  //===------------------------------------------------------------------===//

  TermRef intMaxOf(const CTypeRef &T) {
    return mkNumOf(intTy(), swordMaxVal(T->bits()));
  }
  TermRef intMinOf(const CTypeRef &T) {
    return mkNumOf(intTy(), swordMinVal(T->bits()));
  }

  /// Emits the two signed-overflow guards for an int-valued image term.
  void signedRangeGuards(const TermRef &ImageInt, const CTypeRef &T,
                         std::vector<Guard> &Gs) {
    Gs.emplace_back(GuardKind::SignedOverflow,
                    mkLessEq(intMinOf(T), ImageInt));
    Gs.emplace_back(GuardKind::SignedOverflow,
                    mkLessEq(ImageInt, intMaxOf(T)));
  }

  TermRef transExpr(const Expr &E, std::vector<Guard> &Gs) {
    switch (E.K) {
    case Expr::Kind::IntLit:
      return mkNumOf(TM.holType(E.Type),
                     normalizeToType(E.IntValue, TM.holType(E.Type)));
    case Expr::Kind::NullLit:
      return mkNullPtr(unitTy());
    case Expr::Kind::VarRef:
      return E.IsGlobal ? globalField(E.Name) : stateField(E.Name);
    case Expr::Kind::Unary:
      return transUnary(E, Gs);
    case Expr::Kind::Binary:
      return transBinary(E, Gs);
    case Expr::Kind::Cond: {
      size_t Mark = Gs.size();
      TermRef C = transCond(*E.A, Gs);
      if (!C)
        return nullptr;
      size_t ThenMark = Gs.size();
      TermRef T = transExpr(*E.B, Gs);
      if (!T)
        return nullptr;
      weakenGuards(Gs, mkNot(C), ThenMark);
      size_t ElseMark = Gs.size();
      TermRef El = transExpr(*E.C, Gs);
      if (!El)
        return nullptr;
      weakenGuards(Gs, C, ElseMark);
      (void)Mark;
      return mkIte(C, T, El);
    }
    case Expr::Kind::Cast:
      return transCast(E, Gs);
    case Expr::Kind::Member: {
      std::optional<LValue> LV = transLValue(E, Gs);
      if (!LV)
        return nullptr;
      return readLValue(*LV);
    }
    case Expr::Kind::Call:
      // Sema restricts calls to statement positions; expression-position
      // calls inside larger expressions never reach here.
      assert(false && "call in expression position");
      return nullptr;
    }
    return nullptr;
  }

  TermRef transUnary(const Expr &E, std::vector<Guard> &Gs) {
    if (E.UOp == UnOp::Deref || E.UOp == UnOp::AddrOf) {
      if (E.UOp == UnOp::Deref) {
        std::optional<LValue> LV = transLValue(E, Gs);
        if (!LV)
          return nullptr;
        return readLValue(*LV);
      }
      // Address-of.
      std::optional<LValue> LV = transLValue(*E.A, Gs);
      if (!LV)
        return nullptr;
      assert(LV->K == LValue::Kind::Heap && "Sema enforced heap lvalue");
      if (LV->Path.empty())
        return LV->Ptr;
      // &p->f: pointer arithmetic on the object pointer.
      unsigned Offset = 0;
      CTypeRef Cur = LV->ObjCTy;
      for (const std::string &F : LV->Path) {
        const cparser::CStructInfo *Info =
            Prog.TU->Layout.lookupStruct(Cur->structName());
        const cparser::CField *CF = Info->field(F);
        Offset += CF->Offset;
        Cur = CF->Type;
      }
      TermRef Addr = mkPlus(mkPtrVal(LV->Ptr),
                            mkNumOf(wordTy(32), Offset));
      return mkPtr(TM.holType(Cur), Addr);
    }

    TermRef A = transExpr(*E.A, Gs);
    if (!A)
      return nullptr;
    switch (E.UOp) {
    case UnOp::Neg: {
      if (E.Type->isSigned()) {
        // -INT_MIN overflows.
        Gs.emplace_back(GuardKind::SignedOverflow,
                        mkLessEq(mkUMinus(mkSint(A)), intMaxOf(E.Type)));
      }
      return mkUMinus(A);
    }
    case UnOp::BitNot:
      return mkUnop(nm::BitNot, TM.holType(E.Type), A);
    case UnOp::LogNot: {
      // !e: 1 when e compares equal to zero.
      TermRef C = asBool(*E.A, A);
      return mkIte(C, mkNumOf(swordTy(32), 0), mkNumOf(swordTy(32), 1));
    }
    default:
      break;
    }
    return nullptr;
  }

  /// Zero-test of an already-translated scalar value.
  TermRef asBool(const Expr &E, const TermRef &V) {
    if (E.Type->isPointer())
      return mkNot(mkEq(V, mkNullPtr(typeOf(V)->arg(0))));
    return mkNot(mkEq(V, mkNumOf(typeOf(V), 0)));
  }

  TermRef transBinary(const Expr &E, std::vector<Guard> &Gs) {
    switch (E.BOp) {
    case BinOp::LogAnd:
    case BinOp::LogOr:
    case BinOp::EqEq:
    case BinOp::Ne:
    case BinOp::Lt:
    case BinOp::Gt:
    case BinOp::Le:
    case BinOp::Ge: {
      TermRef C = transCond(E, Gs);
      if (!C)
        return nullptr;
      return mkIte(C, mkNumOf(swordTy(32), 1), mkNumOf(swordTy(32), 0));
    }
    default:
      break;
    }

    TermRef A = transExpr(*E.A, Gs);
    TermRef B = A ? transExpr(*E.B, Gs) : nullptr;
    if (!B)
      return nullptr;

    // Pointer arithmetic: p + i, p - i.
    if (E.A->Type->isPointer()) {
      const CTypeRef &Elem = E.A->Type->pointee();
      unsigned Size = Prog.TU->Layout.sizeOf(Elem);
      TermRef Off = mkTimes(B, mkNumOf(wordTy(32), Size));
      TermRef Base = mkPtrVal(A);
      TermRef Addr = E.BOp == BinOp::Add ? mkPlus(Base, Off)
                                         : mkMinus(Base, Off);
      return mkPtr(TM.holType(Elem), Addr);
    }

    bool Signed = E.Type->isInt() && E.Type->isSigned();
    switch (E.BOp) {
    case BinOp::Add:
      if (Signed)
        signedRangeGuards(mkPlus(mkSint(A), mkSint(B)), E.Type, Gs);
      return mkPlus(A, B);
    case BinOp::Sub:
      if (Signed)
        signedRangeGuards(mkMinus(mkSint(A), mkSint(B)), E.Type, Gs);
      return mkMinus(A, B);
    case BinOp::Mul:
      if (Signed)
        signedRangeGuards(mkTimes(mkSint(A), mkSint(B)), E.Type, Gs);
      return mkTimes(A, B);
    case BinOp::Div:
    case BinOp::Rem: {
      TermRef Zero = mkNumOf(TM.holType(E.Type), 0);
      Gs.emplace_back(GuardKind::DivByZero, mkNot(mkEq(B, Zero)));
      if (Signed) {
        // INT_MIN / -1 overflows.
        TermRef Bad = mkConj(mkEq(mkSint(A), intMinOf(E.Type)),
                             mkEq(mkSint(B), mkNumOf(intTy(), -1)));
        Gs.emplace_back(GuardKind::SignedOverflow, mkNot(Bad));
      }
      return E.BOp == BinOp::Div ? mkDiv(A, B) : mkMod(A, B);
    }
    case BinOp::BitAnd:
      return mkBinop(nm::BitAnd, TM.holType(E.Type), A, B);
    case BinOp::BitOr:
      return mkBinop(nm::BitOr, TM.holType(E.Type), A, B);
    case BinOp::BitXor:
      return mkBinop(nm::BitXor, TM.holType(E.Type), A, B);
    case BinOp::Shl:
    case BinOp::Shr: {
      unsigned Width = E.Type->bits();
      // Shift amount within [0, width).
      TermRef AmtInt = E.B->Type->isSigned() ? mkSint(B) : nullptr;
      TermRef AmtOk;
      if (AmtInt)
        AmtOk = mkConj(mkLessEq(mkNumOf(intTy(), 0), AmtInt),
                       mkLess(AmtInt, mkNumOf(intTy(), Width)));
      else
        AmtOk = mkLess(mkUnat(B), mkNumOf(natTy(), Width));
      Gs.emplace_back(GuardKind::ShiftRange, AmtOk);
      // Shifts are heterogeneous: the amount keeps its own (promoted)
      // type.
      auto MkShift = [&](const char *Op, TermRef L, TermRef R) {
        TypeRef LTy = typeOf(L);
        TermRef C = Term::mkConst(Op, funTys({LTy, typeOf(R)}, LTy));
        return mkApps(C, {std::move(L), std::move(R)});
      };
      if (E.BOp == BinOp::Shl && Signed) {
        // C99 6.5.7: E1 must be non-negative and E1 * 2^E2 representable.
        Gs.emplace_back(GuardKind::SignedOverflow,
                        mkLessEq(mkNumOf(intTy(), 0), mkSint(A)));
        Gs.emplace_back(
            GuardKind::SignedOverflow,
            mkLessEq(A, MkShift(nm::Shiftr,
                                mkNumOf(typeOf(A), swordMaxVal(Width)),
                                B)));
      }
      return MkShift(E.BOp == BinOp::Shl ? nm::Shiftl : nm::Shiftr, A, B);
    }
    default:
      break;
    }
    assert(false && "unhandled binary operator");
    return nullptr;
  }

  TermRef transCast(const Expr &E, std::vector<Guard> &Gs) {
    const CTypeRef &To = E.Type;
    // NULL / literal 0 to pointer.
    if (To->isPointer() &&
        (E.A->K == Expr::Kind::NullLit ||
         (E.A->K == Expr::Kind::IntLit && E.A->IntValue == 0))) {
      return mkNullPtr(To->pointee()->isVoid() ? unitTy()
                                               : TM.holType(To->pointee()));
    }
    TermRef A = transExpr(*E.A, Gs);
    if (!A)
      return nullptr;
    const CTypeRef &From = E.A->Type;
    TypeRef ToHol = TM.holType(To);
    if (CType::equal(From, To))
      return A;
    if (From->isPointer() && To->isPointer())
      return mkUnop(nm::PtrCoerce, ToHol, A);
    if (From->isPointer() && To->isInt()) {
      TermRef W = mkPtrVal(A);
      return castWord(W, /*SrcSigned=*/false, ToHol);
    }
    if (From->isInt() && To->isPointer()) {
      TermRef W = castWord(A, From->isSigned(), wordTy(32));
      return mkPtr(To->pointee()->isVoid() ? unitTy()
                                           : TM.holType(To->pointee()),
                   W);
    }
    // Integer conversions. Unsigned-to-signed narrowing is
    // implementation-defined (two's complement wrap here), not UB,
    // so no guard is emitted.
    return castWord(A, From->isSigned(), ToHol);
  }

  /// Machine integer conversion: sign-extends iff the source is signed.
  TermRef castWord(const TermRef &V, bool SrcSigned, const TypeRef &ToHol) {
    if (typeEq(typeOf(V), ToHol))
      return V;
    // Literals convert at translation time.
    if (V->isNum())
      return Term::mkNum(normalizeToType(V->value(), ToHol), ToHol);
    return mkUnop(SrcSigned ? nm::Scast : nm::Ucast, ToHol, V);
  }

  /// Translates an expression used as a truth value.
  TermRef transCond(const Expr &E, std::vector<Guard> &Gs) {
    if (E.K == Expr::Kind::Unary && E.UOp == UnOp::LogNot) {
      TermRef C = transCond(*E.A, Gs);
      return C ? mkNot(C) : nullptr;
    }
    if (E.K == Expr::Kind::Binary) {
      switch (E.BOp) {
      case BinOp::LogAnd:
      case BinOp::LogOr: {
        TermRef L = transCond(*E.A, Gs);
        if (!L)
          return nullptr;
        size_t Mark = Gs.size();
        TermRef R = transCond(*E.B, Gs);
        if (!R)
          return nullptr;
        // Short circuit: the right operand's guards only apply when the
        // left operand does not decide the result.
        weakenGuards(Gs, E.BOp == BinOp::LogAnd ? mkNot(L) : L, Mark);
        return E.BOp == BinOp::LogAnd ? mkConj(L, R) : mkDisj(L, R);
      }
      case BinOp::EqEq:
      case BinOp::Ne:
      case BinOp::Lt:
      case BinOp::Gt:
      case BinOp::Le:
      case BinOp::Ge: {
        TermRef A = transExpr(*E.A, Gs);
        TermRef B = A ? transExpr(*E.B, Gs) : nullptr;
        if (!B)
          return nullptr;
        // Pointer comparisons compare addresses.
        if (E.A->Type->isPointer() &&
            (E.BOp == BinOp::Lt || E.BOp == BinOp::Gt ||
             E.BOp == BinOp::Le || E.BOp == BinOp::Ge)) {
          A = mkPtrVal(A);
          B = mkPtrVal(B);
        }
        switch (E.BOp) {
        case BinOp::EqEq:
          return mkEq(A, B);
        case BinOp::Ne:
          return mkNot(mkEq(A, B));
        case BinOp::Lt:
          return mkLess(A, B);
        case BinOp::Gt:
          return mkLess(B, A);
        case BinOp::Le:
          return mkLessEq(A, B);
        case BinOp::Ge:
          return mkLessEq(B, A);
        default:
          break;
        }
        return nullptr;
      }
      default:
        break;
      }
    }
    TermRef V = transExpr(E, Gs);
    if (!V)
      return nullptr;
    return asBool(E, V);
  }
};

} // namespace

std::unique_ptr<SimplProgram>
ac::simpl::translateDeclarations(std::unique_ptr<cparser::TranslationUnit> TU,
                                 DiagEngine &Diags) {
  AC_SPAN("simpl.declare");
  auto Prog = std::make_unique<SimplProgram>();
  Prog->TU = std::move(TU);
  if (!Translator(*Prog).declare(Diags))
    return nullptr;
  return Prog;
}

void ac::simpl::translateBody(SimplProgram &Prog, size_t Idx) {
  Translator(Prog).translateBody(
      Prog.Functions.at(Prog.FunctionOrder.at(Idx)));
}

std::unique_ptr<SimplProgram>
ac::simpl::translateToSimpl(std::unique_ptr<cparser::TranslationUnit> TU,
                            DiagEngine &Diags) {
  AC_SPAN("simpl.translate");
  std::unique_ptr<SimplProgram> Prog =
      translateDeclarations(std::move(TU), Diags);
  if (!Prog)
    return nullptr;
  for (size_t I = 0; I != Prog->FunctionOrder.size(); ++I)
    translateBody(*Prog, I);
  return Prog;
}

static std::unique_ptr<cparser::TranslationUnit>
parseAndCheck(const std::string &Source, DiagEngine &Diags) {
  auto TU = cparser::parseTranslationUnit(Source, Diags);
  if (!TU || !cparser::checkTranslationUnit(*TU, Diags))
    return nullptr;
  return TU;
}

std::unique_ptr<SimplProgram>
ac::simpl::parseAndTranslate(const std::string &Source, DiagEngine &Diags) {
  AC_SPAN("parse");
  auto TU = parseAndCheck(Source, Diags);
  return TU ? translateToSimpl(std::move(TU), Diags) : nullptr;
}

std::unique_ptr<SimplProgram>
ac::simpl::parseAndDeclare(const std::string &Source, DiagEngine &Diags) {
  AC_SPAN("parse");
  auto TU = parseAndCheck(Source, Diags);
  return TU ? translateDeclarations(std::move(TU), Diags) : nullptr;
}
