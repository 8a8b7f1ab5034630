//===- Simpl.cpp ----------------------------------------------------------===//

#include "simpl/Simpl.h"

using namespace ac::simpl;

const char *ac::simpl::guardKindName(GuardKind K) {
  switch (K) {
  case GuardKind::SignedOverflow:
    return "SignedOverflow";
  case GuardKind::DivByZero:
    return "DivByZero";
  case GuardKind::ShiftRange:
    return "ShiftRange";
  case GuardKind::PtrValid:
    return "PtrValid";
  case GuardKind::DontReach:
    return "DontReach";
  }
  return "?";
}

SimplStmtPtr SimplStmt::mkSkip() {
  return SimplStmtPtr(new SimplStmt(Kind::Skip));
}

SimplStmtPtr SimplStmt::mkBasic(hol::TermRef Upd) {
  auto *S = new SimplStmt(Kind::Basic);
  S->Upd = std::move(Upd);
  return SimplStmtPtr(S);
}

SimplStmtPtr SimplStmt::mkSeq(SimplStmtPtr A, SimplStmtPtr B) {
  auto *S = new SimplStmt(Kind::Seq);
  S->A = std::move(A);
  S->B = std::move(B);
  return SimplStmtPtr(S);
}

SimplStmtPtr SimplStmt::mkSeqs(std::vector<SimplStmtPtr> Stmts) {
  if (Stmts.empty())
    return mkSkip();
  SimplStmtPtr Out = Stmts.back();
  for (size_t I = Stmts.size() - 1; I-- > 0;)
    Out = mkSeq(Stmts[I], Out);
  return Out;
}

SimplStmtPtr SimplStmt::mkCond(hol::TermRef C, SimplStmtPtr A,
                               SimplStmtPtr B) {
  auto *S = new SimplStmt(Kind::Cond);
  S->Cond = std::move(C);
  S->A = std::move(A);
  S->B = std::move(B);
  return SimplStmtPtr(S);
}

SimplStmtPtr SimplStmt::mkWhile(hol::TermRef C, SimplStmtPtr Body) {
  auto *S = new SimplStmt(Kind::While);
  S->Cond = std::move(C);
  S->A = std::move(Body);
  return SimplStmtPtr(S);
}

SimplStmtPtr SimplStmt::mkGuard(GuardKind K, hol::TermRef C) {
  auto *S = new SimplStmt(Kind::Guard);
  S->GK = K;
  S->Cond = std::move(C);
  return SimplStmtPtr(S);
}

SimplStmtPtr SimplStmt::mkThrow() {
  return SimplStmtPtr(new SimplStmt(Kind::Throw));
}

SimplStmtPtr SimplStmt::mkTryCatch(SimplStmtPtr A, SimplStmtPtr B,
                                   FrameKind Frame) {
  auto *S = new SimplStmt(Kind::TryCatch);
  S->A = std::move(A);
  S->B = std::move(B);
  S->Frame = Frame;
  return SimplStmtPtr(S);
}

SimplStmtPtr SimplStmt::mkCall(std::string Callee,
                               std::vector<hol::TermRef> Args,
                               hol::TermRef ResultStore) {
  auto *S = new SimplStmt(Kind::Call);
  S->Callee = std::move(Callee);
  S->Args = std::move(Args);
  S->ResultStore = std::move(ResultStore);
  return SimplStmtPtr(S);
}

unsigned SimplStmt::termSize() const {
  unsigned N = 1;
  if (Upd)
    N += Upd->size();
  if (Cond)
    N += Cond->size();
  for (const hol::TermRef &T : Args)
    N += T->size();
  if (ResultStore)
    N += ResultStore->size();
  if (A)
    N += A->termSize();
  if (B)
    N += B->termSize();
  return N;
}
