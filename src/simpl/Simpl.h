//===- Simpl.h - Deep embedding of the Simpl language -----------*- C++ -*-===//
//
// Part of the autocorres-cpp project, under the BSD 2-Clause License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Schirmer-style Simpl: the deeply embedded imperative language the C
/// parser targets (Sec 2). Statements are a C++ datatype; the expressions
/// inside them (state updates, conditions, guards) are HOL terms over the
/// per-function state record, so everything downstream can manipulate them
/// logically.
///
/// The translation is intentionally verbose and literal, like the paper's
/// Fig 2: abrupt termination (return/break/continue) is encoded with
/// THROW/TRY-CATCH plus the `global_exn_var` ghost field, and Guard
/// statements rule out undefined behaviour (signed overflow, division by
/// zero, invalid pointer access, shifts out of range, falling off the end
/// of a non-void function).
///
//===----------------------------------------------------------------------===//

#ifndef AC_SIMPL_SIMPL_H
#define AC_SIMPL_SIMPL_H

#include "hol/Term.h"

#include <memory>
#include <string>
#include <vector>

namespace ac::simpl {

/// Why a guard was emitted (used in diagnostics and statistics).
enum class GuardKind {
  SignedOverflow, ///< signed arithmetic result out of [INT_MIN, INT_MAX]
  DivByZero,
  ShiftRange,
  PtrValid,  ///< alignment + non-NULL + no address wrap
  DontReach, ///< control falls off the end of a non-void function
};

const char *guardKindName(GuardKind K);

/// Annotation on TryCatch frames recording which control-flow idiom the
/// translator built them for. Purely descriptive (the semantics is the
/// generic TRY/CATCH one); downstream phases use it to recognise the
/// return/break/continue encoding without re-deriving it from the handler
/// shape.
enum class FrameKind {
  None,         ///< user-irrelevant / generic
  FunctionBody, ///< TRY body CATCH SKIP — catches Return
  LoopBreak,    ///< filter: Break is caught, everything else rethrown
  LoopContinue, ///< filter: Continue is caught, everything else rethrown
};

class SimplStmt;
using SimplStmtPtr = std::shared_ptr<const SimplStmt>;

/// One Simpl statement.
class SimplStmt {
public:
  enum class Kind {
    Skip,
    Basic,    ///< state update: Upd :: S => S
    Seq,      ///< A ;; B
    Cond,     ///< IF Cond THEN A ELSE B FI
    While,    ///< WHILE Cond DO A OD
    Guard,    ///< GUARD K Cond (fails when Cond is false)
    Throw,    ///< THROW (reason is in the global_exn_var ghost field)
    TryCatch, ///< TRY A CATCH B END
    Call,     ///< procedure call with evaluated arguments
  };

  Kind kind() const { return K; }

  hol::TermRef Upd;  ///< Basic
  hol::TermRef Cond; ///< Cond/While/Guard (S => bool)
  GuardKind GK = GuardKind::PtrValid;
  FrameKind Frame = FrameKind::None; ///< TryCatch annotation
  SimplStmtPtr A, B;

  // Call payload: callee, argument expressions (S => argTy), and an
  // optional result store (S => retTy => S).
  std::string Callee;
  std::vector<hol::TermRef> Args;
  hol::TermRef ResultStore;

  static SimplStmtPtr mkSkip();
  static SimplStmtPtr mkBasic(hol::TermRef Upd);
  static SimplStmtPtr mkSeq(SimplStmtPtr A, SimplStmtPtr B);
  /// Flattens a statement list into nested Seq (Skip for empty).
  static SimplStmtPtr mkSeqs(std::vector<SimplStmtPtr> Stmts);
  static SimplStmtPtr mkCond(hol::TermRef C, SimplStmtPtr A, SimplStmtPtr B);
  static SimplStmtPtr mkWhile(hol::TermRef C, SimplStmtPtr Body);
  static SimplStmtPtr mkGuard(GuardKind K, hol::TermRef C);
  static SimplStmtPtr mkThrow();
  static SimplStmtPtr mkTryCatch(SimplStmtPtr A, SimplStmtPtr B,
                                 FrameKind Frame = FrameKind::None);
  static SimplStmtPtr mkCall(std::string Callee,
                             std::vector<hol::TermRef> Args,
                             hol::TermRef ResultStore);

  /// Total HOL term size embedded in this statement tree plus one node per
  /// statement — the "term size" metric for the C-parser column of Table 5.
  unsigned termSize() const;

private:
  explicit SimplStmt(Kind K) : K(K) {}
  Kind K;
};

} // namespace ac::simpl

#endif // AC_SIMPL_SIMPL_H
