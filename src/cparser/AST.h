//===- AST.h - C abstract syntax for the supported subset -------*- C++ -*-===//
//
// Part of the autocorres-cpp project, under the BSD 2-Clause License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The C AST produced by the parser and annotated by Sema. The subset
/// matches the paper (Sec 2): loops, function calls, type casting, pointer
/// arithmetic, structures and recursion — but no references to local
/// variables, no goto, no uncontrolled side-effects in expressions (so
/// assignments and calls only appear at statement positions), no
/// fall-through switch, no unions, no floats, no function pointers.
///
//===----------------------------------------------------------------------===//

#ifndef AC_CPARSER_AST_H
#define AC_CPARSER_AST_H

#include "cparser/CTypes.h"
#include "support/Diagnostics.h"

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace ac::cparser {

//===----------------------------------------------------------------------===//
// Expressions
//===----------------------------------------------------------------------===//

enum class UnOp { Neg, LogNot, BitNot, Deref, AddrOf };

enum class BinOp {
  Add, Sub, Mul, Div, Rem,
  Shl, Shr, BitAnd, BitOr, BitXor,
  Lt, Gt, Le, Ge, EqEq, Ne,
  LogAnd, LogOr,
};

class Expr {
public:
  enum class Kind {
    IntLit,    ///< integer constant (value + type)
    NullLit,   ///< NULL
    VarRef,    ///< local, parameter or global variable
    Unary,     ///< UnOp
    Binary,    ///< BinOp
    Cond,      ///< c ? a : b
    Cast,      ///< (T)e — explicit or Sema-inserted conversion
    Member,    ///< e.f / p->f (Arrow distinguishes)
    Call,      ///< f(args) — statement position only
  };

  Kind K;
  SourceLoc Loc;
  CTypeRef Type; ///< filled by Sema

  // IntLit.
  long long IntValue = 0;
  // VarRef / Member field name / Call callee.
  std::string Name;
  bool IsGlobal = false; ///< VarRef resolved to a global (Sema)
  // Unary/Binary/Cond/Cast/Member children.
  UnOp UOp = UnOp::Neg;
  BinOp BOp = BinOp::Add;
  bool Arrow = false;
  std::unique_ptr<Expr> A, B, C;
  std::vector<std::unique_ptr<Expr>> Args; ///< Call arguments
  CTypeRef CastType;                       ///< Cast target

  explicit Expr(Kind K) : K(K) {}
};

using ExprPtr = std::unique_ptr<Expr>;

//===----------------------------------------------------------------------===//
// Statements
//===----------------------------------------------------------------------===//

class Stmt {
public:
  enum class Kind {
    Compound,
    If,
    While,
    DoWhile,
    For,
    Return,   ///< optional value
    Break,
    Continue,
    Decl,     ///< local declaration with optional init
    Assign,   ///< lhs = rhs (compound assignments desugared by the parser)
    CallStmt, ///< expression statement that is a call
    Empty,
  };

  Kind K;
  SourceLoc Loc;

  std::vector<std::unique_ptr<Stmt>> Body; ///< Compound
  ExprPtr Cond;                            ///< If/While/DoWhile/For
  std::unique_ptr<Stmt> Then, Else;        ///< If; loop body in Then
  std::unique_ptr<Stmt> ForInit, ForStep;  ///< For
  ExprPtr Value;                           ///< Return value / Assign rhs
  ExprPtr Target;                          ///< Assign lhs
  ExprPtr CallExpr;                        ///< CallStmt
  // Decl.
  std::string DeclName;
  CTypeRef DeclType;
  ExprPtr DeclInit;

  explicit Stmt(Kind K) : K(K) {}
};

using StmtPtr = std::unique_ptr<Stmt>;

//===----------------------------------------------------------------------===//
// Top level
//===----------------------------------------------------------------------===//

struct ParamDecl {
  std::string Name;
  CTypeRef Type;
};

struct FuncDecl {
  std::string Name;
  CTypeRef RetType;
  std::vector<ParamDecl> Params;
  StmtPtr Body; ///< null for a prototype
  SourceLoc Loc;
  /// Digest of the definition's tokens (kinds and spellings, never
  /// locations), recorded by the parser: whitespace and comments do not
  /// move it. Zero for a prototype, whose tokens land in
  /// TranslationUnit::DeclDigests instead.
  uint64_t TokenDigest = 0;
  /// Index of the first `call_tmp__N` temporary Sema's call hoisting gave
  /// this function (0 when it hoisted none). The counter runs across the
  /// whole unit, so a hoisted call added to an earlier function renames
  /// this one's temporaries.
  unsigned HoistBase = 0;
};

struct GlobalVarDecl {
  std::string Name;
  CTypeRef Type;
  long long InitValue = 0; ///< integers/pointers only; 0-initialised
  SourceLoc Loc;
};

/// A parsed translation unit.
struct TranslationUnit {
  LayoutMap Layout;
  std::vector<std::unique_ptr<FuncDecl>> Functions;
  std::vector<GlobalVarDecl> Globals;

  /// The definition of \p Name when the unit has one, else its first
  /// declaration (a prototype); null when \p Name is undeclared.
  const FuncDecl *function(const std::string &Name) const {
    const FuncDecl *First = nullptr;
    for (const auto &F : Functions)
      if (F->Name == Name) {
        if (F->Body)
          return F.get();
        if (!First)
          First = F.get();
      }
    return First;
  }
  const GlobalVarDecl *global(const std::string &Name) const {
    for (const GlobalVarDecl &G : Globals)
      if (G.Name == Name)
        return &G;
    return nullptr;
  }

  /// Counts physical source lines that contain code (the Table 5 LoC
  /// metric); recorded by the parser.
  unsigned SourceLines = 0;
  /// Token digests (as FuncDecl::TokenDigest) of every top-level
  /// declaration that is not a function definition — structs, globals,
  /// prototypes — in source order; recorded by the parser.
  std::vector<uint64_t> DeclDigests;
};

} // namespace ac::cparser

#endif // AC_CPARSER_AST_H
