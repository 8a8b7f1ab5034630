//===- Parser.cpp ---------------------------------------------------------===//

#include "cparser/Parser.h"

#include "cparser/Lexer.h"
#include "support/Fingerprint.h"
#include "support/Trace.h"

using namespace ac;
using namespace ac::cparser;

ExprPtr ac::cparser::cloneExpr(const Expr &E) {
  auto C = std::make_unique<Expr>(E.K);
  C->Loc = E.Loc;
  C->Type = E.Type;
  C->IntValue = E.IntValue;
  C->Name = E.Name;
  C->IsGlobal = E.IsGlobal;
  C->UOp = E.UOp;
  C->BOp = E.BOp;
  C->Arrow = E.Arrow;
  C->CastType = E.CastType;
  if (E.A)
    C->A = cloneExpr(*E.A);
  if (E.B)
    C->B = cloneExpr(*E.B);
  if (E.C)
    C->C = cloneExpr(*E.C);
  for (const auto &Arg : E.Args)
    C->Args.push_back(cloneExpr(*Arg));
  return C;
}

namespace {

class Parser {
public:
  Parser(std::vector<Token> Toks, DiagEngine &Diags)
      : Toks(std::move(Toks)), Diags(Diags) {}

  std::unique_ptr<TranslationUnit> run() {
    auto TU = std::make_unique<TranslationUnit>();
    Unit = TU.get();
    while (!cur().is(TokKind::End)) {
      size_t Start = Pos, NumFns = Unit->Functions.size();
      if (!parseTopLevel())
        return nullptr;
      uint64_t Digest = tokenDigest(Start, Pos);
      if (Unit->Functions.size() != NumFns && Unit->Functions.back()->Body)
        Unit->Functions.back()->TokenDigest = Digest;
      else
        Unit->DeclDigests.push_back(Digest);
    }
    return TU;
  }

private:
  std::vector<Token> Toks;
  DiagEngine &Diags;
  size_t Pos = 0;
  TranslationUnit *Unit = nullptr;

  const Token &cur() const { return Toks[Pos]; }
  const Token &peek(size_t K = 1) const {
    return Toks[std::min(Pos + K, Toks.size() - 1)];
  }
  void advance() {
    if (Pos + 1 < Toks.size())
      ++Pos;
  }
  bool acceptPunct(const char *P) {
    if (cur().isPunct(P)) {
      advance();
      return true;
    }
    return false;
  }
  bool expectPunct(const char *P) {
    if (acceptPunct(P))
      return true;
    Diags.error(cur().Loc, std::string("expected '") + P + "' before '" +
                               cur().Text + "'");
    return false;
  }
  bool error(const std::string &Msg) {
    Diags.error(cur().Loc, Msg);
    return false;
  }

  /// Digest of the tokens in [Begin, End): kinds and spellings only, so
  /// layout and comments never reach it. Each token feeds its kind, its
  /// text and a NUL, which no spelling contains, so token boundaries are
  /// unambiguous.
  uint64_t tokenDigest(size_t Begin, size_t End) const {
    support::Fingerprint FP;
    for (size_t I = Begin; I != End; ++I) {
      const unsigned char Kind = static_cast<unsigned char>(Toks[I].Kind);
      FP.bytes(&Kind, 1);
      FP.bytes(Toks[I].Text.data(), Toks[I].Text.size() + 1);
    }
    return FP.digest();
  }

  //===--------------------------------------------------------------------===//
  // Types
  //===--------------------------------------------------------------------===//

  /// True if the current token starts a type.
  bool atTypeStart() const {
    return cur().isKeyword("void") || cur().isKeyword("int") ||
           cur().isKeyword("unsigned") || cur().isKeyword("signed") ||
           cur().isKeyword("char") || cur().isKeyword("short") ||
           cur().isKeyword("long") || cur().isKeyword("struct") ||
           cur().isKeyword("const");
  }

  /// Parses a base type (before the pointer declarator stars).
  CTypeRef parseBaseType() {
    // `const` is semantically inert in our verification subset.
    while (cur().isKeyword("const"))
      advance();
    if (cur().isKeyword("void")) {
      advance();
      return CType::voidTy();
    }
    if (cur().isKeyword("struct")) {
      advance();
      if (!cur().is(TokKind::Ident)) {
        error("expected struct name");
        return nullptr;
      }
      std::string Name = cur().Text;
      advance();
      return CType::structTy(Name);
    }
    bool Signed = true, SawSign = false, SawBase = false;
    unsigned Bits = 32;
    while (true) {
      if (cur().isKeyword("unsigned")) {
        Signed = false;
        SawSign = true;
        advance();
      } else if (cur().isKeyword("signed")) {
        Signed = true;
        SawSign = true;
        advance();
      } else if (cur().isKeyword("char")) {
        Bits = 8;
        SawBase = true;
        advance();
      } else if (cur().isKeyword("short")) {
        Bits = 16;
        SawBase = true;
        advance();
        if (cur().isKeyword("int"))
          advance();
      } else if (cur().isKeyword("long")) {
        Bits = 32; // ILP32: long is 32 bits
        SawBase = true;
        advance();
        if (cur().isKeyword("long")) {
          Bits = 64;
          advance();
        }
        if (cur().isKeyword("int"))
          advance();
      } else if (cur().isKeyword("int")) {
        SawBase = true;
        advance();
      } else {
        break;
      }
    }
    while (cur().isKeyword("const"))
      advance();
    if (!SawBase && !SawSign) {
      error("expected type");
      return nullptr;
    }
    return CType::intTy(Bits, Signed);
  }

  /// Applies pointer stars.
  CTypeRef parsePointers(CTypeRef Base) {
    while (cur().isPunct("*")) {
      advance();
      while (cur().isKeyword("const"))
        advance();
      Base = CType::pointerTo(std::move(Base));
    }
    return Base;
  }

  //===--------------------------------------------------------------------===//
  // Top level
  //===--------------------------------------------------------------------===//

  bool parseTopLevel() {
    // Rejected constructs with clear messages.
    if (cur().isKeyword("typedef") || cur().isKeyword("union") ||
        cur().isKeyword("float") || cur().isKeyword("double"))
      return error("'" + cur().Text + "' is outside the supported C subset");
    // Storage classes are accepted and ignored.
    while (cur().isKeyword("static") || cur().isKeyword("extern"))
      advance();

    if (cur().isKeyword("struct") && peek().is(TokKind::Ident) &&
        peek(2).isPunct("{"))
      return parseStructDef();

    CTypeRef Base = parseBaseType();
    if (!Base)
      return false;
    CTypeRef Ty = parsePointers(std::move(Base));
    if (!cur().is(TokKind::Ident))
      return error("expected declarator name");
    std::string Name = cur().Text;
    SourceLoc Loc = cur().Loc;
    advance();

    if (cur().isPunct("("))
      return parseFunctionRest(std::move(Ty), Name, Loc);

    // Global variable.
    GlobalVarDecl G;
    G.Name = Name;
    G.Type = std::move(Ty);
    G.Loc = Loc;
    if (acceptPunct("=")) {
      bool Neg = acceptPunct("-");
      if (!cur().is(TokKind::IntLit))
        return error("global initialisers must be integer constants");
      G.InitValue = Neg ? -cur().IntValue : cur().IntValue;
      advance();
    }
    if (!expectPunct(";"))
      return false;
    Unit->Globals.push_back(std::move(G));
    return true;
  }

  bool parseStructDef() {
    advance(); // struct
    std::string Name = cur().Text;
    advance();
    if (!expectPunct("{"))
      return false;
    std::vector<std::pair<std::string, CTypeRef>> Fields;
    while (!cur().isPunct("}")) {
      CTypeRef Base = parseBaseType();
      if (!Base)
        return false;
      // Multiple declarators per field line: `int a, b;`.
      while (true) {
        CTypeRef FTy = parsePointers(Base);
        if (!cur().is(TokKind::Ident))
          return error("expected field name");
        Fields.emplace_back(cur().Text, FTy);
        advance();
        if (cur().isPunct("["))
          return error("array fields are outside the supported subset");
        if (cur().isPunct(":"))
          return error("bitfields are outside the supported subset");
        if (acceptPunct(","))
          continue;
        break;
      }
      if (!expectPunct(";"))
        return false;
    }
    advance(); // }
    if (!expectPunct(";"))
      return false;
    // A struct may reference itself through pointers; layout only needs
    // pointer sizes, which are fixed, so defining after the scan is safe.
    Unit->Layout.defineStruct(Name, std::move(Fields));
    return true;
  }

  bool parseFunctionRest(CTypeRef RetTy, const std::string &Name,
                         SourceLoc Loc) {
    advance(); // (
    auto FD = std::make_unique<FuncDecl>();
    FD->Name = Name;
    FD->RetType = std::move(RetTy);
    FD->Loc = Loc;
    if (cur().isKeyword("void") && peek().isPunct(")")) {
      advance();
    }
    while (!cur().isPunct(")")) {
      CTypeRef Base = parseBaseType();
      if (!Base)
        return false;
      CTypeRef PTy = parsePointers(std::move(Base));
      std::string PName;
      if (cur().is(TokKind::Ident)) {
        PName = cur().Text;
        advance();
      }
      FD->Params.push_back({PName, std::move(PTy)});
      if (!cur().isPunct(")") && !expectPunct(","))
        return false;
    }
    advance(); // )
    if (acceptPunct(";")) {
      Unit->Functions.push_back(std::move(FD));
      return true; // prototype
    }
    StmtPtr Body = parseCompound();
    if (!Body)
      return false;
    FD->Body = std::move(Body);
    Unit->Functions.push_back(std::move(FD));
    return true;
  }

  //===--------------------------------------------------------------------===//
  // Statements
  //===--------------------------------------------------------------------===//

  StmtPtr parseCompound() {
    if (!expectPunct("{"))
      return nullptr;
    auto S = std::make_unique<Stmt>(Stmt::Kind::Compound);
    S->Loc = cur().Loc;
    while (!cur().isPunct("}")) {
      if (cur().is(TokKind::End)) {
        error("unexpected end of input in block");
        return nullptr;
      }
      StmtPtr Sub = parseStmt();
      if (!Sub)
        return nullptr;
      S->Body.push_back(std::move(Sub));
    }
    advance(); // }
    return S;
  }

  StmtPtr parseStmt() {
    SourceLoc Loc = cur().Loc;
    if (cur().isPunct("{"))
      return parseCompound();
    if (acceptPunct(";"))
      return std::make_unique<Stmt>(Stmt::Kind::Empty);
    if (cur().isKeyword("goto") || cur().isKeyword("switch")) {
      error("'" + cur().Text + "' is outside the supported C subset");
      return nullptr;
    }
    if (cur().isKeyword("if")) {
      advance();
      auto S = std::make_unique<Stmt>(Stmt::Kind::If);
      S->Loc = Loc;
      if (!expectPunct("("))
        return nullptr;
      S->Cond = parseExpr();
      if (!S->Cond || !expectPunct(")"))
        return nullptr;
      S->Then = parseStmt();
      if (!S->Then)
        return nullptr;
      if (cur().isKeyword("else")) {
        advance();
        S->Else = parseStmt();
        if (!S->Else)
          return nullptr;
      }
      return S;
    }
    if (cur().isKeyword("while")) {
      advance();
      auto S = std::make_unique<Stmt>(Stmt::Kind::While);
      S->Loc = Loc;
      if (!expectPunct("("))
        return nullptr;
      S->Cond = parseExpr();
      if (!S->Cond || !expectPunct(")"))
        return nullptr;
      S->Then = parseStmt();
      if (!S->Then)
        return nullptr;
      return S;
    }
    if (cur().isKeyword("do")) {
      advance();
      auto S = std::make_unique<Stmt>(Stmt::Kind::DoWhile);
      S->Loc = Loc;
      S->Then = parseStmt();
      if (!S->Then)
        return nullptr;
      if (!cur().isKeyword("while")) {
        error("expected 'while' after do-body");
        return nullptr;
      }
      advance();
      if (!expectPunct("("))
        return nullptr;
      S->Cond = parseExpr();
      if (!S->Cond || !expectPunct(")") || !expectPunct(";"))
        return nullptr;
      return S;
    }
    if (cur().isKeyword("for")) {
      advance();
      auto S = std::make_unique<Stmt>(Stmt::Kind::For);
      S->Loc = Loc;
      if (!expectPunct("("))
        return nullptr;
      if (!cur().isPunct(";")) {
        bool IsDecl = atTypeStart();
        S->ForInit = IsDecl ? parseDecl() : parseExprStmtNoSemi();
        if (!S->ForInit)
          return nullptr;
        // parseDecl consumes the semicolon itself.
        if (!IsDecl && !expectPunct(";"))
          return nullptr;
      } else {
        advance();
      }
      if (!cur().isPunct(";")) {
        S->Cond = parseExpr();
        if (!S->Cond)
          return nullptr;
      }
      if (!expectPunct(";"))
        return nullptr;
      if (!cur().isPunct(")")) {
        S->ForStep = parseExprStmtNoSemi();
        if (!S->ForStep)
          return nullptr;
      }
      if (!expectPunct(")"))
        return nullptr;
      S->Then = parseStmt();
      if (!S->Then)
        return nullptr;
      return S;
    }
    if (cur().isKeyword("return")) {
      advance();
      auto S = std::make_unique<Stmt>(Stmt::Kind::Return);
      S->Loc = Loc;
      if (!cur().isPunct(";")) {
        S->Value = parseExpr();
        if (!S->Value)
          return nullptr;
      }
      if (!expectPunct(";"))
        return nullptr;
      return S;
    }
    if (cur().isKeyword("break")) {
      advance();
      if (!expectPunct(";"))
        return nullptr;
      auto S = std::make_unique<Stmt>(Stmt::Kind::Break);
      S->Loc = Loc;
      return S;
    }
    if (cur().isKeyword("continue")) {
      advance();
      if (!expectPunct(";"))
        return nullptr;
      auto S = std::make_unique<Stmt>(Stmt::Kind::Continue);
      S->Loc = Loc;
      return S;
    }
    if (atTypeStart())
      return parseDecl();

    StmtPtr S = parseExprStmtNoSemi();
    if (!S || !expectPunct(";"))
      return nullptr;
    return S;
  }

  /// Local declaration `T x = init;` (semicolon consumed).
  StmtPtr parseDecl() {
    SourceLoc Loc = cur().Loc;
    CTypeRef Base = parseBaseType();
    if (!Base)
      return nullptr;
    // Support `T a = e, b = f;` by building a compound.
    auto Block = std::make_unique<Stmt>(Stmt::Kind::Compound);
    Block->Loc = Loc;
    while (true) {
      CTypeRef Ty = parsePointers(Base);
      if (!cur().is(TokKind::Ident)) {
        error("expected variable name in declaration");
        return nullptr;
      }
      auto S = std::make_unique<Stmt>(Stmt::Kind::Decl);
      S->Loc = cur().Loc;
      S->DeclName = cur().Text;
      S->DeclType = std::move(Ty);
      advance();
      if (cur().isPunct("[")) {
        error("local arrays are outside the supported subset");
        return nullptr;
      }
      if (acceptPunct("=")) {
        S->DeclInit = parseExpr();
        if (!S->DeclInit)
          return nullptr;
      }
      Block->Body.push_back(std::move(S));
      if (acceptPunct(","))
        continue;
      break;
    }
    if (!expectPunct(";"))
      return nullptr;
    if (Block->Body.size() == 1)
      return std::move(Block->Body.front());
    return Block;
  }

  /// Assignment / call / ++ / -- statement, without consuming ';'.
  StmtPtr parseExprStmtNoSemi() {
    SourceLoc Loc = cur().Loc;
    // Prefix increment/decrement.
    if (cur().isPunct("++") || cur().isPunct("--")) {
      bool Inc = cur().isPunct("++");
      advance();
      ExprPtr LHS = parseUnary();
      if (!LHS)
        return nullptr;
      return makeIncDec(std::move(LHS), Inc, Loc);
    }
    ExprPtr LHS = parseUnary();
    if (!LHS)
      return nullptr;
    if (cur().isPunct("++") || cur().isPunct("--")) {
      bool Inc = cur().isPunct("++");
      advance();
      return makeIncDec(std::move(LHS), Inc, Loc);
    }
    static const std::pair<const char *, BinOp> CompoundOps[] = {
        {"+=", BinOp::Add},    {"-=", BinOp::Sub},  {"*=", BinOp::Mul},
        {"/=", BinOp::Div},    {"%=", BinOp::Rem},  {"&=", BinOp::BitAnd},
        {"|=", BinOp::BitOr},  {"^=", BinOp::BitXor},
        {"<<=", BinOp::Shl},   {">>=", BinOp::Shr},
    };
    for (const auto &[P, Op] : CompoundOps) {
      if (cur().isPunct(P)) {
        advance();
        ExprPtr RHS = parseExpr();
        if (!RHS)
          return nullptr;
        auto Bin = std::make_unique<Expr>(Expr::Kind::Binary);
        Bin->Loc = Loc;
        Bin->BOp = Op;
        Bin->A = cloneExpr(*LHS);
        Bin->B = std::move(RHS);
        auto S = std::make_unique<Stmt>(Stmt::Kind::Assign);
        S->Loc = Loc;
        S->Target = std::move(LHS);
        S->Value = std::move(Bin);
        return S;
      }
    }
    if (acceptPunct("=")) {
      ExprPtr RHS = parseExpr();
      if (!RHS)
        return nullptr;
      auto S = std::make_unique<Stmt>(Stmt::Kind::Assign);
      S->Loc = Loc;
      S->Target = std::move(LHS);
      S->Value = std::move(RHS);
      return S;
    }
    // Must be a call used as a statement.
    if (LHS->K != Expr::Kind::Call) {
      Diags.error(Loc, "expression statements must be assignments or calls "
                       "(uncontrolled side-effects are unsupported)");
      return nullptr;
    }
    auto S = std::make_unique<Stmt>(Stmt::Kind::CallStmt);
    S->Loc = Loc;
    S->CallExpr = std::move(LHS);
    return S;
  }

  StmtPtr makeIncDec(ExprPtr LHS, bool Inc, SourceLoc Loc) {
    auto One = std::make_unique<Expr>(Expr::Kind::IntLit);
    One->Loc = Loc;
    One->IntValue = 1;
    auto Bin = std::make_unique<Expr>(Expr::Kind::Binary);
    Bin->Loc = Loc;
    Bin->BOp = Inc ? BinOp::Add : BinOp::Sub;
    Bin->A = cloneExpr(*LHS);
    Bin->B = std::move(One);
    auto S = std::make_unique<Stmt>(Stmt::Kind::Assign);
    S->Loc = Loc;
    S->Target = std::move(LHS);
    S->Value = std::move(Bin);
    return S;
  }

  //===--------------------------------------------------------------------===//
  // Expressions (precedence climbing)
  //===--------------------------------------------------------------------===//

  ExprPtr parseExpr() { return parseCond(); }

  ExprPtr parseCond() {
    ExprPtr C = parseBinary(0);
    if (!C)
      return nullptr;
    if (!cur().isPunct("?"))
      return C;
    SourceLoc Loc = cur().Loc;
    advance();
    ExprPtr A = parseExpr();
    if (!A || !expectPunct(":"))
      return nullptr;
    ExprPtr B = parseCond();
    if (!B)
      return nullptr;
    auto E = std::make_unique<Expr>(Expr::Kind::Cond);
    E->Loc = Loc;
    E->A = std::move(C);
    E->B = std::move(A);
    E->C = std::move(B);
    return E;
  }

  struct OpInfo {
    const char *P;
    BinOp Op;
    int Prec;
  };

  static const OpInfo *binOpInfo(const Token &T) {
    static const OpInfo Ops[] = {
        {"||", BinOp::LogOr, 1},   {"&&", BinOp::LogAnd, 2},
        {"|", BinOp::BitOr, 3},    {"^", BinOp::BitXor, 4},
        {"&", BinOp::BitAnd, 5},   {"==", BinOp::EqEq, 6},
        {"!=", BinOp::Ne, 6},      {"<", BinOp::Lt, 7},
        {">", BinOp::Gt, 7},       {"<=", BinOp::Le, 7},
        {">=", BinOp::Ge, 7},      {"<<", BinOp::Shl, 8},
        {">>", BinOp::Shr, 8},     {"+", BinOp::Add, 9},
        {"-", BinOp::Sub, 9},      {"*", BinOp::Mul, 10},
        {"/", BinOp::Div, 10},     {"%", BinOp::Rem, 10},
    };
    if (!T.is(TokKind::Punct))
      return nullptr;
    for (const OpInfo &O : Ops)
      if (T.Text == O.P)
        return &O;
    return nullptr;
  }

  ExprPtr parseBinary(int MinPrec) {
    ExprPtr LHS = parseUnary();
    if (!LHS)
      return nullptr;
    while (true) {
      const OpInfo *O = binOpInfo(cur());
      if (!O || O->Prec < MinPrec)
        return LHS;
      SourceLoc Loc = cur().Loc;
      advance();
      ExprPtr RHS = parseBinary(O->Prec + 1);
      if (!RHS)
        return nullptr;
      auto E = std::make_unique<Expr>(Expr::Kind::Binary);
      E->Loc = Loc;
      E->BOp = O->Op;
      E->A = std::move(LHS);
      E->B = std::move(RHS);
      LHS = std::move(E);
    }
  }

  ExprPtr parseUnary() {
    SourceLoc Loc = cur().Loc;
    auto MakeUn = [&](UnOp Op, ExprPtr Sub) {
      auto E = std::make_unique<Expr>(Expr::Kind::Unary);
      E->Loc = Loc;
      E->UOp = Op;
      E->A = std::move(Sub);
      return E;
    };
    if (acceptPunct("-")) {
      ExprPtr Sub = parseUnary();
      return Sub ? MakeUn(UnOp::Neg, std::move(Sub)) : nullptr;
    }
    if (acceptPunct("!")) {
      ExprPtr Sub = parseUnary();
      return Sub ? MakeUn(UnOp::LogNot, std::move(Sub)) : nullptr;
    }
    if (acceptPunct("~")) {
      ExprPtr Sub = parseUnary();
      return Sub ? MakeUn(UnOp::BitNot, std::move(Sub)) : nullptr;
    }
    if (acceptPunct("*")) {
      ExprPtr Sub = parseUnary();
      return Sub ? MakeUn(UnOp::Deref, std::move(Sub)) : nullptr;
    }
    if (acceptPunct("&")) {
      ExprPtr Sub = parseUnary();
      return Sub ? MakeUn(UnOp::AddrOf, std::move(Sub)) : nullptr;
    }
    if (acceptPunct("+")) // unary plus is a no-op
      return parseUnary();
    // Cast: '(' type ')' unary.
    if (cur().isPunct("(") && isTypeAhead()) {
      advance();
      CTypeRef Base = parseBaseType();
      if (!Base)
        return nullptr;
      CTypeRef Ty = parsePointers(std::move(Base));
      if (!expectPunct(")"))
        return nullptr;
      ExprPtr Sub = parseUnary();
      if (!Sub)
        return nullptr;
      auto E = std::make_unique<Expr>(Expr::Kind::Cast);
      E->Loc = Loc;
      E->CastType = std::move(Ty);
      E->A = std::move(Sub);
      return E;
    }
    if (cur().isKeyword("sizeof")) {
      advance();
      if (!expectPunct("("))
        return nullptr;
      CTypeRef Base = parseBaseType();
      if (!Base)
        return nullptr;
      CTypeRef Ty = parsePointers(std::move(Base));
      if (!expectPunct(")"))
        return nullptr;
      auto E = std::make_unique<Expr>(Expr::Kind::IntLit);
      E->Loc = Loc;
      // The value is filled by Sema (it owns the layout map).
      E->Name = "sizeof:" + Ty->str();
      E->CastType = std::move(Ty);
      return E;
    }
    return parsePostfix();
  }

  /// Lookahead: after '(' is there a type? (for cast detection)
  bool isTypeAhead() const {
    const Token &T = peek();
    return T.isKeyword("void") || T.isKeyword("int") ||
           T.isKeyword("unsigned") || T.isKeyword("signed") ||
           T.isKeyword("char") || T.isKeyword("short") ||
           T.isKeyword("long") || T.isKeyword("struct") ||
           T.isKeyword("const");
  }

  ExprPtr parsePostfix() {
    ExprPtr E = parsePrimary();
    if (!E)
      return nullptr;
    while (true) {
      SourceLoc Loc = cur().Loc;
      if (acceptPunct("->") || cur().isPunct(".")) {
        bool Arrow = Toks[Pos - 1].isPunct("->");
        if (!Arrow)
          advance(); // consume '.'
        if (!cur().is(TokKind::Ident)) {
          error("expected field name");
          return nullptr;
        }
        auto M = std::make_unique<Expr>(Expr::Kind::Member);
        M->Loc = Loc;
        M->Name = cur().Text;
        M->Arrow = Arrow;
        M->A = std::move(E);
        advance();
        E = std::move(M);
        continue;
      }
      if (cur().isPunct("[")) {
        // p[i] desugars to *(p + i).
        advance();
        ExprPtr Idx = parseExpr();
        if (!Idx || !expectPunct("]"))
          return nullptr;
        auto Add = std::make_unique<Expr>(Expr::Kind::Binary);
        Add->Loc = Loc;
        Add->BOp = BinOp::Add;
        Add->A = std::move(E);
        Add->B = std::move(Idx);
        auto D = std::make_unique<Expr>(Expr::Kind::Unary);
        D->Loc = Loc;
        D->UOp = UnOp::Deref;
        D->A = std::move(Add);
        E = std::move(D);
        continue;
      }
      if (cur().isPunct("(")) {
        if (E->K != Expr::Kind::VarRef) {
          error("calls through function pointers are unsupported");
          return nullptr;
        }
        advance();
        auto CallE = std::make_unique<Expr>(Expr::Kind::Call);
        CallE->Loc = Loc;
        CallE->Name = E->Name;
        while (!cur().isPunct(")")) {
          ExprPtr Arg = parseExpr();
          if (!Arg)
            return nullptr;
          CallE->Args.push_back(std::move(Arg));
          if (!cur().isPunct(")") && !expectPunct(","))
            return nullptr;
        }
        advance(); // )
        E = std::move(CallE);
        continue;
      }
      return E;
    }
  }

  ExprPtr parsePrimary() {
    SourceLoc Loc = cur().Loc;
    if (cur().is(TokKind::IntLit)) {
      auto E = std::make_unique<Expr>(Expr::Kind::IntLit);
      E->Loc = Loc;
      E->IntValue = cur().IntValue;
      if (cur().IsUnsignedLit)
        E->Name = "u"; // Sema reads this as "unsigned literal"
      advance();
      return E;
    }
    if (cur().isKeyword("NULL")) {
      advance();
      auto E = std::make_unique<Expr>(Expr::Kind::NullLit);
      E->Loc = Loc;
      return E;
    }
    if (cur().is(TokKind::Ident)) {
      auto E = std::make_unique<Expr>(Expr::Kind::VarRef);
      E->Loc = Loc;
      E->Name = cur().Text;
      advance();
      return E;
    }
    if (acceptPunct("(")) {
      ExprPtr E = parseExpr();
      if (!E || !expectPunct(")"))
        return nullptr;
      return E;
    }
    error("expected expression before '" + cur().Text + "'");
    return nullptr;
  }
};

} // namespace

std::unique_ptr<TranslationUnit> ac::cparser::parseTranslationUnit(
    const std::string &Source, DiagEngine &Diags) {
  unsigned CodeLines = 0;
  std::vector<Token> Toks;
  {
    AC_SPAN("cparser.lex");
    Toks = tokenize(Source, Diags, &CodeLines);
  }
  if (Diags.hasErrors())
    return nullptr;
  AC_SPAN("cparser.parse");
  Parser P(std::move(Toks), Diags);
  std::unique_ptr<TranslationUnit> TU = P.run();
  if (!TU || Diags.hasErrors())
    return nullptr;
  TU->SourceLines = CodeLines;
  return TU;
}
