//===- ParserTest.cpp - Lexer/parser/Sema ----------------------------------===//

#include "cparser/Parser.h"
#include "cparser/Sema.h"

#include <gtest/gtest.h>

using namespace ac;
using namespace ac::cparser;

namespace {

std::unique_ptr<TranslationUnit> parseOk(const std::string &Src) {
  DiagEngine Diags;
  auto TU = parseTranslationUnit(Src, Diags);
  EXPECT_TRUE(TU != nullptr) << Diags.str();
  if (TU) {
    EXPECT_TRUE(checkTranslationUnit(*TU, Diags)) << Diags.str();
  }
  return TU;
}

bool parseFails(const std::string &Src) {
  DiagEngine Diags;
  auto TU = parseTranslationUnit(Src, Diags);
  if (!TU)
    return true;
  return !checkTranslationUnit(*TU, Diags);
}

} // namespace

TEST(Parser, MaxFunction) {
  auto TU = parseOk("int max(int a, int b) {\n"
                    "  if (a < b)\n"
                    "    return b;\n"
                    "  return a;\n"
                    "}\n");
  ASSERT_TRUE(TU);
  const FuncDecl *F = TU->function("max");
  ASSERT_NE(F, nullptr);
  EXPECT_EQ(F->Params.size(), 2u);
  EXPECT_TRUE(F->RetType->isInt());
  EXPECT_EQ(TU->SourceLines, 5u);
}

TEST(Parser, StructsAndLayout) {
  auto TU = parseOk("struct node { struct node *next; unsigned data; };\n"
                    "unsigned get(struct node *p) { return p->data; }\n");
  ASSERT_TRUE(TU);
  const CStructInfo *Info = TU->Layout.lookupStruct("node");
  ASSERT_NE(Info, nullptr);
  EXPECT_EQ(Info->Size, 8u);
  EXPECT_EQ(Info->Align, 4u);
  EXPECT_EQ(Info->field("data")->Offset, 4u);
}

TEST(Parser, StructPadding) {
  auto TU = parseOk("struct mix { char c; unsigned x; short s; };\n"
                    "int dummy(void) { return 0; }\n");
  ASSERT_TRUE(TU);
  const CStructInfo *Info = TU->Layout.lookupStruct("mix");
  ASSERT_NE(Info, nullptr);
  EXPECT_EQ(Info->field("x")->Offset, 4u);
  EXPECT_EQ(Info->field("s")->Offset, 8u);
  EXPECT_EQ(Info->Size, 12u);
}

TEST(Parser, CompoundAssignDesugars) {
  auto TU = parseOk("unsigned f(unsigned x) { x += 2; x++; return x; }\n");
  const FuncDecl *F = TU->function("f");
  const Stmt &S = *F->Body->Body[0];
  ASSERT_EQ(S.K, Stmt::Kind::Assign);
  EXPECT_EQ(S.Value->K, Expr::Kind::Binary);
  EXPECT_EQ(S.Value->BOp, BinOp::Add);
}

TEST(Parser, SizeofAndCasts) {
  auto TU = parseOk("struct pairy { unsigned a; unsigned b; };\n"
                    "unsigned f(void) { return sizeof(struct pairy); }\n"
                    "int g(unsigned u) { return (int)u; }\n");
  const FuncDecl *F = TU->function("f");
  const Stmt &Ret = *F->Body->Body[0];
  // sizeof is resolved to an unsigned constant by Sema.
  ASSERT_EQ(Ret.Value->K, Expr::Kind::IntLit);
  EXPECT_EQ(Ret.Value->IntValue, 8);
  EXPECT_FALSE(Ret.Value->Type->isSigned());
}

TEST(Parser, ArrayIndexDesugarsToDeref) {
  auto TU =
      parseOk("unsigned f(unsigned *p) { return p[3]; }\n");
  const FuncDecl *F = TU->function("f");
  const Stmt &Ret = *F->Body->Body[0];
  // p[3] == *(p + 3).
  const Expr *E = Ret.Value.get();
  ASSERT_EQ(E->K, Expr::Kind::Unary);
  EXPECT_EQ(E->UOp, UnOp::Deref);
}

TEST(Parser, ForLoopsAndBreakContinue) {
  parseOk("int sum(int n) {\n"
          "  int s = 0;\n"
          "  for (int i = 0; i < n; i++) {\n"
          "    if (i == 3) continue;\n"
          "    if (i > 100) break;\n"
          "    s = s + i;\n"
          "  }\n"
          "  return s;\n"
          "}\n");
}

TEST(Sema, RejectsOutsideSubset) {
  EXPECT_TRUE(parseFails("int f(void) { goto end; end: return 0; }"));
  EXPECT_TRUE(parseFails("union u { int a; };"));
  EXPECT_TRUE(parseFails("float f(void) { return 0; }"));
  EXPECT_TRUE(parseFails("int f(int x) { switch (x) { } return 0; }"));
  // Address of a local (no references to local variables).
  EXPECT_TRUE(parseFails("int f(void) { int x = 0; int *p = &x; "
                          "return *p; }"));
  // Uncontrolled side-effects in expressions.
  EXPECT_TRUE(parseFails("int f(int x) { return x++; }"));
}

TEST(Sema, TypeErrors) {
  EXPECT_TRUE(parseFails("int f(void) { return y; }"));
  EXPECT_TRUE(parseFails("int f(int *p) { return p->data; }"));
  EXPECT_TRUE(parseFails("int f(int x) { x = f; return 0; }"));
  EXPECT_TRUE(parseFails("void g(void) {} int f(void) { return g(); }"));
  EXPECT_TRUE(parseFails("int f(int x) { int x = 2; return x; }"));
}

TEST(Sema, UsualArithmeticConversions) {
  auto TU = parseOk("unsigned f(int s, unsigned u) { return s + u; }\n");
  const FuncDecl *F = TU->function("f");
  const Stmt &Ret = *F->Body->Body[0];
  // s + u has unsigned type; s gets an inserted cast.
  const Expr *Sum = Ret.Value.get();
  ASSERT_EQ(Sum->K, Expr::Kind::Binary);
  EXPECT_TRUE(Sum->Type->isInt());
  EXPECT_FALSE(Sum->Type->isSigned());
  EXPECT_EQ(Sum->A->K, Expr::Kind::Cast);
}

TEST(Sema, PromotionOfNarrowTypes) {
  auto TU = parseOk("int f(char a, char b) { return a + b; }\n");
  const FuncDecl *F = TU->function("f");
  const Expr *Sum = F->Body->Body[0]->Value.get();
  ASSERT_EQ(Sum->K, Expr::Kind::Binary);
  EXPECT_EQ(Sum->Type->bits(), 32u);
  EXPECT_TRUE(Sum->Type->isSigned());
}

TEST(Sema, PointerComparisonsAndNull) {
  parseOk("struct node { struct node *next; };\n"
          "int empty(struct node *p) { return p == NULL; }\n");
}

TEST(Sema, HeapAddressOfIsAllowed) {
  parseOk("struct node { unsigned data; };\n"
          "unsigned *field(struct node *p) { return &p->data; }\n");
}

TEST(Parser, Recursion) {
  parseOk("unsigned fact(unsigned n) {\n"
          "  if (n == 0) return 1;\n"
          "  return n * fact(n - 1);\n"
          "}\n");
}

TEST(Parser, TokenDigestsIgnoreLayoutOnly) {
  const std::string Base = "struct p { int x; };\n"
                           "int g;\n"
                           "int f(int a) { return a + 1; }\n"
                           "int h(int b);\n"
                           "int k(int c) { return c; }\n";
  auto TU = parseOk(Base);
  ASSERT_TRUE(TU);
  // Struct, global and prototype; the two definitions keep their own.
  EXPECT_EQ(TU->DeclDigests.size(), 3u);
  const uint64_t F = TU->function("f")->TokenDigest;
  const uint64_t K = TU->function("k")->TokenDigest;
  EXPECT_NE(F, 0u);
  EXPECT_NE(F, K);

  auto Moved = parseOk("/* header */\nstruct p {\n  int x;\n};\n"
                       "int g; // counter\n\n"
                       "int f(int a)\n{\n  return a   +   1;\n}\n"
                       "int h(int b);\nint k(int c) { return c; }\n");
  ASSERT_TRUE(Moved);
  EXPECT_EQ(Moved->DeclDigests, TU->DeclDigests);
  EXPECT_EQ(Moved->function("f")->TokenDigest, F);
  EXPECT_EQ(Moved->function("k")->TokenDigest, K);

  // One literal changes exactly that definition's digest.
  auto Edited = parseOk("struct p { int x; };\nint g;\n"
                        "int f(int a) { return a + 2; }\n"
                        "int h(int b);\nint k(int c) { return c; }\n");
  ASSERT_TRUE(Edited);
  EXPECT_EQ(Edited->DeclDigests, TU->DeclDigests);
  EXPECT_NE(Edited->function("f")->TokenDigest, F);
  EXPECT_EQ(Edited->function("k")->TokenDigest, K);
}

TEST(Sema, HoistBaseNumbersTemporariesAcrossTheUnit) {
  auto TU = parseOk("int a(int x) { return x; }\n"
                    "int b(int x) { return a(x) + a(x); }\n"
                    "int c(int x) { return x; }\n"
                    "int d(int x) { return a(x) + 1; }\n");
  ASSERT_TRUE(TU);
  EXPECT_EQ(TU->function("b")->HoistBase, 0u); // call_tmp__0, __1
  EXPECT_EQ(TU->function("c")->HoistBase, 0u); // hoists nothing
  EXPECT_EQ(TU->function("d")->HoistBase, 2u); // call_tmp__2
}
