//===- TermTest.cpp - Terms, types, printing ------------------------------===//

#include "hol/Builder.h"
#include "hol/GroundEval.h"
#include "hol/Print.h"

#include <gtest/gtest.h>

using namespace ac::hol;

TEST(Types, Basics) {
  EXPECT_TRUE(typeEq(wordTy(32), wordTy(32)));
  EXPECT_FALSE(typeEq(wordTy(32), swordTy(32)));
  EXPECT_TRUE(isWordTy(wordTy(8)));
  EXPECT_TRUE(isSwordTy(swordTy(64)));
  EXPECT_EQ(wordBits(wordTy(16)), 16u);
  TypeRef F = funTy(natTy(), boolTy());
  EXPECT_TRUE(isFunTy(F));
  EXPECT_TRUE(typeEq(domTy(F), natTy()));
  EXPECT_TRUE(typeEq(ranTy(F), boolTy()));
  EXPECT_EQ(typeStr(funTy(ptrTy(wordTy(32)), boolTy())),
            "word32 ptr => bool");
}

TEST(Terms, BetaAndSubst) {
  // (%x. x + 1) 41  -->  41 + 1
  TermRef One = mkNumOf(natTy(), 1);
  TermRef X = Term::mkFree("x", natTy());
  TermRef Lam = lambdaFree("x", natTy(), mkPlus(X, One));
  TermRef App = Term::mkApp(Lam, mkNumOf(natTy(), 41));
  TermRef Norm = betaNorm(App);
  EXPECT_TRUE(termEq(Norm, mkPlus(mkNumOf(natTy(), 41), One)));
}

TEST(Terms, SizeMetric) {
  TermRef A = Term::mkFree("a", natTy());
  TermRef T = mkPlus(A, A); // plus, a, a plus two Apps
  EXPECT_EQ(termSize(T), 5u);
}

TEST(Terms, LambdaFreeRoundTrip) {
  TermRef A = Term::mkFree("a", natTy());
  TermRef B = Term::mkFree("b", natTy());
  TermRef T = mkPlus(A, B);
  TermRef L = lambdaFree("a", natTy(), T);
  EXPECT_EQ(L->kind(), Term::Kind::Lam);
  // Applying to a again gives back the original.
  TermRef Back = betaNorm(Term::mkApp(L, A));
  EXPECT_TRUE(termEq(Back, T));
  // Applying to something else substitutes.
  TermRef Zero = mkNumOf(natTy(), 0);
  TermRef Sub = betaNorm(Term::mkApp(L, Zero));
  EXPECT_TRUE(termEq(Sub, mkPlus(Zero, B)));
}

TEST(Terms, LambdaFreeKeepsUntouchedSubterms) {
  // Abstracting a name that does not occur returns the body itself, the
  // same interned node, under a binder or not.
  TermRef A = Term::mkFree("a", natTy());
  TermRef B = Term::mkFree("b", natTy());
  TermRef T = mkPlus(mkPlus(A, B), mkNumOf(natTy(), 3));
  EXPECT_EQ(lambdaFree("c", natTy(), T)->body().get(), T.get());
  TermRef Beta = Term::mkApp(lambdaFree("b", natTy(), mkPlus(B, A)), A);
  EXPECT_EQ(lambdaFree("c", natTy(), Beta)->body().get(), Beta.get());
  // Where the name occurs, the subterms without it are kept as they are.
  TermRef Left = mkPlus(B, B);
  TermRef L = lambdaFree("a", natTy(), mkPlus(Left, A));
  EXPECT_NE(L->body().get(), mkPlus(Left, A).get());
  EXPECT_EQ(L->body()->fun()->argTerm().get(), Left.get());
  // A loose bound still moves past the new binder.
  TermRef F = Term::mkFree("f", funTy(natTy(), natTy()));
  TermRef Loose = Term::mkApp(F, Term::mkBound(0));
  TermRef LL = lambdaFree("c", natTy(), Loose);
  EXPECT_EQ(LL->body().get(), Term::mkApp(F, Term::mkBound(1)).get());
}

TEST(Terms, FreeVars) {
  TermRef A = Term::mkFree("a", natTy());
  TermRef B = Term::mkFree("b", natTy());
  TermRef T = mkPlus(A, mkPlus(B, A));
  std::vector<std::string> FV = freeVars(T);
  ASSERT_EQ(FV.size(), 2u);
  EXPECT_EQ(FV[0], "a");
  EXPECT_EQ(FV[1], "b");
  EXPECT_TRUE(occursFree(T, "a"));
  EXPECT_FALSE(occursFree(T, "c"));
}

TEST(GroundEval, IdealArithmetic) {
  // nat subtraction truncates.
  TermRef T = mkMinus(mkNumOf(natTy(), 3), mkNumOf(natTy(), 5));
  auto V = groundEval(T);
  ASSERT_TRUE(V.has_value());
  EXPECT_EQ(static_cast<long long>(V->N), 0);
  // int subtraction does not.
  TermRef T2 = mkMinus(mkNumOf(intTy(), 3), mkNumOf(intTy(), 5));
  auto V2 = groundEval(T2);
  ASSERT_TRUE(V2.has_value());
  EXPECT_EQ(static_cast<long long>(V2->N), -2);
  // div by zero is zero (Isabelle convention).
  TermRef T3 = mkDiv(mkNumOf(natTy(), 7), mkNumOf(natTy(), 0));
  EXPECT_EQ(static_cast<long long>(groundEval(T3)->N), 0);
}

TEST(GroundEval, WordWraparound) {
  // Table 2 row 3: u + 1 > u fails at u = 2^32 - 1.
  TypeRef W = wordTy(32);
  TermRef U = mkNumOf(W, wordMaxVal(32));
  TermRef Sum = mkPlus(U, mkNumOf(W, 1));
  auto V = groundEval(Sum);
  ASSERT_TRUE(V.has_value());
  EXPECT_EQ(static_cast<long long>(V->N), 0);
  // Signed wrap: INT_MAX + 1 = INT_MIN in the two's complement carrier.
  TypeRef S = swordTy(32);
  TermRef M = mkPlus(mkNumOf(S, swordMaxVal(32)), mkNumOf(S, 1));
  EXPECT_EQ(static_cast<long long>(groundEval(M)->N),
            static_cast<long long>(swordMinVal(32)));
}

TEST(GroundEval, ProveGround) {
  TermRef Goal = mkLess(mkNumOf(natTy(), 3), mkNumOf(natTy(), 5));
  auto Thm = proveGround(Goal);
  ASSERT_TRUE(Thm.has_value());
  EXPECT_TRUE(termEq(Thm->prop(), Goal));
  TermRef Bad = mkLess(mkNumOf(natTy(), 5), mkNumOf(natTy(), 3));
  EXPECT_FALSE(proveGround(Bad).has_value());
}

TEST(Print, InfixAndWordSubscripts) {
  TermRef A = Term::mkFree("a", wordTy(32));
  TermRef B = Term::mkFree("b", wordTy(32));
  EXPECT_EQ(printTerm(mkPlus(A, B)), "a +w b");
  TermRef AS = Term::mkFree("a", swordTy(32));
  TermRef BS = Term::mkFree("b", swordTy(32));
  EXPECT_EQ(printTerm(mkLess(AS, BS)), "a <s b");
  TermRef AN = Term::mkFree("a", natTy());
  TermRef BN = Term::mkFree("b", natTy());
  EXPECT_EQ(printTerm(mkPlus(AN, BN)), "a + b");
}

TEST(Print, DoNotation) {
  TypeRef S = recordTy("st");
  TermRef M = mkGets(S, unitTy(),
                     Term::mkLam("s", S, mkNumOf(natTy(), 1)));
  TermRef V = Term::mkFree("v", natTy());
  TermRef Prog = mkBind(
      M, lambdaFree("v", natTy(), mkReturn(S, unitTy(), V)));
  std::string Out = printTerm(Prog);
  EXPECT_NE(Out.find("do "), std::string::npos);
  EXPECT_NE(Out.find("od"), std::string::npos);
  EXPECT_NE(Out.find("←"), std::string::npos);
}

TEST(Print, SpecLines) {
  TermRef A = Term::mkFree("a", natTy());
  EXPECT_EQ(specLines(A), 1u);
}
