//===- UnifyTest.cpp - Pattern unification --------------------------------===//

#include "hol/Unify.h"

#include "hol/Builder.h"

#include <gtest/gtest.h>

using namespace ac::hol;

namespace {

TermRef var(const char *N, TypeRef Ty) { return Term::mkVar(N, 0, Ty); }

} // namespace

TEST(Unify, FirstOrder) {
  // ?x + 1 against 41 + 1.
  TermRef X = var("x", natTy());
  TermRef One = mkNumOf(natTy(), 1);
  TermRef Pat = mkPlus(X, One);
  TermRef T = mkPlus(mkNumOf(natTy(), 41), One);
  Subst S;
  ASSERT_TRUE(unifyTerms(Pat, T, S));
  EXPECT_TRUE(termEq(S.apply(Pat), T));
}

TEST(Unify, Clash) {
  TermRef Pat = mkPlus(var("x", natTy()), mkNumOf(natTy(), 1));
  TermRef T = mkTimes(mkNumOf(natTy(), 2), mkNumOf(natTy(), 1));
  Subst S;
  EXPECT_FALSE(unifyTerms(Pat, T, S));
}

TEST(Unify, OccursCheck) {
  // ?x against ?x + 1 must fail.
  TermRef X = var("x", natTy());
  TermRef T = mkPlus(X, mkNumOf(natTy(), 1));
  Subst S;
  EXPECT_FALSE(unifyTerms(X, T, S));
}

TEST(Unify, BothSidesSchematic) {
  // The paper's algorithm instantiates schematics in the *goal* from the
  // rule: ?A against f ?B.
  TermRef A = var("A", natTy());
  TermRef B = var("B", natTy());
  TermRef FB = mkPlus(B, mkNumOf(natTy(), 1));
  Subst S;
  ASSERT_TRUE(unifyTerms(A, FB, S));
  EXPECT_TRUE(termEq(S.apply(A), S.apply(FB)));
}

TEST(Unify, MillerPattern) {
  // ?F applied to a bound variable: %x. ?F x  ==  %x. x + 1
  TypeRef N = natTy();
  TermRef F = var("F", funTy(N, N));
  TermRef XF = Term::mkFree("x", N);
  TermRef Lhs = lambdaFree("x", N, Term::mkApp(F, XF));
  TermRef Rhs = lambdaFree("x", N, mkPlus(XF, mkNumOf(N, 1)));
  Subst S;
  ASSERT_TRUE(unifyTerms(Lhs, Rhs, S));
  // ?F must be %x. x + 1.
  const TermRef *Bound = S.lookup("F", 0);
  ASSERT_NE(Bound, nullptr);
  EXPECT_TRUE(termEq(S.apply(Lhs), S.apply(Rhs)));
  TermRef App = betaNorm(Term::mkApp(*Bound, mkNumOf(N, 41)));
  EXPECT_TRUE(termEq(App, mkPlus(mkNumOf(N, 41), mkNumOf(N, 1))));
}

TEST(Unify, PatternScopeViolation) {
  // %x. ?F  ==  %x. x  has no solution (?F cannot capture x).
  TypeRef N = natTy();
  TermRef F = var("F", N);
  TermRef Lhs = Term::mkLam("x", N, F);
  TermRef Rhs = Term::mkLam("x", N, Term::mkBound(0));
  Subst S;
  EXPECT_FALSE(unifyTerms(Lhs, Rhs, S));
}

TEST(Unify, TypeVariables) {
  // Polymorphic eq: ?a = ?b at type 'v against 1 = 2 at nat.
  TypeRef V = Type::var("v");
  TermRef A = var("a", V), B = var("b", V);
  TermRef Pat = mkEq(A, B);
  TermRef T = mkEq(mkNumOf(natTy(), 1), mkNumOf(natTy(), 2));
  Subst S;
  ASSERT_TRUE(unifyTerms(Pat, T, S));
  EXPECT_TRUE(typeEq(S.applyTy(V), natTy()));
}

TEST(Unify, MatchIsOneSided) {
  // In matching mode the right side's schematics are rigid.
  TermRef X = var("x", natTy());
  TermRef Y = var("y", natTy());
  // Pattern ?x matches anything...
  EXPECT_TRUE(matchTerm(X, mkNumOf(natTy(), 3)).has_value());
  // ...including a rigid schematic; but a rigid constant cannot match a
  // schematic target.
  EXPECT_TRUE(matchTerm(X, Y).has_value());
  EXPECT_FALSE(matchTerm(mkNumOf(natTy(), 3), Y).has_value());
}

TEST(Unify, FreshenSchematics) {
  TermRef X = var("x", natTy());
  TermRef T = mkPlus(X, X);
  TermRef F = freshenSchematics(T, 500);
  EXPECT_FALSE(termEq(T, F));
  // F is ?x' + ?x': both operands carry the freshened index.
  EXPECT_EQ(F->argTerm()->index(), 500u);
}
