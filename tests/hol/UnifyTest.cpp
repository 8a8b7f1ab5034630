//===- UnifyTest.cpp - Pattern unification --------------------------------===//

#include "hol/Unify.h"

#include "hol/Builder.h"
#include "hol/Generation.h"

#include <gtest/gtest.h>

using namespace ac::hol;

namespace {

TermRef var(const char *N, TypeRef Ty) { return Term::mkVar(N, 0, Ty); }

/// Instantiation in one walk, types and schematics together, with no
/// memo: the reference the memoised type pass must agree with node for
/// node.
TermRef onePass(const Subst &S, const TermRef &T) {
  if (!T->hasSchematic() && !T->hasTyVar())
    return T;
  switch (T->kind()) {
  case Term::Kind::Const:
    return Term::mkConst(T->name(), S.applyTy(T->type()));
  case Term::Kind::Free:
    return Term::mkFree(T->name(), S.applyTy(T->type()));
  case Term::Kind::Num:
    return Term::mkNum(T->value(), S.applyTy(T->type()));
  case Term::Kind::Var:
    if (const TermRef *B = S.lookup(T->name(), T->index()))
      return onePass(S, *B);
    return Term::mkVar(T->name(), T->index(), S.applyTy(T->type()));
  case Term::Kind::Lam:
    return Term::mkLam(T->name(), S.applyTy(T->type()),
                       onePass(S, T->body()));
  case Term::Kind::App:
    return Term::mkApp(onePass(S, T->fun()), onePass(S, T->argTerm()));
  case Term::Kind::Bound:
    return T;
  }
  return T;
}

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

/// The memoised type pass hands out the node a one-pass walk builds: for
/// one type instance under two term bindings, for a second type
/// instance, with a type variable left unbound, and when a binding's own
/// type names a bound type variable. Each case runs against a cold and
/// a warm memo, in the base and in a fresh scope.
TEST(Unify, TypeInstancesAreExact) {
  TypeRef A = Type::var("ti_a"), B = Type::var("ti_b");
  TermRef F = var("f", funTy(A, B));
  TermRef X = var("x", A);
  TermRef Y = var("y", B);
  TermRef Rule = mkConj(mkEq(Term::mkApp(F, X), Y),
                        mkEq(Term::mkConst("ti_k", funTy(A, B)), F));
  auto At = [](TypeRef TA, TypeRef TB,
               std::vector<std::pair<const char *, TermRef>> Tms) {
    Subst S;
    if (TA)
      S.bindTy("ti_a", TA);
    if (TB)
      S.bindTy("ti_b", TB);
    for (auto &[N, T] : Tms)
      S.bind(N, 0, T);
    return S;
  };
  std::vector<Subst> Cases = {
      At(natTy(), boolTy(), {{"x", mkNumOf(natTy(), 1)}}),
      At(natTy(), boolTy(), {{"x", mkNumOf(natTy(), 2)}, {"y", mkTrue()}}),
      At(wordTy(32), natTy(), {{"x", mkNumOf(wordTy(32), 3)}}),
      At(natTy(), nullptr, {{"x", mkNumOf(natTy(), 4)}}),
      At(natTy(), boolTy(), {{"x", Term::mkFree("ti_c", A)}}),
  };
  std::vector<TermRef> Want;
  for (const Subst &S : Cases)
    Want.push_back(betaNorm(onePass(S, Rule)));
  EXPECT_TRUE(Want[3]->hasTyVar()) << "ti_b should stay unbound";
  EXPECT_FALSE(Want[4]->hasTyVar()) << "ti_c's type should be resolved";
  auto CheckAll = [&](const char *Where) {
    for (int Pass = 0; Pass != 2; ++Pass)
      for (size_t I = 0; I != Cases.size(); ++I)
        EXPECT_EQ(Cases[I].apply(Rule).get(), Want[I].get())
            << Where << ", case " << I << ", pass " << Pass;
  };
  CheckAll("base");
  GenerationScope Scope;
  CheckAll("scope");
}

/// The term pass contracts each redex where a binding forms it, so
/// apply() must still hand out betaNorm of the plain substitution: a
/// schematic function applied under a binder and at the root, a
/// projection of a bound pair, and a rule that is itself a projection
/// redex over a schematic the substitution leaves unbound.
TEST(Unify, InstantiationContractsTheRedexesItForms) {
  TypeRef Nat = natTy(), Pr = prodTy(natTy(), boolTy());
  TermRef R = var("ic_R", funTy(Nat, boolTy()));
  TermRef F = var("ic_F", funTy(Nat, Nat));
  TermRef X = var("ic_x", Nat);
  TermRef P = var("ic_p", Pr);
  TermRef G = Term::mkFree("ic_g", funTy(Nat, Nat));
  TermRef Fst = Term::mkConst("fst", funTy(Pr, Nat));
  TermRef Under = Term::mkLam("r", Nat, Term::mkApp(R, Term::mkBound(0)));
  TermRef Root = mkEq(Term::mkApp(F, X), Term::mkApp(Fst, P));
  TermRef Stuck = mkEq(Term::mkApp(Fst, mkPair(var("ic_a", Nat), mkTrue())),
                       X);
  Subst S;
  S.bind("ic_x", 0, mkNumOf(Nat, 7));
  TermRef H = Term::mkFree("ic_h", funTy(Nat, boolTy()));
  S.bind("ic_R", 0, Term::mkLam("y", Nat, Term::mkApp(H, Term::mkBound(0))));
  S.bind("ic_F", 0, Term::mkLam("y", Nat, Term::mkApp(G, Term::mkBound(0))));
  S.bind("ic_p", 0, mkPair(Term::mkApp(G, X), mkTrue()));
  for (const TermRef &T : {Under, Root, Stuck}) {
    TermRef Got = S.apply(T);
    EXPECT_EQ(Got.get(), betaNorm(onePass(S, T)).get());
    EXPECT_TRUE(Got->isBetaNormal());
  }
  EXPECT_EQ(S.apply(Stuck).get(),
            mkEq(var("ic_a", Nat), mkNumOf(Nat, 7)).get());
  EXPECT_EQ(S.apply(Under).get(),
            Term::mkLam("r", Nat, Term::mkApp(H, Term::mkBound(0))).get());
}

/// The bindings are listed sorted by key, as the certificate writer
/// serializes them, and binding a key again replaces its term.
TEST(Unify, BindingsStaySortedAndRebindingReplaces) {
  TermRef One = mkNumOf(natTy(), 1), Two = mkNumOf(natTy(), 2);
  Subst S;
  S.bind("b", 0, One);
  S.bind("a", 1, One);
  S.bind("a", 0, One);
  S.bind("b", 0, Two);
  S.bindTy("t2", natTy());
  S.bindTy("t1", boolTy());
  ASSERT_EQ(S.tmBindings().size(), 3u);
  EXPECT_EQ(S.tmBindings()[0].first, std::make_pair(std::string("a"), 0u));
  EXPECT_EQ(S.tmBindings()[1].first, std::make_pair(std::string("a"), 1u));
  EXPECT_EQ(S.tmBindings()[2].first, std::make_pair(std::string("b"), 0u));
  EXPECT_EQ(S.lookup("b", 0)->get(), Two.get());
  EXPECT_EQ(S.lookup("b", 1), nullptr);
  ASSERT_EQ(S.tyBindings().size(), 2u);
  EXPECT_EQ(S.tyBindings()[0].first, "t1");
  EXPECT_EQ(S.applyTy(Type::var("t2")).get(), natTy().get());
}
