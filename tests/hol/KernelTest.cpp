//===- KernelTest.cpp - LCF kernel ----------------------------------------===//

#include "hol/GroundEval.h"
#include "hol/Print.h"
#include "hol/Thm.h"

#include <gtest/gtest.h>

using namespace ac::hol;
namespace nm = ac::hol::names;

TEST(Kernel, MpAndInstantiate) {
  TermRef P = Term::mkFree("P", boolTy());
  TermRef Q = Term::mkFree("Q", boolTy());
  Thm Ax = Kernel::axiom("test.pq", mkImp(P, Q));
  Thm PThm = Kernel::axiom("test.p", P);
  Thm QThm = Kernel::mp(Ax, PThm);
  EXPECT_TRUE(termEq(QThm.prop(), Q));
  std::set<std::string> Axs, Oracles;
  collectLeaves(QThm, Axs, Oracles);
  EXPECT_TRUE(Axs.count("test.pq"));
  EXPECT_TRUE(Axs.count("test.p"));
  EXPECT_TRUE(Oracles.empty());
}

TEST(Kernel, EquationalRules) {
  TermRef A = Term::mkFree("a", natTy());
  Thm R = Kernel::refl(A);
  Thm S = Kernel::sym(R);
  Thm T = Kernel::trans(R, S);
  TermRef L, Rr;
  ASSERT_TRUE(destEq(T.prop(), L, Rr));
  EXPECT_TRUE(termEq(L, A));
  EXPECT_TRUE(termEq(Rr, A));
}

TEST(Kernel, GeneralizeSpec) {
  TermRef X = Term::mkFree("x", natTy());
  Thm Base = Kernel::axiom("test.le_refl_x", mkLessEq(X, X));
  Thm All = Kernel::generalize("x", natTy(), Base);
  TermRef Lam;
  ASSERT_TRUE(destAll(All.prop(), Lam));
  Thm At7 = Kernel::spec(All, mkNumOf(natTy(), 7));
  EXPECT_TRUE(termEq(At7.prop(),
                     mkLessEq(mkNumOf(natTy(), 7), mkNumOf(natTy(), 7))));
}

TEST(Kernel, OracleTracking) {
  auto T = proveGround(mkLess(mkNumOf(natTy(), 1), mkNumOf(natTy(), 2)));
  ASSERT_TRUE(T.has_value());
  std::set<std::string> Axs, Oracles;
  collectLeaves(*T, Axs, Oracles);
  EXPECT_TRUE(Oracles.count("ground_eval"));
}

TEST(Kernel, InventoryRegistersAxioms) {
  Kernel::axiom("test.inventory_probe",
                mkEq(mkNumOf(natTy(), 1), mkNumOf(natTy(), 1)));
  EXPECT_TRUE(Inventory::instance().hasAxiom("test.inventory_probe"));
}
