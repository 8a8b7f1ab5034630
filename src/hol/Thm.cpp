//===- Thm.cpp ------------------------------------------------------------===//

#include "hol/Thm.h"

#include "hol/Cert.h"
#include "hol/Generation.h"
#include "hol/Print.h"

#include <cstdio>
#include <functional>

using namespace ac::hol;
namespace nm = ac::hol::names;

std::string Thm::str() const {
  if (!Prop)
    return "<invalid theorem>";
  return printTerm(Prop);
}

Inventory &Inventory::instance() {
  static Inventory I;
  return I;
}

void Inventory::registerAxiom(const std::string &Name, const TermRef &Prop) {
  Generation *G = Generation::current();
  {
    std::lock_guard<std::mutex> L(M);
    auto It = Axioms.find(Name);
    if (It != Axioms.end()) {
      assert(termEq(It->second, Prop) &&
             "axiom re-registered with a different proposition");
      return;
    }
    if (!G) {
      Axioms.emplace(Name, Prop);
      return;
    }
  }
  G->registerAxiom(Name, Prop);
}

bool Inventory::hasAxiom(const std::string &Name) const {
  {
    std::lock_guard<std::mutex> L(M);
    if (Axioms.count(Name))
      return true;
  }
  const Generation *G = Generation::current();
  return G && G->hasAxiom(Name);
}

std::map<std::string, TermRef> Inventory::axioms() const {
  std::map<std::string, TermRef> All;
  {
    std::lock_guard<std::mutex> L(M);
    All = Axioms;
  }
  if (const Generation *G = Generation::current())
    G->addAxioms(All);
  return All;
}

void Generation::registerAxiom(const std::string &Name,
                               const TermRef &Prop) {
  std::lock_guard<std::mutex> L(M);
  auto [It, Fresh] = Axioms.emplace(Name, Prop);
  assert((Fresh || termEq(It->second, Prop)) &&
         "axiom re-registered with a different proposition");
  (void)It;
  (void)Fresh;
}

bool Generation::hasAxiom(const std::string &Name) const {
  std::lock_guard<std::mutex> L(M);
  return Axioms.count(Name) != 0;
}

void Generation::addAxioms(std::map<std::string, TermRef> &Into) const {
  std::lock_guard<std::mutex> L(M);
  Into.insert(Axioms.begin(), Axioms.end());
}

void Inventory::noteOracle(const std::string &Name) {
  std::lock_guard<std::mutex> L(M);
  Oracles.insert(Name);
}

Thm Kernel::make(TermRef Prop, Deriv::Kind K, const std::string &Name,
                 std::vector<DerivRef> Premises,
                 std::shared_ptr<const Deriv::Replay> R) {
  DerivRef D = std::make_shared<Deriv>(K, Name, std::move(Premises), Prop,
                                       std::move(R));
  return Thm(std::move(Prop), std::move(D));
}

Thm Kernel::axiom(const std::string &Name, TermRef Prop) {
  assert(Prop->maxLoose() == 0 && "axiom proposition has loose bounds");
  Inventory::instance().registerAxiom(Name, Prop);
  return make(std::move(Prop), Deriv::Kind::Axiom, Name, {});
}

Thm Kernel::oracle(const std::string &Name, TermRef Prop) {
  assert(Prop->maxLoose() == 0 && "oracle proposition has loose bounds");
  Inventory::instance().noteOracle(Name);
  return make(std::move(Prop), Deriv::Kind::Oracle, Name, {});
}

Thm Kernel::trivial(TermRef P) {
  TermRef Prop = mkImp(P, P);
  return make(std::move(Prop), Deriv::Kind::Rule, "trivial", {});
}

Thm Kernel::instantiate(const Thm &T, const Subst &S) {
  if (S.empty())
    return T;
  TermRef P = S.apply(T.prop());
  std::shared_ptr<const Deriv::Replay> R;
  if (CertLog::enabled())
    R = std::make_shared<const Deriv::Replay>(Deriv::Replay{S, nullptr});
  return make(std::move(P), Deriv::Kind::Rule, "instantiate", {T.deriv()},
              std::move(R));
}

Thm Kernel::mp(const Thm &AB, const Thm &A) {
  TermRef L, R;
  bool IsImp = destImp(AB.prop(), L, R);
  assert(IsImp && "mp: major premise is not an implication");
  (void)IsImp;
  assert(termEq(L, A.prop()) && "mp: minor premise mismatch");
  return make(R, Deriv::Kind::Rule, "mp", {AB.deriv(), A.deriv()});
}

Thm Kernel::generalize(const std::string &FreeName, TypeRef Ty,
                       const Thm &T) {
  TermRef Prop = mkAll(FreeName, std::move(Ty), T.prop());
  return make(std::move(Prop), Deriv::Kind::Rule, "generalize", {T.deriv()});
}

Thm Kernel::spec(const Thm &AllThm, TermRef Inst) {
  TermRef Lam;
  bool IsAll = destAll(AllThm.prop(), Lam);
  assert(IsAll && "spec: not a universal");
  (void)IsAll;
  std::shared_ptr<const Deriv::Replay> R;
  if (CertLog::enabled())
    R = std::make_shared<const Deriv::Replay>(Deriv::Replay{Subst(), Inst});
  TermRef Prop = betaNorm(Term::mkApp(Lam, std::move(Inst)));
  return make(std::move(Prop), Deriv::Kind::Rule, "spec", {AllThm.deriv()},
              std::move(R));
}

Thm Kernel::refl(TermRef T) {
  TermRef Prop = mkEq(T, T);
  return make(std::move(Prop), Deriv::Kind::Rule, "refl", {});
}

Thm Kernel::sym(const Thm &Eq) {
  TermRef L, R;
  bool IsEq = destEq(Eq.prop(), L, R);
  assert(IsEq && "sym: not an equality");
  (void)IsEq;
  return make(mkEq(R, L), Deriv::Kind::Rule, "sym", {Eq.deriv()});
}

Thm Kernel::trans(const Thm &AB, const Thm &BC) {
  TermRef A, B1, B2, C;
  bool Ok = destEq(AB.prop(), A, B1) && destEq(BC.prop(), B2, C);
  assert(Ok && "trans: not equalities");
  (void)Ok;
  assert(termEq(B1, B2) && "trans: middle terms differ");
  return make(mkEq(A, C), Deriv::Kind::Rule, "trans",
              {AB.deriv(), BC.deriv()});
}

Thm Kernel::combination(const Thm &FG, const Thm &XY) {
  TermRef F, G, X, Y;
  bool Ok = destEq(FG.prop(), F, G) && destEq(XY.prop(), X, Y);
  assert(Ok && "combination: not equalities");
  (void)Ok;
  TermRef L = betaNorm(Term::mkApp(F, X));
  TermRef R = betaNorm(Term::mkApp(G, Y));
  return make(mkEq(std::move(L), std::move(R)), Deriv::Kind::Rule,
              "combination", {FG.deriv(), XY.deriv()});
}

Thm Kernel::abstract(const std::string &FreeName, TypeRef Ty,
                     const Thm &Eq) {
  TermRef L, R;
  bool IsEq = destEq(Eq.prop(), L, R);
  assert(IsEq && "abstract: not an equality");
  (void)IsEq;
  TermRef Lam1 = lambdaFree(FreeName, Ty, L);
  TermRef Lam2 = lambdaFree(FreeName, Ty, R);
  return make(mkEq(std::move(Lam1), std::move(Lam2)), Deriv::Kind::Rule,
              "abstract", {Eq.deriv()});
}

Thm Kernel::betaConv(TermRef T) {
  TermRef N = betaNorm(T);
  return make(mkEq(std::move(T), std::move(N)), Deriv::Kind::Rule,
              "betaConv", {});
}

Thm Kernel::eqTrueIntro(const Thm &P) {
  return make(mkEq(P.prop(), mkTrue()), Deriv::Kind::Rule, "eqTrueIntro",
              {P.deriv()});
}

Thm Kernel::eqTrueElim(const Thm &Eq) {
  TermRef L, R;
  bool IsEq = destEq(Eq.prop(), L, R);
  assert(IsEq && "eqTrueElim: not an equality");
  (void)IsEq;
  assert(R->isConst(nm::True) && "eqTrueElim: rhs is not True");
  return make(L, Deriv::Kind::Rule, "eqTrueElim", {Eq.deriv()});
}

Thm Kernel::eqMp(const Thm &PQ, const Thm &P) {
  TermRef L, R;
  bool IsEq = destEq(PQ.prop(), L, R);
  assert(IsEq && "eqMp: not an equality");
  (void)IsEq;
  assert(termEq(L, P.prop()) && "eqMp: proposition mismatch");
  return make(R, Deriv::Kind::Rule, "eqMp", {PQ.deriv(), P.deriv()});
}

Thm Kernel::conjI(const Thm &A, const Thm &B) {
  return make(mkConj(A.prop(), B.prop()), Deriv::Kind::Rule, "conjI",
              {A.deriv(), B.deriv()});
}

Thm Kernel::conjE(const Thm &AB, bool First) {
  TermRef L, R;
  bool IsConj = destConj(AB.prop(), L, R);
  assert(IsConj && "conjE: not a conjunction");
  (void)IsConj;
  return make(First ? L : R, Deriv::Kind::Rule, "conjE", {AB.deriv()});
}

static void collectLeavesImpl(const DerivRef &D,
                              std::set<std::string> &AxiomNames,
                              std::set<std::string> &OracleNames,
                              std::set<const Deriv *> &Seen) {
  if (!D || !Seen.insert(D.get()).second)
    return;
  if (D->kind() == Deriv::Kind::Axiom)
    AxiomNames.insert(D->name());
  else if (D->kind() == Deriv::Kind::Oracle)
    OracleNames.insert(D->name());
  for (const DerivRef &P : D->premises())
    collectLeavesImpl(P, AxiomNames, OracleNames, Seen);
}

void ac::hol::collectLeaves(const Thm &T, std::set<std::string> &AxiomNames,
                            std::set<std::string> &OracleNames) {
  std::set<const Deriv *> Seen;
  collectLeavesImpl(T.deriv(), AxiomNames, OracleNames, Seen);
}

static size_t derivSizeImpl(const DerivRef &D,
                            std::set<const Deriv *> &Seen) {
  if (!D || !Seen.insert(D.get()).second)
    return 0;
  size_t N = 1;
  for (const DerivRef &P : D->premises())
    N += derivSizeImpl(P, Seen);
  return N;
}

size_t ac::hol::derivSize(const Thm &T) {
  std::set<const Deriv *> Seen;
  return derivSizeImpl(T.deriv(), Seen);
}
