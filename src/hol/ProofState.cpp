//===- ProofState.cpp -----------------------------------------------------===//

#include "hol/ProofState.h"

using namespace ac::hol;

void ac::hol::stripImps(TermRef T, std::vector<TermRef> &Premises,
                        TermRef &Concl) {
  Premises.clear();
  TermRef A, B;
  while (destImp(T, A, B)) {
    Premises.push_back(A);
    T = B;
  }
  Concl = T;
}

ProofState::ProofState(TermRef Goal) {
  Node N;
  N.Goal = std::move(Goal);
  Nodes.push_back(std::move(N));
  Root = 0;
  OpenGoals.push_back(0);
}

TermRef ProofState::firstGoal() const {
  assert(!OpenGoals.empty() && "no open subgoals");
  return S.apply(Nodes[OpenGoals.front()].Goal);
}

/// Builds a substitution renaming every schematic (term/type variable) of
/// \p Prop to a fresh copy at \p Offset.
static void collectFreshening(const TermRef &T, unsigned Offset, Subst &Out) {
  switch (T->kind()) {
  case Term::Kind::Var: {
    if (!Out.lookup(T->name(), T->index()))
      Out.bind(T->name(), T->index(),
               freshenSchematics(T, Offset));
    return;
  }
  case Term::Kind::Lam:
    collectFreshening(T->body(), Offset, Out);
    return;
  case Term::Kind::App:
    collectFreshening(T->fun(), Offset, Out);
    collectFreshening(T->argTerm(), Offset, Out);
    return;
  default:
    return;
  }
}

/// Collects type variables of \p Ty into the freshening substitution.
static void collectFreshTyVars(const TypeRef &Ty, unsigned Offset,
                               Subst &Out) {
  if (!Ty->hasVar())
    return;
  if (Ty->isVar()) {
    if (!Out.lookupTy(Ty->name()))
      Out.bindTy(Ty->name(), Type::var(Ty->name() + "#" +
                                       std::to_string(Offset)));
    return;
  }
  for (const TypeRef &A : Ty->args())
    collectFreshTyVars(A, Offset, Out);
}

static void collectFreshTys(const TermRef &T, unsigned Offset, Subst &Out) {
  switch (T->kind()) {
  case Term::Kind::Const:
  case Term::Kind::Free:
  case Term::Kind::Var:
  case Term::Kind::Num:
    collectFreshTyVars(T->type(), Offset, Out);
    return;
  case Term::Kind::Lam:
    collectFreshTyVars(T->type(), Offset, Out);
    collectFreshTys(T->body(), Offset, Out);
    return;
  case Term::Kind::App:
    collectFreshTys(T->fun(), Offset, Out);
    collectFreshTys(T->argTerm(), Offset, Out);
    return;
  default:
    return;
  }
}

Thm ProofState::freshened(const Thm &T) {
  unsigned Offset = NextOffset;
  NextOffset += 1000000;
  Subst Fresh;
  collectFreshTys(T.prop(), Offset, Fresh);
  collectFreshening(T.prop(), Offset, Fresh);
  if (Fresh.empty())
    return T;
  return Kernel::instantiate(T, Fresh);
}

bool ProofState::applyRule(const Thm &Rule) {
  assert(!OpenGoals.empty() && "applyRule with no open subgoals");
  unsigned Id = OpenGoals.front();
  TermRef Goal = S.apply(Nodes[Id].Goal);

  Thm FreshRule = freshened(Rule);
  std::vector<TermRef> Premises;
  TermRef Concl;
  stripImps(FreshRule.prop(), Premises, Concl);

  Subst Saved = S;
  if (!unifyTerms(Concl, Goal, S)) {
    S = std::move(Saved);
    return false;
  }

  OpenGoals.pop_front();
  Nodes[Id].K = Node::Kind::Rule;
  Nodes[Id].Justification = FreshRule;
  std::vector<unsigned> NewIds;
  for (const TermRef &P : Premises) {
    Node Child;
    Child.Goal = P;
    Nodes.push_back(std::move(Child));
    unsigned CId = Nodes.size() - 1;
    Nodes[Id].Children.push_back(CId);
    NewIds.push_back(CId);
  }
  // Premise 1 becomes the new first subgoal.
  OpenGoals.insert(OpenGoals.begin(), NewIds.begin(), NewIds.end());
  return true;
}

bool ProofState::introAll() {
  assert(!OpenGoals.empty() && "introAll with no open subgoals");
  unsigned Id = OpenGoals.front();
  TermRef Goal = S.apply(Nodes[Id].Goal);
  TermRef Lam;
  if (!destAll(Goal, Lam) || !Lam->isLam())
    return false;
  std::string FreeName = "v!" + std::to_string(FreshCtr++);
  TermRef Free = Term::mkFree(FreeName, Lam->type());
  TermRef Body = betaNorm(Term::mkApp(Lam, Free));

  OpenGoals.pop_front();
  Nodes[Id].K = Node::Kind::AllIntro;
  Nodes[Id].FreeName = FreeName;
  Nodes[Id].FreeTy = Lam->type();
  Node Child;
  Child.Goal = Body;
  Nodes.push_back(std::move(Child));
  unsigned CId = Nodes.size() - 1;
  Nodes[Id].Children.push_back(CId);
  OpenGoals.push_front(CId);
  return true;
}

bool ProofState::dischargeBy(const Thm &T) {
  assert(!OpenGoals.empty() && "dischargeBy with no open subgoals");
  unsigned Id = OpenGoals.front();
  TermRef Goal = S.apply(Nodes[Id].Goal);
  Thm FreshT = freshened(T);
  Subst Saved = S;
  if (!unifyTerms(FreshT.prop(), Goal, S)) {
    S = std::move(Saved);
    return false;
  }
  OpenGoals.pop_front();
  Nodes[Id].K = Node::Kind::ByThm;
  Nodes[Id].Justification = FreshT;
  return true;
}

bool ProofState::solveWith(
    const std::function<std::optional<Thm>(const TermRef &)> &Solver) {
  assert(!OpenGoals.empty() && "solveWith with no open subgoals");
  unsigned Id = OpenGoals.front();
  TermRef Goal = S.apply(Nodes[Id].Goal);
  if (Goal->hasSchematic())
    return false; // external provers need a fully determined goal
  std::optional<Thm> T = Solver(Goal);
  if (!T)
    return false;
  assert(termEq(T->prop(), Goal) && "solver proved the wrong proposition");
  OpenGoals.pop_front();
  Nodes[Id].K = Node::Kind::ByThm;
  Nodes[Id].Justification = *T;
  return true;
}

Thm ProofState::build(unsigned Id) const {
  const Node &N = Nodes[Id];
  switch (N.K) {
  case Node::Kind::Open:
    assert(false && "building a proof with open subgoals");
    return Thm();
  case Node::Kind::ByThm:
    return Kernel::instantiate(N.Justification, S);
  case Node::Kind::AllIntro: {
    Thm Child = build(N.Children[0]);
    return Kernel::generalize(N.FreeName, S.applyTy(N.FreeTy), Child);
  }
  case Node::Kind::Rule: {
    Thm Cur = Kernel::instantiate(N.Justification, S);
    for (unsigned CId : N.Children)
      Cur = Kernel::mp(Cur, build(CId));
    return Cur;
  }
  }
  return Thm();
}

Thm ProofState::finish() const {
  assert(OpenGoals.empty() && "finish with open subgoals");
  Thm Result = build(Root);
  assert(termEq(Result.prop(), S.apply(Nodes[Root].Goal)) &&
         "assembled proof does not match the goal");
  return Result;
}
