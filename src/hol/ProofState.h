//===- ProofState.h - Backward proof by rule resolution ---------*- C++ -*-===//
//
// Part of the autocorres-cpp project, under the BSD 2-Clause License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The resolution engine the paper's abstraction algorithm runs on
/// (Sec 3.3): start from a *schematic lemma* — e.g.
///
///   abs_w_stmt ?P1 unat id ?A1 (return ((l +w r) divw 2))
///
/// — and repeatedly resolve the first open subgoal against rules from a
/// rule set. Unification incrementally instantiates the schematics ?A1,
/// ?P1, ... so that when the last subgoal closes, the abstract program and
/// its precondition have been *computed* and finish() assembles the LCF
/// derivation (instantiate + mp chains) that certifies the result.
///
//===----------------------------------------------------------------------===//

#ifndef AC_HOL_PROOFSTATE_H
#define AC_HOL_PROOFSTATE_H

#include "hol/Thm.h"

#include <deque>
#include <functional>
#include <optional>

namespace ac::hol {

/// A backward proof in progress.
class ProofState {
public:
  /// Starts a proof of \p Goal (may contain schematic variables).
  explicit ProofState(TermRef Goal);

  /// Number of open subgoals.
  unsigned numOpen() const { return OpenGoals.size(); }
  bool done() const { return OpenGoals.empty(); }

  /// First open subgoal, resolved through the current instantiation.
  TermRef firstGoal() const;

  /// Resolves the first subgoal against \p Rule (of shape
  /// P1 --> ... --> Pn --> C): unifies C with the subgoal and replaces it
  /// by P1..Pn. Returns false (with no state change) if unification fails.
  bool applyRule(const Thm &Rule);

  /// If the first subgoal is `All (%x. B)`, replaces it by B at a fresh
  /// free variable (meta forall-introduction).
  bool introAll();

  /// Closes the first subgoal with an existing theorem (unifying, so the
  /// theorem may be schematic — e.g. WTRIV).
  bool dischargeBy(const Thm &T);

  /// Closes the first (schematic-free) subgoal using an external prover.
  bool solveWith(
      const std::function<std::optional<Thm>(const TermRef &)> &Solver);

  /// Assembles the final theorem. Asserts that no subgoals remain.
  Thm finish() const;

private:
  struct Node {
    enum class Kind { Open, Rule, AllIntro, ByThm };
    Kind K = Kind::Open;
    TermRef Goal;
    Thm Justification; ///< Rule (freshened) or ByThm theorem.
    std::string FreeName;
    TypeRef FreeTy;
    std::vector<unsigned> Children;
  };

  Thm build(unsigned Id) const;
  Thm freshened(const Thm &T);

  std::vector<Node> Nodes;
  std::deque<unsigned> OpenGoals;
  Subst S;
  unsigned Root;
  unsigned NextOffset = 1000000;
  unsigned FreshCtr = 0;
};

/// Splits `P1 --> ... --> Pn --> C` into premises and conclusion.
void stripImps(TermRef T, std::vector<TermRef> &Premises, TermRef &Concl);

} // namespace ac::hol

#endif // AC_HOL_PROOFSTATE_H
