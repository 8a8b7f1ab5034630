//===- Simp.h - Conditional rewriting with LCF proofs -----------*- C++ -*-===//
//
// Part of the autocorres-cpp project, under the BSD 2-Clause License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A bottom-up conditional rewriter in the style of Isabelle's simplifier.
/// Rules come from theorems shaped `C1 --> ... --> Cn --> lhs = rhs` (or a
/// plain boolean fact `P`, treated as `P = True`). Rewriting produces a
/// kernel theorem |- t = t' assembled from refl/trans/combination/abstract
/// plus instantiations of the rule theorems; conditions are discharged by
/// recursive simplification, ground evaluation, or registered solvers.
///
/// No pipeline stage calls it: generated output is cleaned up by
/// monad/Peephole. Only tests call it, the chaos suite's
/// `simp.memo.evict` case among them.
///
//===----------------------------------------------------------------------===//

#ifndef AC_HOL_SIMP_H
#define AC_HOL_SIMP_H

#include "hol/Thm.h"

#include <functional>
#include <mutex>
#include <optional>
#include <unordered_set>

namespace ac::hol {

/// An external condition solver (e.g. linear arithmetic): returns a proof
/// of the given closed boolean term, or nullopt.
using CondSolver = std::function<std::optional<Thm>(const TermRef &)>;

/// A set of rewrite rules plus condition solvers.
///
/// The rewriter tries the rules at each node in the order they were
/// added. The set also carries the simplifier's normal-form memo: the
/// intern ids of terms known to be in simp-normal form *for this
/// rule/solver context*. Only "nothing matched anywhere, nothing
/// computed" results are memoised — a property independent of rewrite
/// budget and condition depth — so an entry can be dropped at any time
/// (and the chaos suite does, via the "simp.memo.evict" fault site)
/// without changing a single output byte; eviction costs time only. Any
/// context change (addRule / addSolver) clears the memo: a term normal
/// under fewer rules need not stay normal.
class Simpset {
public:
  Simpset() = default;
  Simpset(const Simpset &O);
  Simpset &operator=(const Simpset &O);

  /// Adds a rule. The theorem must look like
  /// `C1 --> ... --> Cn --> lhs = rhs` or `C1 --> ... --> Cn --> P`
  /// (the latter is used as P = True).
  void addRule(const Thm &T);
  void addSolver(CondSolver Solver);

  struct Rule {
    Thm Origin;              ///< the full theorem
    std::vector<TermRef> Conds;
    TermRef Lhs, Rhs;
    bool AsEqTrue = false;   ///< rule was a bare boolean fact
  };

  const std::vector<Rule> &rules() const { return Rules; }
  const std::vector<CondSolver> &solvers() const { return Solvers; }

  /// True if \p T was previously certified simp-normal in this context.
  bool memoNormal(const TermRef &T) const;
  /// Records that \p T is simp-normal in this context. Callers must only
  /// pass terms whose normality is budget- and depth-independent (no rule
  /// lhs matched in the subtree, no ground computation applied).
  void memoMarkNormal(const TermRef &T) const;

private:
  std::vector<Rule> Rules;
  std::vector<CondSolver> Solvers;
  /// Normal-form memo, keyed on Term::id(). Guarded: simpsets (notably
  /// basicSimpset()) are shared across worker threads.
  mutable std::mutex MemoM;
  mutable std::unordered_set<uint64_t> NormalMemo;
};

/// Result of simplification: the new term and |- old = new.
struct SimpResult {
  TermRef Result;
  Thm Eq;
};

/// Simplifies \p T under \p SS. \p StepBudget bounds total rewrites.
SimpResult simplify(const Simpset &SS, const TermRef &T,
                    unsigned StepBudget = 20000);

/// Attempts to prove a boolean term by simplifying it to True (falling
/// back on ground evaluation and the simpset's solvers).
std::optional<Thm> simpProve(const Simpset &SS, const TermRef &Goal,
                             unsigned StepBudget = 20000);

/// The default logical simpset: if/conj/disj/not/option/pair/fun_upd
/// facts every client wants. Axioms it registers are named "simp.*".
const Simpset &basicSimpset();

} // namespace ac::hol

#endif // AC_HOL_SIMP_H
