//===- Thm.h - LCF-style theorem kernel -------------------------*- C++ -*-===//
//
// Part of the autocorres-cpp project, under the BSD 2-Clause License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The proof kernel. A Thm is a proposition (a bool-typed term, possibly
/// schematic) that can only be constructed through the inference rules of
/// class Kernel — the LCF discipline that gives AutoCorres its soundness
/// story. Every Thm carries a derivation tree whose leaves are either
///
///   * named *axioms* — the once-and-for-all rule set the paper proves in
///     Isabelle (WBIND, WSUM, HGETS, ..., the monad laws, the heap-lift
///     lemmas). They are registered in a global, enumerable inventory and
///     each is cross-validated against the executable semantics by the
///     test suite; or
///   * named *oracles* — decision procedures (ground evaluation, linear
///     arithmetic), also enumerable, mirroring Isabelle's oracle mechanism.
///
/// Everything else, including every per-program abstraction theorem
/// AutoCorres emits, is derived. `collectLeaves` lets callers audit a
/// theorem's trusted base, and `derivSize` measures proof effort.
///
//===----------------------------------------------------------------------===//

#ifndef AC_HOL_THM_H
#define AC_HOL_THM_H

#include "hol/Builder.h"
#include "hol/Term.h"
#include "hol/Unify.h"

#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>

namespace ac::hol {

/// A node in a derivation tree.
class Deriv;
using DerivRef = std::shared_ptr<const Deriv>;

class Deriv {
public:
  enum class Kind { Axiom, Oracle, Rule };

  /// Replay payload for the two rules whose conclusions the certificate
  /// checker cannot recompute from premises alone: the substitution of
  /// `instantiate` and the witness term of `spec`. Attached only while
  /// certificate recording is enabled (hol/Cert.h) — a Deriv minted
  /// before recording was switched on cannot be exported, which the
  /// writer detects and reports instead of emitting a bogus record.
  struct Replay {
    Subst S;
    TermRef Witness;
  };

  Deriv(Kind K, std::string Name, std::vector<DerivRef> Premises,
        TermRef Concl, std::shared_ptr<const Replay> R = nullptr)
      : K(K), Name(std::move(Name)), Premises(std::move(Premises)),
        Concl(std::move(Concl)), R(std::move(R)) {}

  Kind kind() const { return K; }
  const std::string &name() const { return Name; }
  const std::vector<DerivRef> &premises() const { return Premises; }
  /// The proposition this node proves. Aliases the owning Thm's prop
  /// (terms are immortal interned nodes), so storing it is one pointer —
  /// this is what lets the certificate writer serialize rule payloads
  /// (generalize's binder, conjE's side, ...) from finished derivations,
  /// including axiom Thms minted into process-static rule caches.
  const TermRef &concl() const { return Concl; }
  const std::shared_ptr<const Replay> &replay() const { return R; }

private:
  Kind K;
  std::string Name;
  std::vector<DerivRef> Premises;
  TermRef Concl;
  std::shared_ptr<const Replay> R;
};

/// A theorem: |- Prop. Constructible only by the Kernel.
class Thm {
public:
  Thm() = default; ///< null theorem; isValid() is false.

  bool isValid() const { return Prop != nullptr; }
  const TermRef &prop() const {
    assert(Prop && "null theorem");
    return Prop;
  }
  const DerivRef &deriv() const { return D; }

  /// Pretty-printed proposition.
  std::string str() const;

private:
  friend class Kernel;
  Thm(TermRef Prop, DerivRef D) : Prop(std::move(Prop)), D(std::move(D)) {}

  TermRef Prop;
  DerivRef D;
};

/// Global registry of axioms (name -> proposition) and oracle names.
/// Registration is thread-safe (the parallel abstraction pipeline mints
/// axioms and oracles from every worker). An axiom first registered
/// while a request generation is current goes to that generation's
/// overlay and dies with it (hol/Generation.h); the queries below see
/// the base and the current overlay. oracles() returns the container
/// directly and is meant for single-threaded auditing after a run.
class Inventory {
public:
  static Inventory &instance();

  /// Registers / re-registers an axiom. Asserts if the same name is
  /// registered with a different proposition.
  void registerAxiom(const std::string &Name, const TermRef &Prop);
  void noteOracle(const std::string &Name);

  std::map<std::string, TermRef> axioms() const;
  const std::set<std::string> &oracles() const { return Oracles; }
  bool hasAxiom(const std::string &Name) const;

private:
  mutable std::mutex M;
  std::map<std::string, TermRef> Axioms;
  std::set<std::string> Oracles;
};

/// The inference rules. All preconditions are checked with assertions;
/// passing ill-formed arguments is a programming error, not user input.
class Kernel {
public:
  /// |- Prop, registered as the named axiom.
  static Thm axiom(const std::string &Name, TermRef Prop);
  /// |- Prop by the named oracle (decision procedure).
  static Thm oracle(const std::string &Name, TermRef Prop);
  /// |- P --> P.
  static Thm trivial(TermRef P);
  /// Applies a substitution to the proposition.
  static Thm instantiate(const Thm &T, const Subst &S);
  /// From |- A --> B and |- A, derive |- B.
  static Thm mp(const Thm &AB, const Thm &A);
  /// From |- A derive |- All (%x. A[x/Free Name]).
  static Thm generalize(const std::string &FreeName, TypeRef Ty,
                        const Thm &T);
  /// From |- All (%x. P x) derive |- P t.
  static Thm spec(const Thm &AllThm, TermRef Inst);
  /// |- T = T.
  static Thm refl(TermRef T);
  /// From |- A = B derive |- B = A.
  static Thm sym(const Thm &Eq);
  /// From |- A = B and |- B = C derive |- A = C.
  static Thm trans(const Thm &AB, const Thm &BC);
  /// From |- F = G and |- X = Y derive |- F X = G Y.
  static Thm combination(const Thm &FG, const Thm &XY);
  /// From |- A = B derive |- (%x. A[x/Free]) = (%x. B[x/Free]).
  static Thm abstract(const std::string &FreeName, TypeRef Ty,
                      const Thm &Eq);
  /// |- T = betaNorm(T).
  static Thm betaConv(TermRef T);
  /// From |- P derive |- P = True.
  static Thm eqTrueIntro(const Thm &P);
  /// From |- P = True derive |- P.
  static Thm eqTrueElim(const Thm &Eq);
  /// From |- P = Q and |- P derive |- Q.
  static Thm eqMp(const Thm &PQ, const Thm &P);
  /// From |- A and |- B derive |- A & B.
  static Thm conjI(const Thm &A, const Thm &B);
  /// From |- A & B derive |- A (First) or |- B.
  static Thm conjE(const Thm &AB, bool First);

private:
  static Thm make(TermRef Prop, Deriv::Kind K, const std::string &Name,
                  std::vector<DerivRef> Premises,
                  std::shared_ptr<const Deriv::Replay> R = nullptr);
};

/// Walks a derivation and collects the names of its Axiom/Oracle leaves.
void collectLeaves(const Thm &T, std::set<std::string> &AxiomNames,
                   std::set<std::string> &OracleNames);

/// Number of nodes in the derivation tree (a proof-effort metric).
size_t derivSize(const Thm &T);

} // namespace ac::hol

#endif // AC_HOL_THM_H
