//===- Unify.h - Pattern unification for rule resolution --------*- C++ -*-===//
//
// Part of the autocorres-cpp project, under the BSD 2-Clause License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// First-order unification extended with Miller-pattern cases (a schematic
/// variable applied to distinct bound variables), which is exactly what the
/// paper's syntax-directed abstraction rules need: rules like WBIND carry
/// premises of the form `abs_w_stmt (?Q r) rx ex (?R r) (R' r')` whose
/// schematic heads are applied to locally bound variables.
///
/// A Subst maps schematic type variables to types and schematic term
/// variables to closed-under-binder terms. Instantiation beta-normalizes.
///
//===----------------------------------------------------------------------===//

#ifndef AC_HOL_UNIFY_H
#define AC_HOL_UNIFY_H

#include "hol/Term.h"

#include <map>
#include <optional>

namespace ac::hol {

/// A substitution for schematic type and term variables.
class Subst {
public:
  /// Resolves a type through the substitution (chasing bindings).
  TypeRef applyTy(const TypeRef &T) const;
  /// Resolves a term: instantiate schematics, substitute types, beta-norm.
  TermRef apply(const TermRef &T) const;

  void bindTy(const std::string &Name, TypeRef T);
  void bind(const std::string &Name, unsigned Index, TermRef T);

  const TermRef *lookup(const std::string &Name, unsigned Index) const;

  bool empty() const { return TyMap.empty() && TmMap.empty(); }
  size_t size() const { return TyMap.size() + TmMap.size(); }

  /// The raw binding maps, in sorted (std::map) order — what the
  /// certificate writer serializes so the checker can replay apply()
  /// deterministically (hol/Cert.h).
  const std::map<std::string, TypeRef> &tyBindings() const { return TyMap; }
  const std::map<std::pair<std::string, unsigned>, TermRef> &
  tmBindings() const {
    return TmMap;
  }

private:
  std::map<std::string, TypeRef> TyMap;
  std::map<std::pair<std::string, unsigned>, TermRef> TmMap;
};

/// Unifies two types, extending \p S. Returns false (leaving S in an
/// unspecified but safe state) on clash.
bool unifyTypes(const TypeRef &A, const TypeRef &B, Subst &S);

/// Unifies two terms, extending \p S. Schematics may occur on both sides.
/// \p RigidRight refuses to bind schematics occurring in B (matching mode).
bool unifyTerms(const TermRef &A, const TermRef &B, Subst &S,
                bool RigidRight = false);

/// One-sided matching: find S with S(Pattern) == T (T's schematics rigid).
std::optional<Subst> matchTerm(const TermRef &Pattern, const TermRef &T);

/// Renames every schematic (term and type) variable in \p T by adding
/// \p Offset to its index, avoiding capture during self-resolution.
TermRef freshenSchematics(const TermRef &T, unsigned Offset);

} // namespace ac::hol

#endif // AC_HOL_UNIFY_H
