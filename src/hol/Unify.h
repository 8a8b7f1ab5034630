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
/// Instantiation runs in two passes: the type pass resolves every type
/// in the term, and the term pass replaces the bound schematics,
/// rebuilding only the paths to them. A polymorphic rule carries a type
/// variable on nearly every node, so the type pass is the one that
/// rebuilds the whole proposition; TypeInstances keeps its result for
/// each term and type instance, and a rule that fires again at the same
/// instance pays only for the term pass.
///
//===----------------------------------------------------------------------===//

#ifndef AC_HOL_UNIFY_H
#define AC_HOL_UNIFY_H

#include "hol/Term.h"

#include <mutex>
#include <optional>
#include <unordered_map>
#include <vector>

namespace ac::hol {

class Subst;

/// The memo of Subst::apply's type pass: for each term, the type
/// variables that occur in it and its form under each instance of them
/// that has been built. A term's type-instantiated form depends only on
/// the types its own type variables resolve to, so that list is the key.
///
/// Unscoped callers share one immortal memo, whose entries hold base
/// nodes only. Each request generation keeps its own (hol/Generation.h),
/// built while the generation is current and freed with it; a
/// generation does not read the base memo, where an entry built after it
/// opened could point to a twin of a node it holds (Intern.h).
class TypeInstances {
public:
  TypeInstances() = default;
  TypeInstances(const TypeInstances &) = delete;
  TypeInstances &operator=(const TypeInstances &) = delete;

  /// \p T with every type resolved through \p S (schematics untouched):
  /// the stored node, or the type pass's, stored for the next caller.
  TermRef get(const Subst &S, const TermRef &T);

  /// The memo current on this thread: the current generation's, or the
  /// base memo.
  static TypeInstances &current();

private:
  struct KeyHash {
    size_t operator()(const std::vector<uint64_t> &K) const;
  };

  /// Guards both maps; the pool threads of one generation share them.
  std::mutex M;
  /// By term id: the type variables of the term, in first-occurrence
  /// order (types are immortal, so the pointers stay valid).
  std::unordered_map<uint64_t, std::vector<const Type *>> Vars;
  /// By the term's id followed by the ids of the types its Vars resolve
  /// to: the term under that instance.
  std::unordered_map<std::vector<uint64_t>, const Term *, KeyHash>
      Instances;
};

/// A substitution for schematic type and term variables.
class Subst {
public:
  /// Resolves a type through the substitution (chasing bindings).
  TypeRef applyTy(const TypeRef &T) const;
  /// Resolves a term: instantiate schematics, substitute types, beta-norm.
  /// The type pass over \p T itself is memoised (TypeInstances).
  TermRef apply(const TermRef &T) const;

  void bindTy(const std::string &Name, TypeRef T);
  void bind(const std::string &Name, unsigned Index, TermRef T);

  const TermRef *lookup(const std::string &Name, unsigned Index) const;
  const TypeRef *lookupTy(const std::string &Name) const;

  bool empty() const { return TyBinds.empty() && TmBinds.empty(); }
  size_t size() const { return TyBinds.size() + TmBinds.size(); }

  using TyBinding = std::pair<std::string, TypeRef>;
  using TmBinding = std::pair<std::pair<std::string, unsigned>, TermRef>;

  /// The raw bindings, sorted by key — what the certificate writer
  /// serializes so the checker can replay apply() deterministically
  /// (hol/Cert.h).
  const std::vector<TyBinding> &tyBindings() const { return TyBinds; }
  const std::vector<TmBinding> &tmBindings() const { return TmBinds; }

private:
  // A rule binds a handful of names, and apply() looks one up at every
  // schematic: flat lists kept sorted cost no node per binding and no
  // key copy per lookup.
  std::vector<TyBinding> TyBinds;
  std::vector<TmBinding> TmBinds;
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
