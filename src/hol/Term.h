//===- Term.h - Lambda terms of the embedded HOL ----------------*- C++ -*-===//
//
// Part of the autocorres-cpp project, under the BSD 2-Clause License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The term language of the embedded logic: a simply-typed lambda calculus
/// with named constants, free variables, schematic (unification) variables,
/// de Bruijn bound variables, and numeric literals.
///
/// Everything downstream of the C parser is one of these terms: Simpl
/// expression bodies, monadic programs (built from the combinator constants
/// of Table 1), guards, Hoare assertions, and the propositions of theorems.
///
/// Terms are immutable, hash-consed DAGs in an arena-backed store
/// (Intern.h): every factory interns, so a structurally identical node is
/// built once in the stores a lookup sees (the base, and the current
/// request generation if any) and canonical references to equal
/// structure are pointer-equal. Each node carries a unique intern id (an O(1) memo key)
/// and caches its hash, its size (the "term size" metric of Table 5 — the
/// number of AST nodes), the number of loose bound variables, whether
/// schematics occur, whether type variables occur, whether the node is
/// already in beta normal form, and (lazily) the type of closed terms —
/// so the unifier, the rewriters and the statistics pass are cheap.
///
/// Note the interner's equality is *full structural identity* (it keys
/// Free and Var nodes on their types and Lam nodes on their display
/// names), which is strictly finer than termEq (alpha-equality that
/// compares Free nodes by name only). Pointer equality therefore implies
/// termEq but not conversely — exactly the soundness direction termEq's
/// fast path needs. See DESIGN.md ("Hash-consed kernel representation").
///
//===----------------------------------------------------------------------===//

#ifndef AC_HOL_TERM_H
#define AC_HOL_TERM_H

#include "hol/Type.h"

#include <atomic>
#include <cassert>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace ac::hol {

class Term;
using TermRef = std::shared_ptr<const Term>;

/// Numeric literal payload. 128 bits comfortably exceeds anything a 32- or
/// 64-bit C program can denote, which is what lets it stand in for the
/// "ideal" nat/int of the abstract level during evaluation.
using Int128 = __int128;

template <typename Node, unsigned ShardCount> class InternStore;

/// An immutable, interned term node.
class Term {
public:
  enum class Kind {
    Const, ///< Named constant with an instantiated type.
    Free,  ///< Free variable (function arguments, the program state `s`).
    Var,   ///< Schematic variable ?A1 — instantiated by unification.
    Bound, ///< de Bruijn index into enclosing lambdas.
    Lam,   ///< Lambda abstraction; display name + argument type + body.
    App,   ///< Application.
    Num,   ///< Numeric literal at type nat/int/wordN/swordN.
  };

  Kind kind() const { return K; }
  bool isConst() const { return K == Kind::Const; }
  bool isConst(const std::string &N) const {
    return K == Kind::Const && *Name == N;
  }
  bool isFree() const { return K == Kind::Free; }
  bool isVar() const { return K == Kind::Var; }
  bool isBound() const { return K == Kind::Bound; }
  bool isLam() const { return K == Kind::Lam; }
  bool isApp() const { return K == Kind::App; }
  bool isNum() const { return K == Kind::Num; }

  /// Const/Free/Var name; Lam display name.
  const std::string &name() const { return *Name; }
  /// Const/Free/Var/Num type; Lam argument type.
  TypeRef type() const { return TypeRef(TypeRef(), Ty); }
  /// Bound index; Var freshness index.
  unsigned index() const { return Index; }
  /// Numeric literal value.
  Int128 value() const { return Value; }

  /// App function / Lam body.
  TermRef fun() const {
    assert(K == Kind::App);
    return TermRef(TermRef(), A);
  }
  TermRef argTerm() const {
    assert(K == Kind::App);
    return TermRef(TermRef(), B);
  }
  TermRef body() const {
    assert(K == Kind::Lam);
    return TermRef(TermRef(), A);
  }

  size_t hash() const { return Hash; }
  /// Unique intern id (see Intern.h): monotonic, assigned once at intern
  /// time, never shared with any other term or type node — a stable O(1)
  /// memo key (the simplifier's normal-form memo is keyed on it).
  uint64_t id() const { return Id; }
  /// Number of nodes in the term tree (Table 5 "term size").
  unsigned size() const { return Size; }
  /// 0 for closed-under-binders terms, else 1 + max loose de Bruijn index.
  unsigned maxLoose() const { return MaxLoose; }
  bool hasSchematic() const { return Schematic; }
  /// True if a type variable occurs in any type inside this term. A term
  /// with neither schematics nor type variables is fixed by any Subst.
  bool hasTyVar() const { return TyVar; }
  /// True if the term contains no beta redex and no fst/snd-of-Pair
  /// projection redex — betaNorm(T) == T, decided in O(1).
  bool isBetaNormal() const { return BetaNormal; }

  /// Cached type of a closed (maxLoose()==0) term, or nullptr if not yet
  /// computed. Interned types are immortal, so the raw pointer is safe to
  /// cache and re-wrap. Internal plumbing for typeOf().
  const Type *cachedTypePtr() const {
    return CachedTy.load(std::memory_order_acquire);
  }
  void cacheTypePtr(const Type *P) const {
    CachedTy.store(P, std::memory_order_release);
  }

  /// Arena relocation only (InternStore moves freshly built nodes into a
  /// shard's block arena). There is no public way to obtain a non-const
  /// Term, so this cannot move a live node out from under its aliases.
  Term(Term &&O) noexcept
      : Value(O.Value), Name(O.Name), Ty(O.Ty), A(O.A), B(O.B),
        Hash(O.Hash), Id(O.Id),
        CachedTy(O.CachedTy.load(std::memory_order_relaxed)), K(O.K),
        Index(O.Index), Size(O.Size), MaxLoose(O.MaxLoose),
        Schematic(O.Schematic), TyVar(O.TyVar), BetaNormal(O.BetaNormal),
        InGeneration(O.InGeneration) {}

  //===--------------------------------------------------------------------===//
  // Factories (all interning: equal structure => same node)
  //===--------------------------------------------------------------------===//

  static TermRef mkConst(const std::string &Name, TypeRef Ty);
  static TermRef mkFree(const std::string &Name, TypeRef Ty);
  static TermRef mkVar(const std::string &Name, unsigned Index, TypeRef Ty);
  static TermRef mkBound(unsigned Index);
  static TermRef mkLam(const std::string &Name, TypeRef ArgTy, TermRef Body);
  static TermRef mkApp(TermRef F, TermRef X);
  static TermRef mkNum(Int128 Value, TypeRef Ty);

private:
  Term() : Name(&noName()) {}
  static const std::string &noName();
  /// Every factory's lookup (Term.cpp): the current request generation
  /// over the base store, or the base store alone. \p YoungChild: a child
  /// of the prospective node was built in a generation.
  template <typename EqFn, typename MakeFn>
  static TermRef intern(size_t Hash, bool YoungChild, EqFn Eq, MakeFn Make);

  // Base nodes are immortal and a request generation can hold hundreds
  // of thousands of nodes, so the layout is packed: children and types
  // are plain pointers to interned nodes (children as old as the node or
  // older, types immortal), names point into a deduplicated immortal
  // pool, and fields are ordered largest first.
  Int128 Value = 0;
  const std::string *Name;
  const Type *Ty = nullptr;
  const Term *A = nullptr, *B = nullptr;
  size_t Hash = 0;
  uint64_t Id = 0;
  /// Lazily computed type of a closed term (nullptr until first typeOf).
  /// Benign to race: every writer stores the same canonical pointer.
  mutable std::atomic<const Type *> CachedTy{nullptr};
  Kind K = Kind::Const;
  unsigned Index = 0;
  unsigned Size = 1;
  unsigned MaxLoose = 0;
  bool Schematic = false;
  bool TyVar = false;
  bool BetaNormal = true;
  /// Built in a request generation (hol/Generation.h), not the base.
  bool InGeneration = false;
};

/// Structural (de Bruijn alpha-) equality. Canonical refs to identical
/// structure are pointer-equal (the fast path); the structural walk only
/// runs for alpha-variants: Lam display names and Free/Var types are
/// ignored here but distinguish interned nodes.
bool termEq(const TermRef &A, const TermRef &B);

/// Applies \p F to each argument in \p Args in turn.
TermRef mkApps(TermRef F, const std::vector<TermRef> &Args);

/// Strips a left-nested application: returns the head and fills \p Args.
TermRef stripApp(TermRef T, std::vector<TermRef> &Args);

/// Computes the type of \p T. \p BoundTys are the argument types of the
/// lambdas enclosing T, innermost first. Asserts internal well-typedness.
/// Closed terms cache their type on the node, so repeat calls are O(1).
TypeRef typeOf(const TermRef &T, std::vector<TypeRef> *BoundTys = nullptr);

/// Shifts loose bound variables >= \p Cutoff by \p Inc.
TermRef liftLoose(const TermRef &T, unsigned Inc, unsigned Cutoff = 0);

/// Substitutes \p Arg for Bound(\p Depth) in \p Body, adjusting indices.
/// This is the engine of beta reduction.
TermRef substBound(const TermRef &Body, const TermRef &Arg,
                   unsigned Depth = 0);

/// Full beta normalization (call-by-name to normal form; terms are small).
/// O(1) on already-normal terms via the isBetaNormal() node flag.
TermRef betaNorm(const TermRef &T);

/// Replaces the free variable \p Name with \p Repl (lifting under binders).
TermRef substFree(const TermRef &T, const std::string &Name,
                  const TermRef &Repl);

/// True if free variable \p Name occurs in \p T.
bool occursFree(const TermRef &T, const std::string &Name);

/// Collects the names of all free variables in \p T (deduplicated,
/// in first-occurrence order).
std::vector<std::string> freeVars(const TermRef &T);

/// Abstracts the free variable \p Name out of \p T, producing a lambda.
TermRef lambdaFree(const std::string &Name, TypeRef Ty, const TermRef &T);

/// Number of live interned term nodes (diagnostics for the property
/// suite and the stats pass).
size_t internedTermCount();

} // namespace ac::hol

#endif // AC_HOL_TERM_H
