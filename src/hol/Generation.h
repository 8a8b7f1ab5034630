//===- Generation.h - Request-scoped term generations -----------*- C++ -*-===//
//
// Part of the autocorres-cpp project, under the BSD 2-Clause License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A request generation: a term store layered over the immortal base
/// store (Intern.h), plus the axioms registered, the rules minted and
/// the type instances memoised while it is current. service::runCheck
/// opens one per check with a GenerationScope; every term node the check
/// builds that the base does not already hold lives in the generation
/// and is freed with it.
///
/// A generation is current on the thread that opened it and on the pool
/// threads that Enter it (AutoCorres::run's per-SCC tasks). Code that
/// runs with no generation current interns into the base, as every
/// direct AutoCorres::run caller does. Intern.h states the conditions
/// that make freeing a generation safe.
///
//===----------------------------------------------------------------------===//

#ifndef AC_HOL_GENERATION_H
#define AC_HOL_GENERATION_H

#include "hol/Intern.h"
#include "hol/Thm.h"

#include <map>
#include <mutex>
#include <string>

namespace ac::hol {

class Generation {
public:
  Generation() = default;
  Generation(const Generation &) = delete;
  Generation &operator=(const Generation &) = delete;

  /// The generation current on this thread, or null for the base.
  static Generation *current() { return Current; }

  /// Makes a generation (null: the base) current on this thread for the
  /// guard's lifetime.
  class Enter {
  public:
    explicit Enter(Generation *G) : Prev(Current) { Current = G; }
    ~Enter() { Current = Prev; }
    Enter(const Enter &) = delete;
    Enter &operator=(const Enter &) = delete;

  private:
    Generation *Prev;
  };

  /// True if \p T was interned before this generation opened. Such a
  /// node is a base node, and so are its children, which are older still;
  /// lookups in this generation resolve to it too.
  bool predates(const TermRef &T) const { return T->id() < FirstId; }

  /// The generation's own nodes (Term.cpp interns through it).
  InternStore<Term> &terms() { return Terms; }

  /// The Inventory's overlay: axioms registered while this generation is
  /// current and absent from the base inventory.
  void registerAxiom(const std::string &Name, const TermRef &Prop);
  bool hasAxiom(const std::string &Name) const;
  void addAxioms(std::map<std::string, TermRef> &Into) const;

  /// The mint caches' overlay (RuleCache::get): the rule minted as
  /// \p Name in this generation, or \p Make's, run once.
  template <typename MakeFn> Thm mint(const std::string &Name, MakeFn Make) {
    {
      std::lock_guard<std::mutex> L(M);
      auto It = Rules.find(Name);
      if (It != Rules.end())
        return It->second;
    }
    Thm T = Make();
    std::lock_guard<std::mutex> L(M);
    return Rules.emplace(Name, std::move(T)).first->second;
  }

  /// Subst::apply's memo of type passes (hol/Unify.h), built while this
  /// generation is current.
  TypeInstances &typeInstances() { return TypeInsts; }

private:
  static inline thread_local Generation *Current = nullptr;

  const uint64_t FirstId = internIdCounter().load();
  InternStore<Term> Terms;
  /// Guards Axioms and Rules.
  mutable std::mutex M;
  std::map<std::string, TermRef> Axioms;
  /// Keyed by axiom name, which is unique across the rule caches.
  std::map<std::string, Thm> Rules;
  TypeInstances TypeInsts;
};

/// Opens a fresh generation and makes it current on this thread. Closing
/// the scope frees every node built in it, so nothing built while it was
/// open may be used afterwards.
class GenerationScope {
public:
  GenerationScope() : E(&G) {}

private:
  Generation G;
  Generation::Enter E;
};

} // namespace ac::hol

#endif // AC_HOL_GENERATION_H
