//===- RuleCache.h - Rule minting and application for WA and HL -*- C++ -*-===//
//
// Part of the autocorres-cpp project, under the BSD 2-Clause License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// What the WA and HL engines share to mint and apply their rules. Both
/// apply a rule forward: inst() instantiates it and the caller discharges
/// its premises with Kernel::mp.
///
/// The engines mint per-width and per-type rule axioms at their use
/// sites (e.g. the width-32 nat_plus rule, the HL.read rule for word32),
/// once per *occurrence* in the program being abstracted. Axioms are
/// immutable and keyed by name, so every minting after the first rebuilds
/// a large proposition term only to be handed the already-registered Thm
/// by Kernel::axiom. This cache cuts the rebuild: the first minting of a
/// name is canonical and every later request is a map lookup.
///
/// Safe because Kernel::axiom itself rejects two different propositions
/// under one name — a cache that handed back the wrong Thm for a name
/// could only exist if the uncached code was already broken.
///
/// A rule minted while a request generation is current lives in the
/// generation's overlay and dies with it (hol/Generation.h). Inside a
/// generation, a base entry is used only if it predates the generation:
/// a base rule minted later by an unscoped thread may duplicate nodes
/// the generation already built.
///
//===----------------------------------------------------------------------===//

#ifndef AC_HOL_RULECACHE_H
#define AC_HOL_RULECACHE_H

#include "hol/Generation.h"
#include "hol/Thm.h"
#include "support/RuleProfile.h"

#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <utility>
#include <vector>

namespace ac::hol {

class RuleCache {
public:
  /// Returns the cached Thm for \p Name, or runs \p Make once and caches
  /// its result. Concurrent first requests may both run Make; that is
  /// harmless (Kernel::axiom is idempotent per name) and keeps Make —
  /// which re-enters the kernel — outside the cache lock.
  template <typename MakeFn> Thm get(const std::string &Name, MakeFn Make) {
    Generation *G = Generation::current();
    {
      std::lock_guard<std::mutex> L(M);
      auto It = Map.find(Name);
      if (It != Map.end() && (!G || G->predates(It->second.prop())))
        return It->second;
    }
    if (G)
      return G->mint(Name, Make);
    Thm T = Make();
    std::lock_guard<std::mutex> L(M);
    return Map.emplace(Name, std::move(T)).first->second;
  }

private:
  std::mutex M;
  std::map<std::string, Thm> Map;
};

/// Instantiates the schematics of \p Ax (all at index 0). Committing to
/// a rule: the profile counts this as a fire of the rule's axiom name and
/// attributes the instantiation time to it.
inline Thm inst(const Thm &Ax,
                std::vector<std::pair<const char *, TermRef>> Tms,
                std::vector<std::pair<const char *, TypeRef>> Tys = {}) {
  support::RuleTimer RT([&Ax] { return Ax.deriv()->name(); });
  RT.hit();
  Subst S;
  for (auto &[N, T] : Tys)
    S.bindTy(N, T);
  for (auto &[N, T] : Tms)
    S.bind(N, 0, T);
  return Kernel::instantiate(Ax, S);
}

/// Profile bookkeeping for a rule candidate that matched the shape of
/// the input but whose sub-derivation failed: a failed match of the
/// named rule. Returns nullopt so failure paths read
/// `return ruleMiss(R.Bind);`.
inline std::nullopt_t ruleMiss(const Thm &Rule) {
  if (support::RuleProfile::enabled())
    support::RuleProfile::record(Rule.deriv()->name(), false, 0);
  return std::nullopt;
}

/// Same, for per-width or per-type rules whose Thm was never built — the
/// name is assembled only when profiling is armed.
template <typename NameFn> std::nullopt_t ruleMissN(NameFn &&F) {
  if (support::RuleProfile::enabled())
    support::RuleProfile::record(F(), false, 0);
  return std::nullopt;
}

} // namespace ac::hol

#endif // AC_HOL_RULECACHE_H
