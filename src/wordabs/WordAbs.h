//===- WordAbs.h - Proof-producing word abstraction -------------*- C++ -*-===//
//
// Part of the autocorres-cpp project, under the BSD 2-Clause License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The paper's first key contribution (Sec 3): automatic, verified
/// abstraction of machine words into ideal naturals and integers.
/// Unsigned word32 values become nat (through unat), signed sword32
/// values become int (through sint); arithmetic moves to the ideal types
/// with overflow side-conditions emitted as guards — e.g. the binary
/// search midpoint becomes
///
///   do guard (%s. l + r <= UINT_MAX); return ((l + r) div 2) od
///
/// The engine derives, per function,
///
///   abs_w_stmt P rx ex A C
///
/// (Sec 3.3's refinement statement) as an LCF derivation over the WA.*
/// rule set (Table 3 and friends: WTRIV, WSUM, WDIV, WBIND, ... — generic
/// rules plus ~11 per abstracted word width, all validated against the
/// executable semantics by the test suite).
///
/// Word abstraction is selectable per function (Sec 3.2), and the rule
/// set is user-extensible for code-specific idioms such as the
/// `x + y < x` overflow test (Sec 3.3).
///
//===----------------------------------------------------------------------===//

#ifndef AC_WORDABS_WORDABS_H
#define AC_WORDABS_WORDABS_H

#include "hol/Thm.h"
#include "monad/Interp.h"

#include <cstdint>
#include <optional>
#include <set>
#include <shared_mutex>
#include <unordered_map>

namespace ac::wordabs {

/// Per-function word-abstraction options (Sec 3.2: "We allow the user to
/// select whether to use word abstraction or not on a per-function
/// basis").
struct WAOptions {
  bool Enabled = true;
};

/// Result of word-abstracting one function.
struct WAResult {
  bool Abstracted = false;
  hol::TermRef Def;         ///< %args'. abstract body
  hol::TermRef AppliedBody; ///< body with abstract argument frees
  std::vector<std::string> ArgNames;
  std::vector<hol::TypeRef> ConcArgTys;
  std::vector<hol::TypeRef> AbsArgTys;
  hol::Thm Corres; ///< abs_w_stmt (%_. True) rx ex <raw A> <input C>
};

/// The abstraction kind of a concrete type.
enum class AbsKind { Nat, Int, Id, Pair };
AbsKind kindOf(const hol::TypeRef &T);
/// nat for words, int for swords, componentwise for pairs, unchanged else.
hol::TypeRef absTy(const hol::TypeRef &T);
/// The rx abstraction function term for a concrete type (unat / sint /
/// id_abs / a componentwise pair lambda).
hol::TermRef rxTerm(const hol::TypeRef &T);

/// The word-abstraction engine. Independent of the state type, so it runs
/// equally on heap-lifted (hl:) and byte-level (l2:) programs.
class WordAbstraction {
public:
  explicit WordAbstraction(monad::InterpCtx &Ctx);

  /// Abstracts one function body (with concrete-argument frees named
  /// \p ArgNames of types \p ArgTys). \p FnName keys the published
  /// "wa:<name>" definition. Falls back (Abstracted=false) if disabled
  /// or if a rule is missing.
  WAResult &abstractFunction(const std::string &FnName,
                             const hol::TermRef &Body,
                             const std::vector<std::string> &ArgNames,
                             const std::vector<hol::TypeRef> &ArgTys,
                             const WAOptions &Opts = WAOptions());

  const std::map<std::string, WAResult> &results() const { return Results; }

  /// Publishes a cache-replayed result signature for \p Name: call sites
  /// in functions abstracted later only consult the Abstracted flag, so a
  /// cached function can be skipped entirely while its callers still
  /// translate calls to it correctly (core/ResultCache.h).
  void seedCached(const std::string &Name, bool Abstracted);

  /// User rule extension: theorem concluding `abs_w_val ?P ?f ?a ?c`
  /// whose premises are abs_w_val judgements (Sec 3.3's custom-rule
  /// mechanism).
  void addValRule(const hol::Thm &Rule);

  /// Eagerly registers the standard rule set: the generic Table 3 rules
  /// plus the canonical width-32 per-width family (arithmetic,
  /// comparison, ite, leaf, wrap, coercion elimination). The engine
  /// mints per-width rules lazily, so a rule inventory or profile taken
  /// after a run only sees what the corpus happened to exercise; this
  /// gives such audits the full standard set. Idempotent.
  static void registerStandardRules();

private:
  struct ValOut {
    hol::Thm Th;
    hol::TermRef P; ///< precondition (bool term, may mention open frees)
    hol::TermRef A; ///< abstract term
  };

  std::optional<ValOut> valNatInt(const hol::TermRef &C, bool IsInt);
  std::optional<ValOut> valNatIntUncached(const hol::TermRef &C, bool IsInt);
  std::optional<ValOut> valId(const hol::TermRef &C,
                              bool SkipWrap = false);
  std::optional<ValOut> valIdUncached(const hol::TermRef &C, bool SkipWrap);
  /// Dispatches on kindOf(typeOf(C)).
  std::optional<ValOut> val(const hol::TermRef &C);
  std::optional<hol::Thm> stmt(const hol::TermRef &C);
  hol::TermRef replaceImages(const hol::TermRef &T,
                             const hol::TypeRef &CTy,
                             const hol::TermRef &CF,
                             const hol::TermRef &AF);

  bool containsTracked(const hol::TermRef &T) const;
  bool isTrackedLeaf(const hol::TermRef &T) const;

  monad::InterpCtx &Ctx;
  /// Guarded by ResultsM (same discipline as HeapAbstraction::Results).
  mutable std::shared_mutex ResultsM;
  std::map<std::string, WAResult> Results;
  std::vector<hol::Thm> UserValRules;
  /// Per-thread engine state (each worker abstracts one function at a
  /// time); Tracked is scoped to the current function and CurFn/FreshCtr
  /// are reset on abstractFunction entry, so the output is identical
  /// under any schedule.
  static thread_local std::set<std::string> Tracked; ///< concrete frees
  static thread_local std::string CurFn;
  static thread_local unsigned FreshCtr;

  /// Function-scoped memo tables keyed on interned term ids (the
  /// hash-consed store makes ids stable and O(1) to read). Both caches
  /// depend on the current Tracked set, so any Tracked mutation clears
  /// them — go through trackAdd/trackDrop, never mutate Tracked
  /// directly. valId results are memoised only when their computation
  /// consumed no fresh names, so a hit is byte-for-byte the result a
  /// recomputation would have produced.
  static thread_local std::unordered_map<uint64_t, bool> TrackedMemo;
  static thread_local std::unordered_map<uint64_t, ValOut> ValIdMemo[2];
  static thread_local std::unordered_map<uint64_t, ValOut> ValNatIntMemo[2];
  static void trackAdd(const std::string &N);
  static void trackDrop(const std::string &N);
  static void clearFnMemos();

  std::string fresh(const std::string &H) {
    return H + "^" + std::to_string(FreshCtr++);
  }
};

} // namespace ac::wordabs

#endif // AC_WORDABS_WORDABS_H
