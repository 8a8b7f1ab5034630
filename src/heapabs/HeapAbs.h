//===- HeapAbs.h - Proof-producing heap abstraction -------------*- C++ -*-===//
//
// Part of the autocorres-cpp project, under the BSD 2-Clause License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The paper's second key contribution (Sec 4): automatically lift
/// byte-level heap reasoning into the split typed heaps of lifted_globals,
/// while producing an LCF derivation that the abstraction is sound.
///
/// The engine walks the lifted (L2) monadic term and, per node, picks the
/// matching rule from the abs_h_stmt / abs_h_val / abs_h_modifies rule set
/// (Table 4 and friends, registered as named axioms "HL.*" and validated
/// against the executable semantics by the test suite), instantiates it
/// through the kernel, and discharges its premises recursively — deriving
///
///   abs_h_stmt A C
///
/// where A is the computed abstract program: heap reads become functional
/// accesses `s[p]`, heap writes functional updates `s[p := v]`, and
/// pointer-validity guards become `is_valid_T s p` (Fig 5).
///
/// Functions performing type-unsafe accesses simply fail to abstract and
/// remain at the byte level (Sec 4.6's per-function selection); callers
/// can still reach them through exec_concrete.
///
//===----------------------------------------------------------------------===//

#ifndef AC_HEAPABS_HEAPABS_H
#define AC_HEAPABS_HEAPABS_H

#include "heapabs/LiftedGlobals.h"
#include "hol/Thm.h"
#include "monad/L2.h"

#include <cstdint>
#include <optional>
#include <shared_mutex>
#include <unordered_map>

namespace ac::heapabs {

/// Result of heap-abstracting one function.
struct HLResult {
  bool Lifted = false;  ///< false: function stays on the byte-level heap
  hol::TermRef Def;     ///< %args. body over lifted_globals
  hol::TermRef AppliedBody;
  hol::Thm Corres;      ///< abs_h_stmt <applied body> <applied l2 body>
};

/// The heap-abstraction engine for one program.
///
/// abstractFunction is safe to call concurrently from the parallel
/// pipeline for *different* functions, provided each function's callees
/// were abstracted first (the call-graph scheduler guarantees both).
/// Fresh-name counters are per-thread and reset per function, so the
/// emitted terms are identical under any schedule.
class HeapAbstraction {
public:
  HeapAbstraction(simpl::SimplProgram &Prog, monad::InterpCtx &Ctx);

  const LiftedGlobals &lifted() const { return LG; }

  /// Abstracts one function (callees must be processed first). With
  /// \p Lift false the function is recorded as byte-level (per-function
  /// opt-out). Falls back automatically when a rule is missing.
  HLResult &abstractFunction(const simpl::SimplFunc &F,
                             const monad::L2Result &L2,
                             bool Lift = true);

  const std::map<std::string, HLResult> &results() const { return Results; }

  /// Publishes a cache-replayed result signature for \p Name: call sites
  /// in functions abstracted later only consult the Lifted flag, so a
  /// cached function can be skipped entirely while its callers still
  /// translate calls to it correctly (core/ResultCache.h).
  void seedCached(const std::string &Name, bool Lifted);

  /// End-user rule extension (Sec 4.5: "can be extended by end-users to
  /// add additional support for abstracting code-level idioms").
  /// The theorem must conclude abs_h_val ?P ?a ?c.
  void addValRule(const hol::Thm &Rule);

  /// Eagerly registers the standard rule set: the generic Table 4 rules
  /// plus the per-type read/write/pointer-guard family at the standard
  /// word widths. The engine mints per-type rules lazily, so audits of
  /// the Inventory after a run only see what the corpus exercised; this
  /// gives rule inventories and profiles the full set. Idempotent.
  static void registerStandardRules();

private:
  struct ValOut {
    hol::Thm Th;
    hol::TermRef P, A; ///< convenience copies of the theorem pieces
  };

  std::optional<ValOut> val(const hol::TermRef &C);
  std::optional<ValOut> valUncached(const hol::TermRef &C);
  std::optional<ValOut> mod(const hol::TermRef &C);
  /// Returns the theorem; the abstract term is its first argument.
  std::optional<hol::Thm> stmt(const hol::TermRef &C);

  hol::TermRef absOf(const hol::Thm &StmtThm) const;

  simpl::SimplProgram &Prog;
  monad::InterpCtx &Ctx;
  LiftedGlobals LG;
  /// Guarded by ResultsM: workers look up callee entries while others
  /// publish theirs. std::map never invalidates element references, so
  /// the HLResult& handed back stays valid without the lock.
  mutable std::shared_mutex ResultsM;
  std::map<std::string, HLResult> Results;
  std::vector<hol::Thm> UserValRules;
  /// Per-thread engine state: the function being abstracted and its
  /// fresh-name counter. Thread-local (each worker abstracts one function
  /// at a time) and reset on abstractFunction entry, so fresh names
  /// depend only on the function, never on the schedule.
  static thread_local std::string CurFn;
  static thread_local unsigned FreshCtr;
  /// Function-scoped val() memo keyed on interned term ids. val is a
  /// pure function of its argument (its probe name is a reserved
  /// constant, its rules are fixed per engine), and only fresh-free
  /// results are stored, so hits reproduce recomputation exactly.
  /// Cleared on abstractFunction entry and on addValRule.
  static thread_local std::unordered_map<uint64_t, ValOut> ValMemo;

  std::string fresh(const std::string &H) {
    return H + "~" + std::to_string(FreshCtr++);
  }
};

/// Installs the runtime meaning of `lift_global_heap` so differential
/// tests can execute abstracted programs.
void installLiftSemantics(monad::InterpCtx &Ctx, const LiftedGlobals &LG);

} // namespace ac::heapabs

#endif // AC_HEAPABS_HEAPABS_H
