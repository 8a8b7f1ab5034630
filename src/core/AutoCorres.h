//===- AutoCorres.h - The tool driver ---------------------------*- C++ -*-===//
//
// Part of the autocorres-cpp project, under the BSD 2-Clause License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The public entry point: runs the whole Fig 1 pipeline
///
///   C99 --parse--> Simpl --L1--> monadic --L2--> lifted locals
///       --HL--> split typed heaps --WA--> ideal arithmetic
///
/// per translation unit, producing for every function its most abstract
/// monadic specification, the per-phase artefacts, and a composed
/// end-to-end refinement theorem
///
///   ac_corres <output> SIMPL[f]
///
/// whose derivation chains the per-phase theorems through the AC.compose
/// axioms. Heap and word abstraction are selectable per function
/// (Secs 3.2, 4.6); functions that use type-unsafe idioms fall back
/// automatically.
///
/// The driver also measures the Table 5 statistics: CPU time split
/// between the parser stage and the abstraction stages, lines of
/// specification, and average term size for both outputs.
///
//===----------------------------------------------------------------------===//

#ifndef AC_CORE_AUTOCORRES_H
#define AC_CORE_AUTOCORRES_H

#include "heapabs/HeapAbs.h"
#include "monad/L1.h"
#include "monad/L2.h"
#include "wordabs/WordAbs.h"

#include <memory>
#include <set>

namespace ac::support {
class ThreadPool;
} // namespace ac::support

namespace ac::core {

class ResultCache;
struct CachedFunc;

/// Per-run options.
///
/// run() is reentrant: concurrent calls from different threads — the
/// verification daemon (service/Server.h) runs one per in-flight request
/// — share no mutable state beyond the process-wide hash-consing tables
/// and the axiom inventory, both of which are thread-safe and
/// content-addressed (an axiom name always determines its proposition,
/// so two programs can only ever re-register identical axioms).
struct ACOptions {
  /// Functions to keep on the byte-level heap (Sec 4.6).
  std::set<std::string> NoHeapAbs;
  /// Functions to keep on machine words (Sec 3.2).
  std::set<std::string> NoWordAbs;
  /// Worker threads for the abstraction stages. 0 = the AC_JOBS
  /// environment variable (1 when unset). Output is bit-identical at
  /// every job count; see simpl/CallGraph.h.
  unsigned Jobs = 0;
  /// Directory of the content-addressed abstraction cache
  /// (core/ResultCache.h). Empty falls back to $AC_CACHE_DIR (and
  /// AC_CACHE=1 enables ".ac-cache"); AC_CACHE=0 force-disables. When
  /// enabled, functions whose pipeline inputs are unchanged skip the
  /// whole abstraction chain and replay their cached rendered output,
  /// which is bit-identical to a cold run at any Jobs count.
  std::string CacheDir;
  /// A long-lived cache owned by the caller (the daemon's in-memory
  /// tier). When set it overrides CacheDir entirely: the run hits and
  /// fills this instance and never touches disk — persistence is the
  /// owner's business (e.g. a save on drain). Must outlive the run.
  ResultCache *SharedCache = nullptr;
  /// A warm worker pool owned by the caller. When set (and the run is
  /// parallel, Jobs != 1) the abstraction stages are scheduled onto it
  /// instead of spawning a pool per run; Jobs then only selects the
  /// parallel path and the pool's size is reported in ACStats::Jobs.
  /// Safe to share between concurrent runs. Must outlive the run.
  support::ThreadPool *SharedPool = nullptr;
  /// When non-empty, span tracing (support/Trace.h) is enabled for this
  /// run and the collected Chrome trace JSON is flushed here at the end.
  /// Empty falls back to $AC_TRACE. Flushing is best-effort: a trace
  /// that cannot be written warns and never fails the run.
  std::string TracePath;
  /// When non-empty, proof-certificate recording (hol/Cert.h) is enabled
  /// for this run and one certificate claiming every freshly derived
  /// end-to-end pipeline theorem (claim name = function name, in
  /// FunctionOrder) is written here at the end. Empty falls back to
  /// $AC_CERT. Cache-replayed functions have no live derivation and are
  /// skipped — re-run with the cache disabled to certify them. Writing
  /// is best-effort and never fails the run; see ACStats::CertsWritten.
  std::string CertPath;
  /// When non-empty, per-function certificates: each freshly derived
  /// function writes `<16-hex-key>.acpc` into this directory, where the
  /// key is the same content fingerprint that addresses the abstraction
  /// cache (core/Fingerprint.h) — a cert and a cache entry for the same
  /// key certify the same pipeline inputs. Empty falls back to
  /// $AC_CERT_DIR. Composable with CertPath.
  std::string CertDir;
};

/// Everything produced for one function.
struct FuncOutput {
  std::string Name;
  std::vector<std::string> ArgNames;
  std::vector<hol::TypeRef> FinalArgTys;
  hol::TypeRef FinalRetTy;

  hol::TermRef L1Term;
  hol::TermRef L2Body;
  hol::TermRef HLBody; ///< null if not lifted
  hol::TermRef WABody; ///< null if not abstracted
  bool HeapLifted = false;
  bool WordAbstracted = false;

  /// The most abstract body (WA > HL > L2); null on a cache hit.
  const hol::TermRef &finalBody() const {
    return WABody ? WABody : (HLBody ? HLBody : L2Body);
  }
  /// FunDefs key of the most abstract definition. Driven by the flags
  /// (not the term fields) so it also holds for cache-replayed outputs.
  std::string finalKey() const {
    return (WordAbstracted ? "wa:" : (HeapLifted ? "hl:" : "l2:")) + Name;
  }

  hol::Thm L1Corres, L2Corres, HLCorres, WACorres;
  /// ac_corres <final> SIMPL[f], composed through AC.compose.
  hol::Thm Pipeline;

  /// The abstraction-cache entry this output was replayed from, or null:
  /// on a hit its rendered artefacts are authoritative and the
  /// term/theorem fields above are null (a cache hit serves rendering and
  /// statistics; re-run with the cache disabled to inspect live terms).
  std::shared_ptr<const CachedFunc> Cached;

  /// Rendered per-phase specs and composed-theorem proposition; computed
  /// from the live terms, or replayed verbatim on a cache hit.
  std::string l1Spec() const;
  std::string l2Spec() const;
  std::string hlSpec() const; ///< empty if not heap-lifted
  std::string waSpec() const; ///< empty if not word-abstracted
  std::string pipelineProp() const;
  /// Table 5 contributions of the final body.
  unsigned finalSpecLines() const;
  unsigned finalTermSize() const;
};

/// Table 5 statistics for one run.
struct ACStats {
  unsigned SourceLines = 0;
  unsigned NumFunctions = 0;
  /// Wall time of the parser stage: parse, check, the Simpl declaration
  /// pass, and the Simpl bodies of the functions the cache did not replay.
  double ParserSeconds = 0;
  /// CPU time of the parse + translation phase (single-threaded, so
  /// normally tracks ParserSeconds minus any time blocked off-CPU).
  double ParserCpuSeconds = 0;
  /// Summed per-thread CPU time of the abstraction stages — comparable
  /// to the paper's serial Table 5 column at any job count.
  double AutoCorresSeconds = 0;
  /// Elapsed wall-clock time of the abstraction stages (drops below
  /// AutoCorresSeconds when Jobs > 1 on a multi-core machine).
  double AutoCorresWallSeconds = 0;
  /// Worker threads the run actually used.
  unsigned Jobs = 1;
  /// Table 5 size columns. The parser ones sum the Simpl bodies; a cache
  /// hit replays its body's contribution instead of translating it.
  unsigned ParserSpecLines = 0;
  unsigned ACSpecLines = 0;
  unsigned ParserTermSizeTotal = 0;
  unsigned ACTermSizeTotal = 0;
  /// Abstraction-cache accounting (all zero when the cache is disabled).
  bool CacheEnabled = false;
  unsigned CacheHits = 0;
  /// Misses split into first sights and invalidations: a miss for a
  /// function the cache already knows under a different key means its
  /// inputs (or a transitive callee's) changed.
  unsigned CacheMisses = 0;
  unsigned CacheInvalidations = 0;
  /// Damaged on-disk entries dropped by cache recovery this run (each one
  /// re-verifies instead of being served — corruption costs warmth only).
  unsigned CacheDroppedEntries = 0;
  /// Proof-certificate accounting (all zero unless CertPath / CertDir —
  /// or $AC_CERT / $AC_CERT_DIR — requested export this run).
  unsigned CertsWritten = 0; ///< certificate files successfully written
  unsigned CertClaims = 0;   ///< pipeline theorems claimed across them
  /// Functions whose derivation could not be exported: replayed from the
  /// abstraction cache (no live theorem), or minted before recording was
  /// enabled (a process-static rule cached without its replay payload).
  unsigned CertSkipped = 0;

  double parserAvgTermSize() const {
    return NumFunctions ? double(ParserTermSizeTotal) / NumFunctions : 0;
  }
  double acAvgTermSize() const {
    return NumFunctions ? double(ACTermSizeTotal) / NumFunctions : 0;
  }
};

/// One AutoCorres run over a translation unit.
class AutoCorres {
public:
  /// Runs the full pipeline; nullptr with diagnostics on failure.
  static std::unique_ptr<AutoCorres>
  run(const std::string &Source, DiagEngine &Diags,
      const ACOptions &Opts = ACOptions());

  /// The Simpl program. A function replayed from the abstraction cache
  /// was never translated: its SimplFunc has every declaration-pass field
  /// but a null Body.
  const simpl::SimplProgram &program() const { return *Prog; }
  monad::InterpCtx &ctx() { return Ctx; }
  const heapabs::LiftedGlobals &lifted() const { return HL->lifted(); }

  const FuncOutput *func(const std::string &Name) const {
    auto It = Funcs.find(Name);
    return It == Funcs.end() ? nullptr : &It->second;
  }
  const std::vector<std::string> &order() const {
    return Prog->FunctionOrder;
  }

  const ACStats &stats() const { return Stats; }

  /// Pretty-prints the final specification of one function, paper style:
  /// `name' arg1 ... argn == <body>`.
  std::string render(const std::string &Name) const;

  /// Fills in the standard word- and heap-abstraction rule families and
  /// gives every registered WA. and HL. rule a row in the rule profile
  /// (when it is on), so rules that never fired show up too. Returns the
  /// number of WA. and HL. rules.
  static std::pair<unsigned, unsigned> preregisterRules();

private:
  AutoCorres() : Ctx(nullptr) {}

  std::unique_ptr<simpl::SimplProgram> Prog;
  monad::InterpCtx Ctx;
  std::unique_ptr<heapabs::HeapAbstraction> HL;
  std::unique_ptr<wordabs::WordAbstraction> WA;
  std::map<std::string, FuncOutput> Funcs;
  ACStats Stats;
};

} // namespace ac::core

#endif // AC_CORE_AUTOCORRES_H
