//===- ResultCache.h - On-disk abstraction cache ----------------*- C++ -*-===//
//
// Part of the autocorres-cpp project, under the BSD 2-Clause License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A content-addressed, on-disk cache of per-function pipeline results.
/// In an interactive verification workflow only a handful of functions
/// change between runs, so the driver fingerprints every function's
/// pipeline *inputs* — its definition's tokens, the program-wide
/// declarations and heap types, the per-function options that affect
/// output, and (transitively) its callees' fingerprints, so invalidation
/// flows up the call graph — and skips the Simpl body translation and the
/// whole L1 -> L2 -> HL -> WA chain for functions whose fingerprint has a
/// cached entry. Cached output is bit-identical to a cold run at any job
/// count; the golden-spec snapshot suite and the cache-equivalence test
/// are the enforcing oracles.
///
/// The cache file is a versioned, length-prefixed text format under the
/// cache directory. Corrupt, truncated, or version-mismatched content is
/// silently treated as a miss — the cache can always be deleted.
/// What a cached entry stores is the *rendered* artefacts (final spec,
/// per-phase specs, composed-theorem proposition, diagnostics) plus the
/// result signature callers need (heap-lifted / word-abstracted flags);
/// the in-memory term and theorem objects are not reconstructed, so a
/// cache-hit FuncOutput serves rendering and statistics, not further
/// term-level processing.
///
//===----------------------------------------------------------------------===//

#ifndef AC_CORE_RESULTCACHE_H
#define AC_CORE_RESULTCACHE_H

#include "simpl/Program.h"

#include <cstdint>
#include <map>
#include <mutex>
#include <set>
#include <string>
#include <vector>

namespace ac::core {

/// One cached per-function pipeline result.
struct CachedFunc {
  uint64_t Key = 0;
  std::string Name;
  /// Result signature (what call sites in other functions observe).
  bool HeapLifted = false;         ///< HL engine lifted the function
  bool WAEngineAbstracted = false; ///< WA engine produced an abstraction
  /// Driver-level selection: the WA result was kept as the final body
  /// (can be false while WAEngineAbstracted is true, Sec 3.2).
  bool WordAbstracted = false;
  std::vector<std::string> ArgNames;
  /// Rendered artefacts, byte-identical to a cold run.
  std::string Render;       ///< AutoCorres::render() output
  std::string L1Spec;       ///< printTerm of the L1 term
  std::string L2Spec;       ///< printTerm of the applied L2 body
  std::string HLSpec;       ///< empty when not heap-lifted
  std::string WASpec;       ///< empty when not word-abstracted
  std::string PipelineProp; ///< printTerm of the composed theorem's prop
  /// Per-function driver notes, replayed verbatim on a hit so the merged
  /// diagnostic stream matches a cold run.
  std::vector<std::string> Notes;
  /// Table 5 contributions of the final body.
  unsigned SpecLines = 0;
  unsigned TermSize = 0;
  /// Table 5 contributions of the Simpl body, so that a hit needs no
  /// Simpl translation.
  unsigned ParserSpecLines = 0;
  unsigned ParserTermSize = 0;
};

/// A shared, immutable cached entry. Lookups hand out shared ownership so
/// a concurrent insert/eviction (the daemon runs sessions in parallel
/// against one cache) can never invalidate an entry a reader still holds.
using CachedFuncRef = std::shared_ptr<const CachedFunc>;

/// A remote content-addressed entry store — the third cache tier behind
/// memory and disk (src/cache/RemoteCache.h implements it over the wire;
/// this interface keeps core free of any transport dependency). Both
/// calls are best-effort: get() returning false is a miss, put() may
/// silently drop (the entry is recomputable by construction). Must be
/// thread-safe — concurrent sessions share one tier.
class RemoteTier {
public:
  virtual ~RemoteTier() = default;
  /// Fetches the entry under \p Key. False on miss or any error.
  virtual bool get(uint64_t Key, CachedFunc &Out) = 0;
  /// Publishes a freshly computed entry (write-through on miss).
  virtual void put(const CachedFunc &E) = 0;
};

/// Serializes one entry in the on-disk record format (CRC trailer
/// included) — also the wire blob of the remote tier, so a remote entry
/// is checked by exactly the code path that checks a disk entry.
std::string serializeCachedFunc(const CachedFunc &E);

/// Parses a serializeCachedFunc blob, rejecting trailing bytes and any
/// CRC mismatch (torn write / bit flip anywhere in transit).
bool parseCachedFunc(const std::string &Blob, CachedFunc &Out);

/// The store: load at construction, insert misses, save on demand. Fully
/// thread-safe — the verification daemon keeps one long-lived instance
/// per cache directory as its in-memory tier and runs concurrent
/// abstraction sessions against it; the CLI path constructs one per run.
///
/// With a non-empty directory the entries are also persisted on disk.
/// Cross-process coordination is by advisory file lock
/// (support/FileLock.h): loads take the lock shared, saves take it
/// exclusive and *merge* with the file's current contents (own names
/// win), so two processes sharing a CacheDir can interleave runs without
/// corrupting the file or dropping each other's entries. A directory-less
/// instance is a pure in-memory cache (load/save are no-ops).
///
/// Crash safety: saves land atomically (serialize, write to a temp file,
/// fsync, rename) and every entry carries a CRC-32 of its serialized
/// bytes, so a torn write, a truncated file, or a flipped bit is caught
/// at load. Recovery is per-entry: a damaged entry is dropped (and
/// counted — corruptDropped(), surfaced in ACStats) while every intact
/// entry before and after it keeps serving. A corrupt entry is therefore
/// never *served*; at worst its function is re-verified, which the
/// golden-spec suite proves is byte-identical.
class ResultCache {
public:
  /// Bump when CachedFunc gains fields or the key derivation changes;
  /// older files are then ignored wholesale (stale == miss).
  /// v2: per-entry CRC-32 trailer, strict line framing.
  /// v3: keys from token digests; the Simpl body's Table 5 statistics.
  static constexpr unsigned FormatVersion = 3;

  /// Loads the cache file under \p Dir (created on save if absent).
  /// Unreadable or corrupt content yields an empty (all-miss) cache.
  /// An empty \p Dir makes a memory-only cache.
  explicit ResultCache(std::string Dir);

  /// The entry for \p Key, or null (miss). On a local (memory) miss a
  /// configured remote tier is consulted — outside the cache mutex, so a
  /// slow network fetch never stalls concurrent local hits — and a
  /// remote hit is promoted into the memory tier (and the disk file on
  /// the next save).
  CachedFuncRef lookup(uint64_t Key) const;

  /// Attaches the remote tier (memory → disk → remote). Not owned; must
  /// outlive this cache. nullptr detaches.
  void setRemote(RemoteTier *R) { Remote = R; }

  /// Entries served from the remote tier by this instance (the per-shard
  /// signal the fleet acceptance test asserts on).
  size_t remoteHits() const;

  /// True if some entry (under any key) is for function \p Name — a miss
  /// for a known name is an invalidation, not a first sight.
  bool knowsFunction(const std::string &Name) const;

  /// Records a freshly computed result. One entry per function name: a
  /// recompute evicts the superseded entry, so the store holds exactly
  /// the latest results.
  void insert(CachedFunc E);

  /// Writes all entries back (atomic: temp file + rename), after merging
  /// under the exclusive file lock with whatever another process saved
  /// since our load — their names are kept unless we recomputed them.
  /// Returns false on I/O failure (and true, trivially, for a memory-only
  /// cache); the cache is best-effort, so callers only note it.
  bool save();

  const std::string &dir() const { return Dir; }
  size_t size() const;

  /// Damaged entries dropped by startup recovery (plus any found while
  /// re-reading the file during save merges). Zero on a healthy cache.
  size_t corruptDropped() const;

  /// Resolves the effective cache directory: AC_CACHE=0 force-disables;
  /// otherwise \p OptDir, else $AC_CACHE_DIR, else ".ac-cache" when
  /// AC_CACHE=1. Empty result means the cache is disabled.
  static std::string resolveDir(const std::string &OptDir);

private:
  void load();

  std::string Dir;
  /// Mutable: a const lookup() promotes remote hits into the memory
  /// tier — logically read-only caching.
  mutable std::map<uint64_t, CachedFuncRef> Entries;
  /// Name -> current key, for eviction and invalidation accounting.
  mutable std::map<std::string, uint64_t> KnownNames;
  /// Damaged entries dropped across all file reads of this instance.
  size_t CorruptDropped = 0;
  RemoteTier *Remote = nullptr;
  mutable size_t RemoteHits = 0;
  mutable std::mutex M;
};

/// Computes every function's content fingerprint, callee-first, from
/// what the parser and the Simpl declaration pass recorded — no body needs
/// to be translated. A key covers:
///   - the salt: FormatVersion, the tokens of every top-level declaration
///     that is not a function definition (struct layouts, globals,
///     prototypes), and the ordered heap-type list, which shapes the
///     lifted_globals record;
///   - the function's own definition tokens (signature, locals, body),
///     its first hoisted-call temporary (the only cross-function state
///     Sema threads through a unit), its NoHeapAbs / NoWordAbs options
///     and IsRecursive;
///   - the keys of all callees, folded in over the SCCs of
///     SimplProgram::Calls. Mutually recursive functions share an
///     SCC-level fingerprint, salted per member.
/// Token digests leave out source locations, and no cached artefact
/// carries one, so a whitespace or comment edit keeps every key. Editing
/// one function re-keys exactly it and its transitive callers.
std::map<std::string, uint64_t>
computeFunctionKeys(const simpl::SimplProgram &Prog,
                    const std::set<std::string> &NoHeapAbs,
                    const std::set<std::string> &NoWordAbs);

} // namespace ac::core

#endif // AC_CORE_RESULTCACHE_H
