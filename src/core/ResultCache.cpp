//===- ResultCache.cpp ----------------------------------------------------===//

#include "core/ResultCache.h"

#include "support/FaultInject.h"
#include "support/FileLock.h"
#include "support/Log.h"
#include "support/Trace.h"
#include "support/Fingerprint.h"

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>

#include <fcntl.h>
#include <unistd.h>

using namespace ac;
using namespace ac::core;
using support::FaultSite;
using support::Fingerprint;

// Persistence fault sites (docs/EXPERIMENTS.md has the inventory).
// `crash` and `bitflip` corrupt the *published* bytes — they prove the
// CRC recovery path; the other four fail the save cleanly and must leave
// the previously published file untouched.
static const FaultSite FaultSaveOpen("cache.save.open");
static const FaultSite FaultSaveWrite("cache.save.write");
static const FaultSite FaultSaveFsync("cache.save.fsync");
static const FaultSite FaultSaveRename("cache.save.rename");
static const FaultSite FaultSaveCrash("cache.save.crash");
static const FaultSite FaultSaveBitflip("cache.save.bitflip");

//===----------------------------------------------------------------------===//
// Directory resolution
//===----------------------------------------------------------------------===//

std::string ResultCache::resolveDir(const std::string &OptDir) {
  const char *Toggle = std::getenv("AC_CACHE");
  if (Toggle && std::string(Toggle) == "0")
    return "";
  if (!OptDir.empty())
    return OptDir;
  const char *EnvDir = std::getenv("AC_CACHE_DIR");
  if (EnvDir && *EnvDir)
    return EnvDir;
  if (Toggle && std::string(Toggle) == "1")
    return ".ac-cache";
  return "";
}

//===----------------------------------------------------------------------===//
// Load / save. Versioned text with length-prefixed blobs. Every entry
// ends with a CRC-32 of its serialized body, and the parser recovers
// per-entry: a damaged entry (torn write, truncation, bit flip) is
// dropped and the scan resyncs at the next "entry " line start, so one
// bad entry never takes out its intact neighbours.
//===----------------------------------------------------------------------===//

namespace {

std::string cacheFile(const std::string &Dir) {
  return Dir + "/accache-v" + std::to_string(ResultCache::FormatVersion) +
         ".txt";
}

/// The advisory lock guarding the cache file against concurrent
/// processes. One lock file per directory, version-independent.
std::string lockFile(const std::string &Dir) {
  return Dir + "/accache.lock";
}

// Strict cursor-based parsing over the whole file image. Strictness is
// deliberate: the only writer is writeEntry below, so any deviation from
// its exact byte layout *is* corruption, and failing fast hands control
// to the resync loop (the CRC would reject the entry anyway).

bool eatLit(const std::string &D, size_t &P, std::string_view Lit) {
  if (D.size() - P < Lit.size() || D.compare(P, Lit.size(), Lit) != 0)
    return false;
  P += Lit.size();
  return true;
}

/// A non-empty run of chars up to the next ' ' or '\n' (exclusive).
bool readWord(const std::string &D, size_t &P, std::string &Out) {
  size_t Start = P;
  while (P < D.size() && D[P] != ' ' && D[P] != '\n')
    ++P;
  if (P == Start)
    return false;
  Out.assign(D, Start, P - Start);
  return true;
}

bool readNum(const std::string &D, size_t &P, uint64_t &V) {
  size_t Start = P;
  V = 0;
  while (P < D.size() && D[P] >= '0' && D[P] <= '9') {
    if (V > (UINT64_MAX - 9) / 10)
      return false;
    V = V * 10 + static_cast<uint64_t>(D[P] - '0');
    ++P;
  }
  return P != Start;
}

/// "blob <len>\n<raw bytes>\n"; false on any mismatch or if \p len
/// overruns the image (truncated file).
bool readBlobAt(const std::string &D, size_t &P, std::string &Out) {
  uint64_t Len;
  if (!eatLit(D, P, "blob ") || !readNum(D, P, Len) || !eatLit(D, P, "\n"))
    return false;
  if (Len > D.size() - P)
    return false;
  Out.assign(D, P, Len);
  P += Len;
  return eatLit(D, P, "\n");
}

void writeBlob(std::ostream &Out, const std::string &S) {
  Out << "blob " << S.size() << "\n" << S << "\n";
}

/// Parses one entry whose "entry " keyword starts at \p P. On success
/// fills \p E, advances \p P past the trailing "end\n", and guarantees
/// the body bytes match the stored CRC. On failure \p P is unspecified —
/// the caller resyncs from the entry start.
bool parseEntryAt(const std::string &D, size_t &P, CachedFunc &E) {
  size_t Body = P;
  std::string Tok;
  if (!eatLit(D, P, "entry ") || !readWord(D, P, Tok) ||
      !Fingerprint::parseHex(Tok, E.Key) || !eatLit(D, P, "\n"))
    return false;
  if (!eatLit(D, P, "name ") || !readWord(D, P, E.Name) ||
      !eatLit(D, P, "\n"))
    return false;
  uint64_t HL, WAE, WA;
  if (!eatLit(D, P, "flags ") || !readNum(D, P, HL) || HL > 1 ||
      !eatLit(D, P, " ") || !readNum(D, P, WAE) || WAE > 1 ||
      !eatLit(D, P, " ") || !readNum(D, P, WA) || WA > 1 ||
      !eatLit(D, P, "\n"))
    return false;
  E.HeapLifted = HL != 0;
  E.WAEngineAbstracted = WAE != 0;
  E.WordAbstracted = WA != 0;
  uint64_t N;
  if (!eatLit(D, P, "args ") || !readNum(D, P, N) || N > 4096)
    return false;
  E.ArgNames.resize(N);
  for (std::string &A : E.ArgNames)
    if (!eatLit(D, P, " ") || !readWord(D, P, A))
      return false;
  if (!eatLit(D, P, "\n"))
    return false;
  uint64_t Stat[4];
  if (!eatLit(D, P, "stat"))
    return false;
  for (uint64_t &V : Stat)
    if (!eatLit(D, P, " ") || !readNum(D, P, V) || V > 0xffffffffu)
      return false;
  if (!eatLit(D, P, "\n"))
    return false;
  E.SpecLines = static_cast<unsigned>(Stat[0]);
  E.TermSize = static_cast<unsigned>(Stat[1]);
  E.ParserSpecLines = static_cast<unsigned>(Stat[2]);
  E.ParserTermSize = static_cast<unsigned>(Stat[3]);
  if (!eatLit(D, P, "notes ") || !readNum(D, P, N) || N > 4096 ||
      !eatLit(D, P, "\n"))
    return false;
  E.Notes.resize(N);
  for (std::string &Note : E.Notes)
    if (!readBlobAt(D, P, Note))
      return false;
  for (std::string *S : {&E.Render, &E.L1Spec, &E.L2Spec, &E.HLSpec,
                         &E.WASpec, &E.PipelineProp})
    if (!readBlobAt(D, P, *S))
      return false;
  uint32_t Want;
  size_t BodyEnd = P;
  if (!eatLit(D, P, "crc ") || !readWord(D, P, Tok) ||
      !support::parseCrcHex(Tok, Want) || !eatLit(D, P, "\nend\n"))
    return false;
  return support::crc32(D.data() + Body, BodyEnd - Body) == Want;
}

/// Serializes \p E followed by the CRC-32 of exactly those bytes.
void writeEntry(std::ostream &Final, const CachedFunc &E) {
  std::ostringstream Out;
  Out << "entry " << Fingerprint::hex(E.Key) << "\n";
  Out << "name " << E.Name << "\n";
  Out << "flags " << (E.HeapLifted ? 1 : 0) << " "
      << (E.WAEngineAbstracted ? 1 : 0) << " "
      << (E.WordAbstracted ? 1 : 0) << "\n";
  Out << "args " << E.ArgNames.size();
  for (const std::string &A : E.ArgNames)
    Out << " " << A;
  Out << "\n";
  Out << "stat " << E.SpecLines << " " << E.TermSize << " "
      << E.ParserSpecLines << " " << E.ParserTermSize << "\n";
  Out << "notes " << E.Notes.size() << "\n";
  for (const std::string &Note : E.Notes)
    writeBlob(Out, Note);
  for (const std::string *S : {&E.Render, &E.L1Spec, &E.L2Spec, &E.HLSpec,
                               &E.WASpec, &E.PipelineProp})
    writeBlob(Out, *S);
  std::string Body = Out.str();
  Final << Body << "crc " << support::crcHex(support::crc32(Body))
        << "\nend\n";
}

} // namespace

std::string core::serializeCachedFunc(const CachedFunc &E) {
  std::ostringstream Out;
  writeEntry(Out, E);
  return Out.str();
}

bool core::parseCachedFunc(const std::string &Blob, CachedFunc &Out) {
  size_t P = 0;
  return parseEntryAt(Blob, P, Out) && P == Blob.size();
}

namespace {

/// The next "entry " keyword at a line start, at or after \p From.
size_t findEntryStart(const std::string &D, size_t From) {
  for (size_t At = D.find("entry ", From); At != std::string::npos;
       At = D.find("entry ", At + 1))
    if (At == 0 || D[At - 1] == '\n')
      return At;
  return std::string::npos;
}

} // namespace

/// Parses the cache file at \p Path into \p Entries / \p KnownNames.
/// Damaged entries are dropped and counted in \p Dropped — one count per
/// contiguous damaged region, since resyncing through a torn entry whose
/// blob bytes happen to contain "entry " at a line start would otherwise
/// inflate the count for a single casualty.
static void readCacheFile(const std::string &Path,
                          std::map<uint64_t, CachedFuncRef> &Entries,
                          std::map<std::string, uint64_t> &KnownNames,
                          size_t &Dropped) {
  std::ifstream In(Path, std::ios::binary);
  if (!In)
    return;
  std::ostringstream Buf;
  Buf << In.rdbuf();
  const std::string D = Buf.str();
  size_t P = 0;
  uint64_t Version;
  if (!eatLit(D, P, "ACCACHE ") || !readNum(D, P, Version) ||
      !eatLit(D, P, "\n") || Version != ResultCache::FormatVersion)
    return; // stale or foreign file: every lookup misses
  bool InBadRegion = false;
  while (true) {
    size_t At = findEntryStart(D, P);
    if (At == std::string::npos)
      break;
    size_t Q = At;
    CachedFunc E;
    if (parseEntryAt(D, Q, E)) {
      KnownNames[E.Name] = E.Key;
      Entries[E.Key] = std::make_shared<const CachedFunc>(std::move(E));
      P = Q;
      InBadRegion = false;
    } else {
      if (!InBadRegion)
        ++Dropped;
      InBadRegion = true;
      P = At + 6; // resync at the next line-start "entry "
    }
  }
}

ResultCache::ResultCache(std::string D) : Dir(std::move(D)) { load(); }

void ResultCache::load() {
  if (Dir.empty())
    return; // memory-only tier
  AC_SPAN("cache.load");
  // Shared lock: concurrent readers overlap, but a mid-save writer can
  // never hand us a half-written file. Lockless fallback if the lock
  // file is unopenable (e.g. the directory does not exist yet).
  support::FileLock L = [&] {
    AC_SPAN("cache.lockwait");
    return support::FileLock::acquire(lockFile(Dir), /*Exclusive=*/false);
  }();
  size_t Dropped = 0;
  readCacheFile(cacheFile(Dir), Entries, KnownNames, Dropped);
  if (Dropped) {
    CorruptDropped += Dropped;
    // "dropped" is load-bearing: operators (and tier-1) grep for it.
    support::Log::warn(
        "cache.entries_dropped",
        {{"path", cacheFile(Dir)},
         {"dropped", static_cast<uint64_t>(Dropped)},
         {"kept", static_cast<uint64_t>(Entries.size())},
         {"msg", "dropped damaged cache entries; dropped functions "
                 "re-verify"}});
  }
}

CachedFuncRef ResultCache::lookup(uint64_t Key) const {
  {
    std::lock_guard<std::mutex> L(M);
    auto It = Entries.find(Key);
    if (It != Entries.end())
      return It->second;
  }
  if (!Remote)
    return nullptr;
  // Remote fetch outside the mutex: a slow network round-trip must not
  // serialize concurrent local hits.
  CachedFunc E;
  if (!Remote->get(Key, E) || E.Key != Key)
    return nullptr;
  auto Ref = std::make_shared<const CachedFunc>(std::move(E));
  {
    std::lock_guard<std::mutex> L(M);
    ++RemoteHits;
    auto It = KnownNames.find(Ref->Name);
    if (It != KnownNames.end() && It->second != Key)
      Entries.erase(It->second);
    KnownNames[Ref->Name] = Key;
    Entries[Key] = Ref; // promote: next time it is a memory hit
  }
  return Ref;
}

size_t ResultCache::remoteHits() const {
  std::lock_guard<std::mutex> L(M);
  return RemoteHits;
}

bool ResultCache::knowsFunction(const std::string &Name) const {
  std::lock_guard<std::mutex> L(M);
  return KnownNames.count(Name) != 0;
}

size_t ResultCache::size() const {
  std::lock_guard<std::mutex> L(M);
  return Entries.size();
}

size_t ResultCache::corruptDropped() const {
  std::lock_guard<std::mutex> L(M);
  return CorruptDropped;
}

void ResultCache::insert(CachedFunc E) {
  CachedFuncRef Ref;
  {
    std::lock_guard<std::mutex> L(M);
    auto It = KnownNames.find(E.Name);
    if (It != KnownNames.end() && It->second != E.Key)
      Entries.erase(It->second); // superseded: the inputs changed
    KnownNames[E.Name] = E.Key;
    uint64_t Key = E.Key;
    Ref = std::make_shared<const CachedFunc>(std::move(E));
    Entries[Key] = Ref;
  }
  // Write-through on miss: every freshly computed entry is published so
  // the next shard's cold miss becomes a remote hit. Outside the mutex
  // (network), best-effort (the tier may drop it).
  if (Remote)
    Remote->put(*Ref);
}

bool ResultCache::save() {
  if (Dir.empty())
    return true; // memory-only tier persists nothing
  AC_SPAN("cache.save");
  std::error_code EC;
  std::filesystem::create_directories(Dir, EC); // best-effort

  // Exclusive lock for the whole read-merge-write: another process that
  // saved since our load must not lose its entries, and no reader may
  // observe a torn file. Own names win (we computed them more recently);
  // foreign-only names are carried over.
  support::FileLock Lock = [&] {
    AC_SPAN("cache.lockwait");
    return support::FileLock::acquire(lockFile(Dir), /*Exclusive=*/true);
  }();

  std::map<uint64_t, CachedFuncRef> Merged;
  std::map<std::string, uint64_t> MergedNames;
  size_t Dropped = 0;
  readCacheFile(cacheFile(Dir), Merged, MergedNames, Dropped);
  {
    std::lock_guard<std::mutex> L(M);
    CorruptDropped += Dropped;
    for (const auto &[Name, Key] : KnownNames) {
      auto It = MergedNames.find(Name);
      if (It != MergedNames.end() && It->second != Key)
        Merged.erase(It->second);
      MergedNames[Name] = Key;
      Merged[Key] = Entries.at(Key);
    }
  }

  // Serialize the whole image up front: fault injection below mutates
  // the finished byte string, and a single write keeps the temp-file
  // window minimal.
  std::string Image;
  {
    std::ostringstream Out;
    Out << "ACCACHE " << FormatVersion << "\n";
    for (const auto &[Key, E] : Merged)
      writeEntry(Out, *E);
    Image = Out.str();
  }

  // cache.save.crash: a torn image lands on the *published* path — the
  // state a power cut leaves on a filesystem that reordered data and
  // rename journal entries. The next load's per-entry recovery must cope.
  bool Torn = FaultSaveCrash.fire();
  if (Torn)
    Image.resize(Image.size() - Image.size() / 3);
  // cache.save.bitflip: silent single-bit corruption. The save itself
  // reports success; the *next load* must catch the entry by CRC.
  bool Flipped = FaultSaveBitflip.fire();
  if (Flipped && !Image.empty())
    Image[Image.size() / 2] ^= 0x20;

  // The temp name only needs to dodge concurrent savers of *other*
  // directories' files landing in shared tmp listings; hashing the entry
  // set keeps it deterministic per content. (Same-directory savers are
  // serialized by the lock above.)
  Fingerprint NameFP;
  for (const auto &[Key, E] : Merged)
    NameFP.u64(Key);
  std::string Tmp = cacheFile(Dir) + ".tmp." + Fingerprint::hex(NameFP.digest());

  if (FaultSaveOpen.fire())
    return false;
  int FD = ::open(Tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (FD < 0)
    return false;
  auto Fail = [&] {
    ::close(FD);
    std::remove(Tmp.c_str());
    return false;
  };
  if (FaultSaveWrite.fire()) {
    // Partial write then failure: the temp file is abandoned whole-cloth
    // and the published cache file stays intact.
    (void)!::write(FD, Image.data(), Image.size() / 2);
    return Fail();
  }
  const char *Ptr = Image.data();
  size_t Left = Image.size();
  while (Left) {
    ssize_t N = ::write(FD, Ptr, Left);
    if (N < 0) {
      if (errno == EINTR)
        continue;
      return Fail();
    }
    Ptr += N;
    Left -= static_cast<size_t>(N);
  }
  // fsync before rename: otherwise the rename can become durable while
  // the data is not — exactly the torn-file state the CRC recovery
  // exists for, but not one we should manufacture ourselves.
  if (FaultSaveFsync.fire() || ::fsync(FD) != 0)
    return Fail();
  ::close(FD);
  if (FaultSaveRename.fire() ||
      std::rename(Tmp.c_str(), cacheFile(Dir).c_str()) != 0) {
    std::remove(Tmp.c_str());
    return false;
  }
  // A torn image did land (that is the point of the site), but the save
  // as a whole did not complete normally — report it like a crash would.
  return !Torn;
}

//===----------------------------------------------------------------------===//
// Fingerprinting
//===----------------------------------------------------------------------===//

std::map<std::string, uint64_t>
core::computeFunctionKeys(const simpl::SimplProgram &Prog,
                          const std::set<std::string> &NoHeapAbs,
                          const std::set<std::string> &NoWordAbs) {
  // The salt: everything program-wide a body's translation reads beyond
  // its own definition and its callees' — struct layouts, globals and
  // prototypes (as their tokens) and the heap types, in order, which
  // shape the lifted_globals record.
  Fingerprint SaltFP;
  SaltFP.u32(ResultCache::FormatVersion);
  SaltFP.u64(Prog.TU->DeclDigests.size());
  for (uint64_t D : Prog.TU->DeclDigests)
    SaltFP.u64(D);
  SaltFP.u64(Prog.HeapTypes.size());
  for (const hol::TypeRef &T : Prog.HeapTypes)
    SaltFP.str(hol::typeStr(T));
  const uint64_t Salt = SaltFP.digest();

  const std::vector<std::string> &Order = Prog.FunctionOrder;
  const simpl::CallGraph &CG = Prog.Calls;
  std::vector<uint64_t> Keys(Order.size());
  // Callee-first topological order: external callee keys always exist.
  for (size_t C = 0; C != CG.SCCs.size(); ++C) {
    Fingerprint FP(Salt);
    for (unsigned I : CG.SCCs[C]) {
      const simpl::SimplFunc &F = *Prog.function(Order[I]);
      FP.str(F.Name);
      FP.u64(F.Decl->TokenDigest);
      FP.u32(F.Decl->HoistBase);
      FP.boolean(NoHeapAbs.count(F.Name) != 0);
      FP.boolean(NoWordAbs.count(F.Name) != 0);
      FP.boolean(F.IsRecursive);
      for (unsigned Callee : CG.Callees[I]) {
        if (CG.SCCOf[Callee] == C)
          continue; // intra-SCC: the member digests above cover it
        FP.str(Order[Callee]);
        FP.u64(Keys[Callee]);
      }
    }
    const uint64_t SCCKey = FP.digest();
    for (unsigned I : CG.SCCs[C]) {
      Fingerprint MF(SCCKey);
      MF.str(Order[I]);
      Keys[I] = MF.digest();
    }
  }
  std::map<std::string, uint64_t> Out;
  for (size_t I = 0; I != Order.size(); ++I)
    Out.emplace(Order[I], Keys[I]);
  return Out;
}
