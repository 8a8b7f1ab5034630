//===- CacheTest.cpp - Abstraction-cache equivalence gate -------*- C++ -*-===//
//
// Part of the autocorres-cpp project, under the BSD 2-Clause License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The acceptance gate of the content-addressed abstraction cache
/// (core/ResultCache.h): runs with the cache — cold, warm, and after a
/// source edit — must be byte-identical to runs without it, at every job
/// count. Invalidation must flow up the call graph: editing one function
/// recomputes exactly it and its transitive callers, while untouched
/// functions replay as hits. A corrupt or stale cache file must degrade
/// to a cold run, never to wrong output.
///
//===----------------------------------------------------------------------===//

#include "core/AutoCorres.h"
#include "core/ResultCache.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

using namespace ac;

namespace {

/// A five-function program with a diamond-free chain top -> mid -> leaf,
/// an unrelated pure function, and an unrelated pointer function (so the
/// heap-lifting path is exercised too).
///
///   top --> mid --> leaf        lone        bump
///     \------------^
const char *chainSource(const char *LeafExpr) {
  static std::string Buf;
  Buf = std::string("unsigned int leaf(unsigned int x) { return ") +
        LeafExpr +
        "; }\n"
        "unsigned int mid(unsigned int x) { return leaf(x) * 2u; }\n"
        "unsigned int top(unsigned int x) { return mid(x) + leaf(x); }\n"
        "unsigned int lone(unsigned int a, unsigned int b) {\n"
        "  if (a < b) { return a; }\n"
        "  return b;\n"
        "}\n"
        "void bump(unsigned int *p) { *p = *p + 1u; }\n";
  return Buf.c_str();
}

/// Everything the equivalence gate compares, per function, using the
/// accessors that are defined for both live and cache-replayed outputs.
struct Snapshot {
  std::vector<std::string> Names;
  std::vector<std::string> Rendered;
  std::vector<std::string> FinalKeys;
  std::vector<std::string> Pipelines;
  /// Per-phase specs, one string per function.
  std::vector<std::string> Specs;
  std::vector<std::string> Diags;
  core::ACStats Stats;
};

Snapshot runWith(const std::string &Src, const std::string &CacheDir,
                 unsigned Jobs = 1,
                 const std::set<std::string> &NoHeapAbs = {}) {
  DiagEngine Diags;
  core::ACOptions Opts;
  Opts.Jobs = Jobs;
  Opts.CacheDir = CacheDir;
  Opts.NoHeapAbs = NoHeapAbs;
  auto AC = core::AutoCorres::run(Src, Diags, Opts);
  EXPECT_TRUE(AC) << Diags.str();
  Snapshot S;
  if (!AC)
    return S;
  for (const std::string &Name : AC->order()) {
    const core::FuncOutput *F = AC->func(Name);
    if (!F) {
      ADD_FAILURE() << "no output for " << Name;
      continue;
    }
    S.Names.push_back(Name);
    S.Rendered.push_back(AC->render(Name));
    S.FinalKeys.push_back(F->finalKey());
    S.Pipelines.push_back(F->pipelineProp());
    S.Specs.push_back(F->l1Spec() + "\n" + F->l2Spec() + "\n" +
                      F->hlSpec() + "\n" + F->waSpec());
  }
  for (const Diagnostic &D : Diags.diagnostics())
    S.Diags.push_back(D.str());
  S.Stats = AC->stats();
  return S;
}

void expectIdentical(const Snapshot &A, const Snapshot &B,
                     const std::string &What) {
  ASSERT_EQ(A.Names.size(), B.Names.size()) << What;
  for (size_t I = 0; I != A.Names.size(); ++I) {
    ASSERT_EQ(A.Names[I], B.Names[I]) << What;
    EXPECT_EQ(A.FinalKeys[I], B.FinalKeys[I])
        << What << ": finalKey diverged for " << A.Names[I];
    EXPECT_EQ(A.Rendered[I], B.Rendered[I])
        << What << ": rendered spec diverged for " << A.Names[I];
    EXPECT_EQ(A.Pipelines[I], B.Pipelines[I])
        << What << ": pipeline proposition diverged for " << A.Names[I];
    EXPECT_EQ(A.Specs[I], B.Specs[I])
        << What << ": per-phase specs diverged for " << A.Names[I];
  }
  EXPECT_EQ(A.Diags, B.Diags) << What << ": diagnostic stream diverged";
  // Table 5 output columns must not depend on cache warmth either: a hit
  // replays its Simpl body's statistics instead of translating it.
  EXPECT_EQ(A.Stats.ACSpecLines, B.Stats.ACSpecLines) << What;
  EXPECT_EQ(A.Stats.ACTermSizeTotal, B.Stats.ACTermSizeTotal) << What;
  EXPECT_EQ(A.Stats.ParserSpecLines, B.Stats.ParserSpecLines) << What;
  EXPECT_EQ(A.Stats.ParserTermSizeTotal, B.Stats.ParserTermSizeTotal)
      << What;
}

/// Fresh empty directory under the test temp root.
class CacheTest : public ::testing::Test {
protected:
  void SetUp() override {
    // The option-passed directory must govern regardless of the
    // environment the test runner happens to have.
    ::unsetenv("AC_CACHE");
    ::unsetenv("AC_CACHE_DIR");
    Dir = ::testing::TempDir() + "ac-cache-test/" +
          ::testing::UnitTest::GetInstance()
              ->current_test_info()
              ->name();
    std::filesystem::remove_all(Dir);
  }
  void TearDown() override { std::filesystem::remove_all(Dir); }

  std::string cacheFilePath() const {
    return Dir + "/accache-v" +
           std::to_string(core::ResultCache::FormatVersion) + ".txt";
  }

  std::string Dir;
};

} // namespace

TEST_F(CacheTest, ColdAndWarmMatchUncachedRun) {
  std::string Src = chainSource("x + 1u");
  Snapshot Ref = runWith(Src, /*CacheDir=*/"");
  ASSERT_EQ(Ref.Names.size(), 5u);
  EXPECT_FALSE(Ref.Stats.CacheEnabled);

  Snapshot Cold = runWith(Src, Dir);
  EXPECT_TRUE(Cold.Stats.CacheEnabled);
  EXPECT_EQ(Cold.Stats.CacheHits, 0u);
  EXPECT_EQ(Cold.Stats.CacheMisses, 5u);
  EXPECT_EQ(Cold.Stats.CacheInvalidations, 0u);
  expectIdentical(Ref, Cold, "uncached vs cold");
  EXPECT_TRUE(std::filesystem::exists(cacheFilePath()));

  Snapshot Warm = runWith(Src, Dir);
  EXPECT_EQ(Warm.Stats.CacheHits, 5u);
  EXPECT_EQ(Warm.Stats.CacheMisses, 0u);
  expectIdentical(Ref, Warm, "uncached vs warm");
}

TEST_F(CacheTest, InvalidationFlowsUpTheCallGraphOnly) {
  std::string Before = chainSource("x + 1u");
  std::string After = chainSource("x + 2u");

  Snapshot Cold = runWith(Before, Dir);
  ASSERT_EQ(Cold.Stats.CacheMisses, 5u);

  // Editing leaf must recompute leaf, mid and top (its transitive
  // callers) while lone and bump stay warm.
  Snapshot Edited = runWith(After, Dir);
  EXPECT_EQ(Edited.Stats.CacheHits, 2u);
  EXPECT_EQ(Edited.Stats.CacheMisses, 3u);
  EXPECT_EQ(Edited.Stats.CacheInvalidations, 3u);
  expectIdentical(runWith(After, /*CacheDir=*/""), Edited,
                  "uncached vs partially-invalidated");

  // The edited results are stored too: a second run is fully warm.
  Snapshot Warm = runWith(After, Dir);
  EXPECT_EQ(Warm.Stats.CacheHits, 5u);
  EXPECT_EQ(Warm.Stats.CacheMisses, 0u);

  // And switching back revalidates nothing incorrectly: the old entries
  // were replaced under the same names, so the original source misses on
  // the chain again and still matches an uncached run byte for byte.
  Snapshot Back = runWith(Before, Dir);
  EXPECT_EQ(Back.Stats.CacheHits, 2u);
  EXPECT_EQ(Back.Stats.CacheInvalidations, 3u);
  expectIdentical(runWith(Before, /*CacheDir=*/""), Back,
                  "uncached vs reverted");
}

TEST_F(CacheTest, WarmReplayIsJobCountInvariant) {
  std::string Src = chainSource("x + 1u");
  Snapshot Ref = runWith(Src, /*CacheDir=*/"");

  // Populate at Jobs=4, replay at Jobs=1 and Jobs=4: identical output
  // and full hit coverage everywhere.
  Snapshot Cold4 = runWith(Src, Dir, /*Jobs=*/4);
  expectIdentical(Ref, Cold4, "uncached vs cold Jobs=4");

  Snapshot Warm1 = runWith(Src, Dir, /*Jobs=*/1);
  EXPECT_EQ(Warm1.Stats.CacheHits, 5u);
  expectIdentical(Ref, Warm1, "uncached vs warm Jobs=1");

  Snapshot Warm4 = runWith(Src, Dir, /*Jobs=*/4);
  EXPECT_EQ(Warm4.Stats.CacheHits, 5u);
  expectIdentical(Ref, Warm4, "uncached vs warm Jobs=4");
}

TEST_F(CacheTest, ForwardCallMatchesColdAndWarmCallee) {
  // f calls g, defined after it. Whether g is abstracted in this run or
  // replayed from the cache, a Jobs=1 run must render f the same way.
  auto source = [](const char *K) {
    return std::string("int f(int x) { return g(x) + ") + K +
           "; }\nint g(int x) { return x * 2; }\n";
  };
  Snapshot Cold = runWith(source("1"), Dir);
  EXPECT_EQ(Cold.Stats.CacheMisses, 2u);
  expectIdentical(runWith(source("1"), /*CacheDir=*/""), Cold,
                  "uncached vs cold");
  // Editing f alone re-abstracts it against g's cached result.
  Snapshot WarmCallee = runWith(source("3"), Dir);
  EXPECT_EQ(WarmCallee.Stats.CacheHits, 1u);
  EXPECT_EQ(WarmCallee.Stats.CacheMisses, 1u);
  expectIdentical(runWith(source("3"), /*CacheDir=*/""), WarmCallee,
                  "uncached vs warm callee");
}

TEST_F(CacheTest, CorruptCacheFileIsACleanMiss) {
  std::string Src = chainSource("x + 1u");
  runWith(Src, Dir);
  ASSERT_TRUE(std::filesystem::exists(cacheFilePath()));

  {
    std::ofstream Out(cacheFilePath(), std::ios::binary | std::ios::trunc);
    Out << "ACCACHE 1\nentry zzzz-not-a-key\nname \x01\x02 garbage\n";
  }
  Snapshot AfterCorrupt = runWith(Src, Dir);
  EXPECT_EQ(AfterCorrupt.Stats.CacheHits, 0u);
  EXPECT_EQ(AfterCorrupt.Stats.CacheMisses, 5u);
  expectIdentical(runWith(Src, /*CacheDir=*/""), AfterCorrupt,
                  "uncached vs corrupt-cache");

  // The cold run rewrote the file: warmth is restored.
  Snapshot Warm = runWith(Src, Dir);
  EXPECT_EQ(Warm.Stats.CacheHits, 5u);
}

TEST_F(CacheTest, StaleFormatVersionIsACleanMiss) {
  std::string Src = chainSource("x + 1u");
  runWith(Src, Dir);

  // Pretend a future format wrote this file: the header mismatch must
  // discard every entry, not misparse them.
  std::string Contents;
  {
    std::ifstream In(cacheFilePath(), std::ios::binary);
    std::ostringstream Buf;
    Buf << In.rdbuf();
    Contents = Buf.str();
  }
  const std::string Header =
      "ACCACHE " + std::to_string(core::ResultCache::FormatVersion);
  ASSERT_EQ(Contents.rfind(Header, 0), 0u);
  Contents.replace(0, Header.size(), "ACCACHE 9");
  {
    std::ofstream Out(cacheFilePath(), std::ios::binary | std::ios::trunc);
    Out << Contents;
  }

  Snapshot Stale = runWith(Src, Dir);
  EXPECT_EQ(Stale.Stats.CacheHits, 0u);
  EXPECT_EQ(Stale.Stats.CacheMisses, 5u);
  expectIdentical(runWith(Src, /*CacheDir=*/""), Stale,
                  "uncached vs stale-version");
}

TEST_F(CacheTest, OptionChangesInvalidate) {
  std::string Src = chainSource("x + 1u");
  Snapshot Cold = runWith(Src, Dir);
  ASSERT_EQ(Cold.Stats.CacheMisses, 5u);

  // Turning off word abstraction for one function changes its key (and
  // its callers'), so those entries miss; the cache must never serve a
  // result computed under different options.
  DiagEngine Diags;
  core::ACOptions Opts;
  Opts.CacheDir = Dir;
  Opts.NoWordAbs.insert("leaf");
  auto AC = core::AutoCorres::run(Src, Diags, Opts);
  ASSERT_TRUE(AC) << Diags.str();
  EXPECT_GE(AC->stats().CacheMisses, 3u);
  EXPECT_EQ(AC->stats().CacheHits, 2u);
}

//===----------------------------------------------------------------------===//
// Concurrent writers (the advisory file lock + merge-on-save path)
//===----------------------------------------------------------------------===//

TEST_F(CacheTest, SaveMergesWithAConcurrentWritersFile) {
  // Writer A loads (empty), then B loads, inserts and saves; A's later
  // save must keep B's entry rather than clobbering the file with its
  // own pre-B view — the read-merge-write under the exclusive lock.
  std::filesystem::create_directories(Dir);
  core::ResultCache A(Dir);
  {
    core::ResultCache B(Dir);
    core::CachedFunc E;
    E.Key = 0xB0B;
    E.Name = "from_b";
    E.Render = "render b";
    B.insert(std::move(E));
    ASSERT_TRUE(B.save());
  }
  core::CachedFunc E;
  E.Key = 0xA11CE;
  E.Name = "from_a";
  E.Render = "render a";
  A.insert(std::move(E));
  ASSERT_TRUE(A.save());

  core::ResultCache Final(Dir);
  EXPECT_EQ(Final.size(), 2u);
  EXPECT_TRUE(Final.knowsFunction("from_a"));
  EXPECT_TRUE(Final.knowsFunction("from_b"));
  EXPECT_TRUE(Final.lookup(0xB0B) != nullptr);
  EXPECT_TRUE(std::filesystem::exists(Dir + "/accache.lock"));
}

TEST_F(CacheTest, RecomputeSupersedesAConcurrentWritersEntry) {
  // Both writers computed `shared`, under different keys (say the
  // source changed between their loads). Whoever saves last wins for
  // that name — but there must be exactly one `shared` entry, never a
  // stale duplicate under the old key.
  std::filesystem::create_directories(Dir);
  auto makeEntry = [](uint64_t Key) {
    core::CachedFunc E;
    E.Key = Key;
    E.Name = "shared";
    E.Render = "render " + std::to_string(Key);
    return E;
  };
  core::ResultCache A(Dir), B(Dir);
  A.insert(makeEntry(111));
  ASSERT_TRUE(A.save());
  B.insert(makeEntry(222));
  ASSERT_TRUE(B.save());

  core::ResultCache Final(Dir);
  EXPECT_EQ(Final.size(), 1u);
  EXPECT_TRUE(Final.knowsFunction("shared"));
  EXPECT_EQ(Final.lookup(111), nullptr);
  ASSERT_TRUE(Final.lookup(222) != nullptr);
  EXPECT_EQ(Final.lookup(222)->Render, "render 222");
}

TEST_F(CacheTest, TwoWriterStressLosesNoEntries) {
  // Two threads hammer the same cache directory with interleaved
  // load/insert/save cycles (flock attaches to the open file
  // description, so two in-process instances genuinely contend). The
  // merge-on-save contract: no writer's entries are ever lost.
  std::filesystem::create_directories(Dir);
  constexpr int Rounds = 25;
  std::atomic<int> SaveFailures{0};
  auto Writer = [&](unsigned Id) {
    for (int R = 0; R != Rounds; ++R) {
      core::ResultCache C(Dir);
      core::CachedFunc E;
      E.Key = Id * 1000u + static_cast<unsigned>(R) + 1;
      E.Name =
          "fn_" + std::to_string(Id) + "_" + std::to_string(R);
      E.Render = "render " + E.Name;
      C.insert(std::move(E));
      if (!C.save())
        SaveFailures.fetch_add(1);
    }
  };
  std::thread T1(Writer, 1), T2(Writer, 2);
  T1.join();
  T2.join();
  EXPECT_EQ(SaveFailures.load(), 0);

  core::ResultCache Final(Dir);
  EXPECT_EQ(Final.size(), 2u * Rounds);
  for (unsigned Id = 1; Id <= 2; ++Id)
    for (int R = 0; R != Rounds; ++R)
      EXPECT_TRUE(Final.knowsFunction("fn_" + std::to_string(Id) + "_" +
                                      std::to_string(R)))
          << "lost entry of writer " << Id << " round " << R;
}

//===----------------------------------------------------------------------===//
// Declaration-level edits. Keys come from token digests plus a salt over
// everything program-wide (structs, globals, prototypes, heap types), so
// each edit below must miss exactly where its effect can reach — and a
// layout-only edit nowhere.
//===----------------------------------------------------------------------===//

namespace {

/// Six functions over a struct and a global:
///
///   top --> mid --> leaf        get (reads node)   tick (bumps counter)
///     \------------^            lone
struct DeclUnit {
  std::string StructDef = "struct node { unsigned int val; "
                          "struct node *next; };\n";
  std::string Global = "unsigned int counter;\n";
  std::string LeafSig = "unsigned int leaf(unsigned int x)";
  std::string LeafBody = "{ return x + 1u; }";
  std::string LoneBody = "{ if (a < b) { return a; } return b; }";
  std::string BeforeMid;

  std::string str() const {
    return StructDef + Global + LeafSig + " " + LeafBody + "\n" + BeforeMid +
           "unsigned int mid(unsigned int x) { return leaf(x) * 2u; }\n"
           "unsigned int top(unsigned int x) { return mid(x) + leaf(x); }\n"
           "unsigned int get(struct node *n) { return n->val; }\n"
           "void tick(void) { counter = counter + 1u; }\n"
           "unsigned int lone(unsigned int a, unsigned int b) " +
           LoneBody + "\n";
  }
};

/// A source and the options it is checked under.
struct Input {
  std::string Src;
  std::set<std::string> NoHeapAbs;
};

} // namespace

class DeclEditTest : public CacheTest {
protected:
  /// Primes a fresh cache with \p Before, then checks \p After against
  /// it at Jobs 1 and 4: byte-identical to an uncached run, with exactly
  /// \p Misses misses and every other function a hit.
  void expectEdit(const Input &Before, const Input &After, unsigned Misses,
                  const std::string &What) {
    Snapshot Ref = runWith(After.Src, /*CacheDir=*/"", 1, After.NoHeapAbs);
    const unsigned N = static_cast<unsigned>(Ref.Names.size());
    ASSERT_GT(N, 0u) << What;
    for (unsigned Jobs : {1u, 4u}) {
      const std::string Sub = Dir + "/j" + std::to_string(Jobs);
      std::filesystem::remove_all(Sub);
      Snapshot Cold = runWith(Before.Src, Sub, Jobs, Before.NoHeapAbs);
      ASSERT_EQ(Cold.Stats.CacheMisses, N) << What;
      Snapshot Warm = runWith(After.Src, Sub, Jobs, After.NoHeapAbs);
      const std::string At = What + " (Jobs=" + std::to_string(Jobs) + ")";
      EXPECT_EQ(Warm.Stats.CacheMisses, Misses) << At;
      EXPECT_EQ(Warm.Stats.CacheHits, N - Misses) << At;
      expectIdentical(Ref, Warm, "uncached vs warm after " + At);
    }
  }
};

TEST_F(DeclEditTest, StructFieldTypeChangeMissesEverything) {
  DeclUnit U;
  Input Before{U.str(), {}};
  U.StructDef = "struct node { unsigned short val; struct node *next; };\n";
  expectEdit(Before, {U.str(), {}}, 6, "struct field type change");
}

TEST_F(DeclEditTest, GlobalTypeChangeMissesEverything) {
  DeclUnit U;
  Input Before{U.str(), {}};
  U.Global = "unsigned short counter;\n";
  expectEdit(Before, {U.str(), {}}, 6, "global type change");
}

TEST_F(DeclEditTest, NewHeapTypeMissesEverything) {
  // lone gains a dereference of an unsigned short pointer: a new heap
  // type reshapes lifted_globals, which every heap-lifted body reads.
  DeclUnit U;
  Input Before{U.str(), {}};
  U.LoneBody = "{ unsigned short *q; q = (unsigned short *)b; "
               "if (a < b) { return a; } return *q; }";
  expectEdit(Before, {U.str(), {}}, 6, "new heap type");
}

TEST_F(DeclEditTest, CalleeSignatureChangeMissesItsCallers) {
  DeclUnit U;
  Input Before{U.str(), {}};
  U.LeafSig = "unsigned int leaf(unsigned short x)";
  expectEdit(Before, {U.str(), {}}, 3, "callee signature change");
}

TEST_F(DeclEditTest, IntroducedRecursionMissesTheCycle) {
  // leaf now calls top: leaf, mid and top form one SCC. Only leaf's
  // tokens changed, but all three become recursive.
  DeclUnit U;
  Input Before{U.str(), {}};
  U.LeafBody = "{ unsigned int r; if (x < 2u) { return x + 1u; } "
               "r = top(x - 2u); return r; }";
  expectEdit(Before, {U.str(), {}}, 3, "introduced recursion");
}

TEST_F(DeclEditTest, NoHeapAbsToggleMissesItsCallers) {
  DeclUnit U;
  Input Before{U.str(), {}};
  expectEdit(Before, {U.str(), {"leaf"}}, 3, "NoHeapAbs on leaf");
  expectEdit(Before, {U.str(), {"get"}}, 1, "NoHeapAbs on get");
}

TEST_F(DeclEditTest, WhitespaceAndCommentEditsHitEverything) {
  // Every function after the insertion moves to new source locations; a
  // replayed artefact carrying one would show up as a byte difference.
  DeclUnit U;
  Input Before{U.str(), {}};
  U.BeforeMid = "\n/* a comment\n   over two lines */\n\n// and one more\n";
  U.StructDef = "  \n" + U.StructDef;
  U.LeafBody = "{\n    return x   +   1u;\n}";
  expectEdit(Before, {U.str(), {}}, 0, "whitespace and comment edit");
}

TEST_F(DeclEditTest, HoistedCallInAnEarlierFunctionRenamesLaterTemporaries) {
  // Sema numbers hoisted-call temporaries across the whole unit, and the
  // L1 spec names them: f's new hoisted call renames h's call_tmp__0 to
  // call_tmp__1 although neither h nor its callee g changed. g hoists
  // nothing, so it stays a hit.
  const std::string G = "unsigned int g(unsigned int x) { return x * 2u; }\n";
  const std::string H =
      "unsigned int h(unsigned int x) { return g(x) + 1u; }\n";
  expectEdit({G + "unsigned int f(unsigned int x) { return x + 1u; }\n" + H,
              {}},
             {G + "unsigned int f(unsigned int x) { return g(x) + 1u; }\n" +
                  H,
              {}},
             2, "hoisted call added before h");
}
