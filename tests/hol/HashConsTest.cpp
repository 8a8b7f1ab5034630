//===- HashConsTest.cpp - Hash-consing property suite ---------------------===//
//
// Randomized properties of the interned term/type representation
// (Term.h/Type.h/Intern.h):
//
//   * canonicity: building the same structure twice yields the same node
//     (pointer equality), and pointer equality holds *exactly* for full
//     structural identity — Lam display names and Free/Var types included;
//   * hash stability: node hashes are deterministic functions of the
//     structure termEq sees, so alpha-variant nodes hash alike;
//   * id uniqueness: intern ids never collide, across the term and the
//     type arena both;
//   * thread safety: 8 threads racing to intern the same and distinct
//     structures agree on canonical nodes and never duplicate ids
//     (scripts/tier1.sh replays this suite under ThreadSanitizer and
//     AddressSanitizer);
//   * request generations (hol/Generation.h): a scope resolves what the
//     base holds to the base node, builds the rest in the scope, and
//     frees it, with the axioms and rules minted in it, when it closes.
//
// The generators are seeded PRNGs, so every run checks the same terms.
//
//===----------------------------------------------------------------------===//

#include "hol/Builder.h"
#include "hol/Generation.h"
#include "hol/Print.h"
#include "hol/RuleCache.h"
#include "hol/Term.h"

#include <gtest/gtest.h>

#include <random>
#include <set>
#include <thread>
#include <vector>

using namespace ac::hol;

namespace {

using Rng = std::mt19937_64;

unsigned pick(Rng &R, unsigned N) {
  return static_cast<unsigned>(R() % N);
}

TypeRef randomType(Rng &R, unsigned Depth) {
  switch (pick(R, Depth == 0 ? 5u : 7u)) {
  case 0:
    return natTy();
  case 1:
    return boolTy();
  case 2:
    return wordTy(8u << pick(R, 3));
  case 3:
    return intTy();
  case 4:
    return Type::var("'t" + std::to_string(pick(R, 3)));
  case 5:
    return funTy(randomType(R, Depth - 1), randomType(R, Depth - 1));
  default:
    return ptrTy(randomType(R, Depth - 1));
  }
}

/// A random term over a small grammar. Interning does not typecheck, so
/// the generator is free to build ill-typed applications — the properties
/// under test are purely structural.
TermRef randomTerm(Rng &R, unsigned Depth) {
  switch (pick(R, Depth == 0 ? 5u : 7u)) {
  case 0:
    return Term::mkConst("k" + std::to_string(pick(R, 4)), randomType(R, 1));
  case 1:
    return Term::mkFree("x" + std::to_string(pick(R, 4)), randomType(R, 1));
  case 2:
    return Term::mkVar("V" + std::to_string(pick(R, 3)), pick(R, 2),
                       randomType(R, 1));
  case 3:
    return Term::mkBound(pick(R, 3));
  case 4:
    return Term::mkNum(static_cast<Int128>(R() % 1000), randomType(R, 0));
  case 5:
    return Term::mkLam("v" + std::to_string(pick(R, 2)), randomType(R, 1),
                       randomTerm(R, Depth - 1));
  default:
    return Term::mkApp(randomTerm(R, Depth - 1), randomTerm(R, Depth - 1));
  }
}

/// Reference implementation of the interner's equality: *full* structural
/// identity, strictly finer than termEq — Lam display names and Free/Var
/// types distinguish terms here. Written independently of the interner so
/// the test does not assume what it is checking.
bool structIdentical(const TermRef &A, const TermRef &B) {
  if (A->kind() != B->kind())
    return false;
  switch (A->kind()) {
  case Term::Kind::Const:
  case Term::Kind::Free:
  case Term::Kind::Var:
    return A->name() == B->name() && A->index() == B->index() &&
           typeEq(A->type(), B->type());
  case Term::Kind::Bound:
    return A->index() == B->index();
  case Term::Kind::Num:
    return A->value() == B->value() && typeEq(A->type(), B->type());
  case Term::Kind::Lam:
    return A->name() == B->name() && typeEq(A->type(), B->type()) &&
           structIdentical(A->body(), B->body());
  case Term::Kind::App:
    return structIdentical(A->fun(), B->fun()) &&
           structIdentical(A->argTerm(), B->argTerm());
  }
  return false;
}

void collectIds(const TermRef &T, std::set<uint64_t> &TermIds,
                std::set<const Term *> &Seen) {
  if (!Seen.insert(T.get()).second)
    return;
  TermIds.insert(T->id());
  if (T->isLam())
    collectIds(T->body(), TermIds, Seen);
  if (T->isApp()) {
    collectIds(T->fun(), TermIds, Seen);
    collectIds(T->argTerm(), TermIds, Seen);
  }
}

} // namespace

/// Replaying one generator twice must reproduce every node pointer: the
/// second build of each structure is a pure lookup.
TEST(HashCons, CanonicalRebuild) {
  Rng R1(0xac5eed01), R2(0xac5eed01);
  for (int I = 0; I != 2000; ++I) {
    TermRef A = randomTerm(R1, 4);
    TermRef B = randomTerm(R2, 4);
    ASSERT_EQ(A.get(), B.get()) << "iteration " << I;
    ASSERT_EQ(A->id(), B->id());
    ASSERT_EQ(A->hash(), B->hash());
  }
}

/// Pointer equality ⇔ full structural identity, over random cross pairs.
/// The ⇐ direction is the hash-consing guarantee; ⇒ is interner
/// correctness (no two distinct structures share a node).
TEST(HashCons, PointerEqIffStructIdentical) {
  Rng R(0xac5eed02);
  std::vector<TermRef> Pool;
  // Depth 2 keeps the structure space small enough that identical pairs
  // actually occur (the ⇐ direction needs witnesses).
  for (int I = 0; I != 400; ++I)
    Pool.push_back(randomTerm(R, 2));
  size_t IdenticalPairs = 0;
  for (size_t I = 0; I != Pool.size(); ++I)
    for (size_t J = I + 1; J != Pool.size(); ++J) {
      bool SameNode = Pool[I].get() == Pool[J].get();
      ASSERT_EQ(SameNode, structIdentical(Pool[I], Pool[J]))
          << "pair " << I << "," << J;
      IdenticalPairs += SameNode;
    }
  EXPECT_GT(IdenticalPairs, 0u) << "generator never repeated a structure; "
                                   "the iff's ⇐ direction went untested";
}

/// Pointer equality must imply termEq (the fast path the kernel relies
/// on), and node hashes must be stable under the structure termEq
/// ignores: alpha-variant lambdas and retyped frees hash alike.
TEST(HashCons, HashConsistentWithTermEq) {
  Rng R(0xac5eed03);
  for (int I = 0; I != 500; ++I) {
    TermRef Body = randomTerm(R, 3);
    TermRef L1 = Term::mkLam("a", natTy(), Body);
    TermRef L2 = Term::mkLam("b", natTy(), Body);
    // Different display names: distinct interned nodes, alpha-equal,
    // equal hashes (hash must refine termEq, not the interner equality).
    ASSERT_NE(L1.get(), L2.get());
    ASSERT_TRUE(termEq(L1, L2));
    ASSERT_EQ(L1->hash(), L2->hash());
  }
  // Free variables are compared by name only under termEq; their types
  // distinguish interned nodes but may not influence the hash.
  TermRef F1 = Term::mkFree("h", natTy());
  TermRef F2 = Term::mkFree("h", boolTy());
  ASSERT_NE(F1.get(), F2.get());
  ASSERT_EQ(F1->hash(), F2->hash());
}

/// Intern ids are unique across *both* arenas: no term ever shares an id
/// with another term, a type with another type, nor terms with types —
/// the simplifier memo and the rule index key on the raw id.
TEST(HashCons, NoCrossArenaIdCollisions) {
  Rng R(0xac5eed04);
  std::set<uint64_t> TermIds, TypeIds;
  std::set<const Term *> SeenTerms;
  size_t DistinctTerms = 0;
  {
    std::set<const Term *> Roots;
    for (int I = 0; I != 1000; ++I) {
      TermRef T = randomTerm(R, 4);
      if (Roots.insert(T.get()).second)
        collectIds(T, TermIds, SeenTerms);
    }
    DistinctTerms = SeenTerms.size();
  }
  ASSERT_EQ(TermIds.size(), DistinctTerms)
      << "two distinct term nodes share an intern id";
  ASSERT_EQ(TermIds.count(0), 0u) << "id 0 is reserved";

  std::set<const Type *> SeenTypes;
  for (int I = 0; I != 1000; ++I) {
    TypeRef Ty = randomType(R, 3);
    if (SeenTypes.insert(Ty.get()).second)
      TypeIds.insert(Ty->id());
  }
  ASSERT_EQ(TypeIds.size(), SeenTypes.size())
      << "two distinct type nodes share an intern id";
  ASSERT_EQ(TypeIds.count(0), 0u) << "id 0 is reserved";

  // The arenas draw from one process-wide counter, so the id sets are
  // disjoint.
  for (uint64_t Id : TypeIds)
    ASSERT_EQ(TermIds.count(Id), 0u)
        << "type id " << Id << " collides with a term id";
}

/// 8 threads interning the same generator output must agree on every
/// canonical pointer, while thread-private structures get globally unique
/// ids. Run under TSan this doubles as the concurrency gate for the
/// intern store's sharded locking.
TEST(HashCons, ConcurrentInternStress) {
  constexpr unsigned NThreads = 8;
  constexpr int NShared = 1500, NPrivate = 200;

  std::vector<std::vector<TermRef>> Shared(NThreads);
  std::vector<std::vector<TermRef>> Private(NThreads);
  std::vector<std::thread> Threads;
  for (unsigned T = 0; T != NThreads; ++T)
    Threads.emplace_back([T, &Shared, &Private] {
      // Same seed in every thread: all 8 race to intern each structure.
      Rng RS(0xac5eed05);
      for (int I = 0; I != NShared; ++I)
        Shared[T].push_back(randomTerm(RS, 3));
      // Thread-specific frees: each thread also mints nodes nobody else
      // builds, exercising fresh-insertion against concurrent lookups.
      Rng RP(0xac5eed06 + T);
      for (int I = 0; I != NPrivate; ++I)
        Private[T].push_back(Term::mkApp(
            Term::mkFree("t" + std::to_string(T) + "_" + std::to_string(I),
                         natTy()),
            randomTerm(RP, 2)));
    });
  for (std::thread &Th : Threads)
    Th.join();

  for (unsigned T = 1; T != NThreads; ++T)
    for (int I = 0; I != NShared; ++I) {
      ASSERT_EQ(Shared[0][I].get(), Shared[T][I].get())
          << "thread " << T << " interned a duplicate at " << I;
      ASSERT_EQ(Shared[0][I]->id(), Shared[T][I]->id());
    }

  std::set<uint64_t> Ids;
  std::set<const Term *> Nodes;
  for (unsigned T = 0; T != NThreads; ++T)
    for (const TermRef &P : Private[T])
      if (Nodes.insert(P.get()).second) {
        ASSERT_TRUE(Ids.insert(P->id()).second)
            << "concurrently interned nodes share id " << P->id();
      }
}

//===----------------------------------------------------------------------===//
// Request generations
//===----------------------------------------------------------------------===//

/// Inside a scope, a structure the base holds resolves to the base node,
/// and nothing new is built for it.
TEST(HashCons, ScopeResolvesBaseNodes) {
  Rng R1(0xac5eed07), R2(0xac5eed07);
  std::vector<TermRef> Base;
  for (int I = 0; I != 300; ++I)
    Base.push_back(randomTerm(R1, 3));
  size_t Before = internedTermCount();
  GenerationScope Scope;
  for (int I = 0; I != 300; ++I)
    ASSERT_EQ(randomTerm(R2, 3).get(), Base[I].get()) << "iteration " << I;
  EXPECT_EQ(internedTermCount(), Before);
}

/// A node first built in a scope is the scope's alone: the count read
/// outside is unchanged once it closes, and building the structure again
/// makes a new base node.
TEST(HashCons, ScopeNodesDieWithTheScope) {
  auto Build = [] {
    return Term::mkApp(Term::mkFree("scoped_f", natTy()),
                       Term::mkNum(1234567, natTy()));
  };
  size_t Before = internedTermCount();
  uint64_t ScopedId;
  {
    GenerationScope Scope;
    TermRef T = Build();
    ScopedId = T->id();
    EXPECT_EQ(Build().get(), T.get());
    EXPECT_EQ(internedTermCount(), Before + 3);
  }
  EXPECT_EQ(internedTermCount(), Before);
  TermRef Again = Build();
  EXPECT_GT(Again->id(), ScopedId);
  EXPECT_EQ(internedTermCount(), Before + 3);
}

/// A structure a scope built before an unscoped thread built it in the
/// base keeps resolving to the scope's node, and so does a structure over
/// it.
TEST(HashCons, ScopeKeepsItsNodeWhenTheBaseBuildsItLater) {
  auto Build = [] {
    return Term::mkApp(Term::mkConst("late_k", boolTy()),
                       Term::mkNum(2345678, natTy()));
  };
  GenerationScope Scope;
  TermRef Mine = Build();
  TermRef Theirs;
  std::thread([&] { Theirs = Build(); }).join();
  EXPECT_NE(Theirs.get(), Mine.get());
  EXPECT_EQ(Build().get(), Mine.get());
  TermRef Over = Term::mkApp(Term::mkFree("late_g", boolTy()), Build());
  EXPECT_EQ(Over->argTerm().get(), Mine.get());
}

/// Four threads entering one scope build one node per structure: they
/// agree on every node, and the scope holds exactly the nodes they reach
/// that were built after it opened. Under TSan this race-checks interning
/// into one generation; under ASan, reading a node after its scope closed.
TEST(HashCons, ThreadsInOneScopeBuildOneNodePerStructure) {
  constexpr unsigned NThreads = 4;
  constexpr int N = 600;
  size_t Before = internedTermCount();
  uint64_t FirstId = internIdCounter().load();
  GenerationScope Scope;
  Generation *G = Generation::current();
  std::vector<std::vector<TermRef>> Built(NThreads);
  std::vector<std::thread> Threads;
  for (unsigned T = 0; T != NThreads; ++T)
    Threads.emplace_back([T, G, &Built] {
      Generation::Enter E(G);
      Rng R(0xac5eed08);
      for (int I = 0; I != N; ++I)
        Built[T].push_back(Term::mkApp(Term::mkFree("gen_x", natTy()),
                                       randomTerm(R, 3)));
    });
  for (std::thread &Th : Threads)
    Th.join();
  for (unsigned T = 1; T != NThreads; ++T)
    for (int I = 0; I != N; ++I)
      ASSERT_EQ(Built[0][I].get(), Built[T][I].get())
          << "thread " << T << " built a duplicate at " << I;
  std::set<uint64_t> Ids;
  std::set<const Term *> Seen;
  for (const TermRef &T : Built[0])
    collectIds(T, Ids, Seen);
  size_t Young = 0;
  for (uint64_t Id : Ids)
    Young += Id >= FirstId;
  EXPECT_EQ(internedTermCount() - Before, Young);
}

/// A rule minted in a scope lives in the scope's overlays: once it
/// closes, the base Inventory and mint cache lack it, and a second scope
/// mints an equal proposition. A base entry minted after a scope opened
/// is not used inside it.
TEST(HashCons, RuleMintedInAScopeDiesWithIt) {
  RuleCache Cache;
  unsigned Mints = 0;
  auto Mint = [&] {
    return Cache.get("test.scoped_rule", [&] {
      ++Mints;
      TermRef P = Term::mkVar("P", 0, boolTy());
      return Kernel::axiom(
          "test.scoped_rule",
          mkImp(P, mkConj(P, Term::mkConst("scoped_c", boolTy()))));
    });
  };
  std::string First;
  {
    GenerationScope Scope;
    Thm T = Mint();
    First = printTerm(T.prop());
    EXPECT_TRUE(Inventory::instance().hasAxiom("test.scoped_rule"));
    EXPECT_EQ(Mint().prop().get(), T.prop().get());
    EXPECT_EQ(Mints, 1u);
  }
  EXPECT_FALSE(Inventory::instance().hasAxiom("test.scoped_rule"));
  EXPECT_EQ(Inventory::instance().axioms().count("test.scoped_rule"), 0u);
  {
    GenerationScope Scope;
    EXPECT_EQ(printTerm(Mint().prop()), First);
    EXPECT_EQ(Mints, 2u) << "the base mint cache kept the first scope's rule";
  }
  {
    GenerationScope Scope;
    std::thread([&] { (void)Mint(); }).join(); // unscoped: into the base
    EXPECT_EQ(Mints, 3u);
    (void)Mint();
    EXPECT_EQ(Mints, 4u) << "a scope used a base rule newer than itself";
  }
  EXPECT_TRUE(Inventory::instance().hasAxiom("test.scoped_rule"));
  {
    GenerationScope Scope;
    EXPECT_EQ(printTerm(Mint().prop()), First);
    EXPECT_EQ(Mints, 4u) << "a scope re-minted a base rule older than itself";
  }
}
