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

// Reference walks for the free-variable functions and substBound: every
// node visited and every path rebuilt, with no mask or maxLoose shortcut.
TermRef walkAbstract(const TermRef &T, const std::string &N, unsigned D) {
  switch (T->kind()) {
  case Term::Kind::Free:
    return T->name() == N ? Term::mkBound(D) : T;
  case Term::Kind::Bound:
    return T->index() >= D ? Term::mkBound(T->index() + 1) : T;
  case Term::Kind::Lam:
    return Term::mkLam(T->name(), T->type(),
                       walkAbstract(T->body(), N, D + 1));
  case Term::Kind::App:
    return Term::mkApp(walkAbstract(T->fun(), N, D),
                       walkAbstract(T->argTerm(), N, D));
  default:
    return T;
  }
}

TermRef walkSubstFree(const TermRef &T, const std::string &N,
                      const TermRef &Repl) {
  switch (T->kind()) {
  case Term::Kind::Free:
    return T->name() == N ? Repl : T;
  case Term::Kind::Lam:
    return Term::mkLam(T->name(), T->type(),
                       walkSubstFree(T->body(), N, liftLoose(Repl, 1)));
  case Term::Kind::App:
    return Term::mkApp(walkSubstFree(T->fun(), N, Repl),
                       walkSubstFree(T->argTerm(), N, Repl));
  default:
    return T;
  }
}

TermRef walkSubstBound(const TermRef &T, const TermRef &Arg, unsigned D) {
  switch (T->kind()) {
  case Term::Kind::Bound:
    if (T->index() == D)
      return liftLoose(Arg, D);
    return T->index() > D ? Term::mkBound(T->index() - 1) : T;
  case Term::Kind::Lam:
    return Term::mkLam(T->name(), T->type(),
                       walkSubstBound(T->body(), Arg, D + 1));
  case Term::Kind::App:
    return Term::mkApp(walkSubstBound(T->fun(), Arg, D),
                       walkSubstBound(T->argTerm(), Arg, D));
  default:
    return T;
  }
}

bool walkOccurs(const TermRef &T, const std::string &N) {
  switch (T->kind()) {
  case Term::Kind::Free:
    return T->name() == N;
  case Term::Kind::Lam:
    return walkOccurs(T->body(), N);
  case Term::Kind::App:
    return walkOccurs(T->fun(), N) || walkOccurs(T->argTerm(), N);
  default:
    return false;
  }
}

uint32_t walkFreeMask(const TermRef &T) {
  switch (T->kind()) {
  case Term::Kind::Free:
    return Term::freeBit(T->name());
  case Term::Kind::Lam:
    return walkFreeMask(T->body());
  case Term::Kind::App:
    return walkFreeMask(T->fun()) | walkFreeMask(T->argTerm());
  default:
    return 0;
  }
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

/// The free-variable walks skip a subterm whose free-name mask lacks the
/// name (and, abstracting, whose loose bounds stay put), and substBound
/// keeps a body that a Bound 0 argument leaves unchanged. Over random
/// terms with loose bounds, each must hand back the node the unpruned
/// walk builds, for names that occur and one that does not.
TEST(HashCons, PrunedWalksAgreeWithFullWalks) {
  Rng R(0xac5eed07);
  const std::string Names[] = {"x0", "x1", "x2", "x3", "absent"};
  TermRef Repl = Term::mkApp(Term::mkFree("x1", natTy()), Term::mkBound(0));
  for (int I = 0; I != 600; ++I) {
    TermRef T = randomTerm(R, 4);
    ASSERT_EQ(T->freeMask(), walkFreeMask(T)) << "iteration " << I;
    for (const std::string &N : Names) {
      ASSERT_EQ(lambdaFree(N, natTy(), T).get(),
                Term::mkLam(N, natTy(), walkAbstract(T, N, 0)).get())
          << "iteration " << I << ", " << N;
      ASSERT_EQ(substFree(T, N, Repl).get(), walkSubstFree(T, N, Repl).get())
          << "iteration " << I << ", " << N;
      ASSERT_EQ(occursFree(T, N), walkOccurs(T, N))
          << "iteration " << I << ", " << N;
    }
    for (unsigned D = 0; D != 3; ++D) {
      ASSERT_EQ(substBound(T, Term::mkBound(0), D).get(),
                walkSubstBound(T, Term::mkBound(0), D).get())
          << "iteration " << I << ", depth " << D;
      ASSERT_EQ(substBound(T, Repl, D).get(),
                walkSubstBound(T, Repl, D).get())
          << "iteration " << I << ", depth " << D;
    }
  }
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

/// Subst::apply's type-pass memo in a scope: four threads instantiating
/// one rule at one type instance share the memo's node (with no term
/// binding the result is that node), and agree on every instance over
/// it. Under TSan this race-checks the memo; under ASan, reading an
/// entry after its scope closed.
TEST(HashCons, ThreadsInOneScopeShareATypeInstance) {
  constexpr unsigned NThreads = 4;
  constexpr int N = 200;
  TypeRef A = Type::var("hc_a");
  TermRef X = Term::mkVar("x", 0, A);
  TermRef Rule =
      mkEq(Term::mkApp(Term::mkConst("hc_k", funTy(A, A)), X), X);
  GenerationScope Scope;
  Generation *G = Generation::current();
  std::vector<TermRef> Typed(NThreads);
  std::vector<std::vector<TermRef>> Built(NThreads);
  std::vector<std::thread> Threads;
  for (unsigned T = 0; T != NThreads; ++T)
    Threads.emplace_back([&, T] {
      Generation::Enter E(G);
      Subst Ty;
      Ty.bindTy("hc_a", wordTy(16));
      Typed[T] = Ty.apply(Rule);
      for (int I = 0; I != N; ++I) {
        Subst S = Ty;
        S.bind("x", 0, Term::mkNum(I, wordTy(16)));
        Built[T].push_back(S.apply(Rule));
      }
    });
  for (std::thread &Th : Threads)
    Th.join();
  for (unsigned T = 1; T != NThreads; ++T) {
    EXPECT_EQ(Typed[T].get(), Typed[0].get()) << "thread " << T;
    for (int I = 0; I != N; ++I)
      ASSERT_EQ(Built[T][I].get(), Built[0][I].get())
          << "thread " << T << " built a duplicate at " << I;
  }
  EXPECT_EQ(printTerm(Built[0][5]),
            printTerm(mkEq(Term::mkApp(Term::mkConst(
                                           "hc_k", funTy(wordTy(16),
                                                         wordTy(16))),
                                       Term::mkNum(5, wordTy(16))),
                           Term::mkNum(5, wordTy(16)))));
}

/// A type instance memoised in a scope dies with it: the next scope and
/// the unscoped base build a fresh node instead of handing out the
/// closed scope's.
TEST(HashCons, TypeInstanceMemoisedInAScopeDiesWithIt) {
  TypeRef A = Type::var("hc_b");
  TermRef Rule = mkEq(Term::mkConst("hc_l", A), Term::mkVar("y", 0, A));
  Subst S;
  S.bindTy("hc_b", wordTy(64));
  uint64_t FirstId;
  std::string Text;
  {
    GenerationScope Scope;
    TermRef T = S.apply(Rule);
    FirstId = T->id();
    Text = printTerm(T);
    EXPECT_EQ(S.apply(Rule).get(), T.get()) << "the memo missed";
  }
  uint64_t SecondId;
  {
    GenerationScope Scope;
    TermRef T = S.apply(Rule);
    SecondId = T->id();
    EXPECT_GT(SecondId, FirstId) << "a closed scope's type instance";
    EXPECT_EQ(printTerm(T), Text);
  }
  TermRef Base = S.apply(Rule);
  EXPECT_GT(Base->id(), SecondId) << "a closed scope's type instance";
  EXPECT_EQ(printTerm(Base), Text);
}
