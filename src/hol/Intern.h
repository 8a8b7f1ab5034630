//===- Intern.h - Arena-backed hash-consing store ---------------*- C++ -*-===//
//
// Part of the autocorres-cpp project, under the BSD 2-Clause License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The arena-backed, sharded hash-consing store behind every Term and
/// Type node. All factories funnel through InternStore::get, so
///
///   * every structurally distinct node exists once in the store that
///     holds it, which makes structural equality of canonical references
///     pointer equality and hashing O(1);
///   * each node carries a unique, monotonically assigned intern id
///     (shared across all stores, so term and type ids never collide),
///     usable as a stable memo key;
///   * nodes live in per-shard block arenas (whole blocks of at least
///     64 KiB, stable addresses, no per-node control block), and the
///     references handed out are non-owning aliases: copying a
///     TermRef/TypeRef costs no atomic refcount traffic;
///   * the factories are safe to call from the parallel abstraction
///     pipeline: each shard serialises its own insertions, and shards
///     are picked by hash, so concurrent workers rarely contend.
///
/// The base store is immortal; a request generation's nodes die with it.
/// The base stores are leaked on purpose, the classic hash-consing trade
/// (cf. Isabelle's name tables). A request generation (hol/Generation.h)
/// is a second term store layered over the base: while one is current on
/// a thread, a lookup tries the generation's shard, then the base shard,
/// and a miss is built in the generation, whose arena is freed when the
/// request ends. Four conditions make that safe:
///
///   1. Nothing that outlives a generation holds a node built in it.
///      Rules minted and axioms registered while it is current live in
///      its overlays, and the process-wide statics are built before the
///      first generation opens.
///   2. A base node never points into a generation. Base insertion
///      asserts it (Term.cpp).
///   3. Ids are never reused, so a memo keyed by the id of a freed node
///      can never be hit again.
///   4. Types and the name pool stay immortal. Both are bounded by the
///      distinct program shapes seen, not by the number of requests.
///
/// DESIGN.md ("Hash-consed kernel representation") discusses the
/// invariants in detail.
///
//===----------------------------------------------------------------------===//

#ifndef AC_HOL_INTERN_H
#define AC_HOL_INTERN_H

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <type_traits>
#include <utility>
#include <vector>

namespace ac::hol {

/// Process-wide intern id counter, shared by every InternStore so ids
/// are unique across arenas (terms never collide with types). Id 0 is
/// reserved as "never interned".
inline std::atomic<uint64_t> &internIdCounter() {
  static std::atomic<uint64_t> C{1};
  return C;
}

/// Append-only node storage in whole blocks of at least 64 KiB from the
/// C++ allocator. Addresses are stable, and a destroyed arena hands its
/// blocks back whole, so a sanitizer sees any later use of a node.
template <typename Node> class BlockArena {
public:
  BlockArena() = default;
  BlockArena(const BlockArena &) = delete;
  BlockArena &operator=(const BlockArena &) = delete;
  ~BlockArena() {
    if constexpr (!std::is_trivially_destructible_v<Node>)
      for (size_t I = 0; I != Count; ++I)
        Blocks[I / PerBlock][I % PerBlock].~Node();
    for (Node *B : Blocks)
      std::allocator<Node>().deallocate(B, PerBlock);
  }

  const Node *push(Node &&N) {
    if (Count == Blocks.size() * PerBlock)
      Blocks.push_back(std::allocator<Node>().allocate(PerBlock));
    Node *P = Blocks.back() + Count % PerBlock;
    new (P) Node(std::move(N));
    ++Count;
    return P;
  }

  size_t size() const { return Count; }

private:
  static constexpr size_t PerBlock = (65536 + sizeof(Node) - 1) / sizeof(Node);
  std::vector<Node *> Blocks;
  size_t Count = 0;
};

/// Arena-backed, sharded canonicalisation store for immutable nodes.
///
/// get() looks up an existing node with the given hash that satisfies
/// \p Eq; if none exists, \p Make(Id) builds the node (with its assigned
/// intern id) and it is moved into the shard's arena. Collisions on the
/// hash are resolved by the structural predicate, never assumed away.
template <typename Node, unsigned ShardCount = 64> class InternStore {
public:
  using Ref = std::shared_ptr<const Node>;

  /// \p Eq is the structural match against the prospective node's
  /// components; \p Make builds it only on a miss, receiving the fresh
  /// node's unique intern id.
  template <typename EqFn, typename MakeFn>
  Ref get(size_t Hash, EqFn Eq, MakeFn Make) {
    Shard &S = shard(Hash);
    std::lock_guard<std::mutex> L(S.M);
    size_t I;
    if (const Node *N = S.find(Hash, Eq, I))
      return alias(N);
    return alias(S.insert(Hash, I, Make(nextId())));
  }

  /// get() for a store layered over \p Base (a request generation): this
  /// store's shard, then the base's, and a miss is built here. One lock
  /// is held at a time; the shard is re-checked before the insertion in
  /// case a thread of the same generation built the node meanwhile.
  template <typename EqFn, typename MakeFn>
  Ref getOver(const InternStore &Base, size_t Hash, EqFn Eq, MakeFn Make) {
    Shard &S = shard(Hash);
    size_t I, Seen;
    {
      std::lock_guard<std::mutex> L(S.M);
      if (const Node *N = S.find(Hash, Eq, I))
        return alias(N);
      Seen = S.Arena.size();
    }
    if (const Node *N = Base.find(Hash, Eq))
      return alias(N);
    std::lock_guard<std::mutex> L(S.M);
    if (S.Arena.size() != Seen)
      if (const Node *N = S.find(Hash, Eq, I))
        return alias(N);
    return alias(S.insert(Hash, I, Make(nextId())));
  }

  /// Number of interned nodes (diagnostics; takes every shard lock).
  size_t size() const {
    size_t N = 0;
    for (const Shard &S : Shards) {
      std::lock_guard<std::mutex> L(S.M);
      N += S.Arena.size();
    }
    return N;
  }

private:
  struct Slot {
    size_t Hash = 0;
    const Node *N = nullptr;
  };
  struct Shard {
    mutable std::mutex M;
    std::vector<Slot> Table;
    BlockArena<Node> Arena;

    /// The node matching \p Hash and \p Eq, or null with \p I at the
    /// empty slot that ends the probe. Caller holds M.
    ///
    /// Open addressing with linear probing: the factories run on every
    /// single node construction, so the lookup must touch as little
    /// memory as possible — one probe sequence in a flat array, then the
    /// node itself. Low bits of Hash picked the shard, so the slot uses
    /// the hash divided by the shard count to stay decorrelated.
    template <typename EqFn>
    const Node *find(size_t Hash, EqFn &Eq, size_t &I) const {
      I = 0;
      if (Table.empty())
        return nullptr;
      size_t Mask = Table.size() - 1;
      for (I = (Hash / ShardCount) & Mask; Table[I].N; I = (I + 1) & Mask)
        if (Table[I].Hash == Hash && Eq(*Table[I].N))
          return Table[I].N;
      return nullptr;
    }

    /// Adds \p Fresh at slot \p I, where find() stopped. Caller holds M.
    const Node *insert(size_t Hash, size_t I, Node &&Fresh) {
      if (Table.empty()) {
        Table.resize(1024);
        I = (Hash / ShardCount) & 1023;
      }
      const Node *N = Arena.push(std::move(Fresh));
      // Grow at 70% load; entries are never removed, so no tombstones.
      if ((Arena.size() * 10) / 7 >= Table.size()) {
        std::vector<Slot> Old(Table.size() * 2);
        Old.swap(Table);
        size_t Mask = Table.size() - 1;
        for (const Slot &E : Old) {
          if (!E.N)
            continue;
          size_t J = (E.Hash / ShardCount) & Mask;
          while (Table[J].N)
            J = (J + 1) & Mask;
          Table[J] = E;
        }
        for (I = (Hash / ShardCount) & Mask; Table[I].N; I = (I + 1) & Mask)
          ;
      }
      Table[I] = {Hash, N};
      return N;
    }
  };

  Shard &shard(size_t Hash) { return Shards[Hash % ShardCount]; }

  template <typename EqFn> const Node *find(size_t Hash, EqFn &Eq) const {
    const Shard &S = Shards[Hash % ShardCount];
    std::lock_guard<std::mutex> L(S.M);
    size_t I;
    return S.find(Hash, Eq, I);
  }

  static uint64_t nextId() {
    return internIdCounter().fetch_add(1, std::memory_order_relaxed);
  }
  static Ref alias(const Node *N) { return Ref(Ref{}, N); }

  Shard Shards[ShardCount];
};

} // namespace ac::hol

#endif // AC_HOL_INTERN_H
