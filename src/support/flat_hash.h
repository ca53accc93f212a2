// Open-addressing hash containers for the memo hot paths.
//
// The memo's tables (signature table, per-class winner tables, in-progress
// marks) sit on the innermost loops of the search; node-based
// std::unordered_map pays a heap allocation per entry and a pointer chase per
// probe. FlatHashMap/FlatHashSet store slots inline in one array with
// robin-hood probing and backward-shift deletion, and every slot carries its
// full 64-bit hash so rehashing and displacement checks never re-hash a key.
// Hashes are expected to be pre-mixed (see support/hash.h); the table adds no
// extra mixing of its own.
//
// Heterogeneous probing (FindHashed/InsertHashed) lets callers look up by a
// borrowed representation — e.g. the symbol table probes with a
// std::string_view against stored integer ids — without materializing a key.

#ifndef VOLCANO_SUPPORT_FLAT_HASH_H_
#define VOLCANO_SUPPORT_FLAT_HASH_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <type_traits>
#include <utility>
#include <vector>

#include "support/hash.h"
#include "support/status.h"

namespace volcano {

/// Default hashing policy: integers and enums are mixed with Mix64, pointers
/// by their address bits. Other key types must supply their own functor
/// (returning a well-mixed 64-bit value).
template <typename K>
struct FlatHash64 {
  uint64_t operator()(const K& k) const {
    if constexpr (std::is_integral_v<K> || std::is_enum_v<K>) {
      return Mix64(static_cast<uint64_t>(k));
    } else if constexpr (std::is_pointer_v<K>) {
      return Mix64(reinterpret_cast<uint64_t>(k));
    } else {
      return k.Hash();
    }
  }
};

/// Robin-hood open-addressing map. Pointers/references into the table are
/// invalidated by any mutation (insert may rehash, erase back-shifts).
/// Keys and values must be movable and default-constructible.
template <typename K, typename V, typename Hash = FlatHash64<K>,
          typename Eq = std::equal_to<K>>
class FlatHashMap {
 public:
  FlatHashMap() = default;

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  void Clear() {
    slots_.clear();
    mask_ = 0;
    size_ = 0;
  }

  /// Empties the table but keeps its slot array, so refilling it to the
  /// same size allocates nothing (the memo's per-query tables).
  void ClearKeepingCapacity() {
    if (size_ == 0) return;
    for (Slot& s : slots_) {
      if (s.hash == 0) continue;
      s.hash = 0;
      s.key = K{};
      s.value = V{};
    }
    size_ = 0;
  }

  /// Pointer to the mapped value, or null.
  V* Find(const K& key) {
    return FindHashed(NormHash(Hash{}(key)),
                      [&](const K& k) { return Eq{}(k, key); });
  }
  const V* Find(const K& key) const {
    return const_cast<FlatHashMap*>(this)->Find(key);
  }

  /// Heterogeneous probe: `hash` must equal the stored key's hash under this
  /// table's Hash policy, and `pred(stored_key)` must match iff the stored
  /// key is the one sought.
  template <typename Pred>
  V* FindHashed(uint64_t hash, Pred&& pred) {
    if (size_ == 0) return nullptr;
    hash = NormHash(hash);
    size_t i = hash & mask_;
    size_t dist = 0;
    while (true) {
      Slot& s = slots_[i];
      if (s.hash == 0) return nullptr;
      if (ProbeDist(s.hash, i) < dist) return nullptr;  // robin-hood cutoff
      if (s.hash == hash && pred(static_cast<const K&>(s.key))) {
        return &s.value;
      }
      i = (i + 1) & mask_;
      ++dist;
    }
  }
  template <typename Pred>
  const V* FindHashed(uint64_t hash, Pred&& pred) const {
    return const_cast<FlatHashMap*>(this)->FindHashed(
        hash, std::forward<Pred>(pred));
  }

  /// Inserts (key, value) unless an equal key exists. Returns the mapped
  /// value slot and whether it was newly inserted.
  std::pair<V*, bool> TryEmplace(K key, V value = V{}) {
    uint64_t hash = NormHash(Hash{}(key));
    if (V* v = FindHashed(hash, [&](const K& k) { return Eq{}(k, key); })) {
      return {v, false};
    }
    return {InsertNew(hash, std::move(key), std::move(value)), true};
  }

  /// Inserts under a precomputed hash without checking for duplicates; the
  /// caller must have probed first (FindHashed) — duplicate keys corrupt the
  /// table's find semantics.
  V* InsertHashed(uint64_t hash, K key, V value = V{}) {
    return InsertNew(NormHash(hash), std::move(key), std::move(value));
  }

  /// Mapped value for `key`, default-constructing it if absent.
  V& operator[](K key) { return *TryEmplace(std::move(key)).first; }

  bool Erase(const K& key) {
    return EraseHashed(NormHash(Hash{}(key)),
                       [&](const K& k) { return Eq{}(k, key); });
  }

  template <typename Pred>
  bool EraseHashed(uint64_t hash, Pred&& pred) {
    if (size_ == 0) return false;
    hash = NormHash(hash);
    size_t i = hash & mask_;
    size_t dist = 0;
    while (true) {
      Slot& s = slots_[i];
      if (s.hash == 0) return false;
      if (ProbeDist(s.hash, i) < dist) return false;
      if (s.hash == hash && pred(static_cast<const K&>(s.key))) break;
      i = (i + 1) & mask_;
      ++dist;
    }
    // Backward-shift deletion: pull successors left until a slot is empty or
    // already at its ideal position, so no tombstones are needed.
    while (true) {
      size_t next = (i + 1) & mask_;
      Slot& cur = slots_[i];
      Slot& nxt = slots_[next];
      if (nxt.hash == 0 || ProbeDist(nxt.hash, next) == 0) {
        cur.hash = 0;
        cur.key = K{};
        cur.value = V{};
        break;
      }
      cur = std::move(nxt);
      i = next;
    }
    --size_;
    return true;
  }

  /// Applies fn(const K&, V&) to every entry. The table must not be mutated
  /// during iteration.
  template <typename Fn>
  void ForEach(Fn&& fn) {
    for (Slot& s : slots_) {
      if (s.hash != 0) fn(static_cast<const K&>(s.key), s.value);
    }
  }
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    for (const Slot& s : slots_) {
      if (s.hash != 0) fn(s.key, s.value);
    }
  }

  /// Slots reserved (diagnostics / load-factor tests).
  size_t capacity() const { return slots_.size(); }

 private:
  struct Slot {
    uint64_t hash = 0;  // 0 marks an empty slot
    K key{};
    V value{};
  };

  static uint64_t NormHash(uint64_t h) { return h == 0 ? 1 : h; }

  size_t ProbeDist(uint64_t hash, size_t at) const {
    return (at - (hash & mask_)) & mask_;
  }

  V* InsertNew(uint64_t hash, K key, V value) {
    if (slots_.empty() || size_ + 1 > slots_.size() - slots_.size() / 4) {
      Rehash(slots_.empty() ? 16 : slots_.size() * 2);
    }
    ++size_;
    return Place(hash, std::move(key), std::move(value));
  }

  /// Robin-hood displacement insert; returns the slot where the *original*
  /// (key, value) ended up.
  V* Place(uint64_t hash, K key, V value) {
    size_t i = hash & mask_;
    size_t dist = 0;
    V* result = nullptr;
    while (true) {
      Slot& s = slots_[i];
      if (s.hash == 0) {
        s.hash = hash;
        s.key = std::move(key);
        s.value = std::move(value);
        return result == nullptr ? &s.value : result;
      }
      size_t sdist = ProbeDist(s.hash, i);
      if (sdist < dist) {
        std::swap(hash, s.hash);
        std::swap(key, s.key);
        std::swap(value, s.value);
        if (result == nullptr) result = &s.value;
        dist = sdist;
      }
      i = (i + 1) & mask_;
      ++dist;
    }
  }

  void Rehash(size_t new_cap) {
    VOLCANO_DCHECK((new_cap & (new_cap - 1)) == 0);
    std::vector<Slot> old = std::move(slots_);
    slots_.clear();
    slots_.resize(new_cap);
    mask_ = new_cap - 1;
    for (Slot& s : old) {
      if (s.hash != 0) Place(s.hash, std::move(s.key), std::move(s.value));
    }
  }

  std::vector<Slot> slots_;
  size_t mask_ = 0;
  size_t size_ = 0;
};

/// Set counterpart of FlatHashMap; same probing and invalidation rules.
template <typename K, typename Hash = FlatHash64<K>,
          typename Eq = std::equal_to<K>>
class FlatHashSet {
 public:
  size_t size() const { return map_.size(); }
  bool empty() const { return map_.empty(); }
  void Clear() { map_.Clear(); }
  void ClearKeepingCapacity() { map_.ClearKeepingCapacity(); }

  bool Contains(const K& key) const { return map_.Find(key) != nullptr; }

  /// The stored key equal to `key`, or null.
  const K* Find(const K& key) const {
    uint64_t h = Hash{}(key);
    return FindHashed(h, [&](const K& k) { return Eq{}(k, key); });
  }

  template <typename Pred>
  const K* FindHashed(uint64_t hash, Pred&& pred) const {
    const K* found = nullptr;
    // The map's value is empty; recover the key via a keyed ForEach-less
    // probe: FindHashed gives us the value slot, so probe with a capturing
    // predicate that records the key instead.
    map_.FindHashed(hash, [&](const K& k) {
      if (pred(k)) {
        found = &k;
        return true;
      }
      return false;
    });
    return found;
  }

  /// Returns true if newly inserted.
  bool Insert(K key) { return map_.TryEmplace(std::move(key)).second; }

  /// Inserts under a precomputed hash; caller must have probed first.
  void InsertHashed(uint64_t hash, K key) {
    map_.InsertHashed(hash, std::move(key));
  }

  bool Erase(const K& key) { return map_.Erase(key); }

  template <typename Pred>
  bool EraseHashed(uint64_t hash, Pred&& pred) {
    return map_.EraseHashed(hash, std::forward<Pred>(pred));
  }

  template <typename Fn>
  void ForEach(Fn&& fn) const {
    map_.ForEach([&](const K& k, const Empty&) { fn(k); });
  }

  size_t capacity() const { return map_.capacity(); }

 private:
  struct Empty {};
  mutable FlatHashMap<K, Empty, Hash, Eq> map_;
};

}  // namespace volcano

#endif  // VOLCANO_SUPPORT_FLAT_HASH_H_
