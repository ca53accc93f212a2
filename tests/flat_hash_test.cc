// Randomized differential tests for FlatHashMap/FlatHashSet against
// std::unordered_map, plus directed tests for the structural edge cases:
// backward-shift deletion wrapping around slot 0, the robin-hood cutoff
// under heterogeneous FindHashed probes, duplicate (colliding) hashes, and
// the hash==0 normalization sentinel. All random streams are seeded, so
// failures reproduce deterministically.

#include "support/flat_hash.h"

#include <cstdint>
#include <random>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include <gtest/gtest.h>

namespace volcano {
namespace {

// --- differential: random workloads vs std::unordered_map -----------------

TEST(FlatHashMapDifferential, RandomInsertFindEraseMatchesStd) {
  for (uint64_t seed : {1u, 7u, 1234u, 99991u}) {
    std::mt19937_64 rng(seed);
    FlatHashMap<uint64_t, int> fm;
    std::unordered_map<uint64_t, int> sm;
    // Small key universe forces heavy re-insertion of recently erased keys,
    // exercising the backward-shift + reinsert interaction.
    std::uniform_int_distribution<uint64_t> key_dist(0, 512);
    std::uniform_int_distribution<int> op_dist(0, 99);
    for (int step = 0; step < 20000; ++step) {
      uint64_t k = key_dist(rng);
      int op = op_dist(rng);
      if (op < 45) {  // insert / overwrite
        int v = static_cast<int>(rng());
        fm[k] = v;
        sm[k] = v;
      } else if (op < 90) {  // erase-heavy mix
        EXPECT_EQ(fm.Erase(k), sm.erase(k) > 0) << "seed " << seed
                                                << " step " << step;
      } else {  // point lookup
        int* fv = fm.Find(k);
        auto it = sm.find(k);
        ASSERT_EQ(fv != nullptr, it != sm.end())
            << "seed " << seed << " step " << step << " key " << k;
        if (fv != nullptr) {
          EXPECT_EQ(*fv, it->second);
        }
      }
      ASSERT_EQ(fm.size(), sm.size()) << "seed " << seed << " step " << step;
    }
    // Full sweep: every surviving entry matches, nothing extra.
    size_t seen = 0;
    fm.ForEach([&](const uint64_t& k, int& v) {
      auto it = sm.find(k);
      ASSERT_NE(it, sm.end()) << "phantom key " << k;
      EXPECT_EQ(v, it->second);
      ++seen;
    });
    EXPECT_EQ(seen, sm.size());
  }
}

TEST(FlatHashSetDifferential, RandomWorkloadMatchesStd) {
  std::mt19937_64 rng(424242);
  FlatHashSet<uint64_t> fs;
  std::unordered_set<uint64_t> ss;
  std::uniform_int_distribution<uint64_t> key_dist(0, 300);
  for (int step = 0; step < 20000; ++step) {
    uint64_t k = key_dist(rng);
    if (rng() % 2 == 0) {
      EXPECT_EQ(fs.Insert(k), ss.insert(k).second) << "step " << step;
    } else {
      EXPECT_EQ(fs.Erase(k), ss.erase(k) > 0) << "step " << step;
    }
    EXPECT_EQ(fs.Contains(k), ss.count(k) > 0) << "step " << step;
    ASSERT_EQ(fs.size(), ss.size()) << "step " << step;
  }
}

// --- directed: pathological hash functions --------------------------------

/// Maps every key into a handful of buckets near the top of the table so
/// probe chains collide, wrap past the end of the slot array, and stack many
/// distinct keys on identical hash values.
struct BadHash {
  uint64_t operator()(const uint64_t& k) const { return (k % 4) * 0x4000; }
};

TEST(FlatHashMapDifferential, DuplicateHashesAndWrapAround) {
  std::mt19937_64 rng(5);
  FlatHashMap<uint64_t, int, BadHash> fm;
  std::unordered_map<uint64_t, int> sm;
  std::uniform_int_distribution<uint64_t> key_dist(0, 200);
  for (int step = 0; step < 10000; ++step) {
    uint64_t k = key_dist(rng);
    if (rng() % 3 != 0) {
      int v = static_cast<int>(k * 3);
      fm.TryEmplace(k, v);
      sm.emplace(k, v);
    } else {
      EXPECT_EQ(fm.Erase(k), sm.erase(k) > 0) << "step " << step;
    }
    ASSERT_EQ(fm.size(), sm.size()) << "step " << step;
  }
  for (const auto& [k, v] : sm) {
    int* fv = fm.Find(k);
    ASSERT_NE(fv, nullptr) << "key " << k;
    EXPECT_EQ(*fv, v);
  }
}

/// All keys hash to 0, which NormHash must remap (0 marks an empty slot): a
/// zero-valued hash stored raw would make every entry invisible.
struct ZeroHash {
  uint64_t operator()(const uint64_t&) const { return 0; }
};

TEST(FlatHashMap, ZeroHashSentinelIsNormalized) {
  FlatHashMap<uint64_t, int, ZeroHash> fm;
  for (uint64_t k = 0; k < 64; ++k) fm[k] = static_cast<int>(k);
  EXPECT_EQ(fm.size(), 64u);
  for (uint64_t k = 0; k < 64; ++k) {
    int* v = fm.Find(k);
    ASSERT_NE(v, nullptr) << "key " << k;
    EXPECT_EQ(*v, static_cast<int>(k));
  }
  for (uint64_t k = 0; k < 64; k += 2) EXPECT_TRUE(fm.Erase(k));
  for (uint64_t k = 0; k < 64; ++k) {
    EXPECT_EQ(fm.Find(k) != nullptr, k % 2 == 1) << "key " << k;
  }
}

/// Backward-shift deletion around index 0: keys whose probe chains span the
/// table's wrap point, erased in an order that forces the shifting loop to
/// cross from slot capacity-1 to slot 0.
TEST(FlatHashMap, BackwardShiftAcrossWrapPoint) {
  // Hash = key, unmixed: key K lands at slot K & mask, so keys near the
  // table's capacity place probe chains across the wrap point.
  struct IdentityHash {
    uint64_t operator()(const uint64_t& k) const { return k; }
  };
  FlatHashMap<uint64_t, int, IdentityHash> fm;
  // Capacity starts at 16. Chain at slots 14,15,0,1: keys 14,30,46,62 all
  // ideal-slot 14; insert four so the chain wraps.
  for (uint64_t k : {14u, 30u, 46u, 62u}) fm[k] = static_cast<int>(k);
  // A key at its ideal slot 1 is displaced further by the chain.
  fm[1] = 1;
  ASSERT_EQ(fm.size(), 5u);
  ASSERT_EQ(fm.capacity(), 16u);
  // Erasing the chain head forces back-shifts across the wrap point; the
  // displaced key must slide back toward (eventually into) its ideal slot.
  EXPECT_TRUE(fm.Erase(14));
  EXPECT_TRUE(fm.Erase(30));
  for (uint64_t k : {46u, 62u, 1u}) {
    int* v = fm.Find(k);
    ASSERT_NE(v, nullptr) << "key " << k << " lost in back-shift";
    EXPECT_EQ(*v, static_cast<int>(k));
  }
  EXPECT_TRUE(fm.Erase(46));
  EXPECT_TRUE(fm.Erase(62));
  EXPECT_NE(fm.Find(1), nullptr);
  EXPECT_EQ(fm.size(), 1u);
}

// --- heterogeneous FindHashed probes --------------------------------------

TEST(FlatHashMap, HeterogeneousProbesRespectRobinHoodCutoff) {
  // Store string keys, probe with string_view-style borrowed predicates
  // under the identical hash the table used at insert time.
  struct StrHash {
    uint64_t operator()(const std::string& s) const {
      uint64_t h = 1469598103934665603ull;
      for (char c : s) h = (h ^ static_cast<unsigned char>(c)) * 1099511628211ull;
      return h;
    }
  };
  FlatHashMap<std::string, int, StrHash> fm;
  std::vector<std::string> keys;
  for (int i = 0; i < 500; ++i) keys.push_back("key-" + std::to_string(i));
  for (int i = 0; i < 500; ++i) fm.TryEmplace(keys[i], i);
  // Erase a swath to create back-shifted layouts, then probe everything
  // heterogeneously: hits for survivors, clean misses (via the robin-hood
  // cutoff, not a full-table scan) for the erased.
  for (int i = 0; i < 500; i += 3) fm.Erase(keys[i]);
  for (int i = 0; i < 500; ++i) {
    uint64_t h = StrHash{}(keys[i]);
    const char* borrowed = keys[i].c_str();
    int* v = fm.FindHashed(
        h, [&](const std::string& k) { return k == borrowed; });
    if (i % 3 == 0) {
      EXPECT_EQ(v, nullptr) << keys[i];
    } else {
      ASSERT_NE(v, nullptr) << keys[i];
      EXPECT_EQ(*v, i);
    }
  }
}

TEST(FlatHashMap, ClearResetsToEmpty) {
  FlatHashMap<uint64_t, int> fm;
  for (uint64_t k = 0; k < 100; ++k) fm[k] = 1;
  fm.Clear();
  EXPECT_EQ(fm.size(), 0u);
  EXPECT_TRUE(fm.empty());
  EXPECT_EQ(fm.Find(5), nullptr);
  // Usable after Clear.
  fm[5] = 7;
  ASSERT_NE(fm.Find(5), nullptr);
  EXPECT_EQ(*fm.Find(5), 7);
}

TEST(FlatHashMap, ClearKeepingCapacityEmptiesInPlace) {
  FlatHashMap<uint64_t, int> fm;
  for (uint64_t k = 0; k < 100; ++k) fm[k] = 1;
  const size_t capacity = fm.capacity();
  fm.ClearKeepingCapacity();
  EXPECT_EQ(fm.size(), 0u);
  EXPECT_EQ(fm.capacity(), capacity);
  for (uint64_t k = 0; k < 100; ++k) EXPECT_EQ(fm.Find(k), nullptr) << k;
  // Refilled to the same size, the table does not grow.
  for (uint64_t k = 100; k < 200; ++k) fm[k] = 2;
  EXPECT_EQ(fm.capacity(), capacity);
  EXPECT_EQ(fm.size(), 100u);
  ASSERT_NE(fm.Find(150), nullptr);
  EXPECT_EQ(*fm.Find(150), 2);
  EXPECT_EQ(fm.Find(50), nullptr);
}

}  // namespace
}  // namespace volcano
