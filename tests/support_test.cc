// Support library tests: arena, interning, flat hash containers, small
// vectors, scratch pools, hashing, RNG, status, timer.

#include <gtest/gtest.h>

#include <cstring>
#include <set>
#include <thread>

#include "support/arena.h"
#include "support/flat_hash.h"
#include "support/hash.h"
#include "support/intern.h"
#include "support/rng.h"
#include "support/small_vector.h"
#include "support/status.h"
#include "support/timer.h"

namespace volcano {
namespace {

TEST(Arena, AllocatesAndAligns) {
  Arena arena;
  void* a = arena.Allocate(3, 1);
  void* b = arena.Allocate(8, 8);
  void* c = arena.Allocate(1, 64);
  EXPECT_NE(a, nullptr);
  EXPECT_EQ(reinterpret_cast<uintptr_t>(b) % 8, 0u);
  EXPECT_EQ(reinterpret_cast<uintptr_t>(c) % 64, 0u);
  EXPECT_GE(arena.bytes_allocated(), 12u);
}

TEST(Arena, GrowsAcrossBlocks) {
  Arena arena(/*block_bytes=*/128);
  for (int i = 0; i < 100; ++i) {
    void* p = arena.Allocate(64);
    std::memset(p, i, 64);  // must be writable
  }
  EXPECT_GE(arena.bytes_reserved(), 100u * 64u);
}

TEST(Arena, OversizedAllocationGetsOwnBlock) {
  Arena arena(/*block_bytes=*/64);
  void* p = arena.Allocate(10000);
  std::memset(p, 7, 10000);
  EXPECT_GE(arena.bytes_reserved(), 10000u);
}

TEST(Arena, NewConstructsObjects) {
  Arena arena;
  struct Point {
    int x, y;
  };
  Point* p = arena.New<Point>(Point{3, 4});
  EXPECT_EQ(p->x, 3);
  EXPECT_EQ(p->y, 4);
}

TEST(Arena, ResetRetainsFirstBlockAndReleasesOverflow) {
  Arena arena(/*block_bytes=*/128);
  arena.Allocate(100);
  size_t first = arena.bytes_reserved();
  // Force several overflow blocks.
  for (int i = 0; i < 8; ++i) arena.Allocate(100);
  EXPECT_GT(arena.bytes_reserved(), first);
  arena.Reset();
  EXPECT_EQ(arena.bytes_allocated(), 0u);
  // The first block survives so a reused arena doesn't re-pay allocation.
  EXPECT_EQ(arena.bytes_reserved(), first);
}

TEST(Arena, ResetOnFreshArenaIsANoOp) {
  Arena arena;
  arena.Reset();
  EXPECT_EQ(arena.bytes_allocated(), 0u);
  EXPECT_EQ(arena.bytes_reserved(), 0u);
}

TEST(Arena, ReusableAfterReset) {
  Arena arena(/*block_bytes=*/256);
  void* first = arena.Allocate(64, 8);
  arena.Reset();
  void* again = arena.Allocate(64, 8);
  // Same rewound block, same bump pointer.
  EXPECT_EQ(first, again);
  std::memset(again, 0xab, 64);
  EXPECT_EQ(arena.bytes_allocated(), 64u);
}

TEST(Arena, AlignmentSpillAllocatesBigEnoughBlock) {
  // When bytes + alignment padding exceed the remaining space, the new block
  // must still fit the worst case (bytes + align); request sizes near the
  // block size with large alignment to exercise the spill path.
  Arena arena(/*block_bytes=*/64);
  for (int i = 0; i < 16; ++i) {
    void* p = arena.Allocate(60, 64);
    ASSERT_NE(p, nullptr);
    EXPECT_EQ(reinterpret_cast<uintptr_t>(p) % 64, 0u);
    std::memset(p, 0x5a, 60);  // ASan verifies the allocation is in bounds
  }
}

TEST(SymbolTable, InternIsIdempotent) {
  SymbolTable t;
  Symbol a = t.Intern("hello");
  Symbol b = t.Intern("hello");
  Symbol c = t.Intern("world");
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  EXPECT_EQ(t.Name(a), "hello");
  EXPECT_EQ(t.size(), 2u);
}

TEST(SymbolTable, LookupWithoutInterning) {
  SymbolTable t;
  EXPECT_FALSE(t.Lookup("missing").valid());
  Symbol a = t.Intern("present");
  EXPECT_EQ(t.Lookup("present"), a);
  EXPECT_EQ(t.size(), 1u);  // Lookup must not create entries
}

TEST(SymbolTable, InvalidSymbolName) {
  SymbolTable t;
  EXPECT_EQ(t.Name(Symbol()), "<invalid>");
  EXPECT_FALSE(Symbol().valid());
}

TEST(Hash, Mix64Scatters) {
  std::set<uint64_t> seen;
  for (uint64_t i = 0; i < 1000; ++i) seen.insert(Mix64(i));
  EXPECT_EQ(seen.size(), 1000u);
}

TEST(Hash, CombineIsOrderSensitive) {
  uint64_t a = HashCombine(HashCombine(0, 1), 2);
  uint64_t b = HashCombine(HashCombine(0, 2), 1);
  EXPECT_NE(a, b);
}

TEST(Hash, StringHashing) {
  EXPECT_EQ(HashString("abc"), HashString("abc"));
  EXPECT_NE(HashString("abc"), HashString("abd"));
  EXPECT_NE(HashString(""), HashString("a"));
}

TEST(Rng, DeterministicAcrossInstances) {
  Rng a(123), b(123), c(124);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.Next(), b.Next());
  }
  EXPECT_NE(a.Next(), c.Next());
}

TEST(Rng, UniformRangeBounds) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    int64_t v = rng.UniformRange(-5, 5);
    EXPECT_GE(v, -5);
    EXPECT_LE(v, 5);
    double d = rng.UniformDouble(2.0, 3.0);
    EXPECT_GE(d, 2.0);
    EXPECT_LT(d, 3.0);
  }
}

TEST(Rng, UniformCoversDomain) {
  Rng rng(11);
  std::set<uint64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(rng.Uniform(10));
  EXPECT_EQ(seen.size(), 10u);
}

TEST(Status, CodesAndMessages) {
  EXPECT_TRUE(Status::OK().ok());
  Status s = Status::NotFound("thing");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), Status::Code::kNotFound);
  EXPECT_EQ(s.message(), "thing");
  EXPECT_NE(s.ToString().find("NOT_FOUND"), std::string::npos);
}

TEST(StatusOr, HoldsValueOrStatus) {
  StatusOr<int> v = 42;
  EXPECT_TRUE(v.ok());
  EXPECT_EQ(*v, 42);
  StatusOr<int> e = Status::InvalidArgument("bad");
  EXPECT_FALSE(e.ok());
  EXPECT_EQ(e.status().code(), Status::Code::kInvalidArgument);
}

TEST(Timer, MeasuresElapsedTime) {
  Timer t;
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  double ms = t.ElapsedMillis();
  EXPECT_GE(ms, 5.0);
  EXPECT_LT(ms, 5000.0);
  t.Restart();
  EXPECT_LT(t.ElapsedMillis(), 5.0);
}

TEST(FlatHashMap, InsertFindEraseChurn) {
  FlatHashMap<int, int> m;
  for (int i = 0; i < 1000; ++i) m.TryEmplace(i, i * 3);
  EXPECT_EQ(m.size(), 1000u);
  for (int i = 0; i < 1000; ++i) {
    int* v = m.Find(i);
    ASSERT_NE(v, nullptr);
    EXPECT_EQ(*v, i * 3);
  }
  EXPECT_EQ(m.Find(1000), nullptr);
  // Erase every third key; backward-shift deletion must keep the rest
  // findable (no tombstone artifacts).
  for (int i = 0; i < 1000; i += 3) EXPECT_TRUE(m.Erase(i));
  for (int i = 0; i < 1000; ++i) {
    if (i % 3 == 0) {
      EXPECT_EQ(m.Find(i), nullptr);
    } else {
      ASSERT_NE(m.Find(i), nullptr);
      EXPECT_EQ(*m.Find(i), i * 3);
    }
  }
  // Reinsert over the holes.
  for (int i = 0; i < 1000; i += 3) m.TryEmplace(i, -i);
  EXPECT_EQ(m.size(), 1000u);
  EXPECT_EQ(*m.Find(999), -999);
}

TEST(FlatHashMap, TryEmplaceIsIdempotent) {
  FlatHashMap<int, int> m;
  auto [v1, fresh1] = m.TryEmplace(7, 70);
  auto [v2, fresh2] = m.TryEmplace(7, 700);
  EXPECT_TRUE(fresh1);
  EXPECT_FALSE(fresh2);
  EXPECT_EQ(*v2, 70);
  EXPECT_EQ(m.size(), 1u);
}

TEST(FlatHashMap, HeterogeneousProbesNeverMaterializeKeys) {
  // The SymbolTable pattern: keys are small ids, probes carry the hash of an
  // external representation.
  FlatHashMap<uint32_t, uint32_t> m;
  uint64_t h1 = HashString("first"), h2 = HashString("second");
  m.InsertHashed(h1, 1, 10);
  m.InsertHashed(h2, 2, 20);
  const uint32_t* v =
      m.FindHashed(h1, [](uint32_t k) { return k == 1; });
  ASSERT_NE(v, nullptr);
  EXPECT_EQ(*v, 10u);
  EXPECT_EQ(m.FindHashed(HashString("third"), [](uint32_t) { return true; }),
            nullptr);
  EXPECT_TRUE(m.EraseHashed(h1, [](uint32_t k) { return k == 1; }));
  EXPECT_EQ(m.FindHashed(h1, [](uint32_t k) { return k == 1; }), nullptr);
  ASSERT_NE(m.FindHashed(h2, [](uint32_t k) { return k == 2; }), nullptr);
}

TEST(FlatHashSet, InsertContainsErase) {
  FlatHashSet<uint64_t> s;
  for (uint64_t i = 0; i < 500; ++i) EXPECT_TRUE(s.Insert(i * 17));
  for (uint64_t i = 0; i < 500; ++i) EXPECT_FALSE(s.Insert(i * 17));
  EXPECT_EQ(s.size(), 500u);
  EXPECT_TRUE(s.Contains(17 * 42));
  EXPECT_FALSE(s.Contains(1));
  EXPECT_TRUE(s.Erase(17 * 42));
  EXPECT_FALSE(s.Contains(17 * 42));
  size_t seen = 0;
  s.ForEach([&](uint64_t) { ++seen; });
  EXPECT_EQ(seen, 499u);
}

TEST(SmallVector, StaysInlineThenSpills) {
  SmallVector<int, 4> v;
  for (int i = 0; i < 4; ++i) v.push_back(i);
  EXPECT_TRUE(v.is_inline());
  v.push_back(4);
  EXPECT_FALSE(v.is_inline());
  ASSERT_EQ(v.size(), 5u);
  for (int i = 0; i < 5; ++i) EXPECT_EQ(v[i], i);
  v.pop_back();
  v.clear();
  EXPECT_TRUE(v.empty());
}

TEST(SmallVector, CopyAndMovePreserveContents) {
  SmallVector<std::string, 2> a;
  a.push_back("one");
  a.push_back("two");
  a.push_back("three");  // spilled
  SmallVector<std::string, 2> b = a;
  EXPECT_EQ(b.size(), 3u);
  EXPECT_EQ(b[2], "three");
  SmallVector<std::string, 2> c = std::move(a);
  EXPECT_EQ(c.size(), 3u);
  EXPECT_EQ(c[0], "one");
  EXPECT_TRUE(a.empty());  // NOLINT(bugprone-use-after-move)
  SmallVector<std::string, 2> inline_src;
  inline_src.push_back("x");
  SmallVector<std::string, 2> d = std::move(inline_src);
  ASSERT_EQ(d.size(), 1u);
  EXPECT_EQ(d[0], "x");
}

TEST(SymbolTable, StringViewProbesDoNotIntern) {
  SymbolTable t;
  Symbol a = t.Intern("relation_with_a_long_name.attribute_with_a_long_name");
  size_t before = t.size();
  // Lookup of present and absent names must not grow the table.
  EXPECT_EQ(t.Lookup(std::string_view(
                "relation_with_a_long_name.attribute_with_a_long_name")),
            a);
  EXPECT_FALSE(t.Lookup("some_other_identifier").valid());
  EXPECT_EQ(t.size(), before);
  // Re-interning through a string_view of a different buffer hits the same
  // symbol.
  std::string copy = "relation_with_a_long_name.attribute_with_a_long_name";
  EXPECT_EQ(t.Intern(std::string_view(copy)), a);
  EXPECT_EQ(t.size(), before);
}

}  // namespace
}  // namespace volcano
