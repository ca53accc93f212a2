// Allocation regression test for the executor. Tuples travel between
// iterators by pointer (exec/iterator.h) and materializing operators keep
// their rows in contiguous buffers, so executing a plan allocates per
// operator and per buffer growth, not per tuple. A counting global
// operator new pins that down: every TPC-H plan, built and drained through
// Pull, must stay under a fixed number of heap allocations per execution.
//
// The counting operator new forwards to malloc/free, so the test also runs
// under AddressSanitizer.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <vector>

#include "exec/datagen.h"
#include "exec/plan_exec.h"
#include "relational/query_gen.h"
#include "relational/sql.h"
#include "search/optimizer.h"
#include "search/search_config.h"

namespace {

std::atomic<bool> g_counting{false};
std::atomic<uint64_t> g_allocations{0};

}  // namespace

void* operator new(std::size_t n) {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_allocations.fetch_add(1, std::memory_order_relaxed);
  }
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) { return operator new(n); }
// GCC cannot see that these free what the operator new above malloc'ed.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace volcano {
namespace {

constexpr uint64_t kDataSeed = 20260;

// Twice the largest count measured over both query families below (37, q15
// with unnesting off; 16 per execution on average). Copying each tuple
// into a heap Row costs thousands per execution, so the bound catches any
// per-tuple allocation on a path the plans take.
constexpr uint64_t kMaxAllocationsPerExecution = 74;

/// Heap allocations made while building one plan's iterator tree, draining
/// it through Pull, closing and destroying it. Also returns the row count.
uint64_t CountAllocations(const PlanNode& plan, const rel::RelModel& model,
                          const exec::Database& db, int64_t* rows) {
  g_allocations.store(0);
  g_counting.store(true);
  {
    exec::IteratorPtr it = exec::BuildIterator(plan, model, db);
    it->Open();
    *rows = 0;
    while (it->Pull() != nullptr) ++*rows;
    it->Close();
  }
  g_counting.store(false);
  return g_allocations.load();
}

void CheckFamily(const rel::RelModelOptions& options, const char* family) {
  rel::TpchWorkload w = rel::MakeTpchWorkload(options);
  exec::Database db = exec::GenerateDatabase(*w.catalog, kDataSeed);
  uint64_t total = 0;
  for (const rel::TpchQuery& q : w.queries) {
    StatusOr<rel::ParsedQuery> parsed =
        rel::ParseSql(q.sql, *w.model, w.catalog->symbols());
    ASSERT_TRUE(parsed.ok()) << q.name;
    Optimizer opt(*w.model, SearchConfig::FromOptions({}).value());
    StatusOr<PlanPtr> plan = opt.Optimize(*parsed->expr, parsed->required);
    ASSERT_TRUE(plan.ok()) << q.name;

    int64_t rows = 0;
    uint64_t allocations = CountAllocations(**plan, *w.model, db, &rows);
    // The row count ties the measured run to a real execution.
    EXPECT_EQ(static_cast<size_t>(rows),
              exec::ExecutePlan(**plan, *w.model, db).size())
        << q.name;
    std::printf("%s %s: %llu allocations, %lld rows\n", family,
                q.name.c_str(), static_cast<unsigned long long>(allocations),
                static_cast<long long>(rows));
    EXPECT_LE(allocations, kMaxAllocationsPerExecution)
        << family << " " << q.name;
    total += allocations;
  }
  std::printf("%s: %.1f allocations per execution on average\n", family,
              static_cast<double>(total) / w.queries.size());
}

TEST(ExecAllocations, TpchPlansStayUnderTheBound) {
  CheckFamily({}, "tpch");
}

TEST(ExecAllocations, NestedSubqueryPlansStayUnderTheBound) {
  rel::RelModelOptions nested;
  nested.enable_unnest_subqueries = false;
  CheckFamily(nested, "tpch-nested");
}

}  // namespace
}  // namespace volcano
