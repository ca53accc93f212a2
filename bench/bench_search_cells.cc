// Search cells: the search engine timed on fixed chain and star queries.
//
// A probe for changes to the search itself (rule sets, move ordering,
// exploration): it times each cell as the fastest of N repetitions in one
// process and prints the six search-work counts, which are exact on any
// host. Compare a change against its parent by running both builds on the
// same host at the same time, not against a stored report from another day.
//
// Cells: query_gen chains and stars at 6, 8 and 10 relations, every query
// with an ORDER BY, 5 queries a cell (seeds 1-5). Every query keeps one
// Optimizer for the whole run and calls ResetForReuse before each
// optimization, as serve::Session does between requests (query_gen gives
// each query its own model, so a cell holds five optimizers). An untimed
// first run warms each optimizer's recycled storage; then each repetition
// optimizes every query once. Printed per cell: ms (each query's fastest of
// N, summed over the 5), heap allocations per query (steady state: the
// average over the 5 queries' last run) and the six work counts.
//
// Usage: bench_search_cells [repetitions]   (default 5)
// Exits 2 if a query fails to optimize. Times are reported, never gated:
// they vary with the host. Allocation and work counts are exact.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <memory>
#include <new>
#include <vector>

#include "relational/query_gen.h"
#include "search/optimizer.h"
#include "support/timer.h"

namespace {

// Heap allocations made by this process (single-threaded).
uint64_t g_allocations = 0;

}  // namespace

void* operator new(std::size_t n) {
  ++g_allocations;
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

constexpr int kQueriesPerCell = 5;

struct Work {
  uint64_t mexprs_created = 0;
  uint64_t mexprs_deduped = 0;
  uint64_t transformations_applied = 0;
  uint64_t cost_estimates = 0;
  uint64_t moves_pruned = 0;
  uint64_t memo_winner_hits = 0;

  void Add(const SearchStats& s) {
    mexprs_created += s.mexprs_created;
    mexprs_deduped += s.mexprs_deduped;
    transformations_applied += s.transformations_applied;
    cost_estimates += s.cost_estimates;
    moves_pruned += s.moves_pruned;
    memo_winner_hits += s.memo_winner_hits;
  }
  void Print() const {
    std::printf(
        "    created %llu, deduped %llu, transformations %llu, "
        "cost estimates %llu, pruned %llu, winner hits %llu\n",
        static_cast<unsigned long long>(mexprs_created),
        static_cast<unsigned long long>(mexprs_deduped),
        static_cast<unsigned long long>(transformations_applied),
        static_cast<unsigned long long>(cost_estimates),
        static_cast<unsigned long long>(moves_pruned),
        static_cast<unsigned long long>(memo_winner_hits));
  }
};

/// One query of a cell with the optimizer it keeps for the whole run.
struct Query {
  rel::Workload w;
  std::unique_ptr<Optimizer> opt;
};

/// Resets the query's optimizer and optimizes the query once; returns the
/// wall-clock ms, adds the work counts to *work and the heap allocations
/// (reset and returned plan included) to *allocations.
double RunOnce(Query& q, Work* work, uint64_t* allocations) {
  const uint64_t before = g_allocations;
  double ms = 0.0;
  {
    Timer t;
    q.opt->ResetForReuse();
    StatusOr<PlanPtr> plan = q.opt->Optimize(*q.w.query, q.w.required);
    ms = t.ElapsedMillis();
    if (!plan.ok()) {
      std::fprintf(stderr, "optimization failed: %s\n",
                   plan.status().ToString().c_str());
      std::exit(2);
    }
  }
  *allocations += g_allocations - before;
  work->Add(q.opt->stats());
  return ms;
}

void RunCell(bool star, int relations, int reps) {
  std::vector<Query> cell;
  for (int seed = 1; seed <= kQueriesPerCell; ++seed) {
    rel::WorkloadOptions wopts;
    wopts.num_relations = relations;
    wopts.join_graph = star ? rel::WorkloadOptions::JoinGraph::kStar
                            : rel::WorkloadOptions::JoinGraph::kChain;
    wopts.order_by_prob = 1.0;
    Query& q = cell.emplace_back();
    q.w = rel::GenerateWorkload(wopts, static_cast<uint64_t>(seed));
    q.opt = std::make_unique<Optimizer>(*q.w.model);
  }
  Work work;
  uint64_t allocations = 0;
  for (Query& q : cell) RunOnce(q, &work, &allocations);  // warm-up
  // Each query's fastest run: a burst of host load then spoils one sample
  // of one query, not a whole repetition of the cell.
  std::vector<double> best(cell.size(),
                           std::numeric_limits<double>::infinity());
  for (int r = 0; r < reps; ++r) {
    allocations = 0;  // every run of a warm optimizer makes the same ones
    for (size_t q = 0; q < cell.size(); ++q) {
      Work repeat;  // every run does the warm-up's work again
      best[q] = std::min(best[q], RunOnce(cell[q], &repeat, &allocations));
    }
  }
  double ms = 0.0;
  for (double b : best) ms += b;
  std::printf("%-5s %3d | %10.2f | %8.1f\n", star ? "star" : "chain",
              relations, ms,
              static_cast<double>(allocations) / kQueriesPerCell);
  work.Print();
}

}  // namespace
}  // namespace volcano

int main(int argc, char** argv) {
  int reps = argc > 1 ? std::atoi(argv[1]) : 5;
  if (reps < 1) {
    std::fprintf(stderr, "usage: bench_search_cells [repetitions >= 1]\n");
    return 2;
  }
  std::printf("Search cells: ms for 5 queries (each query's fastest of %d)\n\n",
              reps);
  std::printf("cell      |         ms | allocs/q\n");
  std::printf("----------+------------+---------\n");
  for (int star = 0; star <= 1; ++star) {
    for (int n : {6, 8, 10}) volcano::RunCell(star == 1, n, reps);
  }
  return 0;
}
