// Engine parity: the task engine against the recursive engine.
//
// Both depth-first engines run Figure 2's FindBestPlan and must do identical
// work; the task engine (the default) adds suspend/resume and a flat native
// stack on top. This bench times both on the same queries in one process —
// alternating engines, fastest of N repetitions — so a change to either
// engine is measured against the other on the same host at the same time,
// not against a stored report from another day.
//
// Cells: query_gen chains and stars at 6, 8 and 10 relations, every query
// with an ORDER BY, 5 queries a cell (seeds 1-5). Each repetition optimizes
// every query once under each engine, each with a fresh Optimizer. Printed
// per cell: ms per engine (each query's fastest of N, summed over the 5),
// the task/recursive ratio, and each engine's six search-work counts.
// tasks_executed is left out: the recursive engine always reports 0 for it.
//
// Usage: bench_engine_parity [repetitions]   (default 5)
// Exits 1 if the two engines' work counts differ on any cell. Times are
// reported, never gated: they vary with the host.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <vector>

#include "relational/query_gen.h"
#include "search/optimizer.h"
#include "search/search_config.h"
#include "support/timer.h"

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
  bool operator==(const Work&) const = default;
  void Print(const char* engine) const {
    std::printf(
        "    %-9s created %llu, deduped %llu, transformations %llu, "
        "cost estimates %llu, pruned %llu, winner hits %llu\n",
        engine, static_cast<unsigned long long>(mexprs_created),
        static_cast<unsigned long long>(mexprs_deduped),
        static_cast<unsigned long long>(transformations_applied),
        static_cast<unsigned long long>(cost_estimates),
        static_cast<unsigned long long>(moves_pruned),
        static_cast<unsigned long long>(memo_winner_hits));
  }
};

/// Optimizes one workload with a fresh Optimizer; returns the wall-clock ms
/// and adds the work counts to *work.
double RunOnce(const rel::Workload& w, const SearchConfig& config,
               Work* work) {
  Timer t;
  Optimizer opt(*w.model, config);
  StatusOr<PlanPtr> plan = opt.Optimize(*w.query, w.required);
  const double ms = t.ElapsedMillis();
  if (!plan.ok()) {
    std::fprintf(stderr, "optimization failed: %s\n",
                 plan.status().ToString().c_str());
    std::exit(2);
  }
  work->Add(opt.stats());
  return ms;
}

SearchConfig EngineConfig(SearchOptions::Engine engine) {
  SearchOptions options;
  options.engine = engine;
  return SearchConfig::FromOptions(options).value();
}

/// Times one cell; returns false when the engines' work counts differ.
bool RunCell(bool star, int relations, int reps) {
  std::vector<rel::Workload> cell;
  for (int seed = 1; seed <= kQueriesPerCell; ++seed) {
    rel::WorkloadOptions wopts;
    wopts.num_relations = relations;
    wopts.join_graph = star ? rel::WorkloadOptions::JoinGraph::kStar
                            : rel::WorkloadOptions::JoinGraph::kChain;
    wopts.order_by_prob = 1.0;
    cell.push_back(rel::GenerateWorkload(wopts, static_cast<uint64_t>(seed)));
  }
  const SearchConfig configs[2] = {
      EngineConfig(SearchOptions::Engine::kTask),
      EngineConfig(SearchOptions::Engine::kRecursive)};
  // Each query's fastest run per engine: a burst of host load then spoils
  // one sample of one query, not a whole repetition of the cell.
  std::vector<double> best(cell.size() * 2,
                           std::numeric_limits<double>::infinity());
  Work work[2];
  for (int r = 0; r < reps; ++r) {
    for (size_t q = 0; q < cell.size(); ++q) {
      // Alternate which engine goes first, so neither always runs on the
      // caches the other warmed.
      for (int k = 0; k < 2; ++k) {
        const int e = (r + static_cast<int>(q)) % 2 == 0 ? k : 1 - k;
        Work repeat;  // later repetitions redo the same work
        double& b = best[q * 2 + static_cast<size_t>(e)];
        b = std::min(b,
                     RunOnce(cell[q], configs[e], r == 0 ? &work[e] : &repeat));
      }
    }
  }
  double ms[2] = {0.0, 0.0};
  for (size_t q = 0; q < cell.size(); ++q) {
    ms[0] += best[q * 2];
    ms[1] += best[q * 2 + 1];
  }
  std::printf("%-5s %3d | %10.2f %10.2f | %6.3f\n", star ? "star" : "chain",
              relations, ms[0], ms[1], ms[0] / ms[1]);
  work[0].Print("task");
  work[1].Print("recursive");
  if (!(work[0] == work[1])) {
    std::printf("    WORK COUNTS DIFFER\n");
    return false;
  }
  return true;
}

}  // namespace
}  // namespace volcano

int main(int argc, char** argv) {
  int reps = argc > 1 ? std::atoi(argv[1]) : 5;
  if (reps < 1) {
    std::fprintf(stderr, "usage: bench_engine_parity [repetitions >= 1]\n");
    return 2;
  }
  std::printf(
      "Engine parity: ms for 5 queries (each query's fastest of %d), "
      "task / recursive\n\n",
      reps);
  std::printf("cell      |       task  recursive |  ratio\n");
  std::printf("----------+-----------------------+-------\n");
  bool same = true;
  for (int star = 0; star <= 1; ++star) {
    for (int n : {6, 8, 10}) same &= volcano::RunCell(star == 1, n, reps);
  }
  std::printf("\n%s\n", same ? "work counts identical on every cell"
                             : "work counts differ: the engines diverged");
  return same ? 0 : 1;
}
