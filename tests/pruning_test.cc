// Branch-and-bound must pay for itself in search work, not only in wall
// time. The counters compared here are exact, so the check is noise-free:
// on the Figure-4 workload, incumbent pruning may only ever remove goals
// and FindBestPlan calls, and never changes the chosen plan.
//
// Input goals are entered with an infinite limit (docs/SEARCH.md, steps 5
// and 6), so each is searched once. When a tight limit was passed down
// instead, goals failed under it and were reopened under a looser one: at 7
// relations the 25-query ablation (bench_ablation_pruning) made 3,036
// FindBestPlan calls with branch-and-bound against 2,111 without.

#include <gtest/gtest.h>

#include <string>

#include "relational/query_gen.h"
#include "search/optimizer.h"
#include "search/search_config.h"
#include "search/trace_io.h"

namespace volcano {
namespace {

struct RunResult {
  std::string plan_line;
  double cost = 0.0;
  SearchStats stats;
};

RunResult OptimizeWith(const rel::Workload& w, bool branch_and_bound) {
  SearchOptions options;
  options.branch_and_bound = branch_and_bound;
  Optimizer opt(*w.model, SearchConfig::FromOptions(options).value());
  StatusOr<PlanPtr> plan = opt.Optimize(*w.query, w.required);
  EXPECT_TRUE(plan.ok()) << plan.status().ToString();
  RunResult run;
  run.stats = opt.stats();
  if (!plan.ok()) return run;
  run.plan_line = PlanToLine(**plan, w.model->registry());
  run.cost = w.model->cost_model().Total((*plan)->cost());
  return run;
}

TEST(Pruning, IncumbentPruningNeverAddsWork) {
  for (int order_by = 0; order_by <= 1; ++order_by) {
    for (int n = 2; n <= 8; ++n) {
      for (uint64_t q = 0; q < 5; ++q) {
        // The Figure-4 workload (bench_figure4, bench_ablation_pruning).
        rel::WorkloadOptions wopts;
        wopts.num_relations = n;
        wopts.sorted_base_prob = 0.5;
        wopts.order_by_prob = order_by ? 1.0 : 0.0;
        rel::Workload w = rel::GenerateWorkload(
            wopts, 2000u * static_cast<uint64_t>(n) + q);
        SCOPED_TRACE("n=" + std::to_string(n) + " q=" + std::to_string(q) +
                     " order_by=" + std::to_string(order_by));
        RunResult on = OptimizeWith(w, /*branch_and_bound=*/true);
        RunResult off = OptimizeWith(w, /*branch_and_bound=*/false);
        EXPECT_EQ(on.plan_line, off.plan_line);
        EXPECT_DOUBLE_EQ(on.cost, off.cost);
        EXPECT_LE(on.stats.find_best_plan_calls,
                  off.stats.find_best_plan_calls);
        EXPECT_LE(on.stats.goals_started, off.stats.goals_started);
      }
    }
  }
}

}  // namespace
}  // namespace volcano
