// Deep-plan stress: the explicit task stack makes search depth a heap
// property, not a native-stack property. A 256-way chain join must optimize
// with native stack consumption that stays flat as the plan deepens
// (SearchStats::native_stack_high_water measures it); a literal recursive
// descent of Figure 2 would consume native stack in proportion to depth.

#include <gtest/gtest.h>

#include "pinned_search.h"
#include "relational/query_gen.h"
#include "search/optimizer.h"
#include "search/search_config.h"

namespace volcano {
namespace {

// A linear chain join with the reordering transformations off: the memo and
// the goal graph stay linear in n, so depth — not breadth — is what scales.
rel::Workload MakeDeepChain(int n) {
  rel::WorkloadOptions wopts;
  wopts.num_relations = n;
  wopts.join_graph = rel::WorkloadOptions::JoinGraph::kChain;
  wopts.sorted_base_prob = 0.0;
  wopts.order_by_prob = 0.0;
  rel::RelModelOptions mopts;
  mopts.enable_join_commute = false;
  mopts.enable_join_assoc_left = false;
  mopts.enable_join_assoc_right = false;
  return rel::GenerateWorkload(wopts, /*seed=*/1, mopts);
}

SearchStats OptimizeDeepChain(int n) {
  rel::Workload w = MakeDeepChain(n);
  Optimizer opt(*w.model);
  StatusOr<PlanPtr> plan = opt.Optimize(*w.query, w.required);
  EXPECT_TRUE(plan.ok()) << "n=" << n << ": " << plan.status().ToString();
  if (plan.ok()) {
    EXPECT_TRUE((*plan)->props()->Covers(*w.required));
  }
  return opt.stats();
}

TEST(DeepPlan, TaskEngineNativeStackStaysFlatAt256Way) {
  SearchStats shallow = OptimizeDeepChain(32);
  SearchStats deep = OptimizeDeepChain(256);

  ASSERT_GT(shallow.native_stack_high_water, 0u);
  ASSERT_GT(deep.native_stack_high_water, 0u);
  // 8x the plan depth must not buy 8x the native stack: the task engine's
  // per-step consumption is constant, so the high water at 256 relations
  // stays within noise of the high water at 32.
  EXPECT_LT(deep.native_stack_high_water,
            2 * shallow.native_stack_high_water + 16384);
  // The pending search state went somewhere: the task stack itself is what
  // grows with depth.
  EXPECT_GT(deep.task_stack_high_water, shallow.task_stack_high_water);
}

// The 256-way chain's plan, cost and work, recorded from the recursive
// Figure-2 engine before it was removed (tests/pinned_search.h).
TEST(DeepPlan, DeepChainMatchesAcrossEngines) {
  rel::Workload w = MakeDeepChain(256);
  Pinned run;
  run.Add(*w.model, *w.query, w.required, SearchOptions{}, "n=256");
  run.ExpectEq({.digest = 0x4e31ac776ceb4b5dULL,
                .cost_sum = 8.2047052988868631e+20,
                .mexprs_created = 767,
                .mexprs_deduped = 0,
                .transformations_applied = 0,
                .cost_estimates = 3064,
                .moves_pruned = 0,
                .memo_winner_hits = 1272});
}

}  // namespace
}  // namespace volcano
