// Memo reuse churn: thousands of optimize / ResetForReuse cycles on one
// Optimizer must (a) keep producing the exact same plans and (b) reach a
// flat arena footprint — the memory-robustness contract the serving layer
// leans on (src/serve/session.h).

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "relational/sql.h"
#include "search/optimizer.h"
#include "search/search_config.h"
#include "search/plan.h"

namespace volcano {
namespace {

TEST(ResetChurn, ThousandsOfCyclesPlateauAndStayDeterministic) {
  rel::Catalog catalog;
  VOLCANO_CHECK(
      catalog.AddRelation("emp", 2000, 100, 3, {2000, 50, 10}).ok());
  VOLCANO_CHECK(catalog.AddRelation("dept", 50, 100, 2, {50, 5}).ok());
  VOLCANO_CHECK(catalog.AddRelation("loc", 10, 100, 2, {10, 10}).ok());
  rel::RelModel model(catalog);

  const char* const kQueries[] = {
      "SELECT * FROM emp WHERE emp.a1 < 100",
      "SELECT * FROM emp, dept WHERE emp.a2 = dept.a0 ORDER BY emp.a1",
      "SELECT * FROM emp, dept, loc "
      "WHERE emp.a2 = dept.a0 AND dept.a1 = loc.a0",
      "SELECT emp.a1, count(*) FROM emp GROUP BY emp.a1",
  };
  std::vector<rel::ParsedQuery> parsed;
  for (const char* sql : kQueries) {
    StatusOr<rel::ParsedQuery> q =
        rel::ParseSql(sql, model, catalog.symbols());
    ASSERT_TRUE(q.ok()) << q.status().ToString();
    parsed.push_back(std::move(*q));
  }

  Optimizer optimizer(model);
  std::vector<std::string> expected;
  std::vector<std::string> expected_cost;
  // The first pass over all queries establishes the arena high-water
  // (Arena::Reset rewinds to the first block, so the footprint regrows
  // deterministically per query); no amount of further churn may raise it.
  size_t high_water = 0;
  for (const rel::ParsedQuery& q : parsed) {
    optimizer.ResetForReuse();
    StatusOr<PlanPtr> plan = optimizer.Optimize(*q.expr, q.required);
    ASSERT_TRUE(plan.ok()) << plan.status().ToString();
    expected.push_back(PlanToLine(**plan, model.registry()));
    expected_cost.push_back(model.cost_model().ToString((*plan)->cost()));
    high_water = std::max(high_water, optimizer.memo().arena_bytes());
  }
  ASSERT_GT(high_water, 0u);

  constexpr int kCycles = 3000;
  for (int i = 0; i < kCycles; ++i) {
    size_t qi = i % parsed.size();
    optimizer.ResetForReuse();
    StatusOr<PlanPtr> plan =
        optimizer.Optimize(*parsed[qi].expr, parsed[qi].required);
    ASSERT_TRUE(plan.ok()) << "cycle " << i << ": "
                           << plan.status().ToString();
    ASSERT_EQ(PlanToLine(**plan, model.registry()), expected[qi])
        << "cycle " << i;
    ASSERT_EQ(model.cost_model().ToString((*plan)->cost()),
              expected_cost[qi])
        << "cycle " << i;
    ASSERT_LE(optimizer.memo().arena_bytes(), high_water) << "cycle " << i;
  }
  // Per-query search stats are reset each cycle, not accumulated.
  EXPECT_GT(optimizer.stats().goals_started, 0u);
}

// Budgeted and unbudgeted cycles interleave: a degraded request must not
// perturb the next full optimization (the serving loop mixes both).
TEST(ResetChurn, DegradedCyclesDoNotPerturbFullOnes) {
  rel::Catalog catalog;
  VOLCANO_CHECK(
      catalog.AddRelation("emp", 2000, 100, 3, {2000, 50, 10}).ok());
  VOLCANO_CHECK(catalog.AddRelation("dept", 50, 100, 2, {50, 5}).ok());
  rel::RelModel model(catalog);

  StatusOr<rel::ParsedQuery> q = rel::ParseSql(
      "SELECT * FROM emp, dept WHERE emp.a2 = dept.a0 ORDER BY emp.a1",
      model, catalog.symbols());
  ASSERT_TRUE(q.ok()) << q.status().ToString();

  SearchOptions options;
  options.degradation = SearchOptions::Degradation::kAnytime;
  Optimizer optimizer(model, SearchConfig::FromOptions(options).value());

  optimizer.ResetForReuse();
  StatusOr<PlanPtr> baseline = optimizer.Optimize(*q->expr, q->required);
  ASSERT_TRUE(baseline.ok());
  std::string expected = PlanToLine(**baseline, model.registry());

  OptimizationBudget full;        // unlimited
  OptimizationBudget starved;
  starved.max_find_best_plan_calls = 1;
  for (int i = 0; i < 500; ++i) {
    optimizer.ResetForReuse();
    optimizer.set_budget(starved);
    StatusOr<PlanPtr> degraded = optimizer.Optimize(*q->expr, q->required);
    ASSERT_TRUE(degraded.ok()) << degraded.status().ToString();
    EXPECT_NE(optimizer.outcome().source, PlanSource::kExhaustive);

    optimizer.ResetForReuse();
    optimizer.set_budget(full);
    StatusOr<PlanPtr> plan = optimizer.Optimize(*q->expr, q->required);
    ASSERT_TRUE(plan.ok()) << plan.status().ToString();
    EXPECT_EQ(optimizer.outcome().source, PlanSource::kExhaustive);
    ASSERT_EQ(PlanToLine(**plan, model.registry()), expected) << "cycle "
                                                              << i;
  }
}

// Successive Optimize() calls on one Optimizer WITHOUT ResetForReuse must
// each start a fresh per-call search. The load-bearing detail is the
// per-call reset of the fired-transformation counter (the explore cap's
// denominator): under an explore_limit sized just above the first query's
// firing count, a counter leaked from call one would trip the cap within the
// second query's first few transformations and mark an exhaustive result
// approximate. The second query must reach a part of the plan space the
// first never explored, or the shared memo answers it without firing
// anything and the test has no teeth; and it must fire at least two
// transformations, or the cumulative count cannot pass the cap below.
TEST(ResetChurn, SuccessiveOptimizeCallsStartFreshWithoutReset) {
  rel::Catalog catalog;
  VOLCANO_CHECK(
      catalog.AddRelation("emp", 2000, 100, 3, {2000, 50, 10}).ok());
  VOLCANO_CHECK(catalog.AddRelation("dept", 50, 100, 2, {50, 5}).ok());
  VOLCANO_CHECK(catalog.AddRelation("loc", 10, 100, 2, {10, 10}).ok());
  VOLCANO_CHECK(catalog.AddRelation("proj", 400, 100, 2, {400, 10}).ok());
  rel::RelModel model(catalog);
  // q1's closure is strictly larger than q2's, and q2's joins (emp.a1 = loc
  // key, emp.a0 = proj.a0) appear nowhere in q1's closure, so call two must
  // explore fresh.
  StatusOr<rel::ParsedQuery> q1 = rel::ParseSql(
      "SELECT * FROM emp, dept, loc, proj "
      "WHERE emp.a2 = dept.a0 AND dept.a1 = loc.a0 AND loc.a1 = proj.a1 "
      "ORDER BY emp.a1",
      model, catalog.symbols());
  ASSERT_TRUE(q1.ok()) << q1.status().ToString();
  StatusOr<rel::ParsedQuery> q2 = rel::ParseSql(
      "SELECT * FROM emp, loc, proj "
      "WHERE emp.a1 = loc.a0 AND emp.a0 = proj.a0",
      model, catalog.symbols());
  ASSERT_TRUE(q2.ok()) << q2.status().ToString();

  // Probe each query's uncapped firing count and reference plan.
  uint64_t fired1 = 0;
  uint64_t fired2 = 0;
  std::string expected1;
  std::string expected2;
  {
    Optimizer probe(model);
    StatusOr<PlanPtr> plan = probe.Optimize(*q1->expr, q1->required);
    ASSERT_TRUE(plan.ok()) << plan.status().ToString();
    fired1 = probe.stats().transformations_applied;
    expected1 = PlanToLine(**plan, model.registry());
  }
  {
    Optimizer probe(model);
    StatusOr<PlanPtr> plan = probe.Optimize(*q2->expr, q2->required);
    ASSERT_TRUE(plan.ok()) << plan.status().ToString();
    fired2 = probe.stats().transformations_applied;
    expected2 = PlanToLine(**plan, model.registry());
  }
  ASSERT_GE(fired2, 2u);
  ASSERT_LT(fired2, fired1);  // the cap below cannot trip a fresh call two

  // Cap one application above call one's count. With the per-call reset,
  // neither call comes near the cap; with a leaked counter, call two would
  // trip it after a single transformation.
  SearchOptions options;
  options.explore_limit = fired1 + 1;
  Optimizer optimizer(model, SearchConfig::FromOptions(options).value());

  StatusOr<PlanPtr> plan1 = optimizer.Optimize(*q1->expr, q1->required);
  ASSERT_TRUE(plan1.ok()) << plan1.status().ToString();
  EXPECT_EQ(optimizer.outcome().source, PlanSource::kExhaustive);
  EXPECT_FALSE(optimizer.outcome().approximate);
  EXPECT_EQ(PlanToLine(**plan1, model.registry()), expected1);
  EXPECT_EQ(optimizer.stats().transformations_applied, fired1);

  StatusOr<PlanPtr> plan2 = optimizer.Optimize(*q2->expr, q2->required);
  ASSERT_TRUE(plan2.ok()) << plan2.status().ToString();
  EXPECT_EQ(optimizer.outcome().source, PlanSource::kExhaustive);
  EXPECT_FALSE(optimizer.outcome().approximate);
  EXPECT_EQ(PlanToLine(**plan2, model.registry()), expected2);
  // Call two really explored (the cumulative counter moved)...
  EXPECT_GT(optimizer.stats().transformations_applied, fired1);
  // ...and the whole sequence stayed under what a leaked counter would
  // have turned into a trip.
  EXPECT_GT(optimizer.stats().transformations_applied,
            options.explore_limit);
}

}  // namespace
}  // namespace volcano
