// Greedy incumbent seeding and big-join escalation (DESIGN.md §12).
//
// Seeding is a pure acceleration below the escalation threshold: the greedy
// plan's cost only tightens the root branch-and-bound limit, so final plans
// are identical to unseeded search wherever the exhaustive search still
// completes. Above the threshold it becomes a guarantee: a 100-relation
// query returns a valid plan in bounded time, with the seed as the floor of
// the degradation ladder.

#include <gtest/gtest.h>

#include "relational/join_graph.h"
#include "relational/query_gen.h"
#include "relational/rel_plan_cost.h"
#include "relational/sql.h"
#include "search/optimizer.h"
#include "search/search_config.h"
#include "support/timer.h"

namespace volcano {
namespace {

SearchConfig Seeded() {
  return SearchConfig::Builder().join_seed(true).Build().value();
}

TEST(JoinSeed, SeedPlannedBeforeFirstExhaustiveMove) {
  // One FindBestPlan call is not enough to complete any search, and no
  // incumbent can exist yet — so if a plan comes back from the greedy-seed
  // ladder rung, the seed must have been in place before the first move.
  rel::WorkloadOptions wopts;
  wopts.num_relations = 6;
  rel::Workload w = rel::GenerateWorkload(wopts, 3);

  SearchOptions so;
  so.join_seed = true;
  so.budget.max_find_best_plan_calls = 1;
  Optimizer opt(*w.model, SearchConfig::FromOptions(so).value());
  StatusOr<PlanPtr> plan = opt.Optimize(*w.query, w.required);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  EXPECT_EQ(opt.stats().seed_plans, 1u);
  EXPECT_EQ(opt.outcome().source, PlanSource::kGreedySeed);
  EXPECT_TRUE(opt.outcome().approximate);
  EXPECT_TRUE(rel::ValidatePlan(**plan, *w.model).ok());
}

TEST(JoinSeed, ReusedSeederPlansLikeAFreshOne) {
  // An optimizer keeps its seeder and resets it for each query, as a
  // serving session keeps its optimizer. Under a one-call budget the plan
  // returned is the seed itself, so an optimizer reused over the TPC-H
  // family (twice round) must return what a fresh one returns.
  rel::TpchWorkload w = rel::MakeTpchWorkload();
  SearchOptions so;
  so.join_seed = true;
  so.budget.max_find_best_plan_calls = 1;
  const SearchConfig config = SearchConfig::FromOptions(so).value();
  Optimizer reused(*w.model, config);
  int seeded = 0;
  for (int round = 0; round < 2; ++round) {
    for (const rel::TpchQuery& q : w.queries) {
      StatusOr<rel::ParsedQuery> parsed =
          rel::ParseSql(q.sql, *w.model, w.catalog->symbols());
      ASSERT_TRUE(parsed.ok()) << q.name << ": " << parsed.status().ToString();
      Optimizer fresh(*w.model, config);
      StatusOr<PlanPtr> want = fresh.Optimize(*parsed->expr, parsed->required);
      reused.ResetForReuse();
      StatusOr<PlanPtr> got = reused.Optimize(*parsed->expr, parsed->required);
      ASSERT_EQ(got.ok(), want.ok()) << q.name;
      EXPECT_EQ(reused.stats().seed_plans, fresh.stats().seed_plans)
          << q.name;
      if (!want.ok() || fresh.outcome().source != PlanSource::kGreedySeed) {
        continue;
      }
      ++seeded;
      EXPECT_EQ(reused.outcome().source, PlanSource::kGreedySeed) << q.name;
      EXPECT_EQ(PlanToLine(**got, w.model->registry()),
                PlanToLine(**want, w.model->registry()))
          << q.name;
    }
  }
  EXPECT_GE(seeded, 4);
}

TEST(JoinSeed, SeededPlansIdenticalToUnseededAtSmallScale) {
  // Below the escalation threshold seeding must be digest-preserving: same
  // plan line, same cost, for every workload the exhaustive search handles.
  for (int n = 2; n <= 8; ++n) {
    for (uint64_t seed : {1u, 2u, 3u}) {
      rel::WorkloadOptions wopts;
      wopts.num_relations = n;
      wopts.order_by_prob = 0.25;
      rel::Workload w = rel::GenerateWorkload(wopts, seed);

      Optimizer plain(*w.model);
      StatusOr<PlanPtr> pp = plain.Optimize(*w.query, w.required);
      ASSERT_TRUE(pp.ok()) << pp.status().ToString();

      Optimizer seeded(*w.model, Seeded());
      StatusOr<PlanPtr> ps = seeded.Optimize(*w.query, w.required);
      ASSERT_TRUE(ps.ok()) << ps.status().ToString();

      EXPECT_EQ(PlanToLine(**pp, w.model->registry()),
                PlanToLine(**ps, w.model->registry()))
          << "n=" << n << " seed=" << seed;
      const CostModel& cm = w.model->cost_model();
      EXPECT_DOUBLE_EQ(cm.Total((*pp)->cost()), cm.Total((*ps)->cost()));
      EXPECT_EQ(seeded.outcome().source, PlanSource::kExhaustive)
          << "n=" << n << " seed=" << seed;
      // The seed itself only exists at 3+ join leaves.
      EXPECT_EQ(seeded.stats().seed_plans, n >= 3 ? 1u : 0u);
    }
  }
}

TEST(JoinSeed, TightBoundPrunesSearchEffort) {
  // Below the threshold the seed cost is a complete-plan upper bound
  // available from move one, so branch-and-bound abandons losing moves
  // early (the final plan stays the exhaustive optimum; identity is pinned
  // by SeededPlansIdenticalToUnseededAtSmallScale).
  rel::Workload w10 = rel::GenerateWorkload(
      rel::JoinScalingOptions(rel::WorkloadOptions::JoinGraph::kChain, 10),
      7);
  Optimizer seeded10(*w10.model, Seeded());
  ASSERT_TRUE(seeded10.Optimize(*w10.query, w10.required).ok());
  EXPECT_GT(seeded10.stats().moves_pruned, 0u);

  // Above the threshold the escalated search must do strictly less work on
  // every axis: the exploration cap derives fewer expressions, guided move
  // selection skips moves, and the tight bound plus both cuts mean far
  // fewer cost estimates — while the seed floor keeps the returned plan's
  // cost within the greedy seed's.
  rel::Workload w = rel::GenerateWorkload(
      rel::JoinScalingOptions(rel::WorkloadOptions::JoinGraph::kChain, 12),
      7);

  Optimizer plain(*w.model);
  StatusOr<PlanPtr> pp = plain.Optimize(*w.query, w.required);
  ASSERT_TRUE(pp.ok());

  SearchOptions so;
  so.join_seed = true;
  so.join_seed_threshold = 10;
  so.join_budget_ms = 250.0;
  Optimizer seeded(*w.model, SearchConfig::FromOptions(so).value());
  StatusOr<PlanPtr> ps = seeded.Optimize(*w.query, w.required);
  ASSERT_TRUE(ps.ok());

  EXPECT_GT(seeded.stats().moves_skipped, 0u);
  EXPECT_LT(seeded.stats().transformations_applied,
            plain.stats().transformations_applied);
  EXPECT_LT(seeded.stats().cost_estimates, plain.stats().cost_estimates);
  EXPECT_LT(seeded.stats().find_best_plan_calls,
            plain.stats().find_best_plan_calls);
  // Quality floor: never worse than the greedy seed, which upper-bounds
  // the exhaustive optimum's distance.
  const CostModel& cm = w.model->cost_model();
  EXPECT_LE(cm.Total((*ps)->cost()),
            cm.Total((*pp)->cost()) * 1.05);
}

TEST(JoinSeed, InvalidGraphFallsBackToUnseededSearch) {
  // An ambiguous self-join defeats graph extraction; the optimizer must
  // quietly run unseeded and still return the exhaustive optimum.
  rel::Catalog catalog;
  Symbol a = catalog.AddRelation("A", 1000, 100.0, 2, {1000, 100}).value();
  Symbol b = catalog.AddRelation("B", 500, 100.0, 2, {500, 50}).value();
  rel::RelModel model(catalog);
  std::vector<Symbol> attrs_a, attrs_b;
  for (const auto& at : catalog.FindRelation(a)->attributes) {
    attrs_a.push_back(at.name);
  }
  for (const auto& at : catalog.FindRelation(b)->attributes) {
    attrs_b.push_back(at.name);
  }
  ExprPtr self = model.Join(model.Get(a), model.Get(a), attrs_a[0],
                            attrs_a[0]);
  ExprPtr q = model.Join(std::move(self), model.Get(b), attrs_a[1],
                         attrs_b[0]);

  Optimizer plain(model);
  StatusOr<PlanPtr> pp = plain.Optimize(*q, model.AnyProps());
  ASSERT_TRUE(pp.ok()) << pp.status().ToString();

  Optimizer seeded(model, Seeded());
  StatusOr<PlanPtr> ps = seeded.Optimize(*q, model.AnyProps());
  ASSERT_TRUE(ps.ok()) << ps.status().ToString();
  EXPECT_EQ(seeded.stats().seed_plans, 0u);
  EXPECT_EQ(PlanToLine(**pp, model.registry()),
            PlanToLine(**ps, model.registry()));
}

TEST(JoinSeed, HundredRelationsReturnValidPlansInBoundedTime) {
  // The acceptance bar: 100-relation chain, star, and clique queries each
  // optimize within 2 seconds and return structurally valid plans. Above
  // the threshold the search runs under join_budget_ms with the greedy seed
  // as the guaranteed floor.
  using JG = rel::WorkloadOptions::JoinGraph;
  for (JG family : {JG::kChain, JG::kStar, JG::kClique}) {
    rel::Workload w =
        rel::GenerateWorkload(rel::JoinScalingOptions(family, 100), 1);
    SearchOptions so;
    so.join_seed = true;
    so.join_budget_ms = 500.0;
    Optimizer opt(*w.model, SearchConfig::FromOptions(so).value());
    Timer t;
    StatusOr<PlanPtr> plan = opt.Optimize(*w.query, w.required);
    const double ms = t.ElapsedMillis();
    ASSERT_TRUE(plan.ok()) << plan.status().ToString();
    EXPECT_LT(ms, 2000.0) << "family " << static_cast<int>(family);
    EXPECT_EQ(opt.stats().seed_plans, 1u);
    EXPECT_TRUE(rel::ValidatePlan(**plan, *w.model).ok());
    // 100 GETs means 99 joins means a plan of at least 199 nodes.
    EXPECT_GE((*plan)->TreeSize(), 199u);
  }
}

TEST(JoinSeed, CallerDeadlineIsNotOverridden) {
  // Escalation only applies join_budget_ms when the caller's budget has no
  // deadline of its own; an explicit deadline must win.
  rel::Workload w = rel::GenerateWorkload(
      rel::JoinScalingOptions(rel::WorkloadOptions::JoinGraph::kChain, 25),
      2);
  SearchOptions so;
  so.join_seed = true;
  so.join_budget_ms = 60000.0;  // would be hopeless as a test deadline
  so.budget.timeout_ms = 200.0;
  Optimizer opt(*w.model, SearchConfig::FromOptions(so).value());
  Timer t;
  StatusOr<PlanPtr> plan = opt.Optimize(*w.query, w.required);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  EXPECT_LT(t.ElapsedMillis(), 5000.0);
}

TEST(JoinSeed, SeedConfigValidation) {
  EXPECT_FALSE(SearchConfig::Builder().join_seed_threshold(1).Build().ok());
  EXPECT_FALSE(SearchConfig::Builder().join_budget_ms(0.0).Build().ok());
  EXPECT_FALSE(SearchConfig::Builder()
                   .join_seed(true)
                   .physical_only(true)
                   .Build()
                   .ok());
  EXPECT_TRUE(SearchConfig::Builder()
                  .join_seed(true)
                  .join_seed_threshold(20)
                  .join_budget_ms(250.0)
                  .Build()
                  .ok());
}

TEST(JoinSeed, PhysicalOnlyCostsTheGivenShape) {
  // physical_only assigns algorithms/enforcers to the query's own join
  // shape without exploring alternatives — the mechanism the seed planner
  // uses. Its cost can never beat the full search.
  rel::WorkloadOptions wopts;
  wopts.num_relations = 5;
  rel::Workload w = rel::GenerateWorkload(wopts, 8);

  Optimizer full(*w.model);
  StatusOr<PlanPtr> pf = full.Optimize(*w.query, w.required);
  ASSERT_TRUE(pf.ok());

  Optimizer shaped(*w.model,
                   SearchConfig::Builder().physical_only(true).Build().value());
  StatusOr<PlanPtr> ps = shaped.Optimize(*w.query, w.required);
  ASSERT_TRUE(ps.ok()) << ps.status().ToString();

  const CostModel& cm = w.model->cost_model();
  EXPECT_GE(cm.Total((*ps)->cost()),
            cm.Total((*pf)->cost()) * (1 - 1e-9));
  EXPECT_EQ(shaped.stats().transformations_applied, 0u);
}

TEST(JoinSeed, WarmRuleStatsPreservePlansAtAndBelowThreshold) {
  // The big-join pursue paths switch from the static cardinality move key
  // to the learned win-rate key once the cumulative rule tables hold
  // winners. That switch is gated on big_join_mode_, so at the escalation
  // threshold and below a reused optimizer whose tables are warm from a
  // prior query must still produce byte-identical plans.
  for (int n : {4, 6, 8}) {
    rel::WorkloadOptions wopts;
    wopts.num_relations = n;
    wopts.order_by_prob = 0.25;
    rel::Workload w = rel::GenerateWorkload(wopts, 11);

    SearchOptions so;
    so.join_seed = true;
    so.join_seed_threshold = 12;  // complexity at n<=8 stays below
    Optimizer opt(*w.model, SearchConfig::FromOptions(so).value());

    StatusOr<PlanPtr> cold = opt.Optimize(*w.query, w.required);
    ASSERT_TRUE(cold.ok()) << cold.status().ToString();
    std::string cold_line = PlanToLine(**cold, w.model->registry());
    // The first query recorded winners, so the reused optimizer now has
    // learned stats — and must not act on them below the threshold.
    ASSERT_GT(opt.metrics().implementations.size(), 0u);

    opt.ResetForReuse();
    StatusOr<PlanPtr> warm = opt.Optimize(*w.query, w.required);
    ASSERT_TRUE(warm.ok()) << warm.status().ToString();
    EXPECT_EQ(cold_line, PlanToLine(**warm, w.model->registry()))
        << "n=" << n;
    const CostModel& cm = w.model->cost_model();
    EXPECT_DOUBLE_EQ(cm.Total((*cold)->cost()), cm.Total((*warm)->cost()));
  }
}

TEST(JoinSeed, WarmRuleStatsKeepBigJoinsValidAndFloored) {
  // Above the threshold the learned ordering may legitimately change which
  // moves the budgeted search reaches first; what must hold is that a
  // warmed optimizer still returns a valid plan no worse than the greedy
  // seed floor.
  rel::Workload w = rel::GenerateWorkload(
      rel::JoinScalingOptions(rel::WorkloadOptions::JoinGraph::kChain, 16),
      5);

  SearchOptions so;
  so.join_seed = true;
  so.join_seed_threshold = 10;
  so.join_budget_ms = 100.0;
  Optimizer opt(*w.model, SearchConfig::FromOptions(so).value());

  StatusOr<PlanPtr> cold = opt.Optimize(*w.query, w.required);
  ASSERT_TRUE(cold.ok()) << cold.status().ToString();

  // Seed floor for comparison: the greedy order, costed physical-only.
  ExprPtr reordered = rel::GreedyReorderQuery(*w.query, *w.model);
  ASSERT_NE(reordered, nullptr);
  Optimizer shaped(*w.model,
                   SearchConfig::Builder().physical_only(true).Build().value());
  StatusOr<PlanPtr> seed = shaped.Optimize(*reordered, w.required);
  ASSERT_TRUE(seed.ok());
  const CostModel& cm = w.model->cost_model();

  opt.ResetForReuse();
  StatusOr<PlanPtr> warm = opt.Optimize(*w.query, w.required);
  ASSERT_TRUE(warm.ok()) << warm.status().ToString();
  EXPECT_TRUE(rel::ValidatePlan(**warm, *w.model).ok());
  EXPECT_LE(cm.Total((*warm)->cost()),
            cm.Total((*seed)->cost()) * (1 + 1e-9));
}

}  // namespace
}  // namespace volcano
