// Search engine tests against the relational model: exhaustive exploration
// of the logical space, optimality invariants across search options,
// physical-property goals, enforcer placement (excluding property vectors),
// failure memoization, and resource caps.

#include <gtest/gtest.h>

#include <cmath>
#include <functional>
#include <set>

#include "relational/catalog.h"
#include "relational/query_gen.h"
#include "relational/rel_plan_cost.h"
#include "search/optimizer.h"
#include "search/search_config.h"

namespace volcano {
namespace {

using rel::Catalog;
using rel::RelModel;

/// A chain query A -x- B -y- C -z- D ... with one join predicate per edge.
struct Chain {
  explicit Chain(int n, rel::RelModelOptions opts = {}) {
    for (int i = 0; i < n; ++i) {
      VOLCANO_CHECK(catalog
                        .AddRelation("R" + std::to_string(i),
                                     1000.0 * (i + 1), 100, 2)
                        .ok());
    }
    model = std::make_unique<RelModel>(catalog, opts);
    expr = model->Get("R0");
    for (int i = 1; i < n; ++i) {
      expr = model->Join(expr, model->Get("R" + std::to_string(i)),
                         Attr(i - 1, 1), Attr(i, 0));
    }
  }

  Symbol Attr(int rel, int idx) {
    Symbol s = catalog.symbols().Lookup("R" + std::to_string(rel) + ".a" +
                                        std::to_string(idx));
    VOLCANO_CHECK(s.valid());
    return s;
  }

  Catalog catalog;
  std::unique_ptr<RelModel> model;
  ExprPtr expr;
};

size_t LiveExprsInGroup(const Memo& memo, GroupId g) {
  size_t n = 0;
  for (const MExpr* m : memo.group(g).exprs()) {
    if (!m->dead()) ++n;
  }
  return n;
}

TEST(Exploration, ChainOfThreeEnumeratesAllJoinOrders) {
  // For A-B-C, the cross-product-free bushy space of the root class is
  // {(AB)C, C(AB), A(BC), (BC)A}: four expressions.
  Chain c(3);
  Optimizer opt(*c.model);
  StatusOr<PlanPtr> plan = opt.Optimize(*c.expr, nullptr);
  ASSERT_TRUE(plan.ok());
  GroupId root = opt.memo().Find(opt.AddQuery(*c.expr));
  EXPECT_EQ(LiveExprsInGroup(opt.memo(), root), 4u);
}

TEST(Exploration, ChainOfFourEnumeratesAllJoinOrders) {
  // For A-B-C-D the root class holds {A|BCD, AB|CD, ABC|D} x commute = 6.
  Chain c(4);
  Optimizer opt(*c.model);
  ASSERT_TRUE(opt.Optimize(*c.expr, nullptr).ok());
  GroupId root = opt.memo().Find(opt.AddQuery(*c.expr));
  EXPECT_EQ(LiveExprsInGroup(opt.memo(), root), 6u);
}

TEST(Exploration, NoCrossProductClassesForChains) {
  // Connected-subgraph classes only: for a chain of n relations the class
  // count is n leaves + n(n-1)/2 contiguous join intervals.
  for (int n : {2, 3, 4, 5}) {
    Chain c(n);
    Optimizer opt(*c.model);
    ASSERT_TRUE(opt.Optimize(*c.expr, nullptr).ok());
    EXPECT_EQ(opt.memo().num_groups(),
              static_cast<size_t>(n + n * (n - 1) / 2))
        << "chain length " << n;
  }
}

TEST(Optimality, InvariantAcrossSearchOptions) {
  // Branch-and-bound pruning is a pure acceleration: it must never change
  // the cost of the returned plan.
  for (uint64_t seed : {1u, 2u, 3u, 4u, 5u}) {
    rel::WorkloadOptions wopts;
    wopts.num_relations = 5;
    wopts.order_by_prob = 0.5;
    rel::Workload w = rel::GenerateWorkload(wopts, seed);
    const CostModel& cm = w.model->cost_model();

    SearchOptions base;
    Optimizer ref(*w.model, SearchConfig::FromOptions(base).value());
    StatusOr<PlanPtr> ref_plan = ref.Optimize(*w.query, w.required);
    ASSERT_TRUE(ref_plan.ok());
    double ref_cost = cm.Total((*ref_plan)->cost());

    SearchOptions no_bnb;
    no_bnb.branch_and_bound = false;
    Optimizer a(*w.model, SearchConfig::FromOptions(no_bnb).value());
    StatusOr<PlanPtr> pa = a.Optimize(*w.query, w.required);
    ASSERT_TRUE(pa.ok());
    EXPECT_NEAR(cm.Total((*pa)->cost()), ref_cost, 1e-9 * ref_cost);
  }
}

TEST(Optimality, ReportedCostMatchesIndependentRecosting) {
  for (uint64_t seed : {10u, 20u, 30u, 40u, 50u, 60u}) {
    rel::WorkloadOptions wopts;
    wopts.num_relations = 4;
    wopts.order_by_prob = 0.5;
    rel::Workload w = rel::GenerateWorkload(wopts, seed);
    Optimizer opt(*w.model);
    StatusOr<PlanPtr> plan = opt.Optimize(*w.query, w.required);
    ASSERT_TRUE(plan.ok());
    const CostModel& cm = w.model->cost_model();
    double reported = cm.Total((*plan)->cost());
    double recosted = cm.Total(rel::RecostPlan(**plan, *w.model));
    EXPECT_NEAR(reported, recosted, 1e-9 * std::max(1.0, reported));
    EXPECT_TRUE(rel::ValidatePlan(**plan, *w.model).ok());
  }
}

TEST(Optimality, BruteForceOracleTwoRelations) {
  // Independent oracle for JOIN(SELECT(A), SELECT(B)): enumerate every
  // legal physical plan by hand and check the optimizer returns the
  // cheapest.
  Catalog catalog;
  ASSERT_TRUE(catalog.AddRelation("A", 3000, 100, 2).ok());
  ASSERT_TRUE(catalog.AddRelation("B", 5000, 100, 2).ok());
  RelModel model(catalog);
  Symbol a0 = catalog.symbols().Lookup("A.a0");
  Symbol b0 = catalog.symbols().Lookup("B.a0");
  ExprPtr q = model.Join(model.Get("A"), model.Get("B"), a0, b0);

  Optimizer opt(model);
  StatusOr<PlanPtr> plan = opt.Optimize(*q, nullptr);
  ASSERT_TRUE(plan.ok());
  double got = model.cost_model().Total((*plan)->cost());

  // Hand enumeration under the same cost model.
  Memo memo(model);
  const auto& lp_a = rel::AsRel(*memo.LogicalOf(memo.InsertQuery(*model.Get("A"))));
  const auto& lp_b = rel::AsRel(*memo.LogicalOf(memo.InsertQuery(*model.Get("B"))));
  const auto& lp_j = rel::AsRel(*memo.LogicalOf(memo.InsertQuery(*q)));
  const rel::RelCostModel& cm = model.rel_cost();
  auto total = [&](const Cost& c) { return model.cost_model().Total(c); };

  double scan_a = total(cm.FileScan(lp_a));
  double scan_b = total(cm.FileScan(lp_b));
  double best = std::numeric_limits<double>::infinity();
  // hash join, both directions
  best = std::min(best, scan_a + scan_b + total(cm.HashJoin(lp_a, lp_b, lp_j)));
  best = std::min(best, scan_a + scan_b + total(cm.HashJoin(lp_b, lp_a, lp_j)));
  // merge join with explicit sorts, both directions
  double sorts = total(cm.Sort(lp_a)) + total(cm.Sort(lp_b));
  best = std::min(best,
                  scan_a + scan_b + sorts + total(cm.MergeJoin(lp_a, lp_b, lp_j)));
  best = std::min(best,
                  scan_a + scan_b + sorts + total(cm.MergeJoin(lp_b, lp_a, lp_j)));

  EXPECT_NEAR(got, best, 1e-9 * best);
}

TEST(PhysicalProperties, SortedBaseRelationEnablesFreeMergeJoin) {
  // Both inputs stored sorted on their join attributes: merge join needs no
  // sorts and beats hash join; the optimizer must find it.
  Catalog catalog;
  ASSERT_TRUE(catalog.AddRelation("A", 4000, 100, 2).ok());
  ASSERT_TRUE(catalog.AddRelation("B", 4000, 100, 2).ok());
  Symbol a0 = catalog.symbols().Lookup("A.a0");
  Symbol b0 = catalog.symbols().Lookup("B.a0");
  ASSERT_TRUE(catalog.SetSortedOn(catalog.symbols().Lookup("A"), {a0}).ok());
  ASSERT_TRUE(catalog.SetSortedOn(catalog.symbols().Lookup("B"), {b0}).ok());
  RelModel model(catalog);
  ExprPtr q = model.Join(model.Get("A"), model.Get("B"), a0, b0);

  Optimizer opt(model);
  StatusOr<PlanPtr> plan = opt.Optimize(*q, nullptr);
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ((*plan)->op(), model.ops().merge_join);
  // And no sort anywhere in the plan.
  EXPECT_EQ((*plan)->input(0)->op(), model.ops().file_scan);
  EXPECT_EQ((*plan)->input(1)->op(), model.ops().file_scan);
}

TEST(PhysicalProperties, OrderByOnUnsortedBaseUsesSortOrMergeJoin) {
  Catalog catalog;
  ASSERT_TRUE(catalog.AddRelation("A", 2000, 100, 2).ok());
  ASSERT_TRUE(catalog.AddRelation("B", 2000, 100, 2).ok());
  RelModel model(catalog);
  Symbol a0 = catalog.symbols().Lookup("A.a0");
  Symbol b0 = catalog.symbols().Lookup("B.a0");
  ExprPtr q = model.Join(model.Get("A"), model.Get("B"), a0, b0);
  PhysPropsPtr required = model.Sorted({a0});

  Optimizer opt(model);
  StatusOr<PlanPtr> plan = opt.Optimize(*q, required);
  ASSERT_TRUE(plan.ok());
  EXPECT_TRUE((*plan)->props()->Covers(*required));
}

TEST(PhysicalProperties, ReturnedPlanSharesTheSearchsObjects) {
  // The search records plans as memo choices and builds PlanNodes once, for
  // the returned plan; the nodes must carry the very objects the search
  // used: the class's logical properties, the delivered property vector
  // (a SORT enforcer on top delivers the caller's own `required`) and the
  // rule set's name strings.
  int sorted_roots = 0;
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    rel::WorkloadOptions wopts;
    wopts.num_relations = 4;
    wopts.order_by_prob = 1.0;
    rel::Workload w = rel::GenerateWorkload(wopts, seed);
    Optimizer opt(*w.model);
    StatusOr<PlanPtr> plan = opt.Optimize(*w.query, w.required);
    ASSERT_TRUE(plan.ok());
    const PlanNode& root = **plan;
    const GroupId root_class = opt.AddQuery(*w.query);  // already present
    EXPECT_EQ(root.logical().get(), opt.memo().LogicalOf(root_class).get());
    if (root.op() == w.model->ops().sort) {
      ++sorted_roots;
      EXPECT_EQ(root.props().get(), w.required.get()) << "seed " << seed;
    }
    std::set<const char*> names;
    const RuleSet& rules = w.model->rule_set();
    for (const auto& r : rules.implementations()) {
      names.insert(r->name().c_str());
    }
    for (const auto& e : rules.enforcers()) names.insert(e->name().c_str());
    std::function<void(const PlanNode&)> walk = [&](const PlanNode& node) {
      EXPECT_EQ(names.count(node.rule()), 1u) << "seed " << seed;
      for (const auto& in : node.inputs()) walk(*in);
    };
    walk(root);
  }
  EXPECT_GT(sorted_roots, 0);
}

TEST(PhysicalProperties, ExcludingVectorPreventsRedundantMergeJoinUnderSort) {
  // If the final result must be sorted on the join attribute, a plan of the
  // shape SORT(a) over MERGE_JOIN delivering sorted(a) is redundant: the
  // merge join already qualifies for the goal directly. The excluding
  // physical property vector must prevent it (paper, sections 2.2/3).
  for (uint64_t seed : {3u, 5u, 8u, 13u}) {
    rel::WorkloadOptions wopts;
    wopts.num_relations = 4;
    wopts.order_by_prob = 1.0;
    rel::Workload w = rel::GenerateWorkload(wopts, seed);
    Optimizer opt(*w.model);
    StatusOr<PlanPtr> plan = opt.Optimize(*w.query, w.required);
    ASSERT_TRUE(plan.ok());

    // Walk the plan: no SORT node may sit directly on a child that already
    // delivers the sorted order.
    std::function<void(const PlanNode&)> walk = [&](const PlanNode& node) {
      if (node.op() == w.model->ops().sort) {
        EXPECT_FALSE(node.input(0)->props()->Covers(*node.props()))
            << "redundant sort over an input that already delivers "
            << node.props()->ToString();
      }
      for (const auto& in : node.inputs()) walk(*in);
    };
    walk(**plan);
  }
}

TEST(Failures, UnsatisfiableRequirementReturnsNotFound) {
  // Requiring an order on an attribute outside the result schema cannot be
  // satisfied by any algorithm or enforcer.
  Catalog catalog;
  ASSERT_TRUE(catalog.AddRelation("A", 1000, 100, 2).ok());
  ASSERT_TRUE(catalog.AddRelation("B", 1000, 100, 2).ok());
  RelModel model(catalog);
  ExprPtr q = model.Get("A");
  PhysPropsPtr impossible =
      model.Sorted({catalog.symbols().Lookup("B.a0")});

  Optimizer opt(model);
  StatusOr<PlanPtr> plan = opt.Optimize(*q, impossible);
  ASSERT_FALSE(plan.ok());
  EXPECT_EQ(plan.status().code(), Status::Code::kNotFound);
}

TEST(Failures, WinnerAboveLimitFailsWithoutSearch) {
  // A memoized winner is its goal's optimum, so a later call whose limit it
  // exceeds fails from the look-up table without searching again.
  Chain c(3);
  Optimizer opt(*c.model);
  GroupId g = opt.AddQuery(*c.expr);
  StatusOr<PlanPtr> plan = opt.OptimizeGroup(g, nullptr);
  ASSERT_TRUE(plan.ok());
  const CostModel& cm = c.model->cost_model();
  SearchStats before = opt.stats();
  StatusOr<PlanPtr> tight = opt.OptimizeGroup(
      g, nullptr, Cost::Scalar(cm.Total((*plan)->cost()) / 2));
  ASSERT_FALSE(tight.ok());
  EXPECT_EQ(tight.status().code(), Status::Code::kNotFound);
  SearchStats after = opt.stats();
  EXPECT_EQ(after.memo_above_limit_hits, before.memo_above_limit_hits + 1);
  EXPECT_EQ(after.goals_started, before.goals_started);
}

TEST(Failures, WinnerIsReusedAcrossCalls) {
  Chain c(3);
  Optimizer opt(*c.model);
  GroupId g = opt.AddQuery(*c.expr);
  ASSERT_TRUE(opt.OptimizeGroup(g, nullptr).ok());
  SearchStats before = opt.stats();
  ASSERT_TRUE(opt.OptimizeGroup(g, nullptr).ok());
  SearchStats after = opt.stats();
  EXPECT_EQ(after.memo_winner_hits, before.memo_winner_hits + 1);
  // No new expressions were created by the second call.
  EXPECT_EQ(after.mexprs_created, before.mexprs_created);
}

TEST(Exploration, DuplicateDerivationsAreCounted) {
  // Join commutativity and associativity re-derive expressions the memo
  // already holds; each such insert is counted once. The chain's relations
  // are distinct, so copy-in finds no duplicate and every one comes from a
  // fired transformation.
  Chain c(4);
  Optimizer opt(*c.model);
  GroupId g = opt.AddQuery(*c.expr);
  ASSERT_TRUE(opt.OptimizeGroup(g, nullptr).ok());
  SearchStats s = opt.stats();
  EXPECT_GT(s.mexprs_deduped, 0u);
  EXPECT_LE(s.mexprs_deduped, s.transformations_applied);
}

TEST(Budget, MemoCapAborts) {
  // In strict mode the memo cap is a hard error; by default (anytime
  // degradation) the same trip yields an approximate plan. The full budget
  // and degradation matrix lives in budget_test.cc.
  Chain c(6);
  SearchOptions opts;
  opts.max_mexprs = 10;
  opts.degradation = SearchOptions::Degradation::kStrict;
  Optimizer opt(*c.model, SearchConfig::FromOptions(opts).value());
  StatusOr<PlanPtr> plan = opt.Optimize(*c.expr, nullptr);
  ASSERT_FALSE(plan.ok());
  EXPECT_EQ(plan.status().code(), Status::Code::kResourceExhausted);

  SearchOptions anytime;
  anytime.max_mexprs = 10;
  Optimizer degraded(*c.model, SearchConfig::FromOptions(anytime).value());
  StatusOr<PlanPtr> approx = degraded.Optimize(*c.expr, nullptr);
  ASSERT_TRUE(approx.ok()) << approx.status().ToString();
  EXPECT_TRUE(degraded.outcome().approximate);
  EXPECT_EQ(degraded.outcome().trip, BudgetTrip::kMemoLimit);
}

TEST(Heuristics, MoveLimitNeverImprovesCost) {
  for (uint64_t seed : {7u, 17u, 27u}) {
    rel::WorkloadOptions wopts;
    wopts.num_relations = 5;
    wopts.order_by_prob = 0.5;
    rel::Workload w = rel::GenerateWorkload(wopts, seed);
    const CostModel& cm = w.model->cost_model();

    Optimizer full(*w.model);
    StatusOr<PlanPtr> pf = full.Optimize(*w.query, w.required);
    ASSERT_TRUE(pf.ok());

    SearchOptions limited;
    limited.move_limit = 2;
    Optimizer lim(*w.model, SearchConfig::FromOptions(limited).value());
    StatusOr<PlanPtr> pl = lim.Optimize(*w.query, w.required);
    if (pl.ok()) {
      EXPECT_GE(cm.Total((*pl)->cost()),
                cm.Total((*pf)->cost()) * (1.0 - 1e-9));
    }
  }
}

TEST(Heuristics, GluePropertiesNeverImprovesCost) {
  // Starburst-style optimize-then-glue can only match or lose against
  // property-directed search (the paper's section 6 argument).
  for (uint64_t seed : {2u, 12u, 22u, 32u}) {
    rel::WorkloadOptions wopts;
    wopts.num_relations = 5;
    wopts.order_by_prob = 1.0;
    rel::Workload w = rel::GenerateWorkload(wopts, seed);
    const CostModel& cm = w.model->cost_model();

    Optimizer directed(*w.model);
    StatusOr<PlanPtr> pd = directed.Optimize(*w.query, w.required);
    ASSERT_TRUE(pd.ok());

    SearchOptions glue;
    glue.glue_properties = true;
    Optimizer glued(*w.model, SearchConfig::FromOptions(glue).value());
    StatusOr<PlanPtr> pg = glued.Optimize(*w.query, w.required);
    ASSERT_TRUE(pg.ok());
    EXPECT_GE(cm.Total((*pg)->cost()),
              cm.Total((*pd)->cost()) * (1.0 - 1e-9));
  }
}

TEST(Rules, SelectPushdownFindsCheaperOrEqualPlans) {
  // Place the selection on top of the join; only the pushdown rule can move
  // it down to the base relation.
  Catalog catalog;
  ASSERT_TRUE(catalog.AddRelation("A", 5000, 100, 2).ok());
  ASSERT_TRUE(catalog.AddRelation("B", 5000, 100, 2).ok());
  Symbol a0 = catalog.symbols().Lookup("A.a0");
  Symbol a1 = catalog.symbols().Lookup("A.a1");
  Symbol b0 = catalog.symbols().Lookup("B.a0");

  auto build = [&](const RelModel& model) {
    ExprPtr join = model.Join(model.Get("A"), model.Get("B"), a0, b0);
    return model.Select(join, a1, rel::CmpOp::kLess, 10, 0.01);
  };

  RelModel plain(catalog);
  Optimizer popt(plain);
  StatusOr<PlanPtr> pplain = popt.Optimize(*build(plain), nullptr);
  ASSERT_TRUE(pplain.ok());

  rel::RelModelOptions mo;
  mo.enable_select_pushdown = true;
  RelModel pushdown(catalog, mo);
  Optimizer dopt(pushdown);
  StatusOr<PlanPtr> ppush = dopt.Optimize(*build(pushdown), nullptr);
  ASSERT_TRUE(ppush.ok());

  double plain_cost = plain.cost_model().Total((*pplain)->cost());
  double push_cost = pushdown.cost_model().Total((*ppush)->cost());
  EXPECT_LT(push_cost, plain_cost);
}

TEST(Rules, SelectPullupTerminatesWithInversePair) {
  // Pushdown + pullup are mutual inverses; memo deduplication and the
  // in-progress marking must keep the search finite.
  Catalog catalog;
  ASSERT_TRUE(catalog.AddRelation("A", 1000, 100, 2).ok());
  ASSERT_TRUE(catalog.AddRelation("B", 1000, 100, 2).ok());
  Symbol a0 = catalog.symbols().Lookup("A.a0");
  Symbol a1 = catalog.symbols().Lookup("A.a1");
  Symbol b0 = catalog.symbols().Lookup("B.a0");

  rel::RelModelOptions mo;
  mo.enable_select_pushdown = true;
  mo.enable_select_pullup = true;
  RelModel model(catalog, mo);
  ExprPtr join = model.Join(model.Get("A"), model.Get("B"), a0, b0);
  ExprPtr q = model.Select(join, a1, rel::CmpOp::kLess, 10, 0.1);

  Optimizer opt(model);
  StatusOr<PlanPtr> plan = opt.Optimize(*q, nullptr);
  ASSERT_TRUE(plan.ok());
}

}  // namespace
}  // namespace volcano
