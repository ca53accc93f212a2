// Stress / property sweeps: broad randomized invariants over many seeds and
// rule configurations — the "did we break anything anywhere" suite.
// Parameterized (TEST_P) over workload shapes.

#include <gtest/gtest.h>

#include <cstdint>
#include <type_traits>

#include "exec/datagen.h"
#include "exec/plan_exec.h"
#include "relational/query_gen.h"
#include "relational/rel_plan_cost.h"
#include "search/optimizer.h"
#include "search/search_config.h"

namespace volcano {
namespace {

// gtest prints a parameter it cannot format as its raw bytes, and the ctest
// case names carry that print. So every byte of a SweepCase is fixed by the
// case itself: the label is an index into kSweepLabels, not a pointer (whose
// value changes from build to build), and what would be padding is zeroed.
struct SweepCase {
  int relations;
  rel::WorkloadOptions::JoinGraph graph;
  bool pushdown_rules;  // also enables pull-up (inverse pair)
  bool multiway;
  uint8_t zero[6];
  uint64_t label;  // index into kSweepLabels
};
static_assert(std::has_unique_object_representations_v<SweepCase>);

constexpr const char* kSweepLabels[] = {
    "chain3", "chain5", "star5", "random5", "random4_inverse_rules",
    "random5_multiway", "star6"};

class Sweep : public ::testing::TestWithParam<SweepCase> {
 protected:
  rel::Workload Make(uint64_t seed) const {
    const SweepCase& c = GetParam();
    rel::WorkloadOptions wopts;
    wopts.num_relations = c.relations;
    wopts.join_graph = c.graph;
    wopts.sorted_base_prob = 0.5;
    wopts.order_by_prob = 0.5;
    wopts.min_cardinality = 50;
    wopts.max_cardinality = 200;
    rel::RelModelOptions mopts;
    mopts.enable_select_pushdown = c.pushdown_rules;
    mopts.enable_select_pullup = c.pushdown_rules;
    mopts.enable_multiway_join = c.multiway;
    return rel::GenerateWorkload(wopts, seed, mopts);
  }
};

TEST_P(Sweep, InvariantsHoldAcrossSeeds) {
  for (uint64_t seed = 100; seed < 112; ++seed) {
    rel::Workload w = Make(seed);
    Optimizer opt(*w.model);
    StatusOr<PlanPtr> plan = opt.Optimize(*w.query, w.required);
    ASSERT_TRUE(plan.ok()) << plan.status().ToString() << " seed " << seed;

    // 1. The plan satisfies the requested properties.
    EXPECT_TRUE((*plan)->props()->Covers(*w.required));
    // 2. The plan is structurally valid (merge joins get sorted inputs...).
    EXPECT_TRUE(rel::ValidatePlan(**plan, *w.model).ok()) << "seed " << seed;
    // 3. Reported cost equals independent bottom-up recosting.
    const CostModel& cm = w.model->cost_model();
    double reported = cm.Total((*plan)->cost());
    EXPECT_NEAR(reported, cm.Total(rel::RecostPlan(**plan, *w.model)),
                1e-9 * reported);
    // 4. Execution matches the reference evaluation.
    exec::Database db = exec::GenerateDatabase(*w.catalog, seed);
    std::vector<exec::Row> got = exec::ExecutePlan(**plan, *w.model, db);
    std::vector<exec::Row> want = exec::EvalLogical(*w.query, *w.model, db);
    exec::Schema gs = exec::PlanSchema(**plan, *w.model, db);
    exec::Schema ws = exec::LogicalSchema(*w.query, *w.model, db);
    EXPECT_TRUE(exec::SameMultiset(exec::ReorderToSchema(got, gs, ws), want))
        << "seed " << seed;
  }
}

TEST_P(Sweep, SearchOptionsNeverChangePlanCost) {
  for (uint64_t seed = 200; seed < 206; ++seed) {
    rel::Workload w = Make(seed);
    const CostModel& cm = w.model->cost_model();

    Optimizer ref(*w.model);
    StatusOr<PlanPtr> ref_plan = ref.Optimize(*w.query, w.required);
    ASSERT_TRUE(ref_plan.ok());
    double ref_cost = cm.Total((*ref_plan)->cost());

    SearchOptions opts;
    opts.branch_and_bound = false;
    Optimizer alt(*w.model, SearchConfig::FromOptions(opts).value());
    StatusOr<PlanPtr> alt_plan = alt.Optimize(*w.query, w.required);
    ASSERT_TRUE(alt_plan.ok());
    EXPECT_NEAR(cm.Total((*alt_plan)->cost()), ref_cost, 1e-9 * ref_cost)
        << "seed " << seed;
  }
}

std::vector<SweepCase> Cases() {
  using G = rel::WorkloadOptions::JoinGraph;
  return {
      {3, G::kChain, false, false, {}, 0},
      {5, G::kChain, false, false, {}, 1},
      {5, G::kStar, false, false, {}, 2},
      {5, G::kRandomTree, false, false, {}, 3},
      {4, G::kRandomTree, true, false, {}, 4},
      {5, G::kRandomTree, false, true, {}, 5},
      {6, G::kStar, false, false, {}, 6},
  };
}

INSTANTIATE_TEST_SUITE_P(Shapes, Sweep, ::testing::ValuesIn(Cases()),
                         [](const ::testing::TestParamInfo<SweepCase>& info) {
                           return kSweepLabels[info.param.label];
                         });

TEST(CostLimit, CatchesUnreasonableQueries) {
  // "The user interface may permit users to set their own limits to 'catch'
  // unreasonable queries" (paper, §3).
  rel::Catalog catalog;
  ASSERT_TRUE(catalog.AddRelation("A", 5000, 100, 2).ok());
  ASSERT_TRUE(catalog.AddRelation("B", 5000, 100, 2).ok());
  rel::RelModel model(catalog);
  ExprPtr q = model.Join(model.Get("A"), model.Get("B"),
                         catalog.symbols().Lookup("A.a0"),
                         catalog.symbols().Lookup("B.a0"));

  Optimizer unlimited(model);
  StatusOr<PlanPtr> best = unlimited.Optimize(*q, nullptr);
  ASSERT_TRUE(best.ok());
  double best_cost = model.cost_model().Total((*best)->cost());

  // A limit below the optimum rejects the query...
  Optimizer strict(model);
  StatusOr<PlanPtr> rejected =
      strict.Optimize(*q, nullptr, Cost::Vector({best_cost * 0.25, 0.0}));
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), Status::Code::kNotFound);

  // ... and a limit above it still returns the same optimum.
  Optimizer loose(model);
  StatusOr<PlanPtr> accepted =
      loose.Optimize(*q, nullptr, Cost::Vector({best_cost * 2.0, 0.0}));
  ASSERT_TRUE(accepted.ok());
  EXPECT_NEAR(model.cost_model().Total((*accepted)->cost()), best_cost,
              1e-9 * best_cost);
}

TEST(CostLimit, SharedMemoStaysConsistentAcrossLimits) {
  // A failure memoized under a low limit must not poison a later call with a
  // higher limit on the same optimizer instance.
  rel::Catalog catalog;
  ASSERT_TRUE(catalog.AddRelation("A", 3000, 100, 2).ok());
  ASSERT_TRUE(catalog.AddRelation("B", 3000, 100, 2).ok());
  rel::RelModel model(catalog);
  ExprPtr q = model.Join(model.Get("A"), model.Get("B"),
                         catalog.symbols().Lookup("A.a0"),
                         catalog.symbols().Lookup("B.a0"));

  Optimizer opt(model);
  GroupId root = opt.AddQuery(*q);
  ASSERT_FALSE(
      opt.OptimizeGroup(root, nullptr, Cost::Vector({0.001, 0.0})).ok());
  StatusOr<PlanPtr> plan = opt.OptimizeGroup(root, nullptr);
  ASSERT_TRUE(plan.ok());

  Optimizer fresh(model);
  StatusOr<PlanPtr> expected = fresh.Optimize(*q, nullptr);
  ASSERT_TRUE(expected.ok());
  EXPECT_DOUBLE_EQ(model.cost_model().Total((*plan)->cost()),
                   model.cost_model().Total((*expected)->cost()));
}

}  // namespace
}  // namespace volcano
