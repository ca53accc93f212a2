// End-to-end correctness: every plan the optimizers produce must compute the
// same result as the naive reference evaluation of the logical query, and
// plans with ORDER BY requirements must actually deliver sorted output.
// These are the property tests that tie the whole system together —
// workload generator, optimizer, EXODUS baseline, plan validation, and the
// execution engine.

#include <gtest/gtest.h>

#include "exec/datagen.h"
#include "exec/plan_exec.h"
#include "exodus/exodus_optimizer.h"
#include "relational/query_gen.h"
#include "relational/rel_plan_cost.h"
#include "search/optimizer.h"

namespace volcano {
namespace {

// gtest describes each case by the raw bytes of its parameter, so the struct
// must have no padding: uninitialised padding bytes would make that
// description differ from run to run. A 64-bit `relations` fills the slot.
struct Case {
  int64_t relations;
  uint64_t seed;
  double order_by_prob;
};

class EndToEnd : public ::testing::TestWithParam<Case> {};

rel::Workload MakeWorkload(const Case& c) {
  rel::WorkloadOptions wopts;
  wopts.num_relations = static_cast<int>(c.relations);
  // Small relations keep the nested-loop reference evaluation fast.
  wopts.min_cardinality = 40;
  wopts.max_cardinality = 120;
  wopts.sorted_base_prob = 0.5;
  wopts.order_by_prob = c.order_by_prob;
  return rel::GenerateWorkload(wopts, c.seed);
}

TEST_P(EndToEnd, VolcanoPlanMatchesReferenceEvaluation) {
  rel::Workload w = MakeWorkload(GetParam());
  Optimizer opt(*w.model);
  StatusOr<PlanPtr> plan = opt.Optimize(*w.query, w.required);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  ASSERT_TRUE(rel::ValidatePlan(**plan, *w.model).ok());

  exec::Database db = exec::GenerateDatabase(*w.catalog, GetParam().seed);
  std::vector<exec::Row> got = exec::ExecutePlan(**plan, *w.model, db);
  std::vector<exec::Row> want = exec::EvalLogical(*w.query, *w.model, db);

  exec::Schema plan_schema = exec::PlanSchema(**plan, *w.model, db);
  exec::Schema ref_schema = exec::LogicalSchema(*w.query, *w.model, db);
  std::vector<exec::Row> got_norm =
      exec::ReorderToSchema(got, plan_schema, ref_schema);
  EXPECT_TRUE(exec::SameMultiset(got_norm, want))
      << "plan result diverges from reference (" << got.size() << " vs "
      << want.size() << " rows)";
}

TEST_P(EndToEnd, OrderByIsDelivered) {
  Case c = GetParam();
  if (c.relations < 2) {
    GTEST_SKIP() << "ORDER BY attributes are drawn from join edges";
  }
  c.order_by_prob = 1.0;
  rel::Workload w = MakeWorkload(c);
  const auto& order = rel::AsRel(*w.required).order();
  ASSERT_FALSE(order.empty());

  Optimizer opt(*w.model);
  StatusOr<PlanPtr> plan = opt.Optimize(*w.query, w.required);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  EXPECT_TRUE((*plan)->props()->Covers(*w.required));

  exec::Database db = exec::GenerateDatabase(*w.catalog, c.seed);
  exec::Schema schema = exec::PlanSchema(**plan, *w.model, db);
  std::vector<int> cols;
  for (Symbol attr : order.attrs) {
    int col = schema.IndexOf(attr);
    ASSERT_GE(col, 0);
    cols.push_back(col);
  }
  std::vector<exec::Row> rows = exec::ExecutePlan(**plan, *w.model, db);
  EXPECT_TRUE(exec::IsSortedBy(rows, cols));
}

TEST_P(EndToEnd, ExodusPlanMatchesReferenceEvaluation) {
  rel::Workload w = MakeWorkload(GetParam());
  exodus::ExodusOptimizer ex(*w.model);
  StatusOr<PlanPtr> plan = ex.Optimize(*w.query, w.required);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  ASSERT_TRUE(rel::ValidatePlan(**plan, *w.model).ok());

  exec::Database db = exec::GenerateDatabase(*w.catalog, GetParam().seed);
  std::vector<exec::Row> got = exec::ExecutePlan(**plan, *w.model, db);
  std::vector<exec::Row> want = exec::EvalLogical(*w.query, *w.model, db);
  exec::Schema plan_schema = exec::PlanSchema(**plan, *w.model, db);
  exec::Schema ref_schema = exec::LogicalSchema(*w.query, *w.model, db);
  EXPECT_TRUE(exec::SameMultiset(
      exec::ReorderToSchema(got, plan_schema, ref_schema), want));
}

TEST_P(EndToEnd, VolcanoNeverCostsMoreThanExodus) {
  // Both optimizers are exhaustive over join orders; Volcano additionally
  // exploits physical properties, so (re-costed under the same model) its
  // plan can only be at least as good.
  rel::Workload w = MakeWorkload(GetParam());
  Optimizer opt(*w.model);
  StatusOr<PlanPtr> vplan = opt.Optimize(*w.query, w.required);
  ASSERT_TRUE(vplan.ok());
  exodus::ExodusOptimizer ex(*w.model);
  StatusOr<PlanPtr> eplan = ex.Optimize(*w.query, w.required);
  ASSERT_TRUE(eplan.ok());

  const CostModel& cm = w.model->cost_model();
  double v = cm.Total(rel::RecostPlan(**vplan, *w.model));
  double e = cm.Total(rel::RecostPlan(**eplan, *w.model));
  EXPECT_LE(v, e * (1.0 + 1e-9));
}

std::vector<Case> MakeCases() {
  std::vector<Case> cases;
  for (int64_t relations : {1, 2, 3, 4, 5}) {
    for (uint64_t seed : {11u, 22u, 33u, 44u}) {
      cases.push_back(Case{relations, seed, 0.5});
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(Workloads, EndToEnd, ::testing::ValuesIn(MakeCases()),
                         [](const ::testing::TestParamInfo<Case>& info) {
                           return "r" + std::to_string(info.param.relations) +
                                  "_s" + std::to_string(info.param.seed);
                         });

}  // namespace
}  // namespace volcano
