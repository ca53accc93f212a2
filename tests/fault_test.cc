// Fault-injection stress test: the optimizer's robustness contract.
//
// Under any combination of injected failures — rules that silently refuse to
// fire, cost estimates corrupted to NaN or +infinity, budgets expiring at
// arbitrary checkpoints, tight effort caps — the engine must either return a
// valid, executable plan or a clean NotFound/ResourceExhausted Status. It
// must never crash, hang, propagate a NaN into branch-and-bound pruning, or
// emit a structurally invalid plan. Over a thousand randomized scenarios
// plus directed worst cases (every cost NaN, every rule dead, budget dead on
// arrival) pin that contract down, and a replay test proves every scenario
// is bit-reproducible from its seed.

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "exec/datagen.h"
#include "exec/iterator.h"
#include "exec/plan_exec.h"
#include "relational/query_gen.h"
#include "relational/rel_plan_cost.h"
#include "search/optimizer.h"
#include "search/search_config.h"
#include "support/fault.h"
#include "support/rng.h"

namespace volcano {
namespace {

struct Scenario {
  rel::WorkloadOptions wopts;
  FaultInjector::Config fault;
  SearchOptions search;  // fault pointer filled in per run
  uint64_t workload_seed = 0;
};

// Derives a full scenario (workload shape, fault mix, budget, strategy)
// deterministically from one seed.
Scenario MakeScenario(uint64_t seed) {
  Rng rng(seed * 0x9e3779b97f4a7c15ULL + 1);
  Scenario sc;
  sc.workload_seed = seed;
  sc.wopts.num_relations = 3 + static_cast<int>(rng.Uniform(3));
  sc.wopts.join_graph =
      static_cast<rel::WorkloadOptions::JoinGraph>(rng.Uniform(3));
  sc.wopts.min_cardinality = 50;
  sc.wopts.max_cardinality = 150;
  sc.wopts.sorted_base_prob = 0.5;
  sc.wopts.order_by_prob = 0.5;

  sc.fault.seed = seed ^ 0xfau;
  if (rng.NextDouble() < 0.7) sc.fault.rule_failure_prob = rng.NextDouble() * 0.5;
  if (rng.NextDouble() < 0.5) sc.fault.cost_nan_prob = rng.NextDouble() * 0.2;
  if (rng.NextDouble() < 0.5) sc.fault.cost_inf_prob = rng.NextDouble() * 0.2;
  if (rng.NextDouble() < 0.3) sc.fault.budget_expiry_prob = rng.NextDouble() * 0.01;
  if (rng.NextDouble() < 0.2) sc.fault.fail_rule_at = 1 + rng.Uniform(50);
  if (rng.NextDouble() < 0.2) sc.fault.corrupt_cost_at = 1 + rng.Uniform(50);
  if (rng.NextDouble() < 0.2) sc.fault.expire_budget_at = 1 + rng.Uniform(100);

  if (rng.NextDouble() < 0.3) {
    sc.search.budget.max_find_best_plan_calls = 1 + rng.Uniform(200);
  }
  if (rng.NextDouble() < 0.3) sc.search.budget.max_mexprs = 10 + rng.Uniform(500);
  if (rng.NextDouble() < 0.1) sc.search.budget.timeout_ms = 0.5;
  if (rng.NextDouble() < 0.2) {
    sc.search.degradation = SearchOptions::Degradation::kStrict;
  }
  if (rng.NextDouble() < 0.3) {
    sc.search.strategy = SearchOptions::Strategy::kInterleaved;
  }
  if (rng.NextDouble() < 0.1) sc.search.heuristic_fallback = false;
  return sc;
}

struct RunResult {
  Status::Code code = Status::Code::kOk;
  double total_cost = 0.0;
  std::string plan_line;
};

// Runs one scenario and asserts the robustness contract on the result.
RunResult RunScenario(const Scenario& sc, bool check_execution) {
  rel::Workload w = rel::GenerateWorkload(sc.wopts, sc.workload_seed);
  FaultInjector injector(sc.fault);
  SearchOptions opts = sc.search;
  opts.fault = &injector;
  Optimizer opt(*w.model, SearchConfig::FromOptions(opts).value());
  StatusOr<PlanPtr> plan = opt.Optimize(*w.query, w.required);

  // search_completed is a fraction of distinct goals finished over started;
  // it must stay in [0,1] no matter how the search ended (a per-call ratio
  // here used to exceed 1 when memo hits finished goals without new calls).
  EXPECT_GE(opt.outcome().search_completed, 0.0)
      << "seed " << sc.workload_seed;
  EXPECT_LE(opt.outcome().search_completed, 1.0)
      << "seed " << sc.workload_seed;

  // Task-engine counters stay consistent no matter how the search ended.
  // Every frame beyond the root needed a step of its parent to be pushed,
  // so the concurrent-frame high water is bounded by steps executed.
  SearchStats st = opt.stats();
  EXPECT_LE(st.task_stack_high_water, st.tasks_executed + 1)
      << "seed " << sc.workload_seed;
  if (st.tasks_executed == 0) {
    EXPECT_EQ(st.task_stack_high_water, 0u) << "seed " << sc.workload_seed;
  }
  // No scenario enables suspension, so none may be recorded.
  EXPECT_EQ(st.suspensions, 0u) << "seed " << sc.workload_seed;

  RunResult out;
  if (!plan.ok()) {
    out.code = plan.status().code();
    // Clean, typed failure only — nothing else is acceptable.
    EXPECT_TRUE(out.code == Status::Code::kNotFound ||
                out.code == Status::Code::kResourceExhausted)
        << "seed " << sc.workload_seed << ": " << plan.status().ToString();
    return out;
  }

  const PlanNode& p = **plan;
  const CostModel& cm = w.model->cost_model();
  out.code = Status::Code::kOk;
  out.total_cost = cm.Total(p.cost());
  out.plan_line = PlanToLine(p, w.model->registry());

  EXPECT_TRUE(p.props()->Covers(*w.required)) << "seed " << sc.workload_seed;
  EXPECT_TRUE(rel::ValidatePlan(p, *w.model).ok())
      << "seed " << sc.workload_seed << "\n"
      << PlanToString(p, w.model->registry(), cm);
  // No NaN may survive to the final plan, and the reported cost must agree
  // with an uncorrupted re-costing: injected garbage was rejected, never
  // silently folded into an accepted total.
  EXPECT_TRUE(p.cost().IsValid()) << "seed " << sc.workload_seed;
  EXPECT_FALSE(std::isnan(out.total_cost)) << "seed " << sc.workload_seed;
  double recost = cm.Total(rel::RecostPlan(p, *w.model));
  EXPECT_NEAR(out.total_cost, recost, 1e-9 * recost)
      << "seed " << sc.workload_seed;

  if (check_execution) {
    exec::Database db = exec::GenerateDatabase(*w.catalog, sc.workload_seed);
    std::vector<exec::Row> got = exec::ExecutePlan(p, *w.model, db);
    std::vector<exec::Row> want = exec::EvalLogical(*w.query, *w.model, db);
    exec::Schema gs = exec::PlanSchema(p, *w.model, db);
    exec::Schema ws = exec::LogicalSchema(*w.query, *w.model, db);
    EXPECT_TRUE(exec::SameMultiset(exec::ReorderToSchema(got, gs, ws), want))
        << "seed " << sc.workload_seed;
  }
  return out;
}

TEST(Fault, ThousandRandomizedScenarios) {
  int ok = 0, not_found = 0, exhausted = 0;
  for (uint64_t seed = 0; seed < 1000; ++seed) {
    Scenario sc = MakeScenario(seed);
    RunResult r = RunScenario(sc, /*check_execution=*/seed % 16 == 0);
    switch (r.code) {
      case Status::Code::kOk: ++ok; break;
      case Status::Code::kNotFound: ++not_found; break;
      case Status::Code::kResourceExhausted: ++exhausted; break;
      default: break;  // already failed the EXPECT in RunScenario
    }
    if (::testing::Test::HasFatalFailure()) break;
  }
  // The mix must actually exercise all three outcomes, or the scenario
  // generator has gone stale.
  EXPECT_GT(ok, 100);
  EXPECT_GT(not_found, 10);
  EXPECT_GT(exhausted, 10);
}

TEST(Fault, ScenariosReplayBitIdentically) {
  for (uint64_t seed : {4u, 57u, 123u, 600u, 999u}) {
    Scenario sc = MakeScenario(seed);
    RunResult a = RunScenario(sc, false);
    RunResult b = RunScenario(sc, false);
    EXPECT_EQ(a.code, b.code) << "seed " << seed;
    EXPECT_EQ(a.plan_line, b.plan_line) << "seed " << seed;
    EXPECT_DOUBLE_EQ(a.total_cost, b.total_cost) << "seed " << seed;
  }
}

TEST(Fault, EveryCostNaNFailsCleanly) {
  rel::WorkloadOptions wopts;
  wopts.num_relations = 4;
  wopts.min_cardinality = 50;
  wopts.max_cardinality = 150;
  rel::Workload w = rel::GenerateWorkload(wopts, 8);
  FaultInjector::Config cfg;
  cfg.cost_nan_prob = 1.0;
  FaultInjector injector(cfg);
  SearchOptions opts;
  opts.fault = &injector;
  Optimizer opt(*w.model, SearchConfig::FromOptions(opts).value());
  StatusOr<PlanPtr> plan = opt.Optimize(*w.query, w.required);
  ASSERT_FALSE(plan.ok());
  EXPECT_EQ(plan.status().code(), Status::Code::kNotFound);
  EXPECT_GT(opt.stats().invalid_costs, 0u);
  EXPECT_GT(injector.counters().costs_corrupted, 0u);
}

TEST(Fault, EveryRuleDeadFailsCleanly) {
  rel::WorkloadOptions wopts;
  wopts.num_relations = 4;
  wopts.min_cardinality = 50;
  wopts.max_cardinality = 150;
  rel::Workload w = rel::GenerateWorkload(wopts, 8);
  FaultInjector::Config cfg;
  cfg.rule_failure_prob = 1.0;
  FaultInjector injector(cfg);
  SearchOptions opts;
  opts.fault = &injector;
  Optimizer opt(*w.model, SearchConfig::FromOptions(opts).value());
  StatusOr<PlanPtr> plan = opt.Optimize(*w.query, w.required);
  ASSERT_FALSE(plan.ok());
  EXPECT_EQ(plan.status().code(), Status::Code::kNotFound);
  EXPECT_GT(injector.counters().rules_failed, 0u);
}

TEST(Fault, BudgetDeadOnArrivalStillPlans) {
  // The very first checkpoint trips: no exploration, no incumbents — the
  // greedy rung alone must still deliver a correct executable plan.
  rel::WorkloadOptions wopts;
  wopts.num_relations = 5;
  wopts.min_cardinality = 50;
  wopts.max_cardinality = 150;
  wopts.order_by_prob = 1.0;
  rel::Workload w = rel::GenerateWorkload(wopts, 21);
  FaultInjector::Config cfg;
  cfg.expire_budget_at = 1;
  FaultInjector injector(cfg);
  SearchOptions opts;
  opts.fault = &injector;
  Optimizer opt(*w.model, SearchConfig::FromOptions(opts).value());
  StatusOr<PlanPtr> plan = opt.Optimize(*w.query, w.required);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  EXPECT_EQ(opt.outcome().trip, BudgetTrip::kInjected);
  EXPECT_EQ(opt.outcome().source, PlanSource::kHeuristic);
  EXPECT_TRUE(rel::ValidatePlan(**plan, *w.model).ok());
  exec::Database db = exec::GenerateDatabase(*w.catalog, 21);
  std::vector<exec::Row> got = exec::ExecutePlan(**plan, *w.model, db);
  std::vector<exec::Row> want = exec::EvalLogical(*w.query, *w.model, db);
  exec::Schema gs = exec::PlanSchema(**plan, *w.model, db);
  exec::Schema ws = exec::LogicalSchema(*w.query, *w.model, db);
  EXPECT_TRUE(exec::SameMultiset(exec::ReorderToSchema(got, gs, ws), want));
}

TEST(Fault, OptimizerRecoversAfterInjectedTrip) {
  // A tripped budget must not poison the shared memo: a second top-level
  // call on the same optimizer (checkpoint counter now past the injection
  // point) re-arms and finds the true optimum.
  rel::WorkloadOptions wopts;
  wopts.num_relations = 4;
  wopts.min_cardinality = 50;
  wopts.max_cardinality = 150;
  rel::Workload w = rel::GenerateWorkload(wopts, 13);

  Optimizer reference(*w.model);
  StatusOr<PlanPtr> best = reference.Optimize(*w.query, w.required);
  ASSERT_TRUE(best.ok());
  const CostModel& cm = w.model->cost_model();

  FaultInjector::Config cfg;
  cfg.expire_budget_at = 1;
  FaultInjector injector(cfg);
  SearchOptions opts;
  opts.fault = &injector;
  Optimizer opt(*w.model, SearchConfig::FromOptions(opts).value());
  StatusOr<PlanPtr> degraded = opt.Optimize(*w.query, w.required);
  ASSERT_TRUE(degraded.ok()) << degraded.status().ToString();
  EXPECT_TRUE(opt.outcome().approximate);

  StatusOr<PlanPtr> retry = opt.Optimize(*w.query, w.required);
  ASSERT_TRUE(retry.ok()) << retry.status().ToString();
  EXPECT_FALSE(opt.outcome().approximate);
  EXPECT_EQ(opt.outcome().source, PlanSource::kExhaustive);
  EXPECT_DOUBLE_EQ(cm.Total((*retry)->cost()), cm.Total((*best)->cost()));
}

}  // namespace
}  // namespace volcano
