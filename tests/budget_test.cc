// Resource governance and graceful degradation: deadline / memo / call
// budgets, the anytime incumbent, the greedy heuristic fallback, the EXODUS
// last resort, cancellation, and the structured ResourceExhausted payload.
//
// The paper anticipates all of this in one sentence (§3): FindBestPlan's
// limit "is typically infinity for a user query, but the user interface may
// permit users to set their own limits to 'catch' unreasonable queries".
// These tests pin down the engine's contract when such limits — cost or
// effort — are actually hit: a valid plan whenever one exists, otherwise a
// clean, well-typed Status, and bit-identical exhaustive behavior when no
// budget is set.

#include <gtest/gtest.h>

#include <chrono>
#include <string>
#include <thread>

#include "exec/datagen.h"
#include "exec/iterator.h"
#include "exec/plan_exec.h"
#include "exodus/fallback.h"
#include "relational/query_gen.h"
#include "relational/rel_plan_cost.h"
#include "search/optimizer.h"
#include "search/search_config.h"
#include "support/budget.h"

namespace volcano {
namespace {

rel::Workload SmallWorkload(int relations, uint64_t seed,
                            double order_by_prob = 0.5) {
  rel::WorkloadOptions wopts;
  wopts.num_relations = relations;
  wopts.join_graph = rel::WorkloadOptions::JoinGraph::kRandomTree;
  wopts.sorted_base_prob = 0.5;
  wopts.order_by_prob = order_by_prob;
  wopts.min_cardinality = 50;
  wopts.max_cardinality = 150;
  return rel::GenerateWorkload(wopts, seed);
}

// Full validity + correctness oracle: structure, properties, cost
// consistency, and execution against the reference evaluator.
void ExpectPlanIsSound(const rel::Workload& w, const PlanPtr& plan,
                       uint64_t seed, bool check_execution = true) {
  ASSERT_NE(plan, nullptr);
  EXPECT_TRUE(plan->props()->Covers(*w.required)) << "seed " << seed;
  EXPECT_TRUE(rel::ValidatePlan(*plan, *w.model).ok()) << "seed " << seed;
  EXPECT_TRUE(plan->cost().IsValid()) << "seed " << seed;
  const CostModel& cm = w.model->cost_model();
  double reported = cm.Total(plan->cost());
  EXPECT_NEAR(reported, cm.Total(rel::RecostPlan(*plan, *w.model)),
              1e-9 * reported)
      << "seed " << seed;
  if (!check_execution) return;
  exec::Database db = exec::GenerateDatabase(*w.catalog, seed);
  std::vector<exec::Row> got = exec::ExecutePlan(*plan, *w.model, db);
  std::vector<exec::Row> want = exec::EvalLogical(*w.query, *w.model, db);
  exec::Schema gs = exec::PlanSchema(*plan, *w.model, db);
  exec::Schema ws = exec::LogicalSchema(*w.query, *w.model, db);
  EXPECT_TRUE(exec::SameMultiset(exec::ReorderToSchema(got, gs, ws), want))
      << "seed " << seed;
}

TEST(Budget, DefaultPathIsExhaustiveAndUnchanged) {
  // A generous budget must not perturb the paper-faithful exhaustive path:
  // same plan cost as the default configuration, outcome reports optimality.
  rel::Workload w = SmallWorkload(4, 7);
  Optimizer plain(*w.model);
  StatusOr<PlanPtr> p1 = plain.Optimize(*w.query, w.required);
  ASSERT_TRUE(p1.ok());
  EXPECT_EQ(plain.outcome().source, PlanSource::kExhaustive);
  EXPECT_FALSE(plain.outcome().approximate);
  EXPECT_EQ(plain.outcome().trip, BudgetTrip::kNone);
  EXPECT_DOUBLE_EQ(plain.outcome().search_completed, 1.0);

  SearchOptions generous;
  generous.budget.timeout_ms = 1e7;
  generous.budget.max_find_best_plan_calls = 1u << 30;
  generous.budget.cancel = std::make_shared<CancellationToken>();
  Optimizer budgeted(*w.model, SearchConfig::FromOptions(generous).value());
  StatusOr<PlanPtr> p2 = budgeted.Optimize(*w.query, w.required);
  ASSERT_TRUE(p2.ok());
  EXPECT_EQ(budgeted.outcome().source, PlanSource::kExhaustive);
  EXPECT_FALSE(budgeted.outcome().approximate);
  const CostModel& cm = w.model->cost_model();
  EXPECT_DOUBLE_EQ(cm.Total((*p1)->cost()), cm.Total((*p2)->cost()));
}

TEST(Budget, StrictMemoCapReportsStructuredError) {
  // The legacy max_mexprs / ResourceExhausted path, now with the detail
  // payload naming the tripped budget and the partial effort counters.
  rel::Workload w = SmallWorkload(6, 11);
  SearchOptions opts;
  opts.max_mexprs = 40;  // the legacy knob, folded into the budget
  opts.degradation = SearchOptions::Degradation::kStrict;
  Optimizer opt(*w.model, SearchConfig::FromOptions(opts).value());
  StatusOr<PlanPtr> plan = opt.Optimize(*w.query, w.required);
  ASSERT_FALSE(plan.ok());
  EXPECT_EQ(plan.status().code(), Status::Code::kResourceExhausted);
  const std::string* tripped = plan.status().FindDetail("budget");
  ASSERT_NE(tripped, nullptr);
  EXPECT_EQ(*tripped, "memo");
  EXPECT_NE(plan.status().FindDetail("find_best_plan_calls"), nullptr);
  EXPECT_NE(plan.status().FindDetail("stats"), nullptr);
  EXPECT_NE(plan.status().ToString().find("{budget=memo"), std::string::npos);
}

TEST(Budget, MemoCapDegradesToValidPlan) {
  // Same trip, default (anytime) degradation: a valid executable plan
  // instead of an error, tagged approximate.
  for (uint64_t seed = 20; seed < 26; ++seed) {
    rel::Workload w = SmallWorkload(6, seed);
    SearchOptions opts;
    opts.budget.max_mexprs = 40;
    Optimizer opt(*w.model, SearchConfig::FromOptions(opts).value());
    StatusOr<PlanPtr> plan = opt.Optimize(*w.query, w.required);
    ASSERT_TRUE(plan.ok()) << plan.status().ToString() << " seed " << seed;
    EXPECT_EQ(opt.outcome().trip, BudgetTrip::kMemoLimit);
    EXPECT_TRUE(opt.outcome().approximate);
    EXPECT_NE(opt.outcome().source, PlanSource::kExhaustive);
    EXPECT_LT(opt.outcome().search_completed, 1.0);
    ExpectPlanIsSound(w, *plan, seed);
  }
}

TEST(Budget, SearchCompletedIsAGoalFraction) {
  // search_completed = goals_finished / goals_started over *distinct* goals,
  // clamped to [0,1]. The old definition (goals_completed per FindBestPlan
  // call) exceeded 1.0 whenever memoized hits let several goals finish
  // between budget checks; pin the fraction semantics directly.
  for (uint64_t seed = 30; seed < 40; ++seed) {
    rel::Workload w = SmallWorkload(6, seed);
    SearchOptions opts;
    opts.budget.max_find_best_plan_calls = 5 + seed;  // trips mid-search
    Optimizer opt(*w.model, SearchConfig::FromOptions(opts).value());
    (void)opt.Optimize(*w.query, w.required);

    const SearchStats& stats = opt.stats();
    const OptimizeOutcome& out = opt.outcome();
    EXPECT_GE(out.search_completed, 0.0) << "seed " << seed;
    EXPECT_LE(out.search_completed, 1.0) << "seed " << seed;
    ASSERT_GT(stats.goals_started, 0u) << "seed " << seed;
    EXPECT_LE(stats.goals_finished, stats.goals_started) << "seed " << seed;
    EXPECT_DOUBLE_EQ(out.search_completed,
                     static_cast<double>(stats.goals_finished) /
                         static_cast<double>(stats.goals_started))
        << "seed " << seed;
    if (out.trip != BudgetTrip::kNone) {
      // The goal in flight at the trip started but never finished.
      EXPECT_LT(out.search_completed, 1.0) << "seed " << seed;
    }
  }
}

TEST(Budget, OneMillisecondDeadlineOnTenRelationJoin) {
  // The acceptance scenario: a 10-relation join whose exhaustive search
  // space is far beyond a 1 ms deadline still yields a valid plan whose
  // execution matches the reference result.
  rel::Workload w = SmallWorkload(10, 42, /*order_by_prob=*/1.0);
  SearchOptions opts;
  opts.budget.timeout_ms = 1.0;
  Optimizer opt(*w.model, SearchConfig::FromOptions(opts).value());
  StatusOr<PlanPtr> plan = opt.Optimize(*w.query, w.required);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  EXPECT_TRUE(opt.outcome().approximate);
  EXPECT_EQ(opt.outcome().trip, BudgetTrip::kDeadline);
  ExpectPlanIsSound(w, *plan, 42);
}

TEST(Budget, CallCapSweepNeverCrashesAndEventuallyFindsIncumbents) {
  // Sweep the FindBestPlan-call budget from starvation to near-complete:
  // every outcome must be a sound plan or a clean status; tight caps
  // exercise the greedy rung, loose caps the anytime incumbent; no degraded
  // plan may beat the optimum.
  rel::Workload w = SmallWorkload(5, 33);
  const CostModel& cm = w.model->cost_model();

  Optimizer unbounded(*w.model);
  StatusOr<PlanPtr> best = unbounded.Optimize(*w.query, w.required);
  ASSERT_TRUE(best.ok());
  double optimal = cm.Total((*best)->cost());
  uint64_t total_calls = unbounded.stats().find_best_plan_calls;
  ASSERT_GT(total_calls, 10u);

  bool saw_heuristic = false, saw_incumbent = false;
  std::vector<uint64_t> caps = {1,  2,  3,  5,  8,  13, 21, 34, 55, 89,
                                total_calls / 4, total_calls / 2,
                                (3 * total_calls) / 4, total_calls - 1};
  for (uint64_t cap : caps) {
    SearchOptions opts;
    opts.budget.max_find_best_plan_calls = cap;
    Optimizer opt(*w.model, SearchConfig::FromOptions(opts).value());
    StatusOr<PlanPtr> plan = opt.Optimize(*w.query, w.required);
    if (!plan.ok()) {
      EXPECT_EQ(plan.status().code(), Status::Code::kResourceExhausted)
          << "cap " << cap;
      continue;
    }
    if (opt.outcome().approximate) {
      EXPECT_EQ(opt.outcome().trip, BudgetTrip::kCallLimit) << "cap " << cap;
      EXPECT_GE(cm.Total((*plan)->cost()), optimal * (1.0 - 1e-9))
          << "cap " << cap;
    }
    saw_heuristic |= opt.outcome().source == PlanSource::kHeuristic;
    saw_incumbent |= opt.outcome().source == PlanSource::kAnytimeIncumbent;
    ExpectPlanIsSound(w, *plan, 33, /*check_execution=*/cap % 3 == 1);
  }
  EXPECT_TRUE(saw_heuristic);
  EXPECT_TRUE(saw_incumbent);
}

TEST(Budget, InterleavedStrategyDegradesToo) {
  // The Figure-2-verbatim interleaved strategy shares the checkpoints.
  for (uint64_t cap : {3u, 20u, 60u}) {
    rel::Workload w = SmallWorkload(6, 55);
    SearchOptions opts;
    opts.strategy = SearchOptions::Strategy::kInterleaved;
    opts.budget.max_find_best_plan_calls = cap;
    Optimizer opt(*w.model, SearchConfig::FromOptions(opts).value());
    StatusOr<PlanPtr> plan = opt.Optimize(*w.query, w.required);
    if (plan.ok()) {
      ExpectPlanIsSound(w, *plan, 55);
    } else {
      EXPECT_EQ(plan.status().code(), Status::Code::kResourceExhausted);
    }
  }
}

TEST(Budget, PreCancelledTokenDegradesImmediately) {
  rel::Workload w = SmallWorkload(5, 3);
  auto token = std::make_shared<CancellationToken>();
  token->Cancel();

  SearchOptions opts;
  opts.budget.cancel = token;
  Optimizer opt(*w.model, SearchConfig::FromOptions(opts).value());
  StatusOr<PlanPtr> plan = opt.Optimize(*w.query, w.required);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  EXPECT_EQ(opt.outcome().trip, BudgetTrip::kCancelled);
  EXPECT_EQ(opt.outcome().source, PlanSource::kHeuristic);
  ExpectPlanIsSound(w, *plan, 3);

  SearchOptions strict = opts;
  strict.degradation = SearchOptions::Degradation::kStrict;
  Optimizer s(*w.model, SearchConfig::FromOptions(strict).value());
  StatusOr<PlanPtr> rejected = s.Optimize(*w.query, w.required);
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), Status::Code::kResourceExhausted);
  const std::string* tripped = rejected.status().FindDetail("budget");
  ASSERT_NE(tripped, nullptr);
  EXPECT_EQ(*tripped, "cancelled");
}

TEST(Budget, GreedyRungPlansArePinned) {
  // Ladder step 2 plans over whatever the search had derived when the
  // budget tripped, so its plan depends on the order in which the greedy
  // descent binds patterns and collects moves. These chain and star
  // workloads trip a FindBestPlan-call cap with no root incumbent; their
  // heuristic plans are pinned line for line, so a change in binding or
  // move order shows here. The rung plans over a different memo under the
  // classic join rules, so the chain n=6 case is pinned under both sets.
  struct Case {
    bool classic;  ///< RelModelOptions::duplicate_free_joins off
    bool star;
    int relations;
    uint64_t seed;
    uint64_t call_cap;
    double cost;
    const char* plan;
  };
  const Case cases[] = {
      {false, false, 4, 1, 20, 12.209438934994285,
       "MERGE_JOIN[R0.a0 = R1.a2](FILTER[R0.a1 < 381](FILE_SCAN[R0]), "
       "SORT[sorted(R1.a2)](MERGE_JOIN[R2.a2 = R3.a1]("
       "MERGE_JOIN[R2.a2 = R1.a1](SORT[sorted(R2.a2)]("
       "FILTER[R2.a1 < 280](FILE_SCAN[R2])), SORT[sorted(R1.a1)]("
       "FILTER[R1.a2 < 206](FILE_SCAN[R1]))), FILTER[R3.a0 < 3630]("
       "FILE_SCAN[R3]))))"},
      {false, false, 6, 2, 20, 13.349068377829653,
       "MERGE_JOIN[R2.a1 = R3.a2](MERGE_JOIN[R2.a1 = R1.a2]("
       "FILTER[R2.a1 < 346](FILE_SCAN[R2]), MERGE_JOIN[R1.a2 = R0.a1]("
       "FILTER[R1.a0 < 3290](FILE_SCAN[R1]), SORT[sorted(R0.a1)]("
       "FILTER[R0.a2 < 45](FILE_SCAN[R0])))), "
       "SORT[sorted(R3.a2)](MERGE_JOIN[R4.a2 = R5.a1](SORT[sorted(R4.a2)]("
       "MERGE_JOIN[R3.a2 = R4.a0](FILTER[R3.a2 < 658](FILE_SCAN[R3]), "
       "FILTER[R4.a2 < 1174](FILE_SCAN[R4]))), "
       "FILTER[R5.a2 < 519](SORT[sorted(R5.a1)](FILE_SCAN[R5])))))"},
      {true, false, 6, 2, 20, 6.7862248116971609,
       "MERGE_JOIN[R2.a1 = R3.a2](MERGE_JOIN[R2.a1 = R1.a2]("
       "FILTER[R2.a1 < 346](FILE_SCAN[R2]), MERGE_JOIN[R1.a2 = R0.a1]("
       "FILTER[R1.a0 < 3290](FILE_SCAN[R1]), SORT[sorted(R0.a1)]("
       "FILTER[R0.a2 < 45](FILE_SCAN[R0])))), "
       "MERGE_JOIN[R3.a2 = R4.a0](FILTER[R3.a2 < 658](FILE_SCAN[R3]), "
       "SORT[sorted(R4.a0)](MERGE_JOIN[R4.a2 = R5.a1]("
       "FILTER[R4.a2 < 1174](SORT[sorted(R4.a2)](FILE_SCAN[R4])), "
       "FILTER[R5.a2 < 519](SORT[sorted(R5.a1)](FILE_SCAN[R5]))))))"},
      {false, true, 4, 1, 10, 3.9559145706464163,
       "MERGE_JOIN[R0.a0 = R3.a1](MERGE_JOIN[R0.a0 = R1.a2]("
       "SORT[sorted(R0.a0)](MERGE_JOIN[R0.a1 = R2.a2](SORT[sorted("
       "R0.a1)](FILTER[R0.a1 < 381](FILE_SCAN[R0])), "
       "FILTER[R2.a1 < 280](SORT[sorted(R2.a2)](FILE_SCAN[R2])))), "
       "FILTER[R1.a2 < 206](FILE_SCAN[R1])), FILTER[R3.a0 < 3630]("
       "FILE_SCAN[R3]))"},
      {false, true, 6, 2, 20, 7.7540252756319097,
       "MERGE_JOIN[R0.a1 = R4.a0](MERGE_JOIN[R0.a1 = R3.a2]("
       "MERGE_JOIN[R0.a1 = R2.a1](MERGE_JOIN[R0.a1 = R1.a2]("
       "SORT[sorted(R0.a1)](MERGE_JOIN[R0.a2 = R5.a1](SORT[sorted("
       "R0.a2)](FILTER[R0.a2 < 45](FILE_SCAN[R0])), SORT[sorted("
       "R5.a1)](FILTER[R5.a2 < 519](FILE_SCAN[R5])))), "
       "FILTER[R1.a0 < 3290](FILE_SCAN[R1])), FILTER[R2.a1 < 346]("
       "FILE_SCAN[R2])), FILTER[R3.a2 < 658](FILE_SCAN[R3])), "
       "FILTER[R4.a2 < 1174](FILE_SCAN[R4]))"},
  };
  for (const Case& c : cases) {
    rel::WorkloadOptions wopts;
    wopts.num_relations = c.relations;
    wopts.join_graph = c.star ? rel::WorkloadOptions::JoinGraph::kStar
                              : rel::WorkloadOptions::JoinGraph::kChain;
    wopts.sorted_base_prob = 0.5;
    wopts.order_by_prob = 0.5;
    rel::RelModelOptions mopts;
    mopts.duplicate_free_joins = !c.classic;
    rel::Workload w = rel::GenerateWorkload(wopts, c.seed, mopts);
    SearchOptions opts;
    opts.budget.max_find_best_plan_calls = c.call_cap;
    Optimizer opt(*w.model, SearchConfig::FromOptions(opts).value());
    StatusOr<PlanPtr> plan = opt.Optimize(*w.query, w.required);
    SCOPED_TRACE(std::string(c.star ? "star" : "chain") + " n=" +
                 std::to_string(c.relations) +
                 " seed=" + std::to_string(c.seed) +
                 (c.classic ? " classic" : ""));
    ASSERT_TRUE(plan.ok()) << plan.status().ToString();
    EXPECT_EQ(opt.outcome().trip, BudgetTrip::kCallLimit);
    EXPECT_EQ(opt.outcome().source, PlanSource::kHeuristic);
    EXPECT_EQ(PlanToLine(**plan, w.model->registry()), c.plan);
    EXPECT_DOUBLE_EQ(w.model->cost_model().Total((*plan)->cost()), c.cost);
    ExpectPlanIsSound(w, *plan, c.seed, /*check_execution=*/false);
  }
}

TEST(Budget, CancelFromAnotherThreadStopsTheSearch) {
  // The token is the one search input written by another thread while the
  // search runs. This 14-relation star takes 3.4 s to search exhaustively
  // (Release build, 4-core x86-64 host), so a cancel 10 ms in must be what
  // ends it.
  rel::WorkloadOptions wopts;
  wopts.num_relations = 14;
  wopts.join_graph = rel::WorkloadOptions::JoinGraph::kStar;
  wopts.order_by_prob = 1.0;
  rel::Workload w = rel::GenerateWorkload(wopts, 7);
  auto token = std::make_shared<CancellationToken>();
  SearchOptions opts;
  opts.budget.cancel = token;
  Optimizer opt(*w.model, SearchConfig::FromOptions(opts).value());

  std::thread canceller([token] {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    token->Cancel();
  });
  StatusOr<PlanPtr> plan = opt.Optimize(*w.query, w.required);
  canceller.join();
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  EXPECT_EQ(opt.outcome().trip, BudgetTrip::kCancelled);
  EXPECT_TRUE(opt.outcome().approximate);
  ExpectPlanIsSound(w, *plan, 7, /*check_execution=*/false);
}

TEST(Budget, UserCostLimitStillCatchesUnreasonableQueries) {
  // A cost limit (not an effort budget) that no plan can meet is a clean
  // NotFound — the search *completed* and proved infeasibility, so neither
  // degradation rung may manufacture a plan above the limit.
  rel::Workload w = SmallWorkload(4, 17, /*order_by_prob=*/1.0);
  Optimizer opt(*w.model);
  StatusOr<PlanPtr> plan =
      opt.Optimize(*w.query, w.required, Cost::Vector({1e-12, 0.0}));
  ASSERT_FALSE(plan.ok());
  EXPECT_EQ(plan.status().code(), Status::Code::kNotFound);
  EXPECT_FALSE(opt.outcome().approximate);

  // Even when a budget trips as well, the greedy fallback must respect the
  // user limit rather than return an over-limit plan.
  SearchOptions opts;
  opts.budget.max_find_best_plan_calls = 2;
  Optimizer capped(*w.model, SearchConfig::FromOptions(opts).value());
  StatusOr<PlanPtr> degraded =
      capped.Optimize(*w.query, w.required, Cost::Vector({1e-12, 0.0}));
  ASSERT_FALSE(degraded.ok());
  EXPECT_TRUE(degraded.status().code() == Status::Code::kNotFound ||
              degraded.status().code() == Status::Code::kResourceExhausted);
}

TEST(Budget, ExodusFallbackIsTheLastResort) {
  // Starve Volcano completely (memo cap below the query size, no greedy
  // rung): OptimizeWithFallback must hand the query to the EXODUS baseline
  // and still produce a correct, executable plan.
  rel::Workload w = SmallWorkload(4, 29, /*order_by_prob=*/1.0);
  SearchOptions opts;
  opts.budget.max_mexprs = 1;
  opts.heuristic_fallback = false;
  OptimizeOutcome outcome;
  StatusOr<PlanPtr> plan = exodus::OptimizeWithFallback(
      *w.model, *w.query, w.required, opts, &outcome);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  EXPECT_EQ(outcome.source, PlanSource::kExodusFallback);
  EXPECT_TRUE(outcome.approximate);
  EXPECT_TRUE((*plan)->props()->Covers(*w.required));
  exec::Database db = exec::GenerateDatabase(*w.catalog, 29);
  std::vector<exec::Row> got = exec::ExecutePlan(**plan, *w.model, db);
  std::vector<exec::Row> want = exec::EvalLogical(*w.query, *w.model, db);
  exec::Schema gs = exec::PlanSchema(**plan, *w.model, db);
  exec::Schema ws = exec::LogicalSchema(*w.query, *w.model, db);
  EXPECT_TRUE(exec::SameMultiset(exec::ReorderToSchema(got, gs, ws), want));

  // Without --fallback semantics the same starvation is a structured error.
  Optimizer bare(*w.model, SearchConfig::FromOptions(opts).value());
  StatusOr<PlanPtr> err = bare.Optimize(*w.query, w.required);
  ASSERT_FALSE(err.ok());
  EXPECT_EQ(err.status().code(), Status::Code::kResourceExhausted);
}

TEST(Budget, StatusDetailHelpers) {
  Status s = Status::ResourceExhausted("budget exhausted")
                 .WithDetail("budget", "deadline")
                 .WithDetail("calls", "123");
  ASSERT_EQ(s.details().size(), 2u);
  ASSERT_NE(s.FindDetail("budget"), nullptr);
  EXPECT_EQ(*s.FindDetail("budget"), "deadline");
  EXPECT_EQ(s.FindDetail("nope"), nullptr);
  EXPECT_NE(s.ToString().find("{budget=deadline, calls=123}"),
            std::string::npos);
  EXPECT_EQ(Status::OK().details().size(), 0u);
}

}  // namespace
}  // namespace volcano
