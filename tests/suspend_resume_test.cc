// Anytime suspension: with SearchOptions::suspend_on_trip, a tripped budget
// freezes the task stack in place and Optimizer::Resume() continues from the
// exact preemption point. The contract under test — over a hundred
// fault-injected preemption points — is that trip + Resume() produces
// exactly the plan an uninterrupted run produces: suspension is invisible to
// the search result.

#include <gtest/gtest.h>

#include <string>

#include "relational/query_gen.h"
#include "search/optimizer.h"
#include "search/search_config.h"
#include "support/fault.h"

namespace volcano {
namespace {

rel::Workload MakeWorkload(uint64_t seed) {
  rel::WorkloadOptions wopts;
  wopts.num_relations = 3 + static_cast<int>(seed % 4);
  wopts.join_graph = static_cast<rel::WorkloadOptions::JoinGraph>(seed % 3);
  wopts.sorted_base_prob = 0.5;
  wopts.order_by_prob = 0.5;
  wopts.min_cardinality = 50;
  wopts.max_cardinality = 200;
  return rel::GenerateWorkload(wopts, seed);
}

struct PlanLine {
  bool ok = false;
  std::string line;
  double cost = 0.0;
};

PlanLine Uninterrupted(const rel::Workload& w) {
  Optimizer opt(*w.model);
  StatusOr<PlanPtr> plan = opt.Optimize(*w.query, w.required);
  PlanLine out;
  if (!plan.ok()) return out;
  out.ok = true;
  out.line = PlanToLine(**plan, w.model->registry());
  out.cost = w.model->cost_model().Total((*plan)->cost());
  return out;
}

// Injects a budget trip at one deterministic checkpoint, suspends there, and
// resumes to completion. 120 seeds x varying preemption points; nearly every
// scenario actually suspends (asserted in aggregate at the bottom).
TEST(SuspendResume, ResumedRunMatchesUninterruptedAcrossScenarios) {
  int suspended_scenarios = 0;
  for (uint64_t seed = 0; seed < 120; ++seed) {
    rel::Workload w = MakeWorkload(seed);
    PlanLine base = Uninterrupted(w);
    if (!base.ok) continue;  // NotFound baseline: nothing to compare

    FaultInjector::Config fc;
    fc.seed = seed;
    fc.expire_budget_at = 1 + (seed * 7) % 60;
    FaultInjector injector(fc);
    SearchOptions opts;
    opts.suspend_on_trip = true;
    opts.fault = &injector;
    Optimizer opt(*w.model, SearchConfig::FromOptions(opts).value());

    StatusOr<PlanPtr> plan = opt.Optimize(*w.query, w.required);
    bool suspended = false;
    int resumes = 0;
    while (!plan.ok() && opt.CanResume()) {
      suspended = true;
      EXPECT_EQ(plan.status().code(), Status::Code::kResourceExhausted)
          << "seed " << seed;
      EXPECT_TRUE(opt.outcome().suspended) << "seed " << seed;
      plan = opt.Resume();
      ASSERT_LT(++resumes, 1000) << "seed " << seed;
    }
    ASSERT_TRUE(plan.ok()) << "seed " << seed << ": "
                           << plan.status().ToString();
    EXPECT_EQ(PlanToLine(**plan, w.model->registry()), base.line)
        << "seed " << seed;
    EXPECT_DOUBLE_EQ(w.model->cost_model().Total((*plan)->cost()), base.cost)
        << "seed " << seed;
    if (suspended) {
      ++suspended_scenarios;
      EXPECT_GE(opt.stats().suspensions, 1u) << "seed " << seed;
      EXPECT_FALSE(opt.outcome().suspended) << "seed " << seed;
      EXPECT_FALSE(opt.CanResume()) << "seed " << seed;
    }
  }
  // The sweep is only meaningful if preemption actually happened at scale.
  EXPECT_GE(suspended_scenarios, 100);
}

// Repeated preemption: a probabilistic budget fault can trip the resumed run
// again (and again); each Resume() picks up where the last trip parked.
TEST(SuspendResume, SurvivesRepeatedPreemption) {
  rel::Workload w = MakeWorkload(7);
  PlanLine base = Uninterrupted(w);
  ASSERT_TRUE(base.ok);

  FaultInjector::Config fc;
  fc.seed = 99;
  fc.budget_expiry_prob = 0.02;
  FaultInjector injector(fc);
  SearchOptions opts;
  opts.suspend_on_trip = true;
  opts.fault = &injector;
  Optimizer opt(*w.model, SearchConfig::FromOptions(opts).value());

  StatusOr<PlanPtr> plan = opt.Optimize(*w.query, w.required);
  int resumes = 0;
  while (!plan.ok() && opt.CanResume()) {
    plan = opt.Resume();
    ASSERT_LT(++resumes, 10000);
  }
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  EXPECT_EQ(PlanToLine(**plan, w.model->registry()), base.line);
  EXPECT_EQ(opt.stats().suspensions, static_cast<uint64_t>(resumes));
}

// A real (non-injected) call budget: each Resume() re-arms the per-call
// allowance, so a search too big for one slice completes across several.
TEST(SuspendResume, CallBudgetCompletesInSlices) {
  rel::Workload w = MakeWorkload(11);
  PlanLine base = Uninterrupted(w);
  ASSERT_TRUE(base.ok);

  SearchOptions opts;
  opts.suspend_on_trip = true;
  opts.budget.max_find_best_plan_calls = 20;
  Optimizer opt(*w.model, SearchConfig::FromOptions(opts).value());
  StatusOr<PlanPtr> plan = opt.Optimize(*w.query, w.required);
  int resumes = 0;
  while (!plan.ok() && opt.CanResume()) {
    plan = opt.Resume();
    ASSERT_LT(++resumes, 10000);
  }
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  EXPECT_GT(resumes, 0);
  EXPECT_EQ(PlanToLine(**plan, w.model->registry()), base.line);
}

// A memo-size trip cannot progress on the same budget; Resume(budget) raises
// the cap for the continuation.
TEST(SuspendResume, ResumeWithRaisedBudgetClearsMemoTrip) {
  rel::Workload w = MakeWorkload(13);
  PlanLine base = Uninterrupted(w);
  ASSERT_TRUE(base.ok);

  SearchOptions opts;
  opts.suspend_on_trip = true;
  opts.budget.max_mexprs = 8;
  Optimizer opt(*w.model, SearchConfig::FromOptions(opts).value());
  StatusOr<PlanPtr> plan = opt.Optimize(*w.query, w.required);
  ASSERT_FALSE(plan.ok());
  ASSERT_TRUE(opt.CanResume());

  OptimizationBudget raised;  // default: effectively unlimited
  plan = opt.Resume(raised);
  int resumes = 0;
  while (!plan.ok() && opt.CanResume()) {
    plan = opt.Resume();
    ASSERT_LT(++resumes, 100);
  }
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  EXPECT_EQ(PlanToLine(**plan, w.model->registry()), base.line);
}

TEST(SuspendResume, ResumeWithoutSuspensionIsInvalid) {
  rel::Workload w = MakeWorkload(1);
  Optimizer opt(*w.model);
  EXPECT_FALSE(opt.CanResume());
  StatusOr<PlanPtr> r = opt.Resume();
  EXPECT_EQ(r.status().code(), Status::Code::kInvalidArgument);
}

// Starting a fresh Optimize abandons a suspended run cleanly: the frozen
// frames' in-progress marks are unwound and the new search is unaffected.
TEST(SuspendResume, FreshOptimizeAbandonsSuspendedRun) {
  rel::Workload w = MakeWorkload(17);
  PlanLine base = Uninterrupted(w);
  ASSERT_TRUE(base.ok);

  FaultInjector::Config fc;
  fc.seed = 17;
  fc.expire_budget_at = 5;
  FaultInjector injector(fc);
  SearchOptions opts;
  opts.suspend_on_trip = true;
  opts.fault = &injector;
  Optimizer opt(*w.model, SearchConfig::FromOptions(opts).value());
  StatusOr<PlanPtr> plan = opt.Optimize(*w.query, w.required);
  ASSERT_FALSE(plan.ok());
  ASSERT_TRUE(opt.CanResume());

  // Re-optimize from scratch instead of resuming (the single-point fault is
  // already spent, so this run goes uninterrupted).
  plan = opt.Optimize(*w.query, w.required);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  EXPECT_FALSE(opt.CanResume());
  EXPECT_EQ(PlanToLine(**plan, w.model->registry()), base.line);
}

// A transformation whose match was still waiting on its input class's
// exploration when the budget tripped must not stay marked as fired on its
// expression: the next Optimize on the same memo has to apply it, whether
// the tripped run was frozen (and the fresh Optimize abandons it) or
// unwound. The duplicate-free join rules derive each join once, so a rule
// left marked loses its expressions for good; the next Optimize must reach
// the uninterrupted run's memo and plan.
TEST(SuspendResume, StoppedMatchIsAppliedByTheNextOptimize) {
  int stopped = 0;
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    rel::WorkloadOptions wopts;
    wopts.num_relations = 4 + static_cast<int>(seed % 2);
    wopts.join_graph = rel::WorkloadOptions::JoinGraph::kChain;
    wopts.order_by_prob = 0.5;
    rel::Workload w = rel::GenerateWorkload(wopts, seed);
    ASSERT_NE(w.model->rule_set().transformation(0).disables(), 0u);
    for (auto strategy : {SearchOptions::Strategy::kExploreFirst,
                          SearchOptions::Strategy::kInterleaved}) {
      SearchOptions ref_opts;
      ref_opts.strategy = strategy;
      Optimizer ref(*w.model, SearchConfig::FromOptions(ref_opts).value());
      StatusOr<PlanPtr> ref_plan = ref.Optimize(*w.query, w.required);
      ASSERT_TRUE(ref_plan.ok()) << ref_plan.status().ToString();
      const std::string ref_line =
          PlanToLine(**ref_plan, w.model->registry());
      const size_t ref_mexprs = ref.stats().mexprs_created;
      for (uint64_t at = 1; at <= 60; ++at) {
        for (bool suspend : {true, false}) {
          const std::string where =
              "seed " + std::to_string(seed) + " trip at " +
              std::to_string(at) + (suspend ? " (suspended)" : "") +
              (strategy == SearchOptions::Strategy::kInterleaved
                   ? " interleaved"
                   : "");
          FaultInjector::Config fc;
          fc.expire_budget_at = at;
          FaultInjector injector(fc);
          SearchOptions opts = ref_opts;
          opts.suspend_on_trip = suspend;
          opts.fault = &injector;
          Optimizer opt(*w.model, SearchConfig::FromOptions(opts).value());
          (void)opt.Optimize(*w.query, w.required);
          if (opt.outcome().trip != BudgetTrip::kNone) ++stopped;
          StatusOr<PlanPtr> plan = opt.Optimize(*w.query, w.required);
          ASSERT_TRUE(plan.ok()) << where << ": " << plan.status().ToString();
          EXPECT_EQ(opt.stats().mexprs_created, ref_mexprs) << where;
          EXPECT_EQ(PlanToLine(**plan, w.model->registry()), ref_line)
              << where;
        }
      }
    }
  }
  // Most trip points fall inside the search, not after it.
  EXPECT_GT(stopped, 1000);
}

// A winner memoized after the exploration cap was reached was chosen from a
// cut-down space. The next Optimize on the same optimizer must not answer
// goals from it: each call either says its plan is approximate or returns
// the uncapped optimum. (Regression: the capped call's winners answered the
// second call, which fired too few transformations to reach the cap again,
// returned another plan and did not mark it approximate — on seed 1's
// 5-relation chain, with 30 expressions against the uncapped search's 50.)
TEST(SuspendResume, CappedWinnersDoNotAnswerTheNextOptimize) {
  int capped_calls = 0;
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    rel::WorkloadOptions wopts;
    wopts.num_relations = 4 + static_cast<int>(seed % 2);
    wopts.join_graph = rel::WorkloadOptions::JoinGraph::kChain;
    wopts.order_by_prob = 0.5;
    rel::Workload w = rel::GenerateWorkload(wopts, seed);
    Optimizer ref(*w.model);
    StatusOr<PlanPtr> ref_plan = ref.Optimize(*w.query, w.required);
    ASSERT_TRUE(ref_plan.ok()) << ref_plan.status().ToString();
    const std::string ref_line = PlanToLine(**ref_plan, w.model->registry());
    for (size_t cap : {5u, 8u, 13u}) {
      SearchOptions opts;
      opts.explore_limit = cap;
      Optimizer opt(*w.model, SearchConfig::FromOptions(opts).value());
      bool exact = false;
      // Each call fires up to `cap` more transformations, so the memo
      // reaches the uncapped closure within a few calls. (A cap below the
      // bindings of one rule application never gets there: the application
      // is cut and taken back on every call, so the caps start at 5.)
      for (int call = 1; call <= 100 && !exact; ++call) {
        const std::string where = "seed " + std::to_string(seed) + " cap " +
                                  std::to_string(cap) + " call " +
                                  std::to_string(call);
        StatusOr<PlanPtr> plan = opt.Optimize(*w.query, w.required);
        ASSERT_TRUE(plan.ok()) << where << ": " << plan.status().ToString();
        if (opt.outcome().approximate) {
          ++capped_calls;
          continue;
        }
        exact = true;
        EXPECT_EQ(PlanToLine(**plan, w.model->registry()), ref_line) << where;
        EXPECT_EQ((*plan)->cost()[0], (*ref_plan)->cost()[0]) << where;
        EXPECT_EQ(opt.stats().mexprs_created, ref.stats().mexprs_created)
            << where;
      }
      EXPECT_TRUE(exact) << "seed " << seed << " cap " << cap;
    }
  }
  EXPECT_GT(capped_calls, 18);  // every first call is cut short
}

// Big-join escalation + suspension: an above-threshold join installs
// override knobs (deadline, move limit, exploration cap) for the duration of
// the escalated call. A suspension mid-escalation must keep those overrides
// installed — Resume() continues the same escalated call — and hand the
// caller's own knobs back only when the call truly completes. (Regression:
// the overrides were once restored on the suspension return path, so the
// resumed search ran unbounded and diverged from the uninterrupted plan.)
TEST(SuspendResume, EscalationOverridesSurviveSuspension) {
  rel::WorkloadOptions wopts;
  wopts.num_relations = 25;  // far above join_seed_threshold (12)
  wopts.join_graph = rel::WorkloadOptions::JoinGraph::kChain;
  wopts.sorted_base_prob = 0.5;
  wopts.min_cardinality = 50;
  wopts.max_cardinality = 200;
  rel::Workload w = rel::GenerateWorkload(wopts, 21);

  SearchOptions opts;
  opts.join_seed = true;
  // A wide deterministic deadline: the escalation installs it, but the
  // explore-limit override bounds the search long before 60s of wall clock.
  opts.join_budget_ms = 60000.0;

  // Uninterrupted escalated reference.
  std::string base_line;
  {
    Optimizer opt(*w.model, SearchConfig::FromOptions(opts).value());
    StatusOr<PlanPtr> plan = opt.Optimize(*w.query, w.required);
    ASSERT_TRUE(plan.ok()) << plan.status().ToString();
    base_line = PlanToLine(**plan, w.model->registry());
    // Overrides are restored once the call completes.
    EXPECT_EQ(opt.options().move_limit, 0);
    EXPECT_EQ(opt.options().explore_limit, 0u);
    EXPECT_FALSE(opt.options().budget.has_deadline());
  }

  // Same search, preempted mid-escalation at a deterministic checkpoint.
  FaultInjector::Config fc;
  fc.seed = 21;
  fc.expire_budget_at = 40;
  FaultInjector injector(fc);
  SearchOptions suspending = opts;
  suspending.suspend_on_trip = true;
  suspending.fault = &injector;
  Optimizer opt(*w.model, SearchConfig::FromOptions(suspending).value());
  StatusOr<PlanPtr> plan = opt.Optimize(*w.query, w.required);
  ASSERT_FALSE(plan.ok());
  ASSERT_TRUE(opt.CanResume());
  // While suspended the escalation overrides must still be installed: the
  // continuation runs under the same bounded knobs as the first slice.
  EXPECT_GT(opt.options().move_limit, 0);
  EXPECT_GT(opt.options().explore_limit, 0u);
  EXPECT_TRUE(opt.options().budget.has_deadline());

  int resumes = 0;
  while (!plan.ok() && opt.CanResume()) {
    plan = opt.Resume();
    ASSERT_LT(++resumes, 1000);
  }
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  EXPECT_GE(opt.stats().suspensions, 1u);
  EXPECT_EQ(PlanToLine(**plan, w.model->registry()), base_line);
  // The call has completed: the caller's knobs are back.
  EXPECT_EQ(opt.options().move_limit, 0);
  EXPECT_EQ(opt.options().explore_limit, 0u);
  EXPECT_FALSE(opt.options().budget.has_deadline());
}

}  // namespace
}  // namespace volcano
