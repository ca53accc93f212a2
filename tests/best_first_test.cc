// Best-first engine tests: the bounded frontier container, memory-cap
// degradation (frontier_limit / memo_byte_limit), suspend/resume and
// abandon-reuse churn under Engine::kBestFirst, and the validation rules for
// the new knobs. Plan parity with the task engine is covered by
// tests/engine_differential_test.cc; this file covers everything the caps
// change.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "relational/query_gen.h"
#include "search/optimizer.h"
#include "search/search_config.h"
#include "support/bounded_heap.h"
#include "support/fault.h"

namespace volcano {
namespace {

rel::Workload MakeChain(int n, uint64_t seed, bool order_by) {
  rel::WorkloadOptions wopts;
  wopts.num_relations = n;
  wopts.join_graph = rel::WorkloadOptions::JoinGraph::kChain;
  wopts.hub_attr_prob = 0.25;
  wopts.sorted_base_prob = 0.5;
  wopts.order_by_prob = order_by ? 1.0 : 0.0;
  return rel::GenerateWorkload(wopts, seed);
}

SearchOptions BestFirstOptions() {
  SearchOptions opts;
  opts.engine = SearchOptions::Engine::kBestFirst;
  return opts;
}

// ---------------------------------------------------------------------------
// BoundedFrontier (support/bounded_heap.h)
// ---------------------------------------------------------------------------

TEST(BoundedFrontier, PopsByPriorityThenSequence) {
  BoundedFrontier<int> f;
  int evicted = 0;
  EXPECT_FALSE(f.Push(1.0, 2, 10, &evicted));
  EXPECT_FALSE(f.Push(3.0, 1, 30, &evicted));
  EXPECT_FALSE(f.Push(3.0, 0, 31, &evicted));  // ties: older seq first
  EXPECT_FALSE(f.Push(2.0, 3, 20, &evicted));
  EXPECT_EQ(f.size(), 4u);

  int out = 0;
  ASSERT_TRUE(f.PopBest(&out));
  EXPECT_EQ(out, 31);
  ASSERT_TRUE(f.PopBest(&out));
  EXPECT_EQ(out, 30);
  ASSERT_TRUE(f.PopBest(&out));
  EXPECT_EQ(out, 20);
  ASSERT_TRUE(f.PopBest(&out));
  EXPECT_EQ(out, 10);
  EXPECT_FALSE(f.PopBest(&out));
  EXPECT_TRUE(f.empty());
}

TEST(BoundedFrontier, CapacityEvictsTheWorstEntry) {
  BoundedFrontier<int> f(2);
  int evicted = 0;
  EXPECT_FALSE(f.Push(5.0, 1, 50, &evicted));
  EXPECT_FALSE(f.Push(4.0, 2, 40, &evicted));
  // A better entry displaces the current worst.
  EXPECT_TRUE(f.Push(6.0, 3, 60, &evicted));
  EXPECT_EQ(evicted, 40);
  EXPECT_EQ(f.size(), 2u);
  // A worse-than-everything entry is evicted immediately — it is the worst.
  EXPECT_TRUE(f.Push(1.0, 4, 11, &evicted));
  EXPECT_EQ(evicted, 11);
  EXPECT_EQ(f.size(), 2u);
  EXPECT_EQ(f.high_water(), 3u);  // transiently held 3 before each eviction

  int out = 0;
  ASSERT_TRUE(f.PopBest(&out));
  EXPECT_EQ(out, 60);
  ASSERT_TRUE(f.PopBest(&out));
  EXPECT_EQ(out, 50);
}

TEST(BoundedFrontier, EraseRemovesExactlyTheKeyedEntry) {
  BoundedFrontier<int> f;
  int evicted = 0;
  f.Push(2.0, 1, 21, &evicted);
  f.Push(2.0, 2, 22, &evicted);
  EXPECT_FALSE(f.Erase(2.0, 3));  // no such (priority, seq)
  EXPECT_TRUE(f.Erase(2.0, 1));
  EXPECT_FALSE(f.Erase(2.0, 1));  // already gone
  int out = 0;
  ASSERT_TRUE(f.PopBest(&out));
  EXPECT_EQ(out, 22);
  EXPECT_TRUE(f.empty());

  f.Push(1.0, 9, 19, &evicted);
  f.Clear();
  EXPECT_TRUE(f.empty());
  EXPECT_EQ(f.capacity(), 0u);
  f.set_capacity(1);
  EXPECT_EQ(f.capacity(), 1u);
}

// ---------------------------------------------------------------------------
// Memory caps
// ---------------------------------------------------------------------------

// A binding memo byte cap must (a) actually bound Memo::arena_bytes(), (b)
// still return a plan (greedy completion under the gate — anytime, never an
// error), and (c) flag the result approximate so serve never caches it.
TEST(BestFirst, MemoByteCapBoundsArenaAndFlagsApproximate) {
  // Find a chain whose uncapped best-first arena comfortably exceeds the
  // validation floor, so the minimum cap is guaranteed to bind (arena blocks
  // are coarse, so small grids can fit entirely inside the floor).
  constexpr size_t kCap = 128u << 10;
  double exhaustive_cost = 0.0;
  int n = 0;
  for (int cand : {10, 12, 14, 16}) {
    rel::Workload probe = MakeChain(cand, 1, /*order_by=*/true);
    Optimizer opt(*probe.model,
                  SearchConfig::FromOptions(BestFirstOptions()).value());
    StatusOr<PlanPtr> plan = opt.Optimize(*probe.query, probe.required);
    ASSERT_TRUE(plan.ok()) << plan.status().ToString();
    EXPECT_FALSE(opt.outcome().approximate);
    if (opt.memo().arena_bytes() > 2 * kCap) {
      n = cand;
      exhaustive_cost = probe.model->cost_model().Total((*plan)->cost());
      break;
    }
  }
  ASSERT_NE(n, 0) << "no probe workload makes the minimum cap bind";

  rel::Workload w = MakeChain(n, 1, /*order_by=*/true);
  SearchOptions capped = BestFirstOptions();
  capped.memo_byte_limit = kCap;
  Optimizer opt(*w.model, SearchConfig::FromOptions(capped).value());
  StatusOr<PlanPtr> plan = opt.Optimize(*w.query, w.required);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  EXPECT_LE(opt.memo().arena_bytes(), kCap);
  EXPECT_TRUE(opt.outcome().approximate);
  // Anytime quality: the capped plan is a real plan with finite cost. (The
  // 1.10x cost guard over a cap sweep lives in bench_report --frontier.)
  double capped_cost = w.model->cost_model().Total((*plan)->cost());
  EXPECT_GT(capped_cost, 0.0);
  EXPECT_GE(capped_cost, exhaustive_cost);  // cannot beat the optimum
}

// A cap far above the workload's needs must not perturb the search at all:
// same plan as uncapped, not approximate, arena under cap.
TEST(BestFirst, GenerousMemoCapIsInvisible) {
  rel::Workload w = MakeChain(6, 2, /*order_by=*/false);
  Optimizer base(*w.model,
                 SearchConfig::FromOptions(BestFirstOptions()).value());
  StatusOr<PlanPtr> base_plan = base.Optimize(*w.query, w.required);
  ASSERT_TRUE(base_plan.ok());

  SearchOptions capped = BestFirstOptions();
  capped.memo_byte_limit = 512u << 20;  // 512 MiB: never binds
  Optimizer opt(*w.model, SearchConfig::FromOptions(capped).value());
  StatusOr<PlanPtr> plan = opt.Optimize(*w.query, w.required);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  EXPECT_FALSE(opt.outcome().approximate);
  EXPECT_EQ(PlanToLine(**plan, w.model->registry()),
            PlanToLine(**base_plan, w.model->registry()));
  EXPECT_LE(opt.memo().arena_bytes(), 512u << 20);
}

// A tight frontier cap evicts goals mid-search; the search must still come
// back with a plan (degradation ladder), flagged approximate whenever an
// eviction actually shaped the result.
TEST(BestFirst, TightFrontierCapStaysAnytime) {
  for (uint64_t seed = 1; seed <= 3; ++seed) {
    rel::Workload w = MakeChain(8, seed, /*order_by=*/true);
    SearchOptions capped = BestFirstOptions();
    capped.frontier_limit = 8;
    Optimizer opt(*w.model, SearchConfig::FromOptions(capped).value());
    StatusOr<PlanPtr> plan = opt.Optimize(*w.query, w.required);
    SCOPED_TRACE("seed=" + std::to_string(seed));
    ASSERT_TRUE(plan.ok()) << plan.status().ToString();
    // An 8-entry frontier cannot hold an 8-relation chain's goal fan-out:
    // evictions must have happened, and the plan is therefore approximate.
    EXPECT_TRUE(opt.outcome().approximate);
  }
}

// A generous frontier cap must be invisible (no eviction, exact plan).
TEST(BestFirst, GenerousFrontierCapIsInvisible) {
  rel::Workload w = MakeChain(6, 1, /*order_by=*/true);
  Optimizer base(*w.model,
                 SearchConfig::FromOptions(BestFirstOptions()).value());
  StatusOr<PlanPtr> base_plan = base.Optimize(*w.query, w.required);
  ASSERT_TRUE(base_plan.ok());

  SearchOptions capped = BestFirstOptions();
  capped.frontier_limit = 1u << 20;
  Optimizer opt(*w.model, SearchConfig::FromOptions(capped).value());
  StatusOr<PlanPtr> plan = opt.Optimize(*w.query, w.required);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  EXPECT_FALSE(opt.outcome().approximate);
  EXPECT_EQ(PlanToLine(**plan, w.model->registry()),
            PlanToLine(**base_plan, w.model->registry()));
}

// ---------------------------------------------------------------------------
// Suspend / resume / abandon under kBestFirst
// ---------------------------------------------------------------------------

// Preemption must be invisible to the best-first result, exactly as the
// task-engine contract in suspend_resume_test.cc: trip + Resume() == the
// uninterrupted plan.
TEST(BestFirst, SuspendAndResumeMatchesUninterrupted) {
  int suspended_scenarios = 0;
  for (uint64_t seed = 1; seed <= 12; ++seed) {
    rel::Workload w = MakeChain(5 + static_cast<int>(seed % 3), seed,
                                seed % 2 == 0);
    Optimizer base(*w.model,
                   SearchConfig::FromOptions(BestFirstOptions()).value());
    StatusOr<PlanPtr> base_plan = base.Optimize(*w.query, w.required);
    if (!base_plan.ok()) continue;
    std::string base_line = PlanToLine(**base_plan, w.model->registry());

    FaultInjector::Config fc;
    fc.seed = seed;
    fc.expire_budget_at = 1 + (seed * 13) % 50;
    FaultInjector injector(fc);
    SearchOptions opts = BestFirstOptions();
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
    EXPECT_EQ(PlanToLine(**plan, w.model->registry()), base_line)
        << "seed " << seed;
    if (suspended) {
      ++suspended_scenarios;
      EXPECT_GE(opt.stats().suspensions, 1u) << "seed " << seed;
      EXPECT_FALSE(opt.CanResume()) << "seed " << seed;
    }
  }
  EXPECT_GE(suspended_scenarios, 8);
}

// Churn: suspend, abandon (via ResetForReuse or a fresh Optimize), repeat.
// Every abandoned best-first run must clear its frontier state completely —
// any leaked in-progress mark, waiter edge, or frontier entry shows up as a
// wrong plan or a crash within a few cycles.
TEST(BestFirst, SuspendAbandonReuseChurn) {
  rel::Workload w = MakeChain(6, 3, /*order_by=*/true);
  Optimizer base(*w.model,
                 SearchConfig::FromOptions(BestFirstOptions()).value());
  StatusOr<PlanPtr> base_plan = base.Optimize(*w.query, w.required);
  ASSERT_TRUE(base_plan.ok());
  std::string expected = PlanToLine(**base_plan, w.model->registry());

  FaultInjector::Config fc;
  fc.seed = 11;
  fc.budget_expiry_prob = 0.01;  // trips repeatedly, at varying depths
  FaultInjector injector(fc);
  SearchOptions opts = BestFirstOptions();
  opts.suspend_on_trip = true;
  opts.fault = &injector;
  Optimizer opt(*w.model, SearchConfig::FromOptions(opts).value());

  int abandoned = 0;
  size_t high_water = 0;
  for (int cycle = 0; cycle < 60; ++cycle) {
    StatusOr<PlanPtr> plan = opt.Optimize(*w.query, w.required);
    if (!plan.ok() && opt.CanResume()) {
      // Abandon the suspended run instead of resuming. Odd cycles go
      // through ResetForReuse (the serving path); even cycles rely on the
      // next Optimize sweeping the stale suspension itself.
      ++abandoned;
      if (cycle % 2 == 1) {
        opt.ResetForReuse();
        EXPECT_FALSE(opt.CanResume());
      }
      continue;
    }
    ASSERT_TRUE(plan.ok()) << "cycle " << cycle << ": "
                           << plan.status().ToString();
    ASSERT_EQ(PlanToLine(**plan, w.model->registry()), expected)
        << "cycle " << cycle;
    size_t bytes = opt.memo().arena_bytes();
    if (cycle < 10) {
      high_water = std::max(high_water, bytes);
    } else if (high_water != 0) {
      EXPECT_LE(bytes, high_water) << "cycle " << cycle;
    }
  }
  // The sweep is only meaningful if abandonment actually happened.
  EXPECT_GE(abandoned, 5);
}

// ---------------------------------------------------------------------------
// Knob validation
// ---------------------------------------------------------------------------

TEST(BestFirst, ValidationRejectsInvalidKnobCombinations) {
  struct Case {
    const char* name;
    SearchOptions opts;
  };
  std::vector<Case> cases;
  {
    SearchOptions o;  // kTask
    o.frontier_limit = 64;
    cases.push_back({"frontier_limit requires kBestFirst", o});
  }
  {
    SearchOptions o;  // kTask
    o.memo_byte_limit = 1u << 20;
    cases.push_back({"memo_byte_limit requires kBestFirst", o});
  }
  {
    SearchOptions o = BestFirstOptions();
    o.frontier_limit = 4;  // below the floor of 8
    cases.push_back({"frontier_limit below floor", o});
  }
  {
    SearchOptions o = BestFirstOptions();
    o.memo_byte_limit = 1024;  // below the 128 KiB floor
    cases.push_back({"memo_byte_limit below floor", o});
  }
  {
    SearchOptions o = BestFirstOptions();
    o.strategy = SearchOptions::Strategy::kInterleaved;
    cases.push_back({"best-first is kExploreFirst only", o});
  }
  {
    SearchOptions o = BestFirstOptions();
    o.glue_properties = true;
    cases.push_back({"best-first has no glue path", o});
  }
  for (const Case& c : cases) {
    StatusOr<SearchConfig> cfg = SearchConfig::FromOptions(c.opts);
    EXPECT_FALSE(cfg.ok()) << c.name;
    if (!cfg.ok()) {
      EXPECT_EQ(cfg.status().code(), Status::Code::kInvalidArgument)
          << c.name;
    }
  }
  // And the valid shapes pass.
  SearchOptions ok = BestFirstOptions();
  ok.frontier_limit = 8;
  ok.memo_byte_limit = 128u << 10;
  ok.suspend_on_trip = true;
  EXPECT_TRUE(SearchConfig::FromOptions(ok).ok());
}

}  // namespace
}  // namespace volcano
