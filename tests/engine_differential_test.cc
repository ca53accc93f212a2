// Differential engine tests: the task engine must choose byte-identical plans
// at identical cost to the recursive Figure-2 engine on every committed
// workload. This is the acceptance gate
// for the explicit search core — any divergence in budget checkpoints, move
// ordering, branch-and-bound limits, or tie-breaking shows up here as a
// plan-line mismatch long before it would move the committed plan digest
// (tools/plan_digest).

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "relational/query_gen.h"
#include "search/optimizer.h"
#include "search/search_config.h"
#include "search/trace_io.h"

namespace volcano {
namespace {

struct RunOutput {
  bool ok = false;
  std::string status;
  std::string plan_line;
  double cost = 0.0;
  SearchStats stats;
};

RunOutput RunOne(const rel::Workload& w, const SearchOptions& opts) {
  Optimizer opt(*w.model, SearchConfig::FromOptions(opts).value());
  StatusOr<PlanPtr> plan = opt.Optimize(*w.query, w.required);
  RunOutput out;
  out.stats = opt.stats();
  if (!plan.ok()) {
    out.status = plan.status().ToString();
    return out;
  }
  out.ok = true;
  out.plan_line = PlanToLine(**plan, w.model->registry());
  out.cost = w.model->cost_model().Total((*plan)->cost());
  return out;
}

rel::Workload MakeChain(int n, uint64_t seed, bool order_by) {
  rel::WorkloadOptions wopts;
  wopts.num_relations = n;
  wopts.join_graph = rel::WorkloadOptions::JoinGraph::kChain;
  wopts.hub_attr_prob = 0.25;
  wopts.sorted_base_prob = 0.5;
  wopts.order_by_prob = order_by ? 1.0 : 0.0;
  return rel::GenerateWorkload(wopts, seed);
}

// The same grid the committed plan digest covers: chain joins of 2..10
// relations x 3 seeds, with and without ORDER BY.
TEST(EngineDifferential, TaskMatchesRecursiveOnDigestGrid) {
  for (int order_by = 0; order_by <= 1; ++order_by) {
    for (int n = 2; n <= 10; ++n) {
      for (uint64_t seed = 1; seed <= 3; ++seed) {
        rel::Workload w = MakeChain(n, seed, order_by != 0);
        SearchOptions recursive;
        recursive.engine = SearchOptions::Engine::kRecursive;
        SearchOptions task;
        task.engine = SearchOptions::Engine::kTask;

        RunOutput r = RunOne(w, recursive);
        RunOutput t = RunOne(w, task);
        SCOPED_TRACE("n=" + std::to_string(n) + " seed=" +
                     std::to_string(seed) + " order_by=" +
                     std::to_string(order_by));
        ASSERT_EQ(r.ok, t.ok) << r.status << " vs " << t.status;
        if (!r.ok) continue;
        EXPECT_EQ(r.plan_line, t.plan_line);
        EXPECT_DOUBLE_EQ(r.cost, t.cost);
        // Effort parity: the task engine replicates the recursive control
        // flow site for site, so the shared counters agree exactly.
        EXPECT_EQ(r.stats.find_best_plan_calls, t.stats.find_best_plan_calls);
        EXPECT_EQ(r.stats.goals_started, t.stats.goals_started);
        EXPECT_EQ(r.stats.algorithm_moves, t.stats.algorithm_moves);
        EXPECT_EQ(r.stats.enforcer_moves, t.stats.enforcer_moves);
        EXPECT_EQ(r.stats.moves_pruned, t.stats.moves_pruned);
        EXPECT_EQ(r.stats.budget_checkpoints, t.stats.budget_checkpoints);
        // And only the task engine steps tasks.
        EXPECT_EQ(r.stats.tasks_executed, 0u);
        EXPECT_GT(t.stats.tasks_executed, 0u);
      }
    }
  }
}

// The best-first engine schedules goals from a global frontier instead of a
// depth-first stack, but with no caps set it demands every subgoal at an
// infinite limit and reduces each goal's moves in canonical order — so its
// plans (and costs) are identical to the task engine's across the digest
// grid. Effort counters legitimately differ (the schedule is global, and
// branch-and-bound cannot prune an already-demanded subgoal), so only plan
// and cost are compared.
TEST(EngineDifferential, BestFirstMatchesTaskOnDigestGrid) {
  for (int order_by = 0; order_by <= 1; ++order_by) {
    for (int n = 2; n <= 10; ++n) {
      for (uint64_t seed = 1; seed <= 3; ++seed) {
        rel::Workload w = MakeChain(n, seed, order_by != 0);
        SearchOptions task;
        task.engine = SearchOptions::Engine::kTask;
        SearchOptions bf;
        bf.engine = SearchOptions::Engine::kBestFirst;

        RunOutput t = RunOne(w, task);
        RunOutput b = RunOne(w, bf);
        SCOPED_TRACE("n=" + std::to_string(n) + " seed=" +
                     std::to_string(seed) + " order_by=" +
                     std::to_string(order_by));
        ASSERT_EQ(t.ok, b.ok) << t.status << " vs " << b.status;
        if (!t.ok) continue;
        EXPECT_EQ(t.plan_line, b.plan_line);
        EXPECT_DOUBLE_EQ(t.cost, b.cost);
      }
    }
  }
}

// The interleaved (Figure 2 verbatim) strategy: plans match the recursive
// engine.
TEST(EngineDifferential, InterleavedStrategyMatchesAcrossEngines) {
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    rel::Workload w = MakeChain(4, seed, seed % 2 == 0);
    SearchOptions recursive;
    recursive.engine = SearchOptions::Engine::kRecursive;
    recursive.strategy = SearchOptions::Strategy::kInterleaved;
    SearchOptions task = recursive;
    task.engine = SearchOptions::Engine::kTask;

    RunOutput r = RunOne(w, recursive);
    RunOutput t = RunOne(w, task);
    SCOPED_TRACE("seed=" + std::to_string(seed));
    ASSERT_EQ(r.ok, t.ok) << r.status << " vs " << t.status;
    if (!r.ok) continue;
    EXPECT_EQ(r.plan_line, t.plan_line);
    EXPECT_DOUBLE_EQ(r.cost, t.cost);
  }
}

// Glue-properties ablation: both engines run the Starburst-style glue path.
TEST(EngineDifferential, GluePropertiesMatchesAcrossEngines) {
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    rel::Workload w = MakeChain(4, seed, /*order_by=*/true);
    SearchOptions recursive;
    recursive.engine = SearchOptions::Engine::kRecursive;
    recursive.glue_properties = true;
    SearchOptions task = recursive;
    task.engine = SearchOptions::Engine::kTask;

    RunOutput r = RunOne(w, recursive);
    RunOutput t = RunOne(w, task);
    SCOPED_TRACE("seed=" + std::to_string(seed));
    ASSERT_EQ(r.ok, t.ok) << r.status << " vs " << t.status;
    if (!r.ok) continue;
    EXPECT_EQ(r.plan_line, t.plan_line);
    EXPECT_DOUBLE_EQ(r.cost, t.cost);
  }
}

// Trace determinism: the optimizer stamps every event with a 1-based,
// strictly contiguous per-optimizer sequence number.
TEST(EngineDifferential, TraceSequenceIsMonotonicAndContiguous) {
  rel::Workload w = MakeChain(5, 1, /*order_by=*/false);
  TraceLog log;
  SearchOptions opts;
  opts.trace = &log;
  Optimizer opt(*w.model, SearchConfig::FromOptions(opts).value());
  ASSERT_TRUE(opt.Optimize(*w.query, w.required).ok());
  ASSERT_FALSE(log.entries().empty());
  uint64_t expect_seq = 1;
  for (const TraceLog::Entry& e : log.entries()) {
    EXPECT_EQ(e.event.seq, expect_seq);
    ++expect_seq;
  }
}

}  // namespace
}  // namespace volcano
