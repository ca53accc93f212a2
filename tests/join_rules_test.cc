// The duplicate-free join rules (RelModelOptions::duplicate_free_joins)
// against the classic ones. Each rule disables, on the join it creates, the
// rules that would only re-derive joins the memo already holds; the claim
// is that the search still reaches the same space and chooses the same
// plans, from fewer transformations. Checked query by query over chain,
// star, clique and random-tree joins of 2 to 8 relations.

#include <gtest/gtest.h>

#include <string>

#include "relational/query_gen.h"
#include "search/optimizer.h"
#include "search/search_config.h"

namespace volcano {
namespace {

struct SearchRun {
  std::string plan;  ///< plan line, or the status of a failed search
  double cost = 0.0;
  SearchStats stats;
};

SearchRun Optimize(const rel::WorkloadOptions& wopts, uint64_t seed,
                   bool classic, const SearchOptions& options) {
  rel::RelModelOptions mopts;
  mopts.duplicate_free_joins = !classic;
  rel::Workload w = rel::GenerateWorkload(wopts, seed, mopts);
  Optimizer opt(*w.model, SearchConfig::FromOptions(options).value());
  StatusOr<PlanPtr> plan = opt.Optimize(*w.query, w.required);
  SearchRun run;
  if (plan.ok()) {
    run.plan = PlanToLine(**plan, w.model->registry());
    run.cost = w.model->cost_model().Total((*plan)->cost());
  } else {
    run.plan = plan.status().ToString();
  }
  run.stats = opt.stats();
  return run;
}

// The same plan; or, under the interleaved strategy, a plan whose cost
// differs from the classic one's by rounding only. The interleaved rounds
// reach the classes in another order under the duplicate-free rules and
// can return the other of two plans whose costs differ only in the order
// their parts were summed (one clique query, n=6 seed=1 with ORDER BY:
// second cost component 0.17150037521417255 against the classic
// 0.17150037521417258).
void ExpectSamePlan(const SearchRun& got, const SearchRun& want,
                    bool interleaved) {
  if (interleaved && got.plan != want.plan) {
    EXPECT_NEAR(got.cost, want.cost, 1e-12 * want.cost)
        << got.plan << "\n" << want.plan;
    return;
  }
  EXPECT_EQ(got.plan, want.plan);
  EXPECT_EQ(got.cost, want.cost);
}

TEST(JoinRules, DuplicateFreeMatchesClassicSpace) {
  using JoinGraph = rel::WorkloadOptions::JoinGraph;
  using Strategy = SearchOptions::Strategy;
  int queries = 0;
  for (JoinGraph graph : {JoinGraph::kChain, JoinGraph::kStar,
                          JoinGraph::kClique, JoinGraph::kRandomTree}) {
    for (int n = 2; n <= 8; ++n) {
      for (uint64_t seed = 1; seed <= 3; ++seed) {
        for (bool order_by : {false, true}) {
          for (Strategy strategy :
               {Strategy::kExploreFirst, Strategy::kInterleaved}) {
            const bool interleaved = strategy == Strategy::kInterleaved;
            rel::WorkloadOptions wopts;
            wopts.num_relations = n;
            wopts.join_graph = graph;
            wopts.sorted_base_prob = 0.5;
            wopts.order_by_prob = order_by ? 1.0 : 0.0;
            SCOPED_TRACE("graph " + std::to_string(static_cast<int>(graph)) +
                         " n=" + std::to_string(n) +
                         " seed=" + std::to_string(seed) +
                         (order_by ? " order_by" : "") +
                         (interleaved ? " interleaved" : ""));
            SearchOptions options;
            options.strategy = strategy;

            // Without pruning every class is explored in full, so the two
            // rule sets must derive the very same expressions.
            options.branch_and_bound = false;
            SearchRun classic = Optimize(wopts, seed, /*classic=*/true,
                                         options);
            SearchRun dup_free = Optimize(wopts, seed, /*classic=*/false,
                                          options);
            ExpectSamePlan(dup_free, classic, interleaved);
            EXPECT_EQ(dup_free.stats.mexprs_created,
                      classic.stats.mexprs_created);
            EXPECT_EQ(dup_free.stats.cost_estimates,
                      classic.stats.cost_estimates);
            EXPECT_LT(dup_free.stats.transformations_applied,
                      classic.stats.transformations_applied);

            // With pruning, branch-and-bound may skip classes the classic
            // rules used to fill as a side effect of duplicate derivations;
            // the plans, and under the default strategy the costing work,
            // stay the same. (The interleaved strategy costs each round's
            // new moves, so its cost estimates follow the order in which
            // the classes grow.)
            options.branch_and_bound = true;
            classic = Optimize(wopts, seed, /*classic=*/true, options);
            dup_free = Optimize(wopts, seed, /*classic=*/false, options);
            ExpectSamePlan(dup_free, classic, interleaved);
            EXPECT_LT(dup_free.stats.transformations_applied,
                      classic.stats.transformations_applied);
            if (!interleaved) {
              EXPECT_EQ(dup_free.stats.cost_estimates,
                        classic.stats.cost_estimates);
              EXPECT_EQ(dup_free.stats.moves_pruned,
                        classic.stats.moves_pruned);
              EXPECT_EQ(dup_free.stats.memo_winner_hits,
                        classic.stats.memo_winner_hits);
            }
            ++queries;
          }
        }
      }
    }
  }
  EXPECT_EQ(queries, 4 * 7 * 3 * 2 * 2);
}

// The masks are set only when all three join rules are registered, and the
// option turns them off.
TEST(JoinRules, MasksNeedAllThreeJoinRules) {
  rel::WorkloadOptions wopts;
  wopts.num_relations = 3;
  auto masks = [&](const rel::RelModelOptions& mopts) {
    rel::Workload w = rel::GenerateWorkload(wopts, 1, mopts);
    uint64_t any = 0;
    for (const auto& rule : w.model->rule_set().transformations()) {
      any |= rule->disables();
    }
    return any;
  };
  rel::RelModelOptions mopts;
  EXPECT_EQ(masks(mopts), 0b111u);  // join_commute, assoc_left, assoc_right
  mopts.duplicate_free_joins = false;
  EXPECT_EQ(masks(mopts), 0u);
  mopts.duplicate_free_joins = true;
  mopts.enable_join_assoc_right = false;
  EXPECT_EQ(masks(mopts), 0u);
}

}  // namespace
}  // namespace volcano
