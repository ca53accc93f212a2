// Pinned search outputs for tests that check the search engine against
// recorded reference values rather than against a second engine.

#ifndef VOLCANO_TESTS_PINNED_SEARCH_H_
#define VOLCANO_TESTS_PINNED_SEARCH_H_

#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "algebra/data_model.h"
#include "search/optimizer.h"
#include "search/search_config.h"

namespace volcano {

// What a pinned check records over its queries: an FNV-1a digest over one
// line per query (folded as tools/plan_digest folds them), the summed plan
// cost, and six search-work counts.
struct Pinned {
  uint64_t digest = 0xcbf29ce484222325ULL;  // FNV-1a offset basis
  double cost_sum = 0.0;
  uint64_t mexprs_created = 0;
  uint64_t mexprs_deduped = 0;
  uint64_t transformations_applied = 0;
  uint64_t cost_estimates = 0;
  uint64_t moves_pruned = 0;
  uint64_t memo_winner_hits = 0;

  // Optimizes one query, folds "<label> cost=<cost> plan=<plan>" (or
  // "<label> status=<status>") into the digest and returns its stats.
  SearchStats Add(const DataModel& model, const Expr& query,
           const PhysPropsPtr& required, const SearchOptions& options,
           const std::string& label) {
    Optimizer opt(model, SearchConfig::FromOptions(options).value());
    StatusOr<PlanPtr> plan = opt.Optimize(query, required);
    std::string line = label;
    if (plan.ok()) {
      const CostModel& cm = model.cost_model();
      line += " cost=" + cm.ToString((*plan)->cost()) +
              " plan=" + PlanToLine(**plan, model.registry());
      cost_sum += cm.Total((*plan)->cost());
    } else {
      line += " status=" + plan.status().ToString();
    }
    for (unsigned char c : line) {
      digest ^= c;
      digest *= 0x100000001b3ULL;
    }
    const SearchStats s = opt.stats();
    mexprs_created += s.mexprs_created;
    mexprs_deduped += s.mexprs_deduped;
    transformations_applied += s.transformations_applied;
    cost_estimates += s.cost_estimates;
    moves_pruned += s.moves_pruned;
    memo_winner_hits += s.memo_winner_hits;
    return s;
  }

  void ExpectEq(const Pinned& want) const {
    EXPECT_EQ(digest, want.digest) << std::hex << digest;
    EXPECT_DOUBLE_EQ(cost_sum, want.cost_sum);
    EXPECT_EQ(mexprs_created, want.mexprs_created);
    EXPECT_EQ(mexprs_deduped, want.mexprs_deduped);
    EXPECT_EQ(transformations_applied, want.transformations_applied);
    EXPECT_EQ(cost_estimates, want.cost_estimates);
    EXPECT_EQ(moves_pruned, want.moves_pruned);
    EXPECT_EQ(memo_winner_hits, want.memo_winner_hits);
  }
};

}  // namespace volcano

#endif  // VOLCANO_TESTS_PINNED_SEARCH_H_
