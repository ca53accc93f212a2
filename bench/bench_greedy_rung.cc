// Greedy rung: the degradation ladder's greedy descent under a call cap,
// with the classic and the duplicate-free join rules.
//
// The greedy descent (Optimizer::GreedyPlan) plans over whatever the search
// had derived when the budget tripped, so its plans depend on the rule set:
// the classic rules explore every join's input classes as a side effect of
// re-deriving joins, the duplicate-free rules only the classes a goal or a
// match needs. For each FindBestPlan-call cap this prints, per rule set,
// the geometric mean over the queries of plan cost / exhaustive optimum
// and where the plans came from (greedy descent, anytime incumbent, or a
// search that finished under the cap).
//
// Queries: query_gen chains and stars of 4-8 relations, seeds 1-5, ORDER BY
// with probability 0.5. Output is exact on any host.
//
// Usage: bench_greedy_rung

#include <cmath>
#include <cstdio>

#include "relational/query_gen.h"
#include "search/optimizer.h"
#include "search/search_config.h"

namespace volcano {
namespace {

int Run() {
  using JoinGraph = rel::WorkloadOptions::JoinGraph;
  for (JoinGraph graph : {JoinGraph::kChain, JoinGraph::kStar}) {
    for (uint64_t cap : {5, 10, 20, 40, 80, 160, 320}) {
      for (bool classic : {true, false}) {
        double log_ratio = 0.0;
        int queries = 0;
        int greedy = 0;
        int anytime = 0;
        int complete = 0;
        for (int n = 4; n <= 8; ++n) {
          for (uint64_t seed = 1; seed <= 5; ++seed) {
            rel::WorkloadOptions wopts;
            wopts.num_relations = n;
            wopts.join_graph = graph;
            wopts.sorted_base_prob = 0.5;
            wopts.order_by_prob = 0.5;
            rel::RelModelOptions mopts;
            mopts.duplicate_free_joins = !classic;
            rel::Workload w = rel::GenerateWorkload(wopts, seed, mopts);
            Optimizer exhaustive(*w.model);
            StatusOr<PlanPtr> best = exhaustive.Optimize(*w.query, w.required);
            SearchOptions options;
            options.budget.max_find_best_plan_calls = cap;
            Optimizer capped(*w.model,
                             SearchConfig::FromOptions(options).value());
            StatusOr<PlanPtr> plan = capped.Optimize(*w.query, w.required);
            if (!best.ok() || !plan.ok()) {
              std::fprintf(stderr, "n=%d seed=%llu: no plan\n", n,
                           static_cast<unsigned long long>(seed));
              return 2;
            }
            const CostModel& cm = w.model->cost_model();
            log_ratio +=
                std::log(cm.Total((*plan)->cost()) / cm.Total((*best)->cost()));
            ++queries;
            switch (capped.outcome().source) {
              case PlanSource::kHeuristic:
                ++greedy;
                break;
              case PlanSource::kAnytimeIncumbent:
                ++anytime;
                break;
              default:
                ++complete;
            }
          }
        }
        std::printf(
            "greedy_rung topology=%s cap=%llu rules=%s cost_ratio=%.3f "
            "greedy=%d anytime=%d complete=%d\n",
            graph == JoinGraph::kChain ? "chain" : "star",
            static_cast<unsigned long long>(cap),
            classic ? "classic" : "duplicate_free",
            std::exp(log_ratio / queries), greedy, anytime, complete);
      }
    }
  }
  return 0;
}

}  // namespace
}  // namespace volcano

int main() { return volcano::Run(); }
