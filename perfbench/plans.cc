#include "plans.h"

#include <algorithm>

#include "search/optimizer.h"
#include "search/search_config.h"

namespace perfbench {

using volcano::SearchStats;

Compiled CompileQuery(const std::string& sql,
                      const volcano::rel::RelModel& model,
                      volcano::rel::Catalog& catalog, PlanTotals* totals,
                      SpanLog* log, uint64_t request) {
  Compiled c;
  volcano::StatusOr<volcano::rel::ParsedQuery> parsed =
      volcano::rel::ParseSql(sql, model, catalog.symbols());
  if (!parsed.ok()) {
    ++totals->failures;
    return c;
  }
  c.query = *parsed;
  volcano::Optimizer opt(
      model,
      volcano::SearchConfig::FromOptions(volcano::SearchOptions{}).value());
  volcano::StatusOr<volcano::PlanPtr> plan = [&] {
    ScopedSpan span(log, "search.optimize", request);
    return opt.Optimize(*c.query.expr, c.query.required);
  }();
  if (!plan.ok()) {
    ++totals->failures;
    return c;
  }
  c.plan = *plan;
  const volcano::Cost& cost = c.plan->cost();
  for (int i = 0; i < cost.dims(); ++i) totals->cost_sum += cost[i];

  const SearchStats& s = opt.stats();
  SearchStats& t = totals->stats;
  t.mexprs_created += s.mexprs_created;
  t.tasks_executed += s.tasks_executed;
  t.cost_estimates += s.cost_estimates;
  t.transformations_applied += s.transformations_applied;
  t.moves_pruned += s.moves_pruned;
  t.memo_winner_hits += s.memo_winner_hits;
  t.algorithm_moves += s.algorithm_moves;
  t.enforcer_moves += s.enforcer_moves;
  totals->max_arena_bytes =
      std::max(totals->max_arena_bytes, opt.memo().arena_bytes());
  return c;
}

PlanTotals OptimizeList(volcano::rel::Catalog& catalog,
                        const std::vector<std::string>& sqls, SpanLog* log) {
  volcano::rel::RelModel model(catalog);
  PlanTotals totals;
  for (size_t i = 0; i < sqls.size(); ++i) {
    CompileQuery(sqls[i], model, catalog, &totals, log, i);
  }
  return totals;
}

void ReportSearchTotals(const PlanTotals& totals, Report* report) {
  const SearchStats& s = totals.stats;
  auto count = [&](const char* name, uint64_t v) {
    report->Metric(name, static_cast<double>(v), "count");
  };
  count("search.mexprs_created", s.mexprs_created);
  count("search.tasks_executed", s.tasks_executed);
  count("search.cost_estimates", s.cost_estimates);
  count("search.transformations_applied", s.transformations_applied);
  count("search.moves_pruned", s.moves_pruned);
  count("search.memo_winner_hits", s.memo_winner_hits);
  uint64_t moves = s.algorithm_moves + s.enforcer_moves;
  report->Metric("search.prune_ratio",
                 moves == 0 ? 0.0
                            : static_cast<double>(s.moves_pruned) /
                                  static_cast<double>(moves),
                 "ratio");
}

}  // namespace perfbench
