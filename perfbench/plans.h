// Optimizing a fixed list of SQL queries through the search layer's public
// API (rel::ParseSql + Optimizer::Optimize): the source of `plan_cost_sum`
// and of the exact SearchStats sums the traced run reports.

#ifndef PERFBENCH_PLANS_H_
#define PERFBENCH_PLANS_H_

#include <string>
#include <vector>

#include "harness.h"
#include "relational/catalog.h"
#include "relational/rel_model.h"
#include "relational/sql.h"
#include "search/plan.h"
#include "search/search_options.h"

namespace perfbench {

/// One optimized query.
struct Compiled {
  volcano::rel::ParsedQuery query;
  volcano::PlanPtr plan;  ///< null when parsing or optimizing failed
};

/// Totals over a query list.
struct PlanTotals {
  double cost_sum = 0.0;  ///< estimated cost (io + cpu seconds) of all plans
  volcano::SearchStats stats;  ///< counters summed over the list
  size_t max_arena_bytes = 0;  ///< largest memo arena any query needed
  int failures = 0;            ///< queries that did not parse or optimize
};

/// Parses and optimizes `sql` with a fresh optimizer in the default search
/// configuration, folding its cost and counters into `totals`. A
/// "search.optimize" span covers the Optimize call when `log` is set.
Compiled CompileQuery(const std::string& sql, const volcano::rel::RelModel& model,
                      volcano::rel::Catalog& catalog, PlanTotals* totals,
                      SpanLog* log, uint64_t request);

/// CompileQuery over a whole list, against a model derived from `catalog`.
PlanTotals OptimizeList(volcano::rel::Catalog& catalog,
                        const std::vector<std::string>& sqls, SpanLog* log);

/// Reports the search.* counters of the traced run.
void ReportSearchTotals(const PlanTotals& totals, Report* report);

}  // namespace perfbench

#endif  // PERFBENCH_PLANS_H_
