// TPC-H-shaped decision-support benchmark: the query family of
// rel::MakeTpchWorkload (DESIGN.md §14) end to end — SQL text through
// ParseSql, the optimizer, plan validation, and iterator execution checked
// row-for-row against the naive logical evaluator.
//
// Two line families, both parsed by `tools/bench_report --tpch`:
//
//   tpch         — one line per query: optimize time, plan validity,
//                  optimized-vs-naive row parity (match=1 means the
//                  multisets agree after column reordering; DISTINCT
//                  queries dedup the oracle side first, since uniqueness
//                  is a *required property* the naive evaluator ignores),
//                  and execution wall clock.
//   tpch_unnest  — for each subquery-bearing query, the same plan executed
//                  with unnesting disabled (the only SUBQUERY
//                  implementation left is the quadratic NESTED_SUBQ — the
//                  naive correlated baseline) vs enabled. bench_report
//                  guards the aggregate speedup (sum of nested times over
//                  sum of unnested times).
//
// Usage: bench_tpch [reps]

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <string>
#include <vector>

#include "exec/datagen.h"
#include "exec/plan_exec.h"
#include "relational/query_gen.h"
#include "relational/rel_plan_cost.h"
#include "relational/rel_props.h"
#include "relational/sql.h"
#include "search/optimizer.h"
#include "search/search_config.h"
#include "support/timer.h"

namespace volcano {
namespace {

constexpr uint64_t kDataSeed = 20260;

struct Compiled {
  rel::ParsedQuery query;
  PlanPtr plan;
  double opt_ms = 0.0;
};

Compiled Compile(const rel::TpchWorkload& w, const rel::TpchQuery& q) {
  StatusOr<rel::ParsedQuery> parsed =
      rel::ParseSql(q.sql, *w.model, w.catalog->symbols());
  if (!parsed.ok()) {
    std::fprintf(stderr, "%s: parse failed: %s\n", q.name.c_str(),
                 parsed.status().ToString().c_str());
    std::exit(1);
  }
  Compiled c;
  c.query = *parsed;
  Optimizer opt(*w.model);
  Timer t;
  StatusOr<PlanPtr> plan = opt.Optimize(*c.query.expr, c.query.required);
  c.opt_ms = t.ElapsedMillis();
  if (!plan.ok()) {
    std::fprintf(stderr, "%s: optimize failed: %s\n", q.name.c_str(),
                 plan.status().ToString().c_str());
    std::exit(1);
  }
  c.plan = *plan;
  return c;
}

/// Wall-clock milliseconds of one execution of `plan`.
double ExecOnceMs(const PlanNode& plan, const rel::RelModel& model,
                  const exec::Database& db) {
  Timer t;
  std::vector<exec::Row> rows = exec::ExecutePlan(plan, model, db);
  // Keep the optimizer from proving the drain dead.
  if (rows.size() == SIZE_MAX) std::abort();
  return t.ElapsedMillis();
}

bool HasSubquery(const rel::TpchQuery& q) {
  return q.sql.find("(SELECT") != std::string::npos;
}

void RunFamily(int reps) {
  rel::TpchWorkload w = rel::MakeTpchWorkload();
  exec::Database db = exec::GenerateDatabase(*w.catalog, kDataSeed);

  // Ablation twin: unnesting off, so every SUBQUERY runs as NESTED_SUBQ.
  rel::RelModelOptions nested_opts;
  nested_opts.enable_unnest_subqueries = false;
  rel::TpchWorkload nested = rel::MakeTpchWorkload(nested_opts);
  exec::Database nested_db = exec::GenerateDatabase(*nested.catalog, kDataSeed);

  for (size_t i = 0; i < w.queries.size(); ++i) {
    const rel::TpchQuery& q = w.queries[i];
    Compiled c = Compile(w, q);

    bool valid = rel::ValidatePlan(*c.plan, *w.model).ok();

    std::vector<exec::Row> got = exec::ExecutePlan(*c.plan, *w.model, db);
    std::vector<exec::Row> want = exec::EvalLogical(*c.query.expr, *w.model, db);
    exec::Schema gs = exec::PlanSchema(*c.plan, *w.model, db);
    exec::Schema ws = exec::LogicalSchema(*c.query.expr, *w.model, db);
    const auto* rp = dynamic_cast<const rel::RelPhysProps*>(c.query.required.get());
    if (rp != nullptr && rp->unique()) {
      std::sort(want.begin(), want.end());
      want.erase(std::unique(want.begin(), want.end()), want.end());
    }
    bool match = exec::SameMultiset(exec::ReorderToSchema(got, gs, ws), want);

    // Each side is timed as its fastest of `reps` runs, and the unnested
    // and nested plans alternate run by run, so a host slowdown hits both
    // sides alike and the minimum drops it from either.
    bool has_subquery = HasSubquery(q);
    Compiled nc;
    if (has_subquery) nc = Compile(nested, nested.queries[i]);
    double exec_ms = std::numeric_limits<double>::infinity();
    double nested_ms = std::numeric_limits<double>::infinity();
    for (int r = 0; r < reps; ++r) {
      exec_ms = std::min(exec_ms, ExecOnceMs(*c.plan, *w.model, db));
      if (has_subquery) {
        nested_ms = std::min(
            nested_ms, ExecOnceMs(*nc.plan, *nested.model, nested_db));
      }
    }
    std::printf(
        "tpch query=%s valid=%d match=%d rows=%zu opt_ms=%.3f exec_ms=%.3f\n",
        q.name.c_str(), valid ? 1 : 0, match ? 1 : 0, got.size(), c.opt_ms,
        exec_ms);

    if (!has_subquery) continue;
    bool nested_valid = rel::ValidatePlan(*nc.plan, *nested.model).ok();
    std::printf(
        "tpch_unnest query=%s nested_valid=%d nested_ms=%.3f unnested_ms=%.3f "
        "speedup=%.2f\n",
        q.name.c_str(), nested_valid ? 1 : 0, nested_ms, exec_ms,
        exec_ms > 0.0 ? nested_ms / exec_ms : 0.0);
  }
}

}  // namespace
}  // namespace volcano

int main(int argc, char** argv) {
  int reps = argc > 1 ? std::max(1, std::atoi(argv[1])) : 20;
  std::printf("reps: %d\n", reps);
  volcano::RunFamily(reps);
  return 0;
}
