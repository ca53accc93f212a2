// TPC-H-shaped workload tests (DESIGN.md §14): the decision-support SQL
// family end to end — every query parses, optimizes to a valid plan, and
// executes byte-identically to the naive logical evaluator (the plans
// themselves are pinned by PlanDigest.TpchPinned). Plus targeted semantics checks the family's
// data cannot fully pin down: LEFT JOIN NULL padding, the
// semijoin/antijoin complement invariant, and empty-inner edge cases.

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <vector>

#include "exec/datagen.h"
#include "exec/plan_exec.h"
#include "exec/table.h"
#include "relational/query_gen.h"
#include "relational/rel_plan_cost.h"
#include "relational/rel_props.h"
#include "relational/sql.h"
#include "search/optimizer.h"
#include "search/search_config.h"

namespace volcano {
namespace {

constexpr uint64_t kSeed = 20260;

struct Compiled {
  rel::ParsedQuery query;
  PlanPtr plan;
};

Compiled Compile(const rel::TpchWorkload& w, const rel::TpchQuery& q,
                 const SearchOptions& so = {}) {
  StatusOr<rel::ParsedQuery> parsed =
      rel::ParseSql(q.sql, *w.model, w.catalog->symbols());
  EXPECT_TRUE(parsed.ok()) << q.name << ": " << parsed.status().ToString();
  Optimizer opt(*w.model, SearchConfig::FromOptions(so).value());
  StatusOr<PlanPtr> plan = opt.Optimize(*parsed->expr, parsed->required);
  EXPECT_TRUE(plan.ok()) << q.name << ": " << plan.status().ToString();
  return Compiled{*parsed, *plan};
}

TEST(Tpch, SchemaShape) {
  rel::TpchWorkload w = rel::MakeTpchWorkload();
  EXPECT_EQ(w.catalog->num_relations(), 8u);
  EXPECT_EQ(w.queries.size(), 15u);
  // FK consistency: a child FK's distinct count must equal the parent
  // key's cardinality so generated values land in the parent key domain.
  const rel::RelationInfo* orders = w.catalog->FindRelation("orders");
  const rel::RelationInfo* lineitem = w.catalog->FindRelation("lineitem");
  ASSERT_NE(orders, nullptr);
  ASSERT_NE(lineitem, nullptr);
  EXPECT_DOUBLE_EQ(lineitem->attributes[0].distinct_values,
                   orders->cardinality);
}

// Every query of the family: optimized plan valid, execution row-identical
// to the naive evaluator (the tentpole's differential acceptance bar). Also
// with unnesting off, where every subquery runs as NESTED_SUBQ.
TEST(Tpch, OptimizedPlansMatchNaiveEvaluationRowForRow) {
  rel::RelModelOptions nested;
  nested.enable_unnest_subqueries = false;
  for (const rel::RelModelOptions& options : {rel::RelModelOptions{}, nested}) {
    rel::TpchWorkload w = rel::MakeTpchWorkload(options);
    exec::Database db = exec::GenerateDatabase(*w.catalog, kSeed);
    const char* family = options.enable_unnest_subqueries ? "" : " (nested)";

    for (const rel::TpchQuery& q : w.queries) {
      Compiled c = Compile(w, q);
      EXPECT_TRUE(rel::ValidatePlan(*c.plan, *w.model).ok())
          << q.name << family;
      EXPECT_TRUE(c.plan->props()->Covers(*c.query.required))
          << q.name << family;

      std::vector<exec::Row> got = exec::ExecutePlan(*c.plan, *w.model, db);
      std::vector<exec::Row> want =
          exec::EvalLogical(*c.query.expr, *w.model, db);
      exec::Schema gs = exec::PlanSchema(*c.plan, *w.model, db);
      exec::Schema ws = exec::LogicalSchema(*c.query.expr, *w.model, db);
      const auto* rp =
          dynamic_cast<const rel::RelPhysProps*>(c.query.required.get());
      if (rp != nullptr && rp->unique()) {
        // Uniqueness is a required property, not a logical operator — dedupe
        // the oracle before comparing.
        std::sort(want.begin(), want.end());
        want.erase(std::unique(want.begin(), want.end()), want.end());
      }
      EXPECT_TRUE(
          exec::SameMultiset(exec::ReorderToSchema(got, gs, ws), want))
          << q.name << family
          << ": optimized rows diverge from naive evaluation";
      ASSERT_FALSE(got.empty())
          << q.name << family << ": degenerate (empty) result";
    }
  }
}

// --- targeted operator semantics on the TPC-H data -----------------------

struct LojFixture {
  LojFixture() : w(rel::MakeTpchWorkload()) {
    db = exec::GenerateDatabase(*w.catalog, kSeed);
  }

  std::vector<exec::Row> Run(const std::string& sql, const char* name) {
    Compiled c = Compile(w, {name, sql});
    // Normalize to the logical schema so column positions are stable.
    exec::Schema gs = exec::PlanSchema(*c.plan, *w.model, db);
    exec::Schema ws = exec::LogicalSchema(*c.query.expr, *w.model, db);
    return exec::ReorderToSchema(exec::ExecutePlan(*c.plan, *w.model, db),
                                 gs, ws);
  }

  rel::TpchWorkload w;
  exec::Database db;
};

TEST(Tpch, LeftJoinPadsUnmatchedOuterRowsWithNull) {
  LojFixture f;
  // customer LEFT JOIN orders: every customer row survives exactly
  // max(1, multiplicity) times; customers without orders carry kNull in
  // every orders column.
  std::vector<exec::Row> rows = f.Run(
      "SELECT customer.a0, orders.a0 FROM customer LEFT JOIN orders ON "
      "customer.a0 = orders.a1",
      "loj_pad");
  const exec::Table& customer =
      *f.db.Find(f.w.catalog->symbols().Lookup("customer"));
  const exec::Table& orders = *f.db.Find(f.w.catalog->symbols().Lookup("orders"));

  std::set<int64_t> custkeys_with_orders;
  for (size_t i = 0; i < orders.size(); ++i) {
    custkeys_with_orders.insert(orders.row(i)[1]);
  }

  std::set<int64_t> seen;
  size_t padded = 0;
  for (const exec::Row& r : rows) {
    ASSERT_EQ(r.size(), 2u);
    seen.insert(r[0]);
    if (r[1] == exec::kNull) {
      ++padded;
      EXPECT_EQ(custkeys_with_orders.count(r[0]), 0u)
          << "customer " << r[0] << " has orders but was NULL-padded";
    }
  }
  // Every distinct customer key appears in the result...
  std::set<int64_t> all;
  for (size_t i = 0; i < customer.size(); ++i) all.insert(customer.row(i)[0]);
  EXPECT_EQ(seen, all);
  // ...and with 600 keys uniform over 3000 orders, some customers must
  // lack orders entirely (probability of none ~ (1-1/600)^-... effectively
  // certain), so padding genuinely happened.
  EXPECT_GT(padded, 0u);
}

TEST(Tpch, SemijoinAndAntijoinPartitionTheOuter) {
  LojFixture f;
  // IN and NOT IN with the same body are exact complements: together they
  // reproduce the outer input (both preserve outer multiplicity 1 here
  // because customer.a0 is scanned once each).
  std::vector<exec::Row> in_rows = f.Run(
      "SELECT customer.a0 FROM customer WHERE customer.a0 IN "
      "(SELECT orders.a1 FROM orders WHERE orders.a3 < 2)",
      "semi");
  std::vector<exec::Row> not_in_rows = f.Run(
      "SELECT customer.a0 FROM customer WHERE customer.a0 NOT IN "
      "(SELECT orders.a1 FROM orders WHERE orders.a3 < 2)",
      "anti");
  const exec::Table& customer =
      *f.db.Find(f.w.catalog->symbols().Lookup("customer"));
  EXPECT_EQ(in_rows.size() + not_in_rows.size(), customer.size());
  std::vector<exec::Row> all = in_rows;
  all.insert(all.end(), not_in_rows.begin(), not_in_rows.end());
  std::vector<exec::Row> outer;
  outer.reserve(customer.size());
  for (size_t i = 0; i < customer.size(); ++i) {
    outer.push_back({customer.row(i)[0]});
  }
  EXPECT_TRUE(exec::SameMultiset(all, outer));
  EXPECT_FALSE(in_rows.empty());
  EXPECT_FALSE(not_in_rows.empty());
}

TEST(Tpch, EmptyInnerEdgeCases) {
  LojFixture f;
  // region.a1 ranges over [0, 5), so `region.a1 < 0` selects nothing.
  // ANTIJOIN with an empty inner passes every outer row through...
  std::vector<exec::Row> anti = f.Run(
      "SELECT nation.a0 FROM nation WHERE nation.a1 NOT IN "
      "(SELECT region.a0 FROM region WHERE region.a1 < 0)",
      "anti_empty");
  const exec::Table& nation = *f.db.Find(f.w.catalog->symbols().Lookup("nation"));
  EXPECT_EQ(anti.size(), nation.size());
  // ...SEMIJOIN emits nothing...
  std::vector<exec::Row> semi = f.Run(
      "SELECT nation.a0 FROM nation WHERE nation.a1 IN "
      "(SELECT region.a0 FROM region WHERE region.a1 < 0)",
      "semi_empty");
  EXPECT_TRUE(semi.empty());
  // ...and LEFT JOIN pads every outer row. (The ON target carries the
  // filter below the join via the leaf-attachment rule being bypassed for
  // outer-joined relations, so filter the inner side in the subquery-free
  // spelling: join against a key value no region.a0 clears.)
  std::vector<exec::Row> loj = f.Run(
      "SELECT nation.a0, region.a0 FROM nation LEFT JOIN region ON "
      "nation.a1 = region.a0 WHERE region.a1 < 0",
      "loj_filtered");
  // A null-rejecting WHERE over the padded side turns the outer join into
  // an inner join (the simplification rule) — with an always-false inner
  // predicate the result is empty, matching inner-join semantics exactly.
  EXPECT_TRUE(loj.empty());
}

// The naive evaluator agrees on the edge cases too — the differential
// guard is only as strong as its oracle.
TEST(Tpch, EdgeCasesMatchNaiveEvaluation) {
  rel::TpchWorkload w = rel::MakeTpchWorkload();
  exec::Database db = exec::GenerateDatabase(*w.catalog, kSeed);
  const char* cases[] = {
      "SELECT nation.a0 FROM nation WHERE nation.a1 NOT IN "
      "(SELECT region.a0 FROM region WHERE region.a1 < 0)",
      "SELECT nation.a0 FROM nation WHERE nation.a1 IN "
      "(SELECT region.a0 FROM region WHERE region.a1 < 0)",
      "SELECT nation.a0, region.a0 FROM nation LEFT JOIN region ON "
      "nation.a1 = region.a0 WHERE region.a1 < 0",
      "SELECT part.a0 FROM part WHERE NOT EXISTS "
      "(SELECT * FROM partsupp WHERE partsupp.a0 = part.a0 AND "
      "partsupp.a2 < 0)",
  };
  for (const char* sql : cases) {
    Compiled c = Compile(w, {"edge", sql});
    std::vector<exec::Row> got = exec::ExecutePlan(*c.plan, *w.model, db);
    std::vector<exec::Row> want =
        exec::EvalLogical(*c.query.expr, *w.model, db);
    exec::Schema gs = exec::PlanSchema(*c.plan, *w.model, db);
    exec::Schema ws = exec::LogicalSchema(*c.query.expr, *w.model, db);
    EXPECT_TRUE(exec::SameMultiset(exec::ReorderToSchema(got, gs, ws), want))
        << sql;
  }
}

}  // namespace
}  // namespace volcano
