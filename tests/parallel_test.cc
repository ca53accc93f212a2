// Parallelism extension tests: partitioning as the second component of the
// physical property vector, the EXCHANGE enforcer, and the partitioned
// parallel hash join with compatible input partitionings (paper sections
// 3 / 4.1).

#include <gtest/gtest.h>

#include "exec/datagen.h"
#include "exec/plan_exec.h"
#include "relational/rel_plan_cost.h"
#include "search/optimizer.h"

namespace volcano {
namespace {

using rel::Partitioning;

rel::RelModelOptions Parallel(int ways = 4) {
  rel::RelModelOptions opts;
  opts.enable_parallelism = true;
  opts.parallel_ways = ways;
  return opts;
}

struct Fixture {
  explicit Fixture(double card) {
    VOLCANO_CHECK(catalog.AddRelation("A", card, 100, 2).ok());
    VOLCANO_CHECK(catalog.AddRelation("B", card, 100, 2).ok());
    a0 = catalog.symbols().Lookup("A.a0");
    b0 = catalog.symbols().Lookup("B.a0");
  }
  ExprPtr Query(const rel::RelModel& model) {
    return model.Join(model.Get("A"), model.Get("B"), a0, b0);
  }
  rel::Catalog catalog;
  Symbol a0, b0;
};

TEST(PartitioningProps, CoverSemantics) {
  SymbolTable syms;
  Symbol x = syms.Intern("x"), y = syms.Intern("y");
  Partitioning any;  // kAny
  Partitioning serial = Partitioning::Serial();
  Partitioning h4 = Partitioning::Hash(x, 4);
  Partitioning h8 = Partitioning::Hash(x, 8);
  Partitioning hy = Partitioning::Hash(y, 4);

  EXPECT_TRUE(serial.Covers(any));
  EXPECT_TRUE(h4.Covers(any));
  EXPECT_TRUE(serial.Covers(serial));
  EXPECT_TRUE(any.Covers(serial));  // kAny description is factually serial
  EXPECT_FALSE(h4.Covers(serial));
  EXPECT_TRUE(h4.Covers(h4));
  EXPECT_FALSE(h4.Covers(h8));   // different degree
  EXPECT_FALSE(h4.Covers(hy));   // different attribute
  EXPECT_FALSE(serial.Covers(h4));
}

TEST(PartitioningProps, VectorEqualityAndHashing) {
  SymbolTable syms;
  Symbol x = syms.Intern("x");
  PhysPropsPtr a =
      rel::RelPhysProps::MakePartitioned(syms, Partitioning::Hash(x, 4));
  PhysPropsPtr b =
      rel::RelPhysProps::MakePartitioned(syms, Partitioning::Hash(x, 4));
  PhysPropsPtr c = rel::RelPhysProps::MakePartitioned(syms,
                                                      Partitioning::Serial());
  EXPECT_TRUE(a->Equals(*b));
  EXPECT_EQ(a->Hash(), b->Hash());
  EXPECT_FALSE(a->Equals(*c));
  EXPECT_NE(a->ToString().find("hash"), std::string::npos);
}

TEST(Parallel, BigJoinGoesParallelWithExchanges) {
  // A large join: repartition both inputs, join in parallel, merge back.
  Fixture f(200000);
  rel::RelModel model(f.catalog, Parallel(8));
  Optimizer opt(model);
  StatusOr<PlanPtr> plan = opt.Optimize(*f.Query(model), model.Serial());
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();

  // Root must be the merge exchange delivering serial.
  EXPECT_EQ((*plan)->op(), model.ops().exchange);
  const PlanNode& join = *(*plan)->input(0);
  EXPECT_EQ(join.op(), model.ops().parallel_hash_join);
  EXPECT_EQ(join.input(0)->op(), model.ops().exchange);
  EXPECT_EQ(join.input(1)->op(), model.ops().exchange);
  EXPECT_TRUE((*plan)->props()->Covers(*model.Serial()));
}

TEST(Parallel, SmallJoinStaysSerial) {
  Fixture f(500);
  rel::RelModel model(f.catalog, Parallel(8));
  Optimizer opt(model);
  StatusOr<PlanPtr> plan = opt.Optimize(*f.Query(model), model.Serial());
  ASSERT_TRUE(plan.ok());
  // Exchange overhead dominates: the plain serial hash join wins.
  EXPECT_EQ((*plan)->op(), model.ops().hash_join);
}

TEST(Parallel, ParallelPlanBeatsForcedSerialCost) {
  Fixture f(200000);
  rel::RelModel parallel(f.catalog, Parallel(8));
  Optimizer popt(parallel);
  StatusOr<PlanPtr> pplan = popt.Optimize(*f.Query(parallel),
                                          parallel.Serial());
  ASSERT_TRUE(pplan.ok());

  rel::RelModel serial(f.catalog);  // no parallel rules at all
  Optimizer sopt(serial);
  StatusOr<PlanPtr> splan = sopt.Optimize(*f.Query(serial), nullptr);
  ASSERT_TRUE(splan.ok());

  EXPECT_LT(parallel.cost_model().Total((*pplan)->cost()),
            serial.cost_model().Total((*splan)->cost()));
}

TEST(Parallel, OrderByForcesSortAboveMergeExchange) {
  // SORT is serial and EXCHANGE destroys order: an ORDER BY on a parallel
  // plan must gather first, then sort.
  Fixture f(200000);
  rel::RelModel model(f.catalog, Parallel(8));
  Optimizer opt(model);
  PhysPropsPtr required = rel::RelPhysProps::Make(
      f.catalog.symbols(), rel::SortOrder{{f.a0}}, Partitioning::Serial());
  StatusOr<PlanPtr> plan = opt.Optimize(*f.Query(model), required);
  ASSERT_TRUE(plan.ok());
  EXPECT_TRUE((*plan)->props()->Covers(*required));
  // Whatever the shape, no node may claim an order above an exchange.
  std::function<void(const PlanNode&)> walk = [&](const PlanNode& node) {
    if (node.op() == model.ops().exchange) {
      EXPECT_TRUE(rel::AsRel(*node.props()).order().empty());
    }
    for (const auto& in : node.inputs()) walk(*in);
  };
  walk(**plan);
}

TEST(Parallel, ExchangeNeverStacksOnItself) {
  // The excluding property vector keeps an exchange from feeding another
  // exchange that enforces the very same partitioning.
  Fixture f(200000);
  rel::RelModel model(f.catalog, Parallel(4));
  Optimizer opt(model);
  StatusOr<PlanPtr> plan = opt.Optimize(*f.Query(model), model.Serial());
  ASSERT_TRUE(plan.ok());
  std::function<void(const PlanNode&)> walk = [&](const PlanNode& node) {
    if (node.op() == model.ops().exchange) {
      ASSERT_EQ(node.num_inputs(), 1u);
      if (node.input(0)->op() == model.ops().exchange) {
        EXPECT_FALSE(node.input(0)->props()->Covers(*node.props()));
      }
    }
    for (const auto& in : node.inputs()) walk(*in);
  };
  walk(**plan);
}

TEST(Parallel, SimulatedExecutionMatchesReference) {
  Fixture f(300);
  // Tiny overheads so even the small test join picks the parallel plan.
  rel::RelModelOptions opts = Parallel(4);
  opts.cost_params.parallel_overhead = 0.0;
  opts.cost_params.cpu_per_exchange = 1e-9;
  rel::RelModel model(f.catalog, opts);
  Optimizer opt(model);
  ExprPtr q = f.Query(model);
  StatusOr<PlanPtr> plan = opt.Optimize(*q, model.Serial());
  ASSERT_TRUE(plan.ok());
  bool has_parallel = false;
  std::function<void(const PlanNode&)> walk = [&](const PlanNode& node) {
    if (node.op() == model.ops().parallel_hash_join) has_parallel = true;
    for (const auto& in : node.inputs()) walk(*in);
  };
  walk(**plan);
  EXPECT_TRUE(has_parallel);

  exec::Database db = exec::GenerateDatabase(f.catalog, 71);
  std::vector<exec::Row> got = exec::ExecutePlan(**plan, model, db);
  std::vector<exec::Row> want = exec::EvalLogical(*q, model, db);
  exec::Schema gs = exec::PlanSchema(**plan, model, db);
  exec::Schema ws = exec::LogicalSchema(*q, model, db);
  EXPECT_TRUE(exec::SameMultiset(exec::ReorderToSchema(got, gs, ws), want));
}

TEST(Parallel, WinnersKeyedPerPartitioning) {
  // The same class carries separate winners for serial and partitioned
  // goals — the memo's "for each combination of physical properties"
  // bookkeeping extended to the new component.
  Fixture f(200000);
  rel::RelModel model(f.catalog, Parallel(4));
  Optimizer opt(model);
  GroupId g = opt.AddQuery(*model.Get("A"));
  ASSERT_TRUE(opt.OptimizeGroup(g, model.AnyProps()).ok());
  ASSERT_TRUE(opt.OptimizeGroup(g, model.Partitioned(f.a0)).ok());
  GoalKey any_goal{model.AnyProps(), nullptr};
  GoalKey part_goal{model.Partitioned(f.a0), nullptr};
  const Winner* w_any = opt.memo().FindWinner(opt.memo().Find(g), any_goal);
  const Winner* w_part = opt.memo().FindWinner(opt.memo().Find(g), part_goal);
  ASSERT_NE(w_any, nullptr);
  ASSERT_NE(w_part, nullptr);
  EXPECT_EQ(w_any->choice->op, model.ops().file_scan);
  EXPECT_EQ(w_part->choice->op, model.ops().exchange);
}

}  // namespace
}  // namespace volcano
