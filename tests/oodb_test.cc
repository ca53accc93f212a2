// OODB model tests: the second data model (object algebra, assembledness as
// the physical property, ASSEMBLY as its enforcer — paper §4.1), registered
// exclusively through the optimizer generator. Exercises the engine's data
// model independence: nothing in src/search/ knows what "assembled" means.

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>

#include "gen/codegen.h"
#include "gen/parser.h"
#include "oodb/oodb_model.h"
#include "search/optimizer.h"

namespace volcano::oodb {
namespace {

struct Fixture {
  Fixture() {
    model.AddClass("Employee", 20000, 96);
    model.AddClass("Department", 500, 96);
    model.AddClass("Floor", 40, 96);
  }
  ExprPtr Path(int depth) {
    ExprPtr e = model.Extent("Employee");
    const char* refs[] = {"department", "floor", "building"};
    for (int i = 0; i < depth; ++i) e = model.Traverse(std::move(e), refs[i]);
    return e;
  }
  OodbModel model;
};

TEST(OodbModel, GeneratedRegistrationPopulatesTables) {
  Fixture f;
  EXPECT_EQ(f.model.registry().size(), 6u);  // 2 logical + 3 physical + 1 enf
  EXPECT_EQ(f.model.registry().Name(f.model.ops().kEXTENT), "EXTENT");
  EXPECT_EQ(f.model.registry().ClassOf(f.model.ops().kASSEMBLY),
            OpClass::kEnforcer);
  EXPECT_EQ(f.model.rule_set().implementations().size(), 3u);
  EXPECT_EQ(f.model.rule_set().enforcers().size(), 1u);
  EXPECT_TRUE(f.model.rule_set().transformations().empty());
}

TEST(OodbModel, GoldenMatchesCommittedGeneratedSources) {
  std::ifstream in("src/oodb/oodb.model");
  ASSERT_TRUE(in.good());
  std::ostringstream text;
  text << in.rdbuf();
  StatusOr<gen::ModelSpec> spec = gen::ParseModelSpec(text.str());
  ASSERT_TRUE(spec.ok()) << spec.status().ToString();
  StatusOr<gen::GeneratedCode> code =
      gen::GenerateOptimizerCode(*spec, "oodb/generated/");
  ASSERT_TRUE(code.ok());

  auto read = [](const char* path) {
    std::ifstream f(path);
    std::ostringstream os;
    os << f.rdbuf();
    return os.str();
  };
  EXPECT_EQ(code->header, read("src/oodb/generated/oodb_gen.h"));
  EXPECT_EQ(code->source, read("src/oodb/generated/oodb_gen.cc"));
}

TEST(OodbModel, SingleTraversalAssemblesWhenItPays) {
  // With default constants, assembly (3e-5/obj) + clustered traversal
  // (4e-6/obj) beats naive pointer chasing (1e-4/obj) already for one hop.
  Fixture f;
  Optimizer opt(f.model);
  StatusOr<PlanPtr> plan = opt.Optimize(*f.Path(1), nullptr);
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ((*plan)->op(), f.model.ops().kCLUSTERED_TRAVERSE);
  EXPECT_EQ((*plan)->input(0)->op(), f.model.ops().kASSEMBLY);
}

TEST(OodbModel, ExpensiveAssemblyFallsBackToPointerChasing) {
  OodbCostParams params;
  params.assembly_per_object = 1e-3;  // assembling is now the dominant cost
  OodbModel model(params);
  model.AddClass("Employee", 20000, 96);
  ExprPtr path = model.Traverse(model.Extent("Employee"), "department");
  Optimizer opt(model);
  StatusOr<PlanPtr> plan = opt.Optimize(*path, nullptr);
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ((*plan)->op(), model.ops().kNAIVE_TRAVERSE);
}

TEST(OodbModel, DeepPathAmortizesOneAssembly) {
  Fixture f;
  Optimizer opt(f.model);
  StatusOr<PlanPtr> plan = opt.Optimize(*f.Path(2), nullptr);
  ASSERT_TRUE(plan.ok());
  // Exactly one ASSEMBLY in the plan, at the bottom.
  int assemblies = 0;
  std::function<void(const PlanNode&)> walk = [&](const PlanNode& node) {
    if (node.op() == f.model.ops().kASSEMBLY) ++assemblies;
    for (const auto& in : node.inputs()) walk(*in);
  };
  walk(**plan);
  EXPECT_EQ(assemblies, 1);
  EXPECT_EQ((*plan)->op(), f.model.ops().kCLUSTERED_TRAVERSE);
}

TEST(OodbModel, RequiredAssembledOutputIsHonoured) {
  Fixture f;
  Optimizer opt(f.model);
  StatusOr<PlanPtr> plan = opt.Optimize(*f.Path(2), f.model.Assembled());
  ASSERT_TRUE(plan.ok());
  EXPECT_TRUE((*plan)->props()->Covers(*f.model.Assembled()));
}

TEST(OodbModel, ExcludingVectorPreventsAssemblyOverAssembled) {
  // The ASSEMBLY enforcer's excluding vector bars inputs that are already
  // assembled: no plan ever stacks ASSEMBLY on CLUSTERED_TRAVERSE or on
  // another ASSEMBLY.
  Fixture f;
  Optimizer opt(f.model);
  StatusOr<PlanPtr> plan = opt.Optimize(*f.Path(2), f.model.Assembled());
  ASSERT_TRUE(plan.ok());
  std::function<void(const PlanNode&)> walk = [&](const PlanNode& node) {
    if (node.op() == f.model.ops().kASSEMBLY) {
      EXPECT_FALSE(node.input(0)->props()->Covers(*f.model.Assembled()));
    }
    for (const auto& in : node.inputs()) walk(*in);
  };
  walk(**plan);
}

TEST(OodbModel, WinnersKeyedByAssembledness) {
  Fixture f;
  Optimizer opt(f.model);
  GroupId g = opt.AddQuery(*f.model.Extent("Department"));
  ASSERT_TRUE(opt.OptimizeGroup(g, f.model.AnyProps()).ok());
  ASSERT_TRUE(opt.OptimizeGroup(g, f.model.Assembled()).ok());
  const Winner* w_any = opt.memo().FindWinner(
      opt.memo().Find(g), GoalKey{f.model.AnyProps(), nullptr});
  const Winner* w_asm = opt.memo().FindWinner(
      opt.memo().Find(g), GoalKey{f.model.Assembled(), nullptr});
  ASSERT_NE(w_any, nullptr);
  ASSERT_NE(w_asm, nullptr);
  EXPECT_EQ(w_any->choice->op, f.model.ops().kEXTENT_SCAN);
  EXPECT_EQ(w_asm->choice->op, f.model.ops().kASSEMBLY);
}

TEST(OodbModel, UnknownClassIsRejected) {
  Fixture f;
  EXPECT_DEATH_IF_SUPPORTED((void)f.model.Extent("Ghost"), "CHECK");
}

}  // namespace
}  // namespace volcano::oodb
