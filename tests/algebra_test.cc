// Algebra framework tests: operator registry, expression trees, the cost
// ADT, and the property ADT contracts (hash/equality/cover) as implemented
// by the relational model.

#include <gtest/gtest.h>

#include "algebra/cost.h"
#include "algebra/expr.h"
#include "algebra/operator_def.h"
#include "relational/rel_args.h"
#include "relational/rel_props.h"

namespace volcano {
namespace {

TEST(OperatorRegistry, RegistersAllThreeClasses) {
  OperatorRegistry reg;
  OperatorId get = reg.RegisterLogical("GET", 0);
  OperatorId join = reg.RegisterLogical("JOIN", 2);
  OperatorId scan = reg.RegisterAlgorithm("SCAN", 0);
  OperatorId sort = reg.RegisterEnforcer("SORT");

  EXPECT_EQ(reg.size(), 4u);
  EXPECT_TRUE(reg.IsLogical(get));
  EXPECT_TRUE(reg.IsLogical(join));
  EXPECT_FALSE(reg.IsLogical(scan));
  EXPECT_EQ(reg.ClassOf(sort), OpClass::kEnforcer);
  EXPECT_EQ(reg.Arity(join), 2);
  EXPECT_EQ(reg.Arity(sort), 1);  // enforcers are always unary
  EXPECT_EQ(reg.Name(get), "GET");
  EXPECT_EQ(reg.Lookup("JOIN"), join);
  EXPECT_EQ(reg.Lookup("NOPE"), kInvalidOperator);
}

TEST(Expr, TreeConstructionAndSize) {
  OperatorRegistry reg;
  OperatorId get = reg.RegisterLogical("GET", 0);
  OperatorId join = reg.RegisterLogical("JOIN", 2);

  ExprPtr a = Expr::Make(get, nullptr);
  ExprPtr b = Expr::Make(get, nullptr);
  ExprPtr j = Expr::Make(join, nullptr, {a, b});
  EXPECT_EQ(j->num_inputs(), 2u);
  EXPECT_EQ(j->TreeSize(), 3u);
  EXPECT_EQ(j->input(0), a);
}

TEST(Cost, ScalarAndVector) {
  Cost s = Cost::Scalar(3.0);
  EXPECT_EQ(s.dims(), 1);
  EXPECT_DOUBLE_EQ(s[0], 3.0);
  Cost v = Cost::Vector({1.0, 2.0});
  EXPECT_EQ(v.dims(), 2);
  EXPECT_DOUBLE_EQ(v[1], 2.0);
}

TEST(CostModel, DefaultArithmetic) {
  CostModel cm;
  Cost a = Cost::Vector({1.0, 2.0});
  Cost b = Cost::Vector({0.5, 0.25});
  Cost sum = cm.Add(a, b);
  EXPECT_DOUBLE_EQ(sum[0], 1.5);
  EXPECT_DOUBLE_EQ(sum[1], 2.25);
  EXPECT_DOUBLE_EQ(cm.Total(a), 3.0);
  EXPECT_TRUE(cm.Less(b, a));
  EXPECT_FALSE(cm.Less(a, a));
  EXPECT_TRUE(cm.LessEq(a, a));
}

TEST(CostModel, MixedDimensionArithmetic) {
  CostModel cm;
  Cost a = Cost::Scalar(1.0);
  Cost b = Cost::Vector({0.5, 2.0});
  Cost sum = cm.Add(a, b);
  EXPECT_EQ(sum.dims(), 2);
  EXPECT_DOUBLE_EQ(sum[0], 1.5);
  EXPECT_DOUBLE_EQ(sum[1], 2.0);
}

TEST(CostModel, InfinityDominates) {
  CostModel cm;
  Cost inf = cm.Infinity();
  EXPECT_TRUE(cm.Less(Cost::Scalar(1e300), inf));
  EXPECT_TRUE(cm.LessEq(inf, inf));
}

TEST(SortOrder, PrefixCoverSemantics) {
  SymbolTable syms;
  Symbol a = syms.Intern("a"), b = syms.Intern("b"), c = syms.Intern("c");
  rel::SortOrder ab{{a, b}};
  rel::SortOrder abc{{a, b, c}};
  rel::SortOrder ba{{b, a}};
  rel::SortOrder none;

  EXPECT_TRUE(abc.Covers(ab));
  EXPECT_TRUE(abc.Covers(abc));
  EXPECT_TRUE(ab.Covers(none));
  EXPECT_FALSE(ab.Covers(abc));
  EXPECT_FALSE(ab.Covers(ba));
  EXPECT_TRUE(none.Covers(none));
  EXPECT_FALSE(none.Covers(ab));
}

TEST(RelPhysProps, HashEqualsCoversContract) {
  SymbolTable syms;
  Symbol a = syms.Intern("a"), b = syms.Intern("b");
  PhysPropsPtr pa = rel::RelPhysProps::MakeSorted(syms, {a});
  PhysPropsPtr pa2 = rel::RelPhysProps::MakeSorted(syms, {a});
  PhysPropsPtr pab = rel::RelPhysProps::MakeSorted(syms, {a, b});
  PhysPropsPtr any = rel::RelPhysProps::Make(syms);

  EXPECT_TRUE(pa->Equals(*pa2));
  EXPECT_EQ(pa->Hash(), pa2->Hash());
  EXPECT_FALSE(pa->Equals(*pab));
  EXPECT_TRUE(pab->Covers(*pa));
  EXPECT_FALSE(pa->Covers(*pab));
  EXPECT_TRUE(any->Covers(*any));
  EXPECT_TRUE(pa->Covers(*any));
  EXPECT_EQ(any->ToString(), "any");
  EXPECT_NE(pab->ToString().find("sorted"), std::string::npos);
}

TEST(RelArgs, ValueSemantics) {
  SymbolTable syms;
  Symbol r = syms.Intern("R"), x = syms.Intern("x"), y = syms.Intern("y");

  OpArgPtr g1 = rel::GetArg::Make(syms, r);
  OpArgPtr g2 = rel::GetArg::Make(syms, r);
  EXPECT_TRUE(g1->Equals(*g2));
  EXPECT_EQ(g1->Hash(), g2->Hash());

  OpArgPtr s1 = rel::SelectArg::Make(syms, x, rel::CmpOp::kLess, 5, 0.5);
  OpArgPtr s2 = rel::SelectArg::Make(syms, x, rel::CmpOp::kLess, 5, 0.9);
  OpArgPtr s3 = rel::SelectArg::Make(syms, x, rel::CmpOp::kLess, 6, 0.5);
  // Selectivity is an estimate, not part of the predicate's identity.
  EXPECT_TRUE(s1->Equals(*s2));
  EXPECT_FALSE(s1->Equals(*s3));

  OpArgPtr j1 = rel::JoinArg::Make(syms, x, y);
  OpArgPtr j2 = rel::JoinArg::Make(syms, y, x);
  EXPECT_FALSE(j1->Equals(*j2));  // sides are positional

  // Cross-type comparisons are false, not UB.
  EXPECT_FALSE(g1->Equals(*s1));
  EXPECT_FALSE(j1->Equals(*g1));
}

TEST(RelArgs, SelectArgEval) {
  SymbolTable syms;
  Symbol x = syms.Intern("x");
  rel::SelectArg less(syms, x, rel::CmpOp::kLess, 10, 0.5);
  EXPECT_TRUE(less.Eval(9));
  EXPECT_FALSE(less.Eval(10));
  rel::SelectArg eq(syms, x, rel::CmpOp::kEq, 10, 0.1);
  EXPECT_TRUE(eq.Eval(10));
  EXPECT_FALSE(eq.Eval(11));
}

TEST(PhysPropsKey, UsableAsHashKey) {
  SymbolTable syms;
  Symbol a = syms.Intern("a");
  std::unordered_map<PhysPropsKey, int> map;
  map[PhysPropsKey{rel::RelPhysProps::MakeSorted(syms, {a})}] = 1;
  map[PhysPropsKey{rel::RelPhysProps::Make(syms)}] = 2;
  // A fresh but equal vector must find the same slot.
  EXPECT_EQ(map[PhysPropsKey{rel::RelPhysProps::MakeSorted(syms, {a})}], 1);
  EXPECT_EQ(map.size(), 2u);
}

}  // namespace
}  // namespace volcano
