// Rule-ceiling tests: MExpr tracks "already fired" transformation rules in a
// 64-bit mask (kFiredMaskBits), so RuleSet::kMaxTransformationRules must
// never exceed 64. These tests pin the ceiling from both sides: registering
// up to the limit works, the 65th registration dies, and a rule id at or
// beyond the mask width is rejected by MarkFired in all build modes.

#include <gtest/gtest.h>

#include <memory>

#include "relational/catalog.h"
#include "relational/rel_model.h"
#include "rules/rule_set.h"
#include "search/memo.h"

namespace volcano {
namespace {

using rel::Catalog;
using rel::RelModel;

/// A transformation rule that never rewrites anything; only its registration
/// bookkeeping matters here.
class NopRule final : public TransformationRule {
 public:
  explicit NopRule(OperatorId op)
      : TransformationRule("nop", Pattern::Op(op, {Pattern::Any(),
                                                   Pattern::Any()})) {}
  Rex::Ref Apply(const Binding&, const Memo&, Rex&) const override {
    return Rex::kNone;
  }
};

TEST(RuleLimit, MaskWidthMatchesRuleCeiling) {
  static_assert(RuleSet::kMaxTransformationRules <= kFiredMaskBits,
                "fired mask too narrow for the registered rule ceiling");
}

TEST(RuleLimit, RegisteringUpToTheCeilingAssignsDenseIds) {
  Catalog catalog;
  VOLCANO_CHECK(catalog.AddRelation("A", 1000, 100, 2).ok());
  RelModel model(catalog);
  OperatorId join = model.ops().join;

  RuleSet rules;
  for (size_t i = 0; i < RuleSet::kMaxTransformationRules; ++i) {
    RuleId id = rules.AddTransformation(std::make_unique<NopRule>(join));
    EXPECT_EQ(id, i);
  }
  EXPECT_EQ(rules.transformations().size(), RuleSet::kMaxTransformationRules);
  EXPECT_EQ(rules.TransformationsFor(join).size(),
            RuleSet::kMaxTransformationRules);
}

TEST(RuleLimitDeathTest, RegisteringBeyondTheCeilingDies) {
  Catalog catalog;
  VOLCANO_CHECK(catalog.AddRelation("A", 1000, 100, 2).ok());
  RelModel model(catalog);
  OperatorId join = model.ops().join;

  RuleSet rules;
  for (size_t i = 0; i < RuleSet::kMaxTransformationRules; ++i) {
    rules.AddTransformation(std::make_unique<NopRule>(join));
  }
  EXPECT_DEATH_IF_SUPPORTED(
      rules.AddTransformation(std::make_unique<NopRule>(join)), "CHECK");
}

TEST(RuleLimitDeathTest, MarkFiredRejectsIdsBeyondTheMask) {
  Catalog catalog;
  VOLCANO_CHECK(catalog.AddRelation("A", 1000, 100, 2).ok());
  RelModel model(catalog);
  Memo memo(model);
  GroupId g = memo.InsertQuery(*model.Get("A"));
  MExpr* m = memo.group(g).exprs().front();

  m->MarkFired(kFiredMaskBits - 1);  // the last representable rule is fine
  EXPECT_TRUE(m->HasFired(kFiredMaskBits - 1));
  EXPECT_DEATH_IF_SUPPORTED(m->MarkFired(kFiredMaskBits), "CHECK");
}

}  // namespace
}  // namespace volcano
