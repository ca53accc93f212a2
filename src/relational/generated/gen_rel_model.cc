#include "relational/generated/gen_rel_model.h"

#include <unordered_map>

#include "search/memo.h"

namespace volcano::rel {

namespace {

namespace genrel = volcano::gen_model::relational;

/// Support-function implementation delegating to the handwritten rule
/// objects registered in a RelModel's rule set, located by rule name.
class RelSupport final : public genrel::Support {
 public:
  explicit RelSupport(const RuleSet& rules) {
    for (const auto& t : rules.transformations()) {
      transformations_.emplace(t->name(), t.get());
    }
    for (const auto& i : rules.implementations()) {
      implementations_.emplace(i->name(), i.get());
    }
    for (const auto& e : rules.enforcers()) {
      enforcers_.emplace(e->name(), e.get());
    }
  }

  // ----- transformation support -------------------------------------------
  Rex::Ref JoinCommuteApply(const Binding& b, const Memo& m,
                            Rex& out) const override {
    return Transformation("join_commute").Apply(b, m, out);
  }
  bool JoinAssocLeftCondition(const Binding& b,
                              const Memo& m) const override {
    return Transformation("join_assoc_left").Condition(b, m);
  }
  Rex::Ref JoinAssocLeftApply(const Binding& b, const Memo& m,
                              Rex& out) const override {
    return Transformation("join_assoc_left").Apply(b, m, out);
  }
  bool JoinAssocRightCondition(const Binding& b,
                               const Memo& m) const override {
    return Transformation("join_assoc_right").Condition(b, m);
  }
  Rex::Ref JoinAssocRightApply(const Binding& b, const Memo& m,
                               Rex& out) const override {
    return Transformation("join_assoc_right").Apply(b, m, out);
  }
  Rex::Ref IntersectCommuteApply(const Binding& b, const Memo& m,
                                 Rex& out) const override {
    return Transformation("intersect_commute").Apply(b, m, out);
  }
  Rex::Ref UnionCommuteApply(const Binding& b, const Memo& m,
                             Rex& out) const override {
    return Transformation("union_commute").Apply(b, m, out);
  }
  bool SelectThroughAggregateCondition(const Binding& b,
                                       const Memo& m) const override {
    return Transformation("select_through_aggregate").Condition(b, m);
  }
  Rex::Ref SelectThroughAggregateApply(const Binding& b, const Memo& m,
                                       Rex& out) const override {
    return Transformation("select_through_aggregate").Apply(b, m, out);
  }
  bool UnnestInToSemijoinCondition(const Binding& b,
                                   const Memo& m) const override {
    return Transformation("unnest_in_to_semijoin").Condition(b, m);
  }
  Rex::Ref UnnestInToSemijoinApply(const Binding& b, const Memo& m,
                                   Rex& out) const override {
    return Transformation("unnest_in_to_semijoin").Apply(b, m, out);
  }
  bool UnnestExistsToSemijoinCondition(const Binding& b,
                                       const Memo& m) const override {
    return Transformation("unnest_exists_to_semijoin").Condition(b, m);
  }
  Rex::Ref UnnestExistsToSemijoinApply(const Binding& b, const Memo& m,
                                       Rex& out) const override {
    return Transformation("unnest_exists_to_semijoin").Apply(b, m, out);
  }
  bool UnnestToAntijoinCondition(const Binding& b,
                                 const Memo& m) const override {
    return Transformation("unnest_to_antijoin").Condition(b, m);
  }
  Rex::Ref UnnestToAntijoinApply(const Binding& b, const Memo& m,
                                 Rex& out) const override {
    return Transformation("unnest_to_antijoin").Apply(b, m, out);
  }
  bool OuterJoinToJoinCondition(const Binding& b,
                                const Memo& m) const override {
    return Transformation("outer_join_to_join").Condition(b, m);
  }
  Rex::Ref OuterJoinToJoinApply(const Binding& b, const Memo& m,
                                Rex& out) const override {
    return Transformation("outer_join_to_join").Apply(b, m, out);
  }
  bool SemijoinReorderCondition(const Binding& b,
                                const Memo& m) const override {
    return Transformation("semijoin_reorder").Condition(b, m);
  }
  Rex::Ref SemijoinReorderApply(const Binding& b, const Memo& m,
                                Rex& out) const override {
    return Transformation("semijoin_reorder").Apply(b, m, out);
  }
  Rex::Ref DistinctCollapseApply(const Binding& b, const Memo& m,
                                 Rex& out) const override {
    return Transformation("distinct_collapse").Apply(b, m, out);
  }
  Rex::Ref SemijoinAbsorbDistinctApply(const Binding& b, const Memo& m,
                                       Rex& out) const override {
    return Transformation("semijoin_absorb_distinct").Apply(b, m, out);
  }
  Rex::Ref AntijoinAbsorbDistinctApply(const Binding& b, const Memo& m,
                                       Rex& out) const override {
    return Transformation("antijoin_absorb_distinct").Apply(b, m, out);
  }

  // ----- implementation support ---------------------------------------------
#define VOLCANO_DELEGATE_IMPL(Fn, rule_name)                                 \
  AlgorithmAlternatives Fn##Applicability(                       \
      const Binding& b, const Memo& m, const PhysPropsPtr& required,         \
      const PhysProps* excluded) const override {                            \
    return Implementation(rule_name).Applicability(b, m, required,           \
                                                   excluded);                \
  }                                                                          \
  Cost Fn##Cost(const Binding& b, const Memo& m) const override {            \
    return Implementation(rule_name).LocalCost(b, m);                        \
  }

  VOLCANO_DELEGATE_IMPL(FileScan, "get_to_file_scan")
  VOLCANO_DELEGATE_IMPL(Filter, "select_to_filter")
  VOLCANO_DELEGATE_IMPL(MergeJoin, "join_to_merge_join")
  VOLCANO_DELEGATE_IMPL(HashJoin, "join_to_hash_join")
  VOLCANO_DELEGATE_IMPL(Project, "project_to_project_op")
  VOLCANO_DELEGATE_IMPL(MergeIntersect, "intersect_to_merge_intersect")
  VOLCANO_DELEGATE_IMPL(HashIntersect, "intersect_to_hash_intersect")
  VOLCANO_DELEGATE_IMPL(Concat, "union_to_concat")
  VOLCANO_DELEGATE_IMPL(HashAgg, "agg_to_hash_agg")
  VOLCANO_DELEGATE_IMPL(SortAgg, "agg_to_sort_agg")
  VOLCANO_DELEGATE_IMPL(HashLeftOuterJoin, "left_outer_join_to_hash")
  VOLCANO_DELEGATE_IMPL(HashSemijoin, "semijoin_to_hash")
  VOLCANO_DELEGATE_IMPL(HashAntijoin, "antijoin_to_hash")
  VOLCANO_DELEGATE_IMPL(HashDistinct, "distinct_to_hash_distinct")
  VOLCANO_DELEGATE_IMPL(SortDistinct, "distinct_to_sort_distinct")
  VOLCANO_DELEGATE_IMPL(NestedSubq, "subquery_to_nested")
#undef VOLCANO_DELEGATE_IMPL

  OpArgPtr SortDistinctPlanArg(const Binding& b,
                               const Memo& m) const override {
    return Implementation("distinct_to_sort_distinct").PlanArg(b, m);
  }

  // ----- enforcer support ----------------------------------------------------
  std::optional<EnforcerApplication> SortEnforce(
      const PhysPropsPtr& required,
      const LogicalProps& logical) const override {
    return Enforcer("sort_enforcer").Enforce(required, logical);
  }
  Cost SortCost(const LogicalProps& logical,
                const PhysProps& delivered) const override {
    return Enforcer("sort_enforcer").LocalCost(logical, delivered);
  }
  OpArgPtr SortPlanArg(const PhysProps& delivered) const override {
    return Enforcer("sort_enforcer").PlanArg(delivered);
  }
  double SortPromise(const PhysProps& required,
                     const LogicalProps& logical) const override {
    return Enforcer("sort_enforcer").Promise(required, logical);
  }
  std::optional<EnforcerApplication> SortDedupEnforce(
      const PhysPropsPtr& required,
      const LogicalProps& logical) const override {
    return Enforcer("sort_dedup_enforcer").Enforce(required, logical);
  }
  Cost SortDedupCost(const LogicalProps& logical,
                     const PhysProps& delivered) const override {
    return Enforcer("sort_dedup_enforcer").LocalCost(logical, delivered);
  }
  OpArgPtr SortDedupPlanArg(const PhysProps& delivered) const override {
    return Enforcer("sort_dedup_enforcer").PlanArg(delivered);
  }
  std::optional<EnforcerApplication> HashDedupEnforce(
      const PhysPropsPtr& required,
      const LogicalProps& logical) const override {
    return Enforcer("hash_dedup_enforcer").Enforce(required, logical);
  }
  Cost HashDedupCost(const LogicalProps& logical,
                     const PhysProps& delivered) const override {
    return Enforcer("hash_dedup_enforcer").LocalCost(logical, delivered);
  }

 private:
  const TransformationRule& Transformation(const std::string& name) const {
    auto it = transformations_.find(name);
    VOLCANO_CHECK(it != transformations_.end());
    return *it->second;
  }
  const ImplementationRule& Implementation(const std::string& name) const {
    auto it = implementations_.find(name);
    VOLCANO_CHECK(it != implementations_.end());
    return *it->second;
  }
  const EnforcerRule& Enforcer(const std::string& name) const {
    auto it = enforcers_.find(name);
    VOLCANO_CHECK(it != enforcers_.end());
    return *it->second;
  }

  std::unordered_map<std::string, const TransformationRule*> transformations_;
  std::unordered_map<std::string, const ImplementationRule*> implementations_;
  std::unordered_map<std::string, const EnforcerRule*> enforcers_;
};

}  // namespace

GenRelModel::GenRelModel(const Catalog& catalog) : inner_(catalog) {
  ops_ = genrel::RegisterOperators(&registry_);
  // The generated registration must assign the same ids as the handwritten
  // model (both follow the specification's declaration order); the property
  // functions and expression builders rely on it.
  VOLCANO_CHECK(ops_.kGET == inner_.ops().get);
  VOLCANO_CHECK(ops_.kSELECT == inner_.ops().select);
  VOLCANO_CHECK(ops_.kJOIN == inner_.ops().join);
  VOLCANO_CHECK(ops_.kPROJECT == inner_.ops().project);
  VOLCANO_CHECK(ops_.kINTERSECT == inner_.ops().intersect);
  VOLCANO_CHECK(ops_.kUNION == inner_.ops().union_all);
  VOLCANO_CHECK(ops_.kAGGREGATE == inner_.ops().aggregate);
  VOLCANO_CHECK(ops_.kLEFT_OUTER_JOIN == inner_.ops().left_outer_join);
  VOLCANO_CHECK(ops_.kSEMIJOIN == inner_.ops().semijoin);
  VOLCANO_CHECK(ops_.kANTIJOIN == inner_.ops().antijoin);
  VOLCANO_CHECK(ops_.kDISTINCT == inner_.ops().distinct);
  VOLCANO_CHECK(ops_.kSUBQUERY == inner_.ops().subquery);
  VOLCANO_CHECK(ops_.kFILE_SCAN == inner_.ops().file_scan);
  VOLCANO_CHECK(ops_.kFILTER == inner_.ops().filter);
  VOLCANO_CHECK(ops_.kMERGE_JOIN == inner_.ops().merge_join);
  VOLCANO_CHECK(ops_.kHYBRID_HASH_JOIN == inner_.ops().hash_join);
  VOLCANO_CHECK(ops_.kPROJECT_OP == inner_.ops().project_op);
  VOLCANO_CHECK(ops_.kMERGE_INTERSECT == inner_.ops().merge_intersect);
  VOLCANO_CHECK(ops_.kHASH_INTERSECT == inner_.ops().hash_intersect);
  VOLCANO_CHECK(ops_.kMULTI_HASH_JOIN == inner_.ops().multi_hash_join);
  VOLCANO_CHECK(ops_.kCONCAT == inner_.ops().concat);
  VOLCANO_CHECK(ops_.kHASH_AGGREGATE == inner_.ops().hash_aggregate);
  VOLCANO_CHECK(ops_.kSORT_AGGREGATE == inner_.ops().sort_aggregate);
  VOLCANO_CHECK(ops_.kHASH_LEFT_OUTER_JOIN ==
                inner_.ops().hash_left_outer_join);
  VOLCANO_CHECK(ops_.kHASH_SEMIJOIN == inner_.ops().hash_semijoin);
  VOLCANO_CHECK(ops_.kHASH_ANTIJOIN == inner_.ops().hash_antijoin);
  VOLCANO_CHECK(ops_.kHASH_DISTINCT == inner_.ops().hash_distinct);
  VOLCANO_CHECK(ops_.kSORT_DISTINCT == inner_.ops().sort_distinct);
  VOLCANO_CHECK(ops_.kNESTED_SUBQ == inner_.ops().nested_subq);
  VOLCANO_CHECK(ops_.kSORT == inner_.ops().sort);
  VOLCANO_CHECK(ops_.kSORT_DEDUP == inner_.ops().sort_dedup);
  VOLCANO_CHECK(ops_.kHASH_DEDUP == inner_.ops().hash_dedup);

  support_ = std::make_unique<RelSupport>(inner_.rule_set());
  genrel::RegisterRules(&rules_, ops_, *support_);
}

GenRelModel::~GenRelModel() = default;

}  // namespace volcano::rel
