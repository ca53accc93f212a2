#include "relational/rel_rules.h"

#include <algorithm>

#include "relational/rel_model.h"
#include "search/memo.h"

namespace volcano::rel {

namespace {

const RelLogicalProps& LeafProps(const Memo& memo, const Binding& b,
                                 size_t leaf) {
  return AsRel(*memo.LogicalOf(b.leaf(leaf)));
}

const RelLogicalProps& RootProps(const Memo& memo, const Binding& b) {
  return AsRel(*memo.LogicalOf(b.root().group()));
}

const JoinArg& JoinArgOf(const MExpr& m) {
  return static_cast<const JoinArg&>(*m.arg());
}

const SelectArg& SelectArgOf(const MExpr& m) {
  return static_cast<const SelectArg&>(*m.arg());
}

/// The matched join's predicate with its sides swapped, made once per
/// predicate and rule (Rex::Derived).
OpArgPtr SwappedJoinArg(const TransformationRule* rule, const RelModel& model,
                        const Binding& b, Rex& out) {
  return out.Derived(rule, b.root().arg(), [&model](const OpArg& a) {
    const auto& join = static_cast<const JoinArg&>(a);
    return JoinArg::Make(model.symbols(), join.right_attr(), join.left_attr());
  });
}

/// The predicate an unnesting rule puts on the semijoin or antijoin it makes
/// of a subquery, outer attribute = inner attribute: made once per subquery
/// argument and rule (Rex::Derived).
OpArgPtr SubqueryJoinArg(const TransformationRule* rule, const RelModel& model,
                         const Binding& b, Rex& out) {
  return out.Derived(rule, b.root().arg(), [&model](const OpArg& a) {
    const auto& sub = static_cast<const SubqueryArg&>(a);
    return JoinArg::Make(model.symbols(), sub.outer_attr(), sub.inner_attr());
  });
}

/// True if the class contains a JOIN expression. Whether a class's results
/// are joins is invariant across its equivalent expressions (with this rule
/// set), so inspecting the current contents needs no exploration.
bool GroupContainsJoin(const Memo& memo, GroupId g, OperatorId join_op) {
  for (const MExpr* m : memo.group(g).exprs()) {
    if (!m->dead() && m->op() == join_op) return true;
  }
  return false;
}

}  // namespace

// --- JoinCommuteRule ---------------------------------------------------------

JoinCommuteRule::JoinCommuteRule(const RelModel& model)
    : TransformationRule("join_commute",
                         Pattern::Op(model.ops().join,
                                     {Pattern::Any(), Pattern::Any()})),
      model_(model) {}

Rex::Ref JoinCommuteRule::Apply(const Binding& b, const Memo& memo,
                                Rex& out) const {
  (void)memo;
  return out.Node(model_.ops().join, SwappedJoinArg(this, model_, b, out),
                  {out.Leaf(b.leaf(1)), out.Leaf(b.leaf(0))});
}

// --- JoinAssocLeftRule -------------------------------------------------------

JoinAssocLeftRule::JoinAssocLeftRule(const RelModel& model)
    : TransformationRule(
          "join_assoc_left",
          Pattern::Op(model.ops().join,
                      {Pattern::Op(model.ops().join,
                                   {Pattern::Any(), Pattern::Any()}),
                       Pattern::Any()})),
      model_(model) {}

bool JoinAssocLeftRule::Condition(const Binding& b, const Memo& memo) const {
  // Top predicate must reference ?b so it can become the new inner join's
  // predicate; otherwise the rewrite would create a cross product.
  const JoinArg& top = JoinArgOf(b.node(0));
  return LeafProps(memo, b, 1).HasAttr(top.left_attr());
}

Rex::Ref JoinAssocLeftRule::Apply(const Binding& b, const Memo& memo,
                                  Rex& out) const {
  (void)memo;
  // node(0)'s predicate links (a|b) with c, node(1)'s links a with b.
  return out.Node(model_.ops().join, b.node(1).arg(),
                  {out.Leaf(b.leaf(0)),
                   out.Node(model_.ops().join, b.node(0).arg(),
                            {out.Leaf(b.leaf(1)), out.Leaf(b.leaf(2))})});
}

// --- JoinAssocRightRule ------------------------------------------------------

JoinAssocRightRule::JoinAssocRightRule(const RelModel& model)
    : TransformationRule(
          "join_assoc_right",
          Pattern::Op(model.ops().join,
                      {Pattern::Any(),
                       Pattern::Op(model.ops().join,
                                   {Pattern::Any(), Pattern::Any()})})),
      model_(model) {}

bool JoinAssocRightRule::Condition(const Binding& b, const Memo& memo) const {
  const JoinArg& top = JoinArgOf(b.node(0));
  return LeafProps(memo, b, 1).HasAttr(top.right_attr());
}

Rex::Ref JoinAssocRightRule::Apply(const Binding& b, const Memo& memo,
                                   Rex& out) const {
  (void)memo;
  return out.Node(model_.ops().join, b.node(1).arg(),
                  {out.Node(model_.ops().join, b.node(0).arg(),
                            {out.Leaf(b.leaf(0)), out.Leaf(b.leaf(1))}),
                   out.Leaf(b.leaf(2))});
}

// --- SelectPushThroughJoinRule ----------------------------------------------

SelectPushThroughJoinRule::SelectPushThroughJoinRule(const RelModel& model)
    : TransformationRule(
          "select_push_through_join",
          Pattern::Op(model.ops().select,
                      {Pattern::Op(model.ops().join,
                                   {Pattern::Any(), Pattern::Any()})})),
      model_(model) {}

bool SelectPushThroughJoinRule::Condition(const Binding& b,
                                          const Memo& memo) const {
  const SelectArg& sel = SelectArgOf(b.node(0));
  return LeafProps(memo, b, 0).HasAttr(sel.attr());
}

Rex::Ref SelectPushThroughJoinRule::Apply(const Binding& b, const Memo& memo,
                                          Rex& out) const {
  (void)memo;
  return out.Node(model_.ops().join, b.node(1).arg(),
                  {out.Node(model_.ops().select, b.node(0).arg(),
                            {out.Leaf(b.leaf(0))}),
                   out.Leaf(b.leaf(1))});
}

// --- SelectPullFromJoinRule --------------------------------------------------

SelectPullFromJoinRule::SelectPullFromJoinRule(const RelModel& model)
    : TransformationRule(
          "select_pull_from_join",
          Pattern::Op(model.ops().join,
                      {Pattern::Op(model.ops().select, {Pattern::Any()}),
                       Pattern::Any()})),
      model_(model) {}

Rex::Ref SelectPullFromJoinRule::Apply(const Binding& b, const Memo& memo,
                                       Rex& out) const {
  (void)memo;
  return out.Node(model_.ops().select, b.node(1).arg(),
                  {out.Node(model_.ops().join, b.node(0).arg(),
                            {out.Leaf(b.leaf(0)), out.Leaf(b.leaf(1))})});
}

// --- IntersectCommuteRule ----------------------------------------------------

IntersectCommuteRule::IntersectCommuteRule(const RelModel& model)
    : TransformationRule("intersect_commute",
                         Pattern::Op(model.ops().intersect,
                                     {Pattern::Any(), Pattern::Any()})),
      model_(model) {}

Rex::Ref IntersectCommuteRule::Apply(const Binding& b, const Memo& memo,
                                     Rex& out) const {
  (void)memo;
  return out.Node(model_.ops().intersect, nullptr,
                  {out.Leaf(b.leaf(1)), out.Leaf(b.leaf(0))});
}

// --- UnionCommuteRule --------------------------------------------------------

UnionCommuteRule::UnionCommuteRule(const RelModel& model)
    : TransformationRule("union_commute",
                         Pattern::Op(model.ops().union_all,
                                     {Pattern::Any(), Pattern::Any()})),
      model_(model) {}

Rex::Ref UnionCommuteRule::Apply(const Binding& b, const Memo& memo,
                                 Rex& out) const {
  (void)memo;
  return out.Node(model_.ops().union_all, nullptr,
                  {out.Leaf(b.leaf(1)), out.Leaf(b.leaf(0))});
}

// --- SelectThroughAggregateRule ----------------------------------------------

SelectThroughAggregateRule::SelectThroughAggregateRule(const RelModel& model)
    : TransformationRule(
          "select_through_aggregate",
          Pattern::Op(model.ops().select,
                      {Pattern::Op(model.ops().aggregate,
                                   {Pattern::Any()})})),
      model_(model) {}

bool SelectThroughAggregateRule::Condition(const Binding& b,
                                           const Memo& memo) const {
  (void)memo;
  const SelectArg& sel = SelectArgOf(b.node(0));
  const auto& agg = static_cast<const AggArg&>(*b.node(1).arg());
  return sel.attr() == agg.group_attr();
}

Rex::Ref SelectThroughAggregateRule::Apply(const Binding& b,
                                           const Memo& memo, Rex& out) const {
  (void)memo;
  return out.Node(model_.ops().aggregate, b.node(1).arg(),
                  {out.Node(model_.ops().select, b.node(0).arg(),
                            {out.Leaf(b.leaf(0))})});
}

// --- UnnestInToSemijoinRule --------------------------------------------------

UnnestInToSemijoinRule::UnnestInToSemijoinRule(const RelModel& model)
    : TransformationRule("unnest_in_to_semijoin",
                         Pattern::Op(model.ops().subquery,
                                     {Pattern::Any(), Pattern::Any()})),
      model_(model) {}

bool UnnestInToSemijoinRule::Condition(const Binding& b,
                                       const Memo& memo) const {
  (void)memo;
  const auto& sub = static_cast<const SubqueryArg&>(*b.root().arg());
  return sub.kind() == SubqueryKind::kIn && !sub.negated();
}

Rex::Ref UnnestInToSemijoinRule::Apply(const Binding& b, const Memo& memo,
                                       Rex& out) const {
  (void)memo;
  return out.Node(model_.ops().semijoin, SubqueryJoinArg(this, model_, b, out),
                  {out.Leaf(b.leaf(0)), out.Leaf(b.leaf(1))});
}

// --- UnnestExistsToSemijoinRule ----------------------------------------------

UnnestExistsToSemijoinRule::UnnestExistsToSemijoinRule(const RelModel& model)
    : TransformationRule("unnest_exists_to_semijoin",
                         Pattern::Op(model.ops().subquery,
                                     {Pattern::Any(), Pattern::Any()})),
      model_(model) {}

bool UnnestExistsToSemijoinRule::Condition(const Binding& b,
                                           const Memo& memo) const {
  (void)memo;
  const auto& sub = static_cast<const SubqueryArg&>(*b.root().arg());
  return sub.kind() == SubqueryKind::kExists && !sub.negated();
}

Rex::Ref UnnestExistsToSemijoinRule::Apply(const Binding& b, const Memo& memo,
                                           Rex& out) const {
  (void)memo;
  return out.Node(model_.ops().semijoin, SubqueryJoinArg(this, model_, b, out),
                  {out.Leaf(b.leaf(0)), out.Leaf(b.leaf(1))});
}

// --- UnnestToAntijoinRule ----------------------------------------------------

UnnestToAntijoinRule::UnnestToAntijoinRule(const RelModel& model)
    : TransformationRule("unnest_to_antijoin",
                         Pattern::Op(model.ops().subquery,
                                     {Pattern::Any(), Pattern::Any()})),
      model_(model) {}

bool UnnestToAntijoinRule::Condition(const Binding& b,
                                     const Memo& memo) const {
  (void)memo;
  const auto& sub = static_cast<const SubqueryArg&>(*b.root().arg());
  return sub.negated();
}

Rex::Ref UnnestToAntijoinRule::Apply(const Binding& b, const Memo& memo,
                                     Rex& out) const {
  (void)memo;
  return out.Node(model_.ops().antijoin, SubqueryJoinArg(this, model_, b, out),
                  {out.Leaf(b.leaf(0)), out.Leaf(b.leaf(1))});
}

// --- OuterJoinToJoinRule -----------------------------------------------------

OuterJoinToJoinRule::OuterJoinToJoinRule(const RelModel& model)
    : TransformationRule(
          "outer_join_to_join",
          Pattern::Op(model.ops().select,
                      {Pattern::Op(model.ops().left_outer_join,
                                   {Pattern::Any(), Pattern::Any()})})),
      model_(model) {}

bool OuterJoinToJoinRule::Condition(const Binding& b,
                                    const Memo& memo) const {
  // The predicate must reference the NULL-padded (inner) side; every
  // comparison of this model rejects NULL, so such a selection removes all
  // padded tuples and the outer join degenerates to an inner join.
  const SelectArg& sel = SelectArgOf(b.node(0));
  return LeafProps(memo, b, 1).HasAttr(sel.attr());
}

Rex::Ref OuterJoinToJoinRule::Apply(const Binding& b, const Memo& memo,
                                    Rex& out) const {
  (void)memo;
  return out.Node(model_.ops().select, b.node(0).arg(),
                  {out.Node(model_.ops().join, b.node(1).arg(),
                            {out.Leaf(b.leaf(0)), out.Leaf(b.leaf(1))})});
}

// --- SemijoinReorderRule -----------------------------------------------------

SemijoinReorderRule::SemijoinReorderRule(const RelModel& model)
    : TransformationRule(
          "semijoin_reorder",
          Pattern::Op(model.ops().semijoin,
                      {Pattern::Op(model.ops().semijoin,
                                   {Pattern::Any(), Pattern::Any()}),
                       Pattern::Any()})),
      model_(model) {}

bool SemijoinReorderRule::Condition(const Binding& b,
                                    const Memo& memo) const {
  // Both predicates must test attributes of the innermost outer input ?a —
  // guaranteed by construction (a semijoin's schema is its left schema) but
  // checked so the rule stays sound under future rewrites.
  const JoinArg& top = JoinArgOf(b.node(0));
  const JoinArg& inner = JoinArgOf(b.node(1));
  const RelLogicalProps& a = LeafProps(memo, b, 0);
  return a.HasAttr(top.left_attr()) && a.HasAttr(inner.left_attr());
}

Rex::Ref SemijoinReorderRule::Apply(const Binding& b, const Memo& memo,
                                    Rex& out) const {
  (void)memo;
  return out.Node(model_.ops().semijoin, b.node(1).arg(),
                  {out.Node(model_.ops().semijoin, b.node(0).arg(),
                            {out.Leaf(b.leaf(0)), out.Leaf(b.leaf(2))}),
                   out.Leaf(b.leaf(1))});
}

// --- DistinctCollapseRule ----------------------------------------------------

DistinctCollapseRule::DistinctCollapseRule(const RelModel& model)
    : TransformationRule(
          "distinct_collapse",
          Pattern::Op(model.ops().distinct,
                      {Pattern::Op(model.ops().distinct, {Pattern::Any()})})),
      model_(model) {}

Rex::Ref DistinctCollapseRule::Apply(const Binding& b, const Memo& memo,
                                     Rex& out) const {
  (void)memo;
  return out.Node(model_.ops().distinct, nullptr, {out.Leaf(b.leaf(0))});
}

// --- SemijoinAbsorbDistinctRule ----------------------------------------------

SemijoinAbsorbDistinctRule::SemijoinAbsorbDistinctRule(const RelModel& model)
    : TransformationRule(
          "semijoin_absorb_distinct",
          Pattern::Op(model.ops().semijoin,
                      {Pattern::Any(),
                       Pattern::Op(model.ops().distinct, {Pattern::Any()})})),
      model_(model) {}

Rex::Ref SemijoinAbsorbDistinctRule::Apply(const Binding& b,
                                           const Memo& memo, Rex& out) const {
  (void)memo;
  return out.Node(model_.ops().semijoin, b.node(0).arg(),
                  {out.Leaf(b.leaf(0)), out.Leaf(b.leaf(1))});
}

// --- AntijoinAbsorbDistinctRule ----------------------------------------------

AntijoinAbsorbDistinctRule::AntijoinAbsorbDistinctRule(const RelModel& model)
    : TransformationRule(
          "antijoin_absorb_distinct",
          Pattern::Op(model.ops().antijoin,
                      {Pattern::Any(),
                       Pattern::Op(model.ops().distinct, {Pattern::Any()})})),
      model_(model) {}

Rex::Ref AntijoinAbsorbDistinctRule::Apply(const Binding& b,
                                           const Memo& memo, Rex& out) const {
  (void)memo;
  return out.Node(model_.ops().antijoin, b.node(0).arg(),
                  {out.Leaf(b.leaf(0)), out.Leaf(b.leaf(1))});
}

// --- GetToFileScanRule -------------------------------------------------------

GetToFileScanRule::GetToFileScanRule(const RelModel& model)
    : ImplementationRule("get_to_file_scan", Pattern::Op(model.ops().get),
                         model.ops().file_scan),
      model_(model) {}

AlgorithmAlternatives GetToFileScanRule::Applicability(
    const Binding& b, const Memo& memo, const PhysPropsPtr& required,
    const PhysProps* excluded) const {
  (void)memo;
  (void)excluded;  // the engine rejects delivered.Covers(excluded)
  const auto& arg = static_cast<const GetArg&>(*b.root().arg());
  PhysPropsPtr delivered = model_.StoredOrderOf(arg.relation());
  if (!delivered->Covers(*required)) return {};
  return OneAlternative({{}, std::move(delivered)});
}

Cost GetToFileScanRule::LocalCost(const Binding& b, const Memo& memo) const {
  return model_.rel_cost().FileScan(RootProps(memo, b));
}

// --- SelectToFilterRule ------------------------------------------------------

SelectToFilterRule::SelectToFilterRule(const RelModel& model)
    : ImplementationRule("select_to_filter",
                         Pattern::Op(model.ops().select, {Pattern::Any()}),
                         model.ops().filter),
      model_(model) {}

AlgorithmAlternatives SelectToFilterRule::Applicability(
    const Binding& b, const Memo& memo, const PhysPropsPtr& required,
    const PhysProps* excluded) const {
  (void)b;
  (void)memo;
  (void)excluded;
  // FILTER preserves its input's order: pass the requirement through
  // (sharing the caller's vector; no copy).
  return OneAlternative({{required}, required});
}

Cost SelectToFilterRule::LocalCost(const Binding& b, const Memo& memo) const {
  return model_.rel_cost().Filter(LeafProps(memo, b, 0));
}

// --- JoinToMergeJoinRule -----------------------------------------------------

JoinToMergeJoinRule::JoinToMergeJoinRule(const RelModel& model)
    : ImplementationRule(
          "join_to_merge_join",
          Pattern::Op(model.ops().join, {Pattern::Any(), Pattern::Any()}),
          model.ops().merge_join),
      model_(model) {}

bool JoinToMergeJoinRule::Condition(const Binding& b,
                                    const Memo& memo) const {
  // Left-deep restriction ("no composite inner"): the right input must not
  // be a join result. Condition code, not engine logic — the heuristic is
  // "placed into the hands of the optimizer implementor".
  if (!model_.options().left_deep_only) return true;
  return !GroupContainsJoin(memo, b.leaf(1), model_.ops().join);
}

AlgorithmAlternatives JoinToMergeJoinRule::Applicability(
    const Binding& b, const Memo& memo, const PhysPropsPtr& required,
    const PhysProps* excluded) const {
  (void)memo;
  (void)excluded;
  const JoinArg& arg = JoinArgOf(b.root());
  PhysPropsPtr delivered = model_.SortedOn(arg.left_attr());
  // Merge-join qualifies "with the requirement that its inputs be sorted"
  // and delivers output sorted on the join attribute (paper section 2.2).
  if (!delivered->Covers(*required)) return {};
  AlgorithmAlternative alt;
  alt.input_props.push_back(delivered);
  alt.input_props.push_back(model_.SortedOn(arg.right_attr()));
  alt.delivered = std::move(delivered);
  return OneAlternative(std::move(alt));
}

Cost JoinToMergeJoinRule::LocalCost(const Binding& b, const Memo& memo) const {
  return model_.rel_cost().MergeJoin(LeafProps(memo, b, 0),
                                     LeafProps(memo, b, 1),
                                     RootProps(memo, b));
}

// --- JoinToHashJoinRule ------------------------------------------------------

JoinToHashJoinRule::JoinToHashJoinRule(const RelModel& model)
    : ImplementationRule(
          "join_to_hash_join",
          Pattern::Op(model.ops().join, {Pattern::Any(), Pattern::Any()}),
          model.ops().hash_join),
      model_(model) {}

bool JoinToHashJoinRule::Condition(const Binding& b,
                                   const Memo& memo) const {
  if (!model_.options().left_deep_only) return true;
  return !GroupContainsJoin(memo, b.leaf(1), model_.ops().join);
}

AlgorithmAlternatives JoinToHashJoinRule::Applicability(
    const Binding& b, const Memo& memo, const PhysPropsPtr& required,
    const PhysProps* excluded) const {
  (void)b;
  (void)memo;
  (void)excluded;
  // "Hybrid hash join for unsorted output" — it cannot satisfy any ordering
  // requirement (paper section 3).
  PhysPropsPtr delivered = model_.AnyProps();
  if (!delivered->Covers(*required)) return {};
  AlgorithmAlternative alt;
  alt.input_props.push_back(delivered);
  alt.input_props.push_back(delivered);
  alt.delivered = std::move(delivered);
  return OneAlternative(std::move(alt));
}

Cost JoinToHashJoinRule::LocalCost(const Binding& b, const Memo& memo) const {
  return model_.rel_cost().HashJoin(LeafProps(memo, b, 0),
                                    LeafProps(memo, b, 1),
                                    RootProps(memo, b));
}

// --- JoinToMultiHashJoinRule ---------------------------------------------------

JoinToMultiHashJoinRule::JoinToMultiHashJoinRule(const RelModel& model)
    : ImplementationRule(
          "join_to_multi_hash_join",
          Pattern::Op(model.ops().join,
                      {Pattern::Op(model.ops().join,
                                   {Pattern::Any(), Pattern::Any()}),
                       Pattern::Any()}),
          model.ops().multi_hash_join),
      model_(model) {}

AlgorithmAlternatives JoinToMultiHashJoinRule::Applicability(
    const Binding& b, const Memo& memo, const PhysPropsPtr& required,
    const PhysProps* excluded) const {
  (void)b;
  (void)memo;
  (void)excluded;
  // Like hybrid hash join: no input requirements and no delivered order.
  PhysPropsPtr delivered = model_.AnyProps();
  if (!delivered->Covers(*required)) return {};
  AlgorithmAlternative alt;
  alt.input_props = {model_.AnyProps(), model_.AnyProps(),
                     model_.AnyProps()};
  alt.delivered = std::move(delivered);
  return OneAlternative(std::move(alt));
}

Cost JoinToMultiHashJoinRule::LocalCost(const Binding& b,
                                        const Memo& memo) const {
  // The intermediate (a JOIN b) is never materialized; derive its estimate
  // from the bound input classes with the inner predicate so the value is a
  // pure function of the plan (class-level estimates can differ slightly by
  // derivation order, which would break independent re-costing).
  LogicalPropsPtr intermediate = model_.DeriveLogicalProps(
      model_.ops().join, b.node(1).arg().get(),
      {memo.LogicalOf(b.leaf(0)), memo.LogicalOf(b.leaf(1))});
  return model_.rel_cost().MultiHashJoin(
      LeafProps(memo, b, 0), LeafProps(memo, b, 1), LeafProps(memo, b, 2),
      AsRel(*intermediate), RootProps(memo, b));
}

OpArgPtr JoinToMultiHashJoinRule::PlanArg(const Binding& b,
                                          const Memo& memo) const {
  (void)memo;
  const JoinArg& outer = JoinArgOf(b.node(0));
  const JoinArg& inner = JoinArgOf(b.node(1));
  return MultiJoinArg::Make(model_.symbols(), inner.left_attr(),
                            inner.right_attr(), outer.left_attr(),
                            outer.right_attr());
}

// --- ProjectRule -------------------------------------------------------------

ProjectRule::ProjectRule(const RelModel& model)
    : ImplementationRule("project_to_project_op",
                         Pattern::Op(model.ops().project, {Pattern::Any()}),
                         model.ops().project_op),
      model_(model) {}

AlgorithmAlternatives ProjectRule::Applicability(
    const Binding& b, const Memo& memo, const PhysPropsPtr& required,
    const PhysProps* excluded) const {
  (void)memo;
  (void)excluded;
  const auto& arg = static_cast<const ProjectArg&>(*b.root().arg());
  // Dropping columns can create duplicates: projection cannot guarantee
  // uniqueness (a dedup enforcer must sit above it).
  if (AsRel(*required).unique()) return {};
  const SortOrder& req = AsRel(*required).order();
  // A required order can only be preserved if its attributes survive.
  for (Symbol attr : req.attrs) {
    if (!arg.Contains(attr)) return {};
  }
  return OneAlternative({{required}, required});
}

Cost ProjectRule::LocalCost(const Binding& b, const Memo& memo) const {
  return model_.rel_cost().Project(LeafProps(memo, b, 0));
}

// --- IntersectToMergeIntersectRule -------------------------------------------

IntersectToMergeIntersectRule::IntersectToMergeIntersectRule(
    const RelModel& model)
    : ImplementationRule(
          "intersect_to_merge_intersect",
          Pattern::Op(model.ops().intersect,
                      {Pattern::Any(), Pattern::Any()}),
          model.ops().merge_intersect),
      model_(model) {}

AlgorithmAlternatives IntersectToMergeIntersectRule::Applicability(
    const Binding& b, const Memo& memo, const PhysPropsPtr& required,
    const PhysProps* excluded) const {
  (void)excluded;
  const RelLogicalProps& left = LeafProps(memo, b, 0);
  const RelLogicalProps& right = LeafProps(memo, b, 1);
  size_t ncols = left.schema().size();
  if (ncols == 0 || right.schema().size() != ncols) return {};

  // Candidate column permutations (the implementor-specified list of
  // property vectors to try, paper section 3): the identity column order,
  // its rotation by one, and — if an order is required — the permutation
  // that starts with the required attributes.
  std::vector<std::vector<size_t>> perms;
  std::vector<size_t> identity(ncols);
  for (size_t i = 0; i < ncols; ++i) identity[i] = i;
  const SortOrder& req = AsRel(*required).order();
  if (!req.empty()) {
    std::vector<size_t> perm;
    std::vector<bool> used(ncols, false);
    bool ok = true;
    for (Symbol attr : req.attrs) {
      bool found = false;
      for (size_t i = 0; i < ncols; ++i) {
        if (!used[i] && left.schema()[i].name == attr) {
          perm.push_back(i);
          used[i] = true;
          found = true;
          break;
        }
      }
      if (!found) {
        ok = false;
        break;
      }
    }
    if (!ok) return {};  // required order references foreign attributes
    for (size_t i = 0; i < ncols; ++i) {
      if (!used[i]) perm.push_back(i);
    }
    perms.push_back(std::move(perm));
  } else {
    perms.push_back(identity);
    if (ncols > 1) {
      std::vector<size_t> rot(identity.begin() + 1, identity.end());
      rot.push_back(0);
      perms.push_back(std::move(rot));
    }
  }

  AlgorithmAlternatives alts;
  for (const auto& perm : perms) {
    std::vector<Symbol> lorder, rorder;
    for (size_t i : perm) {
      lorder.push_back(left.schema()[i].name);
      rorder.push_back(right.schema()[i].name);
    }
    AlgorithmAlternative alt;
    // Set intersection eliminates duplicates: the output is sorted AND
    // unique.
    alt.delivered = RelPhysProps::Make(model_.symbols(), SortOrder{lorder},
                                       {}, /*unique=*/true);
    if (!alt.delivered->Covers(*required)) continue;
    alt.input_props = {
        RelPhysProps::MakeSorted(model_.symbols(), std::move(lorder)),
        RelPhysProps::MakeSorted(model_.symbols(), std::move(rorder))};
    alts.push_back(std::move(alt));
  }
  return alts;
}

Cost IntersectToMergeIntersectRule::LocalCost(const Binding& b,
                                              const Memo& memo) const {
  return model_.rel_cost().MergeIntersect(LeafProps(memo, b, 0),
                                          LeafProps(memo, b, 1),
                                          RootProps(memo, b));
}

// --- IntersectToHashIntersectRule --------------------------------------------

IntersectToHashIntersectRule::IntersectToHashIntersectRule(
    const RelModel& model)
    : ImplementationRule(
          "intersect_to_hash_intersect",
          Pattern::Op(model.ops().intersect,
                      {Pattern::Any(), Pattern::Any()}),
          model.ops().hash_intersect),
      model_(model) {}

AlgorithmAlternatives
IntersectToHashIntersectRule::Applicability(const Binding& b, const Memo& memo,
                                            const PhysPropsPtr& required,
                                            const PhysProps* excluded) const {
  (void)b;
  (void)memo;
  (void)excluded;
  PhysPropsPtr delivered = model_.Unique();  // set semantics: no duplicates
  if (!delivered->Covers(*required)) return {};
  AlgorithmAlternative alt;
  alt.input_props = {model_.AnyProps(), model_.AnyProps()};
  alt.delivered = std::move(delivered);
  return OneAlternative(std::move(alt));
}

Cost IntersectToHashIntersectRule::LocalCost(const Binding& b,
                                             const Memo& memo) const {
  return model_.rel_cost().HashIntersect(LeafProps(memo, b, 0),
                                         LeafProps(memo, b, 1),
                                         RootProps(memo, b));
}

// --- UnionToConcatRule ---------------------------------------------------------

UnionToConcatRule::UnionToConcatRule(const RelModel& model)
    : ImplementationRule("union_to_concat",
                         Pattern::Op(model.ops().union_all,
                                     {Pattern::Any(), Pattern::Any()}),
                         model.ops().concat),
      model_(model) {}

AlgorithmAlternatives UnionToConcatRule::Applicability(
    const Binding& b, const Memo& memo, const PhysPropsPtr& required,
    const PhysProps* excluded) const {
  (void)b;
  (void)memo;
  (void)excluded;
  PhysPropsPtr delivered = model_.AnyProps();
  if (!delivered->Covers(*required)) return {};
  AlgorithmAlternative alt;
  alt.input_props = {model_.AnyProps(), model_.AnyProps()};
  alt.delivered = std::move(delivered);
  return OneAlternative(std::move(alt));
}

Cost UnionToConcatRule::LocalCost(const Binding& b, const Memo& memo) const {
  return model_.rel_cost().Concat(RootProps(memo, b));
}

// --- AggToHashAggRule ----------------------------------------------------------

AggToHashAggRule::AggToHashAggRule(const RelModel& model)
    : ImplementationRule("agg_to_hash_agg",
                         Pattern::Op(model.ops().aggregate, {Pattern::Any()}),
                         model.ops().hash_aggregate),
      model_(model) {}

AlgorithmAlternatives AggToHashAggRule::Applicability(
    const Binding& b, const Memo& memo, const PhysPropsPtr& required,
    const PhysProps* excluded) const {
  (void)b;
  (void)memo;
  (void)excluded;
  PhysPropsPtr delivered = model_.Unique();  // one row per group
  if (!delivered->Covers(*required)) return {};
  AlgorithmAlternative alt;
  alt.input_props = {model_.AnyProps()};
  alt.delivered = std::move(delivered);
  return OneAlternative(std::move(alt));
}

Cost AggToHashAggRule::LocalCost(const Binding& b, const Memo& memo) const {
  return model_.rel_cost().HashAggregate(LeafProps(memo, b, 0),
                                         RootProps(memo, b));
}

// --- AggToSortAggRule ----------------------------------------------------------

AggToSortAggRule::AggToSortAggRule(const RelModel& model)
    : ImplementationRule("agg_to_sort_agg",
                         Pattern::Op(model.ops().aggregate, {Pattern::Any()}),
                         model.ops().sort_aggregate),
      model_(model) {}

AlgorithmAlternatives AggToSortAggRule::Applicability(
    const Binding& b, const Memo& memo, const PhysPropsPtr& required,
    const PhysProps* excluded) const {
  (void)memo;
  (void)excluded;
  const auto& arg = static_cast<const AggArg&>(*b.root().arg());
  // One row per group: sorted on the grouping attribute and unique. The
  // input only needs the order (it may well contain duplicates).
  PhysPropsPtr delivered = model_.SortedUnique({arg.group_attr()});
  if (!delivered->Covers(*required)) return {};
  AlgorithmAlternative alt;
  alt.input_props = {model_.SortedOn(arg.group_attr())};
  alt.delivered = std::move(delivered);
  return OneAlternative(std::move(alt));
}

Cost AggToSortAggRule::LocalCost(const Binding& b, const Memo& memo) const {
  return model_.rel_cost().SortAggregate(LeafProps(memo, b, 0),
                                         RootProps(memo, b));
}

// --- JoinToParallelHashJoinRule ------------------------------------------------

JoinToParallelHashJoinRule::JoinToParallelHashJoinRule(const RelModel& model)
    : ImplementationRule(
          "join_to_parallel_hash_join",
          Pattern::Op(model.ops().join, {Pattern::Any(), Pattern::Any()}),
          model.ops().parallel_hash_join),
      model_(model) {}

AlgorithmAlternatives JoinToParallelHashJoinRule::Applicability(
    const Binding& b, const Memo& memo, const PhysPropsPtr& required,
    const PhysProps* excluded) const {
  (void)memo;
  (void)excluded;
  const JoinArg& arg = JoinArgOf(b.root());
  // Compatible partitioning: both inputs hashed on their join attribute
  // with the model's degree; the output is partitioned on the (left) join
  // attribute. Delivers no sort order.
  PhysPropsPtr delivered = model_.Partitioned(arg.left_attr());
  if (!delivered->Covers(*required)) return {};
  AlgorithmAlternative alt;
  alt.input_props = {delivered, model_.Partitioned(arg.right_attr())};
  alt.delivered = std::move(delivered);
  return OneAlternative(std::move(alt));
}

Cost JoinToParallelHashJoinRule::LocalCost(const Binding& b,
                                           const Memo& memo) const {
  return model_.rel_cost().ParallelHashJoin(
      LeafProps(memo, b, 0), LeafProps(memo, b, 1), RootProps(memo, b),
      model_.options().parallel_ways);
}

// --- LeftOuterJoinToHashRule -------------------------------------------------

LeftOuterJoinToHashRule::LeftOuterJoinToHashRule(const RelModel& model)
    : ImplementationRule("left_outer_join_to_hash",
                         Pattern::Op(model.ops().left_outer_join,
                                     {Pattern::Any(), Pattern::Any()}),
                         model.ops().hash_left_outer_join),
      model_(model) {}

AlgorithmAlternatives LeftOuterJoinToHashRule::Applicability(
    const Binding& b, const Memo& memo, const PhysPropsPtr& required,
    const PhysProps* excluded) const {
  (void)b;
  (void)memo;
  (void)excluded;
  // Like hybrid hash join: no input requirements, no promised properties.
  PhysPropsPtr delivered = model_.AnyProps();
  if (!delivered->Covers(*required)) return {};
  AlgorithmAlternative alt;
  alt.input_props = {model_.AnyProps(), model_.AnyProps()};
  alt.delivered = std::move(delivered);
  return OneAlternative(std::move(alt));
}

Cost LeftOuterJoinToHashRule::LocalCost(const Binding& b,
                                        const Memo& memo) const {
  return model_.rel_cost().HashLeftOuterJoin(LeafProps(memo, b, 0),
                                             LeafProps(memo, b, 1),
                                             RootProps(memo, b));
}

// --- SemijoinToHashRule ------------------------------------------------------

SemijoinToHashRule::SemijoinToHashRule(const RelModel& model)
    : ImplementationRule("semijoin_to_hash",
                         Pattern::Op(model.ops().semijoin,
                                     {Pattern::Any(), Pattern::Any()}),
                         model.ops().hash_semijoin),
      model_(model) {}

AlgorithmAlternatives SemijoinToHashRule::Applicability(
    const Binding& b, const Memo& memo, const PhysPropsPtr& required,
    const PhysProps* excluded) const {
  (void)b;
  (void)memo;
  (void)excluded;
  // The output is a filtered copy of the outer stream: order, uniqueness,
  // and partitioning all survive, so the requirement passes through to the
  // outer input (the inner side only feeds the key set).
  return OneAlternative({{required, model_.AnyProps()}, required});
}

Cost SemijoinToHashRule::LocalCost(const Binding& b, const Memo& memo) const {
  return model_.rel_cost().HashSemijoin(LeafProps(memo, b, 0),
                                        LeafProps(memo, b, 1),
                                        RootProps(memo, b));
}

// --- AntijoinToHashRule ------------------------------------------------------

AntijoinToHashRule::AntijoinToHashRule(const RelModel& model)
    : ImplementationRule("antijoin_to_hash",
                         Pattern::Op(model.ops().antijoin,
                                     {Pattern::Any(), Pattern::Any()}),
                         model.ops().hash_antijoin),
      model_(model) {}

AlgorithmAlternatives AntijoinToHashRule::Applicability(
    const Binding& b, const Memo& memo, const PhysPropsPtr& required,
    const PhysProps* excluded) const {
  (void)b;
  (void)memo;
  (void)excluded;
  return OneAlternative({{required, model_.AnyProps()}, required});
}

Cost AntijoinToHashRule::LocalCost(const Binding& b, const Memo& memo) const {
  return model_.rel_cost().HashAntijoin(LeafProps(memo, b, 0),
                                        LeafProps(memo, b, 1),
                                        RootProps(memo, b));
}

// --- DistinctToHashDistinctRule ----------------------------------------------

DistinctToHashDistinctRule::DistinctToHashDistinctRule(const RelModel& model)
    : ImplementationRule("distinct_to_hash_distinct",
                         Pattern::Op(model.ops().distinct, {Pattern::Any()}),
                         model.ops().hash_distinct),
      model_(model) {}

AlgorithmAlternatives DistinctToHashDistinctRule::Applicability(
    const Binding& b, const Memo& memo, const PhysPropsPtr& required,
    const PhysProps* excluded) const {
  (void)b;
  (void)memo;
  (void)excluded;
  PhysPropsPtr delivered = model_.Unique();  // hashing destroys any order
  if (!delivered->Covers(*required)) return {};
  AlgorithmAlternative alt;
  alt.input_props = {model_.AnyProps()};
  alt.delivered = std::move(delivered);
  return OneAlternative(std::move(alt));
}

Cost DistinctToHashDistinctRule::LocalCost(const Binding& b,
                                           const Memo& memo) const {
  return model_.rel_cost().HashDistinct(LeafProps(memo, b, 0),
                                        RootProps(memo, b));
}

// --- DistinctToSortDistinctRule ----------------------------------------------

DistinctToSortDistinctRule::DistinctToSortDistinctRule(const RelModel& model)
    : ImplementationRule("distinct_to_sort_distinct",
                         Pattern::Op(model.ops().distinct, {Pattern::Any()}),
                         model.ops().sort_distinct),
      model_(model) {}

AlgorithmAlternatives DistinctToSortDistinctRule::Applicability(
    const Binding& b, const Memo& memo, const PhysPropsPtr& required,
    const PhysProps* excluded) const {
  (void)excluded;
  // Sorts internally on the full column order, then drops adjacent
  // duplicates: delivers sorted AND unique without input requirements.
  const RelLogicalProps& in = LeafProps(memo, b, 0);
  std::vector<Symbol> order;
  order.reserve(in.schema().size());
  for (const auto& c : in.schema()) order.push_back(c.name);
  PhysPropsPtr delivered = model_.SortedUnique(std::move(order));
  if (!delivered->Covers(*required)) return {};
  AlgorithmAlternative alt;
  alt.input_props = {model_.AnyProps()};
  alt.delivered = std::move(delivered);
  return OneAlternative(std::move(alt));
}

Cost DistinctToSortDistinctRule::LocalCost(const Binding& b,
                                           const Memo& memo) const {
  return model_.rel_cost().SortDistinct(LeafProps(memo, b, 0),
                                        RootProps(memo, b));
}

OpArgPtr DistinctToSortDistinctRule::PlanArg(const Binding& b,
                                             const Memo& memo) const {
  const RelLogicalProps& in = LeafProps(memo, b, 0);
  std::vector<Symbol> order;
  order.reserve(in.schema().size());
  for (const auto& c : in.schema()) order.push_back(c.name);
  return SortArg::Make(model_.symbols(), SortOrder{std::move(order)});
}

// --- SubqueryToNestedRule ----------------------------------------------------

SubqueryToNestedRule::SubqueryToNestedRule(const RelModel& model)
    : ImplementationRule("subquery_to_nested",
                         Pattern::Op(model.ops().subquery,
                                     {Pattern::Any(), Pattern::Any()}),
                         model.ops().nested_subq),
      model_(model) {}

AlgorithmAlternatives SubqueryToNestedRule::Applicability(
    const Binding& b, const Memo& memo, const PhysPropsPtr& required,
    const PhysProps* excluded) const {
  (void)b;
  (void)memo;
  (void)excluded;
  // Streams the outer input, rescanning the inner per tuple: another
  // subset-of-outer operator, so requirements pass through to the outer.
  return OneAlternative({{required, model_.AnyProps()}, required});
}

Cost SubqueryToNestedRule::LocalCost(const Binding& b,
                                     const Memo& memo) const {
  return model_.rel_cost().NestedSubquery(LeafProps(memo, b, 0),
                                          LeafProps(memo, b, 1),
                                          RootProps(memo, b));
}

// --- SortEnforcerRule --------------------------------------------------------

SortEnforcerRule::SortEnforcerRule(const RelModel& model)
    : EnforcerRule("sort_enforcer", model.ops().sort), model_(model) {}

std::optional<EnforcerApplication> SortEnforcerRule::Enforce(
    const PhysPropsPtr& required, const LogicalProps& logical) const {
  const SortOrder& req = AsRel(*required).order();
  if (req.empty()) return std::nullopt;  // nothing to enforce
  // SORT is a serial operator; it cannot deliver a partitioned result.
  if (AsRel(*required).partitioning().is_hash()) return std::nullopt;
  const RelLogicalProps& lp = AsRel(logical);
  for (Symbol attr : req.attrs) {
    if (!lp.HasAttr(attr)) return std::nullopt;  // cannot sort on absent attr
  }
  EnforcerApplication app;
  app.delivered = required;
  // Sorting preserves uniqueness but cannot create it: a unique requirement
  // is passed through to the input (where e.g. HASH_DEDUP can establish it).
  app.input_required =
      AsRel(*required).unique() ? model_.Unique() : model_.AnyProps();
  // "The excluding physical property vector would contain the sort
  // condition" (paper section 3).
  app.excluded = app.delivered;
  return app;
}

Cost SortEnforcerRule::LocalCost(const LogicalProps& logical,
                                 const PhysProps& delivered) const {
  (void)delivered;
  return model_.rel_cost().Sort(AsRel(logical));
}

OpArgPtr SortEnforcerRule::PlanArg(const PhysProps& delivered) const {
  return SortArg::Make(model_.symbols(), AsRel(delivered).order());
}

// --- SortDedupEnforcerRule -------------------------------------------------------

SortDedupEnforcerRule::SortDedupEnforcerRule(const RelModel& model)
    : EnforcerRule("sort_dedup_enforcer", model.ops().sort_dedup),
      model_(model) {}

std::optional<EnforcerApplication> SortDedupEnforcerRule::Enforce(
    const PhysPropsPtr& required, const LogicalProps& logical) const {
  const RelPhysProps& req = AsRel(*required);
  if (!req.unique()) return std::nullopt;  // uniqueness not required
  if (req.partitioning().is_hash()) return std::nullopt;  // serial operator
  const RelLogicalProps& lp = AsRel(logical);
  for (Symbol attr : req.order().attrs) {
    if (!lp.HasAttr(attr)) return std::nullopt;
  }
  EnforcerApplication app;
  // Ensures TWO properties in one operator: the required order and
  // uniqueness (the sort runs over all columns with the required order as
  // the major prefix, then drops adjacent duplicates).
  app.delivered =
      RelPhysProps::Make(model_.symbols(), req.order(), {}, /*unique=*/true);
  app.input_required = model_.AnyProps();
  app.excluded = app.delivered;
  return app;
}

Cost SortDedupEnforcerRule::LocalCost(const LogicalProps& logical,
                                      const PhysProps& delivered) const {
  (void)delivered;
  return model_.rel_cost().SortDedup(AsRel(logical));
}

OpArgPtr SortDedupEnforcerRule::PlanArg(const PhysProps& delivered) const {
  return SortArg::Make(model_.symbols(), AsRel(delivered).order());
}

// --- HashDedupEnforcerRule -------------------------------------------------------

HashDedupEnforcerRule::HashDedupEnforcerRule(const RelModel& model)
    : EnforcerRule("hash_dedup_enforcer", model.ops().hash_dedup),
      model_(model) {}

std::optional<EnforcerApplication> HashDedupEnforcerRule::Enforce(
    const PhysPropsPtr& required, const LogicalProps& logical) const {
  (void)logical;
  const RelPhysProps& req = AsRel(*required);
  if (!req.unique()) return std::nullopt;
  // Enforces one property but destroys another: hashing loses any order, so
  // it cannot serve goals that also require one.
  if (!req.order().empty()) return std::nullopt;
  if (req.partitioning().is_hash()) return std::nullopt;
  EnforcerApplication app;
  app.delivered = model_.Unique();
  app.input_required = model_.AnyProps();
  app.excluded = app.delivered;
  return app;
}

Cost HashDedupEnforcerRule::LocalCost(const LogicalProps& logical,
                                      const PhysProps& delivered) const {
  (void)delivered;
  return model_.rel_cost().HashDedup(AsRel(logical));
}

// --- ExchangeEnforcerRule --------------------------------------------------------

ExchangeEnforcerRule::ExchangeEnforcerRule(const RelModel& model)
    : EnforcerRule("exchange_enforcer", model.ops().exchange),
      model_(model) {}

std::optional<EnforcerApplication> ExchangeEnforcerRule::Enforce(
    const PhysPropsPtr& required, const LogicalProps& logical) const {
  (void)logical;
  const RelPhysProps& req = AsRel(*required);
  // Exchange re-shuffles tuples: it cannot establish a sort order, so it
  // only applies to pure partitioning requirements; uniqueness is handled
  // by the dedup enforcers before gathering.
  if (!req.order().empty() || req.unique()) return std::nullopt;
  EnforcerApplication app;
  switch (req.partitioning().kind) {
    case Partitioning::Kind::kAny:
      return std::nullopt;  // nothing to enforce
    case Partitioning::Kind::kHash:
      // Repartition: accepts input in any state.
      app.delivered = required;
      app.input_required = model_.AnyProps();
      app.excluded = required;
      return app;
    case Partitioning::Kind::kSerial:
      // Merge exchange: gathers a partitioned stream back into one. The
      // excluding vector bars already-serial inputs ("do not qualify
      // redundantly"), so a merge exchange only ever tops parallel subplans.
      app.delivered = model_.Serial();
      app.input_required = model_.AnyProps();
      app.excluded = app.delivered;
      return app;
  }
  return std::nullopt;
}

Cost ExchangeEnforcerRule::LocalCost(const LogicalProps& logical,
                                     const PhysProps& delivered) const {
  const Partitioning& part = AsRel(delivered).partitioning();
  int ways = part.is_hash() ? part.ways : model_.options().parallel_ways;
  return model_.rel_cost().Exchange(AsRel(logical), ways);
}

OpArgPtr ExchangeEnforcerRule::PlanArg(const PhysProps& delivered) const {
  return ExchangeArg::Make(model_.symbols(), AsRel(delivered).partitioning());
}

double SortEnforcerRule::Promise(const PhysProps& required,
                                 const LogicalProps& logical) const {
  (void)required;
  (void)logical;
  // Pursue algorithms that deliver the order natively before paying for a
  // sort; a good first plan tightens the branch-and-bound limit early.
  return 0.5;
}

}  // namespace volcano::rel
