// Transformation, implementation, and enforcer rules of the relational model.
//
// These correspond to the paper's experimental rule set: join commutativity
// and associativity as transformation rules; FILE_SCAN, FILTER, MERGE_JOIN
// and HYBRID_HASH_JOIN implementation rules; SORT as the (only) enforcer
// ("sorting was modeled as an enforcer in Volcano", section 4.2). Optional
// select push/pull rules and the intersection rules (merge-based with
// multiple alternative input orders, section 3's example) extend the set.

#ifndef VOLCANO_RELATIONAL_REL_RULES_H_
#define VOLCANO_RELATIONAL_REL_RULES_H_

#include <optional>
#include <vector>

#include "rules/rule.h"

namespace volcano::rel {

class RelModel;

// --- transformation rules ---------------------------------------------------

/// JOIN[l=r](?a, ?b)  ->  JOIN[r=l](?b, ?a)
class JoinCommuteRule final : public TransformationRule {
 public:
  explicit JoinCommuteRule(const RelModel& model);
  Rex::Ref Apply(const Binding& binding, const Memo& memo,
                 Rex& out) const override;

 private:
  const RelModel& model_;
};

/// JOIN[p2](JOIN[p1](?a, ?b), ?c)  ->  JOIN[p1](?a, JOIN[p2](?b, ?c))
/// Valid when p2's left attribute comes from ?b (no cross products are
/// introduced; predicates stay attached to joins that can evaluate them).
class JoinAssocLeftRule final : public TransformationRule {
 public:
  explicit JoinAssocLeftRule(const RelModel& model);
  bool Condition(const Binding& binding, const Memo& memo) const override;
  Rex::Ref Apply(const Binding& binding, const Memo& memo,
                 Rex& out) const override;

 private:
  const RelModel& model_;
};

/// JOIN[p2](?a, JOIN[p1](?b, ?c))  ->  JOIN[p1](JOIN[p2](?a, ?b), ?c)
/// Valid when p2's right attribute comes from ?b.
class JoinAssocRightRule final : public TransformationRule {
 public:
  explicit JoinAssocRightRule(const RelModel& model);
  bool Condition(const Binding& binding, const Memo& memo) const override;
  Rex::Ref Apply(const Binding& binding, const Memo& memo,
                 Rex& out) const override;

 private:
  const RelModel& model_;
};

/// SELECT[p](JOIN(?a, ?b))  ->  JOIN(SELECT[p](?a), ?b), if p references ?a.
class SelectPushThroughJoinRule final : public TransformationRule {
 public:
  explicit SelectPushThroughJoinRule(const RelModel& model);
  bool Condition(const Binding& binding, const Memo& memo) const override;
  Rex::Ref Apply(const Binding& binding, const Memo& memo,
                 Rex& out) const override;

 private:
  const RelModel& model_;
};

/// JOIN(SELECT[p](?a), ?b)  ->  SELECT[p](JOIN(?a, ?b)).
class SelectPullFromJoinRule final : public TransformationRule {
 public:
  explicit SelectPullFromJoinRule(const RelModel& model);
  Rex::Ref Apply(const Binding& binding, const Memo& memo,
                 Rex& out) const override;

 private:
  const RelModel& model_;
};

/// INTERSECT(?a, ?b) -> INTERSECT(?b, ?a)
class IntersectCommuteRule final : public TransformationRule {
 public:
  explicit IntersectCommuteRule(const RelModel& model);
  Rex::Ref Apply(const Binding& binding, const Memo& memo,
                 Rex& out) const override;

 private:
  const RelModel& model_;
};

/// UNION(?a, ?b) -> UNION(?b, ?a) (bag union; positional schemas).
class UnionCommuteRule final : public TransformationRule {
 public:
  explicit UnionCommuteRule(const RelModel& model);
  Rex::Ref Apply(const Binding& binding, const Memo& memo,
                 Rex& out) const override;

 private:
  const RelModel& model_;
};

/// SELECT[p](AGGREGATE(?x)) -> AGGREGATE(SELECT[p](?x)) when the predicate
/// restricts the grouping attribute (selections on the count column cannot
/// move below the aggregation).
class SelectThroughAggregateRule final : public TransformationRule {
 public:
  explicit SelectThroughAggregateRule(const RelModel& model);
  bool Condition(const Binding& binding, const Memo& memo) const override;
  Rex::Ref Apply(const Binding& binding, const Memo& memo,
                 Rex& out) const override;

 private:
  const RelModel& model_;
};

/// SUBQUERY[x IN s](?outer, ?sub) -> SEMIJOIN[x = s](?outer, ?sub): the
/// uncorrelated `IN (SELECT ...)` unnesting — the membership test is an
/// existence test, so the nested predicate becomes a join the optimizer can
/// reorder and hash ("Query Optimization in the Wild" names unnesting as a
/// headline gap between textbook and industrial optimizers).
class UnnestInToSemijoinRule final : public TransformationRule {
 public:
  explicit UnnestInToSemijoinRule(const RelModel& model);
  bool Condition(const Binding& binding, const Memo& memo) const override;
  Rex::Ref Apply(const Binding& binding, const Memo& memo,
                 Rex& out) const override;

 private:
  const RelModel& model_;
};

/// SUBQUERY[EXISTS, x = s](?outer, ?sub) -> SEMIJOIN[x = s](?outer, ?sub):
/// the correlated `EXISTS (SELECT ... WHERE s = x)` unnesting.
class UnnestExistsToSemijoinRule final : public TransformationRule {
 public:
  explicit UnnestExistsToSemijoinRule(const RelModel& model);
  bool Condition(const Binding& binding, const Memo& memo) const override;
  Rex::Ref Apply(const Binding& binding, const Memo& memo,
                 Rex& out) const override;

 private:
  const RelModel& model_;
};

/// SUBQUERY[NOT ...](?outer, ?sub) -> ANTIJOIN(?outer, ?sub): `NOT IN` and
/// `NOT EXISTS` keep the outer tuples WITHOUT a partner.
class UnnestToAntijoinRule final : public TransformationRule {
 public:
  explicit UnnestToAntijoinRule(const RelModel& model);
  bool Condition(const Binding& binding, const Memo& memo) const override;
  Rex::Ref Apply(const Binding& binding, const Memo& memo,
                 Rex& out) const override;

 private:
  const RelModel& model_;
};

/// SELECT[p](LEFT_OUTER_JOIN(?a, ?b)) -> SELECT[p](JOIN(?a, ?b)) when p
/// references the inner (?b) side: every predicate of this model rejects
/// NULL, so the padded tuples cannot survive the selection and the outer
/// join reduces to an inner join — unlocking the whole join-reordering
/// rule set for the query.
class OuterJoinToJoinRule final : public TransformationRule {
 public:
  explicit OuterJoinToJoinRule(const RelModel& model);
  bool Condition(const Binding& binding, const Memo& memo) const override;
  Rex::Ref Apply(const Binding& binding, const Memo& memo,
                 Rex& out) const override;

 private:
  const RelModel& model_;
};

/// SEMIJOIN[p2](SEMIJOIN[p1](?a, ?b), ?c) -> SEMIJOIN[p1](SEMIJOIN[p2](?a,
/// ?c), ?b): consecutive existence filters on the same outer input commute
/// (both predicates reference only ?a's schema), letting the optimizer
/// apply the most selective one first.
class SemijoinReorderRule final : public TransformationRule {
 public:
  explicit SemijoinReorderRule(const RelModel& model);
  bool Condition(const Binding& binding, const Memo& memo) const override;
  Rex::Ref Apply(const Binding& binding, const Memo& memo,
                 Rex& out) const override;

 private:
  const RelModel& model_;
};

/// DISTINCT(DISTINCT(?x)) -> DISTINCT(?x).
class DistinctCollapseRule final : public TransformationRule {
 public:
  explicit DistinctCollapseRule(const RelModel& model);
  Rex::Ref Apply(const Binding& binding, const Memo& memo,
                 Rex& out) const override;

 private:
  const RelModel& model_;
};

/// SEMIJOIN(?a, DISTINCT(?b)) -> SEMIJOIN(?a, ?b): the existence test is
/// insensitive to duplicates on the inner side.
class SemijoinAbsorbDistinctRule final : public TransformationRule {
 public:
  explicit SemijoinAbsorbDistinctRule(const RelModel& model);
  Rex::Ref Apply(const Binding& binding, const Memo& memo,
                 Rex& out) const override;

 private:
  const RelModel& model_;
};

/// ANTIJOIN(?a, DISTINCT(?b)) -> ANTIJOIN(?a, ?b).
class AntijoinAbsorbDistinctRule final : public TransformationRule {
 public:
  explicit AntijoinAbsorbDistinctRule(const RelModel& model);
  Rex::Ref Apply(const Binding& binding, const Memo& memo,
                 Rex& out) const override;

 private:
  const RelModel& model_;
};

// --- implementation rules ---------------------------------------------------

/// GET -> FILE_SCAN; delivers the stored order of the file.
class GetToFileScanRule final : public ImplementationRule {
 public:
  explicit GetToFileScanRule(const RelModel& model);
  AlgorithmAlternatives Applicability(
      const Binding& binding, const Memo& memo, const PhysPropsPtr& required,
      const PhysProps* excluded) const override;
  Cost LocalCost(const Binding& binding, const Memo& memo) const override;

 private:
  const RelModel& model_;
};

/// SELECT -> FILTER; order-preserving, so it passes the requirement through
/// to its input.
class SelectToFilterRule final : public ImplementationRule {
 public:
  explicit SelectToFilterRule(const RelModel& model);
  AlgorithmAlternatives Applicability(
      const Binding& binding, const Memo& memo, const PhysPropsPtr& required,
      const PhysProps* excluded) const override;
  Cost LocalCost(const Binding& binding, const Memo& memo) const override;

 private:
  const RelModel& model_;
};

/// JOIN -> MERGE_JOIN; requires both inputs sorted on the join attributes
/// and delivers output sorted on the (left) join attribute — the
/// interesting-orders machinery of the search engine keys off this rule.
class JoinToMergeJoinRule final : public ImplementationRule {
 public:
  explicit JoinToMergeJoinRule(const RelModel& model);
  bool Condition(const Binding& binding, const Memo& memo) const override;
  AlgorithmAlternatives Applicability(
      const Binding& binding, const Memo& memo, const PhysPropsPtr& required,
      const PhysProps* excluded) const override;
  Cost LocalCost(const Binding& binding, const Memo& memo) const override;

 private:
  const RelModel& model_;
};

/// JOIN -> HYBRID_HASH_JOIN; no input requirements, delivers no order
/// ("hybrid hash join for unsorted output", paper section 3).
class JoinToHashJoinRule final : public ImplementationRule {
 public:
  explicit JoinToHashJoinRule(const RelModel& model);
  bool Condition(const Binding& binding, const Memo& memo) const override;
  AlgorithmAlternatives Applicability(
      const Binding& binding, const Memo& memo, const PhysPropsPtr& required,
      const PhysProps* excluded) const override;
  Cost LocalCost(const Binding& binding, const Memo& memo) const override;

 private:
  const RelModel& model_;
};

/// JOIN(JOIN(?a, ?b), ?c) -> MULTI_HASH_JOIN: a multi-operator pattern
/// mapping two logical operators onto one ternary algorithm ("it is
/// possible to map multiple logical operators to a single physical
/// operator", section 2.2; "the introduction of a new, non-trivial
/// algorithm such as a multi-way join requires one or two implementation
/// rules in Volcano", section 6).
class JoinToMultiHashJoinRule final : public ImplementationRule {
 public:
  explicit JoinToMultiHashJoinRule(const RelModel& model);
  AlgorithmAlternatives Applicability(
      const Binding& binding, const Memo& memo, const PhysPropsPtr& required,
      const PhysProps* excluded) const override;
  Cost LocalCost(const Binding& binding, const Memo& memo) const override;
  OpArgPtr PlanArg(const Binding& binding, const Memo& memo) const override;

 private:
  const RelModel& model_;
};

/// PROJECT -> PROJECT_OP; order-preserving if the order's attributes survive
/// the projection.
class ProjectRule final : public ImplementationRule {
 public:
  explicit ProjectRule(const RelModel& model);
  AlgorithmAlternatives Applicability(
      const Binding& binding, const Memo& memo, const PhysPropsPtr& required,
      const PhysProps* excluded) const override;
  Cost LocalCost(const Binding& binding, const Memo& memo) const override;

 private:
  const RelModel& model_;
};

/// INTERSECT -> MERGE_INTERSECT. The paper's showcase for multiple
/// alternative input property vectors: "any sort order of the two inputs
/// will suffice as long as the two inputs are sorted in the same way"
/// (section 3); the rule offers one alternative per candidate order.
class IntersectToMergeIntersectRule final : public ImplementationRule {
 public:
  explicit IntersectToMergeIntersectRule(const RelModel& model);
  AlgorithmAlternatives Applicability(
      const Binding& binding, const Memo& memo, const PhysPropsPtr& required,
      const PhysProps* excluded) const override;
  Cost LocalCost(const Binding& binding, const Memo& memo) const override;

 private:
  const RelModel& model_;
};

/// INTERSECT -> HASH_INTERSECT; no requirements, no order.
class IntersectToHashIntersectRule final : public ImplementationRule {
 public:
  explicit IntersectToHashIntersectRule(const RelModel& model);
  AlgorithmAlternatives Applicability(
      const Binding& binding, const Memo& memo, const PhysPropsPtr& required,
      const PhysProps* excluded) const override;
  Cost LocalCost(const Binding& binding, const Memo& memo) const override;

 private:
  const RelModel& model_;
};

/// UNION -> CONCAT (bag union; destroys order).
class UnionToConcatRule final : public ImplementationRule {
 public:
  explicit UnionToConcatRule(const RelModel& model);
  AlgorithmAlternatives Applicability(
      const Binding& binding, const Memo& memo, const PhysPropsPtr& required,
      const PhysProps* excluded) const override;
  Cost LocalCost(const Binding& binding, const Memo& memo) const override;

 private:
  const RelModel& model_;
};

/// AGGREGATE -> HASH_AGGREGATE (no requirements, no order).
class AggToHashAggRule final : public ImplementationRule {
 public:
  explicit AggToHashAggRule(const RelModel& model);
  AlgorithmAlternatives Applicability(
      const Binding& binding, const Memo& memo, const PhysPropsPtr& required,
      const PhysProps* excluded) const override;
  Cost LocalCost(const Binding& binding, const Memo& memo) const override;

 private:
  const RelModel& model_;
};

/// AGGREGATE -> SORT_AGGREGATE: streaming aggregation requiring the input
/// sorted on the grouping attribute and delivering that order — grouping is
/// a second consumer of interesting orders beside merge join.
class AggToSortAggRule final : public ImplementationRule {
 public:
  explicit AggToSortAggRule(const RelModel& model);
  AlgorithmAlternatives Applicability(
      const Binding& binding, const Memo& memo, const PhysPropsPtr& required,
      const PhysProps* excluded) const override;
  Cost LocalCost(const Binding& binding, const Memo& memo) const override;

 private:
  const RelModel& model_;
};

/// JOIN -> PARALLEL_HASH_JOIN: requires both inputs hash-partitioned on the
/// join attributes with the same degree ("for a parallel join, any
/// partitioning of join inputs across multiple processing nodes is
/// acceptable if both inputs are partitioned using compatible partitioning
/// rules", section 3); delivers partitioned output, no order.
class JoinToParallelHashJoinRule final : public ImplementationRule {
 public:
  explicit JoinToParallelHashJoinRule(const RelModel& model);
  AlgorithmAlternatives Applicability(
      const Binding& binding, const Memo& memo, const PhysPropsPtr& required,
      const PhysProps* excluded) const override;
  Cost LocalCost(const Binding& binding, const Memo& memo) const override;

 private:
  const RelModel& model_;
};

/// LEFT_OUTER_JOIN -> HASH_LEFT_OUTER_JOIN: builds on the inner (right)
/// input, probes with the outer, NULL-pads unmatched probes. Like hybrid
/// hash join it promises no output properties.
class LeftOuterJoinToHashRule final : public ImplementationRule {
 public:
  explicit LeftOuterJoinToHashRule(const RelModel& model);
  AlgorithmAlternatives Applicability(
      const Binding& binding, const Memo& memo, const PhysPropsPtr& required,
      const PhysProps* excluded) const override;
  Cost LocalCost(const Binding& binding, const Memo& memo) const override;

 private:
  const RelModel& model_;
};

/// SEMIJOIN -> HASH_SEMIJOIN: builds a key set on the inner input and
/// streams the outer through it. The output is a subset of the outer
/// stream, so any required property is passed through to the outer input
/// (order, uniqueness, partitioning all survive filtering).
class SemijoinToHashRule final : public ImplementationRule {
 public:
  explicit SemijoinToHashRule(const RelModel& model);
  AlgorithmAlternatives Applicability(
      const Binding& binding, const Memo& memo, const PhysPropsPtr& required,
      const PhysProps* excluded) const override;
  Cost LocalCost(const Binding& binding, const Memo& memo) const override;

 private:
  const RelModel& model_;
};

/// ANTIJOIN -> HASH_ANTIJOIN; property pass-through as HASH_SEMIJOIN.
class AntijoinToHashRule final : public ImplementationRule {
 public:
  explicit AntijoinToHashRule(const RelModel& model);
  AlgorithmAlternatives Applicability(
      const Binding& binding, const Memo& memo, const PhysPropsPtr& required,
      const PhysProps* excluded) const override;
  Cost LocalCost(const Binding& binding, const Memo& memo) const override;

 private:
  const RelModel& model_;
};

/// DISTINCT -> HASH_DISTINCT (uniqueness, no order — the operator analogue
/// of the HASH_DEDUP enforcer).
class DistinctToHashDistinctRule final : public ImplementationRule {
 public:
  explicit DistinctToHashDistinctRule(const RelModel& model);
  AlgorithmAlternatives Applicability(
      const Binding& binding, const Memo& memo, const PhysPropsPtr& required,
      const PhysProps* excluded) const override;
  Cost LocalCost(const Binding& binding, const Memo& memo) const override;

 private:
  const RelModel& model_;
};

/// DISTINCT -> SORT_DISTINCT: sorts on the full column order and drops
/// adjacent duplicates; delivers sorted AND unique output (a second
/// property-establishing alternative, mirroring SORT_DEDUP).
class DistinctToSortDistinctRule final : public ImplementationRule {
 public:
  explicit DistinctToSortDistinctRule(const RelModel& model);
  AlgorithmAlternatives Applicability(
      const Binding& binding, const Memo& memo, const PhysPropsPtr& required,
      const PhysProps* excluded) const override;
  Cost LocalCost(const Binding& binding, const Memo& memo) const override;
  OpArgPtr PlanArg(const Binding& binding, const Memo& memo) const override;

 private:
  const RelModel& model_;
};

/// SUBQUERY -> NESTED_SUBQ: the naive correlated execution (rescan the
/// inner input per outer tuple). Its quadratic cost is what makes the
/// unnesting transformations win; it exists so un-unnested plans are
/// executable and so the speedup is measurable.
class SubqueryToNestedRule final : public ImplementationRule {
 public:
  explicit SubqueryToNestedRule(const RelModel& model);
  AlgorithmAlternatives Applicability(
      const Binding& binding, const Memo& memo, const PhysPropsPtr& required,
      const PhysProps* excluded) const override;
  Cost LocalCost(const Binding& binding, const Memo& memo) const override;

 private:
  const RelModel& model_;
};

// --- enforcers ---------------------------------------------------------------

/// SORT: enforces a required sort order; its input is optimized with the
/// relaxed ("any") property vector and with the sort order as the excluding
/// physical property vector, so that e.g. merge-join "must not be considered
/// as input to the sort" when it could deliver the order itself (section 2.2).
class SortEnforcerRule final : public EnforcerRule {
 public:
  explicit SortEnforcerRule(const RelModel& model);
  std::optional<EnforcerApplication> Enforce(
      const PhysPropsPtr& required, const LogicalProps& logical) const override;
  Cost LocalCost(const LogicalProps& logical,
                 const PhysProps& delivered) const override;
  OpArgPtr PlanArg(const PhysProps& delivered) const override;
  double Promise(const PhysProps& required,
                 const LogicalProps& logical) const override;

 private:
  const RelModel& model_;
};

/// SORT_DEDUP: sort-based uniqueness enforcer. "It is possible for an
/// enforcer to ensure two properties" (section 2.2): one operator
/// establishes both the required sort order and uniqueness.
class SortDedupEnforcerRule final : public EnforcerRule {
 public:
  explicit SortDedupEnforcerRule(const RelModel& model);
  std::optional<EnforcerApplication> Enforce(
      const PhysPropsPtr& required, const LogicalProps& logical)
      const override;
  Cost LocalCost(const LogicalProps& logical,
                 const PhysProps& delivered) const override;
  OpArgPtr PlanArg(const PhysProps& delivered) const override;

 private:
  const RelModel& model_;
};

/// HASH_DEDUP: hash-based uniqueness enforcer — "or to enforce one but
/// destroy another" (section 2.2): establishes uniqueness, destroys order.
/// Together with SORT_DEDUP this realizes "uniqueness might be a physical
/// property with two enforcers, sort- and hash-based" (section 4.1).
class HashDedupEnforcerRule final : public EnforcerRule {
 public:
  explicit HashDedupEnforcerRule(const RelModel& model);
  std::optional<EnforcerApplication> Enforce(
      const PhysPropsPtr& required, const LogicalProps& logical)
      const override;
  Cost LocalCost(const LogicalProps& logical,
                 const PhysProps& delivered) const override;

 private:
  const RelModel& model_;
};

/// EXCHANGE: enforces partitioning requirements (hash repartitioning) or
/// merges a partitioned stream back to serial — "a network and parallelism
/// operator such as Volcano's exchange operator" as the enforcer for the
/// partitioning property (section 4.1). Destroys sort order.
class ExchangeEnforcerRule final : public EnforcerRule {
 public:
  explicit ExchangeEnforcerRule(const RelModel& model);
  std::optional<EnforcerApplication> Enforce(
      const PhysPropsPtr& required, const LogicalProps& logical)
      const override;
  Cost LocalCost(const LogicalProps& logical,
                 const PhysProps& delivered) const override;
  OpArgPtr PlanArg(const PhysProps& delivered) const override;

 private:
  const RelModel& model_;
};

}  // namespace volcano::rel

#endif  // VOLCANO_RELATIONAL_REL_RULES_H_
