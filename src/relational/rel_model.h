// The relational data model: the optimizer the paper's experiments generate.
//
// Logical algebra: GET, SELECT, JOIN (the paper's experimental model,
// section 4.2) plus PROJECT, INTERSECT (the multiple-alternative-input-
// properties showcase), UNION, and AGGREGATE. Physical algebra: FILE_SCAN,
// FILTER, MERGE_JOIN, HYBRID_HASH_JOIN, the ternary MULTI_HASH_JOIN (§6,
// opt-in), PROJECT_OP, MERGE/HASH_INTERSECT, CONCAT, HASH/SORT_AGGREGATE,
// PARALLEL_HASH_JOIN (opt-in), and the enforcers SORT, SORT_DEDUP,
// HASH_DEDUP, EXCHANGE (opt-in). RelModel assembles the operator registry,
// the rule set, the property functions, and the cost model into a DataModel
// the generic search engine can run — exactly the bundle a generated
// optimizer links against.

#ifndef VOLCANO_RELATIONAL_REL_MODEL_H_
#define VOLCANO_RELATIONAL_REL_MODEL_H_

#include <memory>
#include <vector>

#include "algebra/data_model.h"
#include "algebra/expr.h"
#include "relational/catalog.h"
#include "relational/rel_args.h"
#include "relational/rel_cost.h"
#include "relational/rel_props.h"
#include "rules/rule_set.h"

namespace volcano::rel {

/// Operator ids of the relational model, filled during registration.
struct RelOps {
  // Logical algebra.
  OperatorId get = kInvalidOperator;
  OperatorId select = kInvalidOperator;
  OperatorId join = kInvalidOperator;
  OperatorId project = kInvalidOperator;
  OperatorId intersect = kInvalidOperator;
  OperatorId union_all = kInvalidOperator;
  OperatorId aggregate = kInvalidOperator;  ///< GROUP BY + COUNT(*)
  // Decision-support extension (outer joins + subquery unnesting).
  OperatorId left_outer_join = kInvalidOperator;  ///< NULL-padding join
  OperatorId semijoin = kInvalidOperator;   ///< left rows with a match
  OperatorId antijoin = kInvalidOperator;   ///< left rows without a match
  OperatorId distinct = kInvalidOperator;   ///< duplicate elimination
  OperatorId subquery = kInvalidOperator;   ///< nested [NOT] IN / EXISTS
  // Physical algebra.
  OperatorId file_scan = kInvalidOperator;
  OperatorId filter = kInvalidOperator;
  OperatorId merge_join = kInvalidOperator;
  OperatorId hash_join = kInvalidOperator;
  OperatorId project_op = kInvalidOperator;
  OperatorId merge_intersect = kInvalidOperator;
  OperatorId hash_intersect = kInvalidOperator;
  OperatorId multi_hash_join = kInvalidOperator;  ///< ternary (section 6)
  OperatorId concat = kInvalidOperator;           ///< bag union
  OperatorId hash_aggregate = kInvalidOperator;
  OperatorId sort_aggregate = kInvalidOperator;   ///< needs sorted input
  OperatorId hash_left_outer_join = kInvalidOperator;  ///< builds the inner
  OperatorId hash_semijoin = kInvalidOperator;
  OperatorId hash_antijoin = kInvalidOperator;
  OperatorId hash_distinct = kInvalidOperator;
  OperatorId sort_distinct = kInvalidOperator;  ///< sorts, then dedups
  OperatorId nested_subq = kInvalidOperator;    ///< naive correlated loop
  OperatorId parallel_hash_join = kInvalidOperator;  ///< parallel extension
  // Enforcers.
  OperatorId sort = kInvalidOperator;
  OperatorId sort_dedup = kInvalidOperator;  ///< uniqueness, sort-based
  OperatorId hash_dedup = kInvalidOperator;  ///< uniqueness, hash-based
  OperatorId exchange = kInvalidOperator;    ///< parallel extension
};

/// Model configuration: which transformation rules are active and the cost
/// parameters. The defaults match the paper's Figure 4 configuration
/// (join commutativity + associativity, selections pre-placed on base
/// relations, all bushy shapes reachable).
struct RelModelOptions {
  bool enable_join_commute = true;
  bool enable_join_assoc_left = true;   ///< JOIN(JOIN(a,b),c) -> JOIN(a,JOIN(b,c))
  bool enable_join_assoc_right = true;  ///< JOIN(a,JOIN(b,c)) -> JOIN(JOIN(a,b),c)
  /// With all three join rules on, each rule disables on the join it
  /// creates the rules that would only re-derive joins the memo already
  /// holds (Pellenkoft et al., VLDB 1997): commutativity disables all three,
  /// each associativity disables both associativities. The same expressions
  /// are reached from far fewer transformations. Off, the classic rule set
  /// derives each join many times, as the paper's Figure 4 measures.
  bool duplicate_free_joins = true;
  bool enable_select_pushdown = false;  ///< SELECT over JOIN pushes into inputs
  bool enable_select_pullup = false;    ///< inverse of pushdown
  bool enable_intersect_commute = true;
  bool enable_union_commute = true;
  /// SELECT[p](AGGREGATE(x)) -> AGGREGATE(SELECT[p](x)) when p restricts the
  /// grouping attribute.
  bool enable_select_through_aggregate = true;
  /// Subquery unnesting: SUBQUERY -> SEMIJOIN (IN/EXISTS) or ANTIJOIN
  /// (NOT IN/NOT EXISTS). Disabling leaves only the naive NESTED_SUBQ
  /// execution — the ablation baseline for the unnesting speedup guard.
  bool enable_unnest_subqueries = true;
  /// SELECT[p](LEFT_OUTER_JOIN(a,b)) -> SELECT[p](JOIN(a,b)) when p is a
  /// null-rejecting predicate on the inner side (outer-join reduction).
  bool enable_outer_join_simplify = true;
  /// SEMIJOIN(SEMIJOIN(a,b),c) -> SEMIJOIN(SEMIJOIN(a,c),b): consecutive
  /// semijoin filters on the same outer input commute.
  bool enable_semijoin_reorder = true;
  /// DISTINCT(DISTINCT(x)) -> DISTINCT(x) and SEMIJOIN/ANTIJOIN absorbing a
  /// DISTINCT on their inner input (match existence ignores duplicates).
  bool enable_distinct_simplify = true;
  /// Maps JOIN(JOIN(a,b),c) to the ternary MULTI_HASH_JOIN algorithm — the
  /// paper's section 6 example of adding "a new, non-trivial algorithm such
  /// as a multi-way join" with a single implementation rule.
  bool enable_multiway_join = false;
  /// Restricts join algorithms to left-deep trees ("no composite inner",
  /// the Starburst search-space restriction the paper mentions in §5),
  /// implemented purely as rule *condition code* — §1's requirement that
  /// heuristics "prune futile parts of the search space" be expressible by
  /// the optimizer implementor.
  bool left_deep_only = false;
  /// Parallel extension (paper section 4.1): partitioning as a physical
  /// property, enforced by Volcano's EXCHANGE operator, exploited by a
  /// partitioned hash join whose CPU cost divides across the workers.
  bool enable_parallelism = false;
  int parallel_ways = 4;  ///< degree of parallelism when enabled
  CostParams cost_params;
};

/// The relational DataModel.
class RelModel : public DataModel {
 public:
  explicit RelModel(const Catalog& catalog, RelModelOptions options = {});

  // --- DataModel -----------------------------------------------------------
  const OperatorRegistry& registry() const override { return registry_; }
  const RuleSet& rule_set() const override { return rules_; }
  const CostModel& cost_model() const override { return cost_model_; }
  LogicalPropsPtr DeriveLogicalProps(
      OperatorId op, const OpArg* arg,
      const std::vector<LogicalPropsPtr>& inputs) const override;
  PhysPropsPtr AnyProps() const override { return any_; }
  /// Greedy join reordering over the extracted query graph (join_graph.h);
  /// null when the query has fewer than three join leaves or its graph is
  /// invalid/disconnected.
  ExprPtr HeuristicJoinOrder(const Expr& query) const override;
  /// Number of join leaves of the topmost join subtree.
  int JoinComplexity(const Expr& query) const override;

  // --- model accessors -----------------------------------------------------
  const RelOps& ops() const { return ops_; }
  const Catalog& catalog() const { return catalog_; }
  const SymbolTable& symbols() const { return catalog_.symbols(); }
  const RelCostModel& rel_cost() const { return cost_model_; }
  const RelModelOptions& options() const { return options_; }

  // --- expression builders (the "parser output") ---------------------------
  ExprPtr Get(Symbol relation) const;
  ExprPtr Get(std::string_view relation) const;
  ExprPtr Select(ExprPtr input, Symbol attr, CmpOp op, int64_t constant,
                 double selectivity) const;
  ExprPtr Join(ExprPtr left, ExprPtr right, Symbol left_attr,
               Symbol right_attr) const;
  ExprPtr Project(ExprPtr input, std::vector<Symbol> attrs) const;
  ExprPtr Intersect(ExprPtr left, ExprPtr right) const;
  ExprPtr UnionAll(ExprPtr left, ExprPtr right) const;
  /// GROUP BY `group_attr`, COUNT(*) AS `count_attr` (an interned symbol the
  /// caller provides, e.g. via catalog.symbols().Intern("cnt")).
  ExprPtr Aggregate(ExprPtr input, Symbol group_attr,
                    Symbol count_attr) const;
  /// LEFT OUTER JOIN: every left tuple survives; unmatched ones are padded
  /// with NULLs on the right schema.
  ExprPtr LeftOuterJoin(ExprPtr left, ExprPtr right, Symbol left_attr,
                        Symbol right_attr) const;
  /// Left tuples with at least one / no match in the right input.
  ExprPtr Semijoin(ExprPtr left, ExprPtr right, Symbol left_attr,
                   Symbol right_attr) const;
  ExprPtr Antijoin(ExprPtr left, ExprPtr right, Symbol left_attr,
                   Symbol right_attr) const;
  /// Duplicate elimination as a logical operator (subquery bodies; top-level
  /// SELECT DISTINCT stays a physical-property requirement).
  ExprPtr Distinct(ExprPtr input) const;
  /// Nested subquery predicate as parsed: outer_attr [NOT] IN / EXISTS the
  /// subquery block. The unnesting rules rewrite it; NESTED_SUBQ runs it
  /// naively.
  ExprPtr Subquery(ExprPtr outer, ExprPtr inner, Symbol outer_attr,
                   Symbol inner_attr, SubqueryKind kind, bool negated) const;

  /// Physical property vectors.
  PhysPropsPtr Sorted(std::vector<Symbol> attrs) const {
    return RelPhysProps::MakeSorted(symbols(), std::move(attrs));
  }

  /// Cached single-attribute sort-order vector; rules on hot paths (every
  /// merge-join applicability check) share these instead of re-allocating.
  PhysPropsPtr SortedOn(Symbol attr) const;

  /// Cached stored-order vector of a base relation's file.
  PhysPropsPtr StoredOrderOf(Symbol relation) const;

  /// {no order, serial} — the final requirement of parallel queries.
  PhysPropsPtr Serial() const { return serial_; }

  /// {no order, any partitioning, unique} — the SELECT DISTINCT requirement.
  PhysPropsPtr Unique() const { return unique_any_; }

  /// {order, any partitioning, unique}.
  PhysPropsPtr SortedUnique(std::vector<Symbol> attrs) const {
    return RelPhysProps::Make(symbols(), SortOrder{std::move(attrs)}, {},
                              /*unique=*/true);
  }

  /// {no order, hash(attr, ways)} with the model's configured parallelism.
  PhysPropsPtr Partitioned(Symbol attr) const;

  /// Renders a logical expression for debugging.
  std::string ExprToString(const Expr& expr) const;

 private:
  void RegisterOperators();
  void RegisterRules();

  const Catalog& catalog_;
  RelModelOptions options_;
  OperatorRegistry registry_;
  RuleSet rules_;
  RelCostModel cost_model_;
  RelOps ops_;
  PhysPropsPtr any_;
  PhysPropsPtr serial_;
  PhysPropsPtr unique_any_;
  // Lazily-populated property memos, indexed by symbol id (symbols are
  // small dense integers).
  mutable std::vector<PhysPropsPtr> sorted_on_cache_;
  mutable std::vector<PhysPropsPtr> partitioned_cache_;
  mutable std::vector<PhysPropsPtr> stored_order_cache_;
};

}  // namespace volcano::rel

#endif  // VOLCANO_RELATIONAL_REL_MODEL_H_
