#include "relational/rel_model.h"

#include <algorithm>
#include <memory>
#include <sstream>

#include "relational/join_graph.h"
#include "relational/rel_rules.h"

namespace volcano::rel {

RelModel::RelModel(const Catalog& catalog, RelModelOptions options)
    : catalog_(catalog),
      options_(options),
      cost_model_(options.cost_params),
      any_(RelPhysProps::Make(catalog.symbols())),
      serial_(RelPhysProps::MakePartitioned(catalog.symbols(),
                                            Partitioning::Serial())),
      unique_any_(RelPhysProps::Make(catalog.symbols(), {}, {},
                                     /*unique=*/true)) {
  RegisterOperators();
  RegisterRules();
}

void RelModel::RegisterOperators() {
  ops_.get = registry_.RegisterLogical("GET", 0);
  ops_.select = registry_.RegisterLogical("SELECT", 1);
  ops_.join = registry_.RegisterLogical("JOIN", 2);
  ops_.project = registry_.RegisterLogical("PROJECT", 1);
  ops_.intersect = registry_.RegisterLogical("INTERSECT", 2);
  ops_.union_all = registry_.RegisterLogical("UNION", 2);
  ops_.aggregate = registry_.RegisterLogical("AGGREGATE", 1);
  ops_.left_outer_join = registry_.RegisterLogical("LEFT_OUTER_JOIN", 2);
  ops_.semijoin = registry_.RegisterLogical("SEMIJOIN", 2);
  ops_.antijoin = registry_.RegisterLogical("ANTIJOIN", 2);
  ops_.distinct = registry_.RegisterLogical("DISTINCT", 1);
  ops_.subquery = registry_.RegisterLogical("SUBQUERY", 2);

  ops_.file_scan = registry_.RegisterAlgorithm("FILE_SCAN", 0);
  ops_.filter = registry_.RegisterAlgorithm("FILTER", 1);
  ops_.merge_join = registry_.RegisterAlgorithm("MERGE_JOIN", 2);
  ops_.hash_join = registry_.RegisterAlgorithm("HYBRID_HASH_JOIN", 2);
  ops_.project_op = registry_.RegisterAlgorithm("PROJECT_OP", 1);
  ops_.merge_intersect = registry_.RegisterAlgorithm("MERGE_INTERSECT", 2);
  ops_.hash_intersect = registry_.RegisterAlgorithm("HASH_INTERSECT", 2);
  ops_.multi_hash_join = registry_.RegisterAlgorithm("MULTI_HASH_JOIN", 3);
  ops_.concat = registry_.RegisterAlgorithm("CONCAT", 2);
  ops_.hash_aggregate = registry_.RegisterAlgorithm("HASH_AGGREGATE", 1);
  ops_.sort_aggregate = registry_.RegisterAlgorithm("SORT_AGGREGATE", 1);
  ops_.hash_left_outer_join =
      registry_.RegisterAlgorithm("HASH_LEFT_OUTER_JOIN", 2);
  ops_.hash_semijoin = registry_.RegisterAlgorithm("HASH_SEMIJOIN", 2);
  ops_.hash_antijoin = registry_.RegisterAlgorithm("HASH_ANTIJOIN", 2);
  ops_.hash_distinct = registry_.RegisterAlgorithm("HASH_DISTINCT", 1);
  ops_.sort_distinct = registry_.RegisterAlgorithm("SORT_DISTINCT", 1);
  ops_.nested_subq = registry_.RegisterAlgorithm("NESTED_SUBQ", 2);

  if (options_.enable_parallelism) {
    ops_.parallel_hash_join =
        registry_.RegisterAlgorithm("PARALLEL_HASH_JOIN", 2);
  }

  ops_.sort = registry_.RegisterEnforcer("SORT");
  ops_.sort_dedup = registry_.RegisterEnforcer("SORT_DEDUP");
  ops_.hash_dedup = registry_.RegisterEnforcer("HASH_DEDUP");
  if (options_.enable_parallelism) {
    ops_.exchange = registry_.RegisterEnforcer("EXCHANGE");
  }
}

void RelModel::RegisterRules() {
  TransformationRule* commute = nullptr;
  TransformationRule* assoc_left = nullptr;
  TransformationRule* assoc_right = nullptr;
  // Registers `rule` and returns it; the rule set owns it from then on.
  auto add = [this](std::unique_ptr<TransformationRule> rule) {
    TransformationRule* r = rule.get();
    rules_.AddTransformation(std::move(rule));
    return r;
  };
  if (options_.enable_join_commute) {
    commute = add(std::make_unique<JoinCommuteRule>(*this));
  }
  if (options_.enable_join_assoc_left) {
    assoc_left = add(std::make_unique<JoinAssocLeftRule>(*this));
  }
  if (options_.enable_join_assoc_right) {
    assoc_right = add(std::make_unique<JoinAssocRightRule>(*this));
  }
  if (options_.duplicate_free_joins && commute != nullptr &&
      assoc_left != nullptr && assoc_right != nullptr) {
    const uint64_t assoc =
        (uint64_t{1} << assoc_left->id()) | (uint64_t{1} << assoc_right->id());
    commute->set_disables(assoc | (uint64_t{1} << commute->id()));
    assoc_left->set_disables(assoc);
    assoc_right->set_disables(assoc);
  }
  if (options_.enable_select_pushdown) {
    rules_.AddTransformation(
        std::make_unique<SelectPushThroughJoinRule>(*this));
  }
  if (options_.enable_select_pullup) {
    rules_.AddTransformation(std::make_unique<SelectPullFromJoinRule>(*this));
  }
  if (options_.enable_intersect_commute) {
    rules_.AddTransformation(std::make_unique<IntersectCommuteRule>(*this));
  }
  if (options_.enable_union_commute) {
    rules_.AddTransformation(std::make_unique<UnionCommuteRule>(*this));
  }
  if (options_.enable_select_through_aggregate) {
    rules_.AddTransformation(
        std::make_unique<SelectThroughAggregateRule>(*this));
  }
  if (options_.enable_unnest_subqueries) {
    rules_.AddTransformation(std::make_unique<UnnestInToSemijoinRule>(*this));
    rules_.AddTransformation(
        std::make_unique<UnnestExistsToSemijoinRule>(*this));
    rules_.AddTransformation(std::make_unique<UnnestToAntijoinRule>(*this));
  }
  if (options_.enable_outer_join_simplify) {
    rules_.AddTransformation(std::make_unique<OuterJoinToJoinRule>(*this));
  }
  if (options_.enable_semijoin_reorder) {
    rules_.AddTransformation(std::make_unique<SemijoinReorderRule>(*this));
  }
  if (options_.enable_distinct_simplify) {
    rules_.AddTransformation(std::make_unique<DistinctCollapseRule>(*this));
    rules_.AddTransformation(
        std::make_unique<SemijoinAbsorbDistinctRule>(*this));
    rules_.AddTransformation(
        std::make_unique<AntijoinAbsorbDistinctRule>(*this));
  }

  rules_.AddImplementation(std::make_unique<GetToFileScanRule>(*this));
  rules_.AddImplementation(std::make_unique<SelectToFilterRule>(*this));
  rules_.AddImplementation(std::make_unique<JoinToMergeJoinRule>(*this));
  rules_.AddImplementation(std::make_unique<JoinToHashJoinRule>(*this));
  rules_.AddImplementation(std::make_unique<ProjectRule>(*this));
  rules_.AddImplementation(
      std::make_unique<IntersectToMergeIntersectRule>(*this));
  rules_.AddImplementation(
      std::make_unique<IntersectToHashIntersectRule>(*this));
  if (options_.enable_multiway_join) {
    rules_.AddImplementation(
        std::make_unique<JoinToMultiHashJoinRule>(*this));
  }
  rules_.AddImplementation(std::make_unique<UnionToConcatRule>(*this));
  rules_.AddImplementation(std::make_unique<AggToHashAggRule>(*this));
  rules_.AddImplementation(std::make_unique<AggToSortAggRule>(*this));
  rules_.AddImplementation(
      std::make_unique<LeftOuterJoinToHashRule>(*this));
  rules_.AddImplementation(std::make_unique<SemijoinToHashRule>(*this));
  rules_.AddImplementation(std::make_unique<AntijoinToHashRule>(*this));
  rules_.AddImplementation(std::make_unique<DistinctToHashDistinctRule>(*this));
  rules_.AddImplementation(std::make_unique<DistinctToSortDistinctRule>(*this));
  rules_.AddImplementation(std::make_unique<SubqueryToNestedRule>(*this));

  if (options_.enable_parallelism) {
    rules_.AddImplementation(
        std::make_unique<JoinToParallelHashJoinRule>(*this));
  }

  rules_.AddEnforcer(std::make_unique<SortEnforcerRule>(*this));
  rules_.AddEnforcer(std::make_unique<SortDedupEnforcerRule>(*this));
  rules_.AddEnforcer(std::make_unique<HashDedupEnforcerRule>(*this));
  if (options_.enable_parallelism) {
    rules_.AddEnforcer(std::make_unique<ExchangeEnforcerRule>(*this));
  }
}

LogicalPropsPtr RelModel::DeriveLogicalProps(
    OperatorId op, const OpArg* arg,
    const std::vector<LogicalPropsPtr>& inputs) const {
  const SymbolTable& symbols = catalog_.symbols();

  if (op == ops_.get) {
    const auto& get = static_cast<const GetArg&>(*arg);
    const RelationInfo* rel = catalog_.FindRelation(get.relation());
    VOLCANO_CHECK(rel != nullptr);
    std::vector<ColumnInfo> schema;
    schema.reserve(rel->attributes.size());
    for (const auto& a : rel->attributes) {
      schema.push_back(ColumnInfo{a.name, a.distinct_values});
    }
    return std::make_shared<RelLogicalProps>(symbols, std::move(schema),
                                             rel->cardinality,
                                             rel->tuple_bytes);
  }

  if (op == ops_.select) {
    const auto& sel = static_cast<const SelectArg&>(*arg);
    const RelLogicalProps& in = AsRel(*inputs[0]);
    double card = in.cardinality() * sel.selectivity();
    std::vector<ColumnInfo> schema = in.schema();
    for (auto& c : schema) {
      if (c.name == sel.attr()) c.distinct_values *= sel.selectivity();
      c.distinct_values = std::max(1.0, std::min(c.distinct_values, card));
    }
    return std::make_shared<RelLogicalProps>(symbols, std::move(schema), card,
                                             in.tuple_bytes());
  }

  if (op == ops_.join) {
    const auto& join = static_cast<const JoinArg&>(*arg);
    const RelLogicalProps& l = AsRel(*inputs[0]);
    const RelLogicalProps& r = AsRel(*inputs[1]);
    double dl = std::max(1.0, l.DistinctOf(join.left_attr()));
    double dr = std::max(1.0, r.DistinctOf(join.right_attr()));
    double card = l.cardinality() * r.cardinality() / std::max(dl, dr);
    std::vector<ColumnInfo> schema = l.schema();
    schema.insert(schema.end(), r.schema().begin(), r.schema().end());
    for (auto& c : schema) {
      c.distinct_values = std::max(1.0, std::min(c.distinct_values, card));
    }
    return std::make_shared<RelLogicalProps>(symbols, std::move(schema), card,
                                             l.tuple_bytes() +
                                                 r.tuple_bytes());
  }

  if (op == ops_.project) {
    const auto& proj = static_cast<const ProjectArg&>(*arg);
    const RelLogicalProps& in = AsRel(*inputs[0]);
    std::vector<ColumnInfo> schema;
    for (const auto& c : in.schema()) {
      if (proj.Contains(c.name)) schema.push_back(c);
    }
    double frac = in.schema().empty()
                      ? 1.0
                      : static_cast<double>(schema.size()) /
                            static_cast<double>(in.schema().size());
    return std::make_shared<RelLogicalProps>(symbols, std::move(schema),
                                             in.cardinality(),
                                             in.tuple_bytes() * frac);
  }

  if (op == ops_.intersect) {
    const RelLogicalProps& l = AsRel(*inputs[0]);
    const RelLogicalProps& r = AsRel(*inputs[1]);
    // Heuristic: half of the smaller input survives the intersection.
    double card = 0.5 * std::min(l.cardinality(), r.cardinality());
    std::vector<ColumnInfo> schema = l.schema();
    for (auto& c : schema) {
      c.distinct_values = std::max(1.0, std::min(c.distinct_values, card));
    }
    return std::make_shared<RelLogicalProps>(symbols, std::move(schema), card,
                                             l.tuple_bytes());
  }

  if (op == ops_.union_all) {
    const RelLogicalProps& l = AsRel(*inputs[0]);
    const RelLogicalProps& r = AsRel(*inputs[1]);
    VOLCANO_CHECK(l.schema().size() == r.schema().size());
    double card = l.cardinality() + r.cardinality();
    // Bag union keeps the left input's column names (positional schemas).
    std::vector<ColumnInfo> schema = l.schema();
    for (size_t i = 0; i < schema.size(); ++i) {
      schema[i].distinct_values =
          std::max(1.0, std::min(schema[i].distinct_values +
                                     r.schema()[i].distinct_values,
                                 card));
    }
    return std::make_shared<RelLogicalProps>(symbols, std::move(schema), card,
                                             l.tuple_bytes());
  }

  if (op == ops_.aggregate) {
    const auto& agg = static_cast<const AggArg&>(*arg);
    const RelLogicalProps& in = AsRel(*inputs[0]);
    double groups =
        std::max(1.0, std::min(in.DistinctOf(agg.group_attr()),
                               in.cardinality()));
    std::vector<ColumnInfo> schema = {
        ColumnInfo{agg.group_attr(), groups},
        ColumnInfo{agg.count_attr(), groups}};
    return std::make_shared<RelLogicalProps>(symbols, std::move(schema),
                                             groups, 16.0);
  }

  if (op == ops_.left_outer_join) {
    const auto& join = static_cast<const JoinArg&>(*arg);
    const RelLogicalProps& l = AsRel(*inputs[0]);
    const RelLogicalProps& r = AsRel(*inputs[1]);
    double dl = std::max(1.0, l.DistinctOf(join.left_attr()));
    double dr = std::max(1.0, r.DistinctOf(join.right_attr()));
    double inner_card = l.cardinality() * r.cardinality() / std::max(dl, dr);
    // Every left tuple survives: unmatched ones are NULL-padded.
    double card = std::max(inner_card, l.cardinality());
    std::vector<ColumnInfo> schema = l.schema();
    schema.insert(schema.end(), r.schema().begin(), r.schema().end());
    for (auto& c : schema) {
      c.distinct_values = std::max(1.0, std::min(c.distinct_values, card));
    }
    return std::make_shared<RelLogicalProps>(symbols, std::move(schema), card,
                                             l.tuple_bytes() +
                                                 r.tuple_bytes());
  }

  if (op == ops_.semijoin || op == ops_.antijoin) {
    const auto& join = static_cast<const JoinArg&>(*arg);
    const RelLogicalProps& l = AsRel(*inputs[0]);
    const RelLogicalProps& r = AsRel(*inputs[1]);
    double dl = std::max(1.0, l.DistinctOf(join.left_attr()));
    double dr = std::max(1.0, r.DistinctOf(join.right_attr()));
    // Fraction of left values with a partner: assuming both attributes draw
    // from the larger of the two domains, dr of those values appear on the
    // right, so min(1, dr / max(dl, dr)) of the left tuples survive the
    // semijoin; the antijoin keeps the complement.
    double match = std::min(1.0, dr / std::max(dl, dr));
    double frac = op == ops_.semijoin ? match : 1.0 - match;
    double card = std::max(1.0, l.cardinality() * frac);
    std::vector<ColumnInfo> schema = l.schema();  // filters, never widens
    for (auto& c : schema) {
      c.distinct_values = std::max(1.0, std::min(c.distinct_values, card));
    }
    return std::make_shared<RelLogicalProps>(symbols, std::move(schema), card,
                                             l.tuple_bytes());
  }

  if (op == ops_.distinct) {
    const RelLogicalProps& in = AsRel(*inputs[0]);
    // The number of distinct rows is at most the product of the per-column
    // distinct counts (and at most the input cardinality).
    double limit = 1.0;
    for (const auto& c : in.schema()) {
      limit = std::min(limit * std::max(1.0, c.distinct_values),
                       in.cardinality());
    }
    double card = std::max(1.0, std::min(in.cardinality(), limit));
    std::vector<ColumnInfo> schema = in.schema();
    for (auto& c : schema) {
      c.distinct_values = std::max(1.0, std::min(c.distinct_values, card));
    }
    return std::make_shared<RelLogicalProps>(symbols, std::move(schema), card,
                                             in.tuple_bytes());
  }

  if (op == ops_.subquery) {
    // Derive exactly as the semijoin/antijoin the unnesting rules rewrite
    // to, so the memo class keeps one consistent estimate across the nested
    // and unnested forms.
    const auto& sub = static_cast<const SubqueryArg&>(*arg);
    OpArgPtr as_join =
        JoinArg::Make(symbols, sub.outer_attr(), sub.inner_attr());
    return DeriveLogicalProps(sub.negated() ? ops_.antijoin : ops_.semijoin,
                              as_join.get(), inputs);
  }

  VOLCANO_CHECK(false && "unknown logical operator");
  return nullptr;
}

namespace {

/// The cached vector for `key` in `cache`, a table indexed by symbol id,
/// made by `make` on first use.
template <typename Make>
PhysPropsPtr Cached(std::vector<PhysPropsPtr>& cache, Symbol key,
                    Make&& make) {
  if (key.id() >= cache.size()) cache.resize(key.id() + 1);
  PhysPropsPtr& slot = cache[key.id()];
  if (slot == nullptr) slot = make();
  return slot;
}

}  // namespace

PhysPropsPtr RelModel::SortedOn(Symbol attr) const {
  return Cached(sorted_on_cache_, attr, [&] {
    return RelPhysProps::MakeSorted(symbols(), {attr});
  });
}

PhysPropsPtr RelModel::StoredOrderOf(Symbol relation) const {
  return Cached(stored_order_cache_, relation, [&] {
    const RelationInfo* rel = catalog_.FindRelation(relation);
    VOLCANO_CHECK(rel != nullptr);
    return RelPhysProps::MakeSorted(symbols(), rel->sorted_on);
  });
}

PhysPropsPtr RelModel::Partitioned(Symbol attr) const {
  return Cached(partitioned_cache_, attr, [&] {
    return RelPhysProps::MakePartitioned(
        symbols(), Partitioning::Hash(attr, options_.parallel_ways));
  });
}

ExprPtr RelModel::Get(Symbol relation) const {
  VOLCANO_CHECK(catalog_.FindRelation(relation) != nullptr);
  return Expr::Make(ops_.get, GetArg::Make(symbols(), relation));
}

ExprPtr RelModel::Get(std::string_view relation) const {
  Symbol sym = symbols().Lookup(relation);
  VOLCANO_CHECK(sym.valid());
  return Get(sym);
}

ExprPtr RelModel::Select(ExprPtr input, Symbol attr, CmpOp op,
                         int64_t constant, double selectivity) const {
  return Expr::Make(ops_.select,
                    SelectArg::Make(symbols(), attr, op, constant,
                                    selectivity),
                    {std::move(input)});
}

ExprPtr RelModel::Join(ExprPtr left, ExprPtr right, Symbol left_attr,
                       Symbol right_attr) const {
  return Expr::Make(ops_.join,
                    JoinArg::Make(symbols(), left_attr, right_attr),
                    {std::move(left), std::move(right)});
}

ExprPtr RelModel::Project(ExprPtr input, std::vector<Symbol> attrs) const {
  return Expr::Make(ops_.project,
                    ProjectArg::Make(symbols(), std::move(attrs)),
                    {std::move(input)});
}

ExprPtr RelModel::Intersect(ExprPtr left, ExprPtr right) const {
  return Expr::Make(ops_.intersect, nullptr,
                    {std::move(left), std::move(right)});
}

ExprPtr RelModel::UnionAll(ExprPtr left, ExprPtr right) const {
  return Expr::Make(ops_.union_all, nullptr,
                    {std::move(left), std::move(right)});
}

ExprPtr RelModel::Aggregate(ExprPtr input, Symbol group_attr,
                            Symbol count_attr) const {
  VOLCANO_CHECK(count_attr.valid());
  return Expr::Make(ops_.aggregate,
                    AggArg::Make(symbols(), group_attr, count_attr),
                    {std::move(input)});
}

ExprPtr RelModel::LeftOuterJoin(ExprPtr left, ExprPtr right,
                                Symbol left_attr, Symbol right_attr) const {
  return Expr::Make(ops_.left_outer_join,
                    JoinArg::Make(symbols(), left_attr, right_attr),
                    {std::move(left), std::move(right)});
}

ExprPtr RelModel::Semijoin(ExprPtr left, ExprPtr right, Symbol left_attr,
                           Symbol right_attr) const {
  return Expr::Make(ops_.semijoin,
                    JoinArg::Make(symbols(), left_attr, right_attr),
                    {std::move(left), std::move(right)});
}

ExprPtr RelModel::Antijoin(ExprPtr left, ExprPtr right, Symbol left_attr,
                           Symbol right_attr) const {
  return Expr::Make(ops_.antijoin,
                    JoinArg::Make(symbols(), left_attr, right_attr),
                    {std::move(left), std::move(right)});
}

ExprPtr RelModel::Distinct(ExprPtr input) const {
  return Expr::Make(ops_.distinct, nullptr, {std::move(input)});
}

ExprPtr RelModel::Subquery(ExprPtr outer, ExprPtr inner, Symbol outer_attr,
                           Symbol inner_attr, SubqueryKind kind,
                           bool negated) const {
  return Expr::Make(ops_.subquery,
                    SubqueryArg::Make(symbols(), outer_attr, inner_attr,
                                      kind, negated),
                    {std::move(outer), std::move(inner)});
}

ExprPtr RelModel::HeuristicJoinOrder(const Expr& query) const {
  return GreedyReorderQuery(query, *this);
}

int RelModel::JoinComplexity(const Expr& query) const {
  return CountJoinLeaves(query, *this);
}

namespace {

/// Appends the rendering of `expr` to *out, so a whole expression is written
/// into one string.
void AppendExpr(const Expr& expr, const OperatorRegistry& reg,
                std::string* out) {
  *out += reg.Name(expr.op());
  if (expr.arg() != nullptr) {
    *out += '[';
    *out += expr.arg()->ToString();
    *out += ']';
  }
  if (expr.inputs().empty()) return;
  *out += '(';
  for (size_t i = 0; i < expr.inputs().size(); ++i) {
    if (i) *out += ", ";
    AppendExpr(*expr.input(i), reg, out);
  }
  *out += ')';
}

}  // namespace

std::string RelModel::ExprToString(const Expr& expr) const {
  std::string s;
  AppendExpr(expr, registry_, &s);
  return s;
}

std::string RelLogicalProps::ToString() const {
  std::ostringstream os;
  os << "card=" << cardinality_ << " bytes/tuple=" << tuple_bytes_
     << " schema={";
  for (size_t i = 0; i < schema_.size(); ++i) {
    if (i) os << ", ";
    os << symbols_->Name(schema_[i].name);
  }
  os << "}";
  return os.str();
}

}  // namespace volcano::rel
