// Differential engine tests: the task engine must choose byte-identical plans
// at identical cost to the recursive Figure-2 engine on every committed
// workload. This is the acceptance gate
// for the explicit search core — any divergence in budget checkpoints, move
// ordering, branch-and-bound limits, or tie-breaking shows up here as a
// plan-line mismatch long before it would move the committed plan digest
// (tools/plan_digest).

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "algebra/data_model.h"
#include "relational/query_gen.h"
#include "search/optimizer.h"
#include "search/search_config.h"
#include "search/trace_io.h"

namespace volcano {
namespace {

struct RunOutput {
  bool ok = false;
  std::string status;
  std::string plan_line;
  double cost = 0.0;
  SearchStats stats;
};

RunOutput RunOne(const rel::Workload& w, const SearchOptions& opts) {
  Optimizer opt(*w.model, SearchConfig::FromOptions(opts).value());
  StatusOr<PlanPtr> plan = opt.Optimize(*w.query, w.required);
  RunOutput out;
  out.stats = opt.stats();
  if (!plan.ok()) {
    out.status = plan.status().ToString();
    return out;
  }
  out.ok = true;
  out.plan_line = PlanToLine(**plan, w.model->registry());
  out.cost = w.model->cost_model().Total((*plan)->cost());
  return out;
}

rel::Workload MakeChain(int n, uint64_t seed, bool order_by) {
  rel::WorkloadOptions wopts;
  wopts.num_relations = n;
  wopts.join_graph = rel::WorkloadOptions::JoinGraph::kChain;
  wopts.hub_attr_prob = 0.25;
  wopts.sorted_base_prob = 0.5;
  wopts.order_by_prob = order_by ? 1.0 : 0.0;
  return rel::GenerateWorkload(wopts, seed);
}

// The same grid the committed plan digest covers: chain joins of 2..10
// relations x 3 seeds, with and without ORDER BY.
TEST(EngineDifferential, TaskMatchesRecursiveOnDigestGrid) {
  for (int order_by = 0; order_by <= 1; ++order_by) {
    for (int n = 2; n <= 10; ++n) {
      for (uint64_t seed = 1; seed <= 3; ++seed) {
        rel::Workload w = MakeChain(n, seed, order_by != 0);
        SearchOptions recursive;
        recursive.engine = SearchOptions::Engine::kRecursive;
        SearchOptions task;
        task.engine = SearchOptions::Engine::kTask;

        RunOutput r = RunOne(w, recursive);
        RunOutput t = RunOne(w, task);
        SCOPED_TRACE("n=" + std::to_string(n) + " seed=" +
                     std::to_string(seed) + " order_by=" +
                     std::to_string(order_by));
        ASSERT_EQ(r.ok, t.ok) << r.status << " vs " << t.status;
        if (!r.ok) continue;
        EXPECT_EQ(r.plan_line, t.plan_line);
        EXPECT_DOUBLE_EQ(r.cost, t.cost);
        // Effort parity: the task engine replicates the recursive control
        // flow site for site, so the shared counters agree exactly.
        EXPECT_EQ(r.stats.find_best_plan_calls, t.stats.find_best_plan_calls);
        EXPECT_EQ(r.stats.goals_started, t.stats.goals_started);
        EXPECT_EQ(r.stats.algorithm_moves, t.stats.algorithm_moves);
        EXPECT_EQ(r.stats.enforcer_moves, t.stats.enforcer_moves);
        EXPECT_EQ(r.stats.moves_pruned, t.stats.moves_pruned);
        EXPECT_EQ(r.stats.budget_checkpoints, t.stats.budget_checkpoints);
        // And only the task engine steps tasks.
        EXPECT_EQ(r.stats.tasks_executed, 0u);
        EXPECT_GT(t.stats.tasks_executed, 0u);
      }
    }
  }
}

// The best-first engine schedules goals from a global frontier instead of a
// depth-first stack, but with no caps set it demands every subgoal at an
// infinite limit and reduces each goal's moves in canonical order — so its
// plans (and costs) are identical to the task engine's across the digest
// grid. Effort counters legitimately differ (the schedule is global, and
// branch-and-bound cannot prune an already-demanded subgoal), so only plan
// and cost are compared.
TEST(EngineDifferential, BestFirstMatchesTaskOnDigestGrid) {
  for (int order_by = 0; order_by <= 1; ++order_by) {
    for (int n = 2; n <= 10; ++n) {
      for (uint64_t seed = 1; seed <= 3; ++seed) {
        rel::Workload w = MakeChain(n, seed, order_by != 0);
        SearchOptions task;
        task.engine = SearchOptions::Engine::kTask;
        SearchOptions bf;
        bf.engine = SearchOptions::Engine::kBestFirst;

        RunOutput t = RunOne(w, task);
        RunOutput b = RunOne(w, bf);
        SCOPED_TRACE("n=" + std::to_string(n) + " seed=" +
                     std::to_string(seed) + " order_by=" +
                     std::to_string(order_by));
        ASSERT_EQ(t.ok, b.ok) << t.status << " vs " << b.status;
        if (!t.ok) continue;
        EXPECT_EQ(t.plan_line, b.plan_line);
        EXPECT_DOUBLE_EQ(t.cost, b.cost);
      }
    }
  }
}

// The interleaved (Figure 2 verbatim) strategy: plans match the recursive
// engine.
TEST(EngineDifferential, InterleavedStrategyMatchesAcrossEngines) {
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    rel::Workload w = MakeChain(4, seed, seed % 2 == 0);
    SearchOptions recursive;
    recursive.engine = SearchOptions::Engine::kRecursive;
    recursive.strategy = SearchOptions::Strategy::kInterleaved;
    SearchOptions task = recursive;
    task.engine = SearchOptions::Engine::kTask;

    RunOutput r = RunOne(w, recursive);
    RunOutput t = RunOne(w, task);
    SCOPED_TRACE("seed=" + std::to_string(seed));
    ASSERT_EQ(r.ok, t.ok) << r.status << " vs " << t.status;
    if (!r.ok) continue;
    EXPECT_EQ(r.plan_line, t.plan_line);
    EXPECT_DOUBLE_EQ(r.cost, t.cost);
  }
}

// Glue-properties ablation: both engines run the Starburst-style glue path.
TEST(EngineDifferential, GluePropertiesMatchesAcrossEngines) {
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    rel::Workload w = MakeChain(4, seed, /*order_by=*/true);
    SearchOptions recursive;
    recursive.engine = SearchOptions::Engine::kRecursive;
    recursive.glue_properties = true;
    SearchOptions task = recursive;
    task.engine = SearchOptions::Engine::kTask;

    RunOutput r = RunOne(w, recursive);
    RunOutput t = RunOne(w, task);
    SCOPED_TRACE("seed=" + std::to_string(seed));
    ASSERT_EQ(r.ok, t.ok) << r.status << " vs " << t.status;
    if (!r.ok) continue;
    EXPECT_EQ(r.plan_line, t.plan_line);
    EXPECT_DOUBLE_EQ(r.cost, t.cost);
  }
}

// --- patterns deeper than two levels ----------------------------------------
//
// Every rule of the shipped models has a single-node or two-level pattern,
// which the task engine's matcher binds on shortcuts. This model adds two
// match-only rules of other shapes — three levels, and two operator
// positions — so the general matcher runs, with explorations requested at
// nested positions, and must enumerate exactly the recursive engine's
// bindings.

class ForwardTransformation final : public TransformationRule {
 public:
  explicit ForwardTransformation(const TransformationRule& r)
      : TransformationRule(r.name(), r.pattern()), r_(r) {}
  bool Condition(const Binding& b, const Memo& m) const override {
    return r_.Condition(b, m);
  }
  double Promise(const Binding& b, const Memo& m) const override {
    return r_.Promise(b, m);
  }
  RexPtr Apply(const Binding& b, const Memo& m) const override {
    return r_.Apply(b, m);
  }

 private:
  const TransformationRule& r_;
};

class ForwardImplementation final : public ImplementationRule {
 public:
  explicit ForwardImplementation(const ImplementationRule& r)
      : ImplementationRule(r.name(), r.pattern(), r.algorithm()), r_(r) {}
  bool Condition(const Binding& b, const Memo& m) const override {
    return r_.Condition(b, m);
  }
  double Promise(const Binding& b, const Memo& m) const override {
    return r_.Promise(b, m);
  }
  AlgorithmAlternatives Applicability(const Binding& b, const Memo& m,
                                      const PhysPropsPtr& required,
                                      const PhysProps* excluded) const override {
    return r_.Applicability(b, m, required, excluded);
  }
  Cost LocalCost(const Binding& b, const Memo& m) const override {
    return r_.LocalCost(b, m);
  }
  OpArgPtr PlanArg(const Binding& b, const Memo& m) const override {
    return r_.PlanArg(b, m);
  }

 private:
  const ImplementationRule& r_;
};

class ForwardEnforcer final : public EnforcerRule {
 public:
  explicit ForwardEnforcer(const EnforcerRule& r)
      : EnforcerRule(r.name(), r.enforcer()), r_(r) {}
  std::optional<EnforcerApplication> Enforce(
      const PhysPropsPtr& required,
      const LogicalProps& logical) const override {
    return r_.Enforce(required, logical);
  }
  Cost LocalCost(const LogicalProps& logical,
                 const PhysProps& delivered) const override {
    return r_.LocalCost(logical, delivered);
  }
  OpArgPtr PlanArg(const PhysProps& delivered) const override {
    return r_.PlanArg(delivered);
  }
  double Promise(const PhysProps& required,
                 const LogicalProps& logical) const override {
    return r_.Promise(required, logical);
  }

 private:
  const EnforcerRule& r_;
};

/// Matches its pattern and rewrites nothing; counts bindings whose shape
/// disagrees with the pattern and the memo.
class MatchOnlyRule final : public TransformationRule {
 public:
  using TransformationRule::TransformationRule;

  bool Condition(const Binding& b, const Memo& memo) const override {
    size_t node = 0;
    size_t leaf = 0;
    if (!WellFormed(pattern(), b, memo, &node, &leaf) ||
        node != b.num_nodes() || leaf != b.num_leaves()) {
      ++malformed_;
    }
    return true;
  }
  RexPtr Apply(const Binding&, const Memo&) const override { return nullptr; }

  int malformed() const { return malformed_; }

 private:
  // Walks the pattern in pre-order beside the binding: each operator node
  // binds an expression with that operator, in the class its parent's input
  // names; each "any" leaf binds that input class.
  static bool WellFormed(const Pattern& p, const Binding& b, const Memo& memo,
                         size_t* node, size_t* leaf) {
    if (*node >= b.num_nodes()) return false;
    const MExpr& m = b.node((*node)++);
    if (m.op() != p.op()) return false;
    for (size_t i = 0; i < m.num_inputs(); ++i) {
      const GroupId input = memo.Find(m.input(i));
      if (i < p.children().size() && !p.children()[i].is_any()) {
        if (*node >= b.num_nodes() ||
            memo.Find(b.node(*node).group()) != input ||
            !WellFormed(p.children()[i], b, memo, node, leaf)) {
          return false;
        }
        continue;
      }
      if (*leaf >= b.num_leaves() || memo.Find(b.leaf((*leaf)++)) != input) {
        return false;
      }
    }
    return true;
  }

  mutable int malformed_ = 0;
};

/// The relational model plus the two match-only rules.
class DeepPatternModel final : public DataModel {
 public:
  explicit DeepPatternModel(const rel::RelModel& base) : base_(base) {
    const RuleSet& rules = base.rule_set();
    for (const auto& t : rules.transformations()) {
      rules_.AddTransformation(std::make_unique<ForwardTransformation>(*t));
    }
    const OperatorId join = base.ops().join;
    auto join_of = [join](Pattern l, Pattern r) {
      return Pattern::Op(join, {std::move(l), std::move(r)});
    };
    auto three_level = std::make_unique<MatchOnlyRule>(
        "three_level",
        join_of(join_of(join_of(Pattern::Any(), Pattern::Any()),
                        Pattern::Any()),
                Pattern::Any()));
    auto join_of_joins = std::make_unique<MatchOnlyRule>(
        "join_of_joins", join_of(join_of(Pattern::Any(), Pattern::Any()),
                                 join_of(Pattern::Any(), Pattern::Any())));
    deep_[0] = three_level.get();
    deep_[1] = join_of_joins.get();
    rules_.AddTransformation(std::move(three_level));
    rules_.AddTransformation(std::move(join_of_joins));
    for (const auto& i : rules.implementations()) {
      rules_.AddImplementation(std::make_unique<ForwardImplementation>(*i));
    }
    for (const auto& e : rules.enforcers()) {
      rules_.AddEnforcer(std::make_unique<ForwardEnforcer>(*e));
    }
  }

  const OperatorRegistry& registry() const override {
    return base_.registry();
  }
  const RuleSet& rule_set() const override { return rules_; }
  const CostModel& cost_model() const override { return base_.cost_model(); }
  LogicalPropsPtr DeriveLogicalProps(
      OperatorId op, const OpArg* arg,
      const std::vector<LogicalPropsPtr>& inputs) const override {
    return base_.DeriveLogicalProps(op, arg, inputs);
  }
  PhysPropsPtr AnyProps() const override { return base_.AnyProps(); }
  ExprPtr HeuristicJoinOrder(const Expr& query) const override {
    return base_.HeuristicJoinOrder(query);
  }
  int JoinComplexity(const Expr& query) const override {
    return base_.JoinComplexity(query);
  }

  int malformed() const {
    return deep_[0]->malformed() + deep_[1]->malformed();
  }

 private:
  const rel::RelModel& base_;
  RuleSet rules_;
  const MatchOnlyRule* deep_[2] = {nullptr, nullptr};
};

TEST(EngineDifferential, DeepPatternsMatchAcrossEngines) {
  // Four relations is the smallest query both deep patterns can match.
  for (int star = 0; star <= 1; ++star) {
    for (int n = 4; n <= 6; ++n) {
      rel::WorkloadOptions wopts;
      wopts.num_relations = n;
      wopts.join_graph = star ? rel::WorkloadOptions::JoinGraph::kStar
                              : rel::WorkloadOptions::JoinGraph::kChain;
      wopts.order_by_prob = 0.5;
      rel::Workload w = rel::GenerateWorkload(wopts, 40u + n);
      DeepPatternModel model(*w.model);
      SearchStats stats[2];
      std::string plans[2];
      const SearchOptions::Engine engines[2] = {
          SearchOptions::Engine::kRecursive, SearchOptions::Engine::kTask};
      for (int e = 0; e < 2; ++e) {
        SearchOptions opts;
        opts.engine = engines[e];
        Optimizer opt(model, SearchConfig::FromOptions(opts).value());
        StatusOr<PlanPtr> plan = opt.Optimize(*w.query, w.required);
        ASSERT_TRUE(plan.ok()) << plan.status().ToString();
        plans[e] = PlanToLine(**plan, model.registry());
        stats[e] = opt.stats();
      }
      SCOPED_TRACE("star=" + std::to_string(star) + " n=" + std::to_string(n));
      EXPECT_EQ(plans[0], plans[1]);
      EXPECT_EQ(stats[0].transformations_matched,
                stats[1].transformations_matched);
      EXPECT_EQ(stats[0].transformations_applied,
                stats[1].transformations_applied);
      EXPECT_EQ(stats[0].mexprs_created, stats[1].mexprs_created);
      EXPECT_EQ(stats[0].find_best_plan_calls, stats[1].find_best_plan_calls);
      EXPECT_EQ(stats[0].budget_checkpoints, stats[1].budget_checkpoints);
      EXPECT_EQ(model.malformed(), 0);
      // The deep rules did match: more bindings than the shipped rules alone.
      rel::Workload plain = rel::GenerateWorkload(wopts, 40u + n);
      EXPECT_GT(stats[1].transformations_matched,
                RunOne(plain, SearchOptions{}).stats.transformations_matched);
    }
  }
}

// Trace determinism: the optimizer stamps every event with a 1-based,
// strictly contiguous per-optimizer sequence number.
TEST(EngineDifferential, TraceSequenceIsMonotonicAndContiguous) {
  rel::Workload w = MakeChain(5, 1, /*order_by=*/false);
  TraceLog log;
  SearchOptions opts;
  opts.trace = &log;
  Optimizer opt(*w.model, SearchConfig::FromOptions(opts).value());
  ASSERT_TRUE(opt.Optimize(*w.query, w.required).ok());
  ASSERT_FALSE(log.entries().empty());
  uint64_t expect_seq = 1;
  for (const TraceLog::Entry& e : log.entries()) {
    EXPECT_EQ(e.event.seq, expect_seq);
    ++expect_seq;
  }
}

}  // namespace
}  // namespace volcano
