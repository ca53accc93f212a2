// Pinned search outputs for the strategies and pattern shapes the committed
// plan digests (tools/plan_digest) do not cover: the interleaved (Figure 2
// verbatim) strategy, the Starburst-style glue ablation, and patterns
// deeper than two levels. Each check pins a plan digest, the summed plan
// cost and six search-work counts (tests/pinned_search.h). The values under
// the classic join rules were recorded from the recursive Figure-2 engine,
// which the task engine matched plan for plan and count for count before
// the recursive engine was removed; the default (duplicate-free) join rules
// choose the same plans with less work. A change that moves one must say
// why.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "algebra/data_model.h"
#include "relational/query_gen.h"
#include "search/optimizer.h"
#include "search/search_config.h"
#include "search/trace_io.h"
#include "pinned_search.h"

namespace volcano {
namespace {

rel::Workload MakeChain(int n, uint64_t seed, bool order_by,
                        bool classic = false) {
  rel::WorkloadOptions wopts;
  wopts.num_relations = n;
  wopts.join_graph = rel::WorkloadOptions::JoinGraph::kChain;
  wopts.hub_attr_prob = 0.25;
  wopts.sorted_base_prob = 0.5;
  wopts.order_by_prob = order_by ? 1.0 : 0.0;
  rel::RelModelOptions mopts;
  mopts.duplicate_free_joins = !classic;
  return rel::GenerateWorkload(wopts, seed, mopts);
}

// The 54-query grid the committed plan digest covers: chain joins of 2..10
// relations x 3 seeds, with and without ORDER BY. `classic` selects the
// classic join rules (RelModelOptions::duplicate_free_joins off).
Pinned RunGrid(const SearchOptions& options, bool classic) {
  Pinned run;
  for (int order_by = 0; order_by <= 1; ++order_by) {
    for (int n = 2; n <= 10; ++n) {
      for (uint64_t seed = 1; seed <= 3; ++seed) {
        rel::Workload w = MakeChain(n, seed, order_by != 0, classic);
        run.Add(*w.model, *w.query, w.required, options,
                "n=" + std::to_string(n) + " seed=" + std::to_string(seed) +
                    " order_by=" + std::to_string(order_by));
      }
    }
  }
  return run;
}

// The interleaved (Figure 2 verbatim) strategy chooses the default
// strategy's plans — the digest is the grid's committed one — with more
// cost estimates: transformations are moves, so goals are re-costed as
// their classes grow. Under the duplicate-free join rules the classes grow
// in another order across the rounds: the plans stay, the cost estimates
// move (29,996 -> 30,820), and one expression fewer is derived (with
// pruning off both rule sets derive the same expressions; see
// JoinRules.DuplicateFreeMatchesClassicSpace).
TEST(EngineDifferential, InterleavedStrategyMatchesAcrossEngines) {
  SearchOptions options;
  options.strategy = SearchOptions::Strategy::kInterleaved;
  RunGrid(options, /*classic=*/true)
      .ExpectEq({.digest = 0x648c9ec0e17653ebULL,
                 .cost_sum = 1069.6073137163889,
                 .mexprs_created = 6588,
                 .mexprs_deduped = 36306,
                 .transformations_applied = 24948,
                 .cost_estimates = 29996,
                 .moves_pruned = 1494,
                 .memo_winner_hits = 47343});
  RunGrid(options, /*classic=*/false)
      .ExpectEq({.digest = 0x648c9ec0e17653ebULL,
                 .cost_sum = 1069.6073137163889,
                 .mexprs_created = 6587,
                 .mexprs_deduped = 1260,
                 .transformations_applied = 4949,
                 .cost_estimates = 30820,
                 .moves_pruned = 1559,
                 .memo_winner_hits = 48866});
}

// Glue-properties ablation: optimize for "any" properties, then patch the
// plan with enforcers. It loses interesting orders, so its plans cost more.
TEST(EngineDifferential, GluePropertiesMatchesAcrossEngines) {
  SearchOptions options;
  options.glue_properties = true;
  RunGrid(options, /*classic=*/true)
      .ExpectEq({.digest = 0x077368b6c9b07de2ULL,
                 .cost_sum = 2005.9169062074866,
                 .mexprs_created = 6588,
                 .mexprs_deduped = 36306,
                 .transformations_applied = 24948,
                 .cost_estimates = 14435,
                 .moves_pruned = 946,
                 .memo_winner_hits = 21554});
  RunGrid(options, /*classic=*/false)
      .ExpectEq({.digest = 0x077368b6c9b07de2ULL,
                 .cost_sum = 2005.9169062074866,
                 .mexprs_created = 6588,
                 .mexprs_deduped = 1260,
                 .transformations_applied = 4950,
                 .cost_estimates = 14435,
                 .moves_pruned = 946,
                 .memo_winner_hits = 21554});
}

// --- patterns deeper than two levels ----------------------------------------
//
// Every rule of the shipped models has a single-node or two-level pattern,
// which the task engine's matcher binds on shortcuts. This model adds two
// match-only rules of other shapes — three levels, and two operator
// positions — so the general matcher runs, with explorations requested at
// nested positions. Every binding must have the pattern's shape, and the
// bindings enumerated are pinned through transformations_matched.

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
  Rex::Ref Apply(const Binding& b, const Memo& m, Rex& out) const override {
    return r_.Apply(b, m, out);
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
  Rex::Ref Apply(const Binding&, const Memo&, Rex&) const override {
    return Rex::kNone;
  }

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
  Pinned run;
  uint64_t matched = 0;
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
      const std::string label =
          "star=" + std::to_string(star) + " n=" + std::to_string(n);
      SCOPED_TRACE(label);
      const SearchStats deep =
          run.Add(model, *w.query, w.required, SearchOptions{}, label);
      matched += deep.transformations_matched;
      EXPECT_EQ(model.malformed(), 0);
      // The deep rules did match: more bindings than the shipped rules alone.
      Pinned plain;
      EXPECT_GT(deep.transformations_matched,
                plain.Add(*w.model, *w.query, w.required, SearchOptions{},
                          label)
                    .transformations_matched);
    }
  }
  EXPECT_EQ(matched, 2734u);
  run.ExpectEq({.digest = 0x6cdeb1ab07a9d5a7ULL,
                .cost_sum = 174.36067196089337,
                .mexprs_created = 438,
                .mexprs_deduped = 1239,
                .transformations_applied = 1038,
                .cost_estimates = 1691,
                .moves_pruned = 45,
                .memo_winner_hits = 2455});
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
