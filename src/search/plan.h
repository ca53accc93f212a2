// Physical plans.
//
// "The output of the optimizer is a plan, which is an expression over the
// algebra of algorithms" (paper, section 2.2). During the search the memo
// keeps the best plan per (class, physical property vector) as a PlanChoice:
// the winning move, its cost, and references to the choices for its inputs,
// so larger plans share sub-plans without copying — the dynamic-programming
// memory saving — and improving an incumbent builds nothing. PlanNode trees
// are immutable and shared; they are built from choices once, for the plan
// the optimizer returns.

#ifndef VOLCANO_SEARCH_PLAN_H_
#define VOLCANO_SEARCH_PLAN_H_

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "algebra/cost.h"
#include "algebra/ids.h"
#include "algebra/op_arg.h"
#include "algebra/operator_def.h"
#include "algebra/properties.h"
#include "support/small_vector.h"

namespace volcano {

class EnforcerRule;

class PlanNode;
using PlanPtr = std::shared_ptr<const PlanNode>;

/// A node of a physical query evaluation plan: an algorithm or enforcer with
/// its argument, inputs, derived properties, and total (inclusive) cost.
class PlanNode {
 public:
  PlanNode(OperatorId op, OpArgPtr arg, std::vector<PlanPtr> inputs,
           PhysPropsPtr props, LogicalPropsPtr logical, Cost cost,
           const char* rule = nullptr, bool from_enforcer = false)
      : op_(op),
        arg_(std::move(arg)),
        inputs_(std::move(inputs)),
        props_(std::move(props)),
        logical_(std::move(logical)),
        cost_(cost),
        rule_(rule),
        from_enforcer_(from_enforcer) {}

  static PlanPtr Make(OperatorId op, OpArgPtr arg, std::vector<PlanPtr> inputs,
                      PhysPropsPtr props, LogicalPropsPtr logical, Cost cost,
                      const char* rule = nullptr, bool from_enforcer = false) {
    return std::make_shared<PlanNode>(op, std::move(arg), std::move(inputs),
                                      std::move(props), std::move(logical),
                                      cost, rule, from_enforcer);
  }

  OperatorId op() const { return op_; }
  const OpArgPtr& arg() const { return arg_; }
  const std::vector<PlanPtr>& inputs() const { return inputs_; }
  size_t num_inputs() const { return inputs_.size(); }
  const PlanPtr& input(size_t i) const { return inputs_[i]; }

  /// Physical properties this plan delivers.
  const PhysPropsPtr& props() const { return props_; }

  /// Logical properties of the equivalence class this plan implements.
  const LogicalPropsPtr& logical() const { return logical_; }

  /// Total estimated cost including all inputs.
  const Cost& cost() const { return cost_; }

  /// Name of the implementation or enforcer rule whose move built this node,
  /// or null when the producer recorded none (glue patching, EXODUS
  /// baseline). Borrowed from the rule set, which outlives any plan built
  /// against its model; `vopt --explain` renders the lineage from this.
  const char* rule() const { return rule_; }

  /// True when this node was inserted by an enforcer move rather than an
  /// algorithm implementation.
  bool from_enforcer() const { return from_enforcer_; }

  size_t TreeSize() const {
    size_t n = 1;
    for (const auto& in : inputs_) n += in->TreeSize();
    return n;
  }

 private:
  OperatorId op_;
  OpArgPtr arg_;
  std::vector<PlanPtr> inputs_;
  PhysPropsPtr props_;
  LogicalPropsPtr logical_;
  Cost cost_;
  const char* rule_;
  bool from_enforcer_;
};

/// The move a goal's search settled on, with its cost and the choices made
/// for the move's inputs: a plan in the memo's own terms. The search records
/// one per goal that finds a plan (its incumbent, then the memoized winner)
/// in storage the memo recycles between queries (Memo::NewChoice); a
/// PlanNode tree is built only for a plan handed out (BuildPlan).
struct PlanChoice {
  OperatorId op = kInvalidOperator;  ///< algorithm or enforcer
  /// The algorithm's argument (ImplementationRule::PlanArg, taken when the
  /// move installed). Null for an enforcer move: its argument depends only
  /// on `props`, so BuildPlan asks `enforcer` for it.
  OpArgPtr arg;
  const EnforcerRule* enforcer = nullptr;  ///< set for an enforcer move
  const char* rule = nullptr;  ///< producing rule's name (borrowed), or null
  /// Implementation rule id, or enforcer registration index when `enforcer`
  /// is set: the slot SearchMetrics credits.
  uint32_t rule_index = 0;
  PhysPropsPtr props;       ///< properties the plan delivers
  LogicalPropsPtr logical;  ///< the class's logical properties
  Cost cost;                ///< total, inputs included
  SmallVector<const PlanChoice*, 3> inputs;

  bool from_enforcer() const { return enforcer != nullptr; }
};

/// Builds the PlanNode tree a choice stands for. Every node's fields are the
/// ones a plan built during the search would have had, the property vector
/// the same pointer as the choice's.
PlanPtr BuildPlan(const PlanChoice& choice);

/// Multi-line, indented plan rendering for examples and debugging.
std::string PlanToString(const PlanNode& plan, const OperatorRegistry& reg,
                         const CostModel& cm);

/// One-line rendering: op(arg)(child, child).
std::string PlanToLine(const PlanNode& plan, const OperatorRegistry& reg);

}  // namespace volcano

#endif  // VOLCANO_SEARCH_PLAN_H_
