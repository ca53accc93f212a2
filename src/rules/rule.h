// Rules: transformation rules, implementation rules, and enforcer rules.
//
// "The algebraic rules of expression equivalence, e.g., commutativity or
// associativity, are specified using transformation rules. The possible
// mappings of operators to algorithms are specified using implementation
// rules." (paper, section 2.2). Both kinds may carry condition code invoked
// after a pattern match succeeds, and a promise used to order moves
// (section 3: "order the set of moves by promise"). Enforcers are physical
// operators that deliver required physical properties; their rules supply
// the applicability logic ("can this enforcer help toward these required
// properties, and with which relaxed input requirement and which excluding
// property vector") and a cost function.

#ifndef VOLCANO_RULES_RULE_H_
#define VOLCANO_RULES_RULE_H_

#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "algebra/cost.h"
#include "algebra/ids.h"
#include "algebra/op_arg.h"
#include "algebra/properties.h"
#include "rules/binding.h"
#include "rules/pattern.h"
#include "rules/rex.h"
#include "support/small_vector.h"

namespace volcano {

class Memo;

/// Common base: a named pattern plus optional condition code and promise.
class Rule {
 public:
  Rule(std::string name, Pattern pattern)
      : name_(std::move(name)), pattern_(std::move(pattern)) {}
  virtual ~Rule() = default;

  const std::string& name() const { return name_; }
  const Pattern& pattern() const { return pattern_; }

  /// Rule id within its RuleSet; assigned at registration.
  RuleId id() const { return id_; }
  void set_id(RuleId id) { id_ = id; }

  /// Condition code, "invoked after a pattern match has succeeded".
  virtual bool Condition(const Binding& binding, const Memo& memo) const {
    (void)binding;
    (void)memo;
    return true;
  }

  /// Move-ordering heuristic; higher is pursued first. With exhaustive
  /// search the ordering only affects which good plan is found early (which
  /// matters for pruning effectiveness, "it is important ... that a
  /// relatively good plan be found fast").
  virtual double Promise(const Binding& binding, const Memo& memo) const {
    (void)binding;
    (void)memo;
    return 1.0;
  }

 private:
  std::string name_;
  Pattern pattern_;
  RuleId id_ = 0;
};

/// Algebraic equivalence within the logical algebra.
class TransformationRule : public Rule {
 public:
  using Rule::Rule;

  /// Builds the equivalent expression in `out` and returns its root, or
  /// Rex::kNone to decline. Leaves reference the classes bound by the
  /// pattern; inner nodes may be new. The engine inserts the result into
  /// the matched expression's class (detecting duplicates and merging
  /// classes when needed) and then clears `out`, a buffer the optimizer
  /// owns and reuses: a body is one expression,
  ///   return out.Node(op, arg, {out.Leaf(b.leaf(1)), out.Leaf(b.leaf(0))});
  /// and an argument the rule must create goes through out.Derived().
  virtual Rex::Ref Apply(const Binding& binding, const Memo& memo,
                         Rex& out) const = 0;

  /// Transformation rules disabled on the top expression of this rule's
  /// result, as a mask of rule ids. The engine ORs it into the expression's
  /// fired mask when the insert creates the expression. A duplicate-free
  /// rule set (Pellenkoft et al., VLDB 1997) disables the rules that would
  /// only re-derive expressions the memo already holds. The default, 0, is
  /// classic Volcano: every rule fires on every expression.
  uint64_t disables() const { return disables_; }
  void set_disables(uint64_t rule_mask) { disables_ = rule_mask; }

 private:
  uint64_t disables_ = 0;
};

/// One way an algorithm can satisfy a requirement: the physical property
/// vectors its inputs must satisfy, and the properties it then delivers.
/// An applicability check may return several alternatives — the paper's
/// example is a merge-based intersection that accepts any sort order as long
/// as both inputs use the same one, so the implementor lists the orders to
/// try (section 3).
struct AlgorithmAlternative {
  /// One entry per pattern leaf. Nearly every algorithm takes one or two
  /// inputs, whose properties then live inline.
  SmallVector<PhysPropsPtr, 2> input_props;
  PhysPropsPtr delivered;  ///< output properties of the plan
};

/// An applicability check's answer. Nearly every check offers at most one
/// alternative, which is stored inline.
using AlgorithmAlternatives = SmallVector<AlgorithmAlternative, 1>;

/// The single-alternative answer, moved into place.
inline AlgorithmAlternatives OneAlternative(AlgorithmAlternative alt) {
  AlgorithmAlternatives out;
  out.push_back(std::move(alt));
  return out;
}

/// Cost-based mapping from (one or more) logical operators to an algorithm.
class ImplementationRule : public Rule {
 public:
  ImplementationRule(std::string name, Pattern pattern, OperatorId algorithm)
      : Rule(std::move(name), std::move(pattern)), algorithm_(algorithm) {}

  OperatorId algorithm() const { return algorithm_; }

  /// The applicability function: "determines whether or not the algorithm
  /// ... can deliver the logical expression with physical properties that
  /// satisfy the physical property vector" and "the physical property
  /// vectors that the algorithm's inputs must satisfy" (section 2.2).
  /// `excluded`, when non-null, is the excluding physical property vector:
  /// the algorithm must not be able to satisfy it (this prevents e.g.
  /// merge-join below a sort enforcer of the same order); implementations
  /// must return no alternative whose delivered properties cover it.
  /// `required` is passed as a shared handle so order-preserving algorithms
  /// can forward it without copying.
  virtual AlgorithmAlternatives Applicability(
      const Binding& binding, const Memo& memo, const PhysPropsPtr& required,
      const PhysProps* excluded) const = 0;

  /// The algorithm's own cost, excluding its inputs' costs.
  virtual Cost LocalCost(const Binding& binding, const Memo& memo) const = 0;

  /// Argument for the produced plan node; defaults to the matched root
  /// expression's argument.
  virtual OpArgPtr PlanArg(const Binding& binding, const Memo& memo) const;

 private:
  OperatorId algorithm_;
};

/// How an enforcer applies toward a required property vector.
struct EnforcerApplication {
  PhysPropsPtr delivered;       ///< properties of the enforcer's output
  PhysPropsPtr input_required;  ///< relaxed requirement for the input
  /// Excluding physical property vector passed to the input's optimization:
  /// algorithms that could satisfy it "do not qualify redundantly"
  /// (section 2.2 / 3).
  PhysPropsPtr excluded;
};

/// An enforcer: a physical operator that exists only to establish physical
/// properties (sort, decompression, exchange, ...).
class EnforcerRule {
 public:
  EnforcerRule(std::string name, OperatorId enforcer)
      : name_(std::move(name)), enforcer_(enforcer) {}
  virtual ~EnforcerRule() = default;

  const std::string& name() const { return name_; }
  OperatorId enforcer() const { return enforcer_; }

  /// Returns how the enforcer would help toward `required` for a result with
  /// logical properties `logical`, or nullopt if it cannot (e.g. a sort
  /// enforcer when no sort order is required).
  virtual std::optional<EnforcerApplication> Enforce(
      const PhysPropsPtr& required, const LogicalProps& logical) const = 0;

  /// The enforcer's own cost, excluding its input's cost.
  virtual Cost LocalCost(const LogicalProps& logical,
                         const PhysProps& delivered) const = 0;

  /// Argument for the produced plan node (e.g. the sort specification).
  virtual OpArgPtr PlanArg(const PhysProps& delivered) const {
    (void)delivered;
    return nullptr;
  }

  /// Move-ordering heuristic, as for Rule::Promise.
  virtual double Promise(const PhysProps& required,
                         const LogicalProps& logical) const {
    (void)required;
    (void)logical;
    return 1.0;
  }

 private:
  std::string name_;
  OperatorId enforcer_;
};

}  // namespace volcano

#endif  // VOLCANO_RULES_RULE_H_
