// Rule patterns.
//
// A pattern describes the shape of logical expressions a rule applies to:
// an operator with sub-patterns for its inputs, or an "any" leaf that binds
// an arbitrary equivalence class. Patterns deeper than one level (e.g. the
// associativity rule JOIN(JOIN(?a,?b),?c)) direct the search: only input
// classes in positions where the pattern names a specific operator are
// explored, which is the goal-directed ("backward chaining") behaviour the
// paper contrasts with EXODUS (section 3).

#ifndef VOLCANO_RULES_PATTERN_H_
#define VOLCANO_RULES_PATTERN_H_

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "algebra/ids.h"
#include "algebra/operator_def.h"

namespace volcano {

/// An immutable pattern tree.
class Pattern {
 public:
  /// Leaf binding any equivalence class.
  static Pattern Any() { return Pattern(kInvalidOperator, {}); }

  /// Node requiring a specific logical operator.
  static Pattern Op(OperatorId op, std::vector<Pattern> children = {}) {
    return Pattern(op, std::move(children));
  }

  bool is_any() const { return op_ == kInvalidOperator; }
  OperatorId op() const { return op_; }
  const std::vector<Pattern>& children() const { return children_; }

  /// Number of "any" leaves, in-order. These become the inputs of a physical
  /// operator produced by an implementation rule.
  int NumLeaves() const {
    if (is_any()) return 1;
    int n = 0;
    for (const auto& c : children_) n += c.NumLeaves();
    return n;
  }

  /// Number of operator (non-any) nodes.
  int NumOpNodes() const {
    if (is_any()) return 0;
    int n = 1;
    for (const auto& c : children_) n += c.NumOpNodes();
    return n;
  }

  /// True for an operator node whose children are all "any" leaves: the
  /// pattern binds one expression (NumOpNodes() == 1, without recursing).
  bool IsSingleNode() const {
    if (is_any()) return false;
    for (const auto& c : children_) {
      if (!c.is_any()) return false;
    }
    return true;
  }

  std::string ToString(const OperatorRegistry& reg) const {
    if (is_any()) return "?";
    std::string s = reg.Name(op_);
    if (!children_.empty()) {
      s += "(";
      for (size_t i = 0; i < children_.size(); ++i) {
        if (i) s += ", ";
        s += children_[i].ToString(reg);
      }
      s += ")";
    }
    return s;
  }

 private:
  Pattern(OperatorId op, std::vector<Pattern> children)
      : op_(op), children_(std::move(children)) {}

  OperatorId op_;
  std::vector<Pattern> children_;
};

}  // namespace volcano

#endif  // VOLCANO_RULES_PATTERN_H_
