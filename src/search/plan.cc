#include "search/plan.h"

#include <sstream>
#include <utility>
#include <vector>

#include "rules/rule.h"

namespace volcano {

PlanPtr BuildPlan(const PlanChoice& choice) {
  std::vector<PlanPtr> inputs;
  inputs.reserve(choice.inputs.size());
  for (const PlanChoice* in : choice.inputs) inputs.push_back(BuildPlan(*in));
  OpArgPtr arg = choice.enforcer != nullptr
                     ? choice.enforcer->PlanArg(*choice.props)
                     : choice.arg;
  return PlanNode::Make(choice.op, std::move(arg), std::move(inputs),
                        choice.props, choice.logical, choice.cost, choice.rule,
                        choice.from_enforcer());
}

namespace {

void Render(const PlanNode& plan, const OperatorRegistry& reg,
            const CostModel& cm, int indent, std::ostringstream& os) {
  for (int i = 0; i < indent; ++i) os << "  ";
  os << reg.Name(plan.op());
  if (plan.arg() != nullptr) os << " [" << plan.arg()->ToString() << "]";
  os << "  {" << plan.props()->ToString() << "}";
  os << "  cost=" << cm.ToString(plan.cost());
  os << "\n";
  for (const auto& in : plan.inputs()) Render(*in, reg, cm, indent + 1, os);
}

/// Appends the one-line rendering of `plan` to *out, so a whole plan is
/// written into one string.
void AppendLine(const PlanNode& plan, const OperatorRegistry& reg,
                std::string* out) {
  *out += reg.Name(plan.op());
  if (plan.arg() != nullptr) {
    *out += '[';
    *out += plan.arg()->ToString();
    *out += ']';
  }
  if (plan.inputs().empty()) return;
  *out += '(';
  for (size_t i = 0; i < plan.inputs().size(); ++i) {
    if (i) *out += ", ";
    AppendLine(*plan.input(i), reg, out);
  }
  *out += ')';
}

}  // namespace

std::string PlanToString(const PlanNode& plan, const OperatorRegistry& reg,
                         const CostModel& cm) {
  std::ostringstream os;
  Render(plan, reg, cm, 0, os);
  return os.str();
}

std::string PlanToLine(const PlanNode& plan, const OperatorRegistry& reg) {
  std::string s;
  AppendLine(plan, reg, &s);
  return s;
}

}  // namespace volcano
