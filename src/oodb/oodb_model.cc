#include "oodb/oodb_model.h"

#include "search/memo.h"
#include "support/hash.h"

namespace volcano::oodb {

uint64_t ExtentArg::Hash() const { return Mix64(0x77 ^ cls_.id()); }
uint64_t TraverseArg::Hash() const { return Mix64(0x88 ^ ref_.id()); }

bool OodbPhysProps::Equals(const PhysProps& other) const {
  const auto* o = dynamic_cast<const OodbPhysProps*>(&other);
  return o != nullptr && assembled_ == o->assembled_;
}

bool OodbPhysProps::Covers(const PhysProps& required) const {
  const auto* r = dynamic_cast<const OodbPhysProps*>(&required);
  return r != nullptr && (assembled_ || !r->assembled_);
}

namespace {

const OodbLogicalProps& LeafProps(const Memo& memo, const Binding& b,
                                  size_t leaf) {
  return static_cast<const OodbLogicalProps&>(*memo.LogicalOf(b.leaf(leaf)));
}

/// The support functions the oodb.model specification names; the generated
/// rule classes delegate every condition/applicability/cost call here.
class OodbSupport final : public gen_model::oodb::Support {
 public:
  explicit OodbSupport(const OodbModel& model) : model_(model) {}

  AlgorithmAlternatives ExtentScanApplicability(
      const Binding& b, const Memo& memo, const PhysPropsPtr& required,
      const PhysProps* excluded) const override {
    (void)b;
    (void)memo;
    (void)excluded;
    PhysPropsPtr delivered = model_.AnyProps();  // unassembled
    if (!delivered->Covers(*required)) return {};
    return OneAlternative({{}, delivered});
  }

  Cost ExtentScanCost(const Binding& b, const Memo& memo) const override {
    const auto& out = static_cast<const OodbLogicalProps&>(
        *memo.LogicalOf(b.root().group()));
    return Cost::Scalar(out.cardinality() * model_.params().seq_io_per_object);
  }

  AlgorithmAlternatives NaiveTraverseApplicability(
      const Binding& b, const Memo& memo, const PhysPropsPtr& required,
      const PhysProps* excluded) const override {
    (void)b;
    (void)memo;
    (void)excluded;
    PhysPropsPtr delivered = model_.AnyProps();
    if (!delivered->Covers(*required)) return {};
    return OneAlternative({{model_.AnyProps()}, delivered});
  }

  Cost NaiveTraverseCost(const Binding& b, const Memo& memo) const override {
    return Cost::Scalar(LeafProps(memo, b, 0).cardinality() *
                        model_.params().random_io_per_object);
  }

  AlgorithmAlternatives ClusteredTraverseApplicability(
      const Binding& b, const Memo& memo, const PhysPropsPtr& required,
      const PhysProps* excluded) const override {
    (void)b;
    (void)memo;
    (void)required;  // assembled output covers every requirement
    (void)excluded;
    return OneAlternative({{model_.Assembled()}, model_.Assembled()});
  }

  Cost ClusteredTraverseCost(const Binding& b,
                             const Memo& memo) const override {
    return Cost::Scalar(LeafProps(memo, b, 0).cardinality() *
                        model_.params().clustered_per_object);
  }

  std::optional<EnforcerApplication> AssemblyEnforce(
      const PhysPropsPtr& required,
      const LogicalProps& logical) const override {
    (void)logical;
    const auto& req = static_cast<const OodbPhysProps&>(*required);
    if (!req.assembled()) return std::nullopt;  // nothing to enforce
    EnforcerApplication app;
    app.delivered = model_.Assembled();
    app.input_required = model_.AnyProps();
    app.excluded = model_.Assembled();
    return app;
  }

  Cost AssemblyCost(const LogicalProps& logical,
                    const PhysProps& delivered) const override {
    (void)delivered;
    const auto& lp = static_cast<const OodbLogicalProps&>(logical);
    return Cost::Scalar(lp.cardinality() *
                        model_.params().assembly_per_object);
  }

 private:
  const OodbModel& model_;
};

}  // namespace

OodbModel::OodbModel(OodbCostParams params) : params_(params) {
  ops_ = gen_model::oodb::RegisterOperators(&registry_);
  support_ = std::make_unique<OodbSupport>(*this);
  gen_model::oodb::RegisterRules(&rules_, ops_, *support_);
  unassembled_ = std::make_shared<OodbPhysProps>(false);
  assembled_ = std::make_shared<OodbPhysProps>(true);
}

OodbModel::~OodbModel() = default;

void OodbModel::AddClass(std::string_view name, double extent_size,
                         double object_bytes) {
  Symbol sym = symbols_.Intern(name);
  VOLCANO_CHECK(FindClass(sym) == nullptr);
  classes_.push_back(ClassInfo{sym, extent_size, object_bytes});
}

const ClassInfo* OodbModel::FindClass(Symbol name) const {
  for (const auto& c : classes_) {
    if (c.name == name) return &c;
  }
  return nullptr;
}

LogicalPropsPtr OodbModel::DeriveLogicalProps(
    OperatorId op, const OpArg* arg,
    const std::vector<LogicalPropsPtr>& inputs) const {
  if (op == ops_.kEXTENT) {
    const auto& a = static_cast<const ExtentArg&>(*arg);
    const ClassInfo* cls = FindClass(a.cls());
    VOLCANO_CHECK(cls != nullptr);
    return std::make_shared<OodbLogicalProps>(cls->extent_size,
                                              cls->object_bytes);
  }
  VOLCANO_CHECK(op == ops_.kTRAVERSE);
  const auto& in = static_cast<const OodbLogicalProps&>(*inputs[0]);
  // Each object references one target; shared targets collapse slightly.
  return std::make_shared<OodbLogicalProps>(in.cardinality() * 0.9, 128);
}

ExprPtr OodbModel::Extent(std::string_view cls) const {
  Symbol sym = symbols_.Lookup(cls);
  VOLCANO_CHECK(sym.valid() && FindClass(sym) != nullptr);
  return Expr::Make(ops_.kEXTENT,
                    std::make_shared<ExtentArg>(symbols_, sym));
}

ExprPtr OodbModel::Traverse(ExprPtr input, std::string_view ref) {
  Symbol sym = symbols_.Intern(ref);
  return Expr::Make(ops_.kTRAVERSE,
                    std::make_shared<TraverseArg>(symbols_, sym),
                    {std::move(input)});
}

}  // namespace volcano::oodb
