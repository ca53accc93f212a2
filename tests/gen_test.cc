// Optimizer generator tests: specification parsing and validation, code
// generation (golden file against the committed generated sources), and the
// full generated path — a GenRelModel-driven optimizer must behave exactly
// like the handwritten RelModel.

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>

#include "gen/codegen.h"
#include "gen/parser.h"
#include "relational/generated/gen_rel_model.h"
#include "relational/query_gen.h"
#include "search/optimizer.h"

namespace volcano::gen {
namespace {

std::string ReadFile(const std::string& path) {
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << "cannot open " << path;
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

constexpr char kTinySpec[] = R"(
// a minimal two-operator model
model tiny;
operator GET 0;
operator JOIN 2;
algorithm SCAN 0;
algorithm LOOP_JOIN 2;
enforcer SORT;

transformation commute: JOIN(?a, ?b) -> JOIN(?b, ?a) apply CommuteApply;
implementation get_scan: GET -> SCAN applicability ScanApp cost ScanCost;
enforcer_rule sort: SORT enforce SortEnforce cost SortCost;
)";

TEST(Parser, ParsesTinySpec) {
  StatusOr<ModelSpec> spec = ParseModelSpec(kTinySpec);
  ASSERT_TRUE(spec.ok()) << spec.status().ToString();
  EXPECT_EQ(spec->model_name, "tiny");
  EXPECT_EQ(spec->operators.size(), 5u);
  EXPECT_EQ(spec->transformations.size(), 1u);
  EXPECT_EQ(spec->implementations.size(), 1u);
  EXPECT_EQ(spec->enforcers.size(), 1u);
  EXPECT_EQ(spec->transformations[0].apply_fn, "CommuteApply");
  EXPECT_TRUE(spec->transformations[0].condition_fn.empty());
}

TEST(Parser, ParsesNestedPatterns) {
  StatusOr<ModelSpec> spec = ParseModelSpec(R"(
model m;
operator JOIN 2;
transformation assoc: JOIN(JOIN(?a, ?b), ?c) -> JOIN(?a, JOIN(?b, ?c))
  condition C apply A;
)");
  ASSERT_TRUE(spec.ok()) << spec.status().ToString();
  const PatternSpec& before = spec->transformations[0].before;
  EXPECT_EQ(before.op, "JOIN");
  ASSERT_EQ(before.children.size(), 2u);
  EXPECT_EQ(before.children[0].op, "JOIN");
  EXPECT_TRUE(before.children[1].is_any);
  EXPECT_EQ(before.children[1].binder, "c");
}

TEST(Parser, ReportsLineNumbersOnErrors) {
  StatusOr<ModelSpec> spec = ParseModelSpec("model m;\noperator GET ;\n");
  ASSERT_FALSE(spec.ok());
  EXPECT_NE(spec.status().message().find("line 2"), std::string::npos);
}

TEST(Parser, RejectsUnknownDeclaration) {
  StatusOr<ModelSpec> spec = ParseModelSpec("model m;\nfrobnicate X;\n");
  ASSERT_FALSE(spec.ok());
  EXPECT_NE(spec.status().message().find("frobnicate"), std::string::npos);
}

TEST(Parser, RejectsMissingModelHeader) {
  EXPECT_FALSE(ParseModelSpec("operator GET 0;").ok());
}

TEST(Validation, RejectsUndeclaredPatternOperator) {
  StatusOr<ModelSpec> spec = ParseModelSpec(R"(
model m;
operator GET 0;
transformation t: JOIN(?a, ?b) -> JOIN(?b, ?a) apply F;
)");
  ASSERT_FALSE(spec.ok());
  EXPECT_NE(spec.status().message().find("JOIN"), std::string::npos);
}

TEST(Validation, RejectsArityMismatch) {
  StatusOr<ModelSpec> spec = ParseModelSpec(R"(
model m;
operator JOIN 2;
transformation t: JOIN(?a) -> JOIN(?a) apply F;
)");
  ASSERT_FALSE(spec.ok());
  EXPECT_NE(spec.status().message().find("arity"), std::string::npos);
}

TEST(Validation, RejectsImplementationTargetingLogicalOperator) {
  StatusOr<ModelSpec> spec = ParseModelSpec(R"(
model m;
operator GET 0;
operator JOIN 2;
implementation i: GET -> JOIN applicability A cost C;
)");
  ASSERT_FALSE(spec.ok());
}

TEST(Validation, RejectsEnforcerRuleOnAlgorithm) {
  StatusOr<ModelSpec> spec = ParseModelSpec(R"(
model m;
algorithm SCAN 0;
enforcer_rule e: SCAN enforce E cost C;
)");
  ASSERT_FALSE(spec.ok());
}

TEST(Validation, RejectsDuplicateOperators) {
  StatusOr<ModelSpec> spec = ParseModelSpec(R"(
model m;
operator GET 0;
operator GET 0;
)");
  ASSERT_FALSE(spec.ok());
}

TEST(Codegen, RejectsSupportFunctionRoleClash) {
  StatusOr<ModelSpec> spec = ParseModelSpec(R"(
model m;
operator GET 0;
algorithm SCAN 0;
operator JOIN 2;
transformation t: JOIN(?a, ?b) -> JOIN(?b, ?a) apply SharedFn;
implementation i: GET -> SCAN applicability SharedFn cost C;
)");
  ASSERT_TRUE(spec.ok()) << spec.status().ToString();
  StatusOr<GeneratedCode> code = GenerateOptimizerCode(*spec);
  ASSERT_FALSE(code.ok());
  EXPECT_NE(code.status().message().find("SharedFn"), std::string::npos);
}

TEST(Codegen, EmitsExpectedSections) {
  StatusOr<ModelSpec> spec = ParseModelSpec(kTinySpec);
  ASSERT_TRUE(spec.ok());
  StatusOr<GeneratedCode> code = GenerateOptimizerCode(*spec);
  ASSERT_TRUE(code.ok()) << code.status().ToString();
  EXPECT_NE(code->header.find("struct Ops"), std::string::npos);
  EXPECT_NE(code->header.find("class Support"), std::string::npos);
  EXPECT_NE(code->header.find("virtual Rex::Ref CommuteApply"),
            std::string::npos);
  EXPECT_NE(code->source.find("class Rule_commute"), std::string::npos);
  EXPECT_NE(code->source.find("RegisterLogical(\"GET\", 0)"),
            std::string::npos);
  EXPECT_NE(code->source.find("RegisterEnforcer(\"SORT\")"),
            std::string::npos);
  EXPECT_EQ(code->header_name, "tiny_gen.h");
}

TEST(Codegen, GoldenMatchesCommittedGeneratedSources) {
  // Regenerating from the committed specification must reproduce the
  // committed generated code byte for byte.
  std::string spec_text = ReadFile("src/relational/relational.model");
  StatusOr<ModelSpec> spec = ParseModelSpec(spec_text);
  ASSERT_TRUE(spec.ok()) << spec.status().ToString();
  StatusOr<GeneratedCode> code =
      GenerateOptimizerCode(*spec, "relational/generated/");
  ASSERT_TRUE(code.ok());
  EXPECT_EQ(code->header,
            ReadFile("src/relational/generated/relational_gen.h"));
  EXPECT_EQ(code->source,
            ReadFile("src/relational/generated/relational_gen.cc"));
}

TEST(GeneratedModel, RegistryMatchesHandwrittenModel) {
  rel::Catalog catalog;
  ASSERT_TRUE(catalog.AddRelation("A", 1000, 100, 2).ok());
  rel::GenRelModel gen(catalog);
  const OperatorRegistry& g = gen.registry();
  const OperatorRegistry& h = gen.inner().registry();
  ASSERT_EQ(g.size(), h.size());
  for (OperatorId id = 0; id < g.size(); ++id) {
    EXPECT_EQ(g.Name(id), h.Name(id));
    EXPECT_EQ(g.Arity(id), h.Arity(id));
    EXPECT_EQ(g.ClassOf(id), h.ClassOf(id));
  }
  EXPECT_EQ(gen.rule_set().transformations().size(),
            gen.inner().rule_set().transformations().size());
  EXPECT_EQ(gen.rule_set().implementations().size(),
            gen.inner().rule_set().implementations().size());
  EXPECT_EQ(gen.rule_set().enforcers().size(),
            gen.inner().rule_set().enforcers().size());
}

TEST(GeneratedModel, ProducesIdenticalPlansToHandwrittenModel) {
  for (uint64_t seed : {5u, 15u, 25u, 35u}) {
    rel::WorkloadOptions wopts;
    wopts.num_relations = 4;
    wopts.order_by_prob = 0.5;
    rel::Workload w = rel::GenerateWorkload(wopts, seed);
    rel::GenRelModel gen(*w.catalog);

    Optimizer hand_opt(*w.model);
    StatusOr<PlanPtr> hand = hand_opt.Optimize(*w.query, w.required);
    ASSERT_TRUE(hand.ok());

    Optimizer gen_opt(gen);
    StatusOr<PlanPtr> generated = gen_opt.Optimize(*w.query, w.required);
    ASSERT_TRUE(generated.ok()) << generated.status().ToString();

    EXPECT_EQ(PlanToLine(**hand, w.model->registry()),
              PlanToLine(**generated, gen.registry()));
    EXPECT_DOUBLE_EQ(w.model->cost_model().Total((*hand)->cost()),
                     gen.cost_model().Total((*generated)->cost()));
  }
}

}  // namespace
}  // namespace volcano::gen
