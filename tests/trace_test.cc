// Trace-layer tests: the TraceLog in-memory sink, per-rule metrics, the
// Memo::Reset lifecycle, and a golden-file diff of JsonTraceSink output for
// a small deterministic query (the format `vopt --trace=FILE` writes).
//
// Regenerate the golden fixture after an intentional format change with:
//   VOLCANO_REGEN_GOLDEN=1 ./build/tests/trace_test
// (run from the repository root; the test writes/reads
// tests/golden/trace_small.jsonl relative to the working directory, which
// gtest_discover_tests pins to the source root).

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "relational/catalog.h"
#include "relational/rel_model.h"
#include "relational/sql.h"
#include "search/memo.h"
#include "search/optimizer.h"
#include "search/search_config.h"
#include "search/trace_io.h"
#include "support/metrics.h"
#include "support/trace.h"

namespace volcano {
namespace {

using rel::Catalog;
using rel::RelModel;

constexpr char kGoldenPath[] = "tests/golden/trace_small.jsonl";

// Same schema as vopt's built-in demo catalog, so the golden trace matches
// what `vopt --trace=- "<kQuery>"` prints.
struct Fixture {
  Fixture() {
    VOLCANO_CHECK(catalog.AddRelation("emp", 2000, 100, 3).ok());
    VOLCANO_CHECK(catalog.AddRelation("dept", 50, 100, 2).ok());
    VOLCANO_CHECK(catalog
                      .SetSortedOn(catalog.symbols().Lookup("emp"),
                                   {catalog.symbols().Lookup("emp.a1")})
                      .ok());
    model = std::make_unique<RelModel>(catalog);
  }

  rel::ParsedQuery Parse(const char* sql) {
    StatusOr<rel::ParsedQuery> parsed =
        rel::ParseSql(sql, *model, catalog.symbols());
    VOLCANO_CHECK(parsed.ok());
    return std::move(*parsed);
  }

  Catalog catalog;
  std::unique_ptr<RelModel> model;
};

// ORDER BY forces enforcer events; the join gives rule-firing and
// winner-improvement events.
constexpr char kQuery[] =
    "SELECT * FROM emp, dept WHERE emp.a1 = dept.a1 ORDER BY emp.a2";

#if VOLCANO_TRACE_COMPILED_IN

TEST(Trace, LogCapturesSearchLifecycle) {
  Fixture f;
  TraceLog log;
  SearchOptions options;
  options.trace = &log;

  rel::ParsedQuery q = f.Parse(kQuery);
  Optimizer opt(*f.model, SearchConfig::FromOptions(options).value());
  StatusOr<PlanPtr> plan = opt.Optimize(*q.expr, q.required);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();

  const SearchStats& stats = opt.stats();
  // Structural events line up with the engine's own counters.
  EXPECT_EQ(log.CountOf(TraceEventKind::kGroupCreated), stats.groups_created);
  EXPECT_EQ(log.CountOf(TraceEventKind::kMExprCreated), stats.mexprs_created);
  EXPECT_GT(log.CountOf(TraceEventKind::kRuleFired), 0u);
  EXPECT_GT(log.CountOf(TraceEventKind::kAlgorithmPursued), 0u);
  EXPECT_GT(log.CountOf(TraceEventKind::kEnforcerPursued), 0u)
      << "ORDER BY query should pursue the sort enforcer";
  EXPECT_GT(log.CountOf(TraceEventKind::kWinnerInstalled), 0u);
  EXPECT_EQ(log.CountOf(TraceEventKind::kBudgetTrip), 0u);

  for (const TraceLog::Entry& e : log.entries()) {
    // Borrowed pointers are nulled at capture; owned copies carry the text.
    EXPECT_EQ(e.event.rule, nullptr);
    EXPECT_EQ(e.event.detail, nullptr);
    switch (e.event.kind) {
      case TraceEventKind::kRuleFired:
      case TraceEventKind::kAlgorithmPursued:
      case TraceEventKind::kEnforcerPursued:
        EXPECT_FALSE(e.rule.empty());
        break;
      case TraceEventKind::kMExprCreated:
        EXPECT_FALSE(e.detail.empty()) << "operator name missing";
        break;
      case TraceEventKind::kWinnerInstalled:
      case TraceEventKind::kWinnerImproved:
        EXPECT_GT(e.event.cost, 0.0);
        break;
      default:
        break;
    }
  }
}

TEST(Trace, MetricsCountRuleWorkAndWinners) {
  Fixture f;
  SearchOptions options;
  options.collect_phase_timing = true;

  rel::ParsedQuery q = f.Parse(kQuery);
  Optimizer opt(*f.model, SearchConfig::FromOptions(options).value());
  ASSERT_TRUE(opt.Optimize(*q.expr, q.required).ok());

  const SearchMetrics& m = opt.metrics();
  uint64_t impl_fired = 0, winners = 0;
  for (const RuleCounters& rc : m.implementations) {
    impl_fired += rc.fired;
    winners += rc.winners;
    EXPECT_LE(rc.succeeded, rc.fired) << rc.name;
  }
  for (const RuleCounters& rc : m.enforcers) winners += rc.winners;
  EXPECT_GT(impl_fired, 0u);
  EXPECT_GT(winners, 0u) << "final plan steps should credit their rules";

  ASSERT_TRUE(m.phases.enabled);
  EXPECT_GT(m.phases.total_seconds, 0.0);
  // The engine times both phases.
  EXPECT_GT(m.phases.explore_seconds, 0.0);
  EXPECT_GT(m.phases.pursue_seconds, 0.0);
  // Explore under pursue accrues to pursue, so the parts never exceed the
  // whole (the "other" residue in MetricsToJson stays non-negative).
  EXPECT_LE(m.phases.explore_seconds + m.phases.pursue_seconds,
            m.phases.total_seconds + 1e-9);

  std::string json = MetricsToJson(m);
  EXPECT_NE(json.find("\"implementations\""), std::string::npos);
  EXPECT_NE(json.find("\"winners\""), std::string::npos);

  // One full rendering, byte for byte: all-zero rules elided, names
  // escaped, winners only for implementations and enforcers, and the
  // phase timers at fixed precision with the "other" residue.
  SearchMetrics fixed;
  fixed.transformations = {{"join_commute", 12, 7, 0},
                           {"idle", 0, 0, 0},
                           {"sel\"ect\tpush", 3, 1, 0}};
  fixed.implementations = {{"hash_join", 9, 4, 2}, {"merge_join", 0, 0, 1}};
  fixed.enforcers = {{"sort", 5, 2, 1}};
  fixed.phases.enabled = true;
  fixed.phases.total_seconds = 0.125;
  fixed.phases.explore_seconds = 0.0625;
  fixed.phases.pursue_seconds = 0.03125;
  EXPECT_EQ(MetricsToJson(fixed),
            R"({"transformations": [{"rule": "join_commute", "fired": 12, )"
            R"("succeeded": 7}, {"rule": "sel\"ect\tpush", "fired": 3, )"
            R"("succeeded": 1}], "implementations": [{"rule": "hash_join", )"
            R"("fired": 9, "succeeded": 4, "winners": 2}, {"rule": )"
            R"("merge_join", "fired": 0, "succeeded": 0, "winners": 1}], )"
            R"("enforcers": [{"rule": "sort", "fired": 5, "succeeded": 2, )"
            R"("winners": 1}], "phases": {"total_s": 0.125000, )"
            R"("explore_s": 0.062500, "pursue_s": 0.031250, )"
            R"("other_s": 0.031250}})");
  EXPECT_EQ(MetricsToJson(SearchMetrics{}),
            R"({"transformations": [], "implementations": [], )"
            R"("enforcers": []})");
}

TEST(Trace, GoldenJsonLines) {
  Fixture f;
  std::ostringstream out;
  JsonTraceSink sink(out);
  SearchOptions options;
  options.trace = &sink;

  rel::ParsedQuery q = f.Parse(kQuery);
  Optimizer opt(*f.model, SearchConfig::FromOptions(options).value());
  ASSERT_TRUE(opt.Optimize(*q.expr, q.required).ok());
  std::string got = out.str();
  ASSERT_GT(sink.seq(), 0u);

  if (std::getenv("VOLCANO_REGEN_GOLDEN") != nullptr) {
    std::ofstream regen(kGoldenPath);
    ASSERT_TRUE(regen) << "cannot write " << kGoldenPath
                       << " (run from the repository root)";
    regen << got;
    GTEST_SKIP() << "regenerated " << kGoldenPath;
  }

  std::ifstream in(kGoldenPath);
  ASSERT_TRUE(in) << "missing " << kGoldenPath
                  << " (run from the repository root, or regenerate with "
                     "VOLCANO_REGEN_GOLDEN=1)";
  std::stringstream want;
  want << in.rdbuf();

  // Compare line-by-line so a drift reports the first diverging event, not
  // a one-line wall of JSON.
  std::istringstream got_lines(got), want_lines(want.str());
  std::string got_line, want_line;
  size_t lineno = 0;
  while (std::getline(want_lines, want_line)) {
    ++lineno;
    ASSERT_TRUE(std::getline(got_lines, got_line))
        << "trace ended early at line " << lineno << "; expected: "
        << want_line;
    EXPECT_EQ(got_line, want_line) << "first divergence at line " << lineno;
    if (got_line != want_line) break;
  }
  if (got_line == want_line) {
    EXPECT_FALSE(std::getline(got_lines, got_line))
        << "extra trace line after golden ended: " << got_line;
  }
}

#endif  // VOLCANO_TRACE_COMPILED_IN

TEST(Trace, NullSinkIsFreeAndSafe) {
  // With no sink installed the macro must not evaluate its event argument.
  Fixture f;
  rel::ParsedQuery q = f.Parse(kQuery);
  Optimizer opt(*f.model);  // default options: options.trace == nullptr
  StatusOr<PlanPtr> plan = opt.Optimize(*q.expr, q.required);
  ASSERT_TRUE(plan.ok());

  int evaluations = 0;
  TraceSink* no_sink = nullptr;
  (void)no_sink;  // the macro discards its arguments when compiled out
  VOLCANO_TRACE(no_sink, [&] {
    ++evaluations;
    return TraceEvent{.kind = TraceEventKind::kGroupCreated};
  }());
#if VOLCANO_TRACE_COMPILED_IN
  EXPECT_EQ(evaluations, 0) << "event built despite null sink";
#else
  EXPECT_EQ(evaluations, 0) << "event built despite tracing compiled out";
#endif
}

TEST(Trace, MemoResetAllowsReuse) {
  Fixture f;
  TraceLog log;
  Memo memo(*f.model);
  memo.set_trace(&log);

  ExprPtr q1 = f.model->Join(f.model->Get("emp"), f.model->Get("dept"),
                             f.catalog.symbols().Lookup("emp.a1"),
                             f.catalog.symbols().Lookup("dept.a1"));
  memo.InsertQuery(*q1);
  size_t groups_before = memo.num_groups();
  ASSERT_GT(groups_before, 0u);

  memo.Reset();
  EXPECT_EQ(memo.num_groups(), 0u);
  EXPECT_EQ(memo.num_exprs(), 0u);

  // Re-inserting the same query must rebuild from scratch — identical shape,
  // no duplicate-detection hits against pre-Reset state.
  GroupId root = memo.InsertQuery(*q1);
  EXPECT_EQ(memo.num_groups(), groups_before);
  EXPECT_EQ(memo.group(memo.Find(root)).exprs().size(), 1u);
}

}  // namespace
}  // namespace volcano
