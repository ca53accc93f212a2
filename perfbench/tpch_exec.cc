// tpch_exec: the executor. The 15 TPC-H-shaped plans are optimized during
// set-up; the timed phase executes them in seeded rounds (every query once
// per round) on exec::GenerateDatabase data, one op per plan execution:
// exec::BuildIterator, then Open / Next until exhausted / Close.
//
// Before the timed phase every plan passes rel::ValidatePlan, returns the
// rows of the naive exec::EvalLogical evaluation, and the 15 plans fold to
// the committed TPC-H plan digest.

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "exec/datagen.h"
#include "exec/iterator.h"
#include "exec/plan_exec.h"
#include "harness.h"
#include "plans.h"
#include "relational/query_gen.h"
#include "relational/rel_plan_cost.h"
#include "relational/rel_props.h"

namespace perfbench {
namespace {

namespace exec = volcano::exec;
namespace rel = volcano::rel;

/// Plan digest of the 15 TPC-H queries in the default search configuration
/// (the fold `plan_digest --tpch` prints).
constexpr uint64_t kTpchDigest = 0x1ffa39788f9d1d6cULL;

struct TpchInstance {
  rel::TpchWorkload w;
  exec::Database db;
  std::vector<Compiled> plans;  // in w.queries order
  PlanTotals totals;
};

struct TpchSetupTimes {
  int64_t model_ns = 0;
  int64_t datagen_ns = 0;
  int64_t compile_ns = 0;
};

void SetUp(uint64_t data_seed, TpchInstance* inst, TpchSetupTimes* t,
           SpanLog* log) {
  int64_t t0 = NowNs();
  {
    ScopedSpan span(log, "setup.model_build", 0);
    inst->w = rel::MakeTpchWorkload();
  }
  int64_t t1 = NowNs();
  {
    ScopedSpan span(log, "exec.datagen", 0);
    inst->db = exec::GenerateDatabase(*inst->w.catalog, data_seed);
  }
  int64_t t2 = NowNs();
  {
    ScopedSpan span(log, "exec.compile", 0);
    for (size_t i = 0; i < inst->w.queries.size(); ++i) {
      inst->plans.push_back(CompileQuery(inst->w.queries[i].sql,
                                         *inst->w.model, *inst->w.catalog,
                                         &inst->totals, log, i));
    }
  }
  int64_t t3 = NowNs();
  t->model_ns = t1 - t0;
  t->datagen_ns = t2 - t1;
  t->compile_ns = t3 - t2;
}

/// Checks every plan before anything is timed. Returns, per query, the row
/// count a correct execution produces, or -1 when the plan is wrong.
std::vector<int64_t> CheckPlans(const TpchInstance& inst, Report* report) {
  const rel::RelModel& model = *inst.w.model;
  uint64_t digest = 0xcbf29ce484222325ULL;  // FNV-1a, as plan_digest folds
  std::vector<int64_t> expected;
  for (size_t i = 0; i < inst.plans.size(); ++i) {
    const rel::TpchQuery& q = inst.w.queries[i];
    const Compiled& c = inst.plans[i];
    if (c.plan == nullptr) {
      report->Gate(false, q.name + " did not optimize");
      expected.push_back(-1);
      continue;
    }
    std::string line =
        q.name + " cost=" + model.cost_model().ToString(c.plan->cost()) +
        " plan=" + volcano::PlanToLine(*c.plan, model.registry());
    for (unsigned char ch : line) {
      digest ^= ch;
      digest *= 0x100000001b3ULL;
    }
    bool valid = rel::ValidatePlan(*c.plan, model).ok();
    std::vector<exec::Row> got = exec::ExecutePlan(*c.plan, model, inst.db);
    std::vector<exec::Row> want =
        exec::EvalLogical(*c.query.expr, model, inst.db);
    // DISTINCT is a required property the naive evaluator ignores.
    const auto* props =
        dynamic_cast<const rel::RelPhysProps*>(c.query.required.get());
    if (props != nullptr && props->unique()) {
      std::sort(want.begin(), want.end());
      want.erase(std::unique(want.begin(), want.end()), want.end());
    }
    bool match = exec::SameMultiset(
        exec::ReorderToSchema(got, exec::PlanSchema(*c.plan, model, inst.db),
                              exec::LogicalSchema(*c.query.expr, model,
                                                  inst.db)),
        want);
    report->Gate(valid, q.name + " fails ValidatePlan");
    report->Gate(match, q.name + " rows differ from EvalLogical");
    expected.push_back(valid && match ? static_cast<int64_t>(got.size()) : -1);
  }
  report->Gate(digest == kTpchDigest, "TPC-H plan digest changed");
  return expected;
}

/// One op: build the iterator tree and drain it. Returns the row count.
int64_t Execute(const TpchInstance& inst, const Compiled& c, SpanLog* log,
                uint64_t id) {
  ScopedSpan op(log, "exec.op", id);
  exec::IteratorPtr it = [&] {
    ScopedSpan span(log, "exec.build", id);
    return exec::BuildIterator(*c.plan, *inst.w.model, inst.db);
  }();
  ScopedSpan drain(log, "exec.drain", id);
  int64_t rows = 0;
  exec::Row row;
  it->Open();
  while (it->Next(&row)) ++rows;
  it->Close();
  return rows;
}

std::vector<size_t> RoundOrder(size_t n, Rng& rng) {
  std::vector<size_t> order(n);
  for (size_t i = 0; i < n; ++i) order[i] = i;
  rng.Shuffle(order);
  return order;
}

constexpr int kTracedSetups = 5;
constexpr int kTracedRounds = 20;

void RunUntraced(const Args& args, Report* report) {
  // One set-up sample before the timed phase and one at each checkpoint, so
  // the samples see the same host conditions as the timed rounds.
  std::vector<double> setup_s;
  auto sample_set_up = [&] {
    SampleSetUp([&] {
      TpchInstance inst;
      TpchSetupTimes t;
      SetUp(args.seed, &inst, &t, nullptr);
      return NsToS(t.model_ns + t.datagen_ns + t.compile_ns);
    }, &setup_s, report);
  };
  sample_set_up();
  auto inst = std::make_unique<TpchInstance>();
  TpchSetupTimes ignored;
  SetUp(args.seed, inst.get(), &ignored, nullptr);
  std::vector<int64_t> expected = CheckPlans(*inst, report);

  Rng rng(args.seed ^ 0x45584543524f554eULL);
  TimedPhase timed(args.seconds);
  while (timed.More()) {
    std::vector<size_t> order = RoundOrder(inst->plans.size(), rng);
    timed.StartRound();
    for (size_t q : order) {
      int64_t rows = expected[q] < 0
                         ? -2
                         : Execute(*inst, inst->plans[q], nullptr, 0);
      timed.OpDone();
      report->Op(rows == expected[q]);
    }
    if (timed.EndRound()) sample_set_up();
  }

  timed.Finish();
  report->Metric("setup_s", Quantile(setup_s, kCalmSetUpQuantile), "s");
  report->Metric("ops_per_s", timed.OpsPerSecond(), "1/s");
  report->Metric("latency_p50_us", timed.P50Us(), "us");
  report->Metric("latency_p90_us", timed.P90Us(), "us");
  report->Metric("plan_cost_sum", inst->totals.cost_sum, "cost");
  report->Metric("peak_rss_mb", PeakRssMb(), "MB");
}

void RunTraced(const Args& args, Report* report) {
  SpanLog log;
  std::vector<double> model_s, datagen_s, compile_us;
  std::unique_ptr<TpchInstance> inst;
  for (int i = 0; i < kTracedSetups; ++i) {
    inst.reset();
    inst = std::make_unique<TpchInstance>();
    TpchSetupTimes t;
    SetUp(args.seed, inst.get(), &t, &log);
    model_s.push_back(NsToS(t.model_ns));
    datagen_s.push_back(NsToS(t.datagen_ns));
    compile_us.push_back(NsToUs(t.compile_ns));
  }
  std::vector<int64_t> expected = CheckPlans(*inst, report);

  // Each query runs untraced and traced back to back, so both sides of
  // trace.overhead_pct see the same host conditions.
  Rng rng(args.seed ^ 0x45584543524f554eULL);
  std::vector<double> untraced_us, traced_us;
  std::vector<std::vector<double>> per_query_us(inst->plans.size());
  int64_t rows_out = 0;
  uint64_t id = 0;
  for (int round = 0; round < kTracedRounds; ++round) {
    for (size_t q : RoundOrder(inst->plans.size(), rng)) {
      if (expected[q] < 0) {
        report->Op(false);
        continue;
      }
      // Alternate which side runs first: the second run finds warm caches.
      bool traced_first = id % 2 == 1;
      int64_t t0 = NowNs();
      int64_t first =
          Execute(*inst, inst->plans[q], traced_first ? &log : nullptr, id);
      int64_t t1 = NowNs();
      int64_t second =
          Execute(*inst, inst->plans[q], traced_first ? nullptr : &log, id);
      int64_t t2 = NowNs();
      int64_t plain = traced_first ? second : first;
      int64_t traced = traced_first ? first : second;
      double traced_op_us = NsToUs(traced_first ? t1 - t0 : t2 - t1);
      untraced_us.push_back(NsToUs(traced_first ? t2 - t1 : t1 - t0));
      traced_us.push_back(traced_op_us);
      per_query_us[q].push_back(traced_op_us);
      rows_out += traced;
      report->Op(plain == expected[q]);
      report->Op(traced == expected[q]);
      ++id;
    }
  }

  report->Metric("exec.build_p50_us", Median(log.DurationsUs("exec.build")),
                 "us");
  report->Metric("exec.drain_p50_us", Median(log.DurationsUs("exec.drain")),
                 "us");
  report->Metric("exec.rows_out", static_cast<double>(rows_out), "count");
  for (size_t q = 0; q < per_query_us.size(); ++q) {
    report->Metric("exec." + inst->w.queries[q].name + "_p50_us",
                   Median(per_query_us[q]), "us");
  }
  std::vector<double> optimize_us = log.DurationsUs("search.optimize");
  report->Metric("search.optimize_p50_us", Quantile(optimize_us, 0.5), "us");
  report->Metric("search.optimize_p90_us", Quantile(optimize_us, 0.9), "us");
  ReportSearchTotals(inst->totals, report);
  report->Metric("search.arena_bytes",
                 static_cast<double>(inst->totals.max_arena_bytes), "bytes");
  report->Metric("setup.model_build_s", Median(model_s), "s");
  report->Metric("exec.datagen_s", Median(datagen_s), "s");
  report->Metric("exec.compile_us", Median(compile_us), "us");
  report->Metric("trace.overhead_pct",
                 (Median(traced_us) / Median(untraced_us) - 1.0) * 100.0, "%");

  log.PrintSummary(stdout);
  if (!args.spans_path.empty()) {
    report->Gate(log.Write(args.spans_path), "cannot write " + args.spans_path);
  }
}

}  // namespace

void RunTpchExec(const Args& args, Report* report) {
  args.trace ? RunTraced(args, report) : RunUntraced(args, report);
}

}  // namespace perfbench
