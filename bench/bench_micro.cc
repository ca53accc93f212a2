// Micro-benchmarks (google-benchmark): the building blocks of the search —
// memo insertion/deduplication, exploration (transformation closure),
// winner-table probing, symbol interning, and FindBestPlan as a function of
// query size. These are the perf-trajectory benchmarks: tools/bench_report
// runs this suite with --benchmark_format=json and folds the numbers into
// the committed BENCH_<n>.json files.

#include <benchmark/benchmark.h>

#include <string>
#include <vector>

#include "relational/query_gen.h"
#include "search/optimizer.h"
#include "search/search_config.h"
#include "support/intern.h"

namespace volcano {
namespace {

rel::Workload MakeChain(int relations, uint64_t seed) {
  rel::WorkloadOptions wopts;
  wopts.num_relations = relations;
  wopts.join_graph = rel::WorkloadOptions::JoinGraph::kChain;
  wopts.hub_attr_prob = 0.0;
  wopts.sorted_base_prob = 0.5;
  return rel::GenerateWorkload(wopts, seed);
}

void BM_MemoInsertQuery(benchmark::State& state) {
  rel::Workload w = MakeChain(static_cast<int>(state.range(0)), 1);
  for (auto _ : state) {
    Memo memo(*w.model);
    benchmark::DoNotOptimize(memo.InsertQuery(*w.query));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(w.query->TreeSize()));
}
BENCHMARK(BM_MemoInsertQuery)->DenseRange(2, 10, 2);

void BM_MemoDuplicateDetection(benchmark::State& state) {
  // Second insertion of the same tree exercises only the hash-consing path.
  rel::Workload w = MakeChain(static_cast<int>(state.range(0)), 2);
  Memo memo(*w.model);
  memo.InsertQuery(*w.query);
  for (auto _ : state) {
    benchmark::DoNotOptimize(memo.InsertQuery(*w.query));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(w.query->TreeSize()));
}
BENCHMARK(BM_MemoDuplicateDetection)->DenseRange(2, 10, 2);

void BM_Exploration(benchmark::State& state) {
  // Full transformation closure of the root class (no implementation work):
  // insert + optimize with an impossible property so only exploration runs.
  int n = static_cast<int>(state.range(0));
  rel::Workload w = MakeChain(n, 3);
  for (auto _ : state) {
    Optimizer opt(*w.model);
    StatusOr<PlanPtr> plan = opt.Optimize(*w.query, w.required);
    benchmark::DoNotOptimize(plan.ok());
  }
}
BENCHMARK(BM_Exploration)->DenseRange(2, 10, 2)->Unit(benchmark::kMicrosecond);

void BM_FindBestPlanWarmMemo(benchmark::State& state) {
  // Re-optimizing an already-optimized goal measures the pure look-up path
  // ("if the pair LogExpr and PhysProp is in the look-up table ...").
  rel::Workload w = MakeChain(static_cast<int>(state.range(0)), 4);
  Optimizer opt(*w.model);
  GroupId root = opt.AddQuery(*w.query);
  VOLCANO_CHECK(opt.OptimizeGroup(root, w.required).ok());
  for (auto _ : state) {
    benchmark::DoNotOptimize(opt.OptimizeGroup(root, w.required).ok());
  }
}
BENCHMARK(BM_FindBestPlanWarmMemo)->DenseRange(2, 10, 2);

void BM_WinnerProbe(benchmark::State& state) {
  // The raw winner-table probe under a fixed goal: the innermost operation
  // of every FindBestPlan call (and of every memoized-failure cutoff).
  rel::Workload w = MakeChain(6, 4);
  Optimizer opt(*w.model);
  GroupId root = opt.AddQuery(*w.query);
  VOLCANO_CHECK(opt.OptimizeGroup(root, w.required).ok());
  GoalKey key{w.required, nullptr};
  const Memo& memo = opt.memo();
  for (auto _ : state) {
    benchmark::DoNotOptimize(memo.FindWinner(root, key));
  }
}
BENCHMARK(BM_WinnerProbe);

void BM_OptimizeOrderBy(benchmark::State& state) {
  // End-to-end optimization with an ORDER BY requirement (enforcers and
  // excluding property vectors on the hot path).
  int n = static_cast<int>(state.range(0));
  rel::WorkloadOptions wopts;
  wopts.num_relations = n;
  wopts.order_by_prob = 1.0;
  wopts.sorted_base_prob = 0.5;
  rel::Workload w = rel::GenerateWorkload(wopts, 5);
  for (auto _ : state) {
    Optimizer opt(*w.model);
    benchmark::DoNotOptimize(opt.Optimize(*w.query, w.required).ok());
  }
}
BENCHMARK(BM_OptimizeOrderBy)->DenseRange(2, 8, 2)
    ->Unit(benchmark::kMicrosecond);

void BM_OptimizeTraced(benchmark::State& state) {
  // Tracing overhead: the same end-to-end optimization as BM_Exploration's
  // shape with (arg=1) and without (arg=0) a minimal sink attached. The
  // arg=0 row is the null-sink hot path — one pointer test per would-be
  // event — and must stay indistinguishable from an untraced build; the
  // delta to arg=1 is the cost of materializing every event.
  class CountingSink final : public TraceSink {
   public:
    void OnEvent(const TraceEvent& event) override {
      benchmark::DoNotOptimize(&event);
      ++count_;
    }
    uint64_t count() const { return count_; }

   private:
    uint64_t count_ = 0;
  };

  rel::Workload w = MakeChain(6, 3);
  CountingSink sink;
  SearchOptions options;
  if (state.range(0) != 0) options.trace = &sink;
  uint64_t events = 0;
  for (auto _ : state) {
    Optimizer opt(*w.model, SearchConfig::FromOptions(options).value());
    benchmark::DoNotOptimize(opt.Optimize(*w.query, w.required).ok());
  }
  events = sink.count();
  state.counters["events"] = static_cast<double>(
      state.iterations() == 0 ? 0 : events / state.iterations());
}
BENCHMARK(BM_OptimizeTraced)->Arg(0)->Arg(1)
    ->Unit(benchmark::kMicrosecond);

void BM_SymbolIntern(benchmark::State& state) {
  // Hit-path interning with identifiers long enough to defeat the small
  // string optimization: a std::string round-trip per probe shows up here.
  SymbolTable table;
  std::vector<std::string> names;
  for (int i = 0; i < 64; ++i) {
    names.push_back("relation_" + std::to_string(i) + ".attribute_" +
                    std::to_string(i));
  }
  for (const std::string& n : names) table.Intern(n);
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(table.Intern(std::string_view(names[i & 63])));
    ++i;
  }
}
BENCHMARK(BM_SymbolIntern);

void BM_SymbolLookupMiss(benchmark::State& state) {
  // Probing for absent identifiers (the Lookup path used by catalogs and the
  // SQL front end) must not allocate either.
  SymbolTable table;
  for (int i = 0; i < 64; ++i) {
    table.Intern("relation_" + std::to_string(i) + ".attribute_" +
                 std::to_string(i));
  }
  std::vector<std::string> misses;
  for (int i = 0; i < 64; ++i) {
    misses.push_back("relation_" + std::to_string(i) + ".absent_attribute_" +
                     std::to_string(i));
  }
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        table.Lookup(std::string_view(misses[i & 63])).valid());
    ++i;
  }
}
BENCHMARK(BM_SymbolLookupMiss);

}  // namespace
}  // namespace volcano

BENCHMARK_MAIN();
