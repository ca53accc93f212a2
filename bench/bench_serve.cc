// Serving-loop benchmarks (google-benchmark): request throughput and
// latency through the full serve path (normalize -> parse -> cache ->
// optimize -> render), the plan cache's hit speedup, and a QPS / p50 / p99 /
// hit-rate profile over a mixed workload — the numbers recorded in
// BENCH_6.json. Every benchmark runs on wall time (UseRealTime), so
// items_per_second and qps count requests per second of wall clock: the
// submitting thread's CPU time misses the work a worker does for a miss, and
// includes all of it for a hit served on the submitting thread. BENCH_6.json
// predates this and divides by the submitting thread's CPU time. Excluded
// from the bench-smoke CI trajectory (that job runs bench_micro only).

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <string>
#include <vector>

#include "relational/catalog.h"
#include "serve/server.h"

namespace volcano::serve {
namespace {

void FillCatalog(rel::Catalog* catalog) {
  VOLCANO_CHECK(
      catalog->AddRelation("emp", 2000, 100, 3, {2000, 50, 10}).ok());
  VOLCANO_CHECK(catalog->AddRelation("dept", 50, 100, 2, {50, 5}).ok());
  VOLCANO_CHECK(catalog->AddRelation("loc", 10, 100, 2, {10, 10}).ok());
}

const char* const kMix[] = {
    "SELECT * FROM emp",
    "SELECT * FROM emp WHERE emp.a1 < 100",
    "SELECT * FROM emp WHERE emp.a2 = 7 ORDER BY emp.a1",
    "SELECT * FROM emp, dept WHERE emp.a2 = dept.a0",
    "SELECT * FROM emp, dept WHERE emp.a2 = dept.a0 ORDER BY emp.a1",
    "SELECT * FROM emp, dept, loc "
    "WHERE emp.a2 = dept.a0 AND dept.a1 = loc.a0",
    "SELECT emp.a1, count(*) FROM emp GROUP BY emp.a1",
};

/// One cold request end to end (cache disabled): the serving floor.
void BM_ServeRequestCold(benchmark::State& state) {
  rel::Catalog catalog;
  FillCatalog(&catalog);
  ServerOptions options;
  options.cache_capacity = 0;
  Server server(&catalog, options);
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        server.HandleLine(kMix[i++ % std::size(kMix)]));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ServeRequestCold)->UseRealTime();

/// The same mix with the cache on: after the first lap every request hits.
void BM_ServeRequestCached(benchmark::State& state) {
  rel::Catalog catalog;
  FillCatalog(&catalog);
  Server server(&catalog);
  for (const char* sql : kMix) server.HandleLine(sql);  // warm the cache
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        server.HandleLine(kMix[i++ % std::size(kMix)]));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ServeRequestCached)->UseRealTime();

/// The serve profile: a fixed mixed stream (90% repeat traffic, 10%
/// cache-busting constants) through one server; reports QPS, p50/p99
/// request latency, and the cache hit rate as counters.
void BM_ServeMixedProfile(benchmark::State& state) {
  rel::Catalog catalog;
  FillCatalog(&catalog);
  Server server(&catalog);
  std::vector<double> latencies_us;
  uint64_t requests = 0;
  for (auto _ : state) {
    state.PauseTiming();
    std::string line;
    if (requests % 10 == 9) {
      // Unique constant: forced miss (selectivity-bearing signature).
      line = "SELECT * FROM emp WHERE emp.a1 < " +
             std::to_string(100 + requests);
    } else {
      line = kMix[requests % std::size(kMix)];
    }
    auto start = std::chrono::steady_clock::now();
    state.ResumeTiming();
    benchmark::DoNotOptimize(server.HandleLine(std::move(line)));
    state.PauseTiming();
    latencies_us.push_back(
        std::chrono::duration<double, std::micro>(
            std::chrono::steady_clock::now() - start)
            .count());
    ++requests;
    state.ResumeTiming();
  }
  std::sort(latencies_us.begin(), latencies_us.end());
  if (!latencies_us.empty()) {
    state.counters["p50_us"] = latencies_us[latencies_us.size() / 2];
    state.counters["p99_us"] = latencies_us[latencies_us.size() * 99 / 100];
  }
  ServeStats stats = server.stats();
  uint64_t probes = stats.cache_hits + stats.cache_misses;
  state.counters["hit_rate"] =
      probes ? double(stats.cache_hits) / double(probes) : 0.0;
  state.counters["qps"] =
      benchmark::Counter(double(state.iterations()),
                         benchmark::Counter::kIsRate);
}
BENCHMARK(BM_ServeMixedProfile)->UseRealTime();

/// Cache-churn robustness: every 64th request bumps the catalog, forcing
/// invalidation + model rebuilds; measures the serving cost under DDL churn.
void BM_ServeUnderCatalogChurn(benchmark::State& state) {
  rel::Catalog catalog;
  FillCatalog(&catalog);
  Server server(&catalog);
  uint64_t requests = 0;
  for (auto _ : state) {
    if (requests % 64 == 63) server.BumpCatalog();
    benchmark::DoNotOptimize(
        server.HandleLine(kMix[requests % std::size(kMix)]));
    ++requests;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ServeUnderCatalogChurn)->UseRealTime();

}  // namespace
}  // namespace volcano::serve

BENCHMARK_MAIN();
