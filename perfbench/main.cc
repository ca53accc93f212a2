// perfbench: the repository benchmark program.
//
//   perfbench --workload serve_hot|serve_churn|tpch_exec --seed N
//             --seconds S --trace 0|1 [--spans PATH]
//
// Untraced (--trace 0): set up several times, run the closed loop for S
// seconds, check every response, and print the end-to-end metrics. Traced
// (--trace 1): replay a fixed, seed-determined number of requests with a
// span around each public call, and print the per-layer metrics. The last
// line of standard output is the JSON result; see README.md.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "harness.h"

namespace perfbench {
namespace {

constexpr const char* kEndToEnd[] = {
    "setup_s",        "ops_per_s",    "latency_p50_us",
    "latency_p90_us", "plan_cost_sum", "peak_rss_mb",
};

struct LayerMetric {
  const char* name;
  const char* unit;
};

// Every per-layer metric of the traced run. A workload that does not touch
// a layer reports 0 for its metrics (README.md lists which apply where).
constexpr LayerMetric kPerLayer[] = {
    {"serve.handoff_p50_us", "us"},
    {"serve.worker_p50_us", "us"},
    {"serve.return_p50_us", "us"},
    {"sql.normalize_p50_us", "us"},
    {"sql.parse_p50_us", "us"},
    {"cache.probe_p50_us", "us"},
    {"cache.hit_ratio", "ratio"},
    {"cache.invalidations", "count"},
    {"session.rebuilds", "count"},
    {"session.rebuild_p50_us", "us"},
    {"search.optimize_p50_us", "us"},
    {"search.optimize_p90_us", "us"},
    {"search.mexprs_created", "count"},
    {"search.tasks_executed", "count"},
    {"search.cost_estimates", "count"},
    {"search.transformations_applied", "count"},
    {"search.moves_pruned", "count"},
    {"search.memo_winner_hits", "count"},
    {"search.prune_ratio", "ratio"},
    {"search.arena_bytes", "bytes"},
    {"exec.build_p50_us", "us"},
    {"exec.drain_p50_us", "us"},
    {"exec.rows_out", "count"},
    {"exec.q01_p50_us", "us"},
    {"exec.q02_p50_us", "us"},
    {"exec.q03_p50_us", "us"},
    {"exec.q04_p50_us", "us"},
    {"exec.q05_p50_us", "us"},
    {"exec.q06_p50_us", "us"},
    {"exec.q07_p50_us", "us"},
    {"exec.q08_p50_us", "us"},
    {"exec.q09_p50_us", "us"},
    {"exec.q10_p50_us", "us"},
    {"exec.q11_p50_us", "us"},
    {"exec.q12_p50_us", "us"},
    {"exec.q13_p50_us", "us"},
    {"exec.q14_p50_us", "us"},
    {"exec.q15_p50_us", "us"},
    {"setup.model_build_s", "s"},
    {"setup.server_start_s", "s"},
    {"setup.warmup_s", "s"},
    {"exec.datagen_s", "s"},
    {"exec.compile_us", "us"},
    {"trace.overhead_pct", "%"},
};

int Usage(const char* msg) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "serve_hot|serve_churn|tpch_exec --seed N --seconds S "
               "--trace 0|1 [--spans PATH]\n",
               msg);
  return 2;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Args args;
  for (int i = 1; i < argc; ++i) {
    if (i + 1 >= argc) return Usage("missing flag value");
    const char* flag = argv[i];
    const char* value = argv[++i];
    if (std::strcmp(flag, "--workload") == 0) {
      args.workload = value;
    } else if (std::strcmp(flag, "--seed") == 0) {
      args.seed = std::strtoull(value, nullptr, 10);
    } else if (std::strcmp(flag, "--seconds") == 0) {
      args.seconds = std::strtod(value, nullptr);
    } else if (std::strcmp(flag, "--trace") == 0) {
      args.trace = std::strcmp(value, "1") == 0;
    } else if (std::strcmp(flag, "--spans") == 0) {
      args.spans_path = value;
    } else {
      return Usage("unknown flag");
    }
  }
  if (args.seconds <= 0.0) return Usage("--seconds must be positive");

  Report report;
  if (args.workload == "serve_hot") {
    RunServeHot(args, &report);
  } else if (args.workload == "serve_churn") {
    RunServeChurn(args, &report);
  } else if (args.workload == "tpch_exec") {
    RunTpchExec(args, &report);
  } else {
    return Usage("unknown workload");
  }
  if (report.attempted == 0) report.Gate(false, "no op was attempted");

  if (args.trace) {
    for (const LayerMetric& m : kPerLayer) {
      if (!report.Has(m.name)) report.Metric(m.name, 0.0, m.unit);
    }
  } else {
    for (const char* name : kEndToEnd) {
      report.Gate(report.Has(name), std::string("missing metric ") + name);
    }
  }
  std::printf("%s\n", report.Json().c_str());
  return 0;
}
