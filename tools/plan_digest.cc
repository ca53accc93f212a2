// plan_digest: deterministic plan-equivalence fingerprint over the
// query_gen workloads.
//
// Optimizes a fixed grid of generated workloads (chain joins of 2-10
// relations x several seeds, with and without ORDER BY) and prints one line
// per query with the chosen plan and its cost, plus an aggregate FNV-1a
// digest over all lines. Two builds of the optimizer are plan-equivalent iff
// their digests match; the perf-trajectory runner (tools/bench_report) uses
// this to prove that memo-layout work changed no optimization outcome.
//
// Usage:
//   plan_digest [--verbose] [--join-seed] [--tpch]
//
// tests/golden/plan_digest_grid.txt holds the committed output.
// --join-seed turns on greedy incumbent seeding
// (DESIGN.md §12), which is digest-preserving below the escalation
// threshold — the whole grid, so the flag must not change the digest
// either; tools/bench_report --join-scaling enforces this.
//
// --tpch swaps the generated-workload grid for the TPC-H-shaped SQL family
// (query_gen.h), going through ParseSql — so this digest also covers the
// front-end's translation, the unnesting/outer-join rules, and the
// DISTINCT/HAVING paths. It is a separate committed value
// (tests/golden/plan_digest_tpch.txt).
//
// Output (stdout):
//   <lines, only with --verbose>
//   digest: <16 hex digits>
//   queries: <count>
//   tasks_executed: <sum over the queries>
//   mexprs_created: ...
//   mexprs_deduped: ...
//   transformations_applied: ...
//   cost_estimates: ...
//   moves_pruned: ...
//   memo_winner_hits: ...
//
// The digest proves "same plans"; the seven SearchStats sums prove "same
// search work" and, unlike timings, are exact on any host.
// tests/golden/plan_digest_{grid,tpch}.txt pin both.

#include <cstdio>
#include <cstring>
#include <string>
#include <utility>

#include "relational/query_gen.h"
#include "relational/sql.h"
#include "search/optimizer.h"
#include "search/search_config.h"
#include "support/hash.h"

int main(int argc, char** argv) {
  using namespace volcano;
  bool verbose = false;
  bool tpch = false;
  SearchOptions base;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--verbose") == 0) {
      verbose = true;
    } else if (std::strcmp(argv[i], "--tpch") == 0) {
      tpch = true;
    } else if (std::strcmp(argv[i], "--join-seed") == 0) {
      base.join_seed = true;
    } else {
      // An ignored flag would print the default digest under the caller's
      // label, so a mistyped or removed flag is an error.
      std::fprintf(stderr,
                   "plan_digest: unknown argument %s\nusage: plan_digest "
                   "[--verbose] [--join-seed] [--tpch]\n",
                   argv[i]);
      return 2;
    }
  }

  uint64_t digest = 0xcbf29ce484222325ULL;
  int queries = 0;
  SearchStats work;
  auto add_work = [&](const SearchStats& s) {
    work.tasks_executed += s.tasks_executed;
    work.mexprs_created += s.mexprs_created;
    work.mexprs_deduped += s.mexprs_deduped;
    work.transformations_applied += s.transformations_applied;
    work.cost_estimates += s.cost_estimates;
    work.moves_pruned += s.moves_pruned;
    work.memo_winner_hits += s.memo_winner_hits;
  };
  auto print_summary = [&] {
    std::printf("digest: %016llx\n", static_cast<unsigned long long>(digest));
    std::printf("queries: %d\n", queries);
    const std::pair<const char*, uint64_t> counts[] = {
        {"tasks_executed", work.tasks_executed},
        {"mexprs_created", work.mexprs_created},
        {"mexprs_deduped", work.mexprs_deduped},
        {"transformations_applied", work.transformations_applied},
        {"cost_estimates", work.cost_estimates},
        {"moves_pruned", work.moves_pruned},
        {"memo_winner_hits", work.memo_winner_hits},
    };
    for (const auto& [name, value] : counts) {
      std::printf("%s: %llu\n", name, static_cast<unsigned long long>(value));
    }
  };
  auto fold = [&](const std::string& line) {
    for (unsigned char c : line) {
      digest ^= c;
      digest *= 0x100000001b3ULL;
    }
    if (verbose) std::printf("%s\n", line.c_str());
  };

  if (tpch) {
    rel::TpchWorkload tw = rel::MakeTpchWorkload();
    for (const rel::TpchQuery& q : tw.queries) {
      StatusOr<rel::ParsedQuery> parsed =
          rel::ParseSql(q.sql, *tw.model, tw.catalog->symbols());
      std::string line = q.name;
      if (!parsed.ok()) {
        line += " status=" + parsed.status().ToString();
      } else {
        Optimizer opt(*tw.model, SearchConfig::FromOptions(base).value());
        StatusOr<PlanPtr> plan = opt.Optimize(*parsed->expr, parsed->required);
        add_work(opt.stats());
        if (!plan.ok()) {
          line += " status=" + plan.status().ToString();
        } else {
          line += " cost=" + tw.model->cost_model().ToString((*plan)->cost()) +
                  " plan=" + PlanToLine(**plan, tw.model->registry());
        }
      }
      fold(line);
      ++queries;
    }
    print_summary();
    return 0;
  }

  for (int order_by = 0; order_by <= 1; ++order_by) {
    for (int n = 2; n <= 10; ++n) {
      for (uint64_t seed = 1; seed <= 3; ++seed) {
        rel::WorkloadOptions wopts;
        wopts.num_relations = n;
        wopts.join_graph = rel::WorkloadOptions::JoinGraph::kChain;
        wopts.hub_attr_prob = 0.25;
        wopts.sorted_base_prob = 0.5;
        wopts.order_by_prob = order_by ? 1.0 : 0.0;
        rel::Workload w = rel::GenerateWorkload(wopts, seed);

        Optimizer opt(*w.model, SearchConfig::FromOptions(base).value());
        StatusOr<PlanPtr> plan = opt.Optimize(*w.query, w.required);
        add_work(opt.stats());
        std::string line = "n=" + std::to_string(n) +
                           " seed=" + std::to_string(seed) +
                           " order_by=" + std::to_string(order_by);
        if (!plan.ok()) {
          line += " status=" + plan.status().ToString();
        } else {
          line += " cost=" +
                  w.model->cost_model().ToString((*plan)->cost()) + " plan=" +
                  PlanToLine(**plan, w.model->registry());
        }
        fold(line);
        ++queries;
      }
    }
  }

  print_summary();
  return 0;
}
