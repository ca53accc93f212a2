// vopt: command-line query optimizer.
//
// Usage:
//   vopt [options] "SQL"
//   vopt [options] --catalog schema.cat "SQL"
//   vopt serve [serve options]
//
// Exit codes (one-shot mode):
//   0  success
//   2  usage error (bad flags, missing SQL, a numeric flag value that is
//      not wholly a number in range, e.g. --max-mexprs 1e6)
//   3  parse / semantic error (malformed SQL, unknown table or column,
//      malformed catalog file)
//   4  budget exhausted under --strict (RESOURCE_EXHAUSTED)
//   5  internal error (anything else)
//
// Serve mode (`vopt serve`) reads line-delimited requests from stdin and
// writes one JSON response per line to stdout until EOF or a `!quit` line
// (see src/serve/server.h for the protocol). Serve options:
//   --catalog FILE       as below
//   --serve-workers N    worker threads (default 1)
//   --max-inflight N     admission cap; excess requests answered OVERLOADED
//   --cache-capacity N   plan-cache entries (0 disables)
//   --timeout-ms/--max-mexprs/--max-calls   per-request budget
//   --stats-in-response  append search stats JSON to cold plan responses
//   --stats-json         print final ServeStats JSON to stdout at shutdown
// Serve mode exits 0 after a clean drain; request-level failures are JSON
// error responses, never process exits.
//
// Options:
//   --catalog FILE   load a catalog description (see below)
//   --dot            print the plan as a Graphviz digraph
//   --memo           dump the memo after optimization
//   --stats          print search-effort counters
//   --stats-json     print effort counters, per-rule metrics, and the
//                    outcome as one JSON object on stdout
//   --explain        print the winning plan's lineage: the chain of
//                    implementation rules and enforcers that produced it,
//                    with per-step costs
//   --trace FILE     write the structured search trace (JSON-lines) to FILE
//                    ('-' = stdout); --trace=FILE also accepted
//   --execute SEED   generate data and run the plan
//   --timeout-ms N   optimization deadline; on expiry the engine returns the
//                    best plan found so far (anytime mode) or a fast
//                    heuristic plan instead of failing
//   --max-mexprs N   memo-expression budget (memory cap), same degradation
//   --max-calls N    FindBestPlan-call budget, same degradation
//   --strict         fail with RESOURCE_EXHAUSTED instead of degrading
//   --fallback       use the EXODUS baseline as a last resort when even the
//                    degradation ladder yields no plan
//   --join-seed=on|off  greedy join-order incumbent seeding (DESIGN.md §12):
//                    a heuristic join order is planned first and its cost
//                    tightens branch-and-bound from the first move; plans
//                    are unchanged wherever the exhaustive search completes
//   --join-threshold=N  joins of more than N relations escalate to the
//                    budgeted big-join mode (deadline + cardinality-guided
//                    move selection + capped exploration, seed as the
//                    guaranteed floor); default 12
//
// A budget trip can also suspend instead of degrading: with
// SearchOptions::suspend_on_trip (library API), the task stack freezes in
// place and Optimizer::Resume() — optionally with a fresh budget — continues
// the search from the exact preemption point.
//
// Catalog description format, one declaration per line ('#' comments):
//   relation <name> <cardinality> <tuple_bytes> <num_attrs>
//   distinct <attr> <count>          # e.g. distinct emp.a1 50
//   sorted <relation> <attr>...      # stored sort order
//
// Without --catalog, a small built-in demo schema (emp, dept) is used.

#include <charconv>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <limits>
#include <memory>
#include <sstream>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "exec/datagen.h"
#include "exec/plan_exec.h"
#include "exodus/fallback.h"
#include "relational/sql.h"
#include "search/dot.h"
#include "search/explain.h"
#include "search/optimizer.h"
#include "search/search_config.h"
#include "search/trace_io.h"
#include "serve/server.h"
#include "support/metrics.h"

namespace {

using namespace volcano;

// Exit codes, documented in the header comment above.
enum ExitCode {
  kExitOk = 0,
  kExitUsage = 2,
  kExitParse = 3,
  kExitBudget = 4,
  kExitInternal = 5,
};

int ExitCodeFor(const Status& status) {
  switch (status.code()) {
    case Status::Code::kOk:
      return kExitOk;
    case Status::Code::kInvalidArgument:
    case Status::Code::kNotFound:
    case Status::Code::kAlreadyExists:
      return kExitParse;
    case Status::Code::kResourceExhausted:
      return kExitBudget;
    default:
      return kExitInternal;
  }
}

// Parses the value of numeric flag `flag` into *out. The whole value must
// be one number in [lo, hi] ("1e6" is not an integer, "abc" is not a
// number); the default range is all of T, except that a floating-point
// value must be finite and not negative. Anything else prints a usage
// error naming the flag and the value and returns false, leaving *out
// untouched.
template <typename T>
bool ParseFlagValue(const char* prog, std::string_view flag,
                    std::string_view value, T* out,
                    T lo = std::is_floating_point_v<T>
                               ? T{0}
                               : std::numeric_limits<T>::min(),
                    T hi = std::numeric_limits<T>::max()) {
  T v{};
  const char* end = value.data() + value.size();
  auto [ptr, ec] = std::from_chars(value.data(), end, v);
  if (ec != std::errc() || ptr != end || !(v >= lo && v <= hi)) {  // NaN too
    std::fprintf(stderr, "%s: invalid value '%.*s' for %.*s\n", prog,
                 static_cast<int>(value.size()), value.data(),
                 static_cast<int>(flag.size()), flag.data());
    return false;
  }
  *out = v;
  return true;
}

// Splits "--name=value" at the '=': true, with *value set, when `arg`
// starts with `prefix` ("--name=").
bool FlagWithValue(std::string_view arg, std::string_view prefix,
                   std::string_view* value) {
  if (arg.substr(0, prefix.size()) != prefix) return false;
  *value = arg.substr(prefix.size());
  return true;
}

Status LoadCatalog(const std::string& path, rel::Catalog* catalog) {
  std::ifstream in(path);
  if (!in) return Status::NotFound("cannot open catalog file " + path);

  // First pass collects relations; distinct/sorted lines may appear in any
  // order after their relation.
  std::string line;
  int lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    std::istringstream ls(line);
    std::string kind;
    if (!(ls >> kind) || kind[0] == '#') continue;
    auto fail = [&](const std::string& msg) {
      return Status::InvalidArgument(path + ":" + std::to_string(lineno) +
                                     ": " + msg);
    };
    if (kind == "relation") {
      std::string name;
      double card, bytes;
      int nattrs;
      if (!(ls >> name >> card >> bytes >> nattrs)) {
        return fail("expected: relation <name> <card> <bytes> <num_attrs>");
      }
      StatusOr<Symbol> r = catalog->AddRelation(name, card, bytes, nattrs);
      if (!r.ok()) return fail(r.status().message());
    } else if (kind == "distinct") {
      std::string attr;
      double count;
      if (!(ls >> attr >> count)) {
        return fail("expected: distinct <attr> <count>");
      }
      Symbol sym = catalog->symbols().Lookup(attr);
      if (!catalog->RelationOf(sym).valid()) {
        return fail("unknown attribute " + attr);
      }
      Status s = catalog->SetDistinct(sym, count);
      if (!s.ok()) return fail(s.message());
    } else if (kind == "sorted") {
      std::string relname;
      if (!(ls >> relname)) return fail("expected: sorted <relation> <attr>+");
      Symbol rel = catalog->symbols().Lookup(relname);
      if (!rel.valid()) return fail("unknown relation " + relname);
      std::vector<Symbol> order;
      std::string attr;
      while (ls >> attr) {
        Symbol sym = catalog->symbols().Lookup(attr);
        if (!sym.valid()) return fail("unknown attribute " + attr);
        order.push_back(sym);
      }
      Status s = catalog->SetSortedOn(rel, order);
      if (!s.ok()) return fail(s.message());
    } else {
      return fail("unknown declaration '" + kind + "'");
    }
  }
  return Status::OK();
}

void BuiltinCatalog(rel::Catalog* catalog) {
  VOLCANO_CHECK(catalog->AddRelation("emp", 2000, 100, 3).ok());
  VOLCANO_CHECK(catalog->AddRelation("dept", 50, 100, 2).ok());
  VOLCANO_CHECK(catalog
                    ->SetSortedOn(catalog->symbols().Lookup("emp"),
                                  {catalog->symbols().Lookup("emp.a1")})
                    .ok());
}

int RunServe(int argc, char** argv) {
  constexpr const char* kServe = "vopt serve";
  std::string catalog_path;
  bool stats_json = false;
  serve::ServerOptions options;
  for (int i = 2; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--catalog" && i + 1 < argc) {
      catalog_path = argv[++i];
    } else if (arg == "--serve-workers" && i + 1 < argc) {
      if (!ParseFlagValue(kServe, arg, argv[++i], &options.workers, 1))
        return kExitUsage;
    } else if (arg == "--max-inflight" && i + 1 < argc) {
      if (!ParseFlagValue(kServe, arg, argv[++i], &options.max_inflight))
        return kExitUsage;
    } else if (arg == "--cache-capacity" && i + 1 < argc) {
      if (!ParseFlagValue(kServe, arg, argv[++i], &options.cache_capacity))
        return kExitUsage;
    } else if (arg == "--timeout-ms" && i + 1 < argc) {
      if (!ParseFlagValue(kServe, arg, argv[++i], &options.budget.timeout_ms))
        return kExitUsage;
    } else if (arg == "--max-mexprs" && i + 1 < argc) {
      if (!ParseFlagValue(kServe, arg, argv[++i], &options.budget.max_mexprs))
        return kExitUsage;
    } else if (arg == "--max-calls" && i + 1 < argc) {
      if (!ParseFlagValue(kServe, arg, argv[++i],
                          &options.budget.max_find_best_plan_calls))
        return kExitUsage;
    } else if (arg == "--stats-in-response") {
      options.stats_in_response = true;
    } else if (arg == "--stats-json") {
      stats_json = true;
    } else {
      std::fprintf(stderr, "vopt serve: unknown option %s\n", arg.c_str());
      return kExitUsage;
    }
  }

  rel::Catalog catalog;
  if (!catalog_path.empty()) {
    Status s = LoadCatalog(catalog_path, &catalog);
    if (!s.ok()) {
      std::fprintf(stderr, "vopt serve: %s\n", s.ToString().c_str());
      return ExitCodeFor(s);
    }
  } else {
    BuiltinCatalog(&catalog);
  }

  serve::Server server(&catalog, options);
  server.Serve(std::cin, std::cout);
  if (stats_json) {
    std::printf("%s\n", server.stats().ToJson().c_str());
  }
  return kExitOk;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc > 1 && std::string(argv[1]) == "serve") {
    return RunServe(argc, argv);
  }
  std::string catalog_path;
  std::string sql;
  bool dot = false, memo = false, stats = false, execute = false;
  bool strict = false, fallback = false;
  bool stats_json = false, explain = false;
  std::string trace_path;
  uint64_t seed = 1;
  volcano::SearchOptions search_options;

  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    std::string_view value;
    if (arg == "--catalog" && i + 1 < argc) {
      catalog_path = argv[++i];
    } else if (arg == "--dot") {
      dot = true;
    } else if (arg == "--memo") {
      memo = true;
    } else if (arg == "--stats") {
      stats = true;
    } else if (arg == "--stats-json") {
      stats_json = true;
    } else if (arg == "--explain") {
      explain = true;
    } else if (arg == "--trace" && i + 1 < argc) {
      trace_path = argv[++i];
    } else if (FlagWithValue(arg, "--trace=", &value)) {
      trace_path = value;
    } else if (arg == "--execute" && i + 1 < argc) {
      execute = true;
      if (!ParseFlagValue("vopt", arg, argv[++i], &seed)) return kExitUsage;
    } else if (arg == "--timeout-ms" && i + 1 < argc) {
      if (!ParseFlagValue("vopt", arg, argv[++i],
                          &search_options.budget.timeout_ms))
        return kExitUsage;
    } else if (arg == "--max-mexprs" && i + 1 < argc) {
      if (!ParseFlagValue("vopt", arg, argv[++i],
                          &search_options.budget.max_mexprs))
        return kExitUsage;
    } else if (arg == "--max-calls" && i + 1 < argc) {
      if (!ParseFlagValue("vopt", arg, argv[++i],
                          &search_options.budget.max_find_best_plan_calls))
        return kExitUsage;
    } else if (arg == "--strict") {
      strict = true;
      search_options.degradation =
          volcano::SearchOptions::Degradation::kStrict;
    } else if (arg == "--fallback") {
      fallback = true;
    } else if (arg == "--join-seed=on") {
      search_options.join_seed = true;
    } else if (arg == "--join-seed=off") {
      search_options.join_seed = false;
    } else if (FlagWithValue(arg, "--join-threshold=", &value)) {
      if (!ParseFlagValue("vopt", "--join-threshold", value,
                          &search_options.join_seed_threshold))
        return kExitUsage;
    } else if (!arg.empty() && arg[0] == '-') {
      std::fprintf(stderr, "vopt: unknown option %s\n", arg.c_str());
      return 2;
    } else {
      sql = arg;
    }
  }
  if (sql.empty()) {
    std::fprintf(stderr,
                 "usage: vopt [--catalog FILE] [--dot] [--memo] [--stats] "
                 "[--stats-json] [--explain] [--trace FILE] "
                 "[--execute SEED] [--timeout-ms N] [--max-mexprs N] "
                 "[--max-calls N] [--strict] [--fallback] "
                 "[--join-seed=on|off] [--join-threshold=N] \"SQL\"\n");
    return 2;
  }
  if (strict && fallback) {
    std::fprintf(stderr, "vopt: --strict and --fallback are exclusive\n");
    return 2;
  }

  volcano::rel::Catalog catalog;
  if (!catalog_path.empty()) {
    volcano::Status s = LoadCatalog(catalog_path, &catalog);
    if (!s.ok()) {
      std::fprintf(stderr, "vopt: %s\n", s.ToString().c_str());
      return ExitCodeFor(s);
    }
  } else {
    BuiltinCatalog(&catalog);
  }

  volcano::rel::RelModel model(catalog);
  volcano::StatusOr<volcano::rel::ParsedQuery> parsed =
      volcano::rel::ParseSql(sql, model, catalog.symbols());
  if (!parsed.ok()) {
    std::fprintf(stderr, "vopt: %s\n", parsed.status().ToString().c_str());
    return ExitCodeFor(parsed.status());
  }
  std::printf("algebra: %s\n", model.ExprToString(*parsed->expr).c_str());
  std::printf("required: %s\n", parsed->required->ToString().c_str());

  // The trace sink must outlive the optimizer (the memo holds a pointer).
  std::unique_ptr<std::ofstream> trace_file;
  std::unique_ptr<volcano::JsonTraceSink> trace_sink;
  if (!trace_path.empty()) {
#if !VOLCANO_TRACE_COMPILED_IN
    std::fprintf(stderr,
                 "vopt: built with -DVOLCANO_TRACE=OFF; --trace will emit "
                 "no events\n");
#endif
    if (trace_path == "-") {
      trace_sink = std::make_unique<volcano::JsonTraceSink>(std::cout);
    } else {
      trace_file = std::make_unique<std::ofstream>(trace_path);
      if (!*trace_file) {
        std::fprintf(stderr, "vopt: cannot open trace file %s\n",
                     trace_path.c_str());
        return kExitInternal;
      }
      trace_sink = std::make_unique<volcano::JsonTraceSink>(*trace_file);
    }
    search_options.trace = trace_sink.get();
  }

  volcano::StatusOr<volcano::SearchConfig> config =
      volcano::SearchConfig::FromOptions(search_options);
  if (!config.ok()) {
    std::fprintf(stderr, "vopt: %s\n", config.status().ToString().c_str());
    return 2;
  }
  volcano::Optimizer optimizer(model, *config);
  volcano::OptimizeOutcome outcome;
  volcano::StatusOr<volcano::PlanPtr> plan =
      fallback ? volcano::exodus::OptimizeWithFallback(
                     model, *parsed->expr, parsed->required, search_options,
                     &outcome)
               : optimizer.Optimize(*parsed->expr, parsed->required);
  if (!fallback) outcome = optimizer.outcome();
  if (!plan.ok()) {
    std::fprintf(stderr, "vopt: %s\n", plan.status().ToString().c_str());
    return ExitCodeFor(plan.status());
  }
  if (outcome.approximate) {
    std::printf("note: approximate plan (%s)\n", outcome.ToString().c_str());
  }
  std::printf("\nplan:\n%s",
              PlanToString(**plan, model.registry(), model.cost_model())
                  .c_str());

  if (dot) {
    std::printf("\n%s",
                PlanToDot(**plan, model.registry(), model.cost_model())
                    .c_str());
  }
  if (memo) {
    std::printf("\nmemo:\n%s", optimizer.memo().ToString().c_str());
  }
  if (explain) {
    std::printf("\n%s",
                ExplainPlan(**plan, model.registry(), model.cost_model())
                    .c_str());
  }
  if (stats) {
    std::printf("\nsearch effort:\n%s\n",
                optimizer.stats().ToString().c_str());
  }
  if (stats_json) {
    // In --fallback mode the plan may come from an internal optimizer whose
    // counters are not visible here; the outcome still reports provenance.
    std::printf("\n{\"stats\": %s, \"outcome\": %s, \"metrics\": %s}\n",
                optimizer.stats().ToJson().c_str(),
                outcome.ToJson().c_str(),
                MetricsToJson(optimizer.metrics()).c_str());
  }
  if (execute) {
    volcano::exec::Database db = volcano::exec::GenerateDatabase(catalog,
                                                                 seed);
    std::vector<volcano::exec::Row> rows =
        volcano::exec::ExecutePlan(**plan, model, db);
    std::printf("\nexecuted: %zu rows\n", rows.size());
    for (size_t i = 0; i < rows.size() && i < 10; ++i) {
      for (size_t j = 0; j < rows[i].size(); ++j) {
        std::printf("%s%lld", j ? "\t" : "", (long long)rows[i][j]);
      }
      std::printf("\n");
    }
    if (rows.size() > 10) std::printf("... (%zu more)\n", rows.size() - 10);
  }
  return 0;
}
