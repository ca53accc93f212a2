// Serving-loop tests: response schema, cache hit byte-identity, catalog-bump
// invalidation, admission-control shedding, structured errors, and the
// counter invariants the soak test builds on.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "relational/catalog.h"
#include "relational/query_gen.h"
#include "relational/sql.h"
#include "search/search_config.h"
#include "serve/server.h"
#include "serve/session.h"
#include "support/fault.h"

namespace volcano::serve {
namespace {

void FillCatalog(rel::Catalog* catalog) {
  VOLCANO_CHECK(
      catalog->AddRelation("emp", 500, 100, 3, {500, 40, 10}).ok());
  VOLCANO_CHECK(catalog->AddRelation("dept", 40, 100, 2, {40, 5}).ok());
  VOLCANO_CHECK(catalog->AddRelation("loc", 10, 100, 2, {10, 10}).ok());
}

// The request grid the cache tests replay: each entry optimizes to a
// deterministic plan on the fixture catalog.
const char* const kQueries[] = {
    "SELECT * FROM emp",
    "SELECT * FROM emp WHERE emp.a1 < 10",
    "SELECT * FROM emp WHERE emp.a1 < 10 ORDER BY emp.a2",
    "SELECT * FROM emp, dept WHERE emp.a1 = dept.a0",
    "SELECT * FROM emp, dept WHERE emp.a1 = dept.a0 ORDER BY emp.a1",
    "SELECT * FROM emp, dept, loc "
    "WHERE emp.a1 = dept.a0 AND dept.a1 = loc.a0",
    "SELECT emp.a1, count(*) FROM emp GROUP BY emp.a1",
};

bool Contains(const std::string& s, const std::string& sub) {
  return s.find(sub) != std::string::npos;
}

/// A plan response without its "id" and "cached" fields: what a hit must
/// share byte for byte with the cold response.
std::string StripIdAndCached(std::string s) {
  s = s.substr(s.find(','));  // drop {"id": N
  size_t pos = s.find("\"cached\": ");
  size_t end = s.find_first_of(",}", pos);
  return s.substr(0, pos) + s.substr(end);
}

std::vector<std::string> Lines(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream in(text);
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  return lines;
}

TEST(Serve, PlanResponseSchema) {
  rel::Catalog catalog;
  FillCatalog(&catalog);
  Server server(&catalog);
  std::string resp = server.HandleLine("SELECT * FROM emp");
  EXPECT_TRUE(Contains(resp, "\"ok\": true")) << resp;
  EXPECT_TRUE(Contains(resp, "\"cached\": false")) << resp;
  EXPECT_TRUE(Contains(resp, "\"degraded\": false")) << resp;
  EXPECT_TRUE(Contains(resp, "\"source\": \"exhaustive\"")) << resp;
  EXPECT_TRUE(Contains(resp, "\"algebra\": \"GET[emp]\"")) << resp;
  EXPECT_TRUE(Contains(resp, "\"plan\": ")) << resp;
  EXPECT_TRUE(Contains(resp, "\"cost\": ")) << resp;
}

// A cache hit must be byte-identical to the cold response except for the
// "cached" flag — the contract that makes the cache safe to trust.
TEST(Serve, CacheHitsAreByteIdentical) {
  rel::Catalog catalog;
  FillCatalog(&catalog);
  Server server(&catalog);
  for (const char* sql : kQueries) {
    std::string cold = server.HandleLine(sql);
    std::string warm = server.HandleLine(sql);
    ASSERT_TRUE(Contains(cold, "\"cached\": false")) << cold;
    ASSERT_TRUE(Contains(warm, "\"cached\": true")) << warm;
    // Responses carry distinct ids; normalize id and cached flag.
    EXPECT_EQ(StripIdAndCached(cold), StripIdAndCached(warm)) << sql;
  }
  ServeStats stats = server.stats();
  EXPECT_EQ(stats.cache_hits, std::size(kQueries));
  EXPECT_EQ(stats.cached, std::size(kQueries));
}

// A hit's bytes after the id are rendered once, when the plan is inserted.
// For every TPC-H query the hit must be the cold response with only the id
// and the "cached" flag changed, also after a !bump re-optimizes the query
// at the new version (the stored bytes carry that version).
TEST(Serve, HitBytesAreTheColdResponse) {
  rel::TpchWorkload tpch = rel::MakeTpchWorkload();
  Server server(tpch.catalog.get());
  uint64_t id = 0;
  for (int round = 0; round < 2; ++round) {
    if (round == 1) {
      ASSERT_TRUE(Contains(server.HandleLine("!bump"), "\"admin\": \"bump\""));
      ++id;
    }
    std::string version =
        "\"catalog_version\": " + std::to_string(server.catalog_version());
    for (const rel::TpchQuery& q : tpch.queries) {
      std::string cold = server.HandleLine(q.sql);
      std::string hit = server.HandleLine(q.sql);
      std::string head = "{\"id\": " + std::to_string(++id) + ", ";
      ASSERT_EQ(cold.rfind(head, 0), 0u) << cold;
      ASSERT_TRUE(Contains(cold, version)) << cold;
      std::string want = "{\"id\": " + std::to_string(++id) + ", " +
                         cold.substr(head.size());
      size_t flag = want.find("\"cached\": false");
      ASSERT_NE(flag, std::string::npos) << cold;
      want.replace(flag, 15, "\"cached\": true");
      EXPECT_EQ(hit, want) << q.name;
    }
  }
  ServeStats stats = server.stats();
  EXPECT_EQ(stats.cache_hits, 2 * tpch.queries.size());
  EXPECT_EQ(stats.cache_insertions, 2 * tpch.queries.size());
}

// An idle server answers a hit on the submitting thread, before Submit
// returns; a miss still goes to a worker.
TEST(Serve, IdleHitAnswersOnTheSubmittingThread) {
  rel::Catalog catalog;
  FillCatalog(&catalog);
  Server server(&catalog);
  const std::thread::id caller = std::this_thread::get_id();
  for (const char* sql : kQueries) {
    std::thread::id cold_thread;
    std::string cold;
    server.Submit(sql, [&](std::string r) {
      cold_thread = std::this_thread::get_id();
      cold = std::move(r);
    });
    server.Drain();  // returns after `done` ran
    EXPECT_NE(cold_thread, caller) << sql;
    ASSERT_TRUE(Contains(cold, "\"cached\": false")) << cold;

    std::thread::id warm_thread;
    std::string warm;
    server.Submit(sql, [&](std::string r) {
      warm_thread = std::this_thread::get_id();
      warm = std::move(r);
    });
    server.Drain();  // a no-op when the hit was answered inline
    EXPECT_EQ(warm_thread, caller) << sql;
    ASSERT_TRUE(Contains(warm, "\"cached\": true")) << warm;
    EXPECT_EQ(StripIdAndCached(cold), StripIdAndCached(warm)) << sql;
  }
}

// A request that queues behind others is probed by the worker, after every
// request ahead of it: a bump ahead of a repeat makes the repeat cold.
TEST(Serve, PipelinedBumpAnswersTheRepeatCold) {
  rel::Catalog catalog;
  FillCatalog(&catalog);
  Server server(&catalog);
  const std::string q = "SELECT * FROM emp WHERE emp.a1 < 10";
  server.HandleLine(q);  // cache q at the current version
  const uint64_t v0 = server.catalog_version();
  const std::string v0_field = "\"catalog_version\": " + std::to_string(v0);
  const std::string v1_field =
      "\"catalog_version\": " + std::to_string(v0 + 1);
  // Hold the worker in a request's callback while Serve submits the
  // stream, so all of it queues.
  std::promise<void> release;
  std::shared_future<void> released = release.get_future().share();
  server.Submit("SELECT * FROM emp", [released](std::string) {
    released.wait();
  });
  std::thread releaser([&release] {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    release.set_value();
  });
  std::istringstream in(std::string(kQueries[5]) + "\n" + q + "\n!bump\n" +
                        q + "\n");
  std::ostringstream out;
  ASSERT_EQ(server.Serve(in, out), 4u);
  releaser.join();
  std::vector<std::string> resp = Lines(out.str());
  ASSERT_EQ(resp.size(), 4u) << out.str();  // one worker: FIFO order
  EXPECT_TRUE(Contains(resp[0], "\"cached\": false")) << resp[0];
  EXPECT_TRUE(Contains(resp[1], "\"cached\": true")) << resp[1];
  EXPECT_TRUE(Contains(resp[1], v0_field)) << resp[1];
  EXPECT_TRUE(Contains(resp[2], "\"admin\": \"bump\"")) << resp[2];
  EXPECT_TRUE(Contains(resp[2], v1_field)) << resp[2];
  EXPECT_TRUE(Contains(resp[3], "\"cached\": false")) << resp[3];
  EXPECT_TRUE(Contains(resp[3], v1_field)) << resp[3];
}

// Every SQL request that normalizes probes the cache exactly once — on the
// submitting thread or on the worker, never both — whether it hits, misses
// or fails to parse afterwards.
TEST(Serve, EveryNormalizedRequestProbesOnce) {
  rel::Catalog catalog;
  FillCatalog(&catalog);
  Server server(&catalog);
  std::vector<std::string> stream;
  for (int round = 0; round < 3; ++round) {
    for (const char* sql : kQueries) stream.push_back(sql);
    stream.push_back("SELECT * FROM emp WHERE emp.a1 < " +
                     std::to_string(20 + round));  // a fresh miss
    stream.push_back("SELECT * FROM nowhere");     // normalizes, no parse
    stream.push_back("SELEC * FROM emp");          // normalizes, no parse
    stream.push_back("\x01garbage");               // does not normalize
    stream.push_back("!stats");
    if (round == 1) stream.push_back("!bump");
  }
  uint64_t normalized = 0;
  for (const std::string& line : stream) {
    if (line[0] != '!' && rel::NormalizeSql(line, catalog).ok()) ++normalized;
  }
  // Once request by request (every front half on this thread), once
  // pipelined (most of them queued whole to the worker).
  for (const std::string& line : stream) server.HandleLine(line);
  std::string text;
  for (const std::string& line : stream) text += line + "\n";
  std::istringstream in(text);
  std::ostringstream out;
  server.Serve(in, out);

  ServeStats stats = server.stats();
  EXPECT_EQ(stats.cache_hits + stats.cache_misses, 2 * normalized);
  EXPECT_GT(stats.cache_hits, 0u);
  EXPECT_GT(stats.cache_misses, 0u);
  EXPECT_EQ(stats.requests, 2 * stream.size());
  EXPECT_EQ(stats.ok + stats.errors + stats.shed, stats.requests);
}

// Spelling variants that normalize to the same signature share an entry;
// different constants do not (they change selectivity).
TEST(Serve, SignatureNormalization) {
  rel::Catalog catalog;
  FillCatalog(&catalog);
  Server server(&catalog);
  server.HandleLine("SELECT * FROM emp WHERE emp.a1 < 10");
  std::string variant =
      server.HandleLine("select  *  from emp where emp.a1 < 10");
  EXPECT_TRUE(Contains(variant, "\"cached\": true")) << variant;
  std::string other_constant =
      server.HandleLine("SELECT * FROM emp WHERE emp.a1 < 11");
  EXPECT_TRUE(Contains(other_constant, "\"cached\": false")) << other_constant;
}

TEST(Serve, CatalogBumpInvalidatesCache) {
  rel::Catalog catalog;
  FillCatalog(&catalog);
  Server server(&catalog);
  server.HandleLine("SELECT * FROM emp");
  EXPECT_TRUE(
      Contains(server.HandleLine("SELECT * FROM emp"), "\"cached\": true"));

  uint64_t before = server.catalog_version();
  std::string bump = server.HandleLine("!bump");
  EXPECT_TRUE(Contains(bump, "\"ok\": true")) << bump;
  EXPECT_EQ(server.catalog_version(), before + 1);

  std::string after = server.HandleLine("SELECT * FROM emp");
  EXPECT_TRUE(Contains(after, "\"cached\": false")) << after;
  ServeStats stats = server.stats();
  EXPECT_GE(stats.cache_invalidations, 1u);
  EXPECT_EQ(stats.catalog_bumps, 1u);
  EXPECT_EQ(stats.model_rebuilds, 1u);
}

// A statistics change must invalidate: the plan for the same SQL may change.
TEST(Serve, DistinctUpdateInvalidates) {
  rel::Catalog catalog;
  FillCatalog(&catalog);
  Server server(&catalog);
  server.HandleLine("SELECT * FROM emp WHERE emp.a1 = 3");
  std::string resp = server.HandleLine("!distinct emp.a1 2");
  EXPECT_TRUE(Contains(resp, "\"admin\": \"distinct\"")) << resp;
  std::string after = server.HandleLine("SELECT * FROM emp WHERE emp.a1 = 3");
  EXPECT_TRUE(Contains(after, "\"cached\": false")) << after;

  std::string bad = server.HandleLine("!distinct nosuch.a1 5");
  EXPECT_TRUE(Contains(bad, "\"ok\": false")) << bad;
}

TEST(Serve, StructuredErrorsNeverKillTheLoop) {
  rel::Catalog catalog;
  FillCatalog(&catalog);
  Server server(&catalog);
  struct Case {
    const char* line;
    const char* code;
  } cases[] = {
      {"SELEC * FROM emp", "INVALID_ARGUMENT"},
      {"SELECT * FROM nowhere", "INVALID_ARGUMENT"},
      {"SELECT * FROM emp WHERE emp.bogus = 1", "INVALID_ARGUMENT"},
      {"\x01garbage\x02", "INVALID_ARGUMENT"},
      {"!frobnicate", "INVALID_ARGUMENT"},
      {"!distinct", "INVALID_ARGUMENT"},
  };
  for (const Case& c : cases) {
    std::string resp = server.HandleLine(c.line);
    EXPECT_TRUE(Contains(resp, "\"ok\": false")) << resp;
    EXPECT_TRUE(Contains(resp, c.code)) << resp;
  }
  // The loop survives: a normal request still succeeds afterwards.
  EXPECT_TRUE(
      Contains(server.HandleLine("SELECT * FROM emp"), "\"ok\": true"));
  ServeStats stats = server.stats();
  EXPECT_EQ(stats.errors, std::size(cases));
  EXPECT_EQ(stats.ok + stats.errors + stats.shed, stats.requests);
}

// With the admission cap at zero every request is shed — deterministically
// exercising the OVERLOADED path.
TEST(Serve, AdmissionControlSheds) {
  rel::Catalog catalog;
  FillCatalog(&catalog);
  ServerOptions options;
  options.max_inflight = 0;
  Server server(&catalog, options);
  std::string resp;
  bool accepted =
      server.Submit("SELECT * FROM emp", [&](std::string r) { resp = r; });
  EXPECT_FALSE(accepted);
  EXPECT_TRUE(Contains(resp, "\"shed\": true")) << resp;
  EXPECT_TRUE(Contains(resp, "OVERLOADED")) << resp;
  ServeStats stats = server.stats();
  EXPECT_EQ(stats.shed, 1u);
  EXPECT_EQ(stats.requests, 1u);
}

// Concurrency: many submitters against few workers and a small admission
// cap. Every request must be answered exactly once (ok or shed), and the
// counter invariant must hold.
TEST(Serve, ConcurrentSubmittersAllAnswered) {
  rel::Catalog catalog;
  FillCatalog(&catalog);
  ServerOptions options;
  options.workers = 4;
  options.max_inflight = 8;
  Server server(&catalog, options);

  constexpr int kThreads = 8;
  constexpr int kPerThread = 25;
  std::atomic<int> answered{0};
  std::atomic<int> shed{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        const char* sql = kQueries[(t + i) % std::size(kQueries)];
        bool accepted = server.Submit(sql, [&](std::string r) {
          ++answered;
          if (r.find("\"shed\": true") != std::string::npos) ++shed;
        });
        (void)accepted;
      }
    });
  }
  for (std::thread& t : threads) t.join();
  server.Drain();

  EXPECT_EQ(answered.load(), kThreads * kPerThread);
  ServeStats stats = server.stats();
  EXPECT_EQ(stats.requests, uint64_t(kThreads * kPerThread));
  EXPECT_EQ(stats.ok + stats.errors + stats.shed, stats.requests);
  EXPECT_EQ(stats.shed, uint64_t(shed.load()));
  EXPECT_EQ(stats.errors, 0u);
}

// Degraded plans answer the request but must not enter the cache: a plan
// shaped by one request's budget weather is not the query's plan.
TEST(Serve, DegradedPlansAreNotCached) {
  rel::Catalog catalog;
  FillCatalog(&catalog);
  ServerOptions options;
  options.budget.max_find_best_plan_calls = 1;
  Server server(&catalog, options);
  const char* sql =
      "SELECT * FROM emp, dept, loc "
      "WHERE emp.a1 = dept.a0 AND dept.a1 = loc.a0";
  std::string first = server.HandleLine(sql);
  EXPECT_TRUE(Contains(first, "\"ok\": true")) << first;
  EXPECT_TRUE(Contains(first, "\"degraded\": true")) << first;
  std::string second = server.HandleLine(sql);
  EXPECT_TRUE(Contains(second, "\"cached\": false")) << second;
  ServeStats stats = server.stats();
  EXPECT_EQ(stats.cache_insertions, 0u);
  EXPECT_GE(stats.degraded, 2u);
}

// A plan completed under a tripped exploration cap is exhaustive-source but
// approximate: the search finished, it just never proved optimality. Such a
// response must be degraded — and therefore cache-ineligible — or a later
// uncapped request would be served the capped plan as the catalog-state
// optimum.
TEST(Serve, ExploreCapTrippedPlansAreCacheIneligible) {
  rel::Catalog catalog;
  FillCatalog(&catalog);
  ServerOptions options;
  options.search.explore_limit = 1;  // trips on any multi-join query
  Server server(&catalog, options);
  const char* sql =
      "SELECT * FROM emp, dept, loc "
      "WHERE emp.a1 = dept.a0 AND dept.a1 = loc.a0";
  std::string first = server.HandleLine(sql);
  EXPECT_TRUE(Contains(first, "\"ok\": true")) << first;
  // The cap trips mid-closure but the search completes: still exhaustive-
  // source, yet flagged degraded via the approximate bit.
  EXPECT_TRUE(Contains(first, "\"source\": \"exhaustive\"")) << first;
  EXPECT_TRUE(Contains(first, "\"degraded\": true")) << first;
  std::string second = server.HandleLine(sql);
  EXPECT_TRUE(Contains(second, "\"cached\": false")) << second;
  ServeStats stats = server.stats();
  EXPECT_EQ(stats.cache_insertions, 0u);
  EXPECT_GE(stats.degraded, 2u);
}

// The serve-layer fault injector only perturbs requests; every response is
// still well-formed and accounted.
TEST(Serve, FaultInjectedRequestsStayAccounted) {
  rel::Catalog catalog;
  FillCatalog(&catalog);
  FaultInjector fault({.seed = 7,
                       .request_malform_prob = 0.3,
                       .request_budget_prob = 0.3,
                       .catalog_bump_prob = 0.1});
  ServerOptions options;
  options.fault = &fault;
  Server server(&catalog, options);
  constexpr int kRequests = 200;
  for (int i = 0; i < kRequests; ++i) {
    std::string resp =
        server.HandleLine(kQueries[i % std::size(kQueries)]);
    EXPECT_TRUE(Contains(resp, "\"ok\": ")) << resp;
  }
  ServeStats stats = server.stats();
  EXPECT_EQ(stats.requests, uint64_t(kRequests));
  EXPECT_EQ(stats.ok + stats.errors + stats.shed, stats.requests);
  const FaultInjector::Counters& fc = fault.counters();
  EXPECT_EQ(fc.request_sites, uint64_t(kRequests));
  // The malformed ones surfaced as errors.
  EXPECT_GE(stats.errors, fc.requests_malformed);
  EXPECT_EQ(stats.catalog_bumps, fc.catalog_bumps);
}

TEST(Serve, ServePumpSpeaksTheLineProtocol) {
  rel::Catalog catalog;
  FillCatalog(&catalog);
  Server server(&catalog);
  std::istringstream in(
      "SELECT * FROM emp\n"
      "\n"
      "!stats\n"
      "!quit\n"
      "SELECT * FROM emp\n");  // after !quit: never read
  std::ostringstream out;
  uint64_t served = server.Serve(in, out);
  EXPECT_EQ(served, 2u);  // blank line skipped, !quit terminates
  std::string text = out.str();
  EXPECT_TRUE(Contains(text, "\"plan\": ")) << text;
  EXPECT_TRUE(Contains(text, "\"serve\": ")) << text;
}

}  // namespace
}  // namespace volcano::serve
