// Allocation regression test for the search. A transformation writes its
// result into a buffer the optimizer reuses (rules/rex.h), an incumbent and
// a memoized winner are plan choices in memo storage recycled per query
// (search/plan.h), and Memo::Reset keeps its classes and table capacity, so
// a reused optimizer allocates per new equivalence class and per returned
// plan, not per move or per transformation. A counting global operator new
// pins that down.
//
// The counting operator new forwards to malloc/free, so the test also runs
// under AddressSanitizer.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <string>
#include <utility>
#include <vector>

#include "relational/catalog.h"
#include "relational/query_gen.h"
#include "search/optimizer.h"
#include "search/search_config.h"
#include "search/task_engine.h"
#include "serve/session.h"
#include "support/rng.h"

namespace {

std::atomic<bool> g_counting{false};
std::atomic<uint64_t> g_allocations{0};

}  // namespace

void* operator new(std::size_t n) {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_allocations.fetch_add(1, std::memory_order_relaxed);
  }
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) { return operator new(n); }
// GCC cannot see that these free what the operator new above malloc'ed.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace volcano {
namespace {

/// Counts the heap allocations `fn` makes.
template <typename Fn>
uint64_t CountAllocations(Fn&& fn) {
  g_allocations.store(0);
  g_counting.store(true);
  fn();
  g_counting.store(false);
  return g_allocations.load();
}

// --- a reused serving session --------------------------------------------

constexpr int kRelations = 10;
constexpr int kRounds = 8;

std::string Rel(int k) { return "r" + std::to_string(k); }

/// perfbench's serve_churn catalog: ten relations of 1,200-6,600 tuples,
/// every other one stored sorted on its first attribute.
void BuildCatalog(rel::Catalog* catalog) {
  for (int k = 0; k < kRelations; ++k) {
    const double card = 1200.0 + 600.0 * k;
    StatusOr<Symbol> r =
        catalog->AddRelation(Rel(k), card, 100.0, 3, {card, card / 4.0, 100.0});
    ASSERT_TRUE(r.ok());
    if (k % 2 == 0) {
      ASSERT_TRUE(catalog
                      ->SetSortedOn(*r, {catalog->symbols().Lookup(
                                            Rel(k) + ".a0")})
                      .ok());
    }
  }
}

/// Rounds of serve_churn's 26 request types: chains of 2-8 and stars of
/// 2-7 of the ten relations, each with and without an ORDER BY, one
/// selection with a fresh constant per relation.
std::vector<std::string> ChurnList() {
  Rng rng(20261020);
  std::vector<std::string> list;
  for (int round = 0; round < kRounds; ++round) {
    for (bool star : {false, true}) {
      for (int n = 2; n <= (star ? 7 : 8); ++n) {
        for (bool order_by : {false, true}) {
          std::vector<int> rels(kRelations);
          for (int k = 0; k < kRelations; ++k) rels[k] = k;
          for (int i = kRelations - 1; i > 0; --i) {
            std::swap(rels[i], rels[rng.Uniform(i + 1)]);
          }
          std::string sql = "SELECT * FROM ";
          for (int i = 0; i < n; ++i) sql += (i ? ", " : "") + Rel(rels[i]);
          sql += " WHERE ";
          for (int i = 1; i < n; ++i) {
            sql += star ? Rel(rels[0]) + ".a" + std::to_string(rng.Uniform(2))
                        : Rel(rels[i - 1]) + ".a1";
            sql += " = " + Rel(rels[i]) + ".a0 AND ";
          }
          for (int i = 0; i < n; ++i) {
            sql += (i ? " AND " : "") + Rel(rels[i]) + ".a2 < " +
                   std::to_string(rng.UniformRange(5, 95));
          }
          if (order_by) sql += " ORDER BY " + Rel(rels[rng.Uniform(n)]) + ".a0";
          list.push_back(std::move(sql));
        }
      }
    }
  }
  return list;
}

// Twice the measured average over ChurnList through one reused Session:
// 176.6 allocations per query, most of them parsing the SQL, deriving the
// logical properties of new classes and building and rendering the
// returned plan. The same list made 1,490 per query (1,506 on perfbench's
// serve_churn list) when every transformation built a tree of shared_ptr
// nodes, every improved incumbent a PlanNode, and every query new classes
// and tables: the bound catches any of them coming back.
constexpr double kMaxAllocationsPerQuery = 353.0;

TEST(SearchAllocations, ReusedSessionStaysUnderTheBound) {
  rel::Catalog catalog;
  BuildCatalog(&catalog);
  const std::vector<std::string> list = ChurnList();
  serve::Session session(catalog, SearchConfig::FromOptions({}).value());
  const OptimizationBudget budget;
  // One round warms the session's recycled storage, as a serving worker's
  // first requests do.
  for (size_t i = 0; i < list.size() / kRounds; ++i) {
    ASSERT_TRUE(session.OptimizeSql(list[i], budget, false).status.ok());
  }
  bool all_ok = true;
  const uint64_t allocations = CountAllocations([&] {
    for (const std::string& sql : list) {
      all_ok &= session.OptimizeSql(sql, budget, false).status.ok();
    }
  });
  ASSERT_TRUE(all_ok);
  const double per_query = static_cast<double>(allocations) / list.size();
  std::printf("%zu queries: %.1f allocations per query\n", list.size(),
              per_query);
  EXPECT_LE(per_query, kMaxAllocationsPerQuery);
}

// --- transformations -------------------------------------------------------

/// One pass of the search's transformation step over every class: each
/// transformation rule applied to every binding of every live expression,
/// each result inserted into the matched expression's class. With
/// `fired_masks` a rule fires once per expression and the rules it disables
/// never fire on what it creates, as in the search; without, every rule
/// fires again. Returns how many results the memo inserted; *created counts
/// the new expressions among them.
size_t ApplyRules(Memo& memo, const RuleSet& rules, bool fired_masks,
                  Rex& rex, TaskEngine::Matcher& matcher,
                  std::vector<Binding>& bindings, size_t* created) {
  size_t inserted = 0;
  // Every class ever made is live or merged away (LiveGroups would
  // allocate its answer).
  for (GroupId g = 0; g < memo.num_groups() + memo.num_merges(); ++g) {
    if (memo.Find(g) != g) continue;
    for (size_t i = 0; i < memo.group(g).exprs().size(); ++i) {
      MExpr* m = memo.group(g).exprs()[i];
      if (m->dead()) continue;
      for (RuleId rid : rules.TransformationsFor(m->op())) {
        if (fired_masks) {
          if (m->HasFired(rid)) continue;
          m->MarkFired(rid);
        }
        const TransformationRule& rule = rules.transformation(rid);
        bindings.clear();
        matcher.Start(rule.pattern(), *m, memo, &bindings);
        // The classes as they stand: the caller repeats to a fixpoint.
        while (matcher.Step(memo) ==
               TaskEngine::Matcher::Status::kNeedExplore) {
        }
        for (const Binding& b : bindings) {
          if (!rule.Condition(b, memo)) continue;
          const Rex::Ref root = rule.Apply(b, memo, rex);
          if (root != Rex::kNone) {
            MExpr* made = nullptr;
            memo.InsertRex(rex, root, m->group(), &made);
            ++inserted;
            if (made != nullptr) {
              ++*created;
              if (fired_masks) made->MarkFiredMask(rule.disables());
            }
          }
          rex.Clear();
        }
      }
    }
  }
  return inserted;
}

TEST(SearchAllocations, TransformationsAllocateOnlyForNewClasses) {
  rel::WorkloadOptions wopts;
  wopts.num_relations = 5;
  wopts.join_graph = rel::WorkloadOptions::JoinGraph::kChain;
  wopts.order_by_prob = 1.0;
  rel::Workload w = rel::GenerateWorkload(wopts, 3);
  const RuleSet& rules = w.model->rule_set();
  // Without pruning the search explores every class: the memo ends up
  // closed under the rules.
  SearchOptions options;
  options.branch_and_bound = false;
  Optimizer opt(*w.model, SearchConfig::FromOptions(options).value());
  ASSERT_TRUE(opt.Optimize(*w.query, w.required).ok());
  Memo& memo = opt.memo();
  const size_t closed = memo.num_exprs();

  Rex rex;
  TaskEngine::Matcher matcher;
  std::vector<Binding> bindings;
  size_t created = 0;
  // Warm-up: sizes the buffers and makes the derived arguments.
  ASSERT_GT(ApplyRules(memo, rules, false, rex, matcher, bindings, &created),
            0u);
  ASSERT_EQ(created, 0u);

  // Into a closed memo every result is a duplicate: nothing to allocate.
  size_t inserted = 0;
  const uint64_t duplicates = CountAllocations([&] {
    inserted = ApplyRules(memo, rules, false, rex, matcher, bindings,
                          &created);
  });
  EXPECT_EQ(created, 0u);
  std::printf("%zu transformations into a closed memo: %llu allocations\n",
              inserted, static_cast<unsigned long long>(duplicates));
  EXPECT_GE(inserted, 100u);
  EXPECT_EQ(duplicates, 0u);

  // The same space derived again in the recycled memo: the only heap
  // traffic is each new class's logical properties, which the model
  // allocates (DataModel::DeriveLogicalProps).
  opt.ResetForReuse();
  opt.AddQuery(*w.query);
  const size_t classes_before = memo.num_groups();
  const uint64_t derivation = CountAllocations([&] {
    while (ApplyRules(memo, rules, true, rex, matcher, bindings, &created) >
           0) {
    }
  });
  EXPECT_EQ(memo.num_exprs(), closed);
  ASSERT_EQ(memo.num_merges(), 0u);  // class ids are creation order
  const size_t classes_after = memo.num_groups();
  uint64_t derive = 0;
  std::vector<LogicalPropsPtr> inputs;
  for (GroupId g = static_cast<GroupId>(classes_before); g < classes_after;
       ++g) {
    const MExpr& first = *memo.group(g).exprs().front();
    inputs.clear();
    for (GroupId in : first.inputs()) inputs.push_back(memo.LogicalOf(in));
    derive += CountAllocations([&] {
      w.model->DeriveLogicalProps(first.op(), first.arg().get(), inputs);
    });
  }
  std::printf("%zu new classes: %llu allocations, %llu deriving their "
              "logical properties\n",
              classes_after - classes_before,
              static_cast<unsigned long long>(derivation),
              static_cast<unsigned long long>(derive));
  EXPECT_GT(classes_after, classes_before);
  EXPECT_LE(derivation, derive);
}

}  // namespace
}  // namespace volcano
