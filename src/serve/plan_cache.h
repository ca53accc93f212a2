// Cross-query plan cache.
//
// Plan caching is the single most load-bearing mechanism in production
// optimizers serving high QPS ("Query Optimization in the Wild"): most
// workloads repeat a small set of query shapes, and a cached winner skips
// the whole memo search. The key is
//
//   (normalized query signature, catalog version, required-props goal)
//
// where the signature is rel::NormalizeSql's canonical token string (so
// whitespace/keyword-case variants share an entry) and the catalog version is
// the epoch of rel::Catalog at optimization time (so any schema/statistics
// change observably invalidates every plan derived from the old state). The
// server keys on (signature, version) alone and passes an empty required-
// props component: texts with equal signatures parse to identical algebra
// and required properties, so the signature already fixes the goal, and a
// probe needs no parse. Callers that key on a parse's required properties
// pass their rendering.
//
// Values are fully-rendered response fields, not live PlanNode pointers: a
// PlanNode borrows rule-name storage from its model's RuleSet, and sessions
// rebuild their models on catalog changes — caching strings makes a hit
// byte-identical to the cold response by construction and leaves no dangling
// lifetime edge. Only exhaustive (optimal) plans are cached: a degraded plan
// reflects the budget weather of one request, not the query.
//
// Thread-safe; all operations take an internal mutex. Capacity-bounded with
// LRU eviction.

#ifndef VOLCANO_SERVE_PLAN_CACHE_H_
#define VOLCANO_SERVE_PLAN_CACHE_H_

#include <cstdint>
#include <list>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>

namespace volcano::serve {

/// The cached, fully-rendered result of one cold optimization.
struct CachedPlan {
  std::string algebra;   ///< logical algebra rendering of the parsed query
  std::string required;  ///< required physical properties (goal component)
  std::string plan;      ///< one-line physical plan (PlanToLine)
  std::string cost;      ///< cost-model rendering of the plan cost
};

class PlanCache {
 public:
  struct Stats {
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t insertions = 0;
    uint64_t invalidations = 0;  ///< dropped because their version went stale
    uint64_t evictions = 0;      ///< dropped by LRU capacity pressure
  };

  /// `capacity` = max entries; 0 disables the cache (every lookup misses,
  /// every insert is dropped).
  explicit PlanCache(size_t capacity) : capacity_(capacity) {}

  PlanCache(const PlanCache&) = delete;
  PlanCache& operator=(const PlanCache&) = delete;

  /// Looks up (signature, catalog version, required props); counts a hit or
  /// miss and refreshes LRU recency on hit.
  std::optional<CachedPlan> Lookup(const std::string& signature,
                                   uint64_t catalog_version,
                                   const std::string& required);

  /// Inserts (or overwrites) an entry, evicting the least-recently-used one
  /// when over capacity.
  void Insert(const std::string& signature, uint64_t catalog_version,
              const std::string& required, CachedPlan plan);

  /// Drops every entry whose catalog version is older than `version` and
  /// counts them as invalidations. Stale entries can never hit (the version
  /// is part of the key) — the sweep exists to bound memory and to make
  /// invalidation observable in the counters.
  size_t InvalidateOlderThan(uint64_t version);

  void Clear();

  size_t size() const;
  Stats stats() const;

 private:
  struct Entry {
    std::string key;
    uint64_t version;
    CachedPlan plan;
  };
  using LruList = std::list<Entry>;

  static std::string MakeKey(const std::string& signature,
                             uint64_t catalog_version,
                             const std::string& required);

  mutable std::mutex mu_;
  size_t capacity_;
  LruList lru_;  // front = most recently used
  std::unordered_map<std::string, LruList::iterator> index_;
  Stats stats_;
};

}  // namespace volcano::serve

#endif  // VOLCANO_SERVE_PLAN_CACHE_H_
