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
// Values are rendered bytes, not live PlanNode pointers: a PlanNode borrows
// rule-name storage from its model's RuleSet, and sessions rebuild their
// models on catalog changes, so bytes leave no dangling lifetime edge. The
// server renders a hit response's bytes after its "id" member once, when it
// inserts the plan: with the catalog version in the key, every one of those
// bytes is fixed for the entry's life. A hit is then the id plus one copy
// of the stored bytes, made under the cache lock, with no JSON escaping,
// and byte-identical to the cold response apart from "cached" by
// construction (the server renders both through one function). Only
// exhaustive (optimal) plans are cached: a degraded plan reflects the budget
// weather of one request, not the query.
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
#include <string_view>
#include <unordered_map>

namespace volcano::serve {

/// A cache entry. The cache keeps and serves only `hit`, which the server
/// renders from a cold plan before it inserts. The four renderings describe
/// the plan for callers that insert without serving hits; the cache drops
/// them.
struct CachedPlan {
  std::string algebra;   ///< logical algebra rendering of the parsed query
  std::string required;  ///< required physical properties (goal component)
  std::string plan;      ///< one-line physical plan (PlanToLine)
  std::string cost;      ///< cost-model rendering of the plan cost
  /// The hit response after its "id" member, through the closing brace.
  std::string hit = {};
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
  /// miss and refreshes LRU recency on hit. A hit returns `prefix` followed
  /// by the entry's `hit` bytes, built in one allocation. A probe builds no
  /// key.
  std::optional<std::string> Lookup(std::string_view signature,
                                    uint64_t catalog_version,
                                    std::string_view required,
                                    std::string_view prefix = {});

  /// Inserts (or overwrites) an entry, evicting the least-recently-used one
  /// when over capacity.
  void Insert(std::string_view signature, uint64_t catalog_version,
              std::string_view required, CachedPlan plan);

  /// Drops every entry whose catalog version is older than `version` and
  /// counts them as invalidations. Stale entries can never hit (the version
  /// is part of the key) — the sweep exists to bound memory and to make
  /// invalidation observable in the counters.
  size_t InvalidateOlderThan(uint64_t version);

  void Clear();

  size_t size() const;
  Stats stats() const;

 private:
  /// A key by reference: a probe's arguments, or the strings of the entry
  /// that owns it (list nodes never move, so the views stay valid).
  struct KeyView {
    std::string_view signature;
    uint64_t version;
    std::string_view required;
    bool operator==(const KeyView&) const = default;
  };
  struct KeyHash {
    size_t operator()(const KeyView& k) const;
  };
  struct Entry {
    std::string signature;
    uint64_t version;
    std::string required;
    std::string hit;
    KeyView key() const { return {signature, version, required}; }
  };
  using LruList = std::list<Entry>;

  mutable std::mutex mu_;
  size_t capacity_;
  LruList lru_;  // front = most recently used
  std::unordered_map<KeyView, LruList::iterator, KeyHash> index_;
  Stats stats_;
};

}  // namespace volcano::serve

#endif  // VOLCANO_SERVE_PLAN_CACHE_H_
