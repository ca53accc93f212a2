#include "serve/plan_cache.h"

#include "support/hash.h"

namespace volcano::serve {

size_t PlanCache::KeyHash::operator()(const KeyView& k) const {
  return HashCombine(HashCombine(HashString(k.signature), k.version),
                     HashString(k.required));
}

std::optional<std::string> PlanCache::Lookup(std::string_view signature,
                                             uint64_t catalog_version,
                                             std::string_view required,
                                             std::string_view prefix) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = index_.find(KeyView{signature, catalog_version, required});
  if (it == index_.end()) {
    ++stats_.misses;
    return std::nullopt;
  }
  ++stats_.hits;
  lru_.splice(lru_.begin(), lru_, it->second);  // refresh recency
  const std::string& hit = it->second->hit;
  std::string out;
  out.reserve(prefix.size() + hit.size());
  out.append(prefix).append(hit);
  return out;
}

void PlanCache::Insert(std::string_view signature, uint64_t catalog_version,
                       std::string_view required, CachedPlan plan) {
  if (capacity_ == 0) return;
  std::lock_guard<std::mutex> lock(mu_);
  auto it = index_.find(KeyView{signature, catalog_version, required});
  if (it != index_.end()) {
    it->second->hit = std::move(plan.hit);
    lru_.splice(lru_.begin(), lru_, it->second);
    return;
  }
  lru_.push_front(Entry{std::string(signature), catalog_version,
                        std::string(required), std::move(plan.hit)});
  index_.emplace(lru_.front().key(), lru_.begin());
  ++stats_.insertions;
  while (lru_.size() > capacity_) {
    index_.erase(lru_.back().key());
    lru_.pop_back();
    ++stats_.evictions;
  }
}

size_t PlanCache::InvalidateOlderThan(uint64_t version) {
  std::lock_guard<std::mutex> lock(mu_);
  size_t dropped = 0;
  for (auto it = lru_.begin(); it != lru_.end();) {
    if (it->version < version) {
      index_.erase(it->key());
      it = lru_.erase(it);
      ++dropped;
    } else {
      ++it;
    }
  }
  stats_.invalidations += dropped;
  return dropped;
}

void PlanCache::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  index_.clear();
  lru_.clear();
}

size_t PlanCache::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return lru_.size();
}

PlanCache::Stats PlanCache::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

}  // namespace volcano::serve
