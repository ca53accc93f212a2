#include "search/search_config.h"

namespace volcano {

namespace {

Status Invalid(const char* knob, const char* why) {
  return Status::InvalidArgument(why).WithDetail("knob", knob);
}

}  // namespace

Status ValidateSearchOptions(const SearchOptions& options) {
  if (options.move_limit < 0) {
    return Invalid("move_limit", "move_limit must be >= 0 (0 = unlimited)");
  }
  if (options.join_seed_threshold < 2) {
    return Invalid("join_seed_threshold",
                   "join_seed_threshold must be >= 2 (a query with fewer "
                   "than three join leaves is never seeded)");
  }
  if (!(options.join_budget_ms > 0.0)) {
    return Invalid("join_budget_ms",
                   "join_budget_ms must be > 0 (the escalation deadline for "
                   "above-threshold joins)");
  }
  if (options.physical_only && options.join_seed) {
    return Invalid("physical_only",
                   "physical_only disables the transformations a join seed "
                   "exists to avoid; enable at most one");
  }
  const bool best_first = options.engine == SearchOptions::Engine::kBestFirst;
  if (options.frontier_limit != 0 && !best_first) {
    return Invalid("frontier_limit",
                   "frontier_limit requires Engine::kBestFirst; no other "
                   "engine keeps a global frontier");
  }
  if (options.memo_byte_limit != 0 && !best_first) {
    return Invalid("memo_byte_limit",
                   "memo_byte_limit requires Engine::kBestFirst; no other "
                   "engine enforces a memo byte cap");
  }
  if (options.frontier_limit != 0 && options.frontier_limit < 8) {
    return Invalid("frontier_limit",
                   "frontier_limit must be 0 (unbounded) or >= 8; a smaller "
                   "frontier cannot hold one goal's fan-out");
  }
  if (options.memo_byte_limit != 0 && options.memo_byte_limit < (128u << 10)) {
    return Invalid("memo_byte_limit",
                   "memo_byte_limit must be 0 (unbounded) or >= 131072; the "
                   "arena's first block plus expansion slack need 128 KiB");
  }
  if (best_first &&
      options.strategy == SearchOptions::Strategy::kInterleaved) {
    return Invalid("strategy",
                   "Engine::kBestFirst implements the kExploreFirst strategy "
                   "only; interleaved transformation moves are not jobified");
  }
  if (best_first && options.glue_properties) {
    return Invalid("glue_properties",
                   "glue_properties is not implemented by the best-first "
                   "engine; use kTask or kRecursive for the glue ablation");
  }
  return Status::OK();
}

StatusOr<SearchConfig> SearchConfig::Builder::Build() const {
  return SearchConfig::FromOptions(options_);
}

StatusOr<SearchConfig> SearchConfig::FromOptions(const SearchOptions& options) {
  Status s = ValidateSearchOptions(options);
  if (!s.ok()) return s;
  return SearchConfig(options);
}

}  // namespace volcano
