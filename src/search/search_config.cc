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
