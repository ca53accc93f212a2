// Validated search configuration.
//
// SearchOptions has one knob per search choice — strategy, suspend-on-trip,
// budgets, degradation, join seeding — and with them come cross-knob
// invariants ("physical_only excludes join_seed") that would otherwise live
// in comments or be silently ignored. The SearchConfig
// builder makes those invariants construction-time Status errors: a
// SearchConfig that exists is valid by construction, and the Optimizer
// constructor taking one cannot be misconfigured.
//
// SearchConfig wraps the plain SearchOptions struct rather than replacing
// it: `options()` hands the validated struct to the engine unchanged, and
// `SearchConfig::FromOptions` validates a plain struct in one call.

#ifndef VOLCANO_SEARCH_SEARCH_CONFIG_H_
#define VOLCANO_SEARCH_SEARCH_CONFIG_H_

#include <cstddef>
#include <utility>

#include "search/search_options.h"
#include "support/budget.h"
#include "support/status.h"

namespace volcano {

/// Checks the cross-knob invariants a raw SearchOptions can violate. OK iff
/// the combination is one the engine actually implements:
///  * move_limit must be >= 0;
///  * join_seed_threshold must be >= 2 and join_budget_ms > 0;
///  * physical_only and join_seed are exclusive.
Status ValidateSearchOptions(const SearchOptions& options);

/// An immutable, validated search configuration. Only obtainable through
/// Builder::Build() or FromOptions(), both of which run
/// ValidateSearchOptions — holding a SearchConfig is proof of validity.
class SearchConfig {
 public:
  /// Fluent builder; setter order is free, validation happens once in
  /// Build(). Defaults are SearchOptions' defaults (the paper's measured
  /// configuration).
  class Builder {
   public:
    Builder& strategy(SearchOptions::Strategy v) {
      options_.strategy = v;
      return *this;
    }
    Builder& suspend_on_trip(bool v) {
      options_.suspend_on_trip = v;
      return *this;
    }
    Builder& branch_and_bound(bool v) {
      options_.branch_and_bound = v;
      return *this;
    }
    Builder& memoize_winners(bool v) {
      options_.memoize_winners = v;
      return *this;
    }
    Builder& explore_limit(size_t v) {
      options_.explore_limit = v;
      return *this;
    }
    Builder& move_limit(int v) {
      options_.move_limit = v;
      return *this;
    }
    Builder& glue_properties(bool v) {
      options_.glue_properties = v;
      return *this;
    }
    Builder& max_mexprs(size_t v) {
      options_.max_mexprs = v;
      return *this;
    }
    Builder& budget(const OptimizationBudget& v) {
      options_.budget = v;
      return *this;
    }
    Builder& degradation(SearchOptions::Degradation v) {
      options_.degradation = v;
      return *this;
    }
    Builder& heuristic_fallback(bool v) {
      options_.heuristic_fallback = v;
      return *this;
    }
    Builder& join_seed(bool v) {
      options_.join_seed = v;
      return *this;
    }
    Builder& join_seed_threshold(int v) {
      options_.join_seed_threshold = v;
      return *this;
    }
    Builder& join_budget_ms(double v) {
      options_.join_budget_ms = v;
      return *this;
    }
    Builder& physical_only(bool v) {
      options_.physical_only = v;
      return *this;
    }
    Builder& fault(FaultInjector* v) {
      options_.fault = v;
      return *this;
    }
    Builder& trace(TraceSink* v) {
      options_.trace = v;
      return *this;
    }
    Builder& collect_phase_timing(bool v) {
      options_.collect_phase_timing = v;
      return *this;
    }

    /// Validates and freezes. InvalidArgument (with a `knob` detail naming
    /// the offender) on any violated invariant.
    StatusOr<SearchConfig> Build() const;

   private:
    SearchOptions options_;
  };

  /// Validates a legacy SearchOptions struct as-is.
  static StatusOr<SearchConfig> FromOptions(const SearchOptions& options);

  /// The validated knob struct, as the engine consumes it.
  const SearchOptions& options() const { return options_; }

 private:
  explicit SearchConfig(SearchOptions options) : options_(std::move(options)) {}

  SearchOptions options_;
};

}  // namespace volcano

#endif  // VOLCANO_SEARCH_SEARCH_CONFIG_H_
