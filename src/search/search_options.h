// Search configuration and statistics.
//
// The paper leaves several search-strategy choices "in the hands of the
// optimizer implementor": pursuing all moves or only the most promising
// (section 3), heuristic vs cost-sensitive optimization (section 5), and
// pruning. SearchOptions exposes those knobs; the defaults reproduce the
// paper's measured configuration (exhaustive search with branch-and-bound
// pruning and full memoization). The ablation benchmarks flip one knob at a
// time.

#ifndef VOLCANO_SEARCH_SEARCH_OPTIONS_H_
#define VOLCANO_SEARCH_SEARCH_OPTIONS_H_

#include <cstddef>
#include <cstdint>
#include <string>

#include "support/budget.h"

namespace volcano {

class FaultInjector;
class TraceSink;

struct SearchOptions {
  /// How transformations are scheduled relative to implementation moves.
  /// Both strategies are exhaustive and return plans of identical cost; the
  /// memo's "internal structure for equivalence classes is sufficiently
  /// modular and extensible to support alternative search strategies"
  /// (paper section 6), and this knob demonstrates it.
  enum class Strategy {
    /// Derive the class's full transformation closure, then consider
    /// algorithms and enforcers (the classic Volcano realization).
    kExploreFirst,
    /// Figure 2 verbatim: transformations are *moves*, interleaved with
    /// algorithm and enforcer moves in promise order; newly derived
    /// expressions feed new moves into the same goal.
    kInterleaved,
  };

  Strategy strategy = Strategy::kExploreFirst;

  /// When true, a tripped OptimizationBudget freezes the task stack instead
  /// of unwinding it: Optimize returns ResourceExhausted with detail
  /// suspended=true, and Optimizer::Resume() re-arms the budget and
  /// continues from the exact preemption point. When false, a trip degrades
  /// per `degradation`.
  bool suspend_on_trip = false;

  /// Branch-and-bound: abandon an algorithm or enforcer move as soon as its
  /// local cost plus the inputs planned so far exceeds the goal's incumbent
  /// (which starts at the goal's limit). Input goals and enforcers' relaxed
  /// goals are entered with an infinite limit either way, not with
  /// Figure 2's "Limit - TotalCost": each subgoal is then searched once and
  /// its memoized winner is its optimum, instead of failing under a tight
  /// limit and being reopened under a looser one. False disables the
  /// incumbent pruning; plans are identical either way.
  bool branch_and_bound = true;

  /// Reuse winners across subgoals (the dynamic-programming look-up table).
  /// Disabling degrades the search to plain top-down enumeration; used only
  /// by the ablation benches.
  bool memoize_winners = true;

  /// 0 = pursue all moves (exhaustive, the paper's implemented default:
  /// "currently, with only exhaustive search implemented, all moves are
  /// pursued"). k > 0 = pursue only the k most promising implementation /
  /// enforcer moves per goal — the heuristic facility the paper describes as
  /// "a major heuristic placed into the hands of the optimizer implementor".
  /// Applies to the kExploreFirst strategy.
  int move_limit = 0;

  /// 0 = derive full transformation closures (exhaustive). k > 0 = stop
  /// firing transformation rules after k applications in one top-level
  /// call; expressions already derived are still costed, and groups whose
  /// exploration was cut short are not marked explored. The big-join
  /// escalation installs a complexity-proportional cap so enumeration time
  /// stays bounded at 100+ relations; the greedy seed floors plan quality
  /// (any plan the tightened search returns beats the seed).
  size_t explore_limit = 0;

  /// Starburst-style ablation: optimize ignoring required physical
  /// properties, then patch the plan with "glue" enforcers afterwards. The
  /// paper argues Volcano's property-directed search dominates this
  /// (sections 5 and 6); bench_ablation_properties measures it.
  bool glue_properties = false;

  /// Safety cap on memo size (legacy knob; folded into the budget — the
  /// smaller of this and budget.max_mexprs applies).
  size_t max_mexprs = 4u << 20;

  /// Effort limits for each top-level Optimize/OptimizeGroup call: deadline,
  /// memo cap, FindBestPlan-call cap, cancellation. Unlimited by default.
  OptimizationBudget budget;

  /// What happens when the budget trips mid-search.
  enum class Degradation {
    /// Abort with ResourceExhausted (detail payload names the tripped
    /// budget), discarding partial results — the pre-governance behavior.
    kStrict,
    /// Degrade down the ladder instead of erroring: (1) return the best
    /// complete incumbent plan found so far, tagged approximate; (2) if no
    /// incumbent exists, re-run a bounded promise-ordered greedy descent
    /// (no transformations, no memo growth) that terminates quickly.
    /// ResourceExhausted is returned only if both steps come up empty;
    /// callers can then fall back further (exodus::OptimizeWithFallback).
    kAnytime,
  };
  Degradation degradation = Degradation::kAnytime;

  /// Enables ladder step 2 (the greedy heuristic rerun).
  bool heuristic_fallback = true;

  /// Greedy join-order incumbent seeding (DESIGN.md §12). Before the full
  /// search starts, the model's HeuristicJoinOrder rewrite (when it yields
  /// one) is planned physical-only in a private memo; its cost tightens the
  /// root goal's branch-and-bound limit from the first move, and the plan
  /// itself becomes a guaranteed floor of the degradation ladder. Because
  /// the seed plan is reachable through the model's own transformation
  /// rules, its cost upper-bounds the optimum and final plans are identical
  /// to unseeded search whenever the exhaustive search completes.
  bool join_seed = false;

  /// Escalation threshold: queries whose DataModel::JoinComplexity exceeds
  /// this run under a hard deadline (join_budget_ms, unless the caller's
  /// budget already has one) with cardinality-guided move ordering; the
  /// greedy seed guarantees a plan when the deadline trips. At or below the
  /// threshold seeded search stays exhaustive (and digest-identical).
  int join_seed_threshold = 12;

  /// Hard per-call deadline (milliseconds) applied above the threshold when
  /// the caller's budget carries no deadline of its own.
  double join_budget_ms = 1000.0;

  /// Internal: suppress transformation exploration so the search only
  /// assigns physical algorithms/enforcers to the query's given shape. The
  /// seed planner uses this to cost the greedy join order in time
  /// polynomial in the tree size; also usable as an ablation.
  bool physical_only = false;

  /// Fault-injection harness for robustness tests; not owned, null in
  /// production. See support/fault.h.
  FaultInjector* fault = nullptr;

  /// Structured trace sink (support/trace.h); not owned, null disables
  /// emission. With null the per-site overhead is one pointer test; building
  /// with -DVOLCANO_TRACE=OFF removes even that.
  TraceSink* trace = nullptr;

  /// Collect the coarse per-phase wall-clock timers in SearchMetrics. Off by
  /// default because the timers call the clock on the search path.
  bool collect_phase_timing = false;
};

/// Where the returned plan came from, for the degradation ladder.
enum class PlanSource {
  kExhaustive,        ///< normal search ran to completion (paper default)
  kAnytimeIncumbent,  ///< budget tripped; best complete plan found so far
  kGreedySeed,        ///< budget tripped; the pre-search greedy join seed
  kHeuristic,         ///< budget tripped with no incumbent; greedy descent
  kExodusFallback,    ///< last resort: the EXODUS baseline optimizer
};

inline const char* PlanSourceName(PlanSource s) {
  switch (s) {
    case PlanSource::kExhaustive: return "exhaustive";
    case PlanSource::kAnytimeIncumbent: return "anytime-incumbent";
    case PlanSource::kGreedySeed: return "greedy-seed";
    case PlanSource::kHeuristic: return "heuristic";
    case PlanSource::kExodusFallback: return "exodus-fallback";
  }
  return "unknown";
}

/// How the last top-level optimization concluded: which budget (if any)
/// tripped, which ladder rung produced the plan, and how much of the search
/// completed. `search_completed` is the fraction of *distinct started goals*
/// (FindBestPlan activations that began a real search, not winner-table hits
/// or in-progress re-entries) that ran to completion; it is clamped to
/// [0, 1], with 1.0 for an exhaustive (optimal) result and 0.0 when nothing
/// was started.
struct OptimizeOutcome {
  PlanSource source = PlanSource::kExhaustive;
  BudgetTrip trip = BudgetTrip::kNone;
  bool approximate = false;
  /// True when the budget tripped with SearchOptions::suspend_on_trip set:
  /// the task stack is frozen and Optimizer::Resume() can continue it.
  bool suspended = false;
  double search_completed = 1.0;

  std::string ToString() const;
  std::string ToJson() const;
};

/// Machine-independent effort counters, reported next to wall-clock times in
/// every benchmark so the Figure 4 shapes can be compared across hardware.
struct SearchStats {
  uint64_t find_best_plan_calls = 0;
  uint64_t memo_winner_hits = 0;    ///< goal answered from the look-up table
  /// Goal failed without a search: its memoized winner costs more than the
  /// goal's limit (a winner is the goal's optimum, so no plan fits).
  uint64_t memo_above_limit_hits = 0;
  uint64_t in_progress_hits = 0;    ///< cycles cut by the in-progress mark
  uint64_t groups_created = 0;
  uint64_t mexprs_created = 0;
  uint64_t mexprs_deduped = 0;      ///< inserts that found the expression
                                    ///< already in the memo
  uint64_t group_merges = 0;
  uint64_t transformations_matched = 0;
  uint64_t transformations_applied = 0;
  uint64_t algorithm_moves = 0;
  uint64_t enforcer_moves = 0;
  uint64_t cost_estimates = 0;
  uint64_t moves_pruned = 0;        ///< abandoned by branch-and-bound
  uint64_t moves_skipped = 0;       ///< cut by the move_limit heuristic
  uint64_t goals_completed = 0;     ///< FindBestPlan calls that finished
  uint64_t goals_started = 0;       ///< distinct goals that began a search
  uint64_t goals_finished = 0;      ///< of those, ran to full completion
  uint64_t budget_checkpoints = 0;  ///< cooperative budget polls
  uint64_t invalid_costs = 0;       ///< NaN cost estimates rejected
  uint64_t seed_plans = 0;          ///< greedy join seeds planned (join_seed)

  // Task-engine counters.
  uint64_t tasks_executed = 0;          ///< task state-machine steps run
  uint64_t task_stack_high_water = 0;   ///< max concurrent task frames
  uint64_t suspensions = 0;             ///< budget trips frozen for Resume()
  /// Peak native C++ stack consumption observed inside the search (bytes
  /// below the top-level entry point). The task engine keeps this flat in
  /// plan depth.
  uint64_t native_stack_high_water = 0;

  std::string ToString() const;
  std::string ToJson() const;
};

}  // namespace volcano

#endif  // VOLCANO_SEARCH_SEARCH_OPTIONS_H_
