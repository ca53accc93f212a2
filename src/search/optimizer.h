// The Volcano search engine.
//
// This implements the FindBestPlan algorithm of the paper's Figure 2:
// top-down, goal-directed dynamic programming over (equivalence class,
// physical property vector, cost limit) goals, with three kinds of moves —
// transformations, algorithms, and enforcers — ordered by promise and pruned
// by branch-and-bound. "Instead of forcing each database and optimizer
// implementor to implement an entirely new search engine and algorithm, the
// Volcano optimizer generator provides a search engine to be used in all
// created optimizers" (section 3); Optimizer is that engine, parameterized
// only by a DataModel.

#ifndef VOLCANO_SEARCH_OPTIMIZER_H_
#define VOLCANO_SEARCH_OPTIMIZER_H_

#include <algorithm>
#include <chrono>
#include <memory>
#include <vector>

#include "algebra/data_model.h"
#include "algebra/expr.h"
#include "rules/rule_set.h"
#include "search/memo.h"
#include "search/plan.h"
#include "search/search_options.h"
#include "support/budget.h"
#include "support/metrics.h"
#include "support/status.h"
#include "support/trace.h"

namespace volcano {

class SearchConfig;
class TaskEngine;

/// One optimizer instance optimizes queries against one data model. The memo
/// ("set of partial optimization results") lives for the lifetime of the
/// instance; the paper's generated optimizers reinitialize it per query, so
/// callers typically construct one Optimizer per query (see Optimize()).
class Optimizer {
 public:
  /// Default configuration (the paper's measured setup).
  explicit Optimizer(const DataModel& model);

  /// Validated configuration — the preferred constructor. Build one with
  /// SearchConfig::Builder (search/search_config.h); a SearchConfig cannot
  /// hold a knob combination the engine does not implement.
  Optimizer(const DataModel& model, const SearchConfig& config);

  ~Optimizer();

  /// Optimizes a logical query for the required physical properties (null
  /// means "no requirement"). Returns the optimal plan or NotFound if no
  /// plan exists. When the optimization budget (SearchOptions::budget)
  /// trips, the engine degrades per SearchOptions::degradation: in kAnytime
  /// mode it returns the best complete plan it can still produce (see
  /// outcome() for provenance); in kStrict mode — or when even the
  /// degradation ladder yields nothing — it returns ResourceExhausted whose
  /// detail payload names the tripped budget and the partial search stats.
  StatusOr<PlanPtr> Optimize(const Expr& query,
                             const PhysPropsPtr& required = nullptr);

  /// As above with a user-supplied cost limit: "this limit is typically
  /// infinity for a user query, but the user interface may permit users to
  /// set their own limits to 'catch' unreasonable queries" (paper, §3).
  /// Returns NotFound if no plan meets the limit.
  StatusOr<PlanPtr> Optimize(const Expr& query, const PhysPropsPtr& required,
                             Cost limit);

  /// Re-optimizes an existing class for different required properties; the
  /// dynamic-programming table is shared with previous calls. Used by tests
  /// and the interesting-orders example.
  StatusOr<PlanPtr> OptimizeGroup(GroupId group,
                                  const PhysPropsPtr& required);

  /// OptimizeGroup with a user-supplied cost limit.
  StatusOr<PlanPtr> OptimizeGroup(GroupId group, const PhysPropsPtr& required,
                                  Cost limit);

  /// True when the previous Optimize/OptimizeGroup call suspended on a
  /// budget trip (SearchOptions::suspend_on_trip): the task stack is frozen
  /// and Resume() can continue it.
  bool CanResume() const;

  /// Continues a suspended optimization from the exact preemption point. The
  /// budget is re-armed (the deadline is re-stamped and the FindBestPlan
  /// call allowance restarts); a memo-size trip needs a larger budget to
  /// make progress — pass one via the overload. Returns the same plan an
  /// uninterrupted run would have produced, or suspends again on the next
  /// trip. InvalidArgument when there is nothing to resume.
  StatusOr<PlanPtr> Resume();

  /// Resume with a replacement budget (e.g. a raised memo cap or a fresh
  /// deadline) that applies to this continuation and later calls.
  StatusOr<PlanPtr> Resume(const OptimizationBudget& budget);

  /// Returns the optimizer to a fresh-query state while retaining its warmed
  /// allocations: abandons any suspended search, resets the memo (its
  /// classes, plan choices, first arena block and hash-table capacity are
  /// retained, see Memo::Reset), empties the rule-output buffer, re-interns
  /// the canonical "any" property vector, and zeroes the per-query stats and
  /// outcome. Cumulative rule metrics survive. This is the serving-layer hook
  /// that lets one Optimizer handle an unbounded request stream with a flat
  /// steady-state memory footprint (src/serve/session.h).
  void ResetForReuse();

  /// Inserts a query without optimizing; returns its root class.
  GroupId AddQuery(const Expr& query) { return memo_.InsertQuery(query); }

  /// Replaces the effort budget applied to subsequent top-level
  /// Optimize/OptimizeGroup calls. The serving layer uses this to give every
  /// request its own deadline on a long-lived, memo-reusing optimizer.
  void set_budget(const OptimizationBudget& budget) {
    options_.budget = budget;
    mexpr_cap_ = std::min(options_.max_mexprs, budget.max_mexprs);
  }

  Memo& memo() { return memo_; }
  const Memo& memo() const { return memo_; }
  const DataModel& model() const { return model_; }
  const SearchOptions& options() const { return options_; }

  /// Effort counters (search-side counters merged with memo counters).
  SearchStats stats() const;

  /// How the most recent top-level Optimize/OptimizeGroup call concluded:
  /// plan provenance (exhaustive / anytime incumbent / heuristic), which
  /// budget tripped, and the fraction of the search completed.
  const OptimizeOutcome& outcome() const { return outcome_; }

  /// Per-rule fired/succeeded/winner counters and (when
  /// SearchOptions::collect_phase_timing is set) per-phase timers,
  /// accumulated over the optimizer's lifetime. See support/metrics.h.
  const SearchMetrics& metrics() const { return metrics_; }

 private:
  // The task engine (search/task_engine.h) runs Figure 2's FindBestPlan on
  // an explicit frame stack; it uses the helpers below (budget checkpoints,
  // move collection, winner crediting) and the private Result/Move types
  // directly.
  friend class TaskEngine;

  // Common constructor body; the public constructors delegate here.
  struct CtorTag {};
  Optimizer(const DataModel& model, SearchOptions options, CtorTag);

  /// A goal's answer: its best plan as recorded in the memo, or null on
  /// failure. BuildPlan turns the plan a top-level call returns into
  /// PlanNodes.
  struct Result {
    const PlanChoice* choice = nullptr;
    Cost cost;
  };

  /// A generated move: either an algorithm application (implementation rule
  /// × binding × input-property alternative) or an enforcer application.
  struct Move {
    // Algorithm move fields (rule != nullptr):
    const ImplementationRule* rule = nullptr;
    Binding binding;
    AlgorithmAlternative alt;
    // Enforcer move fields (enforcer != nullptr):
    const EnforcerRule* enforcer = nullptr;
    EnforcerApplication app;
    // Enforcer registration index (EnforcerRule stores no id); indexes
    // SearchMetrics::enforcers and trace events.
    uint32_t enforcer_id = 0;

    double promise = 1.0;
    /// Secondary sort key among equal-promise moves (ascending), assigned
    /// only in the big-join escalation path: the summed estimated
    /// cardinality of the move's input classes, so joins over small inputs
    /// are pursued first. 0 (the default) preserves collection order.
    double order_key = 0.0;
  };

  /// Turns one implementation rule's bindings into algorithm moves for the
  /// goal: the rule's condition, the fault hook, and one move per
  /// applicable input-property alternative.
  void AddAlgorithmMoves(const ImplementationRule& rule,
                         const std::vector<Binding>& bindings,
                         const PhysPropsPtr& required,
                         const PhysProps* excluded, std::vector<Move>* moves);

  /// Sweeps the class's expressions and collects all algorithm moves for the
  /// given goal over the memo as it stands: input classes a pattern names
  /// are matched without being explored. Used by the greedy descent.
  void CollectAlgorithmMoves(GroupId group, const PhysPropsPtr& required,
                             const PhysPropsPtr& excluded,
                             std::vector<Move>* moves);

  /// Collects enforcer moves for the goal.
  void CollectEnforcerMoves(const PhysPropsPtr& required,
                            const PhysPropsPtr& excluded,
                            const LogicalProps& logical,
                            std::vector<Move>* moves);

  /// Cooperative budget checkpoint: returns false once any budget (deadline,
  /// memo cap, call cap, cancellation, injected fault) has tripped. The
  /// first trip is latched in trip_ until the next top-level call re-arms.
  bool CheckBudget();

  /// Stamps the deadline and clears the trip latch at the start of a
  /// top-level optimization.
  void ArmBudget();

  bool aborted() const { return trip_ != BudgetTrip::kNone; }

  /// True once the explore_limit transformation cap for the current
  /// top-level call is exhausted: exploration stops firing rules (derived
  /// expressions are still costed), and a group whose closure was cut short
  /// is not marked explored.
  bool ExploreCapReached() const {
    return options_.explore_limit > 0 &&
           transforms_fired_ >= options_.explore_limit;
  }

  /// Builds ResourceExhausted with the structured detail payload (tripped
  /// budget, effort counters, partial stats).
  Status ExhaustedStatus() const;

  /// Shared tail of OptimizeGroup and Resume: the degradation ladder on
  /// abort, NotFound on failure, and the final Covers consistency check.
  StatusOr<PlanPtr> FinalizeTopLevel(Result r, GroupId group,
                                     const PhysPropsPtr& required, Cost limit);

  /// Records the suspension in outcome_ and builds the ResourceExhausted
  /// status tagged with suspended=true (Resume() can continue).
  Status SuspendedStatus();

  /// goals_finished / goals_started, clamped to [0, 1].
  double SearchCompletedFraction() const;

  /// Records the peak native-stack consumption below the top-level entry
  /// point in stats_.native_stack_high_water. The task engine samples it
  /// from its dispatch loop, where it stays flat in plan depth.
  void ProbeNativeStack() {
    if (stack_base_ == nullptr) return;
    char probe;
    ptrdiff_t depth = stack_base_ - &probe;  // stack grows down on our targets
    if (depth > 0 &&
        static_cast<uint64_t>(depth) > stats_.native_stack_high_water) {
      stats_.native_stack_high_water = static_cast<uint64_t>(depth);
    }
  }

  /// Applies a freshly estimated local cost through the fault injector and
  /// validity check; returns false (and counts the rejection) if the cost is
  /// NaN and must not reach branch-and-bound comparisons.
  bool AdmitLocalCost(Cost* cost);

  /// Credits the rule that produced a goal's final winner in the metrics
  /// registry.
  void CreditWinner(const PlanChoice& choice);

  /// Records an algorithm move's plan in `c`: the move, its total cost and
  /// the choices for its inputs.
  void RecordAlgorithm(PlanChoice* c, const Move& mv,
                       const LogicalPropsPtr& logical, const Cost& total,
                       const std::vector<const PlanChoice*>& inputs) const;

  /// Records an enforcer move's plan in `c` over the choice for its input.
  static void RecordEnforcer(PlanChoice* c, const EnforcerRule& enforcer,
                             uint32_t enforcer_id,
                             const PhysPropsPtr& delivered,
                             const LogicalPropsPtr& logical,
                             const Cost& total, const PlanChoice* input);

  /// Ladder step 2: bounded promise-ordered greedy descent. Considers only
  /// algorithm/enforcer moves over expressions already in the memo (no
  /// transformations, no exploration, no memo growth), takes the first move
  /// in promise order whose inputs can be planned, and reuses memoized
  /// winners opportunistically. Runs after the budget has tripped and polls
  /// no budget; it terminates because the memo is frozen and (group, goal)
  /// re-entry is cut by the in-progress marks.
  Result GreedyPlan(GroupId group, const PhysPropsPtr& required,
                    const PhysPropsPtr& excluded, int depth);

  /// Greedy join-order seeding (SearchOptions::join_seed, DESIGN.md §12).
  /// Asks the model for a heuristic join order and plans it physical-only
  /// in a private optimizer over the same model (seeder_, created on the
  /// first seeded query and reset for each later one); on success stores
  /// the plan and its cost in seed_ (keyed to `root` + `required`) so
  /// OptimizeGroup can tighten the root search limit and FinalizeTopLevel
  /// can use the plan as the degradation floor. Also decides big-join
  /// escalation (big_join_mode_) from DataModel::JoinComplexity.
  void PrepareJoinSeed(const Expr& query, GroupId root,
                       const PhysPropsPtr& required);

  /// Assigns Move::order_key (summed input-class estimated cardinalities)
  /// for the big-join cardinality-guided move ordering. Only called when
  /// big_join_mode_ is set.
  void AssignMoveOrderKeys(std::vector<Move>* moves);

  /// Observed win rate of the rule/enforcer behind a move, from the
  /// cumulative SearchMetrics: (winners + 1) / (fired + 2) — a Laplace
  /// smoothed estimate so unobserved rules start at 0.5 instead of 0.
  double MoveWinRate(const Move& mv) const;

  /// Assigns Move::order_key = promise × MoveWinRate × a cardinality
  /// discount (1 / (1 + log1p(summed input cardinality))) — the adaptive
  /// move ordering above the join threshold, replacing the static
  /// cardinality key of AssignMoveOrderKeys once rule statistics exist.
  /// Sorted descending by search_internal::SortMovesByScore.
  void AssignAdaptiveOrderKeys(std::vector<Move>* moves);

  /// True once the cumulative per-rule tables have recorded at least one
  /// winner — the point where MoveWinRate carries real signal. Until then
  /// every rate is the Laplace prior and adaptive ordering would just be a
  /// noisier spelling of the static one, so the big-join pursue paths keep
  /// the cardinality key. Latches true — winners never un-happen, and the
  /// metrics are cumulative across ResetForReuse, so the latch is too.
  bool HasMoveStats() const;

  const DataModel& model_;
  SearchOptions options_;
  Memo memo_;
  /// Canonical (interned) "no requirement" vector: the FindBestPlan glue
  /// gate compares goal pointers against this instead of calling Equals.
  PhysPropsPtr any_props_;
  SearchStats stats_;
  SearchMetrics metrics_;
  mutable bool has_move_stats_ = false;  ///< HasMoveStats latch
  OptimizeOutcome outcome_;
  // Budget-trip latch: the first trip of a top-level call.
  BudgetTrip trip_ = BudgetTrip::kNone;
  // Join-order seeding state for the current top-level call (set by
  // Optimize(Expr) via PrepareJoinSeed, consumed by OptimizeGroup and
  // FinalizeTopLevel). The seed plan is valid only for the (group,
  // required) pair it was planned for; seed_active_ is the per-call gate.
  PlanPtr seed_plan_;
  Cost seed_cost_;
  std::unique_ptr<Optimizer> seeder_;  // physical-only; see PrepareJoinSeed
  bool has_seed_ = false;
  bool seed_active_ = false;
  GroupId seed_group_ = kInvalidGroup;
  PhysPropsPtr seed_required_;
  // Big-join escalation (JoinComplexity above join_seed_threshold):
  // cardinality-guided move ordering is engaged for the whole call.
  bool big_join_mode_ = false;
  // Escalation override frame: Optimize() installs a deadline, move limit,
  // and exploration cap over the caller's options for a big-join call. The
  // overrides must survive a suspend_on_trip suspension — Resume() continues
  // the same escalated call — so they are restored only when the call truly
  // ends (completion, Abandon, or ResetForReuse), not when OptimizeGroup
  // returns suspended. See RestoreEscalation().
  struct Escalation {
    bool active = false;
    double saved_timeout_ms = 0.0;
    int saved_move_limit = 0;
    size_t saved_explore_limit = 0;
  };
  Escalation escalation_;
  /// Restores the caller's pre-escalation knobs and leaves big-join mode.
  /// No-op unless an escalation frame is active.
  void RestoreEscalation();
  // Join-leaf count of the current query (set by PrepareJoinSeed); sizes
  // the escalation's default exploration cap.
  int join_complexity_ = 0;
  // Transformation applications this top-level call, against
  // options_.explore_limit.
  uint64_t transforms_fired_ = 0;
  // Set when a winner was memoized after the exploration cap was reached:
  // chosen from a cut-down space, so the next top-level call drops the
  // memo's winners before it searches (the rest of this call, big-join
  // escalation included, still answers goals from them).
  bool capped_winners_ = false;
  bool has_deadline_ = false;
  std::chrono::steady_clock::time_point deadline_{};
  size_t mexpr_cap_ = 0;
  // The FindBestPlan-call allowance is re-based at every ArmBudget so the
  // budget really is "per top-level call" (as documented) and a resumed run
  // gets a fresh allowance.
  uint64_t call_budget_base_ = 0;
  // Task engine (created lazily on the first optimization; owns the frame
  // arena and, when suspended, the frozen task stack).
  std::unique_ptr<TaskEngine> engine_;
  // Saved context for Resume(): the goal of the suspended top-level call.
  GroupId resume_group_ = kInvalidGroup;
  PhysPropsPtr resume_required_;
  Cost resume_limit_;
  // Native-stack high-water probing (see ProbeNativeStack).
  char* stack_base_ = nullptr;
  // Interposed in front of any user trace sink (see StampingTraceSink).
  StampingTraceSink trace_stamper_;
};

}  // namespace volcano

#endif  // VOLCANO_SEARCH_OPTIMIZER_H_
