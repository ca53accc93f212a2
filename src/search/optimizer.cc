#include "search/optimizer.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "search/move_order.h"
#include "search/search_config.h"
#include "search/task_engine.h"
#include "support/fault.h"

namespace volcano {

namespace {

// Guided move selection above the join-seed escalation threshold: pursue
// only this many implementation/enforcer moves per goal (in graph-aware
// promise/cardinality order). Two keeps both join algorithms in play per
// goal; one mis-picks whenever promise order and true cost disagree.
constexpr int kBigJoinMoveLimit = 2;

// Default exploration cap above the threshold: the transformation closure
// grows super-linearly in relations (quadratically even for chains), so an
// uncapped 100-way join burns its whole deadline deriving expressions it
// never gets to cost. Capping keeps enumeration linear in query size; the
// greedy seed bound floors plan quality regardless of where the cap lands.
// The allowance scales with the deadline — kBigJoinExploreFactor rule
// firings per join leaf per kBigJoinBudgetReferenceMs of budget, floored at
// kBigJoinExploreFloor per leaf — so granting a big join more wall-clock
// budget buys it a wider searched neighborhood, not just idle headroom.
constexpr double kBigJoinExploreFactor = 24.0;
constexpr double kBigJoinBudgetReferenceMs = 250.0;
constexpr double kBigJoinExploreFloor = 4.0;

}  // namespace

Optimizer::Optimizer(const DataModel& model)
    : Optimizer(model, SearchOptions{}, CtorTag{}) {}

Optimizer::Optimizer(const DataModel& model, const SearchConfig& config)
    : Optimizer(model, config.options(), CtorTag{}) {}

Optimizer::Optimizer(const DataModel& model, SearchOptions options, CtorTag)
    : model_(model), options_(options), memo_(model) {
  mexpr_cap_ = std::min(options_.max_mexprs, options_.budget.max_mexprs);
  any_props_ = memo_.InternProps(model_.AnyProps());
  if (options_.trace != nullptr) {
    // Interpose the stamper so every event — from the memo and from either
    // engine — carries a monotonic sequence number before the user's sink
    // sees it.
    trace_stamper_.set_inner(options_.trace);
    options_.trace = &trace_stamper_;
  }
  memo_.set_trace(options_.trace);
  const RuleSet& rules = model_.rule_set();
  metrics_.transformations.resize(rules.transformations().size());
  for (size_t i = 0; i < rules.transformations().size(); ++i) {
    metrics_.transformations[i].name = rules.transformation(
        static_cast<RuleId>(i)).name().c_str();
  }
  metrics_.implementations.resize(rules.implementations().size());
  for (size_t i = 0; i < rules.implementations().size(); ++i) {
    metrics_.implementations[i].name = rules.implementation(
        static_cast<RuleId>(i)).name().c_str();
  }
  metrics_.enforcers.resize(rules.enforcers().size());
  for (size_t i = 0; i < rules.enforcers().size(); ++i) {
    metrics_.enforcers[i].name = rules.enforcers()[i]->name().c_str();
  }
  metrics_.phases.enabled = options_.collect_phase_timing;
}

// Out of line so the unique_ptr<TaskEngine> member destroys a complete type.
Optimizer::~Optimizer() = default;

namespace {

/// Accumulates the wall-clock of one top-level call into `acc`. Does
/// nothing — and never touches the clock — unless `enabled`.
class PhaseScope {
 public:
  PhaseScope(bool enabled, double* acc) : enabled_(enabled), acc_(acc) {
    if (enabled_) start_ = std::chrono::steady_clock::now();
  }
  ~PhaseScope() {
    if (!enabled_) return;
    *acc_ += std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                           start_)
                 .count();
  }
  PhaseScope(const PhaseScope&) = delete;
  PhaseScope& operator=(const PhaseScope&) = delete;

 private:
  bool enabled_;
  double* acc_;
  std::chrono::steady_clock::time_point start_{};
};

}  // namespace

bool Optimizer::CheckBudget() {
  if (aborted()) return false;
  ++stats_.budget_checkpoints;
  const OptimizationBudget& b = options_.budget;
  BudgetTrip t = BudgetTrip::kNone;
  if (options_.fault != nullptr && options_.fault->ExpireBudget()) {
    t = BudgetTrip::kInjected;
  } else if (memo_.num_exprs() > mexpr_cap_) {
    t = BudgetTrip::kMemoLimit;
  } else if (b.max_find_best_plan_calls > 0 &&
             stats_.find_best_plan_calls - call_budget_base_ >
                 b.max_find_best_plan_calls) {
    t = BudgetTrip::kCallLimit;
  } else if (b.cancel != nullptr && b.cancel->cancelled()) {
    t = BudgetTrip::kCancelled;
  } else if (has_deadline_ &&
             std::chrono::steady_clock::now() >= deadline_) {
    t = BudgetTrip::kDeadline;
  }
  if (t != BudgetTrip::kNone) {
    trip_ = t;
    VOLCANO_TRACE(options_.trace, {.kind = TraceEventKind::kBudgetTrip,
                                   .detail = BudgetTripName(t)});
    return false;
  }
  return true;
}

void Optimizer::ArmBudget() {
  trip_ = BudgetTrip::kNone;
  outcome_ = OptimizeOutcome{};
  // Re-base the FindBestPlan-call allowance so the budget really is "per top
  // level call" (as documented) and a resumed run gets a fresh allowance.
  call_budget_base_ = stats_.find_best_plan_calls;
  has_deadline_ = options_.budget.has_deadline();
  if (has_deadline_) {
    deadline_ = std::chrono::steady_clock::now() +
                std::chrono::duration_cast<
                    std::chrono::steady_clock::duration>(
                    std::chrono::duration<double, std::milli>(
                        options_.budget.timeout_ms));
  }
}

Status Optimizer::ExhaustedStatus() const {
  SearchStats s = stats();
  return Status::ResourceExhausted(
             std::string("optimization budget exhausted (") +
             BudgetTripName(trip_) + ")")
      .WithDetail("budget", BudgetTripName(trip_))
      .WithDetail("mexprs", std::to_string(memo_.num_exprs()))
      .WithDetail("mexpr_cap", std::to_string(mexpr_cap_))
      .WithDetail("find_best_plan_calls",
                  std::to_string(s.find_best_plan_calls))
      .WithDetail("goals_completed", std::to_string(s.goals_completed))
      .WithDetail("stats", s.ToString());
}

bool Optimizer::AdmitLocalCost(Cost* cost) {
  if (options_.fault != nullptr && cost->dims() > 0) {
    options_.fault->CorruptCost(&cost->at(0));
  }
  if (!cost->IsValid()) {
    ++stats_.invalid_costs;
    return false;
  }
  return true;
}

void Optimizer::ResetForReuse() {
  // A frozen task stack holds in-progress marks and frame state pointing
  // into the memo; unwind it before the memo's storage is rewound. An
  // abandoned big-join suspension also hands back its escalation overrides.
  if (engine_ != nullptr && engine_->suspended()) engine_->Abandon();
  RestoreEscalation();
  memo_.Reset();
  // Memo::Reset clears the property interner, so the cached canonical "any"
  // vector must be re-interned — it would otherwise dangle.
  any_props_ = memo_.InternProps(model_.AnyProps());
  stats_ = SearchStats{};
  outcome_ = OptimizeOutcome{};
  trip_ = BudgetTrip::kNone;
  // The seed plan references logical properties and groups of the memo era
  // being discarded; a reused optimizer must re-seed per query.
  seed_plan_ = nullptr;
  has_seed_ = false;
  seed_active_ = false;
  seed_group_ = kInvalidGroup;
  seed_required_ = nullptr;
  big_join_mode_ = false;
  join_complexity_ = 0;
  transforms_fired_ = 0;
  capped_winners_ = false;
  if (engine_ != nullptr) engine_->ResetForReuse();
  resume_group_ = kInvalidGroup;
  resume_required_ = nullptr;
  stack_base_ = nullptr;
}

StatusOr<PlanPtr> Optimizer::Optimize(const Expr& query,
                                      const PhysPropsPtr& required) {
  return Optimize(query, required, model_.cost_model().Infinity());
}

StatusOr<PlanPtr> Optimizer::Optimize(const Expr& query,
                                      const PhysPropsPtr& required_in,
                                      Cost limit) {
  GroupId root = memo_.InsertQuery(query);
  if (!options_.join_seed || options_.physical_only) {
    return OptimizeGroup(root, required_in, limit);
  }
  // Bind the "no requirement" fallback here so the seed is keyed to the
  // exact pointer OptimizeGroup will search for (seed validity is pointer
  // identity on the goal's property vector).
  PhysPropsPtr fallback;
  if (required_in == nullptr) fallback = model_.AnyProps();
  const PhysPropsPtr& required = required_in != nullptr ? required_in
                                                        : fallback;
  PrepareJoinSeed(query, root, required);
  if (big_join_mode_) {
    // Escalation: an above-threshold join runs under a hard deadline (the
    // caller's own deadline wins over the escalation default) with guided
    // move selection — moves are ordered by estimated input cardinality and
    // only the most promising few pursued per goal — and the greedy seed as
    // the guaranteed floor should the deadline trip. This trades the
    // exhaustive optimality proof for bounded time; the seeded bound keeps
    // the guided search honest (it can only return plans at least as good
    // as the greedy order).
    //
    // A stale suspension (the caller started a new Optimize instead of
    // resuming) may still hold a previous call's escalation frame; abandon
    // and restore it before saving, so the frame captured below holds the
    // caller's real knobs — and so OptimizeGroup's stale-suspension sweep
    // cannot restore the frame this call is about to install.
    if (engine_ != nullptr && engine_->suspended()) {
      engine_->Abandon();
      RestoreEscalation();
    }
    escalation_.active = true;
    escalation_.saved_timeout_ms = options_.budget.timeout_ms;
    escalation_.saved_move_limit = options_.move_limit;
    escalation_.saved_explore_limit = options_.explore_limit;
    if (!options_.budget.has_deadline()) {
      options_.budget.timeout_ms = options_.join_budget_ms;
    }
    if (options_.move_limit == 0) options_.move_limit = kBigJoinMoveLimit;
    if (options_.explore_limit == 0) {
      const double scale = options_.budget.timeout_ms > 0
                               ? options_.budget.timeout_ms /
                                     kBigJoinBudgetReferenceMs
                               : 1.0;
      const double per_leaf =
          std::max(kBigJoinExploreFloor, kBigJoinExploreFactor * scale);
      options_.explore_limit =
          static_cast<size_t>(per_leaf * join_complexity_);
    }
    StatusOr<PlanPtr> result = OptimizeGroup(root, required, limit);
    // A suspension keeps the escalation installed: Resume() continues this
    // same escalated call, and the overrides (deadline, move limit,
    // exploration cap) must still govern the continuation. They are
    // restored when the call truly ends — in Resume() after completion, or
    // on Abandon/ResetForReuse.
    if (CanResume()) return result;
    RestoreEscalation();
    return result;
  }
  StatusOr<PlanPtr> result = OptimizeGroup(root, required, limit);
  big_join_mode_ = false;
  return result;
}

StatusOr<PlanPtr> Optimizer::OptimizeGroup(GroupId group,
                                           const PhysPropsPtr& required) {
  return OptimizeGroup(group, required, model_.cost_model().Infinity());
}

StatusOr<PlanPtr> Optimizer::OptimizeGroup(GroupId group,
                                           const PhysPropsPtr& required_in,
                                           Cost limit) {
  // Bind the fallback without copying the caller's pointer on the hot path.
  PhysPropsPtr fallback;
  if (required_in == nullptr) fallback = model_.AnyProps();
  const PhysPropsPtr& required = required_in != nullptr ? required_in
                                                        : fallback;
  ArmBudget();
  transforms_fired_ = 0;
  // A suspended run the caller chose not to resume must not leak its frozen
  // frames (or the in-progress marks they hold) into this fresh search —
  // nor its escalation overrides (Optimize()'s own big-join path abandons
  // stale suspensions itself, before installing this call's frame).
  if (engine_ != nullptr && engine_->suspended()) {
    engine_->Abandon();
    RestoreEscalation();
  }
  if (capped_winners_) {
    memo_.DropWinners();
    capped_winners_ = false;
  }
  char base;
  stack_base_ = &base;
  PhaseScope total_scope(options_.collect_phase_timing,
                         &metrics_.phases.total_seconds);
  const CostModel& cm = model_.cost_model();
  // Greedy join seed (PrepareJoinSeed): the seed plan is a proven upper
  // bound on this goal's optimum — its join order is reachable through the
  // model's own transformation rules — so the search starts from a
  // tightened limit and branch-and-bound prunes against the greedy cost
  // from the very first move. Wherever the search still completes, the
  // winner under the tightened limit is the same optimum as under the
  // caller's limit (any plan the tight limit excludes costs more than the
  // seed, which the seed itself already beats).
  seed_active_ = has_seed_ &&
                 memo_.Find(seed_group_) == memo_.Find(group) &&
                 seed_required_.get() == required.get();
  const bool tightened = seed_active_ && cm.Less(seed_cost_, limit);
  Cost run_limit = tightened ? seed_cost_ : limit;
  if (engine_ == nullptr) engine_ = std::make_unique<TaskEngine>(*this);
  Result r = engine_->Run(group, required, run_limit);
  if (!engine_->suspended() && r.choice == nullptr && tightened && !aborted() &&
      !big_join_mode_) {
    // The optimum sits on the tightened boundary (the greedy seed was
    // already optimal, modulo cost-accumulation rounding): prove it out
    // under the caller's limit so the returned plan always comes from the
    // search itself and seeding stays digest-preserving. Winners memoized
    // by the first pass are true subgoal optima and are reused.
    run_limit = limit;
    r = engine_->Run(group, required, run_limit);
  }
  if (engine_->suspended()) {
    resume_group_ = group;
    resume_required_ = required;
    resume_limit_ = run_limit;
    return SuspendedStatus();
  }
  return FinalizeTopLevel(r, group, required, limit);
}

Status Optimizer::SuspendedStatus() {
  outcome_.trip = trip_;
  outcome_.suspended = true;
  outcome_.search_completed = SearchCompletedFraction();
  return ExhaustedStatus().WithDetail("suspended", "true");
}

double Optimizer::SearchCompletedFraction() const {
  // Fraction of *distinct started goals* that ran to full completion.
  // Counting winner-table hits and in-progress re-entries (as the old
  // goals_completed / find_best_plan_calls ratio did) lets the quotient
  // wander outside [0, 1] depending on how often finished goals are
  // re-queried; started/finished counts only real searches, and the clamp
  // keeps any residual accounting skew from leaking past the contract.
  return stats_.goals_started == 0
             ? 0.0
             : std::clamp(static_cast<double>(stats_.goals_finished) /
                              static_cast<double>(stats_.goals_started),
                          0.0, 1.0);
}

bool Optimizer::CanResume() const {
  return engine_ != nullptr && engine_->suspended();
}

StatusOr<PlanPtr> Optimizer::Resume() {
  if (!CanResume()) {
    return Status::InvalidArgument("no suspended optimization to resume");
  }
  ArmBudget();
  char base;
  stack_base_ = &base;
  PhaseScope total_scope(options_.collect_phase_timing,
                         &metrics_.phases.total_seconds);
  Result r = engine_->Continue();
  if (engine_->suspended()) return SuspendedStatus();
  StatusOr<PlanPtr> result =
      FinalizeTopLevel(r, resume_group_, resume_required_, resume_limit_);
  // A resumed big-join call ends here: hand the caller's knobs back, after
  // FinalizeTopLevel has consumed big_join_mode_ (exactly as the
  // uninterrupted Optimize() flow orders restore after finalize).
  RestoreEscalation();
  return result;
}

StatusOr<PlanPtr> Optimizer::Resume(const OptimizationBudget& budget) {
  if (!CanResume()) {
    return Status::InvalidArgument("no suspended optimization to resume");
  }
  options_.budget = budget;
  mexpr_cap_ = std::min(options_.max_mexprs, budget.max_mexprs);
  if (escalation_.active) {
    // The replacement budget is what RestoreEscalation must hand back when
    // the escalated call completes, and the escalation deadline still
    // applies to the continuation when the new budget brings none of its
    // own.
    escalation_.saved_timeout_ms = budget.timeout_ms;
    if (!budget.has_deadline()) {
      options_.budget.timeout_ms = options_.join_budget_ms;
    }
  }
  return Resume();
}

void Optimizer::RestoreEscalation() {
  if (!escalation_.active) return;
  options_.budget.timeout_ms = escalation_.saved_timeout_ms;
  options_.move_limit = escalation_.saved_move_limit;
  options_.explore_limit = escalation_.saved_explore_limit;
  escalation_ = Escalation{};
  big_join_mode_ = false;
}

StatusOr<PlanPtr> Optimizer::FinalizeTopLevel(Result r, GroupId group,
                                              const PhysPropsPtr& required,
                                              Cost limit) {
  const CostModel& cm = model_.cost_model();
  if (aborted()) {
    // Budget exhausted: degrade down the ladder instead of discarding the
    // partial work (kAnytime), or abort with a structured error (kStrict).
    outcome_.trip = trip_;
    outcome_.search_completed = SearchCompletedFraction();
    if (options_.degradation == SearchOptions::Degradation::kStrict) {
      return ExhaustedStatus();
    }
    // Ladder step 1 — anytime mode: the root goal's incumbent, if any, is a
    // complete, executable plan within the cost limit (a move installs only
    // once all its inputs are planned); return it tagged approximate.
    if (r.choice != nullptr) {
      VOLCANO_CHECK(r.choice->props.get() == required.get() ||
                    r.choice->props->Covers(*required));
      outcome_.source = PlanSource::kAnytimeIncumbent;
      outcome_.approximate = true;
      return BuildPlan(*r.choice);
    }
    // Ladder step 1.5 — the greedy join seed planned before the search
    // started (SearchOptions::join_seed): a complete plan within the limit,
    // guaranteed for above-threshold joins whose escalation deadline
    // tripped before the search installed any incumbent.
    if (seed_active_ && seed_plan_ != nullptr &&
        cm.LessEq(seed_cost_, limit)) {
      VOLCANO_CHECK(seed_plan_->props().get() == required.get() ||
                    seed_plan_->props()->Covers(*required));
      outcome_.source = PlanSource::kGreedySeed;
      outcome_.approximate = true;
      return seed_plan_;
    }
    // Ladder step 2 — bounded greedy heuristic over the frozen memo.
    if (options_.heuristic_fallback) {
      Result g = GreedyPlan(group, required, nullptr, 0);
      if (g.choice != nullptr && cm.LessEq(g.cost, limit)) {
        VOLCANO_CHECK(g.choice->props.get() == required.get() ||
                      g.choice->props->Covers(*required));
        outcome_.source = PlanSource::kHeuristic;
        outcome_.approximate = true;
        return BuildPlan(*g.choice);
      }
    }
    return ExhaustedStatus();
  }
  // A search that completed under a tripped exploration cap enumerated a
  // cut-down transformation closure: the plan is usable but must not be
  // treated — or cached by the serving layer — as proven optimal.
  if (ExploreCapReached()) outcome_.approximate = true;
  if (r.choice == nullptr) {
    // A seeded search that completes empty proved no plan beats the seed
    // under the tightened limit — the seed itself is then the optimum
    // within the caller's limit (modulo limit-boundary ties).
    if (seed_active_ && seed_plan_ != nullptr &&
        cm.LessEq(seed_cost_, limit)) {
      VOLCANO_CHECK(seed_plan_->props().get() == required.get() ||
                    seed_plan_->props()->Covers(*required));
      outcome_.source = PlanSource::kGreedySeed;
      // A guided (big-join) search skips moves, so completing empty under
      // the tightened limit does not prove the seed optimal. OR-preserving:
      // the explore-cap flag above must survive.
      if (big_join_mode_) outcome_.approximate = true;
      return seed_plan_;
    }
    return Status::NotFound(
        "no plan satisfies required properties " + required->ToString() +
        " within cost limit " + model_.cost_model().ToString(limit));
  }
  // Final consistency check (paper section 2.2): the chosen plan's physical
  // properties really do satisfy the physical property vector of the goal.
  // A pointer match (plan props shared with the goal) skips the virtual
  // Covers call.
  VOLCANO_CHECK(r.choice->props.get() == required.get() ||
                r.choice->props->Covers(*required));
  return BuildPlan(*r.choice);
}

void Optimizer::PrepareJoinSeed(const Expr& query, GroupId root,
                                const PhysPropsPtr& required) {
  has_seed_ = false;
  seed_active_ = false;
  big_join_mode_ = false;
  seed_plan_ = nullptr;
  const int complexity = model_.JoinComplexity(query);
  join_complexity_ = complexity;
  if (complexity < 3) return;  // nothing a join order could improve
  big_join_mode_ = complexity > options_.join_seed_threshold;
  ExprPtr reordered = model_.HeuristicJoinOrder(query);
  if (reordered == nullptr) return;  // e.g. disconnected graph: no seed
  // Cost the greedy order physical-only in a private optimizer over the
  // same model: with transformations suppressed, planning time is
  // polynomial in the tree size, while the property-directed search still
  // picks the best algorithms and enforcers for the fixed shape. The plan's
  // nodes only borrow rule names from the model's RuleSet (which outlives
  // both optimizers), so the plan safely outlives the private memo. The
  // seeder is kept and reset per query, as a serving session keeps its
  // optimizer, so its memo and engine storage are reused.
  if (seeder_ == nullptr) {
    SearchOptions seed_options;
    seed_options.physical_only = true;
    seeder_.reset(new Optimizer(model_, seed_options, CtorTag{}));
  } else {
    seeder_->ResetForReuse();
  }
  StatusOr<PlanPtr> planned = seeder_->Optimize(*reordered, required);
  if (!planned.ok() || planned.value() == nullptr) return;
  seed_plan_ = planned.value();
  seed_cost_ = seed_plan_->cost();
  has_seed_ = true;
  seed_group_ = memo_.Find(root);
  seed_required_ = required;
  ++stats_.seed_plans;
}

void Optimizer::AssignMoveOrderKeys(std::vector<Move>* moves) {
  for (Move& mv : *moves) {
    double key = 0.0;
    if (mv.rule != nullptr) {
      for (size_t i = 0; i < mv.binding.num_leaves(); ++i) {
        const LogicalPropsPtr& lp = memo_.LogicalOf(mv.binding.leaf(i));
        if (lp != nullptr) key += lp->EstimatedCardinality();
      }
    }
    mv.order_key = key;
  }
}

double Optimizer::MoveWinRate(const Move& mv) const {
  const std::vector<RuleCounters>& table =
      mv.rule != nullptr ? metrics_.implementations : metrics_.enforcers;
  const size_t id = mv.rule != nullptr ? mv.rule->id() : mv.enforcer_id;
  if (id >= table.size()) return 0.5;
  const RuleCounters& rc = table[id];
  // Laplace smoothing: a rule never fired starts at 0.5 rather than 0, so
  // adaptive ordering explores unobserved rules instead of starving them.
  return (static_cast<double>(rc.winners) + 1.0) /
         (static_cast<double>(rc.fired) + 2.0);
}

void Optimizer::AssignAdaptiveOrderKeys(std::vector<Move>* moves) {
  for (Move& mv : *moves) {
    double card = 0.0;
    if (mv.rule != nullptr) {
      for (size_t i = 0; i < mv.binding.num_leaves(); ++i) {
        const LogicalPropsPtr& lp = memo_.LogicalOf(mv.binding.leaf(i));
        if (lp != nullptr) card += lp->EstimatedCardinality();
      }
    }
    // Promise × observed win rate × a cardinality discount: moves whose
    // rules historically produce winners rank up, moves over huge inputs
    // rank down (log-compressed so cardinality guides rather than
    // dominates). The discount is 1 at cardinality 0 and decays slowly.
    mv.order_key =
        mv.promise * MoveWinRate(mv) * (1.0 / (1.0 + std::log1p(card)));
  }
}

bool Optimizer::HasMoveStats() const {
  if (has_move_stats_) return true;
  for (const RuleCounters& rc : metrics_.implementations) {
    if (rc.winners > 0) return has_move_stats_ = true;
  }
  for (const RuleCounters& rc : metrics_.enforcers) {
    if (rc.winners > 0) return has_move_stats_ = true;
  }
  return false;
}

void Optimizer::AddAlgorithmMoves(const ImplementationRule& rule,
                                  const std::vector<Binding>& bindings,
                                  const PhysPropsPtr& required,
                                  const PhysProps* excluded,
                                  std::vector<Move>* moves) {
  for (const Binding& b : bindings) {
    if (!rule.Condition(b, memo_)) continue;
    if (options_.fault != nullptr && options_.fault->FailRuleApplication()) {
      continue;  // injected: the implementation rule fails to fire
    }
    AlgorithmAlternatives alts =
        rule.Applicability(b, memo_, required, excluded);
    for (AlgorithmAlternative& alt : alts) {
      VOLCANO_CHECK(alt.input_props.size() == b.num_leaves());
      VOLCANO_DCHECK(alt.delivered->Covers(*required));
      if (excluded != nullptr && alt.delivered->Covers(*excluded)) {
        continue;  // would qualify redundantly below the enforcer
      }
      Move& mv = moves->emplace_back();
      mv.rule = &rule;
      mv.binding = b;
      mv.alt = std::move(alt);
      mv.promise = rule.Promise(b, memo_);
    }
  }
}

void Optimizer::CollectAlgorithmMoves(GroupId group,
                                      const PhysPropsPtr& required,
                                      const PhysPropsPtr& excluded,
                                      std::vector<Move>* moves) {
  const RuleSet& rules = model_.rule_set();
  std::vector<Binding> bindings;
  using MatchStatus = TaskEngine::Matcher::Status;
  TaskEngine::Matcher matcher;
  for (const MExpr* m : memo_.group(memo_.Find(group)).exprs()) {
    if (m->dead()) continue;
    for (RuleId rid : rules.ImplementationsFor(m->op())) {
      const ImplementationRule& rule = rules.implementation(rid);
      bindings.clear();
      matcher.Start(rule.pattern(), *m, memo_, &bindings);
      // An exploration request is answered by matching the class as it
      // stands: the memo stays frozen.
      while (matcher.Step(memo_) == MatchStatus::kNeedExplore) {
      }
      AddAlgorithmMoves(rule, bindings, required, excluded.get(), moves);
    }
  }
}

void Optimizer::CreditWinner(const PlanChoice& choice) {
  if (choice.rule == nullptr) return;
  std::vector<RuleCounters>& table = choice.from_enforcer()
                                         ? metrics_.enforcers
                                         : metrics_.implementations;
  ++table[choice.rule_index].winners;
}

void Optimizer::RecordAlgorithm(
    PlanChoice* c, const Move& mv, const LogicalPropsPtr& logical,
    const Cost& total, const std::vector<const PlanChoice*>& inputs) const {
  c->op = mv.rule->algorithm();
  c->arg = mv.rule->PlanArg(mv.binding, memo_);
  c->enforcer = nullptr;
  c->rule = mv.rule->name().c_str();
  c->rule_index = mv.rule->id();
  c->props = mv.alt.delivered;
  c->logical = logical;
  c->cost = total;
  c->inputs.clear();
  for (const PlanChoice* in : inputs) c->inputs.push_back(in);
}

void Optimizer::RecordEnforcer(PlanChoice* c, const EnforcerRule& enforcer,
                               uint32_t enforcer_id,
                               const PhysPropsPtr& delivered,
                               const LogicalPropsPtr& logical,
                               const Cost& total, const PlanChoice* input) {
  c->op = enforcer.enforcer();
  c->arg = nullptr;
  c->enforcer = &enforcer;
  c->rule = enforcer.name().c_str();
  c->rule_index = enforcer_id;
  c->props = delivered;
  c->logical = logical;
  c->cost = total;
  c->inputs.clear();
  c->inputs.push_back(input);
}

void Optimizer::CollectEnforcerMoves(const PhysPropsPtr& required,
                                     const PhysPropsPtr& excluded,
                                     const LogicalProps& logical,
                                     std::vector<Move>* moves) {
  const auto& enforcers = model_.rule_set().enforcers();
  for (size_t i = 0; i < enforcers.size(); ++i) {
    const EnforcerRule* enf = enforcers[i].get();
    std::optional<EnforcerApplication> app = enf->Enforce(required, logical);
    if (!app.has_value()) continue;
    VOLCANO_DCHECK(app->delivered->Covers(*required));
    if (excluded != nullptr && app->delivered->Covers(*excluded)) continue;
    Move mv;
    mv.enforcer = enf;
    mv.app = std::move(*app);
    mv.enforcer_id = static_cast<uint32_t>(i);
    mv.promise = enf->Promise(*required, logical);
    moves->push_back(std::move(mv));
  }
}

Optimizer::Result Optimizer::GreedyPlan(GroupId group,
                                        const PhysPropsPtr& required,
                                        const PhysPropsPtr& excluded,
                                        int depth) {
  const CostModel& cm = model_.cost_model();
  Result failure{nullptr, cm.Infinity()};
  // The in-progress marks already cut (group, goal) cycles; the depth cap is
  // defense in depth against pathological enforcer relaxation chains.
  if (depth > 128) return failure;
  group = memo_.Find(group);
  Goal goal = memo_.CanonicalGoal(required, excluded);
  // Winners recorded before the budget tripped are optimal and complete —
  // reuse them rather than re-planning greedily.
  if (const Winner* w = memo_.FindWinner(group, goal)) {
    return {w->choice, w->cost};
  }
  if (memo_.IsInProgress(group, goal)) return failure;
  memo_.MarkInProgress(group, goal);

  // Moves over the memo as it stands: no transformations, no exploration,
  // hence no memo growth.
  std::vector<Move> moves;
  CollectAlgorithmMoves(group, required, excluded, &moves);
  group = memo_.Find(group);
  const LogicalPropsPtr logical = memo_.LogicalOf(group);
  CollectEnforcerMoves(required, excluded, *logical, &moves);
  search_internal::SortMovesByPromise(moves);

  // Greedy descent: the first move in promise order whose inputs can all be
  // planned wins; later moves are only tried when earlier ones fail.
  Result best = failure;
  for (const Move& mv : moves) {
    if (mv.rule != nullptr) {
      ++stats_.algorithm_moves;
      ++stats_.cost_estimates;
      Cost total = mv.rule->LocalCost(mv.binding, memo_);
      if (!AdmitLocalCost(&total)) continue;
      if (std::isinf(cm.Total(total))) continue;
      std::vector<const PlanChoice*> children;
      children.reserve(mv.binding.num_leaves());
      bool ok = true;
      for (size_t i = 0; i < mv.binding.num_leaves(); ++i) {
        Result r = GreedyPlan(mv.binding.leaf(i), mv.alt.input_props[i],
                              nullptr, depth + 1);
        if (r.choice == nullptr) {
          ok = false;
          break;
        }
        total = cm.Add(total, r.cost);
        children.push_back(r.choice);
      }
      if (!ok) continue;
      PlanChoice* c = memo_.NewChoice();
      RecordAlgorithm(c, mv, logical, total, children);
      best = Result{c, total};
      break;
    }
    ++stats_.enforcer_moves;
    ++stats_.cost_estimates;
    Cost local = mv.enforcer->LocalCost(*logical, *mv.app.delivered);
    if (!AdmitLocalCost(&local)) continue;
    if (std::isinf(cm.Total(local))) continue;
    Result r = GreedyPlan(group, mv.app.input_required, mv.app.excluded,
                          depth + 1);
    if (r.choice == nullptr) continue;
    Cost total = cm.Add(local, r.cost);
    PlanChoice* c = memo_.NewChoice();
    RecordEnforcer(c, *mv.enforcer, mv.enforcer_id, mv.app.delivered, logical,
                   total, r.choice);
    best = Result{c, total};
    break;
  }
  memo_.UnmarkInProgress(group, goal);
  return best;
}

SearchStats Optimizer::stats() const {
  SearchStats s = stats_;
  s.groups_created = memo_.num_groups();
  s.mexprs_created = memo_.num_exprs();
  s.mexprs_deduped = memo_.num_deduped();
  s.group_merges = memo_.num_merges();
  return s;
}

}  // namespace volcano
