#include "search/search_options.h"

#include <cstdio>
#include <sstream>

#include "support/json_writer.h"

namespace volcano {

std::string SearchStats::ToString() const {
  std::ostringstream os;
  os << "FindBestPlan calls: " << find_best_plan_calls
     << ", winner hits: " << memo_winner_hits
     << ", above-limit hits: " << memo_above_limit_hits
     << ", in-progress hits: " << in_progress_hits << "\n"
     << "classes: " << groups_created << ", expressions: " << mexprs_created
     << ", merges: " << group_merges << "\n"
     << "transformations matched/applied: " << transformations_matched << "/"
     << transformations_applied << "\n"
     << "algorithm moves: " << algorithm_moves
     << ", enforcer moves: " << enforcer_moves
     << ", cost estimates: " << cost_estimates << "\n"
     << "pruned: " << moves_pruned << ", skipped by move limit: "
     << moves_skipped << "\n"
     << "goals completed: " << goals_completed
     << ", goals started/finished: " << goals_started << "/" << goals_finished
     << ", budget checkpoints: " << budget_checkpoints
     << ", invalid costs rejected: " << invalid_costs
     << ", seed plans: " << seed_plans << "\n"
     << "tasks executed: " << tasks_executed
     << ", task stack high-water: " << task_stack_high_water
     << ", suspensions: " << suspensions
     << ", native stack high-water: " << native_stack_high_water << " bytes";
  return os.str();
}

std::string SearchStats::ToJson() const {
  JsonWriter w;
  w.BeginObject();
  w.Key("find_best_plan_calls").Value(find_best_plan_calls);
  w.Key("memo_winner_hits").Value(memo_winner_hits);
  w.Key("memo_above_limit_hits").Value(memo_above_limit_hits);
  w.Key("in_progress_hits").Value(in_progress_hits);
  w.Key("groups_created").Value(groups_created);
  w.Key("mexprs_created").Value(mexprs_created);
  w.Key("mexprs_deduped").Value(mexprs_deduped);
  w.Key("group_merges").Value(group_merges);
  w.Key("transformations_matched").Value(transformations_matched);
  w.Key("transformations_applied").Value(transformations_applied);
  w.Key("algorithm_moves").Value(algorithm_moves);
  w.Key("enforcer_moves").Value(enforcer_moves);
  w.Key("cost_estimates").Value(cost_estimates);
  w.Key("moves_pruned").Value(moves_pruned);
  w.Key("moves_skipped").Value(moves_skipped);
  w.Key("goals_completed").Value(goals_completed);
  w.Key("goals_started").Value(goals_started);
  w.Key("goals_finished").Value(goals_finished);
  w.Key("budget_checkpoints").Value(budget_checkpoints);
  w.Key("invalid_costs").Value(invalid_costs);
  w.Key("seed_plans").Value(seed_plans);
  w.Key("tasks_executed").Value(tasks_executed);
  w.Key("task_stack_high_water").Value(task_stack_high_water);
  w.Key("suspensions").Value(suspensions);
  w.Key("native_stack_high_water").Value(native_stack_high_water);
  w.EndObject();
  return w.Take();
}

std::string OptimizeOutcome::ToString() const {
  std::ostringstream os;
  os << "source: " << PlanSourceName(source)
     << ", budget tripped: " << BudgetTripName(trip)
     << ", approximate: " << (approximate ? "yes" : "no")
     << ", suspended: " << (suspended ? "yes" : "no");
  char pct[32];
  std::snprintf(pct, sizeof(pct), "%.1f%%", search_completed * 100.0);
  os << ", search completed: " << pct;
  return os.str();
}

std::string OptimizeOutcome::ToJson() const {
  JsonWriter w;
  w.BeginObject();
  w.Key("source").Value(PlanSourceName(source));
  w.Key("budget_trip").Value(BudgetTripName(trip));
  w.Key("approximate").Value(approximate);
  w.Key("suspended").Value(suspended);
  w.Key("search_completed").Fixed(search_completed, 6);
  w.EndObject();
  return w.Take();
}

}  // namespace volcano
