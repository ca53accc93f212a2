#include "serve/session.h"

#include <utility>

#include "exodus/exodus_optimizer.h"
#include "search/plan.h"

namespace volcano::serve {

Session::Session(rel::Catalog& catalog, SearchConfig config,
                 rel::RelModelOptions model_options)
    : catalog_(catalog),
      config_(std::move(config)),
      model_options_(std::move(model_options)) {
  Rebuild();
}

void Session::Rebuild() {
  // The optimizer borrows the model (rule names, property caches); destroy
  // it first.
  optimizer_.reset();
  model_ = std::make_unique<rel::RelModel>(catalog_, model_options_);
  optimizer_ = std::make_unique<Optimizer>(*model_, config_);
  model_version_ = catalog_.version();
}

bool Session::SyncCatalog() {
  if (model_version_ == catalog_.version()) return false;
  Rebuild();
  ++model_rebuilds_;
  return true;
}

StatusOr<rel::ParsedQuery> Session::Parse(std::string_view sql) {
  return rel::ParseSql(sql, *model_, catalog_.symbols());
}

Session::Result Session::Optimize(const rel::ParsedQuery& parsed,
                                  const OptimizationBudget& budget,
                                  bool exodus_fallback) {
  Result r;
  // Recycle the memo: arena blocks and table capacity survive, so the
  // steady-state footprint is flat across requests.
  optimizer_->ResetForReuse();
  optimizer_->set_budget(budget);

  r.algebra = model_->ExprToString(*parsed.expr);
  r.required = parsed.required->ToString();

  StatusOr<PlanPtr> plan = optimizer_->Optimize(*parsed.expr, parsed.required);
  OptimizeOutcome outcome = optimizer_->outcome();
  if (!plan.ok() &&
      plan.status().code() == Status::Code::kResourceExhausted &&
      exodus_fallback) {
    // Last rung of the ladder: the engine's own degradation (anytime
    // incumbent, greedy descent) came up empty; retry once against the
    // EXODUS baseline, which needs no exploration closure.
    exodus::ExodusOptimizer baseline(*model_);
    StatusOr<PlanPtr> fb = baseline.Optimize(*parsed.expr, parsed.required);
    if (fb.ok()) {
      plan = std::move(fb);
      outcome.source = PlanSource::kExodusFallback;
      outcome.approximate = true;
    }
  }
  r.stats = optimizer_->stats();
  r.outcome = outcome;
  if (!plan.ok()) {
    r.status = plan.status();
    return r;
  }
  RenderPlan(&r, **plan, outcome);
  return r;
}

void Session::RenderPlan(Result* r, const PlanNode& plan,
                         const OptimizeOutcome& outcome) {
  r->source = outcome.source;
  // `approximate` covers searches that completed under a tripped exploration
  // cap, or whose guided big-join search ended on its join seed: they
  // returned a plan without proving it optimal, so they must not be cached
  // as the catalog-state optimum.
  r->degraded =
      outcome.source != PlanSource::kExhaustive || outcome.approximate;
  r->plan = PlanToLine(plan, model_->registry());
  r->cost = model_->cost_model().ToString(plan.cost());
}

Session::Result Session::OptimizeSql(std::string_view sql,
                                     const OptimizationBudget& budget,
                                     bool exodus_fallback) {
  StatusOr<rel::ParsedQuery> parsed = Parse(sql);
  if (!parsed.ok()) {
    Result r;
    r.status = parsed.status();
    return r;
  }
  return Optimize(*parsed, budget, exodus_fallback);
}

}  // namespace volcano::serve
