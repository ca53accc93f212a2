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
  // it first. Slot optimizers borrow it too — a catalog change invalidates
  // every parked interleaved search.
  slots_.clear();
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
  // cap or a best-first memory cap: they returned a plan without proving it
  // optimal, so they must not be cached as the catalog-state optimum.
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

// ---------------------------------------------------------------------------
// Interleaved suspend/resume serving
// ---------------------------------------------------------------------------

void Session::ConfigureInterleaving(size_t memory_budget_bytes,
                                    int max_concurrent) {
  interleave_budget_bytes_ = memory_budget_bytes;
  interleave_max_ = max_concurrent < 1 ? 1 : max_concurrent;
}

StatusOr<uint64_t> Session::BeginInterleaved(std::string_view sql,
                                             const OptimizationBudget& budget) {
  if (slots_.size() >= static_cast<size_t>(interleave_max_)) {
    // Admission control: shedding a request the budget cannot host beats
    // letting the combined arenas breach it.
    return Status::ResourceExhausted(
               "all interleaving slots are busy; step or abandon an active "
               "search first")
        .WithDetail("active", std::to_string(slots_.size()))
        .WithDetail("max_concurrent", std::to_string(interleave_max_));
  }
  StatusOr<rel::ParsedQuery> parsed = Parse(sql);
  if (!parsed.ok()) return parsed.status();

  SearchOptions opts = config_.options();
  opts.suspend_on_trip = true;
  if (opts.engine == SearchOptions::Engine::kBestFirst &&
      interleave_budget_bytes_ != 0) {
    // Divide the shared budget evenly; the validation floor (128 KiB) is
    // the graceful minimum — below it a slot could not even degrade.
    const size_t share =
        interleave_budget_bytes_ / static_cast<size_t>(interleave_max_);
    opts.memo_byte_limit = share < (128u << 10) ? (128u << 10) : share;
  }
  StatusOr<SearchConfig> cfg = SearchConfig::FromOptions(opts);
  if (!cfg.ok()) return cfg.status();

  auto slot = std::make_unique<InterleavedSlot>();
  slot->ticket = next_ticket_++;
  slot->optimizer = std::make_unique<Optimizer>(*model_, std::move(*cfg));
  slot->optimizer->set_budget(budget);
  slot->algebra = model_->ExprToString(*parsed->expr);
  slot->required = parsed->required->ToString();

  // First slice runs inside Begin; a fast query never parks at all.
  StatusOr<PlanPtr> plan =
      slot->optimizer->Optimize(*parsed->expr, parsed->required);
  if (!slot->optimizer->CanResume()) {
    slot->finished = true;
    slot->final.algebra = slot->algebra;
    slot->final.required = slot->required;
    slot->final.stats = slot->optimizer->stats();
    slot->final.outcome = slot->optimizer->outcome();
    if (!plan.ok()) {
      slot->final.status = plan.status();
    } else {
      RenderPlan(&slot->final, **plan, slot->final.outcome);
    }
  }
  const uint64_t ticket = slot->ticket;
  slots_.push_back(std::move(slot));
  return ticket;
}

Session::Result Session::StepInterleaved(uint64_t ticket) {
  for (size_t i = 0; i < slots_.size(); ++i) {
    if (slots_[i]->ticket != ticket) continue;
    InterleavedSlot& slot = *slots_[i];
    if (slot.finished) {
      Result r = std::move(slot.final);
      slots_.erase(slots_.begin() + static_cast<ptrdiff_t>(i));
      return r;
    }
    StatusOr<PlanPtr> plan = slot.optimizer->Resume();
    if (slot.optimizer->CanResume()) {
      // Still suspended: report progress, keep the slot parked.
      Result r;
      r.algebra = slot.algebra;
      r.required = slot.required;
      r.status = plan.status();
      r.outcome = slot.optimizer->outcome();
      r.stats = slot.optimizer->stats();
      return r;
    }
    Result r;
    r.algebra = slot.algebra;
    r.required = slot.required;
    r.stats = slot.optimizer->stats();
    r.outcome = slot.optimizer->outcome();
    if (!plan.ok()) {
      r.status = plan.status();
    } else {
      RenderPlan(&r, **plan, r.outcome);
    }
    slots_.erase(slots_.begin() + static_cast<ptrdiff_t>(i));
    return r;
  }
  Result r;
  r.status = Status::InvalidArgument("unknown interleaving ticket")
                 .WithDetail("ticket", std::to_string(ticket));
  return r;
}

size_t Session::interleaved_arena_bytes() const {
  size_t total = 0;
  for (const auto& slot : slots_) {
    total += slot->optimizer->memo().arena_bytes();
  }
  return total;
}

}  // namespace volcano::serve
