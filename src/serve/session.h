// A per-worker optimization session.
//
// A session owns the machinery one serving worker needs to answer SQL
// requests against the shared catalog: a RelModel derived from the catalog
// and a single long-lived Optimizer whose memo is recycled between requests
// with Optimizer::ResetForReuse() — arena blocks and hash-table capacity are
// retained, so after a warm-up period the session's memory footprint is flat
// no matter how many requests it serves (the soak tests assert this through
// arena_bytes()).
//
// Catalog changes: the session snapshots the catalog version when it builds
// its model. SyncCatalog() compares against the live version and rebuilds
// the model + optimizer when stale — logical properties, cached property
// vectors, and rule-set storage all derive from catalog state, so a stale
// model must never optimize another request. The server guarantees that the
// catalog is not mutated while any session is inside OptimizeSql (reader/
// writer lock).

#ifndef VOLCANO_SERVE_SESSION_H_
#define VOLCANO_SERVE_SESSION_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "relational/rel_model.h"
#include "relational/sql.h"
#include "search/optimizer.h"
#include "search/search_config.h"
#include "search/search_options.h"
#include "support/budget.h"
#include "support/status.h"

namespace volcano::serve {

class Session {
 public:
  /// The fully-rendered result of one request's optimization. All string
  /// fields are deterministic functions of (catalog state, SQL text), which
  /// is what makes them cacheable.
  struct Result {
    Status status;          ///< non-OK => every other field is empty
    std::string algebra;    ///< logical algebra rendering
    std::string required;   ///< required physical properties
    std::string plan;       ///< one-line physical plan
    std::string cost;       ///< plan cost rendering
    PlanSource source = PlanSource::kExhaustive;
    bool degraded = false;  ///< source below the exhaustive rung
    OptimizeOutcome outcome;
    SearchStats stats;      ///< per-request search effort
  };

  /// `config` carries the validated search configuration (holding a
  /// SearchConfig is proof the knob combination is one the engine supports);
  /// its budget field is overridden per request. The catalog must outlive
  /// the session. The catalog reference is non-const only because the SQL
  /// parser interns into its symbol table; the server pre-interns those
  /// symbols so concurrent sessions never write to it (see Server's
  /// constructor).
  Session(rel::Catalog& catalog, SearchConfig config,
          rel::RelModelOptions model_options = {});

  /// Rebuilds the model + optimizer if the catalog version moved since the
  /// model was derived. Returns true when a rebuild happened.
  bool SyncCatalog();

  /// Parses one request against the session's model. Syntax and semantic
  /// errors come back as structured Status; no path aborts the process.
  /// The ParsedQuery borrows the model — it must not outlive a SyncCatalog
  /// rebuild.
  StatusOr<rel::ParsedQuery> Parse(std::string_view sql);

  /// Optimizes a query parsed by Parse() under `budget`. Degradation runs
  /// the full ladder: anytime incumbent and greedy descent inside the
  /// engine (SearchOptions::Degradation::kAnytime), then — when the engine
  /// still returns ResourceExhausted and `exodus_fallback` is set — one
  /// retry against the EXODUS baseline.
  Result Optimize(const rel::ParsedQuery& parsed,
                  const OptimizationBudget& budget, bool exodus_fallback);

  /// Parse + Optimize in one call (single-shot tools and tests).
  Result OptimizeSql(std::string_view sql, const OptimizationBudget& budget,
                     bool exodus_fallback);

  /// Catalog version the current model was derived from.
  uint64_t model_version() const { return model_version_; }

  /// Times SyncCatalog rebuilt the model (mirrors into ServeStats).
  uint64_t model_rebuilds() const { return model_rebuilds_; }

  /// Arena bytes backing the optimizer's memo — the steady-state memory
  /// telemetry the soak tests assert plateaus under request churn.
  size_t arena_bytes() const { return optimizer_->memo().arena_bytes(); }

  const rel::RelModel& model() const { return *model_; }
  Optimizer& optimizer() { return *optimizer_; }

 private:
  void Rebuild();

  /// Fills plan/cost/source/degraded from a successful optimization. A plan
  /// is cache-eligible only when neither degraded nor approximate — a search
  /// that tripped its exploration cap, or whose guided big-join search ended
  /// on its join seed, produced a plan, not the optimum (serve's PlanCache
  /// keys off `degraded`).
  void RenderPlan(Result* r, const PlanNode& plan,
                  const OptimizeOutcome& outcome);

  rel::Catalog& catalog_;
  SearchConfig config_;
  rel::RelModelOptions model_options_;
  std::unique_ptr<rel::RelModel> model_;
  std::unique_ptr<Optimizer> optimizer_;
  uint64_t model_version_ = 0;
  uint64_t model_rebuilds_ = 0;
};

}  // namespace volcano::serve

#endif  // VOLCANO_SERVE_SESSION_H_
