// Counters and timers registry for the search layer.
//
// SearchStats (search/search_options.h) answers "how much total effort"; the
// metrics registry answers "which rule did it and when": per-rule
// fired/succeeded/yielded-winner counts for every transformation,
// implementation, and enforcer rule, plus coarse per-phase wall-clock
// timers. Together with the trace stream (support/trace.h) this is what
// makes the paper's Volcano-vs-EXODUS effort comparison reproducible from
// emitted data instead of ad-hoc printf counters.
//
// Counter updates are unconditional array increments indexed by rule id —
// cheap enough to stay on in every build. Phase timers call the clock, so
// they are gated behind SearchOptions::collect_phase_timing and report zero
// when disabled.

#ifndef VOLCANO_SUPPORT_METRICS_H_
#define VOLCANO_SUPPORT_METRICS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "support/json_writer.h"

namespace volcano {

/// Effort attributed to one rule. The three counts mean, per rule kind:
///  * transformation: fired = applications attempted after a successful
///    match + condition, succeeded = new expressions actually derived,
///    winners = (unused, transformations do not produce plans directly);
///  * implementation: fired = moves pursued, succeeded = moves that built a
///    complete plan and (at least temporarily) became the goal's incumbent,
///    winners = goals whose final recorded winner this rule produced;
///  * enforcer: same as implementation.
struct RuleCounters {
  const char* name = "";  ///< borrowed from the RuleSet (outlives the memo)
  uint64_t fired = 0;
  uint64_t succeeded = 0;
  uint64_t winners = 0;
};

/// Coarse wall-clock decomposition of one optimizer's lifetime. The task
/// engine times each step under one phase — a step below a pursued move is
/// pursue time, an exploration outside any move is explore time — so the
/// phases do not double-count; `other` in reports is total − explore −
/// pursue (goal entry, move collection, table look-ups, bookkeeping).
struct PhaseTimers {
  bool enabled = false;
  double total_seconds = 0.0;    ///< inside top-level Optimize/OptimizeGroup
  double explore_seconds = 0.0;  ///< exploration outside any pursued move
  double pursue_seconds = 0.0;   ///< everything below a pursued move
};

/// The per-optimizer registry: one RuleCounters slot per registered rule,
/// indexed by rule id (enforcers by their registration order), plus the
/// phase timers.
struct SearchMetrics {
  std::vector<RuleCounters> transformations;
  std::vector<RuleCounters> implementations;
  std::vector<RuleCounters> enforcers;
  PhaseTimers phases;
};

namespace metrics_internal {

inline void WriteRuleArray(const char* key,
                           const std::vector<RuleCounters>& rules,
                           bool with_winners, JsonWriter* w) {
  w->Key(key).BeginArray();
  for (const RuleCounters& r : rules) {
    if (r.fired == 0 && r.succeeded == 0 && r.winners == 0) continue;
    w->BeginObject();
    w->Key("rule").Value(r.name);
    w->Key("fired").Value(r.fired);
    w->Key("succeeded").Value(r.succeeded);
    if (with_winners) w->Key("winners").Value(r.winners);
    w->EndObject();
  }
  w->EndArray();
}

}  // namespace metrics_internal

/// Renders the registry as a JSON object (rules with all-zero counters are
/// elided; timers appear only when they were collected).
inline std::string MetricsToJson(const SearchMetrics& m) {
  JsonWriter w;
  w.BeginObject();
  metrics_internal::WriteRuleArray("transformations", m.transformations,
                                   /*with_winners=*/false, &w);
  metrics_internal::WriteRuleArray("implementations", m.implementations,
                                   /*with_winners=*/true, &w);
  metrics_internal::WriteRuleArray("enforcers", m.enforcers,
                                   /*with_winners=*/true, &w);
  if (m.phases.enabled) {
    const PhaseTimers& p = m.phases;
    w.Key("phases").BeginObject();
    w.Key("total_s").Fixed(p.total_seconds, 6);
    w.Key("explore_s").Fixed(p.explore_seconds, 6);
    w.Key("pursue_s").Fixed(p.pursue_seconds, 6);
    w.Key("other_s").Fixed(
        p.total_seconds - p.explore_seconds - p.pursue_seconds, 6);
    w.EndObject();
  }
  w.EndObject();
  return w.Take();
}

}  // namespace volcano

#endif  // VOLCANO_SUPPORT_METRICS_H_
