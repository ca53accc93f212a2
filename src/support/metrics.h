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
#include <cstdio>
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

/// Coarse wall-clock decomposition of one optimizer's lifetime. Only the
/// outermost activation of each phase accumulates (the search is mutually
/// recursive), so the phases do not double-count; `other` in reports is
/// total − explore − pursue (move collection, table look-ups, bookkeeping).
struct PhaseTimers {
  bool enabled = false;
  double total_seconds = 0.0;    ///< inside top-level Optimize/OptimizeGroup
  double explore_seconds = 0.0;  ///< inside the outermost ExploreGroup
  double pursue_seconds = 0.0;   ///< inside the outermost PursueMove
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

inline void AppendRuleArray(const char* key,
                            const std::vector<RuleCounters>& rules,
                            bool with_winners, std::string* out) {
  out->append("\"");
  out->append(key);
  out->append("\": [");
  bool first = true;
  for (const RuleCounters& r : rules) {
    if (r.fired == 0 && r.succeeded == 0 && r.winners == 0) continue;
    if (!first) out->append(", ");
    first = false;
    out->append("{\"rule\": \"");
    JsonWriter::Escape(r.name, out);
    out->append("\", \"fired\": ");
    out->append(std::to_string(r.fired));
    out->append(", \"succeeded\": ");
    out->append(std::to_string(r.succeeded));
    if (with_winners) {
      out->append(", \"winners\": ");
      out->append(std::to_string(r.winners));
    }
    out->append("}");
  }
  out->append("]");
}

}  // namespace metrics_internal

/// Renders the registry as a JSON object (rules with all-zero counters are
/// elided; timers appear only when they were collected).
inline std::string MetricsToJson(const SearchMetrics& m) {
  std::string out = "{";
  metrics_internal::AppendRuleArray("transformations", m.transformations,
                                    /*with_winners=*/false, &out);
  out.append(", ");
  metrics_internal::AppendRuleArray("implementations", m.implementations,
                                    /*with_winners=*/true, &out);
  out.append(", ");
  metrics_internal::AppendRuleArray("enforcers", m.enforcers,
                                    /*with_winners=*/true, &out);
  if (m.phases.enabled) {
    char buf[160];
    std::snprintf(buf, sizeof(buf),
                  ", \"phases\": {\"total_s\": %.6f, \"explore_s\": %.6f, "
                  "\"pursue_s\": %.6f, \"other_s\": %.6f}",
                  m.phases.total_seconds, m.phases.explore_seconds,
                  m.phases.pursue_seconds,
                  m.phases.total_seconds - m.phases.explore_seconds -
                      m.phases.pursue_seconds);
    out.append(buf);
  }
  out.append("}");
  return out;
}

}  // namespace volcano

#endif  // VOLCANO_SUPPORT_METRICS_H_
