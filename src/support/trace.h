// Structured tracing for the search engine.
//
// The paper's efficiency claim — directed dynamic programming visits fewer
// expressions than exhaustive forward chaining — is an observable property of
// the search, and this header defines how it is observed: a TraceSink
// receives typed TraceEvents from the memo and the optimizer (expression and
// class creation, class merges, rule firings, winner installs, pruning,
// enforcer insertion, budget trips). Consumers turn the stream into
// JSON-lines files (search/trace_io.h), per-rule provenance annotations
// (search/dot.cc), or test assertions (tests/trace_test.cc).
//
// Cost contract: with no sink installed, every emission site is one pointer
// test and nothing else — the event struct is not even constructed (the
// VOLCANO_TRACE macro evaluates its arguments only behind the null check).
// Building with -DVOLCANO_TRACE=OFF (CMake) defines VOLCANO_TRACE_DISABLED
// and compiles the sites out entirely; BENCH_4.json pins the resulting
// hot-path numbers against BENCH_3.json. Events are plain structs of ids,
// borrowed C strings, and doubles: emission never allocates either.
//
// Layering: this header is support-level and deliberately knows nothing
// about expressions, properties, or rules — events carry raw 32-bit ids
// (class ids, expression serials, rule ids) and names borrowed from
// longer-lived owners (the RuleSet, the OperatorRegistry). The search layer
// attaches the meaning.

#ifndef VOLCANO_SUPPORT_TRACE_H_
#define VOLCANO_SUPPORT_TRACE_H_

#include <cstdint>

namespace volcano {

/// "No id" marker for TraceEvent's optional id fields.
inline constexpr uint32_t kTraceNoId = 0xffffffffu;

/// The event taxonomy (see DESIGN.md §8). One enumerator per observable
/// search action; fields of TraceEvent that an event kind does not use stay
/// at their defaults and are omitted by the JSON writer.
enum class TraceEventKind : uint8_t {
  kGroupCreated = 0,     ///< new equivalence class (group = id)
  kMExprCreated,         ///< new multi-expression (group, mexpr serial, rule
                         ///< = provenance, detail = operator name)
  kGroupsMerged,         ///< classes proven equivalent (group keeps, other
                         ///< merged away)
  kRuleFired,            ///< transformation applied (rule, rule_id, group,
                         ///< count = bindings that produced expressions)
  kAlgorithmPursued,     ///< algorithm move pursued (rule, promise, group)
  kEnforcerPursued,      ///< enforcer move pursued (rule, promise, group)
  kMovePruned,           ///< branch-and-bound abandoned a move (rule, cost =
                         ///< bound it exceeded)
  kWinnerInstalled,      ///< first complete plan for a goal (rule, cost)
  kWinnerImproved,       ///< cheaper complete plan replaced the incumbent
  kBudgetTrip,           ///< a budget checkpoint tripped (detail = which)
};

inline const char* TraceEventKindName(TraceEventKind kind) {
  switch (kind) {
    case TraceEventKind::kGroupCreated: return "group_created";
    case TraceEventKind::kMExprCreated: return "mexpr_created";
    case TraceEventKind::kGroupsMerged: return "groups_merged";
    case TraceEventKind::kRuleFired: return "rule_fired";
    case TraceEventKind::kAlgorithmPursued: return "algorithm_pursued";
    case TraceEventKind::kEnforcerPursued: return "enforcer_pursued";
    case TraceEventKind::kMovePruned: return "move_pruned";
    case TraceEventKind::kWinnerInstalled: return "winner_installed";
    case TraceEventKind::kWinnerImproved: return "winner_improved";
    case TraceEventKind::kBudgetTrip: return "budget_trip";
  }
  return "unknown";
}

/// One observed search action. Fixed-size, allocation-free; string fields
/// borrow from owners that outlive the optimization (rule names from the
/// RuleSet, operator names from the OperatorRegistry, budget-trip names from
/// static storage). Sinks that outlive the optimizer must copy what they
/// keep.
struct TraceEvent {
  TraceEventKind kind{};
  uint32_t group = kTraceNoId;   ///< equivalence class id (normalized)
  uint32_t other = kTraceNoId;   ///< merge loser, or the mexpr serial
  uint32_t rule_id = kTraceNoId; ///< id within its rule table
  uint32_t count = 0;            ///< e.g. bindings that yielded expressions
  const char* rule = nullptr;    ///< rule / enforcer name
  const char* detail = nullptr;  ///< operator name, budget-trip name, ...
  double promise = 0.0;          ///< move ordering key, where applicable
  double cost = 0.0;             ///< scalar cost summary, where applicable
  /// Monotonic per-optimizer sequence number, stamped at emission (before
  /// the sink sees the event); 1-based so 0 means "not stamped".
  uint64_t seq = 0;
};

/// Receiver interface. Implementations must tolerate events arriving in any
/// order the search produces them and must not re-enter the optimizer.
class TraceSink {
 public:
  virtual ~TraceSink() = default;
  virtual void OnEvent(const TraceEvent& event) = 0;
};

/// Stamps every event with a per-optimizer monotonic sequence number
/// (TraceEvent::seq), then forwards to the wrapped sink. The optimizer
/// interposes one of these in front of any user-installed sink. Untraced
/// runs never reach this code (the emission macro's null check
/// short-circuits first).
class StampingTraceSink : public TraceSink {
 public:
  void set_inner(TraceSink* inner) { inner_ = inner; }

  void OnEvent(const TraceEvent& event) override {
    TraceEvent e = event;
    e.seq = ++seq_;
    if (inner_ != nullptr) inner_->OnEvent(e);
  }

 private:
  TraceSink* inner_ = nullptr;
  uint64_t seq_ = 0;
};

/// Emission macro: evaluates the event expression only when a sink is
/// installed; compiled out entirely under VOLCANO_TRACE_DISABLED. Variadic so
/// designated-initializer commas need no extra parentheses.
#if !defined(VOLCANO_TRACE_DISABLED)
#define VOLCANO_TRACE(sink, ...)                          \
  do {                                                    \
    ::volcano::TraceSink* volcano_trace_sink_ = (sink);   \
    if (volcano_trace_sink_ != nullptr) {                 \
      volcano_trace_sink_->OnEvent(__VA_ARGS__);          \
    }                                                     \
  } while (0)
#define VOLCANO_TRACE_COMPILED_IN 1
#else
#define VOLCANO_TRACE(sink, ...) \
  do {                           \
  } while (0)
#define VOLCANO_TRACE_COMPILED_IN 0
#endif

}  // namespace volcano

#endif  // VOLCANO_SUPPORT_TRACE_H_
