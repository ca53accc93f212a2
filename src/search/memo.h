// The memo: a hash table of expressions and equivalence classes.
//
// "In order to prevent redundant optimization effort by detecting redundant
// (i.e., multiple equivalent) derivations of the same logical expressions and
// plans during optimization, expressions and plans are captured in a hash
// table of expressions and equivalence classes. An equivalence class
// represents two collections, one of equivalent logical and one of physical
// expressions (plans). ... For each combination of physical properties for
// which an equivalence class has already been optimized, e.g., unsorted,
// sorted on A, and sorted on B, the best plan found is kept." (paper, §3)
//
// The paper memoizes failures too ("failures that can save future
// optimization effort"). This memo does not: every input goal is searched
// without a cost limit (search_options.h, branch_and_bound), so below the
// root nothing fails for cost and a failure record would never be read.
//
// Memory layout (see DESIGN.md §7): multi-expressions are bump-allocated
// from a per-memo arena; input-class lists are arena arrays normalized in
// place across merges; classes and plan choices are kept across Reset and
// reused by the next query; all look-up tables are open-addressing
// (support/flat_hash.h); and optimization goals are canonicalized through a
// property-vector interner so goal equality is pointer identity and goal
// hashes are precomputed.

#ifndef VOLCANO_SEARCH_MEMO_H_
#define VOLCANO_SEARCH_MEMO_H_

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "algebra/data_model.h"
#include "algebra/expr.h"
#include "algebra/ids.h"
#include "algebra/op_arg.h"
#include "algebra/properties.h"
#include "algebra/props_interner.h"
#include "rules/rex.h"
#include "search/plan.h"
#include "support/arena.h"
#include "support/flat_hash.h"
#include "support/hash.h"
#include "support/status.h"
#include "support/trace.h"

namespace volcano {

/// Width of MExpr's fired-rule mask: one bit per transformation rule.
/// RuleSet::kMaxTransformationRules must never exceed this.
inline constexpr uint32_t kFiredMaskBits = 64;

/// A logical multi-expression: an operator over equivalence classes. Stored
/// input group ids may become stale after class merges; always resolve
/// through Memo::Find(). Instances live in the owning memo's arena; the
/// input-class list is an arena array rewritten in place when classes merge.
class MExpr {
 public:
  MExpr(OperatorId op, OpArgPtr arg, GroupId* inputs, uint32_t num_inputs,
        GroupId group, uint64_t sig_base, uint64_t sig_hash)
      : op_(op), num_inputs_(num_inputs), group_(group), arg_(std::move(arg)),
        inputs_(inputs), sig_base_(sig_base), sig_hash_(sig_hash) {}

  OperatorId op() const { return op_; }
  const OpArgPtr& arg() const { return arg_; }
  std::span<const GroupId> inputs() const { return {inputs_, num_inputs_}; }
  size_t num_inputs() const { return num_inputs_; }
  GroupId input(size_t i) const { return inputs_[i]; }

  /// Owning equivalence class (kept current across merges).
  GroupId group() const { return group_; }

  /// Creation serial within the memo (stable across merges; dead expressions
  /// keep theirs). Used by traces and the dot dump to name expressions.
  uint32_t id() const { return id_; }

  /// Name of the transformation rule whose application derived this
  /// expression, or null for expressions copied in from the original query.
  /// Borrowed from the RuleSet, which outlives the memo.
  const char* provenance() const { return provenance_; }

  /// True once superseded by an identical expression after a class merge.
  bool dead() const { return dead_; }

  /// Mask of transformation rules already applied to this expression; guards
  /// against re-deriving the same expressions and detects rule inverses
  /// together with the in-progress marking. Rule ids at or past
  /// kFiredMaskBits would shift out of the mask and silently disable the
  /// guard, so they are rejected outright.
  uint64_t fired_mask() const { return fired_; }
  void MarkFired(RuleId rule) {
    VOLCANO_CHECK(rule < kFiredMaskBits);
    fired_ |= uint64_t{1} << rule;
  }
  bool HasFired(RuleId rule) const {
    VOLCANO_DCHECK(rule < kFiredMaskBits);
    return (fired_ & (uint64_t{1} << rule)) != 0;
  }
  /// Takes back a MarkFired whose application did not run to completion,
  /// so a later search applies the rule.
  void UnmarkFired(RuleId rule) {
    VOLCANO_DCHECK(rule < kFiredMaskBits);
    fired_ &= ~(uint64_t{1} << rule);
  }
  /// Marks every rule in `rule_mask` fired: a rule the deriving rule
  /// disables (TransformationRule::disables) never fires here.
  void MarkFiredMask(uint64_t rule_mask) { fired_ |= rule_mask; }

 private:
  friend class Memo;

  OperatorId op_;
  uint32_t num_inputs_;
  GroupId group_;
  OpArgPtr arg_;
  GroupId* inputs_;  // arena array; normalized in place on merges
  uint32_t id_ = 0;  // creation serial, assigned by the memo
  const char* provenance_ = nullptr;  // deriving rule name (borrowed)
  uint64_t fired_ = 0;
  // Signature hashing is split so re-canonicalization after a merge only
  // re-mixes the input ids: sig_base_ covers (op, arg) — the part that never
  // changes — and sig_hash_ is the full table hash kept current.
  uint64_t sig_base_;
  uint64_t sig_hash_;
  bool dead_ = false;
};

/// The best plan found for one (class, required properties, exclusion)
/// optimization goal, with its cost: the winning move as the search
/// recorded it (see PlanChoice), owned by the memo.
struct Winner {
  const PlanChoice* choice = nullptr;  ///< never null once stored
  Cost cost;
};

/// Key for the winner table: required physical properties plus the optional
/// excluding physical property vector (used when optimizing enforcer inputs).
/// This is the by-value form used at API boundaries; internally the memo
/// canonicalizes it to a Goal (interned pointers) once per look-up.
struct GoalKey {
  PhysPropsPtr required;
  PhysPropsPtr excluded;  ///< may be null

  friend bool operator==(const GoalKey& a, const GoalKey& b) {
    if (!a.required->Equals(*b.required)) return false;
    if ((a.excluded == nullptr) != (b.excluded == nullptr)) return false;
    return a.excluded == nullptr || a.excluded->Equals(*b.excluded);
  }
};

/// A canonicalized optimization goal: both vectors are interned in the memo's
/// PropsInterner, so equality is pointer identity and the hash reuses the
/// vectors' cached value hashes. The interner (and thus the memo) keeps the
/// pointed-to vectors alive. See docs/SEARCH.md.
struct Goal {
  const PhysProps* required = nullptr;
  const PhysProps* excluded = nullptr;  ///< may be null

  friend bool operator==(Goal a, Goal b) {
    return a.required == b.required && a.excluded == b.excluded;
  }
  friend bool operator!=(Goal a, Goal b) { return !(a == b); }
};

/// Hashes a Goal by the *values* of its vectors (cached), not by pointer, so
/// table layouts — and hence iteration order and run-to-run behavior — do not
/// depend on allocation addresses. Consistent with Goal's pointer equality
/// because interning maps value equality to pointer identity.
struct GoalHash {
  uint64_t operator()(Goal g) const {
    uint64_t h = g.required->CachedHash();
    if (g.excluded != nullptr) h = HashCombine(h, g.excluded->CachedHash());
    return h;
  }
};

/// An equivalence class: logical expressions, winners per goal, logical
/// properties, and exploration state. The memo keeps its Group objects
/// across Reset and hands them out again, with their vectors' and tables'
/// capacity, to the next query's classes.
class Group {
 public:
  const std::vector<MExpr*>& exprs() const { return exprs_; }
  const LogicalPropsPtr& logical() const { return logical_; }

  bool explored() const { return explored_; }
  bool exploring() const { return exploring_; }

  /// Winner for a canonical goal, if known.
  const Winner* FindWinner(Goal goal) const {
    return winners_.FindHashed(GoalHash{}(goal),
                               [goal](Goal g) { return g == goal; });
  }

  /// Value-based probe for a non-canonical key (test/diagnostic path): same
  /// hash (goal hashes are value hashes), deep equality.
  const Winner* FindWinner(const GoalKey& key) const {
    uint64_t h = key.required->CachedHash();
    if (key.excluded != nullptr) {
      h = HashCombine(h, key.excluded->CachedHash());
    }
    return winners_.FindHashed(h, [&key](Goal g) {
      if (!g.required->Equals(*key.required)) return false;
      if ((g.excluded == nullptr) != (key.excluded == nullptr)) return false;
      return g.excluded == nullptr || g.excluded->Equals(*key.excluded);
    });
  }

  size_t num_winners() const { return winners_.size(); }

 private:
  friend class Memo;

  /// Empties the class for reuse, keeping every container's capacity.
  void Recycle();

  std::vector<MExpr*> exprs_;
  // Parents index: expressions that take this class as an input, used to
  // re-canonicalize their signatures when the class merges away.
  std::vector<MExpr*> referencing_;
  LogicalPropsPtr logical_;
  bool explored_ = false;
  bool exploring_ = false;
  FlatHashMap<Goal, Winner, GoalHash> winners_;
  FlatHashSet<Goal, GoalHash> in_progress_;
};

/// The expression / equivalence-class store with duplicate detection and
/// class merging.
class Memo {
 public:
  explicit Memo(const DataModel& model) : model_(model) {}
  ~Memo();

  Memo(const Memo&) = delete;
  Memo& operator=(const Memo&) = delete;

  /// Copies a query tree into the memo; returns the root class.
  GroupId InsertQuery(const Expr& expr);

  /// Inserts the rule-produced expression rooted at `root` of `rex`, with
  /// the root going into class `target`. May merge classes; returns the
  /// (normalized) root class. `*created`, when given, is set to the root
  /// expression if this call created it, and to null if it already existed
  /// (or the root is a leaf).
  GroupId InsertRex(const Rex& rex, Rex::Ref root, GroupId target,
                    MExpr** created = nullptr);

  /// Inserts one multi-expression. `target == kInvalidGroup` means "create a
  /// new class unless an identical expression already exists". Returns the
  /// expression (new or existing) and whether it was newly created.
  std::pair<MExpr*, bool> InsertMExpr(OperatorId op, OpArgPtr arg,
                                      std::span<const GroupId> inputs,
                                      GroupId target);
  std::pair<MExpr*, bool> InsertMExpr(OperatorId op, OpArgPtr arg,
                                      const std::vector<GroupId>& inputs,
                                      GroupId target) {
    return InsertMExpr(op, std::move(arg), std::span<const GroupId>(inputs),
                       target);
  }

  /// Resolves a class id through pending merges (union-find with path
  /// compression).
  GroupId Find(GroupId g) const;

  Group& group(GroupId g) { return *groups_[Find(g)]; }
  const Group& group(GroupId g) const { return *groups_[Find(g)]; }

  /// Logical properties of a class (derived once at class creation).
  const LogicalPropsPtr& LogicalOf(GroupId g) const {
    return group(g).logical_;
  }

  // --- goal canonicalization ----------------------------------------------

  /// Interns a property vector; all goals passing through the memo's tables
  /// use canonical vectors, so two Goals are equal iff their pointers are.
  PhysPropsPtr InternProps(const PhysPropsPtr& props) const {
    return interner_.Intern(props);
  }

  /// Canonical goal for (required, excluded != null only under an enforcer).
  Goal CanonicalGoal(const PhysPropsPtr& required,
                     const PhysPropsPtr& excluded) const {
    Goal g;
    g.required = interner_.InternRaw(required);
    g.excluded = interner_.InternRaw(excluded);
    return g;
  }

  /// Distinct property-vector values interned so far (diagnostics).
  size_t num_interned_props() const { return interner_.size(); }

  // --- winner table -------------------------------------------------------

  const Winner* FindWinner(GroupId g, Goal goal) const {
    return group(g).FindWinner(goal);
  }
  const Winner* FindWinner(GroupId g, const GoalKey& key) const {
    return FindWinner(g, CanonicalGoal(key.required, key.excluded));
  }
  void StoreWinner(GroupId g, Goal goal, Winner w);
  void StoreWinner(GroupId g, const GoalKey& key, Winner w) {
    StoreWinner(g, CanonicalGoal(key.required, key.excluded), std::move(w));
  }

  /// Forgets every class's winners (the choices stay valid until Reset).
  void DropWinners();

  /// A blank plan choice from the memo's store, valid until Reset. The
  /// store keeps its blocks across Reset, so a query that records no more
  /// choices than an earlier one allocates none.
  PlanChoice* NewChoice();

  bool IsInProgress(GroupId g, Goal goal) const {
    return group(g).in_progress_.Contains(goal);
  }
  bool IsInProgress(GroupId g, const GoalKey& key) const {
    return IsInProgress(g, CanonicalGoal(key.required, key.excluded));
  }
  void MarkInProgress(GroupId g, Goal goal) {
    group(g).in_progress_.Insert(goal);
  }
  void MarkInProgress(GroupId g, const GoalKey& key) {
    MarkInProgress(g, CanonicalGoal(key.required, key.excluded));
  }
  void UnmarkInProgress(GroupId g, Goal goal) {
    group(g).in_progress_.Erase(goal);
  }
  void UnmarkInProgress(GroupId g, const GoalKey& key) {
    UnmarkInProgress(g, CanonicalGoal(key.required, key.excluded));
  }

  // --- exploration state --------------------------------------------------

  void SetExploring(GroupId g, bool v) { group(g).exploring_ = v; }
  void SetExplored(GroupId g, bool v) { group(g).explored_ = v; }

  // --- observability ------------------------------------------------------

  /// Installs (or clears, with null) the trace sink receiving structural
  /// events: class creation, expression creation, class merges. The sink is
  /// borrowed and must outlive the memo or be cleared first.
  void set_trace(TraceSink* sink) { trace_ = sink; }
  TraceSink* trace() const { return trace_; }

  /// Sets the rule name recorded as provenance on expressions created until
  /// the next call (null = "from the original query"). The optimizer brackets
  /// each rule application with this; the name is borrowed from the RuleSet.
  void SetProvenance(const char* rule) { provenance_ = rule; }

  // --- reuse --------------------------------------------------------------

  /// Returns the memo to its freshly-constructed state: destroys every
  /// expression, empties every class and table, rewinds the arena, and —
  /// critically — clears the property interner (its one-entry cache would
  /// otherwise serve stale canonical pointers into freed storage; see
  /// PropsInterner::Clear). Class objects, plan choices and table capacity
  /// are kept for the next query, so a query no larger than an earlier one
  /// allocates nothing for them.
  void Reset();

  // --- statistics ---------------------------------------------------------

  size_t num_groups() const { return num_live_groups_; }
  size_t num_exprs() const { return num_live_exprs_; }
  /// InsertMExpr calls that found their expression already in the memo.
  size_t num_deduped() const { return num_deduped_; }
  size_t num_merges() const { return num_merges_; }

  /// Arena bytes backing the node stores (memory-consumption telemetry).
  size_t arena_bytes() const { return arena_.bytes_reserved(); }

  /// All class ids currently live (normalized, deduplicated).
  std::vector<GroupId> LiveGroups() const;

  /// Debug dump of classes, expressions, and winners.
  std::string ToString() const;

 private:
  GroupId NewGroup(OperatorId op, const OpArg* arg,
                   const std::vector<GroupId>& inputs);
  void MergeGroups(GroupId a, GroupId b);
  void RunMergeWorklist();

  static constexpr size_t kChoiceBlock = 64;

  const DataModel& model_;
  Arena arena_;
  // Class objects: the first parent_.size() are this query's classes (live
  // and merged away), the rest wait for reuse.
  std::vector<std::unique_ptr<Group>> groups_;
  // All expressions created, live and dead; the arena never runs
  // destructors, so Reset and ~Memo destroy them through this list.
  std::vector<MExpr*> exprs_;
  mutable std::vector<GroupId> parent_;  // union-find; one entry per class
  // Signature table: the key *is* the expression (its op/arg/inputs are the
  // signature; its sig_hash_ is the stored slot hash). Every access goes
  // through the *Hashed entry points; the set's default hash functor is
  // never invoked.
  FlatHashSet<MExpr*> sig_table_;
  // A merged-away class's parents index while it is re-canonicalized
  // (swapped, so both vectors keep their capacity).
  std::vector<MExpr*> merge_refs_;
  std::vector<std::pair<GroupId, GroupId>> merge_worklist_;
  // Plan choices in fixed blocks (stable addresses); the first
  // num_choices_ are this query's.
  std::vector<std::unique_ptr<PlanChoice[]>> choice_blocks_;
  size_t num_choices_ = 0;
  mutable PropsInterner interner_;
  // Scratch buffers for the non-reentrant insertion path (InsertMExpr never
  // calls itself; merges normalize in place and don't use these).
  std::vector<GroupId> scratch_inputs_;
  std::vector<LogicalPropsPtr> scratch_in_props_;
  bool merging_ = false;
  size_t num_live_groups_ = 0;
  size_t num_live_exprs_ = 0;
  size_t num_deduped_ = 0;
  size_t num_merges_ = 0;
  TraceSink* trace_ = nullptr;        // borrowed; see set_trace
  const char* provenance_ = nullptr;  // current rule-application bracket
};

}  // namespace volcano

#endif  // VOLCANO_SEARCH_MEMO_H_
