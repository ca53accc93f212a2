// The explicit task-based search core.
//
// Figure 2's FindBestPlan is a recursive procedure; run literally (see
// SearchOptions::Engine::kRecursive) its search depth is bounded by the
// native call stack and a tripped budget can only abandon the search.
// TaskEngine executes the same algorithm as an explicit stack of small
// state-machine frames — OptimizeGoal, ApplyMove, ExploreGroup, plus an
// iterative pattern matcher — whose pending state lives in an arena next to
// the memo (support/task_stack.h). Two properties follow:
//
//   1. Stack safety: native stack consumption is constant in plan depth; a
//      256-way chain join optimizes in a few kilobytes of C++ stack.
//   2. Suspension: with SearchOptions::suspend_on_trip, a tripped budget
//      freezes the frames in place and Optimizer::Resume() continues from
//      the exact preemption point.
//
// A step runs its frame until the frame must wait for a child frame (a
// subgoal, a move, an on-demand exploration) or is done: a subgoal the memo
// answers, a rule the matcher binds without exploring, a fired rule or a
// dead expression costs no return to the dispatch loop. Frames hold no
// ownership of interned properties: a goal frame points at its required
// and excluding vectors (owned by the parent move, the best-first record or
// the engine's root slots) and at its class's logical properties (owned by
// the memo), and a move frame reads both through its goal.
//
// The engine replicates the recursive control flow site for site — budget
// checkpoints, move collection and ordering, branch-and-bound limits,
// in-progress cycle detection, enforcer glue, winner memoization — and is
// verified plan-for-plan identical against the recursive engine by
// tests/engine_differential_test.cc and the committed plan digest.

#ifndef VOLCANO_SEARCH_TASK_ENGINE_H_
#define VOLCANO_SEARCH_TASK_ENGINE_H_

#include <cstdint>
#include <memory>
#include <set>
#include <unordered_map>
#include <utility>
#include <vector>

#include "search/optimizer.h"
#include "support/arena.h"
#include "support/bounded_heap.h"
#include "support/task_stack.h"

namespace volcano {

class TaskEngine {
 public:
  explicit TaskEngine(Optimizer& opt);
  ~TaskEngine();

  TaskEngine(const TaskEngine&) = delete;
  TaskEngine& operator=(const TaskEngine&) = delete;

  /// Runs FindBestPlan(group, required, limit, excluded) to completion
  /// (or budget trip / suspension) on the task stack. Mirrors the recursive
  /// engine's result exactly.
  Optimizer::Result Run(GroupId group, const PhysPropsPtr& required,
                        Cost limit, const PhysPropsPtr& excluded = nullptr);

  /// True when a budget trip froze the stack (SearchOptions::suspend_on_trip)
  /// instead of unwinding it.
  bool suspended() const { return suspended_; }

  /// Continues a frozen run from the exact preemption point. The caller must
  /// have re-armed the budget (Optimizer::Resume does).
  Optimizer::Result Continue();

  /// Unwinds a frozen stack without further search work: clears the
  /// in-progress marks and exploring flags the frozen frames hold, releases
  /// the frames, and leaves the memo consistent for a fresh Optimize call.
  void Abandon();

  /// True when the last best-first run (Engine::kBestFirst) degraded under
  /// one of its memory caps — a frontier eviction or the memo byte gate —
  /// and its result therefore is not a proven optimum. Always false for the
  /// other engines; folded into OptimizeOutcome::approximate.
  bool best_first_degraded() const { return bf_degraded_; }

 private:
  // --- the iterative pattern matcher --------------------------------------
  // Replaces the MatchNode/MatchChildren recursion (which recurses across
  // equivalence classes and is therefore depth-proportional on deep plans)
  // with an explicit activation stack. Suspends with kNeedExplore when a
  // specific-operator child position requires its input class explored,
  // mirroring the on-demand ExploreGroup call in the recursive matcher.
  // The two shapes every rule of the shipped models has take shortcuts: a
  // single-node pattern binds inside Start, and a two-level pattern (one
  // child position names a single-node operator) asks for one exploration
  // and then binds that class's expressions in a loop.
  class Matcher {
   public:
    enum class Status : uint8_t { kDone, kNeedExplore };

    /// Mirrors Optimizer::CollectBindings.
    void Start(const Pattern& pattern, const MExpr& m, Memo& memo,
               std::vector<Binding>* out);

    /// Advances until every match is emitted (kDone) or an input class needs
    /// exploration first (kNeedExplore; see need_group()). Re-invoke after
    /// the exploration (or immediately, if the class was already explored).
    Status Step(Memo& memo);

    GroupId need_group() const { return need_group_; }

    /// True when no match is pending (Step would return kDone at once).
    bool done() const { return mode_ == Mode::kIdle; }

   private:
    enum class Mode : uint8_t {
      kIdle,
      kGeneral,          // the activation stack below
      kTwoLevelExplore,  // two-level pattern: request the exploration
      kTwoLevelBind,     // two-level pattern: bind the explored class
    };

    /// Binds every expression of the explored class at nested_pos_.
    void BindTwoLevel(Memo& memo);

    struct Act {
      enum class Kind : uint8_t { kNode, kChildren };
      Kind kind;
      uint8_t pc = 0;
      uint8_t leaves = 0;   // kChildren: "any" leaves bound by this act
      const Pattern* p = nullptr;
      const MExpr* m = nullptr;
      uint32_t child = 0;   // kChildren: child position being matched
      uint32_t enum_i = 0;  // kChildren: candidate cursor at a specific child
      GroupId cg = kInvalidGroup;
      int32_t cont = kEmitCont;  // continuation: call-site act index or emit
    };
    static constexpr int32_t kEmitCont = -1;

    void PushChildren(const Pattern* p, const MExpr* m, uint32_t child,
                      int32_t cont);
    /// Unbinds a kChildren act's leaves and pops it.
    void PopChildren();

    std::vector<Act> acts_;
    Binding partial_;
    std::vector<Binding>* out_ = nullptr;
    GroupId need_group_ = kInvalidGroup;
    Mode mode_ = Mode::kIdle;
    // Two-level pattern state: the pattern, the matched root, and the
    // position whose child pattern names an operator.
    const Pattern* pattern_ = nullptr;
    const MExpr* root_ = nullptr;
    uint32_t nested_pos_ = 0;
  };

  // --- frames --------------------------------------------------------------

  struct GoalFrame;

  /// The search phase a frame's steps are timed under
  /// (SearchOptions::collect_phase_timing): everything below a pursued move
  /// is pursue time, exploration outside a move is explore time, as in the
  /// recursive engine's nested phase scopes.
  enum Phase : uint8_t { kPhaseOther, kPhaseExplore, kPhasePursue };

  struct Frame {
    enum class Kind : uint8_t { kGoal, kMove, kExplore };
    Kind kind{};
    uint8_t state = 0;
    Phase phase = kPhaseOther;
    Frame* parent = nullptr;
  };

  /// One FindBestPlan activation past its memo-probe prologue.
  struct GoalFrame : Frame {
    // Goal inputs. The property handles are borrowed (see EnterGoal);
    // `excluded` points at a null handle when there is no exclusion.
    GroupId group = kInvalidGroup;
    const PhysPropsPtr* required = nullptr;
    const PhysPropsPtr* excluded = nullptr;
    Cost limit;
    Optimizer::Result* out = nullptr;
    /// Best-first expansion: run only the explore + collect + order phases,
    /// then hand the moves to the frontier record (BfHarvest) instead of
    /// pursuing them on the task stack.
    bool collect_only = false;

    // Search state.
    Goal goal{};
    bool marked = false;  ///< MarkInProgress done (Abandon must undo)
    Optimizer::Result best;
    Cost best_cost;
    const LogicalPropsPtr* logical = nullptr;  ///< the class's, in the memo
    std::vector<Optimizer::Move> moves;
    size_t move_idx = 0;

    // Stable-collection restart loop (kExploreFirst).
    GroupId collect_before = kInvalidGroup;
    size_t collect_size_before = 0;

    // CollectAlgorithmMoves sweep.
    GroupId sweep_group = kInvalidGroup;
    size_t sweep_expr_idx = 0;
    size_t sweep_rule_pos = 0;
    const MExpr* sweep_expr = nullptr;
    const std::vector<RuleId>* sweep_impls = nullptr;  ///< sweep_expr's rules
    const ImplementationRule* sweep_rule = nullptr;
    uint8_t sweep_next = 0;  ///< state entered when the sweep completes
    std::vector<Binding> bindings;
    Matcher matcher;

    // Glue ablation path.
    Optimizer::Result glue_base;

    // kInterleaved strategy.
    struct TransMove {
      MExpr* expr;
      const TransformationRule* rule;
    };
    std::vector<TransMove> tmoves;
    size_t tmove_idx = 0;
    const TransformationRule* trans_rule = nullptr;
    std::set<std::pair<const MExpr*, const ImplementationRule*>> pursued;
    bool enforcers_done = false;

    void Reuse();
  };

  /// One PursueMove activation (algorithm or enforcer move). The goal's
  /// group and logical properties stay fixed while its moves run, so the
  /// frame reads them through `goal`.
  struct MoveFrame : Frame {
    const Optimizer::Move* mv = nullptr;
    GoalFrame* goal = nullptr;  ///< incumbent lives in the owning goal
    Cost total;
    std::vector<PlanPtr> children;
    size_t input_idx = 0;
    Optimizer::Result child_result;

    void Reuse();
  };

  /// One ExploreGroup activation (transformation closure of one class).
  struct ExploreFrame : Frame {
    GroupId group = kInvalidGroup;
    bool changed = false;
    size_t expr_idx = 0;
    size_t rule_pos = 0;
    MExpr* expr = nullptr;
    const std::vector<RuleId>* trans = nullptr;  ///< expr's rules
    const TransformationRule* rule = nullptr;
    std::vector<Binding> bindings;
    Matcher matcher;

    void Reuse();
  };

  // Goal frame states.
  enum GoalState : uint8_t {
    kGoalEnter,        // parked at the entry budget checkpoint (suspension)
    kGoalDispatch,     // prologue done; choose glue / interleaved / explore
    kGoalCollectInit,  // start one round of the stable-collection loop
    kGoalSweepExpr,    // CollectAlgorithmMoves: next expression
    kGoalSweepRule,    // CollectAlgorithmMoves: next implementation rule
    kGoalSweepMatch,   // CollectAlgorithmMoves: matcher waits on exploration
    kGoalCollectCheck, // class stable? then enforcers + sort + trim
    kGoalPursueNext,   // pursue moves in promise order
    kGoalGlueDone,     // glue base goal answered; patch with enforcers
    kGoalInterRound,   // interleaved: collect this round's moves
    kGoalInterFilter,  // interleaved: filter pursued, add enforcers
    kGoalInterTrans,   // interleaved: fire next transformation move
    kGoalInterMatch,   // interleaved: matcher running for a transformation
    kGoalInterPursue,  // interleaved: pursue this round's moves
  };

  // Move frame states.
  enum MoveState : uint8_t {
    kMoveStart,         // local cost, admission, trace; then the inputs
    kMoveInputDone,     // input subgoal answered; then the next inputs
    kMoveEnforcerDone,  // enforcer input subgoal answered
  };

  // Explore frame states.
  enum ExploreState : uint8_t {
    kExpRoundStart,  // begin one fixpoint round
    kExpSweepExpr,   // next expression in the class (budget checkpoint)
    kExpRuleNext,    // next unfired transformation rule for the expression
    kExpMatch,       // matcher waits on exploration; then apply bindings
    kExpRoundEnd,    // round done: repeat if anything changed
  };

  // --- engine core ---------------------------------------------------------

  Optimizer::Result Loop();
  void Step(Frame* f);
  void StepGoal(GoalFrame* f);
  void StepMove(MoveFrame* f);
  void StepExplore(ExploreFrame* f);

  /// Mirrors the FindBestPlan prologue: counts the call, polls the budget,
  /// probes the winner / in-progress tables. Returns true when a frame was
  /// pushed (result delivered later into *out), false when *out was answered
  /// inline. The frame borrows `required` and `excluded` (null: none), which
  /// must outlive it.
  bool EnterGoal(GroupId group, const PhysPropsPtr* required, Cost limit,
                 const PhysPropsPtr* excluded, Optimizer::Result* out,
                 Frame* parent);

  /// The winner-table probe of Figure 2's look-up: true when a memoized
  /// winner answers the goal (*out: the winner, or a failure when it costs
  /// more than `limit`).
  bool ProbeWinner(GroupId group, Goal goal, Cost limit,
                   Optimizer::Result* out);

  /// ProbeWinner, then the in-progress check that cuts re-derivation
  /// cycles. True when *out was answered.
  bool AnswerFromMemo(GroupId group, Goal goal, Cost limit,
                      Optimizer::Result* out);

  GoalFrame* NewGoal(GroupId group, const PhysPropsPtr* required, Cost limit,
                     const PhysPropsPtr* excluded, Optimizer::Result* out,
                     Frame* parent);

  /// Marks a probed goal in progress and readies its frame for dispatch.
  void BeginGoal(GoalFrame* f, GroupId group, Goal goal);

  /// CollectAlgorithmMoves as a resumable sweep. Returns true when the
  /// sweep is complete, false when it waits on an exploration frame.
  bool Sweep(GoalFrame* f);
  /// Turns the matched bindings of f->sweep_rule into algorithm moves.
  void AddAlgorithmMoves(GoalFrame* f);

  /// Applies a transformation rule to its bindings (expression `expr`, in
  /// the class `group` names for tracing); returns how many applied.
  uint32_t ApplyTransformation(const TransformationRule& rule,
                               const std::vector<Binding>& bindings,
                               const MExpr& expr, GroupId group);

  /// Takes an answered algorithm input into the move; false (and the move
  /// finished) when the input has no plan.
  bool TakeInput(MoveFrame* f);
  /// Installs an enforcer move whose input goal was answered.
  void FinishEnforcer(MoveFrame* f);

  /// Mirrors the ExploreGroup prologue. Returns true when an ExploreFrame
  /// was pushed, false when the class is already explored / exploring.
  bool EnterExplore(GroupId group, Frame* parent);

  void PushMove(const Optimizer::Move* mv, GoalFrame* goal);

  /// The FindBestPlan epilogue: unmark, memoize, deliver, pop.
  void FinishGoal(GoalFrame* f);
  void FinishMove(MoveFrame* f);
  void FinishExplore(ExploreFrame* f);

  /// Runs the matcher until done, entering exploration subtasks on demand.
  /// Returns false when a child frame was pushed (re-step this frame later).
  bool RunMatcher(Matcher& matcher, Frame* frame);

  /// True when a budget trip should freeze the stack instead of unwinding.
  bool Parking() const;

  // --- best-first engine (SearchOptions::Engine::kBestFirst) ---------------
  //
  // A global frontier of goal records ordered by adaptive promise replaces
  // the depth-first task stack as the scheduler (DESIGN.md §13). Each record
  // is one FindBestPlan goal; expansion reuses the existing explore + collect
  // state machine (a collect_only GoalFrame run through Loop()), registration
  // turns the collected moves into child demands at infinite cost limits
  // (limit-independent memoized optima), and a canonical-order reduce
  // reproduces the depth-first engine's winners move for move. Two memory
  // caps degrade the search instead of growing it: frontier eviction fails
  // the least promising goal, and the memo byte gate completes remaining
  // goals through the greedy descent. Either cap sets bf_degraded_.

  /// One best-first goal record: a FindBestPlan demand keyed by
  /// (group, canonical goal), deduplicated in bf_index_.
  struct BfGoalRec {
    enum class State : uint8_t {
      kReady,      // interned; waiting in the frontier for expansion
      kExpanding,  // collect_only GoalFrame on the stack deriving its moves
      kWaiting,    // moves registered; waiting on child records
      kDone,       // settled (won, failed, or evicted)
    };

    uint32_t seq = 0;  ///< creation order; FIFO tie-break + stall scan order
    GroupId group = kInvalidGroup;  ///< Find-resolved at interning
    PhysPropsPtr required;
    PhysPropsPtr excluded;
    Goal goal{};
    Cost limit;         ///< root: the search limit; children: cm.Infinity()
    double priority = 0.0;
    BfGoalRec* creator = nullptr;  ///< demand chain for cycle detection
    State state = State::kReady;
    bool in_frontier = false;
    bool done_ok = false;  ///< kDone: true when plan/cost hold a winner
    PlanPtr plan;
    Cost cost;
    LogicalPropsPtr logical;
    std::vector<Optimizer::Move> moves;

    /// Per-move child demands (the move's reduce slot).
    struct MoveIn {
      std::vector<BfGoalRec*> children;
      bool failed = false;  ///< cycle hit or a child settled without a plan
    };
    std::vector<MoveIn> inputs;
    size_t pending = 0;  ///< unresolved waiter edges (duplicates counted)
    std::vector<BfGoalRec*> waiters;  ///< records to notify on settle
  };

  /// Dedup key: one record per (group, canonical goal). Goal compares by
  /// interned-property pointer identity, same as the memo's tables.
  struct BfKey {
    GroupId group;
    Goal goal;
    bool operator==(const BfKey& o) const {
      return group == o.group && goal == o.goal;
    }
  };
  struct BfKeyHash {
    size_t operator()(const BfKey& k) const {
      return HashCombine(GoalHash{}(k.goal), static_cast<uint64_t>(k.group));
    }
  };

  /// Entry point (from Run) and scheduling loop.
  Optimizer::Result RunBestFirst(GroupId group, const PhysPropsPtr& required,
                                 Cost limit, const PhysPropsPtr& excluded);
  Optimizer::Result BfLoop();

  /// Deduplicating demand: probes the winner table exactly like EnterGoal,
  /// returns the existing or new record (possibly born kDone).
  BfGoalRec* BfIntern(GroupId group, const PhysPropsPtr& required, Cost limit,
                      const PhysPropsPtr& excluded, BfGoalRec* creator,
                      double priority);
  void BfPushFrontier(BfGoalRec* rec);

  /// Expansion: explore the group and collect + order its moves via a
  /// collect_only GoalFrame, or complete greedily when the memo gate is shut.
  void BfExpand(BfGoalRec* rec);
  void BfHarvest(GoalFrame* f);  ///< collect_only frame done; take its moves
  void BfRegisterChildren(BfGoalRec* rec);
  double BfMoveScore(const BfGoalRec* rec, const Optimizer::Move& mv) const;

  /// Canonical-order reduce over the record's moves (serial install
  /// semantics), then StoreWinner + settle.
  void BfReduce(BfGoalRec* rec);
  void BfSettle(BfGoalRec* rec, Optimizer::Result r, bool ok);

  /// Deterministic backstop: fails the oldest waiting record's unresolved
  /// moves when neither frontier nor ripe list can make progress.
  void BfBreakStall();

  /// Anytime incumbent: a partial reduce over the root's settled moves,
  /// emitted when the budget trips without suspension.
  Optimizer::Result BfIncumbent() const;
  void BfClear();

  /// True when memo arena growth must stop (memo_byte_limit, with slack for
  /// in-flight allocations).
  bool BfMemoGate() const;

  Optimizer& opt_;
  const CostModel& cm_;  // the model's, looked up once
  const RuleSet& rules_;
  // The root goal's property handles, borrowed by its frame for the whole
  // run (a suspended run outlives the caller's handles).
  PhysPropsPtr root_required_;
  PhysPropsPtr root_excluded_;
  Arena arena_;
  FramePool<GoalFrame> goal_pool_;
  FramePool<MoveFrame> move_pool_;
  FramePool<ExploreFrame> explore_pool_;
  TaskStack<Frame> stack_;
  Optimizer::Result root_result_;
  bool suspended_ = false;
  bool abandoning_ = false;

  // Best-first state (live only while bf_active_).
  std::vector<std::unique_ptr<BfGoalRec>> bf_recs_;
  std::unordered_map<BfKey, BfGoalRec*, BfKeyHash> bf_index_;
  BoundedFrontier<BfGoalRec*> bf_frontier_;
  std::vector<BfGoalRec*> bf_ripe_;  ///< records whose pending hit zero
  size_t bf_ripe_cursor_ = 0;
  BfGoalRec* bf_root_ = nullptr;
  BfGoalRec* bf_expanding_ = nullptr;  ///< record the stacked frame feeds
  Optimizer::Result bf_scratch_result_;  ///< collect_only frames' out target
  bool bf_active_ = false;
  bool bf_degraded_ = false;
};

}  // namespace volcano

#endif  // VOLCANO_SEARCH_TASK_ENGINE_H_
