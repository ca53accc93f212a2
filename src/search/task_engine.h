// The search engine's core: Figure 2 on an explicit task stack.
//
// Figure 2's FindBestPlan is a recursive procedure; run literally, its
// search depth would be bounded by the native call stack and a tripped
// budget could only abandon the search. TaskEngine executes the algorithm
// as an explicit stack of small state-machine frames — OptimizeGoal,
// ApplyMove, ExploreGroup, plus an iterative pattern matcher — whose
// pending state lives in an arena next to the memo (support/task_stack.h).
// Two properties follow:
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
// and excluding vectors (owned by the parent move or the engine's root
// slots) and at its class's logical properties (owned by the memo), and a
// move frame reads both through its goal.
//
// The committed plan digests (tools/plan_digest) pin the plans and the
// search work; tests/engine_differential_test.cc pins the interleaved and
// glue strategies and patterns deeper than two levels.

#ifndef VOLCANO_SEARCH_TASK_ENGINE_H_
#define VOLCANO_SEARCH_TASK_ENGINE_H_

#include <cstdint>
#include <set>
#include <utility>
#include <vector>

#include "search/optimizer.h"
#include "support/arena.h"
#include "support/task_stack.h"

namespace volcano {

class TaskEngine {
 public:
  explicit TaskEngine(Optimizer& opt);
  ~TaskEngine();

  TaskEngine(const TaskEngine&) = delete;
  TaskEngine& operator=(const TaskEngine&) = delete;

  /// Runs FindBestPlan(group, required, limit) to completion (or budget
  /// trip / suspension) on the task stack.
  Optimizer::Result Run(GroupId group, const PhysPropsPtr& required,
                        Cost limit);

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

  /// Forgets the rule-output buffer's derived arguments (between queries;
  /// Optimizer::ResetForReuse).
  void ResetForReuse() { rex_.Reset(); }

  // --- the iterative pattern matcher --------------------------------------
  // Enumerates the bindings of a pattern rooted at one expression with an
  // explicit activation stack, so matching never recurses across
  // equivalence classes. Suspends with kNeedExplore when a specific-operator
  // child position requires its input class explored (directed
  // exploration); the caller explores the class, or — in the greedy
  // descent, which must not grow the memo — re-invokes Step at once. The
  // two shapes every rule of the shipped models has take shortcuts: a
  // single-node pattern binds inside Start, and a two-level pattern (one
  // child position names a single-node operator) asks for one exploration
  // and then binds that class's expressions in a loop.
  class Matcher {
   public:
    enum class Status : uint8_t { kDone, kNeedExplore };

    /// Begins enumerating the matches of `pattern` rooted at `m` into *out.
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

 private:
  // --- frames --------------------------------------------------------------

  struct GoalFrame;

  /// The search phase a frame's steps are timed under
  /// (SearchOptions::collect_phase_timing): everything below a pursued move
  /// is pursue time, exploration outside a move is explore time.
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

    // Search state.
    Goal goal{};
    bool marked = false;  ///< MarkInProgress done (Abandon must undo)
    Optimizer::Result best;
    Cost best_cost;
    /// The memo choice this goal records its incumbent in, taken on the
    /// first install and rewritten by each improvement: nobody else sees it
    /// until FinishGoal hands it out.
    PlanChoice* incumbent = nullptr;
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
    std::vector<const PlanChoice*> children;
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

  /// Applies a transformation rule to its bindings (expression `expr`, in
  /// the class `group` names for tracing); returns how many applied.
  uint32_t ApplyTransformation(const TransformationRule& rule,
                               const std::vector<Binding>& bindings,
                               const MExpr& expr, GroupId group);

  /// Takes an answered algorithm input into the move; false (and the move
  /// finished) when the input has no plan.
  bool TakeInput(MoveFrame* f);
  /// The goal's incumbent choice, ready to be rewritten by an improvement.
  PlanChoice* Incumbent(GoalFrame* goal);
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

  /// True once the budget or the exploration cap stops exploration: a class
  /// explored, or a transformation matched, from here on may be incomplete.
  bool ExplorationCut() const {
    return opt_.aborted() || opt_.ExploreCapReached();
  }

  Optimizer& opt_;
  const CostModel& cm_;  // the model's, looked up once
  const RuleSet& rules_;
  // The root goal's required vector, borrowed by its frame for the whole
  // run (a suspended run outlives the caller's handle).
  PhysPropsPtr root_required_;
  Arena arena_;
  FramePool<GoalFrame> goal_pool_;
  FramePool<MoveFrame> move_pool_;
  FramePool<ExploreFrame> explore_pool_;
  TaskStack<Frame> stack_;
  // Transformation output, written by a rule's Apply and cleared after the
  // memo inserts it (rules/rex.h).
  Rex rex_;
  Optimizer::Result root_result_;
  bool suspended_ = false;
  bool abandoning_ = false;
};

}  // namespace volcano

#endif  // VOLCANO_SEARCH_TASK_ENGINE_H_
