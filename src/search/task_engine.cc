#include "search/task_engine.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <utility>

#include "search/move_order.h"
#include "support/fault.h"

namespace volcano {

namespace {

// The handle a goal frame borrows when its goal has no excluding vector.
const PhysPropsPtr kNoProps;

// Frame arena block size. A search keeps only as many frames live as it
// nests deep, so blocks far smaller than the memo's suffice.
constexpr size_t kFrameBlockBytes = 8 << 10;

/// The child position of a two-level pattern — every child "any" except one
/// single-node operator pattern — or -1 for any other shape.
int TwoLevelPosition(const Pattern& pattern) {
  int pos = -1;
  const std::vector<Pattern>& kids = pattern.children();
  for (size_t i = 0; i < kids.size(); ++i) {
    if (kids[i].is_any()) continue;
    if (pos >= 0 || !kids[i].IsSingleNode()) return -1;
    pos = static_cast<int>(i);
  }
  return pos;
}

}  // namespace

// ---------------------------------------------------------------------------
// Matcher
// ---------------------------------------------------------------------------

void TaskEngine::Matcher::Start(const Pattern& pattern, const MExpr& m,
                                Memo& memo, std::vector<Binding>* out) {
  out_ = out;
  acts_.clear();
  need_group_ = kInvalidGroup;
  mode_ = Mode::kIdle;
  // The root operator must match.
  if (pattern.op() != m.op()) return;
  // A single-node pattern (every child is "any"): the one binding is the
  // expression itself over its input classes, built in place.
  if (pattern.IsSingleNode()) {
    Binding& b = out->emplace_back();
    b.mutable_nodes().push_back(&m);
    auto& leaves = b.mutable_leaves();
    leaves.reserve(m.num_inputs());
    for (size_t i = 0; i < m.num_inputs(); ++i) {
      leaves.push_back(memo.Find(m.input(i)));
    }
    return;
  }
  partial_.mutable_nodes().clear();
  partial_.mutable_leaves().clear();
  const int pos = TwoLevelPosition(pattern);
  if (pos >= 0 && static_cast<size_t>(pos) < m.num_inputs()) {
    // The "any" positions before the operator position are bound before
    // its class is explored.
    pattern_ = &pattern;
    root_ = &m;
    nested_pos_ = static_cast<uint32_t>(pos);
    for (uint32_t i = 0; i < nested_pos_; ++i) {
      partial_.mutable_leaves().push_back(memo.Find(m.input(i)));
    }
    mode_ = Mode::kTwoLevelExplore;
    return;
  }
  mode_ = Mode::kGeneral;
  Act root;
  root.kind = Act::Kind::kNode;
  root.p = &pattern;
  root.m = &m;
  root.cont = kEmitCont;
  acts_.push_back(root);
}

void TaskEngine::Matcher::PushChildren(const Pattern* p, const MExpr* m,
                                       uint32_t child, int32_t cont) {
  Act c;
  c.kind = Act::Kind::kChildren;
  c.p = p;
  c.m = m;
  c.child = child;
  c.cont = cont;
  acts_.push_back(c);
}

void TaskEngine::Matcher::PopChildren() {
  for (uint8_t i = acts_.back().leaves; i > 0; --i) {
    partial_.mutable_leaves().pop_back();
  }
  acts_.pop_back();
}

void TaskEngine::Matcher::BindTwoLevel(Memo& memo) {
  const Pattern& nested = pattern_->children()[nested_pos_];
  const Group& grp = memo.group(need_group_);
  const size_t arity = root_->num_inputs();
  // Binding only reads the memo, so the class cannot change meanwhile.
  for (const MExpr* cm : grp.exprs()) {
    if (cm->dead() || cm->op() != nested.op()) continue;
    Binding& b = out_->emplace_back();
    b.mutable_nodes().push_back(root_);
    b.mutable_nodes().push_back(cm);
    Binding::Leaves& leaves = b.mutable_leaves();
    leaves = partial_.leaves();
    for (size_t j = 0; j < cm->num_inputs(); ++j) {
      leaves.push_back(memo.Find(cm->input(j)));
    }
    for (size_t i = nested_pos_ + 1; i < arity; ++i) {
      leaves.push_back(memo.Find(root_->input(i)));
    }
  }
}

TaskEngine::Matcher::Status TaskEngine::Matcher::Step(Memo& memo) {
  switch (mode_) {
    case Mode::kIdle:
      return Status::kDone;
    case Mode::kTwoLevelExplore:
      need_group_ = memo.Find(root_->input(nested_pos_));
      mode_ = Mode::kTwoLevelBind;
      return Status::kNeedExplore;
    case Mode::kTwoLevelBind:
      BindTwoLevel(memo);
      mode_ = Mode::kIdle;
      return Status::kDone;
    case Mode::kGeneral:
      break;
  }
  // Each Act is one suspended activation: kNode matches one pattern node
  // against one expression, kChildren matches that node's child positions
  // from `child` on. `pc` is the resume point and `cont` the act index of
  // the kChildren call-site whose continuation runs when a subtree match
  // completes (kEmitCont = emit the binding). A kChildren act binds
  // consecutive "any" positions itself and stops at the first
  // specific-operator position. Act fields are read before any push:
  // pushes may reallocate acts_.
  while (!acts_.empty()) {
    const size_t idx = acts_.size() - 1;
    Act& a = acts_[idx];
    if (a.kind == Act::Kind::kNode) {
      if (a.pc == 0) {
        VOLCANO_DCHECK(!a.p->is_any());
        if (a.p->op() != a.m->op()) {
          acts_.pop_back();
          continue;
        }
        partial_.mutable_nodes().push_back(a.m);
        a.pc = 1;
        PushChildren(a.p, a.m, 0, a.cont);
        continue;
      }
      // pc == 1: the children matched.
      partial_.mutable_nodes().pop_back();
      acts_.pop_back();
      continue;
    }
    // kChildren.
    switch (a.pc) {
      case 0: {
        // A pattern with fewer children than the operator's arity treats the
        // missing positions as "any".
        const size_t arity = a.m->num_inputs();
        const std::vector<Pattern>& kids = a.p->children();
        while (a.child < arity &&
               (a.child >= kids.size() || kids[a.child].is_any())) {
          partial_.mutable_leaves().push_back(memo.Find(a.m->input(a.child)));
          ++a.child;
          ++a.leaves;
        }
        if (a.child == arity) {
          if (a.cont == kEmitCont) {
            out_->push_back(partial_);
            PopChildren();
            continue;
          }
          // Run the call-site's continuation: advance it one child
          // position. This act waits in pc=2 for it to finish.
          a.pc = 2;
          const Act& site = acts_[static_cast<size_t>(a.cont)];
          PushChildren(site.p, site.m, site.child + 1, site.cont);
          continue;
        }
        // Specific operator below: direct the search — the input class must
        // be explored before its expressions are enumerated.
        a.cg = memo.Find(a.m->input(a.child));
        a.pc = 3;
        a.enum_i = 0;
        need_group_ = a.cg;
        return Status::kNeedExplore;
      }
      case 2:  // caller continuation finished.
        PopChildren();
        continue;
      case 3: {
        // Enumerate candidate expressions of the explored input class.
        a.cg = memo.Find(a.cg);
        const Group& grp = memo.group(a.cg);
        if (a.enum_i >= grp.exprs().size()) {
          PopChildren();
          continue;
        }
        const MExpr* cm = grp.exprs()[a.enum_i];
        ++a.enum_i;
        if (cm->dead()) continue;
        Act c;
        c.kind = Act::Kind::kNode;
        c.p = &a.p->children()[a.child];
        c.m = cm;
        c.cont = static_cast<int32_t>(idx);  // completion resumes child+1 here
        acts_.push_back(c);
        continue;
      }
    }
  }
  mode_ = Mode::kIdle;
  return Status::kDone;
}

// ---------------------------------------------------------------------------
// Frame reuse: release what a frame owns; entry sets the rest.
// ---------------------------------------------------------------------------

void TaskEngine::GoalFrame::Reuse() {
  marked = false;
  best = Optimizer::Result{};
  incumbent = nullptr;
  logical = nullptr;
  moves.clear();
  bindings.clear();
  glue_base = Optimizer::Result{};
  tmoves.clear();
  pursued.clear();
}

void TaskEngine::MoveFrame::Reuse() {
  children.clear();
  child_result = Optimizer::Result{};
}

void TaskEngine::ExploreFrame::Reuse() { bindings.clear(); }

// ---------------------------------------------------------------------------
// Engine lifecycle
// ---------------------------------------------------------------------------

TaskEngine::TaskEngine(Optimizer& opt)
    : opt_(opt),
      cm_(opt.model_.cost_model()),
      rules_(opt.model_.rule_set()),
      arena_(kFrameBlockBytes),
      goal_pool_(&arena_),
      move_pool_(&arena_),
      explore_pool_(&arena_) {}

TaskEngine::~TaskEngine() = default;

bool TaskEngine::Parking() const {
  return opt_.options_.suspend_on_trip && !abandoning_;
}

Optimizer::Result TaskEngine::Run(GroupId group, const PhysPropsPtr& required,
                                  Cost limit) {
  VOLCANO_CHECK(stack_.Empty());
  suspended_ = false;
  root_result_ = Optimizer::Result{nullptr, limit};
  root_required_ = required;
  if (EnterGoal(group, &root_required_, limit, nullptr, &root_result_,
                nullptr)) {
    return Loop();
  }
  return std::move(root_result_);
}

Optimizer::Result TaskEngine::Continue() {
  VOLCANO_CHECK(suspended_);
  suspended_ = false;
  return Loop();
}

void TaskEngine::Abandon() {
  // Manual unwind: clear every mark the frozen frames hold without running
  // any further search steps (the memo must come out consistent even when
  // the budget that froze us is still tripped).
  abandoning_ = true;
  const std::vector<Frame*>& frames = stack_.frames();
  for (size_t i = frames.size(); i > 0; --i) {
    Frame* f = frames[i - 1];
    switch (f->kind) {
      case Frame::Kind::kGoal: {
        GoalFrame* g = static_cast<GoalFrame*>(f);
        if (g->marked) {
          opt_.memo_.UnmarkInProgress(opt_.memo_.Find(g->group), g->goal);
        }
        // A transformation still matching was marked fired but never
        // applied: take the mark back so the next search applies it.
        if (g->state == kGoalInterMatch) {
          g->tmoves[g->tmove_idx].expr->UnmarkFired(g->trans_rule->id());
        }
        g->Reuse();
        goal_pool_.Release(g);
        break;
      }
      case Frame::Kind::kMove: {
        MoveFrame* m = static_cast<MoveFrame*>(f);
        m->Reuse();
        move_pool_.Release(m);
        break;
      }
      case Frame::Kind::kExplore: {
        ExploreFrame* e = static_cast<ExploreFrame*>(f);
        opt_.memo_.SetExploring(opt_.memo_.Find(e->group), false);
        if (e->state == kExpMatch) e->expr->UnmarkFired(e->rule->id());
        e->Reuse();
        explore_pool_.Release(e);
        break;
      }
    }
  }
  stack_.Clear();
  suspended_ = false;
  abandoning_ = false;
}

void TaskEngine::Step(Frame* f) {
  switch (f->kind) {
    case Frame::Kind::kGoal:
      StepGoal(static_cast<GoalFrame*>(f));
      break;
    case Frame::Kind::kMove:
      StepMove(static_cast<MoveFrame*>(f));
      break;
    case Frame::Kind::kExplore:
      StepExplore(static_cast<ExploreFrame*>(f));
      break;
  }
}

Optimizer::Result TaskEngine::Loop() {
  // These predicates are loop-invariant (Abandon never runs inside Loop),
  // so hoist them off the per-task dispatch path.
  const bool may_park = Parking();
  const bool timed = opt_.options_.collect_phase_timing;
  // Task count accumulates in a register and lands in the stats at
  // every exit (nothing reads it mid-run; budgets count goals and cost
  // estimates).
  uint64_t tasks = 0;
  while (!stack_.Empty()) {
    if (may_park && opt_.aborted()) {
      // A budget trip with suspension enabled freezes the stack in place;
      // Optimizer::Resume re-arms the budget and calls Continue().
      suspended_ = true;
      SearchStats& st = opt_.stats_;
      ++st.suspensions;
      st.tasks_executed += tasks;
      if (stack_.high_water() > st.task_stack_high_water) {
        st.task_stack_high_water = stack_.high_water();
      }
      return Optimizer::Result{};
    }
    ++tasks;
    // The engine's native depth is flat — every task steps from this very
    // loop — so a sampled probe sees the same high water as a per-task one.
    if ((tasks & 63) == 0) opt_.ProbeNativeStack();
    Frame* f = stack_.Top();
    if (timed && f->phase != kPhaseOther) {
      // Phase timers: the step's wall-clock goes to the phase its frame
      // runs under (read before the step, which may release the frame).
      const Phase phase = f->phase;
      const auto start = std::chrono::steady_clock::now();
      Step(f);
      const double s = std::chrono::duration<double>(
                           std::chrono::steady_clock::now() - start)
                           .count();
      PhaseTimers& phases = opt_.metrics_.phases;
      (phase == kPhaseExplore ? phases.explore_seconds
                              : phases.pursue_seconds) += s;
    } else {
      Step(f);
    }
  }
  SearchStats& st = opt_.stats_;
  st.tasks_executed += tasks;
  if (stack_.high_water() > st.task_stack_high_water) {
    st.task_stack_high_water = stack_.high_water();
  }
  return std::move(root_result_);
}

// ---------------------------------------------------------------------------
// Goal entry/exit (the FindBestPlan prologue and epilogue)
// ---------------------------------------------------------------------------

bool TaskEngine::ProbeWinner(GroupId group, Goal goal, Cost limit,
                             Optimizer::Result* out) {
  if (!opt_.options_.memoize_winners) return false;
  const Winner* w = opt_.memo_.FindWinner(group, goal);
  if (w == nullptr) return false;
  // A recorded winner is the goal's optimum, so it either answers the goal
  // or proves it infeasible under this limit.
  SearchStats& st = opt_.stats_;
  ++st.goals_completed;
  if (cm_.LessEq(w->cost, limit)) {
    ++st.memo_winner_hits;
    *out = Optimizer::Result{w->choice, w->cost};
  } else {
    ++st.memo_above_limit_hits;
    *out = Optimizer::Result{nullptr, limit};
  }
  return true;
}

bool TaskEngine::AnswerFromMemo(GroupId group, Goal goal, Cost limit,
                                Optimizer::Result* out) {
  if (ProbeWinner(group, goal, limit, out)) return true;
  // Rule inverses re-derive this very goal; "if a newly formed expression
  // already exists ... and is marked as 'in progress,' it is ignored".
  if (opt_.memo_.IsInProgress(group, goal)) {
    ++opt_.stats_.in_progress_hits;
    ++opt_.stats_.goals_completed;
    *out = Optimizer::Result{nullptr, limit};
    return true;
  }
  return false;
}

TaskEngine::GoalFrame* TaskEngine::NewGoal(GroupId group,
                                           const PhysPropsPtr* required,
                                           Cost limit,
                                           const PhysPropsPtr* excluded,
                                           Optimizer::Result* out,
                                           Frame* parent) {
  GoalFrame* f = goal_pool_.Acquire();
  f->kind = Frame::Kind::kGoal;
  f->parent = parent;
  f->phase = parent != nullptr ? parent->phase : kPhaseOther;
  f->group = group;
  f->required = required;
  f->excluded = excluded != nullptr ? excluded : &kNoProps;
  f->limit = limit;
  f->out = out;
  return f;
}

void TaskEngine::BeginGoal(GoalFrame* f, GroupId group, Goal goal) {
  opt_.memo_.MarkInProgress(group, goal);
  ++opt_.stats_.goals_started;
  f->group = group;
  f->goal = goal;
  f->marked = true;
  f->best = Optimizer::Result{nullptr, f->limit};
  f->best_cost = f->limit;
  f->state = kGoalDispatch;
}

bool TaskEngine::EnterGoal(GroupId group, const PhysPropsPtr* required,
                           Cost limit, const PhysPropsPtr* excluded,
                           Optimizer::Result* out, Frame* parent) {
  ++opt_.stats_.find_best_plan_calls;
  if (!opt_.CheckBudget()) {
    if (Parking()) {
      // Park exactly at the entry checkpoint: a resumed run re-polls the
      // budget and then runs the memo probes it has not yet done.
      GoalFrame* f = NewGoal(group, required, limit, excluded, out, parent);
      f->state = kGoalEnter;
      stack_.Push(f);
      return true;
    }
    *out = Optimizer::Result{nullptr, limit};
    return false;
  }
  group = opt_.memo_.Find(group);
  const Goal goal = opt_.memo_.CanonicalGoal(
      *required, excluded != nullptr ? *excluded : kNoProps);
  if (AnswerFromMemo(group, goal, limit, out)) return false;
  GoalFrame* f = NewGoal(group, required, limit, excluded, out, parent);
  BeginGoal(f, group, goal);
  stack_.Push(f);
  return true;
}

void TaskEngine::FinishGoal(GoalFrame* f) {
  GroupId group = opt_.memo_.Find(f->group);
  opt_.memo_.UnmarkInProgress(group, f->goal);
  f->marked = false;

  // --- maintain the look-up table of explored facts ------------------------
  // Nothing is recorded once the budget has tripped: a truncated search
  // proves no plan optimal.
  if (!opt_.aborted()) {
    if (opt_.options_.memoize_winners && f->best.choice != nullptr) {
      opt_.memo_.StoreWinner(group, f->goal,
                             Winner{f->best.choice, f->best.cost});
      // Chosen from a space the exploration cap cut down: good enough for
      // the rest of this call, but the next one must not take it as final.
      if (opt_.ExploreCapReached()) opt_.capped_winners_ = true;
    }
    SearchStats& st = opt_.stats_;
    ++st.goals_completed;
    ++st.goals_finished;
    if (f->best.choice != nullptr) opt_.CreditWinner(*f->best.choice);
  }
  *f->out = f->best;
  stack_.Pop();
  f->Reuse();
  goal_pool_.Release(f);
}

// ---------------------------------------------------------------------------
// Explore entry/exit
// ---------------------------------------------------------------------------

bool TaskEngine::EnterExplore(GroupId group, Frame* parent) {
  // The physical-only mode (join-seed costing) suppresses exploration.
  if (opt_.options_.physical_only || opt_.ExploreCapReached()) return false;
  group = opt_.memo_.Find(group);
  {
    Group& grp = opt_.memo_.group(group);
    if (grp.explored() || grp.exploring()) return false;
  }
  ExploreFrame* f = explore_pool_.Acquire();
  f->kind = Frame::Kind::kExplore;
  f->parent = parent;
  // Exploration a pursued move triggers is pursue time.
  f->phase = parent->phase == kPhaseOther ? kPhaseExplore : parent->phase;
  f->group = group;
  opt_.memo_.SetExploring(group, true);
  f->state = kExpRoundStart;
  stack_.Push(f);
  return true;
}

void TaskEngine::FinishExplore(ExploreFrame* f) {
  GroupId group = opt_.memo_.Find(f->group);
  opt_.memo_.SetExploring(group, false);
  // An exploration cut short by the budget or the transformation cap must
  // not masquerade as complete: a later re-armed (or uncapped) call on this
  // optimizer would silently skip the rest of the closure.
  if (!ExplorationCut()) opt_.memo_.SetExplored(group, true);
  stack_.Pop();
  f->Reuse();
  explore_pool_.Release(f);
}

// ---------------------------------------------------------------------------
// Move entry/exit
// ---------------------------------------------------------------------------

void TaskEngine::PushMove(const Optimizer::Move* mv, GoalFrame* goal) {
  MoveFrame* f = move_pool_.Acquire();
  f->kind = Frame::Kind::kMove;
  f->state = kMoveStart;
  f->parent = goal;
  f->phase = kPhasePursue;
  f->mv = mv;
  f->goal = goal;
  stack_.Push(f);
}

void TaskEngine::FinishMove(MoveFrame* f) {
  stack_.Pop();
  f->Reuse();
  move_pool_.Release(f);
}

// ---------------------------------------------------------------------------
// Matcher driver and rule application
// ---------------------------------------------------------------------------

bool TaskEngine::RunMatcher(Matcher& matcher, Frame* frame) {
  if (matcher.done()) return true;  // a single-node pattern bound in Start
  for (;;) {
    Matcher::Status s = matcher.Step(opt_.memo_);
    if (s == Matcher::Status::kDone) return true;
    // kNeedExplore: the matcher reached a specific-operator child position;
    // explore the input class on demand, then resume matching.
    if (EnterExplore(matcher.need_group(), frame)) return false;
    // Class already explored (or exploring higher up the stack): keep going.
  }
}

uint32_t TaskEngine::ApplyTransformation(const TransformationRule& rule,
                                         const std::vector<Binding>& bindings,
                                         const MExpr& expr,
                                         [[maybe_unused]] GroupId group) {
  uint32_t applied = 0;
  SearchStats& st = opt_.stats_;
  SearchMetrics& metrics = opt_.metrics_;
  opt_.memo_.SetProvenance(rule.name().c_str());
  for (const Binding& b : bindings) {
    ++st.transformations_matched;
    if (!rule.Condition(b, opt_.memo_)) continue;
    if (opt_.options_.fault != nullptr &&
        opt_.options_.fault->FailRuleApplication()) {
      continue;  // injected: the rule fails to fire
    }
    ++metrics.transformations[rule.id()].fired;
    const Rex::Ref root = rule.Apply(b, opt_.memo_, rex_);
    if (root == Rex::kNone) {
      rex_.Clear();
      continue;
    }
    ++st.transformations_applied;
    ++opt_.transforms_fired_;
    ++metrics.transformations[rule.id()].succeeded;
    ++applied;
    // Rules the deriving rule disables never fire on the expression it
    // creates; an expression the memo already held keeps its own bits.
    MExpr* created = nullptr;
    opt_.memo_.InsertRex(rex_, root, opt_.memo_.Find(expr.group()), &created);
    rex_.Clear();
    if (created != nullptr) created->MarkFiredMask(rule.disables());
  }
  opt_.memo_.SetProvenance(nullptr);
  if (!bindings.empty()) {
    VOLCANO_TRACE(opt_.options_.trace,
                  {.kind = TraceEventKind::kRuleFired,
                   .group = opt_.memo_.Find(group),
                   .rule_id = rule.id(),
                   .count = applied,
                   .rule = rule.name().c_str()});
  }
  return applied;
}

// ---------------------------------------------------------------------------
// Goal stepping
// ---------------------------------------------------------------------------

bool TaskEngine::Sweep(GoalFrame* f) {
  // CollectAlgorithmMoves: expressions of the class in order, each with its
  // implementation rules in order. Only an exploration the matcher needs
  // leaves the step; the class may grow and merge meanwhile, so it is
  // re-resolved for every expression.
  const RuleSet& rules = rules_;
  for (;;) {
    switch (f->state) {
      case kGoalSweepExpr: {
        f->sweep_group = opt_.memo_.Find(f->sweep_group);
        const Group& grp = opt_.memo_.group(f->sweep_group);
        while (f->sweep_expr_idx < grp.exprs().size() &&
               grp.exprs()[f->sweep_expr_idx]->dead()) {
          ++f->sweep_expr_idx;
        }
        if (f->sweep_expr_idx >= grp.exprs().size()) return true;
        f->sweep_expr = grp.exprs()[f->sweep_expr_idx];
        f->sweep_impls = &rules.ImplementationsFor(f->sweep_expr->op());
        f->sweep_rule_pos = 0;
        f->state = kGoalSweepRule;
        [[fallthrough]];
      }
      case kGoalSweepRule: {
        const std::vector<RuleId>& impls = *f->sweep_impls;
        if (f->sweep_rule_pos >= impls.size()) {
          ++f->sweep_expr_idx;
          f->state = kGoalSweepExpr;
          break;
        }
        f->sweep_rule = &rules.implementation(impls[f->sweep_rule_pos]);
        f->bindings.clear();
        f->matcher.Start(f->sweep_rule->pattern(), *f->sweep_expr,
                         opt_.memo_, &f->bindings);
        f->state = kGoalSweepMatch;
        [[fallthrough]];
      }
      case kGoalSweepMatch: {
        if (!RunMatcher(f->matcher, f)) return false;  // exploring an input
        opt_.AddAlgorithmMoves(*f->sweep_rule, f->bindings, *f->required,
                               f->excluded->get(), &f->moves);
        ++f->sweep_rule_pos;
        f->state = kGoalSweepRule;
        break;
      }
      default:
        VOLCANO_CHECK(false && "not a sweep state");
    }
  }
}

void TaskEngine::StepGoal(GoalFrame* f) {
  const CostModel& cm = cm_;
  switch (f->state) {
    case kGoalEnter: {
      // Parked at the entry budget checkpoint; re-run the prologue.
      if (!opt_.CheckBudget()) {
        if (Parking()) return;  // stay parked
        *f->out = Optimizer::Result{nullptr, f->limit};
        stack_.Pop();
        f->Reuse();
        goal_pool_.Release(f);
        return;
      }
      GroupId group = opt_.memo_.Find(f->group);
      Goal goal = opt_.memo_.CanonicalGoal(*f->required, *f->excluded);
      if (AnswerFromMemo(group, goal, f->limit, f->out)) {
        stack_.Pop();
        f->Reuse();
        goal_pool_.Release(f);
        return;
      }
      BeginGoal(f, group, goal);
      return;
    }

    case kGoalDispatch: {
      // Canonical pointers make "is this the vacuous requirement?" an
      // identity test.
      if (opt_.options_.glue_properties && *f->excluded == nullptr &&
          f->goal.required != opt_.any_props_.get()) {
        f->state = kGoalGlueDone;
        f->glue_base = Optimizer::Result{};
        EnterGoal(f->group, &opt_.any_props_, f->limit, nullptr,
                  &f->glue_base, f);
        return;
      }
      if (opt_.options_.strategy == SearchOptions::Strategy::kInterleaved) {
        f->pursued.clear();
        f->enforcers_done = false;
        f->state = kGoalInterRound;
        return;
      }
      // --- derive all equivalent logical expressions ----------------------
      f->state = kGoalCollectInit;
      if (EnterExplore(f->group, f)) return;
      [[fallthrough]];
    }

    case kGoalCollectInit: {
      // One round of the stable-collection loop: matching multi-level
      // patterns explores input classes, which can merge this class with
      // another mid-sweep; restart until the class is stable.
      f->group = opt_.memo_.Find(f->group);
      f->moves.clear();
      f->collect_before = f->group;
      f->collect_size_before =
          opt_.memo_.group(f->collect_before).exprs().size();
      f->sweep_group = f->collect_before;
      f->sweep_expr_idx = 0;
      f->sweep_next = kGoalCollectCheck;
      f->state = kGoalSweepExpr;
      [[fallthrough]];
    }

    case kGoalSweepExpr:
    case kGoalSweepRule:
    case kGoalSweepMatch: {
      if (!Sweep(f)) return;
      f->state = f->sweep_next;
      if (f->state != kGoalCollectCheck) return;
      [[fallthrough]];
    }

    case kGoalCollectCheck: {
      f->group = opt_.memo_.Find(f->group);
      bool stable =
          f->group == f->collect_before &&
          opt_.memo_.group(f->group).exprs().size() == f->collect_size_before;
      if (!stable) {
        f->state = kGoalCollectInit;
        return;
      }
      f->logical = &opt_.memo_.LogicalOf(f->group);
      opt_.CollectEnforcerMoves(*f->required, *f->excluded, **f->logical,
                                &f->moves);
      // --- order the set of moves by promise -------------------------------
      if (opt_.big_join_mode_) {
        // Big-join escalation: among equal-promise moves, pursue the ones
        // with the smallest input cardinalities first, so a cheap incumbent
        // exists early and the incumbent test prunes the expensive orders
        // instead of costing them (see Optimizer::AssignMoveOrderKeys) —
        // until the cumulative rule tables have recorded winners, at which
        // point the learned key (promise × win rate × cardinality discount,
        // Optimizer::AssignAdaptiveOrderKeys) takes over.
        if (opt_.HasMoveStats()) {
          opt_.AssignAdaptiveOrderKeys(&f->moves);
          search_internal::SortMovesByScore(f->moves);
        } else {
          opt_.AssignMoveOrderKeys(&f->moves);
          search_internal::SortMovesByPromiseAndKey(f->moves);
        }
      } else {
        search_internal::SortMovesByPromise(f->moves);
      }
      if (opt_.options_.move_limit > 0 &&
          f->moves.size() >
              static_cast<size_t>(opt_.options_.move_limit)) {
        opt_.stats_.moves_skipped +=
            f->moves.size() - opt_.options_.move_limit;
        f->moves.resize(opt_.options_.move_limit);
      }
      f->move_idx = 0;
      f->state = kGoalPursueNext;
      [[fallthrough]];
    }

    case kGoalPursueNext: {
      if (f->move_idx >= f->moves.size()) {
        FinishGoal(f);
        return;
      }
      if (!opt_.CheckBudget()) {
        if (Parking()) return;  // park right at the pursue checkpoint
        FinishGoal(f);
        return;
      }
      const Optimizer::Move* mv = &f->moves[f->move_idx];
      ++f->move_idx;
      PushMove(mv, f);
      return;
    }

    case kGoalGlueDone: {
      // The glue ablation's tail: the base "any properties" goal has been
      // answered into glue_base; patch it with glue enforcers if needed.
      if (f->glue_base.choice == nullptr) {
        f->best = Optimizer::Result{nullptr, f->limit};
        FinishGoal(f);
        return;
      }
      if (f->glue_base.choice->props->Covers(**f->required)) {
        f->best = f->glue_base;
        f->best_cost = f->best.cost;
        FinishGoal(f);
        return;
      }
      GroupId group = opt_.memo_.Find(f->group);
      const LogicalPropsPtr& logical = opt_.memo_.LogicalOf(group);
      const std::vector<std::unique_ptr<EnforcerRule>>& enforcers =
          rules_.enforcers();
      Optimizer::Result best{nullptr, f->limit};
      for (size_t i = 0; i < enforcers.size(); ++i) {
        const EnforcerRule& enf = *enforcers[i];
        std::optional<EnforcerApplication> app =
            enf.Enforce(*f->required, *logical);
        if (!app.has_value()) continue;
        ++opt_.stats_.enforcer_moves;
        ++opt_.stats_.cost_estimates;
        Cost local = enf.LocalCost(*logical, *app->delivered);
        if (!opt_.AdmitLocalCost(&local)) continue;
        Cost total = cm.Add(f->glue_base.cost, local);
        if (!cm.LessEq(total, f->limit)) continue;
        if (best.choice != nullptr && !cm.Less(total, best.cost)) continue;
        PlanChoice* c = Incumbent(f);
        opt_.RecordEnforcer(c, enf, static_cast<uint32_t>(i), app->delivered,
                            logical, total, f->glue_base.choice);
        best = Optimizer::Result{c, total};
      }
      f->best = best;
      if (f->best.choice != nullptr) f->best_cost = f->best.cost;
      FinishGoal(f);
      return;
    }

    case kGoalInterRound: {
      // One round of RunInterleaved: collect transformation moves and start
      // the algorithm-move sweep; the round's pursue phase follows.
      if (!opt_.CheckBudget()) {
        if (Parking()) return;
        FinishGoal(f);
        return;
      }
      f->group = opt_.memo_.Find(f->group);
      f->logical = &opt_.memo_.LogicalOf(f->group);
      const RuleSet& rules = rules_;
      f->tmoves.clear();
      // Past the exploration cap no transformation fires (a cut-short one
      // stays unfired, so it would otherwise come back every round).
      for (size_t i = 0; !opt_.ExploreCapReached(); ++i) {
        f->group = opt_.memo_.Find(f->group);
        const Group& grp = opt_.memo_.group(f->group);
        if (i >= grp.exprs().size()) break;
        MExpr* m = grp.exprs()[i];
        if (m->dead()) continue;
        for (RuleId rid : rules.TransformationsFor(m->op())) {
          if (!m->HasFired(rid)) {
            f->tmoves.push_back({m, &rules.transformation(rid)});
          }
        }
      }
      f->moves.clear();
      f->sweep_group = f->group;
      f->sweep_expr_idx = 0;
      f->sweep_next = kGoalInterFilter;
      f->state = kGoalSweepExpr;
      return;
    }

    case kGoalInterFilter: {
      // Algorithm moves for expressions not pursued under this goal yet.
      f->moves.erase(
          std::remove_if(f->moves.begin(), f->moves.end(),
                         [&](const Optimizer::Move& mv) {
                           return f->pursued.count(
                                      {&mv.binding.root(), mv.rule}) > 0;
                         }),
          f->moves.end());
      if (!f->enforcers_done) {
        opt_.CollectEnforcerMoves(*f->required, *f->excluded, **f->logical,
                                  &f->moves);
      }
      if (f->tmoves.empty() && f->moves.empty()) {
        FinishGoal(f);
        return;
      }
      f->tmove_idx = 0;
      f->state = kGoalInterTrans;
      return;
    }

    case kGoalInterTrans: {
      // Pursue transformations first within a round (their results enlarge
      // the next round's move set).
      if (f->tmove_idx >= f->tmoves.size()) {
        search_internal::SortMovesByPromise(f->moves);
        f->move_idx = 0;
        f->state = kGoalInterPursue;
        return;
      }
      if (!opt_.CheckBudget()) {
        if (Parking()) return;
        FinishGoal(f);
        return;
      }
      GoalFrame::TransMove& tm = f->tmoves[f->tmove_idx];
      if (tm.expr->dead() || tm.expr->HasFired(tm.rule->id())) {
        ++f->tmove_idx;
        return;
      }
      tm.expr->MarkFired(tm.rule->id());
      f->trans_rule = tm.rule;
      f->bindings.clear();
      f->matcher.Start(tm.rule->pattern(), *tm.expr, opt_.memo_,
                       &f->bindings);
      f->state = kGoalInterMatch;
      [[fallthrough]];
    }

    case kGoalInterMatch: {
      if (!RunMatcher(f->matcher, f)) return;
      const GoalFrame::TransMove& tm = f->tmoves[f->tmove_idx];
      ApplyTransformation(*f->trans_rule, f->bindings, *tm.expr, f->group);
      if (ExplorationCut()) tm.expr->UnmarkFired(f->trans_rule->id());
      ++f->tmove_idx;
      f->state = kGoalInterTrans;
      return;
    }

    case kGoalInterPursue: {
      if (f->move_idx >= f->moves.size()) {
        f->state = kGoalInterRound;
        return;
      }
      if (!opt_.CheckBudget()) {
        if (Parking()) return;
        FinishGoal(f);
        return;
      }
      Optimizer::Move* mv = &f->moves[f->move_idx];
      ++f->move_idx;
      if (mv->rule != nullptr) {
        f->pursued.insert({&mv->binding.root(), mv->rule});
      } else {
        f->enforcers_done = true;
      }
      PushMove(mv, f);
      return;
    }
  }
}

// ---------------------------------------------------------------------------
// Move stepping (PursueMove)
// ---------------------------------------------------------------------------

bool TaskEngine::TakeInput(MoveFrame* f) {
  if (f->child_result.choice == nullptr) {
    FinishMove(f);
    return false;
  }
  f->total = cm_.Add(f->total, f->child_result.cost);
  f->children.push_back(f->child_result.choice);
  ++f->input_idx;
  return true;
}

PlanChoice* TaskEngine::Incumbent(GoalFrame* goal) {
  if (goal->incumbent == nullptr) goal->incumbent = opt_.memo_.NewChoice();
  return goal->incumbent;
}

void TaskEngine::FinishEnforcer(MoveFrame* f) {
  const CostModel& cm = cm_;
  const Optimizer::Move& mv = *f->mv;
  GoalFrame* goal = f->goal;
  if (f->child_result.choice == nullptr) {
    FinishMove(f);
    return;
  }
  Cost total = cm.Add(f->total, f->child_result.cost);
  if (!cm.LessEq(total, goal->best_cost) ||
      (goal->best.choice != nullptr && !cm.Less(total, goal->best_cost))) {
    FinishMove(f);
    return;
  }
  VOLCANO_TRACE(opt_.options_.trace,
                {.kind = goal->best.choice == nullptr
                             ? TraceEventKind::kWinnerInstalled
                             : TraceEventKind::kWinnerImproved,
                 .group = goal->group,
                 .rule_id = mv.enforcer_id,
                 .rule = mv.enforcer->name().c_str(),
                 .cost = cm.Total(total)});
  PlanChoice* c = Incumbent(goal);
  opt_.RecordEnforcer(c, *mv.enforcer, mv.enforcer_id, mv.app.delivered,
                      *goal->logical, total, f->child_result.choice);
  goal->best = Optimizer::Result{c, total};
  goal->best_cost = total;
  ++opt_.metrics_.enforcers[mv.enforcer_id].succeeded;
  FinishMove(f);
}

void TaskEngine::StepMove(MoveFrame* f) {
  const CostModel& cm = cm_;
  const Optimizer::Move& mv = *f->mv;
  GoalFrame* goal = f->goal;
  switch (f->state) {
    case kMoveStart: {
      SearchStats& st = opt_.stats_;
      if (mv.rule == nullptr) {
        ++st.enforcer_moves;
        ++st.cost_estimates;
        ++opt_.metrics_.enforcers[mv.enforcer_id].fired;
        VOLCANO_TRACE(opt_.options_.trace,
                      {.kind = TraceEventKind::kEnforcerPursued,
                       .group = goal->group,
                       .rule_id = mv.enforcer_id,
                       .rule = mv.enforcer->name().c_str(),
                       .promise = mv.promise});
        Cost local =
            mv.enforcer->LocalCost(**goal->logical, *mv.app.delivered);
        if (!opt_.AdmitLocalCost(&local) || std::isinf(cm.Total(local))) {
          FinishMove(f);
          return;
        }
        if (opt_.options_.branch_and_bound &&
            !cm.LessEq(local, goal->best_cost)) {
          ++st.moves_pruned;
          VOLCANO_TRACE(opt_.options_.trace,
                        {.kind = TraceEventKind::kMovePruned,
                         .group = goal->group,
                         .rule_id = mv.enforcer_id,
                         .rule = mv.enforcer->name().c_str(),
                         .cost = cm.Total(goal->best_cost)});
          FinishMove(f);
          return;
        }
        f->total = local;
        // "The original logical expression is optimized ... with a suitably
        // modified (i.e., relaxed) physical property vector" (section 6).
        // The relaxed goal is entered without a limit, like every input
        // goal: its memoized winner is then its optimum, and the incumbent
        // test in FinishEnforcer does the pruning.
        f->state = kMoveEnforcerDone;
        if (EnterGoal(goal->group, &mv.app.input_required, cm.Infinity(),
                      &mv.app.excluded, &f->child_result, f)) {
          return;
        }
        FinishEnforcer(f);
        return;
      }
      ++st.algorithm_moves;
      ++st.cost_estimates;
      ++opt_.metrics_.implementations[mv.rule->id()].fired;
      VOLCANO_TRACE(opt_.options_.trace,
                    {.kind = TraceEventKind::kAlgorithmPursued,
                     .group = goal->group,
                     .rule_id = mv.rule->id(),
                     .rule = mv.rule->name().c_str(),
                     .promise = mv.promise});
      f->total = mv.rule->LocalCost(mv.binding, opt_.memo_);
      // NaN: invalid cost, reject; infinite: the model says impossible.
      if (!opt_.AdmitLocalCost(&f->total) || std::isinf(cm.Total(f->total))) {
        FinishMove(f);
        return;
      }
      f->children.clear();
      f->children.reserve(mv.binding.num_leaves());
      f->input_idx = 0;
      break;
    }

    case kMoveInputDone:
      if (!TakeInput(f)) return;
      break;

    case kMoveEnforcerDone:
      FinishEnforcer(f);
      return;
  }

  // Optimize the algorithm's inputs in order. An input the memo answers is
  // taken without leaving this step; a searched one resumes it in
  // kMoveInputDone.
  for (;;) {
    if (f->input_idx == mv.binding.num_leaves()) break;
    if (opt_.options_.branch_and_bound &&
        !cm.LessEq(f->total, goal->best_cost)) {
      ++opt_.stats_.moves_pruned;
      VOLCANO_TRACE(opt_.options_.trace,
                    {.kind = TraceEventKind::kMovePruned,
                     .group = goal->group,
                     .rule_id = mv.rule->id(),
                     .rule = mv.rule->name().c_str(),
                     .cost = cm.Total(goal->best_cost)});
      FinishMove(f);
      return;
    }
    // Input goals are entered without a limit, so each is searched once
    // and never fails under a tight limit only to be reopened under a
    // looser one; the incumbent test above prunes this move instead.
    f->state = kMoveInputDone;
    if (EnterGoal(mv.binding.leaf(f->input_idx),
                  &mv.alt.input_props[f->input_idx], cm.Infinity(), nullptr,
                  &f->child_result, f)) {
      return;
    }
    if (!TakeInput(f)) return;
  }

  // All inputs planned: install if the move beats the incumbent.
  if (!cm.LessEq(f->total, goal->best_cost) ||
      (goal->best.choice != nullptr && !cm.Less(f->total, goal->best_cost))) {
    FinishMove(f);
    return;
  }
  VOLCANO_TRACE(opt_.options_.trace,
                {.kind = goal->best.choice == nullptr
                             ? TraceEventKind::kWinnerInstalled
                             : TraceEventKind::kWinnerImproved,
                 .group = goal->group,
                 .rule_id = mv.rule->id(),
                 .rule = mv.rule->name().c_str(),
                 .cost = cm.Total(f->total)});
  PlanChoice* c = Incumbent(goal);
  opt_.RecordAlgorithm(c, mv, *goal->logical, f->total, f->children);
  goal->best = Optimizer::Result{c, f->total};
  goal->best_cost = f->total;
  ++opt_.metrics_.implementations[mv.rule->id()].succeeded;
  FinishMove(f);
}

// ---------------------------------------------------------------------------
// Explore stepping (ExploreGroup)
// ---------------------------------------------------------------------------

void TaskEngine::StepExplore(ExploreFrame* f) {
  const RuleSet& rules = rules_;
  for (;;) {
    switch (f->state) {
      case kExpRoundStart:
        f->changed = false;
        f->expr_idx = 0;
        f->state = kExpSweepExpr;
        [[fallthrough]];

      case kExpSweepExpr: {
        // One budget checkpoint per expression, dead ones included.
        if (!opt_.CheckBudget()) {
          if (Parking()) return;
          FinishExplore(f);
          return;
        }
        if (opt_.ExploreCapReached()) {
          FinishExplore(f);
          return;
        }
        f->group = opt_.memo_.Find(f->group);
        Group& grp = opt_.memo_.group(f->group);
        if (f->expr_idx >= grp.exprs().size()) {
          f->state = kExpRoundEnd;
          break;
        }
        MExpr* m = grp.exprs()[f->expr_idx];
        if (m->dead()) {
          ++f->expr_idx;
          break;
        }
        f->expr = m;
        f->trans = &rules.TransformationsFor(m->op());
        f->rule_pos = 0;
        f->state = kExpRuleNext;
        [[fallthrough]];
      }

      case kExpRuleNext: {
        const std::vector<RuleId>& trans = *f->trans;
        while (f->rule_pos < trans.size() &&
               f->expr->HasFired(trans[f->rule_pos])) {
          ++f->rule_pos;
        }
        if (f->rule_pos >= trans.size()) {
          ++f->expr_idx;
          f->state = kExpSweepExpr;
          break;
        }
        const RuleId rid = trans[f->rule_pos];
        f->expr->MarkFired(rid);
        f->rule = &rules.transformation(rid);
        f->bindings.clear();
        f->matcher.Start(f->rule->pattern(), *f->expr, opt_.memo_,
                         &f->bindings);
        f->state = kExpMatch;
        [[fallthrough]];
      }

      case kExpMatch: {
        if (!RunMatcher(f->matcher, f)) return;  // exploring an input class
        if (ApplyTransformation(*f->rule, f->bindings, *f->expr, f->group) >
            0) {
          f->changed = true;
        }
        // The budget or the cap may have stopped the exploration of an
        // input class this match bound, so the bindings may be incomplete:
        // like FinishExplore's class, the rule is not recorded as done.
        if (ExplorationCut()) f->expr->UnmarkFired(f->rule->id());
        ++f->rule_pos;
        f->state = kExpRuleNext;
        break;
      }

      case kExpRoundEnd: {
        // A budget checkpoint after each fixpoint round.
        if (!opt_.CheckBudget()) {
          if (Parking()) return;
          FinishExplore(f);
          return;
        }
        if (f->changed && !opt_.ExploreCapReached()) {
          f->state = kExpRoundStart;
          break;
        }
        FinishExplore(f);
        return;
      }
    }
  }
}

}  // namespace volcano
