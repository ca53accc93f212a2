#include "search/memo.h"

#include <algorithm>
#include <sstream>

namespace volcano {

namespace {

/// True iff `e`'s signature is (op, arg, inputs). `inputs` must already be
/// normalized to the same generation as `e`'s stored inputs.
bool SigMatches(const MExpr& e, OperatorId op, const OpArg* arg,
                std::span<const GroupId> inputs) {
  if (e.op() != op || e.num_inputs() != inputs.size()) return false;
  std::span<const GroupId> ein = e.inputs();
  for (size_t i = 0; i < inputs.size(); ++i) {
    if (ein[i] != inputs[i]) return false;
  }
  return OpArgEquals(e.arg().get(), arg);
}

uint64_t SigBase(OperatorId op, const OpArg* arg) {
  return HashCombine(Mix64(op), HashOpArg(arg));
}

uint64_t MixInputs(uint64_t base, std::span<const GroupId> inputs) {
  for (GroupId g : inputs) base = HashCombine(base, g);
  return base;
}

}  // namespace

Memo::~Memo() {
  // Arena storage is released wholesale; run the expression destructors
  // explicitly (MExpr holds an OpArgPtr).
  for (MExpr* m : exprs_) m->~MExpr();
}

void Group::Recycle() {
  exprs_.clear();
  referencing_.clear();
  logical_.reset();
  explored_ = false;
  exploring_ = false;
  winners_.ClearKeepingCapacity();
  in_progress_.ClearKeepingCapacity();
}

GroupId Memo::Find(GroupId g) const {
  VOLCANO_DCHECK(g < parent_.size());
  for (;;) {
    GroupId p = parent_[g];
    if (p == g) return g;
    GroupId gp = parent_[p];
    if (gp != p) {
      parent_[g] = gp;  // path halving
      g = gp;
    } else {
      g = p;
    }
  }
}

GroupId Memo::NewGroup(OperatorId op, const OpArg* arg,
                       const std::vector<GroupId>& inputs) {
  scratch_in_props_.clear();
  for (GroupId g : inputs) scratch_in_props_.push_back(LogicalOf(g));
  LogicalPropsPtr lp = model_.DeriveLogicalProps(op, arg, scratch_in_props_);
  scratch_in_props_.clear();

  GroupId id = static_cast<GroupId>(parent_.size());
  if (id == groups_.size()) groups_.push_back(std::make_unique<Group>());
  groups_[id]->logical_ = std::move(lp);
  parent_.push_back(id);
  ++num_live_groups_;
  VOLCANO_TRACE(trace_, {.kind = TraceEventKind::kGroupCreated, .group = id});
  return id;
}

std::pair<MExpr*, bool> Memo::InsertMExpr(OperatorId op, OpArgPtr arg,
                                          std::span<const GroupId> inputs,
                                          GroupId target) {
  VOLCANO_DCHECK(model_.registry().IsLogical(op));
  scratch_inputs_.clear();
  for (GroupId g : inputs) scratch_inputs_.push_back(Find(g));
  if (target != kInvalidGroup) target = Find(target);

  const OpArg* argp = arg.get();
  uint64_t base = SigBase(op, argp);
  uint64_t hash = MixInputs(base, scratch_inputs_);

  if (MExpr* const* found =
          sig_table_.FindHashed(hash, [&](const MExpr* e) {
            return SigMatches(*e, op, argp, scratch_inputs_);
          })) {
    MExpr* existing = *found;
    GroupId eg = Find(existing->group_);
    if (target != kInvalidGroup && eg != target) {
      // The "same" expression was derived into two classes: the classes are
      // equivalent and must be merged (paper, Figure 3 discussion).
      MergeGroups(eg, target);
    }
    ++num_deduped_;
    return {existing, false};
  }

  GroupId g =
      target != kInvalidGroup ? target : NewGroup(op, argp, scratch_inputs_);
  GroupId* in_arr =
      arena_.NewArray<GroupId>(scratch_inputs_.data(), scratch_inputs_.size());
  MExpr* m = arena_.New<MExpr>(op, std::move(arg), in_arr,
                               static_cast<uint32_t>(scratch_inputs_.size()),
                               g, base, hash);
  m->id_ = static_cast<uint32_t>(exprs_.size());
  m->provenance_ = provenance_;
  exprs_.push_back(m);
  groups_[g]->exprs_.push_back(m);
  ++num_live_exprs_;
  VOLCANO_TRACE(trace_, {.kind = TraceEventKind::kMExprCreated,
                         .group = g,
                         .other = m->id_,
                         .rule = provenance_,
                         .detail = model_.registry().Name(op).c_str()});

  sig_table_.InsertHashed(hash, m);

  // Register m under each distinct input class for later re-canonicalization.
  for (size_t i = 0; i < scratch_inputs_.size(); ++i) {
    const GroupId in = scratch_inputs_[i];
    if (std::find(scratch_inputs_.begin(), scratch_inputs_.begin() + i, in) ==
        scratch_inputs_.begin() + i) {
      groups_[in]->referencing_.push_back(m);
    }
  }

  return {m, true};
}

GroupId Memo::InsertQuery(const Expr& expr) {
  std::vector<GroupId> inputs;
  inputs.reserve(expr.num_inputs());
  for (const auto& in : expr.inputs()) inputs.push_back(InsertQuery(*in));
  auto [m, created] = InsertMExpr(expr.op(), expr.arg(), inputs,
                                  kInvalidGroup);
  (void)created;
  return Find(m->group());
}

GroupId Memo::InsertRex(const Rex& rex, Rex::Ref root, GroupId target,
                        MExpr** created) {
  if (created != nullptr) *created = nullptr;
  if (target != kInvalidGroup) target = Find(target);
  if (rex.is_leaf(root)) {
    VOLCANO_CHECK(target != kInvalidGroup);
    // The rule rewrote the expression to one of its sub-results (e.g. a
    // no-op elimination): the classes are simply equivalent.
    GroupId leaf = Find(rex.group(root));
    if (leaf != target) MergeGroups(leaf, target);
    return Find(target);
  }

  // Rule outputs are a few operators deep with a handful of inputs each,
  // so the input list stays inline.
  SmallVector<GroupId, 4> inputs;
  for (Rex::Ref in : rex.inputs(root)) {
    inputs.push_back(rex.is_leaf(in) ? Find(rex.group(in))
                                     : InsertRex(rex, in, kInvalidGroup));
  }
  auto [m, is_new] =
      InsertMExpr(rex.op(root), rex.arg(root),
                  std::span<const GroupId>(inputs.data(), inputs.size()),
                  target);
  if (created != nullptr && is_new) *created = m;
  return Find(target == kInvalidGroup ? m->group() : target);
}

void Memo::MergeGroups(GroupId a, GroupId b) {
  merge_worklist_.emplace_back(a, b);
  if (!merging_) RunMergeWorklist();
}

void Memo::RunMergeWorklist() {
  merging_ = true;
  while (!merge_worklist_.empty()) {
    auto [ra, rb] = merge_worklist_.back();
    merge_worklist_.pop_back();
    GroupId a = Find(ra);
    GroupId b = Find(rb);
    if (a == b) continue;
    if (b < a) std::swap(a, b);  // keep the smaller id as representative
    parent_[b] = a;
    ++num_merges_;
    --num_live_groups_;
    VOLCANO_TRACE(trace_, {.kind = TraceEventKind::kGroupsMerged,
                           .group = a,
                           .other = b});

    Group& ga = *groups_[a];
    Group& gb = *groups_[b];

    for (MExpr* m : gb.exprs_) {
      if (m->dead_) continue;
      m->group_ = a;
      ga.exprs_.push_back(m);
    }
    gb.exprs_.clear();

    // Winner keys are canonical goals from the memo-wide interner, so the
    // same goal has the same key (and hash) in both classes' tables.
    const CostModel& cm = model_.cost_model();
    gb.winners_.ForEach([&](Goal key, Winner& w) {
      Winner* cur = ga.winners_.Find(key);
      if (cur == nullptr) {
        ga.winners_.TryEmplace(key, std::move(w));
        return;
      }
      if (cm.Less(w.cost, cur->cost)) *cur = std::move(w);
    });
    gb.winners_.Clear();

    gb.in_progress_.ForEach([&](Goal k) { ga.in_progress_.Insert(k); });
    gb.in_progress_.Clear();

    // The merged class has new expressions; transformations must be
    // re-checked (fired masks keep the re-check cheap).
    ga.explored_ = false;

    // Re-canonicalize every expression that referenced the loser class.
    merge_refs_.clear();
    merge_refs_.swap(gb.referencing_);
    for (MExpr* m : merge_refs_) {
      if (m->dead_) continue;
      // Invariant: a live expression's signature-table entry is keyed by its
      // current sig_hash_ and (op, arg, inputs). Erase, normalize the input
      // array in place, re-mix the hash from the cached (op, arg) base, and
      // re-insert.
      sig_table_.EraseHashed(m->sig_hash_,
                             [m](const MExpr* e) { return e == m; });
      uint64_t h = m->sig_base_;
      for (uint32_t i = 0; i < m->num_inputs_; ++i) {
        m->inputs_[i] = Find(m->inputs_[i]);
        h = HashCombine(h, m->inputs_[i]);
      }
      m->sig_hash_ = h;
      if (MExpr* const* found =
              sig_table_.FindHashed(h, [&](const MExpr* e) {
                return SigMatches(*e, m->op_, m->arg_.get(), m->inputs());
              })) {
        // The normalized expression already exists elsewhere: m is a
        // duplicate; its class and the existing one are equivalent.
        MExpr* canonical = *found;
        m->dead_ = true;
        --num_live_exprs_;
        GroupId mg = Find(m->group_);
        GroupId cg = Find(canonical->group_);
        // Carry over fired-rule knowledge so work is not repeated.
        canonical->fired_ |= m->fired_;
        if (mg != cg) merge_worklist_.emplace_back(mg, cg);
        continue;
      }
      sig_table_.InsertHashed(h, m);
      for (GroupId in : m->inputs()) {
        if (in == a) {
          std::vector<MExpr*>& vec = groups_[a]->referencing_;
          if (std::find(vec.begin(), vec.end(), m) == vec.end()) {
            vec.push_back(m);
          }
          break;
        }
      }
    }
  }
  merging_ = false;
}

void Memo::StoreWinner(GroupId g, Goal goal, Winner w) {
  VOLCANO_DCHECK(w.choice != nullptr);
  Group& grp = *groups_[Find(g)];
  Winner* cur = grp.winners_.Find(goal);
  if (cur == nullptr) {
    grp.winners_.TryEmplace(goal, std::move(w));
    return;
  }
  if (model_.cost_model().Less(w.cost, cur->cost)) *cur = std::move(w);
}

void Memo::DropWinners() {
  for (size_t g = 0; g < parent_.size(); ++g) {
    groups_[g]->winners_.ClearKeepingCapacity();
  }
}

PlanChoice* Memo::NewChoice() {
  const size_t block = num_choices_ / kChoiceBlock;
  if (block == choice_blocks_.size()) {
    choice_blocks_.emplace_back(new PlanChoice[kChoiceBlock]);
  }
  return &choice_blocks_[block][num_choices_++ % kChoiceBlock];
}

void Memo::Reset() {
  for (MExpr* m : exprs_) m->~MExpr();
  exprs_.clear();
  for (size_t g = 0; g < parent_.size(); ++g) groups_[g]->Recycle();
  for (size_t i = 0; i < num_choices_; ++i) {
    choice_blocks_[i / kChoiceBlock][i % kChoiceBlock] = PlanChoice{};
  }
  num_choices_ = 0;
  parent_.clear();
  sig_table_.ClearKeepingCapacity();
  merge_refs_.clear();
  merge_worklist_.clear();
  scratch_inputs_.clear();
  scratch_in_props_.clear();
  interner_.Clear();  // must precede arena Reset conceptually: its cached
                      // canonical pointer refers to vectors it pinned alive
  arena_.Reset();
  merging_ = false;
  provenance_ = nullptr;
  num_live_groups_ = 0;
  num_live_exprs_ = 0;
  num_deduped_ = 0;
  num_merges_ = 0;
}

std::vector<GroupId> Memo::LiveGroups() const {
  std::vector<GroupId> out;
  for (GroupId g = 0; g < parent_.size(); ++g) {
    if (Find(g) == g) out.push_back(g);
  }
  return out;
}

std::string Memo::ToString() const {
  const OperatorRegistry& reg = model_.registry();
  std::ostringstream os;
  for (GroupId g : LiveGroups()) {
    const Group& grp = *groups_[g];
    os << "class " << g << "  " << grp.logical_->ToString() << "\n";
    for (const MExpr* m : grp.exprs_) {
      if (m->dead()) continue;
      os << "  " << reg.Name(m->op());
      if (m->arg() != nullptr) os << "[" << m->arg()->ToString() << "]";
      if (!m->inputs().empty()) {
        os << "(";
        for (size_t i = 0; i < m->inputs().size(); ++i) {
          if (i) os << ", ";
          os << Find(m->input(i));
        }
        os << ")";
      }
      os << "\n";
    }
    grp.winners_.ForEach([&](Goal key, const Winner& w) {
      os << "  goal " << key.required->ToString();
      if (key.excluded != nullptr)
        os << " excluding " << key.excluded->ToString();
      os << " -> " << PlanToLine(*BuildPlan(*w.choice), reg) << " cost "
         << model_.cost_model().ToString(w.cost) << "\n";
    });
  }
  return os.str();
}

}  // namespace volcano
