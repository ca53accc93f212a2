// Memo tests: expression insertion and deduplication, equivalence-class
// creation and merging (the paper's Figure 3), winner bookkeeping (plans and
// memoized failures), and the in-progress marking.

#include <gtest/gtest.h>

#include "relational/catalog.h"
#include "relational/query_gen.h"
#include "relational/rel_model.h"
#include "search/memo.h"
#include "search/optimizer.h"

namespace volcano {
namespace {

using rel::Catalog;
using rel::RelModel;

/// A plan choice with no inputs, as a scan move records it.
const PlanChoice* Recorded(Memo& memo, OperatorId op, OpArgPtr arg,
                           PhysPropsPtr props, LogicalPropsPtr logical,
                           Cost cost) {
  PlanChoice* c = memo.NewChoice();
  c->op = op;
  c->arg = std::move(arg);
  c->props = std::move(props);
  c->logical = std::move(logical);
  c->cost = cost;
  return c;
}

struct Fixture {
  Fixture() {
    VOLCANO_CHECK(catalog.AddRelation("A", 1000, 100, 2).ok());
    VOLCANO_CHECK(catalog.AddRelation("B", 2000, 100, 2).ok());
    VOLCANO_CHECK(catalog.AddRelation("C", 3000, 100, 2).ok());
    model = std::make_unique<RelModel>(catalog);
  }

  Symbol Attr(const char* name) {
    Symbol s = catalog.symbols().Lookup(name);
    VOLCANO_CHECK(s.valid());
    return s;
  }

  Catalog catalog;
  std::unique_ptr<RelModel> model;
};

TEST(Memo, InsertQueryCreatesOneClassPerNode) {
  Fixture f;
  Memo memo(*f.model);
  ExprPtr q = f.model->Join(f.model->Get("A"), f.model->Get("B"),
                            f.Attr("A.a0"), f.Attr("B.a0"));
  GroupId root = memo.InsertQuery(*q);
  EXPECT_EQ(memo.num_groups(), 3u);  // A, B, join
  EXPECT_EQ(memo.num_exprs(), 3u);
  EXPECT_EQ(memo.group(root).exprs().size(), 1u);
}

TEST(Memo, DuplicateInsertIsDetected) {
  Fixture f;
  Memo memo(*f.model);
  ExprPtr q = f.model->Get("A");
  GroupId g1 = memo.InsertQuery(*q);
  GroupId g2 = memo.InsertQuery(*q);
  EXPECT_EQ(memo.Find(g1), memo.Find(g2));
  EXPECT_EQ(memo.num_exprs(), 1u);
}

TEST(Memo, DistinctArgsAreDistinctExprs) {
  Fixture f;
  Memo memo(*f.model);
  GroupId a = memo.InsertQuery(*f.model->Get("A"));
  GroupId b = memo.InsertQuery(*f.model->Get("B"));
  EXPECT_NE(memo.Find(a), memo.Find(b));
  EXPECT_EQ(memo.num_exprs(), 2u);
}

TEST(Memo, LogicalPropsDerivedOncePerClass) {
  Fixture f;
  Memo memo(*f.model);
  GroupId g = memo.InsertQuery(*f.model->Get("A"));
  const auto& props = rel::AsRel(*memo.LogicalOf(g));
  EXPECT_DOUBLE_EQ(props.cardinality(), 1000);
  EXPECT_TRUE(props.HasAttr(f.Attr("A.a0")));
  EXPECT_FALSE(props.HasAttr(f.Attr("B.a0")));
}

TEST(Memo, InsertRexIntoClassAddsExpression) {
  Fixture f;
  Memo memo(*f.model);
  ExprPtr q = f.model->Join(f.model->Get("A"), f.model->Get("B"),
                            f.Attr("A.a0"), f.Attr("B.a0"));
  GroupId root = memo.InsertQuery(*q);
  GroupId ga = memo.InsertQuery(*f.model->Get("A"));
  GroupId gb = memo.InsertQuery(*f.model->Get("B"));

  // Commuted variant inserted into the same class.
  OpArgPtr arg =
      rel::JoinArg::Make(f.catalog.symbols(), f.Attr("B.a0"), f.Attr("A.a0"));
  Rex rex;
  Rex::Ref top = rex.Node(f.model->ops().join, arg,
                          {rex.Leaf(gb), rex.Leaf(ga)});
  memo.InsertRex(rex, top, root);
  EXPECT_EQ(memo.group(root).exprs().size(), 2u);
  EXPECT_EQ(memo.num_groups(), 3u);  // no new class

  // Re-inserting is a no-op.
  memo.InsertRex(rex, top, root);
  EXPECT_EQ(memo.group(root).exprs().size(), 2u);
}

TEST(Memo, AssociativityCreatesNewClassFigure3) {
  // The paper's Figure 3: rewriting JOIN(JOIN(A,B),C) to JOIN(A,JOIN(B,C))
  // adds one expression to the top class and creates exactly one new class
  // for JOIN(B,C).
  Fixture f;
  Memo memo(*f.model);
  ExprPtr inner = f.model->Join(f.model->Get("A"), f.model->Get("B"),
                                f.Attr("A.a0"), f.Attr("B.a0"));
  ExprPtr q = f.model->Join(inner, f.model->Get("C"), f.Attr("B.a1"),
                            f.Attr("C.a0"));
  GroupId root = memo.InsertQuery(*q);
  size_t groups_before = memo.num_groups();
  ASSERT_EQ(groups_before, 5u);  // A, B, C, AB, ABC

  GroupId ga = memo.InsertQuery(*f.model->Get("A"));
  GroupId gb = memo.InsertQuery(*f.model->Get("B"));
  GroupId gc = memo.InsertQuery(*f.model->Get("C"));

  OpArgPtr bc_arg =
      rel::JoinArg::Make(f.catalog.symbols(), f.Attr("B.a1"), f.Attr("C.a0"));
  OpArgPtr top_arg =
      rel::JoinArg::Make(f.catalog.symbols(), f.Attr("A.a0"), f.Attr("B.a0"));
  Rex rex;
  Rex::Ref top = rex.Node(
      f.model->ops().join, top_arg,
      {rex.Leaf(ga),
       rex.Node(f.model->ops().join, bc_arg, {rex.Leaf(gb), rex.Leaf(gc)})});
  memo.InsertRex(rex, top, root);

  EXPECT_EQ(memo.num_groups(), groups_before + 1);  // exactly one new class
  EXPECT_EQ(memo.group(root).exprs().size(), 2u);
}

TEST(Memo, LeafRexMergesClasses) {
  // A rule rewriting an expression to one of its inputs (e.g. a vacuous
  // select) merges the two classes.
  Fixture f;
  Memo memo(*f.model);
  ExprPtr q = f.model->Select(f.model->Get("A"), f.Attr("A.a0"),
                              rel::CmpOp::kLess, 1000, 1.0);
  GroupId root = memo.InsertQuery(*q);
  GroupId ga = memo.InsertQuery(*f.model->Get("A"));
  ASSERT_NE(memo.Find(root), memo.Find(ga));

  size_t merges_before = memo.num_merges();
  Rex rex;
  memo.InsertRex(rex, rex.Leaf(ga), root);
  EXPECT_EQ(memo.Find(root), memo.Find(ga));
  EXPECT_EQ(memo.num_merges(), merges_before + 1);
}

TEST(Memo, MergePropagatesToParents) {
  // When two classes merge, parent expressions referencing them normalize to
  // the same signature, which must cascade into a parent-class merge.
  Fixture f;
  Memo memo(*f.model);

  // Two distinct leaf classes that will be declared equivalent.
  ExprPtr sel_a1 = f.model->Select(f.model->Get("A"), f.Attr("A.a0"),
                                   rel::CmpOp::kLess, 10, 0.1);
  GroupId g1 = memo.InsertQuery(*sel_a1);
  GroupId ga = memo.InsertQuery(*f.model->Get("A"));

  // Parents: identical joins over g1 and ga respectively.
  OpArgPtr arg =
      rel::JoinArg::Make(f.catalog.symbols(), f.Attr("A.a0"), f.Attr("B.a0"));
  GroupId gb = memo.InsertQuery(*f.model->Get("B"));
  auto [p1, c1] = memo.InsertMExpr(f.model->ops().join, arg, {g1, gb},
                                   kInvalidGroup);
  auto [p2, c2] = memo.InsertMExpr(f.model->ops().join, arg, {ga, gb},
                                   kInvalidGroup);
  ASSERT_TRUE(c1);
  ASSERT_TRUE(c2);
  ASSERT_NE(memo.Find(p1->group()), memo.Find(p2->group()));

  // Declare g1 == ga; the parents must merge too.
  Rex rex;
  memo.InsertRex(rex, rex.Leaf(ga), g1);
  EXPECT_EQ(memo.Find(p1->group()), memo.Find(p2->group()));
}

TEST(Memo, WinnerStorageKeepsBetterPlan) {
  Fixture f;
  Memo memo(*f.model);
  GroupId g = memo.InsertQuery(*f.model->Get("A"));
  GoalKey key{f.model->AnyProps(), nullptr};

  const PlanChoice* plan1 =
      Recorded(memo, f.model->ops().file_scan, nullptr, f.model->AnyProps(),
               memo.LogicalOf(g), Cost::Vector({1.0, 1.0}));
  const PlanChoice* plan2 =
      Recorded(memo, f.model->ops().file_scan, nullptr, f.model->AnyProps(),
               memo.LogicalOf(g), Cost::Vector({0.5, 0.5}));
  memo.StoreWinner(g, key, Winner{plan1, plan1->cost});
  memo.StoreWinner(g, key, Winner{plan2, plan2->cost});
  const Winner* w = memo.FindWinner(g, key);
  ASSERT_NE(w, nullptr);
  EXPECT_EQ(w->choice, plan2);

  // A worse plan does not displace the winner.
  memo.StoreWinner(g, key, Winner{plan1, plan1->cost});
  EXPECT_EQ(memo.FindWinner(g, key)->choice, plan2);
}

TEST(Memo, WinnersAreKeyedByPropertyVector) {
  Fixture f;
  Memo memo(*f.model);
  GroupId g = memo.InsertQuery(*f.model->Get("A"));
  GoalKey any{f.model->AnyProps(), nullptr};
  GoalKey sorted{f.model->Sorted({f.Attr("A.a0")}), nullptr};
  GoalKey sorted_excl{f.model->Sorted({f.Attr("A.a0")}),
                      f.model->Sorted({f.Attr("A.a0")})};

  const PlanChoice* plan =
      Recorded(memo, f.model->ops().file_scan, nullptr, f.model->AnyProps(),
               memo.LogicalOf(g), Cost::Scalar(1.0));
  memo.StoreWinner(g, any, Winner{plan, plan->cost});
  EXPECT_NE(memo.FindWinner(g, any), nullptr);
  EXPECT_EQ(memo.FindWinner(g, sorted), nullptr);
  EXPECT_EQ(memo.FindWinner(g, sorted_excl), nullptr);

  memo.StoreWinner(g, sorted_excl, Winner{plan, plan->cost});
  EXPECT_EQ(memo.FindWinner(g, sorted), nullptr);
  EXPECT_NE(memo.FindWinner(g, sorted_excl), nullptr);
}

TEST(Memo, InProgressMarking) {
  Fixture f;
  Memo memo(*f.model);
  GroupId g = memo.InsertQuery(*f.model->Get("A"));
  GoalKey key{f.model->AnyProps(), nullptr};
  EXPECT_FALSE(memo.IsInProgress(g, key));
  memo.MarkInProgress(g, key);
  EXPECT_TRUE(memo.IsInProgress(g, key));
  memo.UnmarkInProgress(g, key);
  EXPECT_FALSE(memo.IsInProgress(g, key));
}

TEST(Memo, MergeRecanonicalizesSignaturesAndPreservesWinners) {
  // Stress the merge path of the flat signature table: a two-level parent
  // chain over two classes that become equivalent. After the cascade, every
  // surviving signature entry must be re-canonicalized (duplicate inserts
  // under either old input spelling are detected), dead expressions must
  // stay dead, fired-rule masks must be OR-merged into the survivor, and
  // winner tables must survive with their cached-hash keys intact.
  Fixture f;
  Memo memo(*f.model);

  ExprPtr sel = f.model->Select(f.model->Get("A"), f.Attr("A.a0"),
                                rel::CmpOp::kLess, 10, 0.1);
  GroupId g1 = memo.InsertQuery(*sel);
  GroupId ga = memo.InsertQuery(*f.model->Get("A"));
  GroupId gb = memo.InsertQuery(*f.model->Get("B"));
  GroupId gc = memo.InsertQuery(*f.model->Get("C"));
  ASSERT_NE(memo.Find(g1), memo.Find(ga));

  OpArgPtr j1 =
      rel::JoinArg::Make(f.catalog.symbols(), f.Attr("A.a0"), f.Attr("B.a0"));
  OpArgPtr j2 =
      rel::JoinArg::Make(f.catalog.symbols(), f.Attr("B.a1"), f.Attr("C.a0"));

  // Level-1 parents over g1 and ga; duplicates once g1 == ga.
  auto [p1, c1] = memo.InsertMExpr(f.model->ops().join, j1, {g1, gb},
                                   kInvalidGroup);
  auto [p2, c2] = memo.InsertMExpr(f.model->ops().join, j1, {ga, gb},
                                   kInvalidGroup);
  ASSERT_TRUE(c1 && c2);
  // Level-2 parents over the level-1 classes; the merge must cascade.
  auto [q1, d1] = memo.InsertMExpr(f.model->ops().join, j2,
                                   {p1->group(), gc}, kInvalidGroup);
  auto [q2, d2] = memo.InsertMExpr(f.model->ops().join, j2,
                                   {p2->group(), gc}, kInvalidGroup);
  ASSERT_TRUE(d1 && d2);

  p1->MarkFired(3);
  p2->MarkFired(5);

  // Winners on the to-be-merged level-1 classes: same goal with different
  // costs, plus a winner under a second goal on one class only.
  GoalKey any{f.model->AnyProps(), nullptr};
  GoalKey sorted{f.model->Sorted({f.Attr("A.a0")}), nullptr};
  const PlanChoice* costly =
      Recorded(memo, f.model->ops().file_scan, nullptr, f.model->AnyProps(),
               memo.LogicalOf(p1->group()), Cost::Scalar(4.0));
  const PlanChoice* cheap =
      Recorded(memo, f.model->ops().file_scan, nullptr, f.model->AnyProps(),
               memo.LogicalOf(p2->group()), Cost::Scalar(1.0));
  memo.StoreWinner(p1->group(), any, Winner{costly, costly->cost});
  memo.StoreWinner(p2->group(), any, Winner{cheap, cheap->cost});
  const PlanChoice* ordered =
      Recorded(memo, f.model->ops().file_scan, nullptr, sorted.required,
               memo.LogicalOf(p2->group()), Cost::Scalar(7.0));
  memo.StoreWinner(p2->group(), sorted, Winner{ordered, ordered->cost});

  size_t exprs_before = memo.num_exprs();
  size_t merges_before = memo.num_merges();

  // Declare g1 == ga; level-1 and level-2 classes must cascade-merge.
  Rex rex;
  memo.InsertRex(rex, rex.Leaf(ga), g1);
  EXPECT_EQ(memo.Find(g1), memo.Find(ga));
  EXPECT_EQ(memo.Find(p1->group()), memo.Find(p2->group()));
  EXPECT_EQ(memo.Find(q1->group()), memo.Find(q2->group()));
  EXPECT_EQ(memo.num_merges(), merges_before + 3);

  // Exactly one duplicate died at each level, and the survivor carries the
  // union of the fired-rule marks.
  EXPECT_NE(p1->dead(), p2->dead());
  EXPECT_NE(q1->dead(), q2->dead());
  const MExpr* live = p1->dead() ? p2 : p1;
  EXPECT_TRUE(live->HasFired(3));
  EXPECT_TRUE(live->HasFired(5));
  EXPECT_EQ(memo.num_exprs(), exprs_before - 2);

  // Dead expressions are invisible to duplicate detection: re-inserting the
  // parent under *either* old input spelling finds the live survivor, with
  // no new expression or class created.
  size_t groups_before = memo.num_groups();
  auto [r1, created1] = memo.InsertMExpr(f.model->ops().join, j1, {g1, gb},
                                         kInvalidGroup);
  auto [r2, created2] = memo.InsertMExpr(f.model->ops().join, j1, {ga, gb},
                                         kInvalidGroup);
  EXPECT_FALSE(created1);
  EXPECT_FALSE(created2);
  EXPECT_EQ(r1, r2);
  EXPECT_EQ(r1, live);
  EXPECT_FALSE(r1->dead());
  EXPECT_EQ(memo.num_groups(), groups_before);

  // The merged class holds exactly one live level-1 expression.
  GroupId merged = memo.Find(p1->group());
  size_t live_count = 0;
  for (const MExpr* m : memo.group(merged).exprs()) {
    if (!m->dead()) ++live_count;
  }
  EXPECT_EQ(live_count, 1u);

  // Winner tables survived the merge: the cheaper plan won under `any`, the
  // winner under `sorted` carried over, and both remain reachable through
  // the canonical-goal probe (cached hashes stayed consistent).
  const Winner* w = memo.FindWinner(merged, any);
  ASSERT_NE(w, nullptr);
  EXPECT_EQ(w->choice, cheap);
  const Winner* wf = memo.FindWinner(merged, sorted);
  ASSERT_NE(wf, nullptr);
  EXPECT_EQ(wf->choice, ordered);
  EXPECT_DOUBLE_EQ(wf->cost[0], 7.0);
  EXPECT_EQ(memo.group(merged).num_winners(), 2u);
}

TEST(Memo, ToStringMentionsClassesAndWinners) {
  Fixture f;
  Memo memo(*f.model);
  GroupId g = memo.InsertQuery(*f.model->Get("A"));
  GoalKey key{f.model->AnyProps(), nullptr};
  const PlanChoice* plan = Recorded(
      memo, f.model->ops().file_scan,
      rel::GetArg::Make(f.catalog.symbols(), f.Attr("A.a0")),
      f.model->AnyProps(), memo.LogicalOf(g), Cost::Scalar(1.0));
  memo.StoreWinner(g, key, Winner{plan, plan->cost});
  std::string dump = memo.ToString();
  EXPECT_NE(dump.find("class"), std::string::npos);
  EXPECT_NE(dump.find("GET"), std::string::npos);
  EXPECT_NE(dump.find("FILE_SCAN"), std::string::npos);
}

}  // namespace
}  // namespace volcano
