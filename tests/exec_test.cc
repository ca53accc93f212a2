// Unit tests for the execution engine: each iterator in isolation, data
// generation, and schema utilities.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>

#include "exec/datagen.h"
#include "exec/iterators.h"
#include "exec/plan_exec.h"
#include "relational/catalog.h"

namespace volcano::exec {
namespace {

SymbolTable g_symbols;

Symbol Sym(const char* s) { return g_symbols.Intern(s); }

Table MakeTable(std::vector<Symbol> attrs, std::vector<Row> rows) {
  Table t;
  t.schema = Schema(std::move(attrs));
  t.rows = std::move(rows);
  return t;
}

TEST(Schema, IndexOfAndConcat) {
  Schema a({Sym("x"), Sym("y")});
  Schema b({Sym("z")});
  EXPECT_EQ(a.IndexOf(Sym("x")), 0);
  EXPECT_EQ(a.IndexOf(Sym("y")), 1);
  EXPECT_EQ(a.IndexOf(Sym("z")), -1);
  Schema c = Schema::Concat(a, b);
  ASSERT_EQ(c.size(), 3u);
  EXPECT_EQ(c.IndexOf(Sym("z")), 2);
}

TEST(ScanIterator, ProducesAllRows) {
  Table t = MakeTable({Sym("a")}, {{1}, {2}, {3}});
  ScanIterator scan(t);
  std::vector<Row> out = Drain(scan);
  EXPECT_EQ(out, (std::vector<Row>{{1}, {2}, {3}}));
}

TEST(ScanIterator, EmptyTable) {
  Table t = MakeTable({Sym("a")}, {});
  ScanIterator scan(t);
  EXPECT_TRUE(Drain(scan).empty());
}

TEST(FilterIterator, AppliesPredicate) {
  Table t = MakeTable({Sym("f1")}, {{1}, {5}, {3}, {9}});
  rel::SelectArg pred(g_symbols, Sym("f1"), rel::CmpOp::kLess, 5, 0.5);
  FilterIterator f(std::make_unique<ScanIterator>(t), pred);
  EXPECT_EQ(Drain(f), (std::vector<Row>{{1}, {3}}));
}

TEST(FilterIterator, AllCmpOps) {
  Table t = MakeTable({Sym("f2")}, {{1}, {2}, {3}});
  auto run = [&](rel::CmpOp op) {
    rel::SelectArg pred(g_symbols, Sym("f2"), op, 2, 0.5);
    FilterIterator f(std::make_unique<ScanIterator>(t), pred);
    return Drain(f).size();
  };
  EXPECT_EQ(run(rel::CmpOp::kLess), 1u);
  EXPECT_EQ(run(rel::CmpOp::kLessEq), 2u);
  EXPECT_EQ(run(rel::CmpOp::kEq), 1u);
  EXPECT_EQ(run(rel::CmpOp::kGreaterEq), 2u);
  EXPECT_EQ(run(rel::CmpOp::kGreater), 1u);
}

TEST(SortIterator, SortsSingleColumn) {
  Table t = MakeTable({Sym("s1")}, {{3}, {1}, {2}});
  SortIterator s(std::make_unique<ScanIterator>(t), {Sym("s1")});
  EXPECT_EQ(Drain(s), (std::vector<Row>{{1}, {2}, {3}}));
}

TEST(SortIterator, SortsMajorMinor) {
  Table t = MakeTable({Sym("s2"), Sym("s3")}, {{2, 1}, {1, 2}, {1, 1}, {2, 0}});
  SortIterator s(std::make_unique<ScanIterator>(t), {Sym("s2"), Sym("s3")});
  EXPECT_EQ(Drain(s), (std::vector<Row>{{1, 1}, {1, 2}, {2, 0}, {2, 1}}));
}

TEST(SortIterator, StableUnderEqualKeys) {
  Table t = MakeTable({Sym("s4"), Sym("s5")}, {{1, 9}, {1, 7}, {0, 5}});
  SortIterator s(std::make_unique<ScanIterator>(t), {Sym("s4")});
  std::vector<Row> out = Drain(s);
  EXPECT_EQ(out[0], (Row{0, 5}));
  // Equal keys may appear in either order; verify the key column only.
  EXPECT_EQ(out[1][0], 1);
  EXPECT_EQ(out[2][0], 1);
}

// Nested-loop equi-join; NULL keys never join.
std::vector<Row> JoinReference(const Table& l, const Table& r, int lc,
                               int rc) {
  std::vector<Row> out;
  for (const Row& a : l.rows) {
    if (a[lc] == kNull) continue;
    for (const Row& b : r.rows) {
      if (a[lc] == b[rc]) {
        Row row = a;
        row.insert(row.end(), b.begin(), b.end());
        out.push_back(row);
      }
    }
  }
  return out;
}

TEST(MergeJoinIterator, MatchesNestedLoopReference) {
  Table l = MakeTable({Sym("mj_l")}, {{1}, {2}, {2}, {4}, {7}});
  Table r = MakeTable({Sym("mj_r")}, {{2}, {2}, {3}, {4}, {4}, {8}});
  MergeJoinIterator mj(std::make_unique<ScanIterator>(l),
                       std::make_unique<ScanIterator>(r), Sym("mj_l"),
                       Sym("mj_r"));
  EXPECT_TRUE(SameMultiset(Drain(mj), JoinReference(l, r, 0, 0)));
}

TEST(MergeJoinIterator, DuplicateHeavyInputs) {
  Table l = MakeTable({Sym("mj2_l")}, {{1}, {1}, {1}, {2}});
  Table r = MakeTable({Sym("mj2_r")}, {{1}, {1}, {2}, {2}});
  MergeJoinIterator mj(std::make_unique<ScanIterator>(l),
                       std::make_unique<ScanIterator>(r), Sym("mj2_l"),
                       Sym("mj2_r"));
  EXPECT_EQ(Drain(mj).size(), 3u * 2u + 1u * 2u);
}

TEST(MergeJoinIterator, NoMatches) {
  Table l = MakeTable({Sym("mj3_l")}, {{1}, {3}, {5}});
  Table r = MakeTable({Sym("mj3_r")}, {{2}, {4}, {6}});
  MergeJoinIterator mj(std::make_unique<ScanIterator>(l),
                       std::make_unique<ScanIterator>(r), Sym("mj3_l"),
                       Sym("mj3_r"));
  EXPECT_TRUE(Drain(mj).empty());
}

TEST(MergeJoinIterator, EmptyInputs) {
  Table l = MakeTable({Sym("mj4_l")}, {});
  Table r = MakeTable({Sym("mj4_r")}, {{1}});
  MergeJoinIterator mj(std::make_unique<ScanIterator>(l),
                       std::make_unique<ScanIterator>(r), Sym("mj4_l"),
                       Sym("mj4_r"));
  EXPECT_TRUE(Drain(mj).empty());
}

TEST(HashJoinIterator, MatchesNestedLoopReference) {
  Table l = MakeTable({Sym("hj_l"), Sym("hj_lv")},
                      {{1, 10}, {2, 20}, {2, 21}, {5, 50}});
  Table r = MakeTable({Sym("hj_r")}, {{2}, {5}, {5}, {9}});
  HashJoinIterator hj(std::make_unique<ScanIterator>(l),
                      std::make_unique<ScanIterator>(r), Sym("hj_l"),
                      Sym("hj_r"));
  EXPECT_TRUE(SameMultiset(Drain(hj), JoinReference(l, r, 0, 0)));
}

TEST(HashJoinIterator, EmptyBuildSide) {
  Table l = MakeTable({Sym("hj2_l")}, {});
  Table r = MakeTable({Sym("hj2_r")}, {{1}, {2}});
  HashJoinIterator hj(std::make_unique<ScanIterator>(l),
                      std::make_unique<ScanIterator>(r), Sym("hj2_l"),
                      Sym("hj2_r"));
  EXPECT_TRUE(Drain(hj).empty());
}

TEST(ProjectIterator, SelectsAndReordersColumns) {
  Table t = MakeTable({Sym("p1"), Sym("p2"), Sym("p3")}, {{1, 2, 3}});
  ProjectIterator p(std::make_unique<ScanIterator>(t),
                    {Sym("p3"), Sym("p1")});
  EXPECT_EQ(Drain(p), (std::vector<Row>{{3, 1}}));
  EXPECT_EQ(p.schema().IndexOf(Sym("p3")), 0);
}

TEST(MergeIntersectIterator, IntersectsSortedInputs) {
  Table l = MakeTable({Sym("mi_l")}, {{1}, {2}, {2}, {3}});
  Table r = MakeTable({Sym("mi_r")}, {{2}, {3}, {3}, {4}});
  MergeIntersectIterator mi(std::make_unique<ScanIterator>(l),
                            std::make_unique<ScanIterator>(r), {Sym("mi_l")},
                            {Sym("mi_r")});
  EXPECT_EQ(Drain(mi), (std::vector<Row>{{2}, {3}}));  // set semantics
}

TEST(MergeIntersectIterator, RespectsAlternativeColumnOrder) {
  // Inputs sorted by their *second* column; comparison must follow that
  // order, not the schema order.
  Table l = MakeTable({Sym("mi2_a"), Sym("mi2_b")}, {{9, 1}, {5, 2}, {1, 3}});
  Table r = MakeTable({Sym("mi2_c"), Sym("mi2_d")}, {{5, 2}, {9, 3}});
  MergeIntersectIterator mi(
      std::make_unique<ScanIterator>(l), std::make_unique<ScanIterator>(r),
      {Sym("mi2_b"), Sym("mi2_a")}, {Sym("mi2_d"), Sym("mi2_c")});
  EXPECT_EQ(Drain(mi), (std::vector<Row>{{5, 2}}));
}

TEST(HashIntersectIterator, SetSemantics) {
  Table l = MakeTable({Sym("hi_l")}, {{3}, {1}, {2}, {2}});
  Table r = MakeTable({Sym("hi_r")}, {{2}, {2}, {3}, {5}});
  HashIntersectIterator hi(std::make_unique<ScanIterator>(l),
                           std::make_unique<ScanIterator>(r));
  EXPECT_TRUE(SameMultiset(Drain(hi), {{2}, {3}}));
}

// --- Iterators checked against nested-loop references --------------------
//
// Every input pair below runs through each operator: duplicate-heavy keys
// with kNull keys on both sides, an empty left (build or outer) side, an
// empty right side, and inputs whose only keys are kNull. Column 0 is the
// key everywhere, column 1 a payload.
//
// Inputs are scans wrapped in StrictInput, which holds the Pull lifetime
// contract (iterator.h) to the letter: each tuple lives in a fresh heap
// copy that is poisoned and freed at the next Pull. An operator that keeps
// a child's tuple past that child's next Pull reads poison or, under
// AddressSanitizer, freed memory.

constexpr int64_t kPoison = 0x5A5A5A5A5A5A5A5A;

class StrictInput final : public Iterator {
 public:
  explicit StrictInput(IteratorPtr input) : input_(std::move(input)) {}
  void Open() override { input_->Open(); }
  const int64_t* Pull() override {
    std::fill(tuple_.begin(), tuple_.end(), kPoison);
    const int64_t* t = input_->Pull();
    // A new allocation each time; assigning it frees the previous copy.
    tuple_ = t == nullptr ? Row() : Row(t, t + schema().size());
    return t == nullptr ? nullptr : tuple_.data();
  }
  void Close() override { input_->Close(); }
  const Schema& schema() const override { return input_->schema(); }

 private:
  IteratorPtr input_;
  Row tuple_;
};

IteratorPtr Strict(const Table& t) {
  return std::make_unique<StrictInput>(std::make_unique<ScanIterator>(t));
}

struct InputPair {
  std::vector<Row> left;
  std::vector<Row> right;
};

std::vector<InputPair> JoinInputs() {
  return {
      {{{1, 10}, {1, 11}, {2, 20}, {kNull, 30}, {1, 12}, {2, 21}, {4, 40}},
       {{1, 100}, {kNull, 101}, {1, 102}, {3, 103}, {2, 104}, {1, 105}}},
      {{}, {{1, 100}, {kNull, 101}}},
      {{{1, 10}, {kNull, 11}}, {}},
      {{{kNull, 10}, {kNull, 11}}, {{kNull, 100}}},
  };
}

Table LeftTable(const InputPair& in) {
  return MakeTable({Sym("it_lk"), Sym("it_lv")}, in.left);
}
Table RightTable(const InputPair& in) {
  return MakeTable({Sym("it_rk"), Sym("it_rv")}, in.right);
}

std::vector<Row> LeftOuterJoinReference(const Table& l, const Table& r) {
  std::vector<Row> out;
  for (const Row& a : l.rows) {
    bool matched = false;
    for (const Row& b : r.rows) {
      if (a[0] != kNull && a[0] == b[0]) {
        Row row = a;
        row.insert(row.end(), b.begin(), b.end());
        out.push_back(row);
        matched = true;
      }
    }
    if (!matched) {
      Row row = a;
      row.insert(row.end(), r.schema.size(), kNull);
      out.push_back(row);
    }
  }
  return out;
}

/// Outer rows with (want_match) or without a matching inner key, in outer
/// order.
std::vector<Row> SemiJoinReference(const Table& l, const Table& r,
                                   bool want_match) {
  std::vector<Row> out;
  for (const Row& a : l.rows) {
    bool matched = false;
    for (const Row& b : r.rows) matched |= a[0] != kNull && a[0] == b[0];
    if (matched == want_match) out.push_back(a);
  }
  return out;
}

TEST(HashLeftOuterJoinIterator, MatchesNestedLoopReference) {
  for (const InputPair& in : JoinInputs()) {
    Table l = LeftTable(in);
    Table r = RightTable(in);
    HashLeftOuterJoinIterator it(Strict(l), Strict(r), Sym("it_lk"),
                                 Sym("it_rk"));
    EXPECT_TRUE(SameMultiset(Drain(it), LeftOuterJoinReference(l, r)));
  }
}

TEST(HashSemiJoinIterator, MatchesNestedLoopReference) {
  for (const InputPair& in : JoinInputs()) {
    Table l = LeftTable(in);
    Table r = RightTable(in);
    HashSemiJoinIterator it(Strict(l), Strict(r), Sym("it_lk"),
                            Sym("it_rk"));
    // Order and duplicates of the outer stream are preserved exactly.
    EXPECT_EQ(Drain(it), SemiJoinReference(l, r, true));
  }
}

TEST(HashAntiJoinIterator, MatchesNestedLoopReference) {
  for (const InputPair& in : JoinInputs()) {
    Table l = LeftTable(in);
    Table r = RightTable(in);
    HashAntiJoinIterator it(Strict(l), Strict(r), Sym("it_lk"),
                            Sym("it_rk"));
    EXPECT_EQ(Drain(it), SemiJoinReference(l, r, false));
  }
}

TEST(NestedSubqIterator, MatchesNestedLoopReference) {
  for (const InputPair& in : JoinInputs()) {
    Table l = LeftTable(in);
    Table r = RightTable(in);
    for (bool negated : {false, true}) {
      rel::SubqueryArg arg(g_symbols, Sym("it_lk"), Sym("it_rk"),
                           rel::SubqueryKind::kIn, negated);
      NestedSubqIterator it(Strict(l), Strict(r), arg);
      EXPECT_EQ(Drain(it), SemiJoinReference(l, r, !negated));
    }
  }
}

TEST(HashJoinIterator, NullKeysAndDuplicatesMatchReference) {
  for (const InputPair& in : JoinInputs()) {
    Table l = LeftTable(in);
    Table r = RightTable(in);
    HashJoinIterator it(Strict(l), Strict(r), Sym("it_lk"), Sym("it_rk"));
    EXPECT_TRUE(SameMultiset(Drain(it), JoinReference(l, r, 0, 0)));
  }
}

// MULTI_HASH_JOIN computes JOIN(JOIN(a, b), c). kNull keys sit in every
// input — including the outer key of the (a, b) row — and must never join,
// as in the two-way joins.
TEST(MultiHashJoinIterator, NullKeysNeverJoin) {
  Table a = MakeTable({Sym("mhj_ak"), Sym("mhj_av")},
                      {{1, 10}, {kNull, 11}, {1, 12}, {2, 13}, {3, 14}});
  Table b = MakeTable({Sym("mhj_bk"), Sym("mhj_bv")},
                      {{1, 7}, {kNull, 7}, {1, kNull}, {2, 8}, {1, 7}});
  Table c = MakeTable({Sym("mhj_ck"), Sym("mhj_cv")},
                      {{7, 70}, {kNull, 71}, {8, 80}, {7, 72}});
  rel::MultiJoinArg arg(g_symbols, Sym("mhj_ak"), Sym("mhj_bk"),
                        Sym("mhj_bv"), Sym("mhj_ck"));
  MultiHashJoinIterator it(Strict(a), Strict(b), Strict(c), arg);
  Table ab = MakeTable(
      {Sym("mhj_ak"), Sym("mhj_av"), Sym("mhj_bk"), Sym("mhj_bv")},
      JoinReference(a, b, 0, 0));
  std::vector<Row> want = JoinReference(ab, c, 3, 0);
  EXPECT_EQ(want.size(), 2u * 2u + 2u * 2u + 1u);
  EXPECT_TRUE(SameMultiset(Drain(it), want));
}

TEST(MultiHashJoinIterator, EmptyInputsAndDuplicates) {
  // Each of the three inputs empty in turn, then all three duplicate-heavy.
  std::vector<std::vector<Row>> full = {{{1, 5}, {1, 5}, {2, 6}},
                                        {{1, 5}, {1, 6}, {2, 5}},
                                        {{5, 0}, {5, 1}, {6, 2}}};
  for (int empty = -1; empty < 3; ++empty) {
    std::vector<std::vector<Row>> in = full;
    if (empty >= 0) in[empty].clear();
    Table a = MakeTable({Sym("mhj2_ak"), Sym("mhj2_av")}, in[0]);
    Table b = MakeTable({Sym("mhj2_bk"), Sym("mhj2_bv")}, in[1]);
    Table c = MakeTable({Sym("mhj2_ck"), Sym("mhj2_cv")}, in[2]);
    rel::MultiJoinArg arg(g_symbols, Sym("mhj2_ak"), Sym("mhj2_bk"),
                          Sym("mhj2_av"), Sym("mhj2_ck"));
    MultiHashJoinIterator it(Strict(a), Strict(b), Strict(c), arg);
    Table ab = MakeTable(
        {Sym("mhj2_ak"), Sym("mhj2_av"), Sym("mhj2_bk"), Sym("mhj2_bv")},
        JoinReference(a, b, 0, 0));
    std::vector<Row> want = JoinReference(ab, c, 1, 0);
    EXPECT_EQ(want.empty(), empty >= 0);
    EXPECT_TRUE(SameMultiset(Drain(it), want)) << "empty input " << empty;
  }
}

TEST(ConcatIterator, ForwardsLeftThenRight) {
  for (const InputPair& in : JoinInputs()) {
    Table l = LeftTable(in);
    Table r = RightTable(in);
    ConcatIterator it(Strict(l), Strict(r));
    std::vector<Row> want = in.left;
    want.insert(want.end(), in.right.begin(), in.right.end());
    EXPECT_EQ(Drain(it), want);
  }
}

/// (group, COUNT(*)) per distinct value of column 0, ascending; kNull is a
/// group like any other.
std::vector<Row> AggregateReference(const std::vector<Row>& rows) {
  std::map<int64_t, int64_t> counts;
  for (const Row& row : rows) ++counts[row[0]];
  std::vector<Row> out;
  for (const auto& [group, count] : counts) out.push_back(Row{group, count});
  return out;
}

TEST(HashAggIterator, MatchesReference) {
  for (const InputPair& in : JoinInputs()) {
    for (const std::vector<Row>* rows : {&in.left, &in.right}) {
      Table t = MakeTable({Sym("ha_k"), Sym("ha_v")}, *rows);
      HashAggIterator it(Strict(t), Sym("ha_k"), Sym("ha_n"));
      EXPECT_TRUE(SameMultiset(Drain(it), AggregateReference(*rows)));
    }
  }
}

TEST(SortAggIterator, MatchesReference) {
  for (const InputPair& in : JoinInputs()) {
    for (const std::vector<Row>* rows : {&in.left, &in.right}) {
      Table t = MakeTable({Sym("sa_k"), Sym("sa_v")}, *rows);
      SortAggIterator it(
          std::make_unique<StrictInput>(std::make_unique<SortIterator>(
              Strict(t), std::vector<Symbol>{Sym("sa_k")})),
          Sym("sa_k"), Sym("sa_n"));
      // Sorted input, so the output is in group order.
      EXPECT_EQ(Drain(it), AggregateReference(*rows));
    }
  }
}

std::vector<Row> DuplicateHeavyRows() {
  return {{2, 1}, {1, 9}, {2, 1}, {kNull, 3}, {1, 9}, {1, 8},
          {kNull, 3}, {2, 0}, {1, 9}};
}

TEST(SortDedupIterator, SortsAndDropsDuplicates) {
  Table t = MakeTable({Sym("sd_a"), Sym("sd_b")}, DuplicateHeavyRows());
  // Prefix on the second column: it sorts major, the first column minor.
  SortDedupIterator it(Strict(t), {Sym("sd_b")});
  EXPECT_EQ(Drain(it), (std::vector<Row>{
                           {2, 0}, {2, 1}, {kNull, 3}, {1, 8}, {1, 9}}));

  Table empty = MakeTable({Sym("sd_a"), Sym("sd_b")}, {});
  SortDedupIterator none(Strict(empty), {});
  EXPECT_TRUE(Drain(none).empty());
}

TEST(HashDedupIterator, KeepsFirstOccurrences) {
  std::vector<Row> rows = DuplicateHeavyRows();
  Table t = MakeTable({Sym("hd_a"), Sym("hd_b")}, rows);
  HashDedupIterator it(Strict(t));
  std::vector<Row> want;
  std::set<Row> seen;
  for (const Row& row : rows) {
    if (seen.insert(row).second) want.push_back(row);
  }
  EXPECT_EQ(Drain(it), want);

  Table empty = MakeTable({Sym("hd_a"), Sym("hd_b")}, {});
  HashDedupIterator none(Strict(empty));
  EXPECT_TRUE(Drain(none).empty());
}

// The pointer contract: a merge join keeps its left child's tuple while it
// pulls the right child's whole duplicate group. Both children hand out
// pointers into their own storage (a projection's output slot over a sort
// buffer, a filter forwarding a sort buffer's rows); under AddressSanitizer
// a tuple used past its lifetime would be reported.
// A merge join keeps its left child's tuple while it pulls the right
// child's whole duplicate group, and must copy each right tuple it buffers.
// Both children are strict, over operators that hand out pointers into their
// own storage (a projection's output slot, a filter forwarding a sort
// buffer's rows).
TEST(MergeJoinIterator, HoldsLeftTupleAcrossRightPulls) {
  Table l = MakeTable({Sym("pl_k"), Sym("pl_v")},
                      {{3, 1}, {1, 2}, {3, 3}, {1, 4}, {2, 5}, {3, 6}});
  Table r = MakeTable({Sym("pr_k"), Sym("pr_v")},
                      {{3, 7}, {1, 8}, {3, 9}, {3, 10}, {0, 11}, {1, 12}});
  auto left = std::make_unique<StrictInput>(std::make_unique<ProjectIterator>(
      std::make_unique<SortIterator>(Strict(l),
                                     std::vector<Symbol>{Sym("pl_k")}),
      std::vector<Symbol>{Sym("pl_v"), Sym("pl_k")}));
  rel::SelectArg positive(g_symbols, Sym("pr_k"), rel::CmpOp::kGreater, 0,
                          0.5);
  auto right = std::make_unique<StrictInput>(std::make_unique<FilterIterator>(
      std::make_unique<SortIterator>(Strict(r),
                                     std::vector<Symbol>{Sym("pr_k")}),
      positive));
  MergeJoinIterator mj(std::move(left), std::move(right), Sym("pl_k"),
                       Sym("pr_k"));
  Table projected = MakeTable({Sym("pl_v"), Sym("pl_k")}, {});
  for (const Row& row : l.rows) projected.rows.push_back({row[1], row[0]});
  std::vector<Row> want = JoinReference(projected, r, 1, 0);
  EXPECT_EQ(want.size(), 2u * 2u + 3u * 3u);
  EXPECT_TRUE(SameMultiset(Drain(mj), want));
}

TEST(MergeIntersectIterator, StrictInputsWithDuplicates) {
  Table l = MakeTable({Sym("ps_a"), Sym("ps_b")},
                      {{1, 1}, {1, 1}, {1, 2}, {2, 0}, {2, 0}, {3, 3}});
  Table r = MakeTable({Sym("ps_c"), Sym("ps_d")},
                      {{1, 1}, {1, 1}, {1, 1}, {2, 0}, {2, 0}, {4, 4}});
  MergeIntersectIterator mi(Strict(l), Strict(r), {Sym("ps_a"), Sym("ps_b")},
                            {Sym("ps_c"), Sym("ps_d")});
  EXPECT_EQ(Drain(mi), (std::vector<Row>{{1, 1}, {2, 0}}));
}

TEST(Iterator, NextCopiesWhatPullReturns) {
  Table t = MakeTable({Sym("nx_a"), Sym("nx_b")}, {{1, 2}, {3, 4}});
  ScanIterator scan(t);
  scan.Open();
  Row row(7, -1);  // longer than a tuple: Next must resize it
  ASSERT_TRUE(scan.Next(&row));
  EXPECT_EQ(row, (Row{1, 2}));
  const int64_t* p = scan.Pull();
  ASSERT_NE(p, nullptr);
  EXPECT_EQ(p, t.rows[1].data());  // a scan hands out the stored tuple
  EXPECT_FALSE(scan.Next(&row));
  EXPECT_EQ(scan.Pull(), nullptr);
  scan.Close();
}

TEST(Datagen, HonoursCardinalityAndDomain) {
  rel::Catalog catalog;
  StatusOr<Symbol> r =
      catalog.AddRelation("DG1", 500, 100, 2, {500, 10});
  ASSERT_TRUE(r.ok());
  Table t = GenerateTable(*catalog.FindRelation(r.value()), 7);
  EXPECT_EQ(t.rows.size(), 500u);
  for (const Row& row : t.rows) {
    EXPECT_GE(row[1], 0);
    EXPECT_LT(row[1], 10);
  }
}

TEST(Datagen, SortedRelationIsSorted) {
  rel::Catalog catalog;
  StatusOr<Symbol> r = catalog.AddRelation("DG2", 200, 100, 2);
  ASSERT_TRUE(r.ok());
  Symbol key = catalog.symbols().Lookup("DG2.a0");
  ASSERT_TRUE(catalog.SetSortedOn(r.value(), {key}).ok());
  Table t = GenerateTable(*catalog.FindRelation(r.value()), 13);
  EXPECT_TRUE(IsSortedBy(t.rows, {0}));
}

TEST(Datagen, Deterministic) {
  rel::Catalog catalog;
  StatusOr<Symbol> r = catalog.AddRelation("DG3", 100, 100, 3);
  ASSERT_TRUE(r.ok());
  Table a = GenerateTable(*catalog.FindRelation(r.value()), 99);
  Table b = GenerateTable(*catalog.FindRelation(r.value()), 99);
  EXPECT_EQ(a.rows, b.rows);
}

TEST(Helpers, SameMultisetDetectsDifference) {
  EXPECT_TRUE(SameMultiset({{1}, {2}}, {{2}, {1}}));
  EXPECT_FALSE(SameMultiset({{1}, {2}}, {{2}, {2}}));
  EXPECT_FALSE(SameMultiset({{1}}, {{1}, {1}}));
}

TEST(Helpers, IsSortedBy) {
  EXPECT_TRUE(IsSortedBy({{1, 9}, {2, 0}, {2, 1}}, {0}));
  EXPECT_FALSE(IsSortedBy({{2, 0}, {1, 9}}, {0}));
  EXPECT_TRUE(IsSortedBy({}, {0}));
}

}  // namespace
}  // namespace volcano::exec
