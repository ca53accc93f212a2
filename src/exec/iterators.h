// Physical operator iterators: scan, filter, sort, merge join, hybrid hash
// join, outer/semi/anti joins, project, merge/hash intersect.
//
// Tuples flow by pointer (iterator.h). Streaming operators forward their
// input's pointer or write into one fixed-width output slot sized when the
// iterator is built; materializing operators keep their rows in one
// contiguous RowBuffer and index it with row numbers, so a plan execution
// allocates per buffer growth, never per tuple.

#ifndef VOLCANO_EXEC_ITERATORS_H_
#define VOLCANO_EXEC_ITERATORS_H_

#include <algorithm>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "exec/iterator.h"
#include "relational/rel_args.h"
#include "support/flat_hash.h"

namespace volcano::exec {

/// Tuples of one fixed width packed back to back in one int64_t array. Row
/// i starts at row(i); pointers stay valid until the next Append, Clear or
/// Release.
class RowBuffer {
 public:
  /// Empties the buffer and sets the width of the rows it will hold.
  void Reset(size_t width) {
    width_ = width;
    stride_ = width == 0 ? 1 : width;  // zero-width rows still get an address
    Clear();
  }
  void Clear() {
    values_.clear();
    rows_ = 0;
  }
  /// Clear that also gives the memory back.
  void Release() {
    Clear();
    values_.shrink_to_fit();
  }

  size_t width() const { return width_; }
  size_t size() const { return rows_; }
  const int64_t* row(size_t i) const { return values_.data() + i * stride_; }
  int64_t* row(size_t i) { return values_.data() + i * stride_; }

  /// Appends a copy of the width() values at `t`.
  void Append(const int64_t* t) {
    if (values_.size() + stride_ > values_.capacity()) {
      values_.reserve(std::max(2 * values_.capacity(), kMinRows * stride_));
    }
    values_.insert(values_.end(), t, t + width_);
    if (width_ == 0) values_.push_back(0);
    ++rows_;
  }

 private:
  // First allocation: enough rows that small inputs never regrow.
  static constexpr size_t kMinRows = 256;

  std::vector<int64_t> values_;
  size_t width_ = 0;
  size_t stride_ = 1;
  size_t rows_ = 0;
};

/// Hash index over one key column of a RowBuffer: bucket heads and per-row
/// next links, both uint32_t row numbers in one array, with no node per
/// row. Each chain lists its rows in build order. The indexed rows hold no
/// kNull key (NULL keys never join; their rows are not stored).
class KeyIndex {
 public:
  static constexpr uint32_t kEnd = UINT32_MAX;

  /// Indexes every row of `rows` (which must outlive the index) by `col`.
  void Build(const RowBuffer& rows, int col);
  void Release();

  /// First row whose key is `key`, or kEnd.
  uint32_t Find(int64_t key) const {
    if (links_.empty()) return kEnd;
    return Skip(links_[Bucket(key)], key);
  }
  /// The row after `i` in its chain whose key is `key`, or kEnd.
  uint32_t NextMatch(uint32_t i, int64_t key) const {
    return Skip(links_[buckets() + i], key);
  }

 private:
  size_t buckets() const { return static_cast<size_t>(mask_ + 1); }
  size_t Bucket(int64_t key) const {
    return static_cast<size_t>(Mix64(static_cast<uint64_t>(key)) & mask_);
  }
  uint32_t Skip(uint32_t i, int64_t key) const {
    while (i != kEnd && rows_->row(i)[col_] != key) i = links_[buckets() + i];
    return i;
  }

  const RowBuffer* rows_ = nullptr;
  int col_ = 0;
  uint64_t mask_ = 0;  // bucket count - 1
  std::vector<uint32_t> links_;  // [0, buckets) heads, then one per row
};

/// Set of distinct tuples of one width. The tuples live in a RowBuffer in
/// first-insertion order; an open-addressing set of their row numbers finds
/// them by whole-tuple hash.
class DistinctRows {
 public:
  void Reset(size_t width) {
    rows_.Reset(width);
    index_.Clear();
  }
  void Release() {
    rows_.Release();
    index_.Clear();
  }

  /// Adds a copy of `t` unless an equal tuple is present; true if added.
  bool Insert(const int64_t* t);
  bool Contains(const int64_t* t) const;
  const RowBuffer& rows() const { return rows_; }

 private:
  uint64_t HashTuple(const int64_t* t) const;
  bool SameTuple(uint32_t i, const int64_t* t) const;

  RowBuffer rows_;
  FlatHashSet<uint32_t> index_;
};

/// Full scan of a stored table: hands out pointers into the table itself.
class ScanIterator final : public Iterator {
 public:
  explicit ScanIterator(const Table& table) : table_(table) {}
  void Open() override { pos_ = 0; }
  const int64_t* Pull() override {
    if (pos_ >= table_.rows.size()) return nullptr;
    return table_.rows[pos_++].data();
  }
  void Close() override {}
  const Schema& schema() const override { return table_.schema; }

 private:
  const Table& table_;
  size_t pos_ = 0;
};

/// Predicate filter; order preserving, fully pipelined.
class FilterIterator final : public Iterator {
 public:
  FilterIterator(IteratorPtr input, const rel::SelectArg& pred);
  void Open() override;
  const int64_t* Pull() override;
  void Close() override;
  const Schema& schema() const override { return input_->schema(); }

 private:
  IteratorPtr input_;
  rel::SelectArg pred_;
  int col_ = -1;
};

/// Full sort (materializing); ascending on the given attributes
/// major-to-minor. Sorts a permutation of row numbers, not the rows.
class SortIterator final : public Iterator {
 public:
  SortIterator(IteratorPtr input, std::vector<Symbol> order);
  void Open() override;
  const int64_t* Pull() override;
  void Close() override;
  const Schema& schema() const override { return input_->schema(); }

 private:
  IteratorPtr input_;
  std::vector<Symbol> order_;
  RowBuffer rows_;
  std::vector<uint32_t> perm_;
  size_t pos_ = 0;
};

/// Merge join on sorted inputs (equi-join, duplicate-correct: buffers the
/// right-hand value group).
class MergeJoinIterator final : public Iterator {
 public:
  MergeJoinIterator(IteratorPtr left, IteratorPtr right, Symbol left_attr,
                    Symbol right_attr);
  void Open() override;
  const int64_t* Pull() override;
  void Close() override;
  const Schema& schema() const override { return schema_; }

 private:
  bool FillRightGroup(int64_t key);

  IteratorPtr left_;
  IteratorPtr right_;
  int lcol_ = -1;
  int rcol_ = -1;
  Schema schema_;
  std::vector<int64_t> out_;
  const int64_t* lrow_ = nullptr;  // held across right-hand Pulls
  const int64_t* rrow_ = nullptr;
  RowBuffer rgroup_;
  int64_t rgroup_key_ = 0;
  bool rgroup_valid_ = false;
  size_t rpos_ = 0;
};

/// Hash join: builds on the left input, probes with the right. The paper's
/// experiments assume it "proceeds without partition files"; this in-memory
/// implementation matches that assumption.
class HashJoinIterator final : public Iterator {
 public:
  HashJoinIterator(IteratorPtr left, IteratorPtr right, Symbol left_attr,
                   Symbol right_attr);
  void Open() override;
  const int64_t* Pull() override;
  void Close() override;
  const Schema& schema() const override { return schema_; }

 private:
  IteratorPtr left_;
  IteratorPtr right_;
  int lcol_ = -1;
  int rcol_ = -1;
  Schema schema_;
  std::vector<int64_t> out_;
  RowBuffer build_;
  KeyIndex index_;
  int64_t key_ = 0;
  uint32_t match_ = KeyIndex::kEnd;
};

/// Hash left outer join: builds on the right (inner) input, probes with the
/// left (outer) input so every outer row is seen exactly once; unmatched
/// outer rows are emitted padded with kNull. kNull keys never match.
class HashLeftOuterJoinIterator final : public Iterator {
 public:
  HashLeftOuterJoinIterator(IteratorPtr left, IteratorPtr right,
                            Symbol left_attr, Symbol right_attr);
  void Open() override;
  const int64_t* Pull() override;
  void Close() override;
  const Schema& schema() const override { return schema_; }

 private:
  IteratorPtr left_;
  IteratorPtr right_;
  int lcol_ = -1;
  int rcol_ = -1;
  Schema schema_;
  std::vector<int64_t> out_;
  RowBuffer build_;
  KeyIndex index_;
  int64_t key_ = 0;
  uint32_t match_ = KeyIndex::kEnd;
  bool in_probe_ = false;
  bool emitted_match_ = false;
};

/// Hash semijoin: emits each outer (left) row at most once if the inner
/// input contains a matching key. Order and duplicates of the outer stream
/// are preserved; kNull keys never match.
class HashSemiJoinIterator final : public Iterator {
 public:
  HashSemiJoinIterator(IteratorPtr left, IteratorPtr right, Symbol left_attr,
                       Symbol right_attr);
  void Open() override;
  const int64_t* Pull() override;
  void Close() override;
  const Schema& schema() const override { return left_->schema(); }

 private:
  IteratorPtr left_;
  IteratorPtr right_;
  int lcol_ = -1;
  int rcol_ = -1;
  FlatHashSet<int64_t> keys_;
};

/// Hash antijoin: the complement of the semijoin — emits exactly the outer
/// rows the semijoin drops (so semijoin ∪ antijoin = outer input). A kNull
/// outer key matches nothing and is therefore emitted.
class HashAntiJoinIterator final : public Iterator {
 public:
  HashAntiJoinIterator(IteratorPtr left, IteratorPtr right, Symbol left_attr,
                       Symbol right_attr);
  void Open() override;
  const int64_t* Pull() override;
  void Close() override;
  const Schema& schema() const override { return left_->schema(); }

 private:
  IteratorPtr left_;
  IteratorPtr right_;
  int lcol_ = -1;
  int rcol_ = -1;
  FlatHashSet<int64_t> keys_;
};

/// Naive correlated subquery execution (NESTED_SUBQ): materializes the
/// inner input once, then re-scans it per outer row — quadratic, the
/// baseline the unnesting transformations beat. Emits the outer row when
/// the existence test (negated for NOT IN / NOT EXISTS) passes.
class NestedSubqIterator final : public Iterator {
 public:
  NestedSubqIterator(IteratorPtr left, IteratorPtr right,
                     const rel::SubqueryArg& arg);
  void Open() override;
  const int64_t* Pull() override;
  void Close() override;
  const Schema& schema() const override { return left_->schema(); }

 private:
  IteratorPtr left_;
  IteratorPtr right_;
  rel::SubqueryArg arg_;
  int lcol_ = -1;
  int rcol_ = -1;
  RowBuffer inner_;
};

/// Ternary multi-way hash join (MULTI_HASH_JOIN): builds hash tables on the
/// second and third inputs and streams the first through both probes; the
/// intermediate join result is never materialized. kNull keys never match,
/// on either probe.
class MultiHashJoinIterator final : public Iterator {
 public:
  MultiHashJoinIterator(IteratorPtr a, IteratorPtr b, IteratorPtr c,
                        const rel::MultiJoinArg& arg);
  void Open() override;
  const int64_t* Pull() override;
  void Close() override;
  const Schema& schema() const override { return schema_; }

 private:
  IteratorPtr a_;
  IteratorPtr b_;
  IteratorPtr c_;
  rel::MultiJoinArg arg_;
  Schema schema_;
  int a_inner_col_ = -1;   // inner-left attribute in a's schema
  int b_inner_col_ = -1;   // inner-right attribute in b's schema
  int ab_outer_col_ = -1;  // outer-left attribute in the (a,b) row
  int c_outer_col_ = -1;   // outer-right attribute in c's schema
  std::vector<int64_t> out_;  // the (a,b) prefix, then the c suffix
  RowBuffer b_rows_;
  RowBuffer c_rows_;
  KeyIndex b_index_;
  KeyIndex c_index_;
  int64_t b_key_ = 0;
  int64_t c_key_ = 0;
  uint32_t b_match_ = KeyIndex::kEnd;
  uint32_t c_match_ = KeyIndex::kEnd;
};

/// Duplicate-preserving column projection; order preserving.
class ProjectIterator final : public Iterator {
 public:
  ProjectIterator(IteratorPtr input, std::vector<Symbol> attrs);
  void Open() override;
  const int64_t* Pull() override;
  void Close() override;
  const Schema& schema() const override { return schema_; }

 private:
  IteratorPtr input_;
  Schema schema_;
  std::vector<int> cols_;
  std::vector<int64_t> out_;
};

/// Set intersection of two fully sorted inputs (positional column
/// correspondence, duplicates eliminated) — "an algorithm very similar to
/// merge-join" (paper section 3). `left_order` / `right_order` give the
/// column comparison order the inputs are sorted by (the optimizer may pick
/// any of several alternative orders; the iterator must compare in the same
/// one).
class MergeIntersectIterator final : public Iterator {
 public:
  MergeIntersectIterator(IteratorPtr left, IteratorPtr right,
                         std::vector<Symbol> left_order,
                         std::vector<Symbol> right_order);
  void Open() override;
  const int64_t* Pull() override;
  void Close() override;
  const Schema& schema() const override { return left_->schema(); }

 private:
  IteratorPtr left_;
  IteratorPtr right_;
  std::vector<Symbol> left_order_;
  std::vector<Symbol> right_order_;
  std::vector<int> lcols_, rcols_;
  const int64_t* lrow_ = nullptr;
  const int64_t* rrow_ = nullptr;
  bool have_last_ = false;
  std::vector<int64_t> last_;  // the last tuple emitted: the output slot
};

/// Bag union: forwards all rows of the first input, then the second.
class ConcatIterator final : public Iterator {
 public:
  ConcatIterator(IteratorPtr left, IteratorPtr right);
  void Open() override;
  const int64_t* Pull() override;
  void Close() override;
  const Schema& schema() const override { return left_->schema(); }

 private:
  IteratorPtr left_;
  IteratorPtr right_;
  bool on_right_ = false;
};

/// Hash aggregation: GROUP BY one column, COUNT(*). Output rows are
/// (group value, count) in first-seen group order.
class HashAggIterator final : public Iterator {
 public:
  HashAggIterator(IteratorPtr input, Symbol group_attr, Symbol count_attr);
  void Open() override;
  const int64_t* Pull() override;
  void Close() override;
  const Schema& schema() const override { return schema_; }

 private:
  IteratorPtr input_;
  Schema schema_;
  int group_col_ = -1;
  FlatHashMap<int64_t, uint32_t> groups_;  // group value -> row of out_
  RowBuffer out_;
  size_t pos_ = 0;
};

/// Streaming aggregation over an input sorted on the grouping column;
/// output stays sorted on it.
class SortAggIterator final : public Iterator {
 public:
  SortAggIterator(IteratorPtr input, Symbol group_attr, Symbol count_attr);
  void Open() override;
  const int64_t* Pull() override;
  void Close() override;
  const Schema& schema() const override { return schema_; }

 private:
  IteratorPtr input_;
  Schema schema_;
  int group_col_ = -1;
  const int64_t* pending_ = nullptr;  // first row of the next group
  int64_t out_[2] = {0, 0};
};

/// Sort-based duplicate elimination: sorts by the given prefix order then
/// all remaining columns, emits distinct rows (SORT_DEDUP enforcer).
class SortDedupIterator final : public Iterator {
 public:
  SortDedupIterator(IteratorPtr input, std::vector<Symbol> prefix_order);
  void Open() override;
  const int64_t* Pull() override;
  void Close() override;
  const Schema& schema() const override { return input_->schema(); }

 private:
  IteratorPtr input_;
  std::vector<Symbol> prefix_order_;
  RowBuffer rows_;
  std::vector<uint32_t> perm_;
  size_t pos_ = 0;
};

/// Hash-based duplicate elimination (HASH_DEDUP enforcer); emits rows in
/// first-seen order.
class HashDedupIterator final : public Iterator {
 public:
  explicit HashDedupIterator(IteratorPtr input);
  void Open() override;
  const int64_t* Pull() override;
  void Close() override;
  const Schema& schema() const override { return input_->schema(); }

 private:
  IteratorPtr input_;
  DistinctRows rows_;
  size_t pos_ = 0;
};

/// Hash-based set intersection (duplicates eliminated).
class HashIntersectIterator final : public Iterator {
 public:
  HashIntersectIterator(IteratorPtr left, IteratorPtr right);
  void Open() override;
  const int64_t* Pull() override;
  void Close() override;
  const Schema& schema() const override { return left_->schema(); }

 private:
  IteratorPtr left_;
  IteratorPtr right_;
  DistinctRows left_rows_;
  DistinctRows out_;
  size_t pos_ = 0;
};

}  // namespace volcano::exec

#endif  // VOLCANO_EXEC_ITERATORS_H_
