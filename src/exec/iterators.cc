#include "exec/iterators.h"

#include <algorithm>
#include <bit>

namespace volcano::exec {

// --- helpers (iterator.h) ----------------------------------------------------

std::vector<Row> Drain(Iterator& it) {
  std::vector<Row> out;
  it.Open();
  Row row;
  while (it.Next(&row)) out.push_back(row);
  it.Close();
  return out;
}

bool SameMultiset(std::vector<Row> a, std::vector<Row> b) {
  if (a.size() != b.size()) return false;
  std::sort(a.begin(), a.end());
  std::sort(b.begin(), b.end());
  return a == b;
}

bool IsSortedBy(const std::vector<Row>& rows, const std::vector<int>& cols) {
  for (size_t i = 1; i < rows.size(); ++i) {
    for (int c : cols) {
      if (rows[i - 1][c] < rows[i][c]) break;
      if (rows[i - 1][c] > rows[i][c]) return false;
    }
  }
  return true;
}

namespace {

/// An output slot for one tuple of `schema` (never zero-sized, so even a
/// zero-width tuple has an address).
std::vector<int64_t> SlotFor(const Schema& schema) {
  return std::vector<int64_t>(std::max<size_t>(schema.size(), 1));
}

/// Opens `it`, copies every tuple into `out` (reset to the input's width),
/// and closes it.
void Materialize(Iterator& it, RowBuffer* out) {
  out->Reset(it.schema().size());
  it.Open();
  while (const int64_t* t = it.Pull()) out->Append(t);
  it.Close();
}

/// Like Materialize, but drops tuples whose `key_col` is kNull (they never
/// join), then indexes the rest by that column. Probes never look up kNull.
void BuildHashSide(Iterator& it, int key_col, RowBuffer* out,
                   KeyIndex* index) {
  out->Reset(it.schema().size());
  it.Open();
  while (const int64_t* t = it.Pull()) {
    if (t[key_col] != kNull) out->Append(t);
  }
  it.Close();
  index->Build(*out, key_col);
}

std::vector<int> ColumnsOf(const Schema& schema,
                           const std::vector<Symbol>& attrs) {
  std::vector<int> cols;
  cols.reserve(attrs.size());
  for (Symbol attr : attrs) {
    int c = schema.IndexOf(attr);
    VOLCANO_CHECK(c >= 0);
    cols.push_back(c);
  }
  return cols;
}

/// The row numbers of `rows`, ascending on `cols` major-to-minor.
std::vector<uint32_t> SortedOrder(const RowBuffer& rows,
                                  const std::vector<int>& cols) {
  VOLCANO_CHECK(rows.size() < KeyIndex::kEnd);
  std::vector<uint32_t> perm(rows.size());
  for (size_t i = 0; i < perm.size(); ++i) perm[i] = static_cast<uint32_t>(i);
  std::sort(perm.begin(), perm.end(), [&](uint32_t x, uint32_t y) {
    const int64_t* a = rows.row(x);
    const int64_t* b = rows.row(y);
    for (int c : cols) {
      if (a[c] != b[c]) return a[c] < b[c];
    }
    return false;
  });
  return perm;
}

}  // namespace

// --- KeyIndex ----------------------------------------------------------------

void KeyIndex::Build(const RowBuffer& rows, int col) {
  VOLCANO_CHECK(rows.size() < kEnd);
  rows_ = &rows;
  col_ = col;
  links_.clear();
  if (rows.size() == 0) return;
  size_t buckets = std::bit_ceil(rows.size());
  mask_ = buckets - 1;
  links_.assign(buckets + rows.size(), kEnd);
  // Prepending in reverse row order leaves every chain in build order.
  for (size_t i = rows.size(); i-- > 0;) {
    uint32_t& head = links_[Bucket(rows.row(i)[col])];
    links_[buckets + i] = head;
    head = static_cast<uint32_t>(i);
  }
}

void KeyIndex::Release() {
  links_.clear();
  links_.shrink_to_fit();
}

// --- DistinctRows ------------------------------------------------------------

uint64_t DistinctRows::HashTuple(const int64_t* t) const {
  uint64_t h = rows_.width();
  for (size_t c = 0; c < rows_.width(); ++c) {
    h = HashCombine(h, static_cast<uint64_t>(t[c]));
  }
  return h;
}

bool DistinctRows::SameTuple(uint32_t i, const int64_t* t) const {
  return std::equal(t, t + rows_.width(), rows_.row(i));
}

bool DistinctRows::Insert(const int64_t* t) {
  uint64_t h = HashTuple(t);
  if (index_.FindHashed(h, [&](uint32_t i) { return SameTuple(i, t); })) {
    return false;
  }
  VOLCANO_CHECK(rows_.size() < KeyIndex::kEnd);
  index_.InsertHashed(h, static_cast<uint32_t>(rows_.size()));
  rows_.Append(t);
  return true;
}

bool DistinctRows::Contains(const int64_t* t) const {
  return index_.FindHashed(HashTuple(t), [&](uint32_t i) {
    return SameTuple(i, t);
  }) != nullptr;
}

// --- FilterIterator ----------------------------------------------------------

FilterIterator::FilterIterator(IteratorPtr input, const rel::SelectArg& pred)
    : input_(std::move(input)), pred_(pred) {}

void FilterIterator::Open() {
  input_->Open();
  col_ = input_->schema().IndexOf(pred_.attr());
  VOLCANO_CHECK(col_ >= 0);
}

const int64_t* FilterIterator::Pull() {
  while (const int64_t* t = input_->Pull()) {
    // Predicates on NULL are unknown, never true.
    int64_t v = t[col_];
    if (v != kNull && pred_.Eval(v)) return t;
  }
  return nullptr;
}

void FilterIterator::Close() { input_->Close(); }

// --- SortIterator ------------------------------------------------------------

SortIterator::SortIterator(IteratorPtr input, std::vector<Symbol> order)
    : input_(std::move(input)), order_(std::move(order)) {}

void SortIterator::Open() {
  Materialize(*input_, &rows_);
  perm_ = SortedOrder(rows_, ColumnsOf(input_->schema(), order_));
  pos_ = 0;
}

const int64_t* SortIterator::Pull() {
  if (pos_ >= perm_.size()) return nullptr;
  return rows_.row(perm_[pos_++]);
}

void SortIterator::Close() {
  rows_.Release();
  perm_.clear();
  perm_.shrink_to_fit();
}

// --- MergeJoinIterator -------------------------------------------------------

MergeJoinIterator::MergeJoinIterator(IteratorPtr left, IteratorPtr right,
                                     Symbol left_attr, Symbol right_attr)
    : left_(std::move(left)), right_(std::move(right)) {
  lcol_ = left_->schema().IndexOf(left_attr);
  rcol_ = right_->schema().IndexOf(right_attr);
  VOLCANO_CHECK(lcol_ >= 0 && rcol_ >= 0);
  schema_ = Schema::Concat(left_->schema(), right_->schema());
  out_ = SlotFor(schema_);
}

void MergeJoinIterator::Open() {
  left_->Open();
  right_->Open();
  lrow_ = left_->Pull();
  rrow_ = right_->Pull();
  rgroup_.Reset(right_->schema().size());
  rgroup_valid_ = false;
  rpos_ = 0;
}

bool MergeJoinIterator::FillRightGroup(int64_t key) {
  // Advance the right input to `key`, then buffer the whole value group so
  // duplicate left keys can re-scan it.
  while (rrow_ != nullptr && rrow_[rcol_] < key) rrow_ = right_->Pull();
  if (rrow_ == nullptr || rrow_[rcol_] != key) return false;
  rgroup_.Clear();
  while (rrow_ != nullptr && rrow_[rcol_] == key) {
    rgroup_.Append(rrow_);
    rrow_ = right_->Pull();
  }
  rgroup_key_ = key;
  rgroup_valid_ = true;
  rpos_ = 0;
  return true;
}

const int64_t* MergeJoinIterator::Pull() {
  while (true) {
    if (lrow_ == nullptr) return nullptr;
    int64_t key = lrow_[lcol_];
    if (key == kNull) {  // NULL keys never join
      lrow_ = left_->Pull();
      continue;
    }
    if (!rgroup_valid_ || rgroup_key_ != key) {
      // Both inputs are sorted ascending, so a new left key is always at or
      // beyond the buffered group; fetch the group for this key.
      if (!FillRightGroup(key)) {
        if (rrow_ == nullptr) return nullptr;  // right exhausted
        lrow_ = left_->Pull();  // no right rows with this key
        continue;
      }
    }
    if (rpos_ < rgroup_.size()) {
      size_t lw = left_->schema().size();
      std::copy_n(lrow_, lw, out_.data());
      std::copy_n(rgroup_.row(rpos_++), rgroup_.width(), out_.data() + lw);
      return out_.data();
    }
    // Group exhausted for this left row; a duplicate left key re-scans it.
    lrow_ = left_->Pull();
    rpos_ = 0;
  }
}

void MergeJoinIterator::Close() {
  left_->Close();
  right_->Close();
  rgroup_.Release();
}

// --- HashJoinIterator --------------------------------------------------------

HashJoinIterator::HashJoinIterator(IteratorPtr left, IteratorPtr right,
                                   Symbol left_attr, Symbol right_attr)
    : left_(std::move(left)), right_(std::move(right)) {
  lcol_ = left_->schema().IndexOf(left_attr);
  rcol_ = right_->schema().IndexOf(right_attr);
  VOLCANO_CHECK(lcol_ >= 0 && rcol_ >= 0);
  schema_ = Schema::Concat(left_->schema(), right_->schema());
  out_ = SlotFor(schema_);
}

void HashJoinIterator::Open() {
  BuildHashSide(*left_, lcol_, &build_, &index_);
  right_->Open();
  match_ = KeyIndex::kEnd;
}

const int64_t* HashJoinIterator::Pull() {
  while (match_ == KeyIndex::kEnd) {
    const int64_t* r = right_->Pull();
    if (r == nullptr) return nullptr;
    key_ = r[rcol_];
    if (key_ == kNull) continue;  // NULL keys never join
    match_ = index_.Find(key_);
    // The probe tuple is copied once, then paired with each match.
    if (match_ != KeyIndex::kEnd) {
      std::copy_n(r, right_->schema().size(), out_.data() + build_.width());
    }
  }
  std::copy_n(build_.row(match_), build_.width(), out_.data());
  match_ = index_.NextMatch(match_, key_);
  return out_.data();
}

void HashJoinIterator::Close() {
  right_->Close();
  index_.Release();
  build_.Release();
}

// --- HashLeftOuterJoinIterator -----------------------------------------------

HashLeftOuterJoinIterator::HashLeftOuterJoinIterator(IteratorPtr left,
                                                     IteratorPtr right,
                                                     Symbol left_attr,
                                                     Symbol right_attr)
    : left_(std::move(left)), right_(std::move(right)) {
  lcol_ = left_->schema().IndexOf(left_attr);
  rcol_ = right_->schema().IndexOf(right_attr);
  VOLCANO_CHECK(lcol_ >= 0 && rcol_ >= 0);
  schema_ = Schema::Concat(left_->schema(), right_->schema());
  out_ = SlotFor(schema_);
}

void HashLeftOuterJoinIterator::Open() {
  // Build on the inner (right) side: probing with the outer stream is what
  // lets each outer row be padded exactly once when it finds no match.
  BuildHashSide(*right_, rcol_, &build_, &index_);
  left_->Open();
  in_probe_ = false;
  emitted_match_ = false;
}

const int64_t* HashLeftOuterJoinIterator::Pull() {
  size_t lw = left_->schema().size();
  while (true) {
    if (in_probe_) {
      if (match_ != KeyIndex::kEnd) {
        std::copy_n(build_.row(match_), build_.width(), out_.data() + lw);
        match_ = index_.NextMatch(match_, key_);
        emitted_match_ = true;
        return out_.data();
      }
      in_probe_ = false;
      if (!emitted_match_) {
        std::fill_n(out_.data() + lw, build_.width(), kNull);
        return out_.data();
      }
    }
    const int64_t* l = left_->Pull();
    if (l == nullptr) return nullptr;
    std::copy_n(l, lw, out_.data());
    key_ = l[lcol_];
    match_ = key_ == kNull ? KeyIndex::kEnd : index_.Find(key_);
    in_probe_ = true;
    emitted_match_ = false;
  }
}

void HashLeftOuterJoinIterator::Close() {
  left_->Close();
  index_.Release();
  build_.Release();
}

// --- HashSemiJoinIterator / HashAntiJoinIterator -----------------------------

namespace {

/// The non-NULL values of column `col` over all of `it`'s tuples. Only key
/// existence matters to semi- and antijoins: a set, not a multimap, so
/// inner duplicates cannot multiply outer rows.
void CollectKeys(Iterator& it, int col, FlatHashSet<int64_t>* keys) {
  keys->Clear();
  it.Open();
  while (const int64_t* t = it.Pull()) {
    if (t[col] != kNull) keys->Insert(t[col]);
  }
  it.Close();
}

}  // namespace

HashSemiJoinIterator::HashSemiJoinIterator(IteratorPtr left, IteratorPtr right,
                                           Symbol left_attr, Symbol right_attr)
    : left_(std::move(left)), right_(std::move(right)) {
  lcol_ = left_->schema().IndexOf(left_attr);
  rcol_ = right_->schema().IndexOf(right_attr);
  VOLCANO_CHECK(lcol_ >= 0 && rcol_ >= 0);
}

void HashSemiJoinIterator::Open() {
  CollectKeys(*right_, rcol_, &keys_);
  left_->Open();
}

const int64_t* HashSemiJoinIterator::Pull() {
  while (const int64_t* t = left_->Pull()) {
    int64_t key = t[lcol_];
    if (key != kNull && keys_.Contains(key)) return t;
  }
  return nullptr;
}

void HashSemiJoinIterator::Close() {
  left_->Close();
  keys_.Clear();
}

HashAntiJoinIterator::HashAntiJoinIterator(IteratorPtr left, IteratorPtr right,
                                           Symbol left_attr, Symbol right_attr)
    : left_(std::move(left)), right_(std::move(right)) {
  lcol_ = left_->schema().IndexOf(left_attr);
  rcol_ = right_->schema().IndexOf(right_attr);
  VOLCANO_CHECK(lcol_ >= 0 && rcol_ >= 0);
}

void HashAntiJoinIterator::Open() {
  CollectKeys(*right_, rcol_, &keys_);
  left_->Open();
}

const int64_t* HashAntiJoinIterator::Pull() {
  while (const int64_t* t = left_->Pull()) {
    int64_t key = t[lcol_];
    // A kNull key matches nothing, so the antijoin keeps the row.
    if (key == kNull || !keys_.Contains(key)) return t;
  }
  return nullptr;
}

void HashAntiJoinIterator::Close() {
  left_->Close();
  keys_.Clear();
}

// --- NestedSubqIterator ------------------------------------------------------

NestedSubqIterator::NestedSubqIterator(IteratorPtr left, IteratorPtr right,
                                       const rel::SubqueryArg& arg)
    : left_(std::move(left)), right_(std::move(right)), arg_(arg) {
  lcol_ = left_->schema().IndexOf(arg_.outer_attr());
  rcol_ = right_->schema().IndexOf(arg_.inner_attr());
  VOLCANO_CHECK(lcol_ >= 0 && rcol_ >= 0);
}

void NestedSubqIterator::Open() {
  Materialize(*right_, &inner_);
  left_->Open();
}

const int64_t* NestedSubqIterator::Pull() {
  while (const int64_t* t = left_->Pull()) {
    int64_t key = t[lcol_];
    // Deliberately quadratic: the full inner scan per outer row is what a
    // correlated subquery costs before unnesting.
    bool match = false;
    if (key != kNull) {
      for (size_t i = 0; i < inner_.size(); ++i) {
        if (inner_.row(i)[rcol_] == key) {
          match = true;
          break;
        }
      }
    }
    if (match != arg_.negated()) return t;
  }
  return nullptr;
}

void NestedSubqIterator::Close() {
  left_->Close();
  inner_.Release();
}

// --- MultiHashJoinIterator -----------------------------------------------------

MultiHashJoinIterator::MultiHashJoinIterator(IteratorPtr a, IteratorPtr b,
                                             IteratorPtr c,
                                             const rel::MultiJoinArg& arg)
    : a_(std::move(a)), b_(std::move(b)), c_(std::move(c)), arg_(arg) {
  a_inner_col_ = a_->schema().IndexOf(arg_.inner_left());
  b_inner_col_ = b_->schema().IndexOf(arg_.inner_right());
  Schema ab = Schema::Concat(a_->schema(), b_->schema());
  ab_outer_col_ = ab.IndexOf(arg_.outer_left());
  c_outer_col_ = c_->schema().IndexOf(arg_.outer_right());
  VOLCANO_CHECK(a_inner_col_ >= 0 && b_inner_col_ >= 0 &&
                ab_outer_col_ >= 0 && c_outer_col_ >= 0);
  schema_ = Schema::Concat(ab, c_->schema());
  out_ = SlotFor(schema_);
}

void MultiHashJoinIterator::Open() {
  BuildHashSide(*b_, b_inner_col_, &b_rows_, &b_index_);
  BuildHashSide(*c_, c_outer_col_, &c_rows_, &c_index_);
  a_->Open();
  b_match_ = KeyIndex::kEnd;
  c_match_ = KeyIndex::kEnd;
}

const int64_t* MultiHashJoinIterator::Pull() {
  size_t aw = a_->schema().size();
  size_t ab_width = aw + b_rows_.width();
  while (c_match_ == KeyIndex::kEnd) {
    if (b_match_ != KeyIndex::kEnd) {
      // The intermediate (a, b) tuple exists only in the output slot; it is
      // never materialized into a table.
      std::copy_n(b_rows_.row(b_match_), b_rows_.width(), out_.data() + aw);
      b_match_ = b_index_.NextMatch(b_match_, b_key_);
      c_key_ = out_[ab_outer_col_];
      if (c_key_ != kNull) c_match_ = c_index_.Find(c_key_);
      continue;
    }
    const int64_t* a = a_->Pull();
    if (a == nullptr) return nullptr;
    b_key_ = a[a_inner_col_];
    if (b_key_ == kNull) continue;  // NULL keys never join
    b_match_ = b_index_.Find(b_key_);
    if (b_match_ != KeyIndex::kEnd) std::copy_n(a, aw, out_.data());
  }
  std::copy_n(c_rows_.row(c_match_), c_rows_.width(),
              out_.data() + ab_width);
  c_match_ = c_index_.NextMatch(c_match_, c_key_);
  return out_.data();
}

void MultiHashJoinIterator::Close() {
  a_->Close();
  b_index_.Release();
  c_index_.Release();
  b_rows_.Release();
  c_rows_.Release();
}

// --- ProjectIterator ---------------------------------------------------------

ProjectIterator::ProjectIterator(IteratorPtr input, std::vector<Symbol> attrs)
    : input_(std::move(input)), schema_(attrs) {
  cols_ = ColumnsOf(input_->schema(), attrs);
  out_ = SlotFor(schema_);
}

void ProjectIterator::Open() { input_->Open(); }

const int64_t* ProjectIterator::Pull() {
  const int64_t* t = input_->Pull();
  if (t == nullptr) return nullptr;
  for (size_t i = 0; i < cols_.size(); ++i) out_[i] = t[cols_[i]];
  return out_.data();
}

void ProjectIterator::Close() { input_->Close(); }

// --- ConcatIterator ------------------------------------------------------------

ConcatIterator::ConcatIterator(IteratorPtr left, IteratorPtr right)
    : left_(std::move(left)), right_(std::move(right)) {
  VOLCANO_CHECK(left_->schema().size() == right_->schema().size());
}

void ConcatIterator::Open() {
  left_->Open();
  right_->Open();
  on_right_ = false;
}

const int64_t* ConcatIterator::Pull() {
  if (!on_right_) {
    if (const int64_t* t = left_->Pull()) return t;
    on_right_ = true;
  }
  return right_->Pull();
}

void ConcatIterator::Close() {
  left_->Close();
  right_->Close();
}

// --- HashAggIterator -----------------------------------------------------------

HashAggIterator::HashAggIterator(IteratorPtr input, Symbol group_attr,
                                 Symbol count_attr)
    : input_(std::move(input)), schema_({group_attr, count_attr}) {
  group_col_ = input_->schema().IndexOf(group_attr);
  VOLCANO_CHECK(group_col_ >= 0);
}

void HashAggIterator::Open() {
  // Each group is one (value, count) row of out_; the map finds its row.
  groups_.Clear();
  out_.Reset(2);
  input_->Open();
  while (const int64_t* t = input_->Pull()) {
    int64_t group = t[group_col_];
    auto [row, added] =
        groups_.TryEmplace(group, static_cast<uint32_t>(out_.size()));
    if (added) {
      const int64_t fresh[2] = {group, 0};
      out_.Append(fresh);
    }
    ++out_.row(*row)[1];
  }
  input_->Close();
  pos_ = 0;
}

const int64_t* HashAggIterator::Pull() {
  if (pos_ >= out_.size()) return nullptr;
  return out_.row(pos_++);
}

void HashAggIterator::Close() {
  groups_.Clear();
  out_.Release();
}

// --- SortAggIterator -----------------------------------------------------------

SortAggIterator::SortAggIterator(IteratorPtr input, Symbol group_attr,
                                 Symbol count_attr)
    : input_(std::move(input)), schema_({group_attr, count_attr}) {
  group_col_ = input_->schema().IndexOf(group_attr);
  VOLCANO_CHECK(group_col_ >= 0);
}

void SortAggIterator::Open() {
  input_->Open();
  pending_ = input_->Pull();
}

const int64_t* SortAggIterator::Pull() {
  if (pending_ == nullptr) return nullptr;
  int64_t group = pending_[group_col_];
  int64_t count = 1;
  while ((pending_ = input_->Pull()) != nullptr &&
         pending_[group_col_] == group) {
    ++count;
  }
  out_[0] = group;
  out_[1] = count;
  return out_;
}

void SortAggIterator::Close() { input_->Close(); }

// --- MergeIntersectIterator --------------------------------------------------

MergeIntersectIterator::MergeIntersectIterator(IteratorPtr left,
                                               IteratorPtr right,
                                               std::vector<Symbol> left_order,
                                               std::vector<Symbol> right_order)
    : left_(std::move(left)),
      right_(std::move(right)),
      left_order_(std::move(left_order)),
      right_order_(std::move(right_order)) {
  VOLCANO_CHECK(left_->schema().size() == right_->schema().size());
  VOLCANO_CHECK(left_order_.size() == left_->schema().size());
  VOLCANO_CHECK(right_order_.size() == right_->schema().size());
  last_ = SlotFor(left_->schema());
}

void MergeIntersectIterator::Open() {
  lcols_ = ColumnsOf(left_->schema(), left_order_);
  rcols_ = ColumnsOf(right_->schema(), right_order_);
  left_->Open();
  right_->Open();
  lrow_ = left_->Pull();
  rrow_ = right_->Pull();
  have_last_ = false;
}

const int64_t* MergeIntersectIterator::Pull() {
  auto compare = [&]() {
    for (size_t i = 0; i < lcols_.size(); ++i) {
      int64_t a = lrow_[lcols_[i]];
      int64_t b = rrow_[rcols_[i]];
      if (a != b) return a < b ? -1 : 1;
    }
    return 0;
  };
  size_t width = left_->schema().size();
  while (lrow_ != nullptr && rrow_ != nullptr) {
    int c = compare();
    if (c < 0) {
      lrow_ = left_->Pull();
    } else if (c > 0) {
      rrow_ = right_->Pull();
    } else {
      // Duplicate elimination: a match equal to the last one emitted is
      // skipped. The match is copied out before either input advances.
      bool repeat = have_last_ && std::equal(lrow_, lrow_ + width,
                                             last_.data());
      if (!repeat) std::copy_n(lrow_, width, last_.data());
      have_last_ = true;
      lrow_ = left_->Pull();
      rrow_ = right_->Pull();
      if (!repeat) return last_.data();
    }
  }
  return nullptr;
}

void MergeIntersectIterator::Close() {
  left_->Close();
  right_->Close();
}

// --- SortDedupIterator -----------------------------------------------------------

SortDedupIterator::SortDedupIterator(IteratorPtr input,
                                     std::vector<Symbol> prefix_order)
    : input_(std::move(input)), prefix_order_(std::move(prefix_order)) {}

void SortDedupIterator::Open() {
  Materialize(*input_, &rows_);
  // Sort columns: the required prefix first, then every remaining column so
  // duplicates become adjacent.
  std::vector<int> cols = ColumnsOf(input_->schema(), prefix_order_);
  for (size_t i = 0; i < input_->schema().size(); ++i) {
    int c = static_cast<int>(i);
    if (std::find(cols.begin(), cols.end(), c) == cols.end()) {
      cols.push_back(c);
    }
  }
  perm_ = SortedOrder(rows_, cols);
  perm_.erase(std::unique(perm_.begin(), perm_.end(),
                          [&](uint32_t x, uint32_t y) {
                            return std::equal(rows_.row(x),
                                              rows_.row(x) + rows_.width(),
                                              rows_.row(y));
                          }),
              perm_.end());
  pos_ = 0;
}

const int64_t* SortDedupIterator::Pull() {
  if (pos_ >= perm_.size()) return nullptr;
  return rows_.row(perm_[pos_++]);
}

void SortDedupIterator::Close() {
  rows_.Release();
  perm_.clear();
  perm_.shrink_to_fit();
}

// --- HashDedupIterator -----------------------------------------------------------

HashDedupIterator::HashDedupIterator(IteratorPtr input)
    : input_(std::move(input)) {}

void HashDedupIterator::Open() {
  rows_.Reset(input_->schema().size());
  input_->Open();
  while (const int64_t* t = input_->Pull()) rows_.Insert(t);
  input_->Close();
  pos_ = 0;
}

const int64_t* HashDedupIterator::Pull() {
  if (pos_ >= rows_.rows().size()) return nullptr;
  return rows_.rows().row(pos_++);
}

void HashDedupIterator::Close() { rows_.Release(); }

// --- HashIntersectIterator ---------------------------------------------------

HashIntersectIterator::HashIntersectIterator(IteratorPtr left,
                                             IteratorPtr right)
    : left_(std::move(left)), right_(std::move(right)) {
  VOLCANO_CHECK(left_->schema().size() == right_->schema().size());
}

void HashIntersectIterator::Open() {
  left_rows_.Reset(left_->schema().size());
  left_->Open();
  while (const int64_t* t = left_->Pull()) left_rows_.Insert(t);
  left_->Close();
  // Each right tuple found on the left is emitted once, in first-seen order.
  out_.Reset(right_->schema().size());
  right_->Open();
  while (const int64_t* t = right_->Pull()) {
    if (left_rows_.Contains(t)) out_.Insert(t);
  }
  right_->Close();
  left_rows_.Release();
  pos_ = 0;
}

const int64_t* HashIntersectIterator::Pull() {
  if (pos_ >= out_.rows().size()) return nullptr;
  return out_.rows().row(pos_++);
}

void HashIntersectIterator::Close() { out_.Release(); }

}  // namespace volcano::exec
