// In-memory tables and the tuple representation.
//
// The execution substrate: a relation is a named schema over fixed-width
// integer tuples stored back to back in one array. This stands in for
// Volcano's stored files; 100-byte records of the paper's experiments are
// modeled by the catalog's tuple_bytes (cost model) while execution works on
// the attribute values.

#ifndef VOLCANO_EXEC_TABLE_H_
#define VOLCANO_EXEC_TABLE_H_

#include <algorithm>
#include <cstdint>
#include <limits>
#include <unordered_map>
#include <utility>
#include <vector>

#include "support/intern.h"
#include "support/status.h"

namespace volcano::exec {

/// One tuple: attribute values in schema order.
using Row = std::vector<int64_t>;

/// SQL NULL sentinel. Stored base tables never contain it; it enters a
/// stream only as left-outer-join padding. Comparisons treat it as
/// unknown: it never equals anything (itself included), and predicates on
/// it are false — which is exactly the null-rejection the outer-join
/// simplification rule relies on.
inline constexpr int64_t kNull = std::numeric_limits<int64_t>::min();

/// Ordered attribute list naming a row's columns.
class Schema {
 public:
  Schema() = default;
  explicit Schema(std::vector<Symbol> attrs) : attrs_(std::move(attrs)) {}

  const std::vector<Symbol>& attrs() const { return attrs_; }
  size_t size() const { return attrs_.size(); }
  Symbol at(size_t i) const { return attrs_[i]; }

  /// Column index of `attr`, or -1.
  int IndexOf(Symbol attr) const {
    for (size_t i = 0; i < attrs_.size(); ++i) {
      if (attrs_[i] == attr) return static_cast<int>(i);
    }
    return -1;
  }

  /// Concatenation (join output schema).
  static Schema Concat(const Schema& a, const Schema& b) {
    std::vector<Symbol> attrs = a.attrs_;
    attrs.insert(attrs.end(), b.attrs_.begin(), b.attrs_.end());
    return Schema(std::move(attrs));
  }

 private:
  std::vector<Symbol> attrs_;
};

/// Tuples of one fixed width packed back to back in one int64_t array. Row
/// i starts at row(i); pointers stay valid until the next Append, Reserve,
/// Clear or Release.
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

  /// Makes room for `rows` rows in all, so that appending up to that many
  /// allocates nothing more.
  void Reserve(size_t rows) { values_.reserve(rows * stride_); }

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

/// A stored relation instance: its rows back to back in one RowBuffer of
/// the schema's width.
struct Table {
  Schema schema;
  RowBuffer rows;

  size_t size() const { return rows.size(); }
  const int64_t* row(size_t i) const { return rows.row(i); }
};

/// Owned copies of every row of `table`, in stored order.
inline std::vector<Row> CopyRows(const Table& table) {
  std::vector<Row> out;
  out.reserve(table.size());
  for (size_t i = 0; i < table.size(); ++i) {
    out.emplace_back(table.row(i), table.row(i) + table.schema.size());
  }
  return out;
}

/// All stored relations of one database instance.
class Database {
 public:
  void Put(Symbol relation, Table table) {
    tables_[relation] = std::move(table);
  }
  const Table* Find(Symbol relation) const {
    auto it = tables_.find(relation);
    return it == tables_.end() ? nullptr : &it->second;
  }
  size_t size() const { return tables_.size(); }

 private:
  std::unordered_map<Symbol, Table> tables_;
};

}  // namespace volcano::exec

#endif  // VOLCANO_EXEC_TABLE_H_
