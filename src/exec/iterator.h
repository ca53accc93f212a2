// The Volcano iterator interface.
//
// The Volcano query processor [4] established the open/next/close operator
// interface with tuples pipelined between operators ("operators consuming
// and producing sets or sequences of items are the fundamental building
// blocks", paper section 6). Every physical algorithm of the relational
// model has an iterator here, so optimized plans are executable.
//
// As in Volcano, `next` passes a reference to a tuple the producer already
// holds rather than a copy: Pull returns a pointer into a stored table, a
// child's tuple, a materialized row buffer, or the operator's own output
// slot. Nothing is copied or allocated per tuple on the way up the tree.

#ifndef VOLCANO_EXEC_ITERATOR_H_
#define VOLCANO_EXEC_ITERATOR_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "exec/table.h"

namespace volcano::exec {

/// Demand-driven tuple stream.
class Iterator {
 public:
  virtual ~Iterator() = default;

  /// Prepares the stream; must be called exactly once before Pull / Next.
  virtual void Open() = 0;

  /// The next tuple — schema().size() values in schema order — or null at
  /// end of stream. The tuple stays valid and unchanged until the next Pull
  /// or Close on this same iterator; Pulls on other iterators (a sibling
  /// input, say) do not touch it. A consumer that needs a tuple for longer
  /// copies it.
  virtual const int64_t* Pull() = 0;

  /// Copying adapter over Pull: the next tuple into *row (reusing its
  /// capacity); false at end of stream.
  bool Next(Row* row) {
    const int64_t* t = Pull();
    if (t == nullptr) return false;
    row->assign(t, t + schema().size());
    return true;
  }

  /// Releases resources; the stream must not be used afterwards.
  virtual void Close() = 0;

  /// Output schema (valid before Open).
  virtual const Schema& schema() const = 0;
};

using IteratorPtr = std::unique_ptr<Iterator>;

/// Drains an iterator into a vector (opens and closes it).
std::vector<Row> Drain(Iterator& it);

/// Order-insensitive multiset equality of result sets.
bool SameMultiset(std::vector<Row> a, std::vector<Row> b);

/// True if rows are non-decreasing on the given column indexes.
bool IsSortedBy(const std::vector<Row>& rows, const std::vector<int>& cols);

}  // namespace volcano::exec

#endif  // VOLCANO_EXEC_ITERATOR_H_
