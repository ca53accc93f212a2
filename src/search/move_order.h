// Move-ordering helpers for the search engine (internal).
//
// "the moves are sorted by their promise" (paper, section 3). The task
// engine (task_engine.cc) orders each goal's moves with these before
// pursuing them, and the greedy descent (optimizer.cc) orders its moves
// the same way. The sorts are stable, so the committed plan digests depend
// on collection order among equal keys.

#ifndef VOLCANO_SEARCH_MOVE_ORDER_H_
#define VOLCANO_SEARCH_MOVE_ORDER_H_

#include <cstddef>
#include <utility>
#include <vector>

namespace volcano {
namespace search_internal {

/// Stable descending sort by promise. Insertion sort keeps equal-promise
/// moves in collection order (matching the std::stable_sort it replaces)
/// without stable_sort's temporary-buffer allocation; move sets are small.
/// A move already in place is not touched: collected moves are nearly
/// always in promise order already, and a move is a few hundred bytes.
template <typename MoveT>
void SortMovesByPromise(std::vector<MoveT>& moves) {
  for (size_t i = 1; i < moves.size(); ++i) {
    if (!(moves[i - 1].promise < moves[i].promise)) continue;
    MoveT tmp = std::move(moves[i]);
    size_t j = i;
    while (j > 0 && moves[j - 1].promise < tmp.promise) {
      moves[j] = std::move(moves[j - 1]);
      --j;
    }
    moves[j] = std::move(tmp);
  }
}

/// Stable sort by promise (descending), then by order_key (ascending) among
/// equal-promise moves. The big-join escalation path uses the key to pursue
/// smaller-input join moves first, so branch-and-bound meets its tight
/// bounds early; the default search never calls this (ordering stays
/// byte-identical to the paper configuration).
template <typename MoveT>
void SortMovesByPromiseAndKey(std::vector<MoveT>& moves) {
  for (size_t i = 1; i < moves.size(); ++i) {
    if (!(moves[i - 1].promise < moves[i].promise ||
          (moves[i - 1].promise == moves[i].promise &&
           moves[i - 1].order_key > moves[i].order_key))) {
      continue;
    }
    MoveT tmp = std::move(moves[i]);
    size_t j = i;
    while (j > 0 &&
           (moves[j - 1].promise < tmp.promise ||
            (moves[j - 1].promise == tmp.promise &&
             moves[j - 1].order_key > tmp.order_key))) {
      moves[j] = std::move(moves[j - 1]);
      --j;
    }
    moves[j] = std::move(tmp);
  }
}

/// Stable descending sort by order_key alone. The big-join path's adaptive
/// ordering folds promise, observed win rate, and a cardinality discount
/// into one score stored in order_key (see
/// Optimizer::AssignAdaptiveOrderKeys); equal scores keep collection order.
template <typename MoveT>
void SortMovesByScore(std::vector<MoveT>& moves) {
  for (size_t i = 1; i < moves.size(); ++i) {
    if (!(moves[i - 1].order_key < moves[i].order_key)) continue;
    MoveT tmp = std::move(moves[i]);
    size_t j = i;
    while (j > 0 && moves[j - 1].order_key < tmp.order_key) {
      moves[j] = std::move(moves[j - 1]);
      --j;
    }
    moves[j] = std::move(tmp);
  }
}

}  // namespace search_internal
}  // namespace volcano

#endif  // VOLCANO_SEARCH_MOVE_ORDER_H_
