// Rule output expressions.
//
// A transformation rule's Apply() builds a new logical expression whose
// leaves reference existing equivalence classes in the memo (the classes the
// pattern's "any" leaves bound). Rex is that construction language: a flat
// buffer of operator nodes over group-reference leaves, written by Apply and
// read back by the memo, which inserts the expression bottom-up, creating new
// equivalence classes exactly where the expression does not match an
// existing one — as in the paper's Figure 3, where associativity creates one
// new class (for expression C) and one new expression in the original class.
//
// The optimizer owns one buffer and clears it after every application, so a
// rule's output costs no heap allocation once the buffer has grown to the
// largest expression a rule writes. A rule that must create an argument
// (commutativity's swapped join predicate) asks the buffer for it with
// Derived(), which makes each (rule, source argument) pair's result once per
// query.

#ifndef VOLCANO_RULES_REX_H_
#define VOLCANO_RULES_REX_H_

#include <cstdint>
#include <initializer_list>
#include <limits>
#include <span>
#include <utility>
#include <vector>

#include "algebra/ids.h"
#include "algebra/op_arg.h"
#include "support/flat_hash.h"
#include "support/hash.h"

namespace volcano {

/// A rule-built expression: nodes appended in construction order, each
/// either a reference to an existing memo group (leaf) or an operator over
/// earlier nodes. A node is named by its Ref, its index in the buffer.
class Rex {
 public:
  using Ref = uint32_t;
  /// The Ref an Apply returns when the rule declines to rewrite.
  static constexpr Ref kNone = std::numeric_limits<Ref>::max();

  /// Leaf referencing equivalence class `group`.
  Ref Leaf(GroupId group) {
    nodes_.push_back(Entry{kInvalidOperator, group, 0, 0, nullptr});
    return static_cast<Ref>(nodes_.size() - 1);
  }

  /// Operator node over earlier nodes of this buffer. A braced list is
  /// evaluated left to right, so `Node(op, arg, {Leaf(a), Leaf(b)})` is one
  /// expression with its leaves written first.
  Ref Node(OperatorId op, OpArgPtr arg,
           std::initializer_list<Ref> inputs = {}) {
    const uint32_t first = static_cast<uint32_t>(inputs_.size());
    inputs_.insert(inputs_.end(), inputs.begin(), inputs.end());
    nodes_.push_back(Entry{op, kInvalidGroup, first,
                           static_cast<uint32_t>(inputs.size()),
                           std::move(arg)});
    return static_cast<Ref>(nodes_.size() - 1);
  }

  /// The argument `make(*from)` builds for `rule`, made on the first request
  /// for the pair and returned again for every later one until Reset: a
  /// rule that derives one argument from another (swapping a join
  /// predicate's sides) allocates once per source argument, not once per
  /// application. The buffer holds `from` alive, so a key is never reused
  /// by another argument while cached.
  template <typename Make>
  OpArgPtr Derived(const void* rule, const OpArgPtr& from, Make&& make) {
    const DerivedKey key{rule, from.get()};
    const uint64_t hash = key.Hash();
    if (DerivedArg* hit = derived_.FindHashed(
            hash, [&](const DerivedKey& k) { return k == key; })) {
      return hit->made;
    }
    OpArgPtr made = make(*from);
    derived_.InsertHashed(hash, key, DerivedArg{from, made});
    return made;
  }

  // --- read side (the memo) -----------------------------------------------

  bool is_leaf(Ref r) const { return nodes_[r].op == kInvalidOperator; }
  GroupId group(Ref r) const { return nodes_[r].group; }
  OperatorId op(Ref r) const { return nodes_[r].op; }
  const OpArgPtr& arg(Ref r) const { return nodes_[r].arg; }
  std::span<const Ref> inputs(Ref r) const {
    return {inputs_.data() + nodes_[r].first_input, nodes_[r].num_inputs};
  }

  /// Drops the expression, keeping the buffer's capacity and the derived
  /// arguments. The optimizer calls this after every application.
  void Clear() {
    nodes_.clear();
    inputs_.clear();
  }

  /// Clear, and forget the derived arguments (their table keeps its
  /// capacity). The optimizer calls this between queries.
  void Reset() {
    Clear();
    derived_.ClearKeepingCapacity();
  }

 private:
  struct Entry {
    OperatorId op;  // kInvalidOperator marks a leaf
    GroupId group;  // leaves only
    uint32_t first_input;
    uint32_t num_inputs;
    OpArgPtr arg;
  };

  struct DerivedKey {
    const void* rule = nullptr;
    const OpArg* from = nullptr;

    uint64_t Hash() const {
      return HashCombine(Mix64(reinterpret_cast<uintptr_t>(rule)),
                         reinterpret_cast<uintptr_t>(from));
    }
    friend bool operator==(const DerivedKey& a, const DerivedKey& b) {
      return a.rule == b.rule && a.from == b.from;
    }
  };
  struct DerivedArg {
    OpArgPtr from;  // pins the key's argument
    OpArgPtr made;
  };

  std::vector<Entry> nodes_;
  std::vector<Ref> inputs_;
  FlatHashMap<DerivedKey, DerivedArg> derived_;
};

}  // namespace volcano

#endif  // VOLCANO_RULES_REX_H_
