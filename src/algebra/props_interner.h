// Canonicalization of physical property vectors.
//
// The memo indexes winners and in-progress marks by (required, excluded)
// property vectors. With vectors interned to canonical pointers, goal
// equality collapses from a virtual deep Equals to a pointer comparison, and
// goal hashes reuse the vectors' cached value hashes — the two operations on
// the innermost FindBestPlan look-up path ("if the pair LogExpr and PhysProp
// is in the look-up table", paper section 4.2).
//
// The interner holds shared_ptr copies, so canonical vectors outlive every
// memo entry that points at them; an interner must therefore live at least
// as long as the memo it serves (in practice it is a memo member).

#ifndef VOLCANO_ALGEBRA_PROPS_INTERNER_H_
#define VOLCANO_ALGEBRA_PROPS_INTERNER_H_

#include <cstdint>

#include "algebra/properties.h"
#include "support/flat_hash.h"

namespace volcano {

class PropsInterner {
 public:
  /// Returns the canonical pointer for `props`' value class: two vectors with
  /// Equals(a, b) intern to the same pointer. Null interns to null. The
  /// first vector of a value class becomes its canonical representative.
  PhysPropsPtr Intern(const PhysPropsPtr& props) {
    const PhysProps* raw = InternRaw(props);
    if (raw == props.get()) return props;
    // `raw` is some earlier vector's canonical pointer; recover its owning
    // shared_ptr from the table.
    const PhysPropsPtr* found = set_.FindHashed(
        raw->CachedHash(), [&](const PhysPropsPtr& p) { return p.get() == raw; });
    VOLCANO_DCHECK(found != nullptr);
    return *found;
  }

  /// As Intern, but returns the canonical raw pointer (owned by this
  /// interner) without touching reference counts — the per-goal
  /// canonicalization path of FindBestPlan. A one-entry cache short-circuits
  /// the common case of the same canonical pointer arriving repeatedly;
  /// caching raw pointers is safe because canonical vectors are pinned by
  /// the interner's shared_ptr for its whole lifetime.
  const PhysProps* InternRaw(const PhysPropsPtr& props) {
    if (props == nullptr) return nullptr;
    const PhysProps* raw = props.get();
    if (raw == last_canonical_) return raw;
    uint64_t h = props->CachedHash();
    if (const PhysPropsPtr* found =
            set_.FindHashed(h, [&](const PhysPropsPtr& p) {
              return p.get() == raw ||
                     (p->CachedHash() == h && p->Equals(*raw));
            })) {
      last_canonical_ = found->get();
      return last_canonical_;
    }
    set_.InsertHashed(h, props);
    last_canonical_ = raw;
    return raw;
  }

  /// Drops every interned vector and resets the one-entry canonicalization
  /// cache. Callers that reuse an interner across memo lifetimes (Memo::Reset)
  /// must call this: the cache holds a raw pointer into the dropped set, and
  /// a stale hit would hand out a canonical pointer the interner no longer
  /// pins alive. The table keeps its capacity for the next memo.
  void Clear() {
    set_.ClearKeepingCapacity();
    last_canonical_ = nullptr;
  }

  /// Distinct property-vector values interned so far.
  size_t size() const { return set_.size(); }

 private:
  struct PtrValueHash {
    uint64_t operator()(const PhysPropsPtr& p) const {
      return p == nullptr ? 0 : p->CachedHash();
    }
  };
  FlatHashSet<PhysPropsPtr, PtrValueHash> set_;
  const PhysProps* last_canonical_ = nullptr;
};

}  // namespace volcano

#endif  // VOLCANO_ALGEBRA_PROPS_INTERNER_H_
