// ScratchPool<T>: a free-list of reusable std::vector buffers.
//
// A recursive collector (the optimizer's greedy descent) cannot share one
// member scratch buffer — an inner call would clobber the outer call's
// in-flight moves. A pool fixes that: each (possibly nested) call acquires
// its own vector, and released vectors keep their capacity, so steady-state
// move collection performs zero heap allocations regardless of recursion
// depth. ScratchLease returns its buffer on scope exit.

#ifndef VOLCANO_SUPPORT_SCRATCH_H_
#define VOLCANO_SUPPORT_SCRATCH_H_

#include <cstddef>
#include <utility>
#include <vector>

namespace volcano {

template <typename T>
class ScratchPool {
 public:
  std::vector<T> Acquire() {
    if (free_.empty()) return {};
    std::vector<T> v = std::move(free_.back());
    free_.pop_back();
    v.clear();
    return v;
  }

  void Release(std::vector<T> v) { free_.push_back(std::move(v)); }

  size_t idle() const { return free_.size(); }

 private:
  std::vector<std::vector<T>> free_;
};

/// RAII lease on a pooled vector: `lease->push_back(...)`, buffer returns to
/// the pool (capacity intact) when the lease dies.
template <typename T>
class ScratchLease {
 public:
  explicit ScratchLease(ScratchPool<T>& pool)
      : pool_(&pool), buf_(pool.Acquire()) {}
  ~ScratchLease() { pool_->Release(std::move(buf_)); }

  ScratchLease(const ScratchLease&) = delete;
  ScratchLease& operator=(const ScratchLease&) = delete;

  std::vector<T>& operator*() { return buf_; }
  std::vector<T>* operator->() { return &buf_; }

 private:
  ScratchPool<T>* pool_;
  std::vector<T> buf_;
};

}  // namespace volcano

#endif  // VOLCANO_SUPPORT_SCRATCH_H_
