// Explicit task-stack primitives for the search engine.
//
// The paper presents FindBestPlan (Figure 2) as a recursive procedure; the
// task engine (search/task_engine.h) runs the same algorithm as a stack of
// small state-machine frames whose pending state lives here — in an arena
// next to the memo — instead of on the native C++ call stack. This header
// holds the engine-agnostic pieces: a per-type frame pool (arena placement +
// free list, so steady-state frame turnover allocates nothing) and a LIFO
// work stack with a high-water mark.

#ifndef VOLCANO_SUPPORT_TASK_STACK_H_
#define VOLCANO_SUPPORT_TASK_STACK_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "support/arena.h"

namespace volcano {

/// Recycling pool for one frame type. Frames are placement-constructed in
/// the arena once and then reused: Acquire() prefers the free list (the
/// recycled frame keeps its vectors' capacity, making steady-state frame
/// churn allocation-free), Release() pushes back. The arena never runs
/// destructors, so the pool destroys every frame it ever created.
template <typename T>
class FramePool {
 public:
  explicit FramePool(Arena* arena) : arena_(arena) {
    // A search keeps about as many frames live as it nests deep; room for
    // that many saves a fresh engine the bookkeeping's regrowth.
    all_.reserve(16);
    free_.reserve(16);
  }

  FramePool(const FramePool&) = delete;
  FramePool& operator=(const FramePool&) = delete;

  ~FramePool() {
    for (T* f : all_) f->~T();
  }

  T* Acquire() {
    if (!free_.empty()) {
      T* f = free_.back();
      free_.pop_back();
      return f;
    }
    T* f = arena_->New<T>();
    all_.push_back(f);
    return f;
  }

  void Release(T* f) { free_.push_back(f); }

  /// Frames ever created (diagnostics; live + free).
  size_t capacity() const { return all_.size(); }

 private:
  Arena* arena_;
  std::vector<T*> all_;
  std::vector<T*> free_;
};

/// LIFO stack of frame pointers with a high-water mark. The engine steps the
/// top frame until the stack drains; pushing a child frame suspends the
/// parent exactly like a recursive call suspends its caller.
template <typename FrameT>
class TaskStack {
 public:
  TaskStack() { frames_.reserve(64); }

  void Push(FrameT* f) {
    frames_.push_back(f);
    if (frames_.size() > high_water_) high_water_ = frames_.size();
  }

  FrameT* Top() const { return frames_.empty() ? nullptr : frames_.back(); }

  void Pop() { frames_.pop_back(); }

  bool Empty() const { return frames_.empty(); }
  size_t Size() const { return frames_.size(); }

  /// Deepest stack seen since the last ResetHighWater().
  size_t high_water() const { return high_water_; }
  void ResetHighWater() { high_water_ = frames_.size(); }

  void Clear() { frames_.clear(); }

  /// Direct access for unwinding (Abandon walks top to bottom).
  const std::vector<FrameT*>& frames() const { return frames_; }

 private:
  std::vector<FrameT*> frames_;
  size_t high_water_ = 0;
};

}  // namespace volcano

#endif  // VOLCANO_SUPPORT_TASK_STACK_H_
