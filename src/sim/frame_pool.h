// Per-thread pool for coroutine frames.
//
// Every simulated request runs as a handful of coroutines (its Coro handler
// and the Task<Status> helpers it awaits), so frames are created and
// destroyed at the rate requests are served. Task and Coro promises derive
// from PooledFrame, which draws frames from one free list per 64-byte size
// class, per thread: once a simulation is warm, an await allocates nothing.
// Frames larger than kPooledFrameClasses * kFrameClassBytes go to
// ::operator new.
//
// A block on a free list is poisoned for AddressSanitizer (the macros compile
// to nothing in other builds), so a use of a destroyed frame is still
// reported, as use-after-poison. A thread's lists go back to the heap when
// the thread exits.

#ifndef SRC_SIM_FRAME_POOL_H_
#define SRC_SIM_FRAME_POOL_H_

#include <sanitizer/asan_interface.h>

#include <algorithm>
#include <cstddef>
#include <new>

namespace atropos {

inline constexpr size_t kFrameClassBytes = 64;
inline constexpr size_t kPooledFrameClasses = 16;

namespace internal {

struct FreeBlock {
  FreeBlock* next;
};

// Constant-initialised and trivially destructible, so an access needs no
// thread-local init guard.
inline thread_local FreeBlock* free_frames[kPooledFrameClasses] = {};

inline size_t FrameClassOf(size_t n) { return (n - 1) / kFrameClassBytes; }

// The refill path: a new block from ::operator new. The first call on a
// thread arranges for that thread's lists to be released at its exit.
void* NewPooledFrame(size_t size_class);

}  // namespace internal

inline void* AllocateFrame(size_t n) {
  const size_t size_class = internal::FrameClassOf(n);
  if (size_class >= kPooledFrameClasses) {
    return ::operator new(n);
  }
  internal::FreeBlock*& head = internal::free_frames[size_class];
  internal::FreeBlock* block = head;
  if (block == nullptr) {
    return internal::NewPooledFrame(size_class);
  }
  ASAN_UNPOISON_MEMORY_REGION(block, std::max(n, sizeof(internal::FreeBlock)));
  head = block->next;
  return block;
}

inline void FreeFrame(void* p, size_t n) noexcept {
  const size_t size_class = internal::FrameClassOf(n);
  if (size_class >= kPooledFrameClasses) {
    ::operator delete(p, n);
    return;
  }
  internal::FreeBlock*& head = internal::free_frames[size_class];
  head = ::new (p) internal::FreeBlock{head};
  ASAN_POISON_MEMORY_REGION(p, (size_class + 1) * kFrameClassBytes);
}

// Base of the coroutine promise types: their frames come from the pool.
struct PooledFrame {
  static void* operator new(size_t n) { return AllocateFrame(n); }
  static void operator delete(void* p, size_t n) noexcept { FreeFrame(p, n); }
};

}  // namespace atropos

#endif  // SRC_SIM_FRAME_POOL_H_
