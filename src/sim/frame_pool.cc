#include "src/sim/frame_pool.h"

namespace atropos {
namespace internal {

namespace {

// Returns the thread's pooled blocks to the heap. A frame freed after this
// ran, by a later thread-exit destructor, stays on its list unreleased.
struct ReleaseAtThreadExit {
  ~ReleaseAtThreadExit() {
    for (size_t size_class = 0; size_class < kPooledFrameClasses; size_class++) {
      const size_t bytes = (size_class + 1) * kFrameClassBytes;
      FreeBlock* block = free_frames[size_class];
      free_frames[size_class] = nullptr;
      while (block != nullptr) {
        ASAN_UNPOISON_MEMORY_REGION(block, bytes);
        FreeBlock* next = block->next;
        ::operator delete(block, bytes);
        block = next;
      }
    }
  }
};

}  // namespace

void* NewPooledFrame(size_t size_class) {
  thread_local ReleaseAtThreadExit release;
  (void)release;
  return ::operator new((size_class + 1) * kFrameClassBytes);
}

}  // namespace internal
}  // namespace atropos
