#include "src/sim/frame_pool.h"

#include <gtest/gtest.h>

#include <coroutine>
#include <thread>
#include <utility>

#include "src/common/status.h"
#include "src/sim/coro.h"
#include "src/sim/executor.h"
#include "src/sim/task.h"

namespace atropos {
namespace {

// A block freed at either end of class k comes back for the other end of
// class k and never for a size in another class.
TEST(FramePoolTest, FreedBlockReturnsOnlyToItsOwnSizeClass) {
  for (size_t k = 0; k < kPooledFrameClasses; k++) {
    const size_t low = k * kFrameClassBytes + 1;
    const size_t high = (k + 1) * kFrameClassBytes;
    for (auto [freed_as, reused_as] : {std::pair{low, high}, std::pair{high, low}}) {
      void* block = AllocateFrame(freed_as);
      FreeFrame(block, freed_as);
      for (size_t j = 0; j < kPooledFrameClasses; j++) {
        if (j == k) {
          continue;
        }
        for (size_t other : {j * kFrameClassBytes + 1, (j + 1) * kFrameClassBytes}) {
          void* p = AllocateFrame(other);
          EXPECT_NE(p, block) << "class " << k << " block handed out for " << other << " B";
          FreeFrame(p, other);
        }
      }
      void* again = AllocateFrame(reused_as);
      EXPECT_EQ(again, block) << "class " << k << ", freed as " << freed_as << " B";
      FreeFrame(again, reused_as);
    }
  }
}

TEST(FramePoolTest, OversizeFramesBypassThePool) {
  const size_t oversize = kPooledFrameClasses * kFrameClassBytes + 1;
  void* p = AllocateFrame(oversize);
  static_cast<char*>(p)[oversize - 1] = 1;
  FreeFrame(p, oversize);
}

// Captures the address of the enclosing coroutine's frame without suspending.
struct GrabFrame {
  void** out;

  bool await_ready() const noexcept { return false; }
  bool await_suspend(std::coroutine_handle<> h) const noexcept {
    *out = h.address();
    return false;
  }
  void await_resume() const noexcept {}
};

Coro Finishes(Executor& ex, void** frame) {
  co_await BindExecutor{ex};
  co_await GrabFrame{frame};
  co_await Delay{ex, 1};
}

Task<Status> Inner(void** frame) {
  co_await GrabFrame{frame};
  co_return Status::Ok();
}

Coro AwaitsInner(Executor& ex, void** frame) {
  co_await BindExecutor{ex};
  Status s = co_await Inner(frame);
  EXPECT_TRUE(s.ok());
}

TEST(FramePoolTest, CoroAndTaskFramesAreRecycled) {
  Executor ex;
  void* first = nullptr;
  void* second = nullptr;
  Finishes(ex, &first);
  ex.Run();
  Finishes(ex, &second);
  ex.Run();
  EXPECT_NE(first, nullptr);
  EXPECT_EQ(first, second);

  AwaitsInner(ex, &first);
  AwaitsInner(ex, &second);
  EXPECT_EQ(first, second);
  EXPECT_EQ(ex.live_procs(), 0);
}

// Another thread's frames are pooled on its own lists, which go back to the
// heap when it exits (LeakSanitizer checks this in the ASan build).
TEST(FramePoolTest, ThreadRunsCoroutinesOnItsOwnLists) {
  void* main_frame = nullptr;
  Executor ex;
  Finishes(ex, &main_frame);
  ex.Run();
  void* thread_frame = nullptr;
  std::thread worker([&thread_frame] {
    Executor local;
    for (int i = 0; i < 3; i++) {
      Finishes(local, &thread_frame);
      local.Run();
    }
  });
  worker.join();
  EXPECT_NE(thread_frame, nullptr);
  EXPECT_NE(thread_frame, main_frame);
  void* again = nullptr;
  Finishes(ex, &again);
  ex.Run();
  EXPECT_EQ(again, main_frame);
}

#if defined(__SANITIZE_ADDRESS__)
// Pooling must not blind AddressSanitizer: a read of a destroyed frame, now
// on a free list, is reported.
TEST(FramePoolDeathTest, ReadingADestroyedFrameIsReported) {
  Executor ex;
  void* frame = nullptr;
  Finishes(ex, &frame);
  ex.Run();
  ASSERT_NE(frame, nullptr);
  EXPECT_DEATH(
      {
        volatile char byte = *static_cast<volatile char*>(frame);
        (void)byte;
      },
      "AddressSanitizer: use-after-poison");
}
#endif

}  // namespace
}  // namespace atropos
