#include "src/db/buffer_pool.h"

#include <gtest/gtest.h>

#include "src/sim/coro.h"
#include "src/testing/recording_controller.h"

namespace atropos {
namespace {

class BufferPoolTest : public ::testing::Test {
 protected:
  BufferPoolOptions SmallPool() {
    BufferPoolOptions opt;
    opt.capacity_pages = 4;
    opt.hit_cost = 1;
    opt.miss_cost = 100;
    opt.clean_evict_cost = 10;
    opt.dirty_evict_cost = 200;
    return opt;
  }

  Executor ex_;
  RecordingController ctl_;
};

Coro AccessPage(Executor& ex, BufferPool& pool, uint64_t key, uint64_t page, bool write,
                CancelToken* token, std::vector<PageAccess>& out) {
  co_await BindExecutor{ex};
  out.push_back(co_await pool.Access(key, page, write, token));
}

TEST_F(BufferPoolTest, MissThenHit) {
  BufferPool pool(ex_, SmallPool(), &ctl_, 1);
  std::vector<PageAccess> out;
  AccessPage(ex_, pool, 1, 42, false, nullptr, out);
  ex_.Run();
  AccessPage(ex_, pool, 1, 42, false, nullptr, out);
  ex_.Run();
  ASSERT_EQ(out.size(), 2u);
  EXPECT_FALSE(out[0].hit);
  EXPECT_TRUE(out[1].hit);
  EXPECT_EQ(pool.misses(), 1u);
  EXPECT_EQ(pool.hits(), 1u);
  EXPECT_EQ(pool.resident_pages(), 1u);
}

TEST_F(BufferPoolTest, CapacityTriggersLruEviction) {
  BufferPool pool(ex_, SmallPool(), &ctl_, 1);
  std::vector<PageAccess> out;
  for (uint64_t p = 0; p < 5; p++) {
    AccessPage(ex_, pool, 1, p, false, nullptr, out);
    ex_.Run();
  }
  EXPECT_EQ(pool.resident_pages(), 4u);
  EXPECT_EQ(pool.evictions(), 1u);
  EXPECT_TRUE(out[4].evicted);
  // Page 0 (LRU) was evicted; accessing it again misses.
  AccessPage(ex_, pool, 1, 0, false, nullptr, out);
  ex_.Run();
  EXPECT_FALSE(out[5].hit);
}

TEST_F(BufferPoolTest, TouchingPageProtectsItFromEviction) {
  BufferPool pool(ex_, SmallPool(), &ctl_, 1);
  std::vector<PageAccess> out;
  for (uint64_t p = 0; p < 4; p++) {
    AccessPage(ex_, pool, 1, p, false, nullptr, out);
    ex_.Run();
  }
  // Re-touch page 0 so page 1 becomes the LRU victim.
  AccessPage(ex_, pool, 1, 0, false, nullptr, out);
  ex_.Run();
  AccessPage(ex_, pool, 1, 99, false, nullptr, out);
  ex_.Run();
  AccessPage(ex_, pool, 1, 0, false, nullptr, out);
  ex_.Run();
  EXPECT_TRUE(out.back().hit);  // page 0 survived
}

TEST_F(BufferPoolTest, DirtyEvictionCostsMore) {
  BufferPool pool(ex_, SmallPool(), &ctl_, 1);
  std::vector<PageAccess> out;
  // Fill with dirty pages.
  for (uint64_t p = 0; p < 4; p++) {
    AccessPage(ex_, pool, 1, p, /*write=*/true, nullptr, out);
    ex_.Run();
  }
  AccessPage(ex_, pool, 1, 50, false, nullptr, out);
  ex_.Run();
  EXPECT_TRUE(out[4].evicted);
  EXPECT_EQ(out[4].stall, 200u);  // dirty_evict_cost
}

TEST_F(BufferPoolTest, EvictionAttributedToPageOwner) {
  BufferPool pool(ex_, SmallPool(), &ctl_, 1);
  std::vector<PageAccess> out;
  for (uint64_t p = 0; p < 4; p++) {
    AccessPage(ex_, pool, 10, p, false, nullptr, out);  // owner 10 loads the pool
    ex_.Run();
  }
  AccessPage(ex_, pool, 20, 99, false, nullptr, out);  // task 20 evicts
  ex_.Run();
  // freeResource charged to the page's owner (Fig 8 semantics).
  EXPECT_EQ(ctl_.CountFor(TraceEventKind::kFree, 10), 1);
  // The evicting task gets the wait bracket and the get for the new page.
  EXPECT_EQ(ctl_.CountFor(TraceEventKind::kWaitBegin, 20), 1);
  EXPECT_EQ(ctl_.CountFor(TraceEventKind::kGet, 20), 1);
}

TEST_F(BufferPoolTest, ResidentOwnedByTracksOwners) {
  BufferPool pool(ex_, SmallPool(), &ctl_, 1);
  std::vector<PageAccess> out;
  AccessPage(ex_, pool, 10, 1, false, nullptr, out);
  ex_.Run();
  AccessPage(ex_, pool, 20, 2, false, nullptr, out);
  ex_.Run();
  EXPECT_EQ(pool.ResidentOwnedBy(10), 1u);
  EXPECT_EQ(pool.ResidentOwnedBy(20), 1u);
  EXPECT_EQ(pool.ResidentOwnedBy(30), 0u);
}

TEST_F(BufferPoolTest, CancelledAccessReturnsCancelled) {
  BufferPool pool(ex_, SmallPool(), &ctl_, 1);
  CancelToken token(ex_);
  token.Cancel();
  std::vector<PageAccess> out;
  AccessPage(ex_, pool, 1, 7, false, &token, out);
  ex_.Run();
  ASSERT_EQ(out.size(), 1u);
  EXPECT_TRUE(out[0].status.IsCancelled());
}

TEST_F(BufferPoolTest, DeviceBackedMissesShareTheDisk) {
  IoDevice disk(ex_, 1e6);  // 1 MB/s
  BufferPoolOptions opt = SmallPool();
  opt.device = &disk;
  opt.page_bytes = 100000;  // 0.1 s per page read
  BufferPool pool(ex_, opt, &ctl_, 1);
  std::vector<PageAccess> out;
  AccessPage(ex_, pool, 1, 1, false, nullptr, out);
  AccessPage(ex_, pool, 2, 2, false, nullptr, out);
  ex_.Run();
  ASSERT_EQ(out.size(), 2u);
  // Two misses serialized through the device: 0.1 s + 0.1 s.
  EXPECT_EQ(ex_.now(), Millis(200));
}

TEST_F(BufferPoolTest, AdmissionGateSerializesMisses) {
  BufferPoolOptions opt = SmallPool();
  opt.admission_limit = 1;  // one evict-and-read section at a time
  BufferPool pool(ex_, opt, &ctl_, 1);
  std::vector<PageAccess> out;
  AccessPage(ex_, pool, 1, 1, false, nullptr, out);
  AccessPage(ex_, pool, 2, 2, false, nullptr, out);
  ex_.Run();
  ASSERT_EQ(out.size(), 2u);
  EXPECT_TRUE(out[0].status.ok());
  EXPECT_TRUE(out[1].status.ok());
  // Two 100 us miss reads serialized by the gate instead of overlapping.
  EXPECT_EQ(ex_.now(), 200u);
  EXPECT_EQ(pool.admission_aborts(), 0u);
}

TEST_F(BufferPoolTest, CancelAbortsMissParkedAtAdmission) {
  BufferPoolOptions opt = SmallPool();
  opt.admission_limit = 1;
  BufferPool pool(ex_, opt, &ctl_, 1);
  CancelToken token(ex_);
  std::vector<PageAccess> out;
  AccessPage(ex_, pool, 1, 1, false, nullptr, out);   // holds the gate [0,100)
  AccessPage(ex_, pool, 2, 2, false, &token, out);    // parked at admission
  ex_.CallAt(20, [&] { token.Cancel(); });
  ex_.Run();
  ASSERT_EQ(out.size(), 2u);
  // Completion order: the abort resolves at t=20, the gate holder at t=100.
  // Aborted in place — without the abortable gate the second access would
  // have been admitted at t=100 and only then observed the cancellation.
  EXPECT_TRUE(out[0].status.IsCancelled());
  EXPECT_TRUE(out[1].status.ok());
  EXPECT_EQ(pool.admission_aborts(), 1u);
  // The slot was never taken, so the gate is immediately reusable.
  AccessPage(ex_, pool, 3, 3, false, nullptr, out);
  ex_.Run();
  EXPECT_TRUE(out[2].status.ok());
}

TEST_F(BufferPoolTest, ConcurrentMissesOnSamePageDoNotDoubleInsert) {
  BufferPool pool(ex_, SmallPool(), &ctl_, 1);
  std::vector<PageAccess> out;
  AccessPage(ex_, pool, 1, 7, false, nullptr, out);
  AccessPage(ex_, pool, 2, 7, false, nullptr, out);
  ex_.Run();
  EXPECT_EQ(pool.resident_pages(), 1u);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_TRUE(out[0].status.ok());
  EXPECT_TRUE(out[1].status.ok());
}

}  // namespace
}  // namespace atropos
