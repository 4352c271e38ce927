// Tests for the search-heap, web worker-pool, and KV substrate pieces.

#include <gtest/gtest.h>

#include "src/kv/store.h"
#include "src/search/heap.h"
#include "src/sim/coro.h"
#include "src/web/worker_pool.h"
#include "src/testing/recording_controller.h"

namespace atropos {
namespace {

// --------------------------------------------------------------------------
// GcHeap

Coro Alloc(Executor& ex, GcHeap& heap, uint64_t key, uint64_t kb, CancelToken* token,
           std::vector<std::pair<TimeMicros, Status>>& log) {
  co_await BindExecutor{ex};
  Status s = co_await heap.Allocate(key, kb, token);
  log.emplace_back(ex.now(), s);
}

TEST(GcHeapTest, AllocateTracksLiveAndUsage) {
  Executor ex;
  RecordingController ctl;
  GcHeapOptions opt;
  opt.capacity_kb = 10000;
  GcHeap heap(ex, opt, &ctl, 1);
  std::vector<std::pair<TimeMicros, Status>> log;
  Alloc(ex, heap, 1, 1000, nullptr, log);
  ex.Run();
  EXPECT_EQ(heap.live_kb(), 1000u);
  EXPECT_EQ(heap.usage_kb(), 1000u);
  EXPECT_EQ(heap.LiveOf(1), 1000u);
  heap.Free(1, 400);
  EXPECT_EQ(heap.live_kb(), 600u);
  EXPECT_EQ(heap.usage_kb(), 1000u);  // garbage remains until GC
  EXPECT_EQ(ctl.CountFor(TraceEventKind::kGet, 1), 1);
  EXPECT_EQ(ctl.CountFor(TraceEventKind::kFree, 1), 1);
}

TEST(GcHeapTest, CrossingThresholdTriggersGcAndReclaimsGarbage) {
  Executor ex;
  RecordingController ctl;
  GcHeapOptions opt;
  opt.capacity_kb = 1000;
  opt.gc_threshold = 0.5;
  opt.gc_pause_base = 100;
  GcHeap heap(ex, opt, &ctl, 1);
  std::vector<std::pair<TimeMicros, Status>> log;
  Alloc(ex, heap, 1, 400, nullptr, log);
  ex.Run();
  heap.Free(1, 400);  // all garbage
  Alloc(ex, heap, 2, 200, nullptr, log);  // usage 600 > 500 threshold -> GC
  ex.Run();
  EXPECT_EQ(heap.gc_cycles(), 1u);
  EXPECT_EQ(heap.usage_kb(), 200u);  // garbage reclaimed, live kept
}

TEST(GcHeapTest, AllocationsStallDuringGc) {
  Executor ex;
  RecordingController ctl;
  GcHeapOptions opt;
  opt.capacity_kb = 1000;
  opt.gc_threshold = 0.5;
  opt.gc_pause_base = 5000;
  opt.gc_pause_per_mb_live = 0;
  opt.alloc_cost_per_mb = 0;
  GcHeap heap(ex, opt, &ctl, 1);
  std::vector<std::pair<TimeMicros, Status>> log;
  Alloc(ex, heap, 1, 600, nullptr, log);  // triggers GC (usage 600 > 500)
  ex.Run(1000);
  EXPECT_TRUE(heap.gc_running());
  Alloc(ex, heap, 2, 10, nullptr, log);  // must wait for the pause to end
  ex.Run();
  ASSERT_EQ(log.size(), 2u);
  EXPECT_EQ(log[1].first, 5000u);
  // The stalled allocator reported a wait on the heap resource.
  EXPECT_EQ(ctl.CountFor(TraceEventKind::kWaitBegin, 2), 1);
}

TEST(GcHeapTest, CancelledAllocationDuringGc) {
  Executor ex;
  RecordingController ctl;
  GcHeapOptions opt;
  opt.capacity_kb = 1000;
  opt.gc_threshold = 0.5;
  opt.gc_pause_base = 5000;
  opt.alloc_cost_per_mb = 0;
  GcHeap heap(ex, opt, &ctl, 1);
  CancelToken token(ex);
  std::vector<std::pair<TimeMicros, Status>> log;
  Alloc(ex, heap, 1, 600, nullptr, log);
  ex.Run(1000);
  Alloc(ex, heap, 2, 10, &token, log);
  ex.CallAt(2000, [&] { token.Cancel(); });
  ex.Run();
  ASSERT_EQ(log.size(), 2u);
  EXPECT_TRUE(log[1].second.IsCancelled());
  EXPECT_EQ(log[1].first, 2000u);
}

// --------------------------------------------------------------------------
// WorkerPool

Coro ClaimWorker(Executor& ex, WorkerPool& pool, uint64_t key, TimeMicros hold,
                 CancelToken* token, std::vector<std::pair<TimeMicros, Status>>& log) {
  co_await BindExecutor{ex};
  Status s = co_await pool.Claim(key, token);
  log.emplace_back(ex.now(), s);
  if (s.ok()) {
    co_await Delay{ex, hold};
    pool.Release(key);
  }
}

TEST(WorkerPoolTest, MaxClientsBoundsConcurrency) {
  Executor ex;
  RecordingController ctl;
  WorkerPoolOptions opt;
  opt.max_clients = 2;
  WorkerPool pool(ex, opt, &ctl, 1);
  std::vector<std::pair<TimeMicros, Status>> log;
  for (uint64_t k = 1; k <= 3; k++) {
    ClaimWorker(ex, pool, k, 100, nullptr, log);
  }
  ex.Run();
  ASSERT_EQ(log.size(), 3u);
  EXPECT_EQ(log[2].first, 100u);
}

TEST(WorkerPoolTest, FullBacklogRejects) {
  Executor ex;
  RecordingController ctl;
  WorkerPoolOptions opt;
  opt.max_clients = 1;
  opt.backlog = 2;
  WorkerPool pool(ex, opt, &ctl, 1);
  std::vector<std::pair<TimeMicros, Status>> log;
  for (uint64_t k = 1; k <= 4; k++) {
    ClaimWorker(ex, pool, k, 1000, nullptr, log);
  }
  ex.Run();
  ASSERT_EQ(log.size(), 4u);
  int rejected = 0;
  for (const auto& [t, s] : log) {
    if (s.code() == StatusCode::kResourceExhausted) {
      rejected++;
    }
  }
  EXPECT_EQ(rejected, 1);  // 1 running + 2 queued + 1 rejected
}

TEST(WorkerPoolTest, CancelAbortsQueuedClaim) {
  Executor ex;
  RecordingController ctl;
  WorkerPoolOptions opt;
  opt.max_clients = 1;
  WorkerPool pool(ex, opt, &ctl, 1);
  CancelToken token(ex);
  std::vector<std::pair<TimeMicros, Status>> log;
  ClaimWorker(ex, pool, 1, 1000, nullptr, log);
  ClaimWorker(ex, pool, 2, 10, &token, log);
  ex.CallAt(50, [&] { token.Cancel(); });
  ex.Run();
  ASSERT_EQ(log.size(), 2u);
  EXPECT_TRUE(log[1].second.IsCancelled());
}

// --------------------------------------------------------------------------
// KvStore

Coro DoPoint(Executor& ex, KvStore& store, uint64_t key,
             std::vector<std::pair<TimeMicros, Status>>& log) {
  co_await BindExecutor{ex};
  Status s = co_await store.PointOp(key, nullptr);
  log.emplace_back(ex.now(), s);
}

Coro DoRange(Executor& ex, KvStore& store, uint64_t key, uint64_t span, CancelToken* token,
             std::vector<std::pair<TimeMicros, Status>>& log) {
  co_await BindExecutor{ex};
  Status s = co_await store.RangeRead(key, span, token);
  log.emplace_back(ex.now(), s);
}

TEST(KvStoreTest, RangeReadBlocksPointOps) {
  Executor ex;
  RecordingController ctl;
  KvStoreOptions opt;
  opt.point_op_cost = 10;
  opt.scan_cost_per_key = 10;
  KvStore store(ex, opt, &ctl, 1);
  std::vector<std::pair<TimeMicros, Status>> log;
  DoRange(ex, store, 1, 1000, nullptr, log);  // 10 ms hold
  DoPoint(ex, store, 2, log);
  ex.Run();
  ASSERT_EQ(log.size(), 2u);
  // The point op waited for the whole range read (log order: point finishes
  // after the range).
  EXPECT_EQ(log[1].first, Millis(10) + 10);
  EXPECT_EQ(ctl.CountFor(TraceEventKind::kWaitBegin, 2), 1);
}

TEST(KvStoreTest, CancelledRangeReadReleasesTheLock) {
  Executor ex;
  RecordingController ctl;
  KvStoreOptions opt;
  opt.point_op_cost = 10;
  opt.scan_cost_per_key = 10;
  opt.scan_batch = 10;
  KvStore store(ex, opt, &ctl, 1);
  CancelToken token(ex);
  std::vector<std::pair<TimeMicros, Status>> log;
  DoRange(ex, store, 1, 100000, &token, log);
  DoPoint(ex, store, 2, log);
  ex.CallAt(500, [&] { token.Cancel(); });
  ex.Run();
  ASSERT_EQ(log.size(), 2u);
  EXPECT_TRUE(log[0].second.IsCancelled());
  EXPECT_LE(log[1].first, 700u);  // released at the next batch checkpoint
}

TEST(KvStoreTest, RangeReadReportsProgress) {
  Executor ex;
  RecordingController ctl;
  KvStoreOptions opt;
  opt.scan_batch = 100;
  KvStore store(ex, opt, &ctl, 1);
  std::vector<std::pair<TimeMicros, Status>> log;
  DoRange(ex, store, 1, 1000, nullptr, log);
  ex.Run();
  EXPECT_EQ(ctl.CountFor(TraceEventKind::kProgress, 1), 10);
}

TEST(KvStoreTest, SpanClampedToKeyCount) {
  Executor ex;
  RecordingController ctl;
  KvStoreOptions opt;
  opt.num_keys = 100;
  opt.scan_cost_per_key = 10;
  KvStore store(ex, opt, &ctl, 1);
  std::vector<std::pair<TimeMicros, Status>> log;
  DoRange(ex, store, 1, 100000, nullptr, log);
  ex.Run();
  EXPECT_EQ(ex.now(), 1000u);  // 100 keys * 10 us, not 100000
}

}  // namespace
}  // namespace atropos
