#include "src/sim/sync.h"

#include <gtest/gtest.h>

#include <vector>

#include "src/sim/coro.h"
#include "src/sim/task.h"

namespace atropos {
namespace {

// --------------------------------------------------------------------------
// SimEvent

Coro WaitOnEvent(Executor& ex, SimEvent& event, CancelToken* token, std::vector<Status>& out) {
  co_await BindExecutor{ex};
  out.push_back(co_await event.Wait(token));
}

TEST(SimEventTest, SetWakesAllWaiters) {
  Executor ex;
  SimEvent event(ex);
  std::vector<Status> results;
  WaitOnEvent(ex, event, nullptr, results);
  WaitOnEvent(ex, event, nullptr, results);
  ex.CallAt(100, [&] { event.Set(); });
  ex.Run();
  ASSERT_EQ(results.size(), 2u);
  EXPECT_TRUE(results[0].ok());
  EXPECT_TRUE(results[1].ok());
}

TEST(SimEventTest, WaitAfterSetCompletesImmediately) {
  Executor ex;
  SimEvent event(ex);
  event.Set();
  std::vector<Status> results;
  WaitOnEvent(ex, event, nullptr, results);
  // Completed synchronously, no pending events needed.
  ASSERT_EQ(results.size(), 1u);
  EXPECT_TRUE(results[0].ok());
}

TEST(SimEventTest, CancelAbortsWait) {
  Executor ex;
  SimEvent event(ex);
  CancelToken token(ex);
  std::vector<Status> results;
  WaitOnEvent(ex, event, &token, results);
  ex.CallAt(50, [&] { token.Cancel(); });
  ex.Run();
  ASSERT_EQ(results.size(), 1u);
  EXPECT_TRUE(results[0].IsCancelled());
}

TEST(SimEventTest, WaitWithAlreadyCancelledToken) {
  Executor ex;
  SimEvent event(ex);
  CancelToken token(ex);
  token.Cancel();
  std::vector<Status> results;
  WaitOnEvent(ex, event, &token, results);
  ASSERT_EQ(results.size(), 1u);
  EXPECT_TRUE(results[0].IsCancelled());
}

// --------------------------------------------------------------------------
// SimMutex

Coro HoldMutex(Executor& ex, SimMutex& mu, TimeMicros hold, CancelToken* token,
               std::vector<std::pair<TimeMicros, Status>>& log) {
  co_await BindExecutor{ex};
  Status s = co_await mu.Acquire(token);
  log.emplace_back(ex.now(), s);
  if (s.ok()) {
    co_await Delay{ex, hold};
    mu.Release();
  }
}

TEST(SimMutexTest, MutualExclusionAndFifo) {
  Executor ex;
  SimMutex mu(ex);
  std::vector<std::pair<TimeMicros, Status>> log;
  HoldMutex(ex, mu, 100, nullptr, log);
  HoldMutex(ex, mu, 100, nullptr, log);
  HoldMutex(ex, mu, 100, nullptr, log);
  ex.Run();
  ASSERT_EQ(log.size(), 3u);
  EXPECT_EQ(log[0].first, 0u);
  EXPECT_EQ(log[1].first, 100u);
  EXPECT_EQ(log[2].first, 200u);
  EXPECT_EQ(ex.live_procs(), 0);
}

TEST(SimMutexTest, CancelledWaiterSkipsTurn) {
  Executor ex;
  SimMutex mu(ex);
  CancelToken token(ex);
  std::vector<std::pair<TimeMicros, Status>> log;
  HoldMutex(ex, mu, 100, nullptr, log);   // holds [0,100)
  HoldMutex(ex, mu, 100, &token, log);    // queued, will be cancelled
  HoldMutex(ex, mu, 100, nullptr, log);   // should get lock at 100
  ex.CallAt(50, [&] { token.Cancel(); });
  ex.Run();
  ASSERT_EQ(log.size(), 3u);
  EXPECT_TRUE(log[0].second.ok());
  // The cancelled waiter observed cancellation at t=50.
  EXPECT_TRUE(log[1].second.IsCancelled());
  EXPECT_EQ(log[1].first, 50u);
  // Third acquirer proceeds when the first releases.
  EXPECT_TRUE(log[2].second.ok());
  EXPECT_EQ(log[2].first, 100u);
}

// --------------------------------------------------------------------------
// SimSemaphore

Coro UseSemaphore(Executor& ex, SimSemaphore& sem, uint64_t units, TimeMicros hold,
                  CancelToken* token, std::vector<std::pair<TimeMicros, Status>>& log) {
  co_await BindExecutor{ex};
  Status s = co_await sem.Acquire(units, token);
  log.emplace_back(ex.now(), s);
  if (s.ok()) {
    co_await Delay{ex, hold};
    sem.Release(units);
  }
}

TEST(SimSemaphoreTest, CapacityLimitsConcurrency) {
  Executor ex;
  SimSemaphore sem(ex, 2);
  std::vector<std::pair<TimeMicros, Status>> log;
  for (int i = 0; i < 4; i++) {
    UseSemaphore(ex, sem, 1, 100, nullptr, log);
  }
  ex.Run();
  ASSERT_EQ(log.size(), 4u);
  EXPECT_EQ(log[0].first, 0u);
  EXPECT_EQ(log[1].first, 0u);
  EXPECT_EQ(log[2].first, 100u);
  EXPECT_EQ(log[3].first, 100u);
}

TEST(SimSemaphoreTest, MultiUnitAcquireBlocksUntilEnough) {
  Executor ex;
  SimSemaphore sem(ex, 3);
  std::vector<std::pair<TimeMicros, Status>> log;
  UseSemaphore(ex, sem, 2, 100, nullptr, log);  // holds 2 until 100
  UseSemaphore(ex, sem, 3, 50, nullptr, log);   // needs all 3; waits until 100
  ex.Run();
  EXPECT_EQ(log[0].first, 0u);
  EXPECT_EQ(log[1].first, 100u);
}

TEST(SimSemaphoreTest, FifoHeadBlocksSmallerRequests) {
  Executor ex;
  SimSemaphore sem(ex, 2);
  std::vector<std::pair<TimeMicros, Status>> log;
  UseSemaphore(ex, sem, 2, 100, nullptr, log);  // holds both
  UseSemaphore(ex, sem, 2, 10, nullptr, log);   // queued head
  UseSemaphore(ex, sem, 1, 10, nullptr, log);   // must wait behind the head
  ex.Run();
  EXPECT_EQ(log[1].first, 100u);
  EXPECT_EQ(log[2].first, 110u);
}

TEST(SimSemaphoreTest, CancellingBlockedHeadUnblocksTail) {
  Executor ex;
  SimSemaphore sem(ex, 2);
  CancelToken token(ex);
  std::vector<std::pair<TimeMicros, Status>> log;
  UseSemaphore(ex, sem, 2, 100, nullptr, log);  // holds both until 100
  UseSemaphore(ex, sem, 2, 10, &token, log);    // queued head, cancelled at 20
  UseSemaphore(ex, sem, 1, 10, nullptr, log);   // blocked behind head... until cancel? no:
  // The third needs 1 unit but none are available until t=100 anyway.
  ex.CallAt(20, [&] { token.Cancel(); });
  ex.Run();
  EXPECT_TRUE(log[1].second.IsCancelled());
  EXPECT_EQ(log[1].first, 20u);
  // Third gets a unit at 100 when the first releases.
  EXPECT_TRUE(log[2].second.ok());
  EXPECT_EQ(log[2].first, 100u);
}

// The smart grant pass: a cancelled head that was the only thing blocking a
// smaller request behind it. One unit is free the whole time; only the FIFO
// head gates the tail.
TEST(SimSemaphoreTest, SmartModeCancelGrantsBlockedTailImmediately) {
  Executor ex;
  SimSemaphore sem(ex, 2);
  CancelToken token(ex);
  std::vector<std::pair<TimeMicros, Status>> log;
  UseSemaphore(ex, sem, 1, 100, nullptr, log);  // holds 1 until 100; 1 free
  UseSemaphore(ex, sem, 2, 10, &token, log);    // head needs 2; cancelled at 20
  UseSemaphore(ex, sem, 1, 10, nullptr, log);   // could run on the free unit
  ex.CallAt(20, [&] { token.Cancel(); });
  ex.Run();
  EXPECT_TRUE(log[1].second.IsCancelled());
  EXPECT_EQ(log[1].first, 20u);
  EXPECT_EQ(log[2].first, 20u);  // grant transferred at cancellation time
}

// SetCapacity with multi-unit requests: a capacity lowered below the units in
// use leaves none available (not a wrapped-around count) until enough
// holders release, and the FIFO head still gates the requests behind it.
TEST(SimSemaphoreTest, SetCapacityRespectsUnitsInUseAndFifoOrder) {
  Executor ex;
  SimSemaphore sem(ex, 4);
  std::vector<std::pair<TimeMicros, Status>> log;
  UseSemaphore(ex, sem, 3, 100, nullptr, log);  // holds 3 until 100
  UseSemaphore(ex, sem, 2, 10, nullptr, log);   // queued head
  UseSemaphore(ex, sem, 1, 10, nullptr, log);   // behind the head
  ex.CallAt(50, [&] {
    sem.SetCapacity(2);
    EXPECT_EQ(sem.available(), 0u);
    EXPECT_FALSE(sem.TryAcquire());
  });
  ex.CallAt(200, [&] { sem.SetCapacity(3); });
  ex.Run();
  ASSERT_EQ(log.size(), 3u);
  EXPECT_EQ(log[1].first, 100u);  // 2 units fit the lowered capacity at release
  EXPECT_EQ(log[2].first, 110u);  // 1 more only once the head releases
  EXPECT_EQ(sem.available(), 3u);
}

TEST(SimSemaphoreTest, TryAcquireDoesNotBlock) {
  Executor ex;
  SimSemaphore sem(ex, 1);
  EXPECT_TRUE(sem.TryAcquire());
  EXPECT_FALSE(sem.TryAcquire());
  sem.Release();
  EXPECT_TRUE(sem.TryAcquire());
  sem.Release();
}

// --------------------------------------------------------------------------
// SimRwLock

Coro ReadLock(Executor& ex, SimRwLock& lk, TimeMicros hold, CancelToken* token,
              std::vector<std::pair<TimeMicros, Status>>& log) {
  co_await BindExecutor{ex};
  Status s = co_await lk.AcquireShared(token);
  log.emplace_back(ex.now(), s);
  if (s.ok()) {
    co_await Delay{ex, hold};
    lk.ReleaseShared();
  }
}

Coro WriteLock(Executor& ex, SimRwLock& lk, TimeMicros hold, CancelToken* token,
               std::vector<std::pair<TimeMicros, Status>>& log) {
  co_await BindExecutor{ex};
  Status s = co_await lk.AcquireExclusive(token);
  log.emplace_back(ex.now(), s);
  if (s.ok()) {
    co_await Delay{ex, hold};
    lk.ReleaseExclusive();
  }
}

TEST(SimRwLockTest, ReadersShare) {
  Executor ex;
  SimRwLock lk(ex);
  std::vector<std::pair<TimeMicros, Status>> log;
  ReadLock(ex, lk, 100, nullptr, log);
  ReadLock(ex, lk, 100, nullptr, log);
  ex.Run();
  EXPECT_EQ(log[0].first, 0u);
  EXPECT_EQ(log[1].first, 0u);
}

TEST(SimRwLockTest, WriterExcludesReaders) {
  Executor ex;
  SimRwLock lk(ex);
  std::vector<std::pair<TimeMicros, Status>> log;
  WriteLock(ex, lk, 100, nullptr, log);
  ReadLock(ex, lk, 10, nullptr, log);
  ex.Run();
  EXPECT_EQ(log[0].first, 0u);
  EXPECT_EQ(log[1].first, 100u);
}

TEST(SimRwLockTest, ConvoyFormsBehindQueuedWriter) {
  Executor ex;
  SimRwLock lk(ex);
  std::vector<std::pair<TimeMicros, Status>> log;
  ReadLock(ex, lk, 1000, nullptr, log);  // long scan holds S [0,1000)
  WriteLock(ex, lk, 10, nullptr, log);   // backup X queued behind the scan
  ReadLock(ex, lk, 10, nullptr, log);    // later readers convoy behind the writer
  ReadLock(ex, lk, 10, nullptr, log);
  ex.Run();
  ASSERT_EQ(log.size(), 4u);
  EXPECT_EQ(log[0].first, 0u);
  EXPECT_EQ(log[1].first, 1000u);  // writer waits for scan
  EXPECT_EQ(log[2].first, 1010u);  // readers blocked until the writer is done
  EXPECT_EQ(log[3].first, 1010u);
}

TEST(SimRwLockTest, CancellingQueuedWriterReleasesConvoy) {
  Executor ex;
  SimRwLock lk(ex);
  CancelToken token(ex);
  std::vector<std::pair<TimeMicros, Status>> log;
  ReadLock(ex, lk, 1000, nullptr, log);  // scan holds S [0,1000)
  WriteLock(ex, lk, 10, &token, log);    // backup queued; cancelled at 200
  ReadLock(ex, lk, 10, nullptr, log);    // convoyed readers
  ReadLock(ex, lk, 10, nullptr, log);
  ex.CallAt(200, [&] { token.Cancel(); });
  ex.Run();
  ASSERT_EQ(log.size(), 4u);
  EXPECT_TRUE(log[1].second.IsCancelled());
  EXPECT_EQ(log[1].first, 200u);
  // Readers join the still-active scan immediately after the writer leaves.
  EXPECT_EQ(log[2].first, 200u);
  EXPECT_EQ(log[3].first, 200u);
}

TEST(SimRwLockTest, WriterQueuedFlag) {
  Executor ex;
  SimRwLock lk(ex);
  std::vector<std::pair<TimeMicros, Status>> log;
  ReadLock(ex, lk, 100, nullptr, log);
  EXPECT_FALSE(lk.writer_queued());
  WriteLock(ex, lk, 10, nullptr, log);
  EXPECT_TRUE(lk.writer_queued());
  ex.Run();
  EXPECT_FALSE(lk.writer_queued());
}

// --------------------------------------------------------------------------
// Task<T> composition

Task<int> AddAfterDelay(Executor& ex, int a, int b) {
  co_await Delay{ex, 50};
  co_return a + b;
}

Task<Status> NestedOk(Executor& ex) {
  int v = co_await AddAfterDelay(ex, 2, 3);
  if (v != 5) {
    co_return Status::Internal("bad math");
  }
  co_return Status::Ok();
}

Coro DriveTask(Executor& ex, std::vector<Status>& out) {
  co_await BindExecutor{ex};
  out.push_back(co_await NestedOk(ex));
}

TEST(TaskTest, NestedTasksComposeAndPropagateValues) {
  Executor ex;
  std::vector<Status> out;
  DriveTask(ex, out);
  ex.Run();
  ASSERT_EQ(out.size(), 1u);
  EXPECT_TRUE(out[0].ok());
  EXPECT_EQ(ex.now(), 50u);
  EXPECT_EQ(ex.live_procs(), 0);
}

}  // namespace
}  // namespace atropos
