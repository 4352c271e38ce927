// Unit tests for the abortable-synchronization layer (DESIGN.md §16): the
// AbortCell grant/cancel linearization, CancellableMutex / Semaphore FIFO and
// in-place abort semantics, the smart-vs-simple grant-transfer difference,
// and the AbortableQueue's keyed slot cancellation.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <thread>
#include <vector>

#include "src/sync/abort_cell.h"
#include "src/sync/abortable_queue.h"
#include "src/sync/cancellable_mutex.h"
#include "src/sync/cancellable_semaphore.h"

namespace atropos {
namespace {

// ---------------------------------------------------------------------------
// AbortCell: the single-CAS linearization between grant and cancel.

TEST(AbortCellTest, GrantWinsOverLateAbort) {
  AbortCell cell;
  cell.BeginWait(5);
  EXPECT_TRUE(cell.TryGrant());
  EXPECT_FALSE(cell.TryAbort(5));  // lost the CAS: the waiter acquired
  EXPECT_EQ(cell.state(), AbortCell::kGranted);
  cell.EndWait();
}

TEST(AbortCellTest, AbortWinsOverLateGrant) {
  AbortCell cell;
  cell.BeginWait(5);
  EXPECT_TRUE(cell.TryAbort(5));
  EXPECT_FALSE(cell.TryGrant());  // the cancelled waiter never acquires
  EXPECT_EQ(cell.state(), AbortCell::kCancelled);
  cell.EndWait();
}

TEST(AbortCellTest, TryAbortIsKeyGuarded) {
  AbortCell cell;
  cell.BeginWait(5);
  EXPECT_FALSE(cell.TryAbort(6));  // wrong key: a stale abort is a no-op
  EXPECT_FALSE(cell.TryAbort(0));
  EXPECT_EQ(cell.state(), AbortCell::kWaiting);
  EXPECT_TRUE(cell.TryGrant());
  cell.EndWait();
  // Key retracted by EndWait: the same abort can no longer land.
  EXPECT_FALSE(cell.TryAbort(5));
  EXPECT_EQ(cell.state(), AbortCell::kIdle);
}

TEST(AbortCellTest, CancelSelfResolvesTheWait) {
  AbortCell cell;
  cell.BeginWait(9);
  cell.CancelSelf();
  EXPECT_EQ(cell.state(), AbortCell::kCancelled);
  EXPECT_FALSE(cell.TryGrant());
  cell.EndWait();
}

// ---------------------------------------------------------------------------
// CancellableMutex.

TEST(CancellableMutexTest, UncontendedFastPath) {
  CancellableMutex mu;
  mu.Acquire();
  EXPECT_TRUE(mu.held());
  EXPECT_FALSE(mu.TryAcquire());
  mu.Release();
  EXPECT_FALSE(mu.held());
  EXPECT_TRUE(mu.TryAcquire());
  mu.Release();
  EXPECT_EQ(mu.contended_acquires(), 0u);
}

TEST(CancellableMutexTest, PreRaisedSignalAbortsWithoutAcquiring) {
  CancellableMutex mu;
  std::atomic<uint64_t> word{7};
  CancelSignal signal(&word, 7);
  AbortCell cell;
  EXPECT_EQ(mu.Acquire(7, &cell, &signal), SyncOutcome::kCancelled);
  EXPECT_FALSE(mu.held());
  EXPECT_EQ(mu.aborted_waits(), 1u);
}

TEST(CancellableMutexTest, InitiatorAbortsParkedWaiterInPlace) {
  CancellableMutex mu;
  mu.Acquire();  // main thread is the holder

  std::atomic<uint64_t> word{0};
  AbortCell cell;
  std::atomic<bool> returned{false};
  SyncOutcome out = SyncOutcome::kAcquired;
  std::thread waiter([&] {
    CancelSignal signal(&word, 7);
    out = mu.Acquire(7, &cell, &signal);
    returned.store(true);
  });
  while (mu.waiter_count() == 0) {
    std::this_thread::yield();
  }

  // The lock-free initiator path: mark the word, abort the cell. The waiter
  // returns *while the lock is still held*.
  word.store(7);
  EXPECT_TRUE(cell.TryAbort(7));
  waiter.join();
  EXPECT_TRUE(returned.load());
  EXPECT_EQ(out, SyncOutcome::kCancelled);
  EXPECT_TRUE(mu.held());  // abort never touched the holder
  EXPECT_EQ(mu.aborted_waits(), 1u);
  EXPECT_EQ(mu.waiter_count(), 0u);  // unlinked in place

  mu.Release();
  EXPECT_TRUE(mu.TryAcquire());
  mu.Release();
}

// Regression for the stale-TryAbort race: the initiator's load/CAS pair in
// TryAbort is not atomic, so a delayed CAS can land on a *recycled* cell that
// now hosts an untargeted task's wait. The waiter must detect that its keyed
// cancel word was never stored (initiators store the word before TryAbort),
// treat the abort as spurious, re-enter the wait, and eventually acquire —
// never report a cancellation it was not addressed.
TEST(CancellableMutexTest, SpuriousAbortReentersInsteadOfCancelling) {
  CancellableMutex mu;
  mu.Acquire();  // main thread is the holder

  std::atomic<uint64_t> word{0};  // never stores key 7: no genuine cancel
  AbortCell cell;
  SyncOutcome out = SyncOutcome::kCancelled;
  std::thread waiter([&] {
    CancelSignal signal(&word, 7);
    out = mu.Acquire(7, &cell, &signal);
  });
  while (mu.waiter_count() == 0) {
    std::this_thread::yield();
  }

  // Simulate the delayed stale CAS: flip the cell without storing the cancel
  // word — exactly what an initiator preempted across a cell recycle does.
  EXPECT_TRUE(cell.TryAbort(7));
  while (mu.spurious_aborts() == 0) {
    std::this_thread::yield();
  }
  while (mu.waiter_count() == 0) {
    std::this_thread::yield();  // the waiter re-enqueued itself
  }
  mu.Release();
  waiter.join();
  EXPECT_EQ(out, SyncOutcome::kAcquired);  // the untargeted task acquired
  EXPECT_EQ(mu.spurious_aborts(), 1u);
  EXPECT_EQ(mu.aborted_waits(), 0u);  // never surfaced as a cancellation
  mu.Release();
  EXPECT_TRUE(mu.TryAcquire());
  mu.Release();
}

TEST(CancellableSemaphoreTest, SpuriousAbortReentersInsteadOfCancelling) {
  CancellableSemaphore sem(2);
  ASSERT_TRUE(sem.TryAcquire(2));  // drained: the waiter must park

  std::atomic<uint64_t> word{0};
  AbortCell cell;
  SyncOutcome out = SyncOutcome::kCancelled;
  std::thread waiter([&] {
    CancelSignal signal(&word, 9);
    out = sem.Acquire(9, 1, &cell, &signal);
  });
  while (sem.waiter_count() == 0) {
    std::this_thread::yield();
  }

  EXPECT_TRUE(cell.TryAbort(9));
  while (sem.spurious_aborts() == 0) {
    std::this_thread::yield();
  }
  while (sem.waiter_count() == 0) {
    std::this_thread::yield();
  }
  sem.Release(2);
  waiter.join();
  EXPECT_EQ(out, SyncOutcome::kAcquired);
  EXPECT_EQ(sem.spurious_aborts(), 1u);
  EXPECT_EQ(sem.aborted_waits(), 0u);
  sem.Release(1);
  EXPECT_EQ(sem.available(), 2u);  // no units lost across the re-entry
}

TEST(CancellableMutexTest, ReleaseGrantsInFifoOrderSkippingCancelled) {
  CancellableMutex mu;
  mu.Acquire();

  constexpr int kWaiters = 3;
  std::vector<AbortCell> cells(kWaiters);
  std::atomic<int> order{0};
  std::vector<int> granted_at(kWaiters, -1);
  std::vector<std::thread> threads;
  for (int i = 0; i < kWaiters; i++) {
    while (mu.waiter_count() != static_cast<size_t>(i)) {
      std::this_thread::yield();
    }
    threads.emplace_back([&, i] {
      if (mu.Acquire(100 + static_cast<uint64_t>(i), &cells[i], nullptr) ==
          SyncOutcome::kAcquired) {
        granted_at[i] = order.fetch_add(1);
        mu.Release();
      }
    });
  }
  while (mu.waiter_count() != kWaiters) {
    std::this_thread::yield();
  }

  // Abort the middle waiter, then release: grants must flow 0 then 2.
  EXPECT_TRUE(cells[1].TryAbort(101));
  mu.Release();
  for (std::thread& t : threads) {
    t.join();
  }
  EXPECT_EQ(granted_at[0], 0);
  EXPECT_EQ(granted_at[1], -1);  // cancelled: never acquired
  EXPECT_EQ(granted_at[2], 1);
  EXPECT_EQ(mu.aborted_waits(), 1u);
  EXPECT_TRUE(mu.TryAcquire());  // nothing stranded
  mu.Release();
}

// ---------------------------------------------------------------------------
// CancellableSemaphore.

TEST(CancellableSemaphoreTest, TryAcquireIsStrictFifo) {
  CancellableSemaphore sem(4);
  EXPECT_TRUE(sem.TryAcquire(3));
  EXPECT_FALSE(sem.TryAcquire(2));  // only 1 unit left
  EXPECT_TRUE(sem.TryAcquire(1));
  sem.Release(4);
  EXPECT_EQ(sem.available(), 4u);
}

// The smart grant pass: a cancelled multi-unit head waiter is the only thing
// blocking a smaller request behind it.
TEST(CancellableSemaphoreTest, SmartModeTransfersGrantAtCancel) {
  CancellableSemaphore sem(4);
  ASSERT_TRUE(sem.TryAcquire(3));  // available = 1

  AbortCell big_cell;
  AbortCell small_cell;
  std::atomic<bool> small_acquired{false};
  std::thread big([&] {
    // Head of the queue, wants more than is available.
    EXPECT_EQ(sem.Acquire(11, 4, &big_cell, nullptr), SyncOutcome::kCancelled);
  });
  while (sem.waiter_count() != 1) {
    std::this_thread::yield();
  }
  std::thread small([&] {
    // One unit IS available, but strict FIFO parks it behind the big request.
    EXPECT_EQ(sem.Acquire(12, 1, &small_cell, nullptr), SyncOutcome::kAcquired);
    small_acquired.store(true);
  });
  while (sem.waiter_count() != 2) {
    std::this_thread::yield();
  }
  EXPECT_FALSE(small_acquired.load());

  // Abort the head. The cancelling waiter re-runs the grant pass as it
  // unlinks, so the small request is admitted with NO Release at all.
  EXPECT_TRUE(big_cell.TryAbort(11));
  big.join();
  small.join();
  EXPECT_TRUE(small_acquired.load());
  EXPECT_EQ(sem.aborted_waits(), 1u);
  EXPECT_EQ(sem.available(), 0u);  // 3 held by main + 1 by small
  sem.Release(3);
  sem.Release(1);
  EXPECT_EQ(sem.available(), 4u);
}

TEST(CancellableSemaphoreTest, PreRaisedSignalAbortsWithoutUnits) {
  CancellableSemaphore sem(2);
  std::atomic<uint64_t> word{31};
  CancelSignal signal(&word, 31);
  AbortCell cell;
  EXPECT_EQ(sem.Acquire(31, 1, &cell, &signal), SyncOutcome::kCancelled);
  EXPECT_EQ(sem.available(), 2u);  // no units consumed
  EXPECT_EQ(sem.aborted_waits(), 1u);
}

// ---------------------------------------------------------------------------
// AbortableQueue.

TEST(AbortableQueueTest, PushPopIsFifo) {
  AbortableQueue<int> q(4);
  EXPECT_TRUE(q.Push(10, 1));
  EXPECT_TRUE(q.Push(20, 2));
  auto a = q.Pop();
  auto b = q.Pop();
  EXPECT_EQ(a.status, AbortableQueue<int>::PopStatus::kItem);
  EXPECT_EQ(a.item, 10);
  EXPECT_EQ(b.item, 20);
}

TEST(AbortableQueueTest, RejectsWhenFull) {
  AbortableQueue<int> q(1);
  EXPECT_TRUE(q.Push(1, 1));
  EXPECT_FALSE(q.Push(2, 2));
  (void)q.Pop();
  EXPECT_TRUE(q.Push(2, 2));
}

TEST(AbortableQueueTest, AbortedItemPopsAsCancelledWithoutExecuting) {
  AbortableQueue<int> q(4);
  EXPECT_TRUE(q.Push(10, 1));
  EXPECT_TRUE(q.Push(20, 2));
  EXPECT_EQ(q.AbortKey(1), AbortableQueue<int>::AbortResult::kAborted);
  EXPECT_EQ(q.AbortKey(99), AbortableQueue<int>::AbortResult::kMiss);  // not queued
  auto a = q.Pop();
  auto b = q.Pop();
  EXPECT_EQ(a.status, AbortableQueue<int>::PopStatus::kAborted);
  EXPECT_EQ(b.status, AbortableQueue<int>::PopStatus::kItem);
  EXPECT_EQ(q.aborted_in_queue(), 1u);
}

TEST(AbortableQueueTest, StaleAbortCannotHitRecycledSlot) {
  AbortableQueue<int> q(1);
  EXPECT_TRUE(q.Push(10, 1));
  EXPECT_EQ(q.AbortKey(1), AbortableQueue<int>::AbortResult::kAborted);
  EXPECT_EQ(q.Pop().status, AbortableQueue<int>::PopStatus::kAborted);
  // Same physical slot, new occupant: the old cancel mark holds key 1, which
  // cannot match key 2 — keyed delivery needs no generation counter.
  EXPECT_TRUE(q.Push(20, 2));
  EXPECT_EQ(q.AbortKey(1), AbortableQueue<int>::AbortResult::kMiss);
  EXPECT_EQ(q.Pop().status, AbortableQueue<int>::PopStatus::kItem);
}

TEST(AbortableQueueTest, ZeroCapacityClampsToOneSlot) {
  AbortableQueue<int> q(0);  // would be modulo-by-zero without the clamp
  EXPECT_EQ(q.capacity(), 1u);
  EXPECT_TRUE(q.Push(10, 1));
  EXPECT_FALSE(q.Push(20, 2));
  EXPECT_EQ(q.Pop().item, 10);
}

TEST(AbortableQueueTest, CloseAndDrainReturnsLeftovers) {
  AbortableQueue<int> q(4);
  EXPECT_TRUE(q.Push(10, 1));
  EXPECT_TRUE(q.Push(20, 2));
  std::vector<int> drained = q.CloseAndDrain();
  EXPECT_EQ(drained.size(), 2u);
  EXPECT_FALSE(q.Push(30, 3));  // closed
  EXPECT_EQ(q.Pop().status, AbortableQueue<int>::PopStatus::kClosed);
}

TEST(AbortableQueueTest, CloseWakesParkedConsumer) {
  AbortableQueue<int> q(4);
  std::thread consumer([&] {
    EXPECT_EQ(q.Pop().status, AbortableQueue<int>::PopStatus::kClosed);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));  // let it park
  (void)q.CloseAndDrain();
  consumer.join();
}

}  // namespace
}  // namespace atropos
