// Randomized concurrency storms for the abortable-sync layer, checking the
// CQS safety oracles under real thread interleavings (run under TSan by
// scripts/check.sh):
//
//   - mutual exclusion / unit conservation: holders never exceed capacity;
//   - a cancelled waiter never acquires: an Acquire that returns kCancelled
//     contributes no hold (violations surface as conservation failures or as
//     a stranded primitive at the end);
//   - no lost wakeups: every Acquire returns (the test terminates);
//   - no stranded units: after all threads join, the full capacity is
//     TryAcquire-able again;
//   - queue: every pushed key resolves exactly once (popped live, popped
//     aborted, or drained at close), and an abort acknowledged as kAborted is
//     always observed by the popper;
//   - no untargeted cancellations: an Acquire that returns kCancelled had its
//     own keyed word raised — a stale TryAbort landing on a recycled cell
//     re-enters the wait instead of cancelling the wrong task.
//
// The initiator threads use exactly the production cancel path: store the
// keyed cancel word, then AbortCell::TryAbort / AbortableQueue::AbortKey —
// both lock-free, racing real parks and grants.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <random>
#include <thread>
#include <vector>

#include "src/sync/abort_cell.h"
#include "src/sync/abortable_queue.h"
#include "src/sync/cancellable_mutex.h"
#include "src/sync/cancellable_semaphore.h"

namespace atropos {
namespace {

constexpr int kThreads = 4;
constexpr uint64_t kIters = 1500;

// Unique nonzero key per (thread, iteration).
uint64_t StormKey(int tid, uint64_t iter) {
  return (static_cast<uint64_t>(tid + 1) << 32) | (iter + 1);
}

TEST(SyncStormTest, MutexStormKeepsExclusionAndNeverStrands) {
  CancellableMutex mu;
  std::vector<AbortCell> cells(kThreads);
  // One cancel word per (thread, iteration) — the production shape, where
  // BeginTask hands every task a fresh word. A stale initiator store then
  // lands in the OLD iteration's word, so "Acquire returned kCancelled but
  // my word was never raised" is a sound oracle for the stale-TryAbort race
  // (the untargeted-task cancellation REVIEW.md flagged): a spurious CAS must
  // re-enter the wait, never surface as a cancellation.
  std::vector<std::vector<std::atomic<uint64_t>>> words(kThreads);
  for (auto& w : words) {
    w = std::vector<std::atomic<uint64_t>>(kIters);
  }
  std::vector<std::atomic<uint64_t>> published(kThreads);
  std::atomic<int> holders{0};
  std::atomic<uint64_t> cancelled{0};
  std::atomic<bool> exclusion_violated{false};
  std::atomic<bool> untargeted_cancel{false};
  std::atomic<bool> stop_initiator{false};

  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; t++) {
    workers.emplace_back([&, t] {
      for (uint64_t i = 0; i < kIters; i++) {
        const uint64_t key = StormKey(t, i);
        CancelSignal signal(&words[t][i], key);
        published[t].store(key, std::memory_order_seq_cst);
        const SyncOutcome out = mu.Acquire(key, &cells[t], &signal);
        published[t].store(0, std::memory_order_seq_cst);
        if (out == SyncOutcome::kAcquired) {
          if (holders.fetch_add(1, std::memory_order_seq_cst) != 0) {
            exclusion_violated.store(true);
          }
          holders.fetch_sub(1, std::memory_order_seq_cst);
          mu.Release();
        } else {
          // Only the initiator writes words[t][i], and only with `key`: a
          // cancelled outcome with the word still 0 is a stale abort that
          // leaked through as a cancellation of an untargeted task.
          if (words[t][i].load(std::memory_order_seq_cst) != key) {
            untargeted_cancel.store(true);
          }
          cancelled.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }

  std::thread initiator([&] {
    std::mt19937_64 rng(7);
    while (!stop_initiator.load(std::memory_order_acquire)) {
      const int t = static_cast<int>(rng() % kThreads);
      const uint64_t key = published[t].load(std::memory_order_seq_cst);
      if (key != 0) {
        // Production order: word first (so a pre-park check can observe it),
        // then the in-place cell abort. The published key may be stale by the
        // time these land — exactly the delayed-initiator shape under test.
        words[t][(key & 0xffffffff) - 1].store(key, std::memory_order_seq_cst);
        cells[t].TryAbort(key);
      }
    }
  });

  for (std::thread& w : workers) {
    w.join();
  }
  stop_initiator.store(true, std::memory_order_release);
  initiator.join();

  EXPECT_FALSE(exclusion_violated.load());
  EXPECT_FALSE(untargeted_cancel.load());
  EXPECT_TRUE(mu.TryAcquire());  // nothing held, nothing stranded
  mu.Release();
  EXPECT_EQ(mu.waiter_count(), 0u);
  EXPECT_EQ(mu.aborted_waits(), cancelled.load());
}

TEST(SyncStormTest, SemaphoreStormConservesUnits) {
  constexpr uint64_t kCapacity = 3;
  CancellableSemaphore sem(kCapacity);
  std::vector<AbortCell> cells(kThreads);
  // Per-iteration words: see the mutex storm for why this makes the
  // untargeted-cancel oracle sound.
  std::vector<std::vector<std::atomic<uint64_t>>> words(kThreads);
  for (auto& w : words) {
    w = std::vector<std::atomic<uint64_t>>(kIters);
  }
  std::vector<std::atomic<uint64_t>> published(kThreads);
  std::atomic<uint64_t> in_use{0};
  std::atomic<bool> conservation_violated{false};
  std::atomic<bool> untargeted_cancel{false};
  std::atomic<bool> stop_initiator{false};

  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; t++) {
    workers.emplace_back([&, t] {
      std::mt19937_64 rng(static_cast<uint64_t>(t) + 1);
      for (uint64_t i = 0; i < kIters; i++) {
        const uint64_t units = 1 + rng() % kCapacity;
        const uint64_t key = StormKey(t, i);
        CancelSignal signal(&words[t][i], key);
        published[t].store(key, std::memory_order_seq_cst);
        const SyncOutcome out = sem.Acquire(key, units, &cells[t], &signal);
        published[t].store(0, std::memory_order_seq_cst);
        if (out == SyncOutcome::kAcquired) {
          if (in_use.fetch_add(units, std::memory_order_seq_cst) + units > kCapacity) {
            conservation_violated.store(true);
          }
          in_use.fetch_sub(units, std::memory_order_seq_cst);
          sem.Release(units);
        } else if (words[t][i].load(std::memory_order_seq_cst) != key) {
          untargeted_cancel.store(true);
        }
      }
    });
  }

  std::thread initiator([&] {
    std::mt19937_64 rng(11);
    while (!stop_initiator.load(std::memory_order_acquire)) {
      const int t = static_cast<int>(rng() % kThreads);
      const uint64_t key = published[t].load(std::memory_order_seq_cst);
      if (key != 0) {
        words[t][(key & 0xffffffff) - 1].store(key, std::memory_order_seq_cst);
        cells[t].TryAbort(key);
      }
    }
  });

  for (std::thread& w : workers) {
    w.join();
  }
  stop_initiator.store(true, std::memory_order_release);
  initiator.join();

  EXPECT_FALSE(conservation_violated.load());
  EXPECT_FALSE(untargeted_cancel.load());
  // No stranded units: the whole capacity is immediately acquirable.
  EXPECT_EQ(sem.available(), kCapacity);
  EXPECT_TRUE(sem.TryAcquire(kCapacity));
  sem.Release(kCapacity);
  EXPECT_EQ(sem.waiter_count(), 0u);
}

TEST(SyncStormTest, QueueStormResolvesEveryKeyExactlyOnce) {
  constexpr int kProducers = 2;
  constexpr int kConsumers = 2;
  constexpr uint64_t kPerProducer = 2000;
  constexpr uint64_t kTotal = kProducers * kPerProducer;

  AbortableQueue<uint64_t> q(16);
  // Index = producer * kPerProducer + iter; value = times resolved.
  std::vector<std::atomic<uint32_t>> resolved(kTotal);
  // kAborted acknowledgements are binding: the popper must observe the mark.
  std::vector<std::atomic<uint8_t>> abort_acked(kTotal);
  std::vector<std::atomic<uint8_t>> popped_aborted(kTotal);
  std::atomic<uint64_t> last_pushed{0};  // a recently-live key for the aborter
  std::atomic<bool> producers_done{false};

  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; p++) {
    producers.emplace_back([&, p] {
      for (uint64_t i = 0; i < kPerProducer; i++) {
        const uint64_t index = static_cast<uint64_t>(p) * kPerProducer + i;
        const uint64_t key = index + 1;  // nonzero
        while (!q.Push(index, key)) {
          std::this_thread::yield();  // full: retry until accepted
        }
        last_pushed.store(key, std::memory_order_seq_cst);
      }
    });
  }

  std::vector<std::thread> consumers;
  for (int c = 0; c < kConsumers; c++) {
    consumers.emplace_back([&] {
      while (true) {
        AbortableQueue<uint64_t>::Popped popped = q.Pop();
        if (popped.status == AbortableQueue<uint64_t>::PopStatus::kClosed) {
          return;
        }
        if (popped.status == AbortableQueue<uint64_t>::PopStatus::kAborted) {
          popped_aborted[popped.item].store(1, std::memory_order_seq_cst);
        }
        resolved[popped.item].fetch_add(1, std::memory_order_relaxed);
      }
    });
  }

  std::thread aborter([&] {
    std::mt19937_64 rng(23);
    while (!producers_done.load(std::memory_order_acquire)) {
      const uint64_t key = last_pushed.load(std::memory_order_seq_cst);
      if (key != 0 && rng() % 4 == 0) {
        // Races the consumers' pops. kRaced / kMiss are allowed resolutions;
        // kAborted is an acknowledgement the popper is guaranteed to honor.
        if (q.AbortKey(key) == AbortableQueue<uint64_t>::AbortResult::kAborted) {
          abort_acked[key - 1].store(1, std::memory_order_seq_cst);
        }
      }
    }
  });

  for (std::thread& p : producers) {
    p.join();
  }
  producers_done.store(true, std::memory_order_release);
  aborter.join();

  // Let the consumers drain, then close; anything left resolves as drained.
  while (q.size() > 0) {
    std::this_thread::yield();
  }
  std::vector<uint64_t> drained = q.CloseAndDrain();
  for (std::thread& c : consumers) {
    c.join();
  }
  for (uint64_t index : drained) {
    resolved[index].fetch_add(1, std::memory_order_relaxed);
  }

  for (uint64_t i = 0; i < kTotal; i++) {
    ASSERT_EQ(resolved[i].load(), 1u) << "key index " << i;
    // No lost cancels: every abort the queue acknowledged as kAborted was
    // observed by the popper (the REVIEW.md race returned true while the
    // consumer executed the item normally).
    if (abort_acked[i].load() != 0) {
      ASSERT_EQ(popped_aborted[i].load(), 1u) << "acked abort lost for key index " << i;
    }
  }
}

}  // namespace
}  // namespace atropos
