// CancellableMutex: a strict-FIFO mutex for real OS threads whose waiters can
// be aborted *in place* by a lock-free initiator (CQS-style abortable
// synchronization; see src/sync/abort_cell.h for the protocol and DESIGN.md
// §16 for the layer).
//
// Without abortable waits, a cancelled task parked on the keyspace lock keeps
// its victims waiting until it wins the lock and reaches its next checkpoint:
// cancellation latency is O(time-to-next-checkpoint). Here the initiator's
// AbortCell::TryAbort CASes the parked waiter's cell to kCancelled and wakes
// it; the waiter unlinks itself and returns kCancelled without ever holding
// the lock.
//
// The internal std::mutex mu_ is a bounded leaf lock: it guards only the wait
// list and the held bit, is only ever taken by waiters and releasers (never
// by the cancellation initiator), and no other lock is acquired under it.

#ifndef SRC_SYNC_CANCELLABLE_MUTEX_H_
#define SRC_SYNC_CANCELLABLE_MUTEX_H_

#include <atomic>
#include <cstdint>
#include <mutex>

#include "src/common/thread_annotations.h"
#include "src/sync/abort_cell.h"

namespace atropos {

enum class SyncOutcome {
  kAcquired = 0,
  kCancelled = 1,
};

class CancellableMutex {
 public:
  CancellableMutex() = default;

  CancellableMutex(const CancellableMutex&) = delete;
  CancellableMutex& operator=(const CancellableMutex&) = delete;

  // Acquires for task `key`. `cell` hosts the parked wait and makes it
  // abortable (null: the wait is uninterruptible — the checkpoint-polling
  // baseline). `signal` is re-checked after enqueue so a cancellation racing
  // the park is never lost; a raised signal aborts without acquiring. A wake
  // in the cancelled state with `signal` NOT raised is a stale TryAbort that
  // landed on this recycled cell (abort_cell.h): the waiter re-enters the
  // wait instead of reporting a cancellation it was never addressed.
  SyncOutcome Acquire(uint64_t key, AbortCell* cell, const CancelSignal* signal);

  // Plain blocking acquire (no cancellation surface).
  void Acquire() { Acquire(0, nullptr, nullptr); }

  bool TryAcquire();
  void Release();

  size_t waiter_count();
  bool held();

  // Waits aborted in place (initiator CAS or pre-park self-abort). A value
  // greater than zero under a convoy is the direct evidence that cancelled
  // waiters left the queue without acquiring.
  uint64_t aborted_waits() const { return aborted_waits_.load(std::memory_order_relaxed); }
  uint64_t contended_acquires() const { return contended_.load(std::memory_order_relaxed); }
  // Stale aborts that landed on a recycled cell and were re-entered instead
  // of surfacing as cancellations (expected to be rare; never user-visible).
  uint64_t spurious_aborts() const { return spurious_aborts_.load(std::memory_order_relaxed); }

 private:
  std::mutex mu_;
  bool held_ ATROPOS_GUARDED_BY(mu_) = false;
  CellList waiters_ ATROPOS_GUARDED_BY(mu_);

  std::atomic<uint64_t> aborted_waits_{0};
  std::atomic<uint64_t> contended_{0};
  std::atomic<uint64_t> spurious_aborts_{0};
};

}  // namespace atropos

#endif  // SRC_SYNC_CANCELLABLE_MUTEX_H_
