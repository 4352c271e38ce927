// CancellableSemaphore: strict-FIFO counting semaphore for real OS threads
// with CQS-style abortable waits (src/sync/abort_cell.h, DESIGN.md §16).
//
// Cancellation is CQS's smart mode: a cancelled multi-unit waiter at the head
// of the queue may be the only thing blocking smaller requests behind it, so
// the cancelling waiter re-runs the grant pass as it unlinks, transferring the
// head position to the next eligible waiter without waiting for a Release.
//
// Invariants (checked by the sync storm tests):
//   - unit conservation: available + units held by granted-and-not-released
//     acquirers == capacity, always;
//   - a cancelled waiter never acquires (the cell CAS linearizes grant vs
//     cancel);
//   - no lost wakeups: every Acquire returns;
//   - no stranded units: after a release, every eligible waiter by FIFO order
//     is granted (cancelled cells cannot block the chain).

#ifndef SRC_SYNC_CANCELLABLE_SEMAPHORE_H_
#define SRC_SYNC_CANCELLABLE_SEMAPHORE_H_

#include <atomic>
#include <cstdint>
#include <mutex>

#include "src/common/thread_annotations.h"
#include "src/sync/abort_cell.h"
#include "src/sync/cancellable_mutex.h"  // SyncOutcome

namespace atropos {

class CancellableSemaphore {
 public:
  explicit CancellableSemaphore(uint64_t capacity) : capacity_(capacity), available_(capacity) {}

  CancellableSemaphore(const CancellableSemaphore&) = delete;
  CancellableSemaphore& operator=(const CancellableSemaphore&) = delete;

  // Acquires `units` for task `key`, FIFO. Same cell/signal contract as
  // CancellableMutex::Acquire.
  SyncOutcome Acquire(uint64_t key, uint64_t units, AbortCell* cell, const CancelSignal* signal);

  // Non-blocking; strict FIFO (fails while anyone is queued).
  bool TryAcquire(uint64_t units = 1);
  void Release(uint64_t units = 1);

  uint64_t capacity() const { return capacity_; }
  uint64_t available();
  size_t waiter_count();

  uint64_t aborted_waits() const { return aborted_waits_.load(std::memory_order_relaxed); }
  // Stale aborts re-entered instead of surfacing as cancellations (see
  // CancellableMutex::spurious_aborts and the abort_cell.h protocol).
  uint64_t spurious_aborts() const { return spurious_aborts_.load(std::memory_order_relaxed); }

 private:
  // Grants from the head while units fit, skipping cancelled cells.
  void GrantLocked() ATROPOS_REQUIRES(mu_);

  const uint64_t capacity_;
  std::mutex mu_;
  uint64_t available_ ATROPOS_GUARDED_BY(mu_);
  CellList waiters_ ATROPOS_GUARDED_BY(mu_);

  std::atomic<uint64_t> aborted_waits_{0};
  std::atomic<uint64_t> spurious_aborts_{0};
};

}  // namespace atropos

#endif  // SRC_SYNC_CANCELLABLE_SEMAPHORE_H_
