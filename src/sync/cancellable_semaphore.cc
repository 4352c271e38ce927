#include "src/sync/cancellable_semaphore.h"

namespace atropos {

SyncOutcome CancellableSemaphore::Acquire(uint64_t key, uint64_t units, AbortCell* cell,
                                          const CancelSignal* signal) {
  if (signal != nullptr && signal->Raised()) {
    aborted_waits_.fetch_add(1, std::memory_order_relaxed);
    return SyncOutcome::kCancelled;
  }

  AbortCell local;
  AbortCell* c = cell != nullptr ? cell : &local;

  while (true) {
    {
      std::unique_lock<std::mutex> lk(mu_);
      if (waiters_.empty() && available_ >= units) {
        available_ -= units;
        return SyncOutcome::kAcquired;
      }
      c->BeginWait(key, units);
      waiters_.PushBack(c);
      // Dekker re-check (abort_cell.h): see the cancel word the initiator may
      // have stored before our wait_key was visible.
      if (signal != nullptr && signal->Raised()) {
        c->CancelSelf();
        waiters_.Remove(c);  // we are the tail; removal can't unblock anyone
        c->EndWait();
        aborted_waits_.fetch_add(1, std::memory_order_relaxed);
        return SyncOutcome::kCancelled;
      }
    }

    c->Park();

    if (c->state() == AbortCell::kGranted) {
      // The granter already debited available_ and unlinked the cell.
      c->EndWait();
      return SyncOutcome::kAcquired;
    }

    // Aborted in place: unlink and transfer the grant — a cancelled
    // multi-unit head may have been the only thing blocking smaller requests
    // behind it.
    {
      std::lock_guard<std::mutex> lk(mu_);
      waiters_.Remove(c);
      GrantLocked();
    }
    c->EndWait();

    // Stale-abort validation (abort_cell.h): a kCancelled wake whose keyed
    // signal is not raised means a delayed TryAbort aimed at a previous
    // occupant of this recycled cell hit our wait. Re-enter — the grant pass
    // above already repaired the chain past us, so re-queueing is safe.
    if (signal != nullptr && !signal->Raised()) {
      spurious_aborts_.fetch_add(1, std::memory_order_relaxed);
      continue;
    }
    aborted_waits_.fetch_add(1, std::memory_order_relaxed);
    return SyncOutcome::kCancelled;
  }
}

bool CancellableSemaphore::TryAcquire(uint64_t units) {
  std::lock_guard<std::mutex> lk(mu_);
  if (!waiters_.empty() || available_ < units) {
    return false;
  }
  available_ -= units;
  return true;
}

void CancellableSemaphore::Release(uint64_t units) {
  std::lock_guard<std::mutex> lk(mu_);
  available_ += units;
  GrantLocked();
}

void CancellableSemaphore::GrantLocked() {
  while (AbortCell* head = waiters_.front()) {
    if (head->state() == AbortCell::kCancelled) {
      // The waiter was aborted but has not unlinked itself yet; it wakes,
      // finds itself unlinked, and returns kCancelled. Skipping it here is
      // what keeps a cancelled cell from stranding the units behind it.
      waiters_.Remove(head);
      continue;
    }
    if (head->amount() > available_) {
      return;  // strict FIFO: nobody barges past an unsatisfiable head
    }
    // Unlink before the grant CAS: the moment TryGrant succeeds the waiter
    // may wake, retract the cell, and reuse it elsewhere — it must already
    // be off this list by then.
    const uint64_t units = head->amount();
    waiters_.Remove(head);
    if (head->TryGrant()) {
      available_ -= units;
    }
    // else: aborted between the state check and the CAS; it wakes unlinked.
  }
}

uint64_t CancellableSemaphore::available() {
  std::lock_guard<std::mutex> lk(mu_);
  return available_;
}

size_t CancellableSemaphore::waiter_count() {
  std::lock_guard<std::mutex> lk(mu_);
  return waiters_.size();
}

}  // namespace atropos
