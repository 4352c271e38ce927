// Blocking synchronization primitives for simulated tasks.
//
// All primitives are strictly FIFO — the property that produces real lock
// convoys (a queued exclusive request blocks all later shared requests), which
// is the mechanism behind several of the paper's overload cases (c1, c4, c14).
// Every blocking operation accepts an optional CancelToken so Atropos
// cancellation can abort a wait in progress.
//
// Cancellation is CQS's smart mode (PAPERS.md): a cancelled node is unlinked
// eagerly — it lives in the cancelled coroutine's frame, which resumes and may
// unwind, so leaving it linked would dangle — and the grant chain is repaired
// at cancellation time, so requests the cancelled waiter was blocking are
// granted without waiting for the next release.

#ifndef SRC_SIM_SYNC_H_
#define SRC_SIM_SYNC_H_

#include <cstdint>

#include "src/common/status.h"
#include "src/sim/cancel.h"
#include "src/sim/executor.h"
#include "src/sim/wait.h"

namespace atropos {

// One-shot broadcast event. Wait() parks until Set(); once set, waits complete
// immediately.
class SimEvent final : public WaiterOwner {
 public:
  explicit SimEvent(Executor& executor) : executor_(executor) {}

  class Waiter {
   public:
    Waiter(SimEvent& event, CancelToken* token) : event_(event), token_(token) {}
    bool await_ready();
    void await_suspend(std::coroutine_handle<> h);
    Status await_resume() { return node_.result; }

   private:
    SimEvent& event_;
    CancelToken* token_;
    WaitNode node_;
  };

  // co_await event.Wait() -> Status (kOk once set, kCancelled if aborted).
  Waiter Wait(CancelToken* token = nullptr) { return Waiter(*this, token); }

  void Set();
  bool is_set() const { return set_; }
  void ResetForReuse() { set_ = false; }

  void CancelWaiter(WaitNode& node) override;

 private:
  friend class Waiter;
  void CompleteNode(WaitNode* node, Status status);

  Executor& executor_;
  bool set_ = false;
  WaitList waiters_;
};

// FIFO mutex.
class SimMutex final : public WaiterOwner {
 public:
  explicit SimMutex(Executor& executor) : executor_(executor) {}

  class Acquirer {
   public:
    Acquirer(SimMutex& mutex, CancelToken* token) : mutex_(mutex), token_(token) {}
    bool await_ready();
    void await_suspend(std::coroutine_handle<> h);
    Status await_resume() { return node_.result; }

   private:
    SimMutex& mutex_;
    CancelToken* token_;
    WaitNode node_;
  };

  Acquirer Acquire(CancelToken* token = nullptr) { return Acquirer(*this, token); }
  void Release();

  bool held() const { return held_; }
  size_t waiter_count() const { return waiters_.size(); }

  void CancelWaiter(WaitNode& node) override;

 private:
  friend class Acquirer;
  void CompleteNode(WaitNode* node, Status status);

  Executor& executor_;
  bool held_ = false;
  WaitList waiters_;
};

// Counting semaphore with multi-unit FIFO acquire. Used for InnoDB-style
// concurrency tickets, worker pools, memory-pool admission, and the
// concurrency limits that DARC reservations and PARTIES shares adjust.
class SimSemaphore final : public WaiterOwner {
 public:
  SimSemaphore(Executor& executor, uint64_t capacity)
      : executor_(executor), capacity_(capacity) {}

  class Acquirer {
   public:
    Acquirer(SimSemaphore& sem, uint64_t units, CancelToken* token)
        : sem_(sem), units_(units), token_(token) {}
    bool await_ready();
    void await_suspend(std::coroutine_handle<> h);
    Status await_resume() { return node_.result; }

   private:
    SimSemaphore& sem_;
    uint64_t units_;
    CancelToken* token_;
    WaitNode node_;
  };

  Acquirer Acquire(uint64_t units = 1, CancelToken* token = nullptr) {
    return Acquirer(*this, units, token);
  }
  // Non-blocking variant; returns false without side effects if it would block.
  bool TryAcquire(uint64_t units = 1);
  void Release(uint64_t units = 1);
  // Raising the capacity grants waiting requests at once; lowering it below
  // the units in use takes effect as holders release.
  void SetCapacity(uint64_t capacity);

  uint64_t available() const { return in_use_ < capacity_ ? capacity_ - in_use_ : 0; }
  uint64_t capacity() const { return capacity_; }
  size_t waiter_count() const { return waiters_.size(); }

  void CancelWaiter(WaitNode& node) override;

 private:
  friend class Acquirer;
  void GrantWaiters();
  void CompleteNode(WaitNode* node, Status status);

  Executor& executor_;
  uint64_t capacity_;
  uint64_t in_use_ = 0;
  WaitList waiters_;
};

// FIFO reader-writer lock with convoy semantics: requests are granted strictly
// in arrival order; consecutive readers at the head are granted together.
class SimRwLock final : public WaiterOwner {
 public:
  explicit SimRwLock(Executor& executor) : executor_(executor) {}

  static constexpr int kReader = 1;
  static constexpr int kWriter = 2;

  class Acquirer {
   public:
    Acquirer(SimRwLock& lock, int mode, CancelToken* token)
        : lock_(lock), mode_(mode), token_(token) {}
    bool await_ready();
    void await_suspend(std::coroutine_handle<> h);
    Status await_resume() { return node_.result; }

   private:
    SimRwLock& lock_;
    int mode_;
    CancelToken* token_;
    WaitNode node_;
  };

  Acquirer AcquireShared(CancelToken* token = nullptr) { return Acquirer(*this, kReader, token); }
  Acquirer AcquireExclusive(CancelToken* token = nullptr) { return Acquirer(*this, kWriter, token); }
  void ReleaseShared();
  void ReleaseExclusive();

  int active_readers() const { return active_readers_; }
  bool writer_held() const { return writer_held_; }
  size_t waiter_count() const { return waiters_.size(); }
  // True if the next queued request (if any) is exclusive — i.e. a convoy is
  // forming behind a writer.
  bool writer_queued() const { return !waiters_.empty() && waiters_.front()->tag == kWriter; }

  void CancelWaiter(WaitNode& node) override;

 private:
  friend class Acquirer;
  void GrantWaiters();
  void CompleteNode(WaitNode* node, Status status);

  Executor& executor_;
  int active_readers_ = 0;
  bool writer_held_ = false;
  WaitList waiters_;
};

}  // namespace atropos

#endif  // SRC_SIM_SYNC_H_
