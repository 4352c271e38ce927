// Cancellation tokens for simulated tasks.
//
// A CancelToken is the simulation-side analogue of an application's
// cancellation flag (the pattern §2.4 of the paper observes in 76% of studied
// applications): the cancellation initiator sets it, the task observes it at
// safe checkpoints, and any waits the task is currently blocked in are aborted
// with StatusCode::kCancelled.

#ifndef SRC_SIM_CANCEL_H_
#define SRC_SIM_CANCEL_H_

#include <cstdint>
#include <vector>

#include "src/sim/executor.h"
#include "src/sim/wait.h"

namespace atropos {

class CancelToken {
 public:
  explicit CancelToken(Executor& executor) : executor_(executor) {}
  CancelToken(const CancelToken&) = delete;
  CancelToken& operator=(const CancelToken&) = delete;

  // Sets the cancelled flag and aborts every registered wait. Idempotent
  // within one cancellation epoch.
  void Cancel() {
    if (cancelled_) {
      return;
    }
    cancelled_ = true;
    cancel_count_++;
    // Detach first: CancelWaiter may trigger grant logic that touches tokens.
    std::vector<WaitNode*> waiters;
    waiters.swap(waiters_);
    for (WaitNode* node : waiters) {
      node->token = nullptr;
      node->owner->CancelWaiter(*node);
    }
  }

  bool cancelled() const { return cancelled_; }

  // Number of times this token has been cancelled across epochs. Atropos'
  // fairness rule ("each task can be canceled at most once", §4) reads this.
  uint64_t cancel_count() const { return cancel_count_; }

  // Clears the flag so the task can be re-executed (§4 re-execution).
  void Reset() { cancelled_ = false; }

  // Returns a recycled token to its freshly constructed state: not cancelled,
  // never counted, no waiters. The waiter list keeps its capacity, so a
  // pooled token registers its waits without allocating.
  void Rearm() {
    cancelled_ = false;
    cancel_count_ = 0;
    waiters_.clear();
  }

  Executor& executor() { return executor_; }

  // Waits currently registered (aborted by the next Cancel()).
  size_t waiter_count() const { return waiters_.size(); }

  // Wait registration — called by primitives, not by applications.
  void Register(WaitNode* node) { waiters_.push_back(node); }
  void Unregister(WaitNode* node) {
    for (size_t i = 0; i < waiters_.size(); i++) {
      if (waiters_[i] == node) {
        waiters_[i] = waiters_.back();
        waiters_.pop_back();
        return;
      }
    }
  }

 private:
  Executor& executor_;
  bool cancelled_ = false;
  uint64_t cancel_count_ = 0;
  std::vector<WaitNode*> waiters_;
};

}  // namespace atropos

#endif  // SRC_SIM_CANCEL_H_
