#include "src/sim/sync.h"

namespace atropos {

namespace {
// Completes a parked node outside of its wait list: detaches it from its
// token, records the status, and schedules the resume at the current virtual
// time (never inline, to avoid re-entrancy into primitive state).
void FinishNode(Executor& executor, WaitNode* node, Status status) {
  if (node->token != nullptr) {
    node->token->Unregister(node);
    node->token = nullptr;
  }
  node->result = std::move(status);
  executor.ResumeAfter(0, node->handle);
}
}  // namespace

// ---------------------------------------------------------------------------
// SimEvent

bool SimEvent::Waiter::await_ready() {
  if (token_ != nullptr && token_->cancelled()) {
    node_.result = Status::Cancelled("wait aborted before suspend");
    return true;
  }
  if (event_.set_) {
    node_.result = Status::Ok();
    return true;
  }
  return false;
}

void SimEvent::Waiter::await_suspend(std::coroutine_handle<> h) {
  node_.handle = h;
  node_.owner = &event_;
  node_.token = token_;
  event_.waiters_.PushBack(&node_);
  if (token_ != nullptr) {
    token_->Register(&node_);
  }
}

void SimEvent::Set() {
  if (set_) {
    return;
  }
  set_ = true;
  while (WaitNode* node = waiters_.PopFront()) {
    CompleteNode(node, Status::Ok());
  }
}

void SimEvent::CancelWaiter(WaitNode& node) {
  waiters_.Remove(&node);
  CompleteNode(&node, Status::Cancelled("event wait cancelled"));
}

void SimEvent::CompleteNode(WaitNode* node, Status status) {
  FinishNode(executor_, node, std::move(status));
}

// ---------------------------------------------------------------------------
// SimMutex

bool SimMutex::Acquirer::await_ready() {
  if (token_ != nullptr && token_->cancelled()) {
    node_.result = Status::Cancelled("mutex acquire aborted before suspend");
    return true;
  }
  if (!mutex_.held_ && mutex_.waiters_.empty()) {
    mutex_.held_ = true;
    node_.result = Status::Ok();
    return true;
  }
  return false;
}

void SimMutex::Acquirer::await_suspend(std::coroutine_handle<> h) {
  node_.handle = h;
  node_.owner = &mutex_;
  node_.token = token_;
  mutex_.waiters_.PushBack(&node_);
  if (token_ != nullptr) {
    token_->Register(&node_);
  }
}

void SimMutex::Release() {
  WaitNode* next = waiters_.PopFront();
  if (next == nullptr) {
    held_ = false;
    return;
  }
  // Hand the lock directly to the next waiter (still held).
  CompleteNode(next, Status::Ok());
}

void SimMutex::CancelWaiter(WaitNode& node) {
  waiters_.Remove(&node);
  CompleteNode(&node, Status::Cancelled("mutex wait cancelled"));
}

void SimMutex::CompleteNode(WaitNode* node, Status status) {
  FinishNode(executor_, node, std::move(status));
}

// ---------------------------------------------------------------------------
// SimSemaphore

bool SimSemaphore::Acquirer::await_ready() {
  if (token_ != nullptr && token_->cancelled()) {
    node_.result = Status::Cancelled("semaphore acquire aborted before suspend");
    return true;
  }
  if (sem_.waiters_.empty() && sem_.available() >= units_) {
    sem_.in_use_ += units_;
    node_.result = Status::Ok();
    return true;
  }
  return false;
}

void SimSemaphore::Acquirer::await_suspend(std::coroutine_handle<> h) {
  node_.handle = h;
  node_.owner = &sem_;
  node_.token = token_;
  node_.amount = units_;
  sem_.waiters_.PushBack(&node_);
  if (token_ != nullptr) {
    token_->Register(&node_);
  }
}

bool SimSemaphore::TryAcquire(uint64_t units) {
  if (waiters_.empty() && available() >= units) {
    in_use_ += units;
    return true;
  }
  return false;
}

void SimSemaphore::Release(uint64_t units) {
  in_use_ -= units;
  GrantWaiters();
}

void SimSemaphore::SetCapacity(uint64_t capacity) {
  capacity_ = capacity;
  GrantWaiters();
}

void SimSemaphore::GrantWaiters() {
  while (!waiters_.empty() && waiters_.front()->amount <= available()) {
    WaitNode* node = waiters_.PopFront();
    in_use_ += node->amount;
    CompleteNode(node, Status::Ok());
  }
}

void SimSemaphore::CancelWaiter(WaitNode& node) {
  waiters_.Remove(&node);
  CompleteNode(&node, Status::Cancelled("semaphore wait cancelled"));
  // The removed head may have been blocking smaller requests behind it.
  GrantWaiters();
}

void SimSemaphore::CompleteNode(WaitNode* node, Status status) {
  FinishNode(executor_, node, std::move(status));
}

// ---------------------------------------------------------------------------
// SimRwLock

bool SimRwLock::Acquirer::await_ready() {
  if (token_ != nullptr && token_->cancelled()) {
    node_.result = Status::Cancelled("rwlock acquire aborted before suspend");
    return true;
  }
  if (!lock_.waiters_.empty()) {
    return false;  // strict FIFO: never jump the queue
  }
  if (mode_ == kReader) {
    if (!lock_.writer_held_) {
      lock_.active_readers_++;
      node_.result = Status::Ok();
      return true;
    }
  } else {
    if (!lock_.writer_held_ && lock_.active_readers_ == 0) {
      lock_.writer_held_ = true;
      node_.result = Status::Ok();
      return true;
    }
  }
  return false;
}

void SimRwLock::Acquirer::await_suspend(std::coroutine_handle<> h) {
  node_.handle = h;
  node_.owner = &lock_;
  node_.token = token_;
  node_.tag = mode_;
  lock_.waiters_.PushBack(&node_);
  if (token_ != nullptr) {
    token_->Register(&node_);
  }
}

void SimRwLock::ReleaseShared() {
  active_readers_--;
  GrantWaiters();
}

void SimRwLock::ReleaseExclusive() {
  writer_held_ = false;
  GrantWaiters();
}

void SimRwLock::GrantWaiters() {
  // Grant strictly from the head: a batch of consecutive readers, or a single
  // writer once the lock is free.
  while (!waiters_.empty()) {
    WaitNode* front = waiters_.front();
    if (front->tag == kReader) {
      if (writer_held_) {
        return;
      }
      waiters_.Remove(front);
      active_readers_++;
      CompleteNode(front, Status::Ok());
    } else {
      if (writer_held_ || active_readers_ > 0) {
        return;
      }
      waiters_.Remove(front);
      writer_held_ = true;
      CompleteNode(front, Status::Ok());
      return;
    }
  }
}

void SimRwLock::CancelWaiter(WaitNode& node) {
  waiters_.Remove(&node);
  CompleteNode(&node, Status::Cancelled("rwlock wait cancelled"));
  // Removing a queued writer can unblock the readers queued behind it.
  GrantWaiters();
}

void SimRwLock::CompleteNode(WaitNode* node, Status status) {
  FinishNode(executor_, node, std::move(status));
}

}  // namespace atropos
