#include "src/atropos/instrument.h"

#include "src/atropos/runtime.h"

namespace atropos {

namespace {
// Brackets a blocking acquire with wait tracing; only emits the wait pair if
// the acquire would actually block, mirroring how real instrumentation wraps
// the slow path (Fig 8 places slowByResource on the eviction path only).
template <typename Awaitable>
Task<Status> TracedAcquire(OverloadController* tracer, ResourceId resource, uint64_t key,
                           bool will_block, Awaitable awaitable) {
  if (tracer != nullptr && will_block) {
    tracer->OnWaitBegin(key, resource);
  }
  Status s = co_await std::move(awaitable);
  if (tracer != nullptr && will_block) {
    tracer->OnWaitEnd(key, resource);
  }
  if (s.ok() && tracer != nullptr) {
    tracer->OnGet(key, resource, 1);
  }
  co_return s;
}
}  // namespace

Task<Status> InstrumentedRwLock::AcquireShared(uint64_t key, CancelToken* token) {
  bool will_block = lock_.writer_held() || lock_.waiter_count() > 0;
  return TracedAcquire(tracer_, resource_, key, will_block, lock_.AcquireShared(token));
}

Task<Status> InstrumentedRwLock::AcquireExclusive(uint64_t key, CancelToken* token) {
  bool will_block =
      lock_.writer_held() || lock_.active_readers() > 0 || lock_.waiter_count() > 0;
  return TracedAcquire(tracer_, resource_, key, will_block, lock_.AcquireExclusive(token));
}

void InstrumentedRwLock::ReleaseShared(uint64_t key) {
  lock_.ReleaseShared();
  if (tracer_ != nullptr) {
    tracer_->OnFree(key, resource_, 1);
  }
}

void InstrumentedRwLock::ReleaseExclusive(uint64_t key) {
  lock_.ReleaseExclusive();
  if (tracer_ != nullptr) {
    tracer_->OnFree(key, resource_, 1);
  }
}

Task<Status> InstrumentedMutex::Acquire(uint64_t key, CancelToken* token) {
  bool will_block = lock_.held() || lock_.waiter_count() > 0;
  return TracedAcquire(tracer_, resource_, key, will_block, lock_.Acquire(token));
}

void InstrumentedMutex::Release(uint64_t key) {
  lock_.Release();
  if (tracer_ != nullptr) {
    tracer_->OnFree(key, resource_, 1);
  }
}

Task<Status> InstrumentedSemaphore::Acquire(uint64_t key, CancelToken* token, uint64_t units) {
  bool will_block = sem_.available() < units || sem_.waiter_count() > 0;
  return TracedAcquire(tracer_, resource_, key, will_block, sem_.Acquire(units, token));
}

void InstrumentedSemaphore::Release(uint64_t key, uint64_t units) {
  sem_.Release(units);
  if (tracer_ != nullptr) {
    tracer_->OnFree(key, resource_, units);
  }
}

void UsageReporter::OnUsage(TimeMicros waited, TimeMicros used) {
  if (tracer_ == nullptr) {
    return;
  }
  // One kUsage event with both durations: every controller, and forwarding
  // wrappers (the fuzz harness's audit controller), see the magnitudes.
  tracer_->OnUsage(key_, resource_, waited, used);
}

bool AdjustableLimiter::Acquirer::await_ready() {
  if (token_ != nullptr && token_->cancelled()) {
    node_.result = Status::Cancelled("limiter acquire aborted before suspend");
    return true;
  }
  if (limiter_.waiters_.empty() && limiter_.in_use_ < limiter_.limit_) {
    limiter_.in_use_++;
    node_.result = Status::Ok();
    return true;
  }
  return false;
}

void AdjustableLimiter::Acquirer::await_suspend(std::coroutine_handle<> h) {
  node_.handle = h;
  node_.owner = &limiter_;
  node_.token = token_;
  limiter_.waiters_.PushBack(&node_);
  if (token_ != nullptr) {
    token_->Register(&node_);
  }
}

Task<Status> AdjustableLimiter::Acquire(uint64_t key, CancelToken* token) {
  bool will_block = in_use_ >= limit_ || !waiters_.empty();
  if (tracer_ != nullptr && will_block) {
    tracer_->OnWaitBegin(key, resource_);
  }
  Status s = co_await Acquirer(*this, token);
  if (tracer_ != nullptr && will_block) {
    tracer_->OnWaitEnd(key, resource_);
  }
  if (s.ok() && tracer_ != nullptr) {
    tracer_->OnGet(key, resource_, 1);
  }
  co_return s;
}

void AdjustableLimiter::Release(uint64_t key) {
  in_use_--;
  if (tracer_ != nullptr) {
    tracer_->OnFree(key, resource_, 1);
  }
  GrantWaiters();
}

void AdjustableLimiter::SetLimit(int64_t limit) {
  limit_ = limit;
  GrantWaiters();
}

void AdjustableLimiter::GrantWaiters() {
  while (!waiters_.empty() && in_use_ < limit_) {
    WaitNode* node = waiters_.PopFront();
    in_use_++;
    if (node->token != nullptr) {
      node->token->Unregister(node);
      node->token = nullptr;
    }
    node->result = Status::Ok();
    executor_.ResumeAfter(0, node->handle);
  }
}

void AdjustableLimiter::CancelWaiter(WaitNode& node) {
  waiters_.Remove(&node);
  if (node.token != nullptr) {
    node.token->Unregister(&node);
    node.token = nullptr;
  }
  node.result = Status::Cancelled("limiter wait cancelled");
  executor_.ResumeAfter(0, node.handle);
}

}  // namespace atropos
