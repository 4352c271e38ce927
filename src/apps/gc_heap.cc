#include "src/apps/gc_heap.h"

namespace atropos {

Task<Status> GcHeap::Allocate(uint64_t key, uint64_t kb, CancelToken* token) {
  if (token != nullptr && token->cancelled()) {
    co_return Status::Cancelled("allocation cancelled at checkpoint");
  }
  // Stop-the-world: allocations stall while a GC is running.
  while (gc_running_) {
    std::shared_ptr<SimEvent> done = gc_done_;
    if (tracer_ != nullptr) {
      tracer_->OnWaitBegin(key, resource_);
    }
    Status s = co_await done->Wait(token);
    if (tracer_ != nullptr) {
      tracer_->OnWaitEnd(key, resource_);
    }
    if (!s.ok()) {
      co_return s;
    }
  }

  co_await Delay{executor_, options_.alloc_cost_per_mb * (kb / 1024 + 1)};
  usage_kb_ += kb;
  live_kb_ += kb;
  live_by_key_[key] += kb;
  if (tracer_ != nullptr) {
    tracer_->OnGet(key, resource_, kb);
  }

  auto threshold = static_cast<uint64_t>(options_.gc_threshold *
                                         static_cast<double>(options_.capacity_kb));
  if (usage_kb_ > threshold && !gc_running_) {
    RunGc();
  }
  co_return Status::Ok();
}

void GcHeap::Free(uint64_t key, uint64_t kb) {
  auto it = live_by_key_.find(key);
  if (it == live_by_key_.end()) {
    return;
  }
  uint64_t freed = kb < it->second ? kb : it->second;
  it->second -= freed;
  if (it->second == 0) {
    live_by_key_.erase(it);
  }
  live_kb_ -= freed;
  if (tracer_ != nullptr) {
    tracer_->OnFree(key, resource_, freed);
  }
  // usage_kb_ keeps the garbage until the next GC cycle.
}

Coro GcHeap::RunGc() {
  co_await BindExecutor{executor_};
  gc_running_ = true;
  gc_done_ = std::make_shared<SimEvent>(executor_);
  TimeMicros pause =
      options_.gc_pause_base + options_.gc_pause_per_mb_live * (live_kb_ / 1024);
  co_await Delay{executor_, pause};
  usage_kb_ = live_kb_;  // garbage reclaimed
  gc_cycles_++;
  gc_running_ = false;
  gc_done_->Set();
}

}  // namespace atropos
