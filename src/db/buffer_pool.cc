#include "src/db/buffer_pool.h"

#include "src/sim/coro.h"

namespace atropos {

void BufferPool::PushFront(uint32_t f) {
  frames_[f].prev = kNil;
  frames_[f].next = mru_;
  if (mru_ != kNil) {
    frames_[mru_].prev = f;
  } else {
    lru_ = f;
  }
  mru_ = f;
}

void BufferPool::Unlink(uint32_t f) {
  const uint32_t prev = frames_[f].prev;
  const uint32_t next = frames_[f].next;
  if (prev != kNil) {
    frames_[prev].next = next;
  } else {
    mru_ = next;
  }
  if (next != kNil) {
    frames_[next].prev = prev;
  } else {
    lru_ = prev;
  }
}

Task<PageAccess> BufferPool::Access(uint64_t key, uint64_t page_id, bool write,
                                    CancelToken* token) {
  PageAccess out;
  if (token != nullptr && token->cancelled()) {
    out.status = Status::Cancelled("page access cancelled at checkpoint");
    co_return out;
  }

  if (const uint32_t f = page_index_.Find(page_id); f != kNil) {
    // Hit: touch LRU, pay the in-memory cost.
    hits_++;
    out.hit = true;
    Touch(f);
    if (write) {
      frames_[f].dirty = true;
    }
    co_await Delay{executor_, options_.hit_cost};
    out.status = Status::Ok();
    co_return out;
  }

  // Miss. The admission gate bounds concurrent evict-and-read sections; a
  // task cancelled while parked here is aborted in place — it never takes a
  // slot, so it cannot lengthen the miss convoy it was queued behind.
  misses_++;
  if (admission_ != nullptr) {
    Status admitted = co_await admission_->Acquire(1, token);
    if (!admitted.ok()) {
      admission_aborts_++;
      out.status = std::move(admitted);
      co_return out;
    }
  }

  // Make room first so the capacity invariant holds across the awaits.
  if (page_index_.size() >= options_.capacity_pages && lru_ != kNil) {
    const uint32_t victim = lru_;
    bool dirty = frames_[victim].dirty;
    uint64_t owner = frames_[victim].owner_key;
    Unlink(victim);
    page_index_.Erase(frames_[victim].page);
    frames_[victim].next = free_;
    free_ = victim;
    evictions_++;
    out.evicted = true;
    out.stall = dirty ? options_.dirty_evict_cost : options_.clean_evict_cost;
    // Attribute the freed page to the task that loaded it and the stall to
    // the task that had to evict (Fig 8: freeResource in buf_LRU_free,
    // slowByResource after the eviction scan). The bracket spans the read-back
    // too: under contention the page would otherwise have been resident, so
    // the whole evict-and-reload is contention-induced delay.
    if (tracer_ != nullptr) {
      tracer_->OnFree(owner, resource_, 1);
      tracer_->OnWaitBegin(key, resource_);
    }
    if (options_.device != nullptr && dirty) {
      co_await options_.device->Transfer(options_.page_bytes, token, nullptr);
    } else {
      co_await Delay{executor_, out.stall};
    }
  }

  if (options_.device != nullptr) {
    co_await options_.device->Transfer(options_.page_bytes, token, nullptr);
  } else {
    co_await Delay{executor_, options_.miss_cost};
  }
  if (out.evicted && tracer_ != nullptr) {
    tracer_->OnWaitEnd(key, resource_);
  }
  if (admission_ != nullptr) {
    // Release before the cancellation check: a cancelled-after-read task must
    // not strand its admission slot.
    admission_->Release(1);
  }
  if (token != nullptr && token->cancelled()) {
    out.status = Status::Cancelled("page access cancelled after disk read");
    co_return out;
  }

  // Another task may have loaded the page while this one was reading; the
  // late copy simply refreshes it.
  uint32_t& slot = page_index_.FindOrInsert(page_id);
  if (slot != kNil) {
    Touch(slot);
    if (write) {
      frames_[slot].dirty = true;
    }
    out.status = Status::Ok();
    co_return out;
  }

  if (free_ == kNil) {
    slot = static_cast<uint32_t>(frames_.size());
    frames_.emplace_back();
  } else {
    slot = free_;
    free_ = frames_[slot].next;
  }
  Frame& frame = frames_[slot];
  frame.page = page_id;
  frame.owner_key = key;
  frame.dirty = write;
  PushFront(slot);
  if (tracer_ != nullptr) {
    tracer_->OnGet(key, resource_, 1);
  }
  out.status = Status::Ok();
  co_return out;
}

uint64_t BufferPool::ResidentOwnedBy(uint64_t key) const {
  uint64_t n = 0;
  for (uint32_t f = mru_; f != kNil; f = frames_[f].next) {
    if (frames_[f].owner_key == key) {
      n++;
    }
  }
  return n;
}

}  // namespace atropos
