// LRU page buffer pool (the MySQL/InnoDB buffer pool analogue, paper §2.1
// case 1; reused as the Elasticsearch query cache in case c10).
//
// Pages are identified by 64-bit ids. A page access is a cache hit (cheap), a
// miss into a free frame (disk-read cost), or a miss that must first evict
// the LRU page — costlier still when the victim is dirty (flush-then-read).
// Every loaded frame remembers the task that brought it in so that eviction
// events can be attributed (freeResource against the page's owner, Fig 8).
//
// Frames live in one flat vector, linked into the LRU order by index and
// recycled through an intrusive free list; a dense page→frame index finds
// them. Once the pool has reached its high-water frame count, a hit, a miss
// and an eviction allocate nothing.

#ifndef SRC_DB_BUFFER_POOL_H_
#define SRC_DB_BUFFER_POOL_H_

#include <memory>
#include <vector>

#include "src/atropos/controller.h"
#include "src/atropos/dense_index.h"
#include "src/common/status.h"
#include "src/sim/cancel.h"
#include "src/sim/cpu.h"
#include "src/sim/executor.h"
#include "src/sim/sync.h"
#include "src/sim/task.h"

namespace atropos {

struct BufferPoolOptions {
  uint64_t capacity_pages = 1024;
  TimeMicros hit_cost = 2;
  TimeMicros miss_cost = 80;           // read the page from disk
  TimeMicros clean_evict_cost = 10;    // drop a clean LRU page
  TimeMicros dirty_evict_cost = 250;   // flush a dirty LRU page first

  // When set, misses and dirty-page flushes go through this shared device
  // (page_bytes per transfer) instead of the fixed costs above — the real
  // thrashing mechanism: a dump's reads saturate the disk every other miss
  // also needs (§2.1 case 1).
  IoDevice* device = nullptr;
  uint64_t page_bytes = 64 * 1024;

  // When > 0, at most this many misses run their evict-and-read section
  // concurrently (InnoDB's single-page-flush throttle analogue). The
  // admission wait is a cancellable FIFO semaphore: Atropos can abort a
  // task parked at admission without it ever taking a slot.
  uint64_t admission_limit = 0;
};

struct PageAccess {
  Status status;
  bool hit = false;
  bool evicted = false;        // this access had to evict a page
  TimeMicros stall = 0;        // eviction stall only (excludes the miss read)
};

class BufferPool {
 public:
  BufferPool(Executor& executor, const BufferPoolOptions& options, OverloadController* tracer,
             ResourceId resource)
      : executor_(executor), options_(options), tracer_(tracer), resource_(resource) {
    if (options_.admission_limit > 0) {
      admission_ = std::make_unique<SimSemaphore>(executor_, options_.admission_limit);
    }
  }

  // Accesses `page_id` on behalf of task `key`. Write accesses mark the page
  // dirty. Cancellation is honoured at the access boundary.
  Task<PageAccess> Access(uint64_t key, uint64_t page_id, bool write, CancelToken* token);

  uint64_t resident_pages() const { return page_index_.size(); }
  uint64_t capacity() const { return options_.capacity_pages; }
  uint64_t hits() const { return hits_; }
  uint64_t misses() const { return misses_; }
  uint64_t evictions() const { return evictions_; }
  // Pages currently resident that were loaded by `key`.
  uint64_t ResidentOwnedBy(uint64_t key) const;
  // Misses cancelled while parked at the admission gate (never admitted).
  uint64_t admission_aborts() const { return admission_aborts_; }
  // Null unless options.admission_limit > 0.
  SimSemaphore* admission() { return admission_.get(); }

 private:
  static constexpr uint32_t kNil = DenseKeyIndex::kNotFound;

  struct Frame {
    uint64_t page = 0;
    uint64_t owner_key = 0;
    uint32_t prev = kNil;  // toward the MRU end
    uint32_t next = kNil;  // toward the LRU end; on the free list, the next free frame
    bool dirty = false;
  };

  // Links frame `f` in at the MRU end.
  void PushFront(uint32_t f);
  void Unlink(uint32_t f);
  // Moves a resident frame to the MRU end.
  void Touch(uint32_t f) {
    Unlink(f);
    PushFront(f);
  }

  Executor& executor_;
  BufferPoolOptions options_;
  OverloadController* tracer_;
  ResourceId resource_;

  std::vector<Frame> frames_;
  DenseKeyIndex page_index_;  // page id -> index into frames_ of its frame
  uint32_t mru_ = kNil;
  uint32_t lru_ = kNil;  // the next eviction victim
  uint32_t free_ = kNil;  // head of the evicted frames, linked through `next`
  std::unique_ptr<SimSemaphore> admission_;

  uint64_t hits_ = 0;
  uint64_t misses_ = 0;
  uint64_t evictions_ = 0;
  uint64_t admission_aborts_ = 0;
};

}  // namespace atropos

#endif  // SRC_DB_BUFFER_POOL_H_
