// LRU page buffer pool (the MySQL/InnoDB buffer pool analogue, paper §2.1
// case 1; reused as the Elasticsearch query cache in case c10).
//
// Pages are identified by 64-bit ids. A page access is a cache hit (cheap), a
// miss into a free frame (disk-read cost), or a miss that must first evict
// the LRU page — costlier still when the victim is dirty (flush-then-read).
// Every loaded frame remembers the task that brought it in so that eviction
// events can be attributed (freeResource against the page's owner, Fig 8).

#ifndef SRC_DB_BUFFER_POOL_H_
#define SRC_DB_BUFFER_POOL_H_

#include <list>
#include <memory>
#include <unordered_map>

#include "src/atropos/controller.h"
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

  uint64_t resident_pages() const { return frames_.size(); }
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
  struct Frame {
    uint64_t owner_key = 0;
    bool dirty = false;
    std::list<uint64_t>::iterator lru_pos;
  };

  Executor& executor_;
  BufferPoolOptions options_;
  OverloadController* tracer_;
  ResourceId resource_;

  std::unordered_map<uint64_t, Frame> frames_;
  std::list<uint64_t> lru_;  // front = MRU, back = LRU victim
  std::unique_ptr<SimSemaphore> admission_;

  uint64_t hits_ = 0;
  uint64_t misses_ = 0;
  uint64_t evictions_ = 0;
  uint64_t admission_aborts_ = 0;
};

}  // namespace atropos

#endif  // SRC_DB_BUFFER_POOL_H_
