// JVM-style heap with stop-the-world garbage collection (Elasticsearch case
// c11).
//
// Requests allocate from a bounded heap; freed bytes become garbage that is
// only reclaimed by a GC cycle. When usage crosses the threshold a GC runs,
// pausing every allocation for a time proportional to the live set. A nested
// aggregation that keeps gigabytes live makes GCs both frequent and long —
// the culprit pattern of case c11.

#ifndef SRC_APPS_GC_HEAP_H_
#define SRC_APPS_GC_HEAP_H_

#include <memory>
#include <unordered_map>

#include "src/atropos/instrument.h"
#include "src/sim/coro.h"

namespace atropos {

struct GcHeapOptions {
  uint64_t capacity_kb = 4 * 1024 * 1024;  // 4 GB
  double gc_threshold = 0.80;              // GC when usage exceeds this fraction
  TimeMicros gc_pause_per_mb_live = 40;    // stop-the-world cost per live MB
  TimeMicros gc_pause_base = 2000;
  TimeMicros alloc_cost_per_mb = 10;
};

class GcHeap {
 public:
  GcHeap(Executor& executor, const GcHeapOptions& options, OverloadController* tracer,
         ResourceId resource)
      : executor_(executor), options_(options), tracer_(tracer), resource_(resource) {}

  // Allocates `kb` for task `key`; blocks during GC pauses and may trigger
  // one. Tracing: get on allocation, wait bracketing across GC stalls.
  Task<Status> Allocate(uint64_t key, uint64_t kb, CancelToken* token);

  // Releases `kb` of task `key`'s live set (becomes garbage until GC).
  void Free(uint64_t key, uint64_t kb);

  uint64_t usage_kb() const { return usage_kb_; }
  uint64_t live_kb() const { return live_kb_; }
  uint64_t LiveOf(uint64_t key) const {
    auto it = live_by_key_.find(key);
    return it == live_by_key_.end() ? 0 : it->second;
  }
  uint64_t gc_cycles() const { return gc_cycles_; }
  bool gc_running() const { return gc_running_; }

 private:
  Coro RunGc();

  Executor& executor_;
  GcHeapOptions options_;
  OverloadController* tracer_;
  ResourceId resource_;

  uint64_t usage_kb_ = 0;  // live + garbage
  uint64_t live_kb_ = 0;
  std::unordered_map<uint64_t, uint64_t> live_by_key_;
  bool gc_running_ = false;
  uint64_t gc_cycles_ = 0;
  std::shared_ptr<SimEvent> gc_done_;
};

}  // namespace atropos

#endif  // SRC_APPS_GC_HEAP_H_
