// Drop-in instrumented synchronization primitives.
//
// These wrap the simulator's blocking primitives and emit the Atropos tracing
// stream (getResource / freeResource / slowByResource bracketing) to an
// OverloadController — the library-side equivalent of the hand-placed
// instrumentation the paper adds to MySQL (Fig 8). Applications built on them
// get per-task resource accounting for free.

#ifndef SRC_ATROPOS_INSTRUMENT_H_
#define SRC_ATROPOS_INSTRUMENT_H_

#include "src/atropos/controller.h"
#include "src/common/status.h"
#include "src/sim/cancel.h"
#include "src/sim/cpu.h"
#include "src/sim/executor.h"
#include "src/sim/sync.h"
#include "src/sim/task.h"

namespace atropos {

// Reader-writer lock reporting waits and holds for task `key` against
// `resource`. The tracer may be null (tracing disabled, e.g. overhead
// baselines).
class InstrumentedRwLock {
 public:
  InstrumentedRwLock(Executor& executor, OverloadController* tracer, ResourceId resource)
      : lock_(executor), tracer_(tracer), resource_(resource) {}

  Task<Status> AcquireShared(uint64_t key, CancelToken* token);
  Task<Status> AcquireExclusive(uint64_t key, CancelToken* token);
  void ReleaseShared(uint64_t key);
  void ReleaseExclusive(uint64_t key);

  SimRwLock& raw() { return lock_; }

 private:
  SimRwLock lock_;
  OverloadController* tracer_;
  ResourceId resource_;
};

// Mutex variant (WAL lock, keyspace lock, ...).
class InstrumentedMutex {
 public:
  InstrumentedMutex(Executor& executor, OverloadController* tracer, ResourceId resource)
      : lock_(executor), tracer_(tracer), resource_(resource) {}

  Task<Status> Acquire(uint64_t key, CancelToken* token);
  void Release(uint64_t key);

  SimMutex& raw() { return lock_; }

 private:
  SimMutex lock_;
  OverloadController* tracer_;
  ResourceId resource_;
};

// Counting semaphore reported as a QUEUE resource: the wait is time queued,
// the hold is time executing with the slot (exactly the paper's queue
// contention definition).
class InstrumentedSemaphore {
 public:
  InstrumentedSemaphore(Executor& executor, uint64_t capacity, OverloadController* tracer,
                        ResourceId resource)
      : sem_(executor, capacity), tracer_(tracer), resource_(resource) {}

  Task<Status> Acquire(uint64_t key, CancelToken* token, uint64_t units = 1);
  void Release(uint64_t key, uint64_t units = 1);
  void SetCapacity(uint64_t capacity) { sem_.SetCapacity(capacity); }

  SimSemaphore& raw() { return sem_; }

 private:
  SimSemaphore sem_;
  OverloadController* tracer_;
  ResourceId resource_;
};

// Adapter forwarding CpuPool / IoDevice per-operation usage reports to the
// controller stream for system resources (cases c8, c12).
class UsageReporter final : public UsageObserver {
 public:
  UsageReporter(OverloadController* tracer, ResourceId resource, uint64_t key)
      : tracer_(tracer), resource_(resource), key_(key) {}

  void OnUsage(TimeMicros waited, TimeMicros used) override;

 private:
  OverloadController* tracer_;
  ResourceId resource_;
  uint64_t key_;
};

}  // namespace atropos

#endif  // SRC_ATROPOS_INSTRUMENT_H_
