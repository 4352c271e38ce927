// Apache-style bounded worker pool (case c9).
//
// Incoming requests wait for a worker slot up to MaxClients concurrent
// executions; beyond that they queue in a bounded accept backlog and are
// rejected (503) once the backlog is full. Slow scripted requests that hold
// workers for seconds exhaust the pool and starve every fast request — the
// classic "Apache reaching MaxClients" overload.

#ifndef SRC_APPS_WORKER_POOL_H_
#define SRC_APPS_WORKER_POOL_H_

#include "src/atropos/instrument.h"

namespace atropos {

struct WorkerPoolOptions {
  uint64_t max_clients = 32;   // concurrent workers
  uint64_t backlog = 256;      // accept queue beyond the workers
};

class WorkerPool {
 public:
  WorkerPool(Executor& executor, const WorkerPoolOptions& options, OverloadController* tracer,
             ResourceId resource)
      : options_(options),
        workers_(executor, options.max_clients, tracer, resource),
        queued_(0) {}

  // Claims a worker for `key`. Returns kResourceExhausted immediately when
  // the backlog is full (connection rejected), kCancelled if aborted while
  // queued. On success the caller must Release() when done.
  Task<Status> Claim(uint64_t key, CancelToken* token) {
    if (queued_ >= options_.backlog) {
      co_return Status::ResourceExhausted("accept backlog full");
    }
    queued_++;
    Status s = co_await workers_.Acquire(key, token);
    queued_--;
    co_return s;
  }

  void Release(uint64_t key) { workers_.Release(key); }

  uint64_t busy_workers() {
    return workers_.raw().capacity() - workers_.raw().available();
  }
  uint64_t queued() const { return queued_; }
  uint64_t max_clients() const { return options_.max_clients; }

 private:
  WorkerPoolOptions options_;
  InstrumentedSemaphore workers_;
  uint64_t queued_;
};

}  // namespace atropos

#endif  // SRC_APPS_WORKER_POOL_H_
