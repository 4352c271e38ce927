// etcd-style key-value store with a keyspace lock (case c16).
//
// Point reads/writes take the keyspace mutex briefly; a complex range read
// walks a large fraction of the key space while holding it, blocking every
// other operation. Range reads are cancellable at per-batch checkpoints and
// report GetNext progress.

#ifndef SRC_APPS_KV_STORE_H_
#define SRC_APPS_KV_STORE_H_

#include "src/atropos/instrument.h"

namespace atropos {

struct KvStoreOptions {
  uint64_t num_keys = 100000;
  TimeMicros point_op_cost = 20;
  TimeMicros scan_cost_per_key = 4;
  uint64_t scan_batch = 200;  // keys scanned per cancellation checkpoint
};

class KvStore {
 public:
  KvStore(Executor& executor, const KvStoreOptions& options, OverloadController* tracer,
          ResourceId resource)
      : executor_(executor), options_(options), tracer_(tracer),
        keyspace_lock_(executor, tracer, resource) {}

  // Point get/put under the keyspace lock.
  Task<Status> PointOp(uint64_t key, CancelToken* token);

  // Range read over `span` keys, holding the keyspace lock throughout (the
  // etcd single-keyspace behaviour that makes large reads culprits).
  Task<Status> RangeRead(uint64_t key, uint64_t span, CancelToken* token);

  uint64_t num_keys() const { return options_.num_keys; }

 private:
  Executor& executor_;
  KvStoreOptions options_;
  OverloadController* tracer_;
  InstrumentedMutex keyspace_lock_;
};

}  // namespace atropos

#endif  // SRC_APPS_KV_STORE_H_
