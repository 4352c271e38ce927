#include "src/apps/kv_store.h"

#include <algorithm>

namespace atropos {

Task<Status> KvStore::PointOp(uint64_t key, CancelToken* token) {
  Status s = co_await keyspace_lock_.Acquire(key, token);
  if (!s.ok()) {
    co_return s;
  }
  co_await Delay{executor_, options_.point_op_cost};
  keyspace_lock_.Release(key);
  co_return Status::Ok();
}

Task<Status> KvStore::RangeRead(uint64_t key, uint64_t span, CancelToken* token) {
  span = std::min(span, options_.num_keys);
  Status s = co_await keyspace_lock_.Acquire(key, token);
  if (!s.ok()) {
    co_return s;
  }
  Status result = Status::Ok();
  uint64_t scanned = 0;
  while (scanned < span) {
    if (token != nullptr && token->cancelled()) {
      result = Status::Cancelled("range read cancelled at batch checkpoint");
      break;
    }
    uint64_t batch = std::min(options_.scan_batch, span - scanned);
    co_await Delay{executor_, options_.scan_cost_per_key * batch};
    scanned += batch;
    if (tracer_ != nullptr) {
      tracer_->OnProgress(key, scanned, span);
    }
  }
  keyspace_lock_.Release(key);
  co_return result;
}

}  // namespace atropos
