// MiniSearch: the Elasticsearch/Solr analogue (cases c10–c15).
//
// A search server assembled from: an LRU query cache (c10), a GC'd heap
// (c11), a shared CPU pool (c12), striped per-document locks (c13), a global
// index reader-writer lock with background commits (c14), and a bounded
// search thread pool (c15). Scenario options choose which layers queries
// exercise, matching the paper's per-case reproductions.

#ifndef SRC_APPS_MINISEARCH_H_
#define SRC_APPS_MINISEARCH_H_

#include <memory>
#include <vector>

#include "src/apps/app.h"
#include "src/apps/gc_heap.h"
#include "src/atropos/instrument.h"
#include "src/common/rng.h"
#include "src/db/buffer_pool.h"
#include "src/sim/cpu.h"

namespace atropos {

enum MiniSearchRequestType : int {
  kSearchQuery = 0,        // victim: small search through the enabled layers
  kSearchLargeQuery = 1,   // c10 culprit: floods the query cache
  kSearchAggregation = 2,  // c11 culprit: keeps a huge live set on the heap
  kSearchLongQuery = 3,    // c12 culprit: CPU hog
  kSearchDocUpdate = 4,    // c13 culprit: long exclusive doc lock
  kSearchDocRead = 5,      // c13 victim: shared doc lock
  kSearchBooleanQuery = 6, // c14 culprit: holds the index read lock for long
  kSearchCommit = 7,       // c14: brief exclusive index lock (forms the convoy)
  kSearchRangeQuery = 8,   // c15 culprit: occupies search threads for long
};

struct MiniSearchOptions {
  bool use_cache = false;
  bool use_heap = false;
  bool use_cpu = false;
  bool use_doc_locks = false;
  bool use_index_lock = false;
  bool use_queue = false;

  BufferPoolOptions cache;          // query cache (entries as "pages")
  uint64_t cache_entries = 100000;  // distinct cacheable entries
  uint64_t hot_entries = 512;
  uint64_t query_cache_lookups = 4;
  uint64_t large_query_entries = 8192;  // c10 culprit footprint

  GcHeapOptions heap;
  uint64_t query_alloc_kb = 256;
  uint64_t aggregation_alloc_kb = 2 * 1024 * 1024;  // 2 GB live set
  uint64_t aggregation_steps = 200;
  TimeMicros aggregation_step_cost = 25000;  // compute per step while holding the live set

  uint64_t cpu_cores = 8;
  TimeMicros query_cpu = 2000;
  TimeMicros long_query_cpu = 8'000'000;

  int doc_lock_stripes = 64;
  TimeMicros doc_read_cost = 1500;
  TimeMicros doc_update_hold = 5'000'000;

  TimeMicros index_read_cost = 1500;
  TimeMicros boolean_query_hold = 6'000'000;
  TimeMicros commit_hold = 20'000;
  TimeMicros commit_interval = 500'000;  // background commit cadence

  uint64_t search_threads = 16;
  TimeMicros range_query_cost = 5'000'000;

  TimeMicros base_query_cost = 500;
  uint64_t seed = 2;
};

class MiniSearch final : public App {
 public:
  MiniSearch(Executor& executor, OverloadController* controller, MiniSearchOptions options);
  ~MiniSearch() override;

  std::string_view name() const override { return "minisearch"; }
  std::string_view RequestTypeName(int type) const override;
  void Start(const AppRequest& req, CompletionFn done) override;
  void Shutdown() override;
  void SetTypeReservation(int request_type, int workers) override;

  GcHeap* heap() { return heap_.get(); }
  BufferPool* cache() { return cache_.get(); }
  CpuPool* cpu() { return cpu_.get(); }

 private:
  Coro Serve(AppRequest req, CompletionFn done);
  Coro CommitLoop();
  Task<Status> Dispatch(const AppRequest& req, CancelToken* token);

  Task<Status> Query(const AppRequest& req, CancelToken* token);
  Task<Status> LargeQuery(const AppRequest& req, CancelToken* token);
  Task<Status> Aggregation(const AppRequest& req, CancelToken* token);
  Task<Status> LongQuery(const AppRequest& req, CancelToken* token);
  Task<Status> DocUpdate(const AppRequest& req, CancelToken* token);
  Task<Status> DocRead(const AppRequest& req, CancelToken* token);
  Task<Status> BooleanQuery(const AppRequest& req, CancelToken* token);
  Task<Status> Commit(const AppRequest& req, CancelToken* token);
  Task<Status> RangeQuery(const AppRequest& req, CancelToken* token);

  InstrumentedRwLock& DocLock(uint64_t doc);

  MiniSearchOptions options_;
  Rng rng_;

  ResourceId cache_resource_ = kInvalidResourceId;
  ResourceId heap_resource_ = kInvalidResourceId;
  ResourceId cpu_resource_ = kInvalidResourceId;
  ResourceId doc_lock_resource_ = kInvalidResourceId;
  ResourceId index_lock_resource_ = kInvalidResourceId;
  ResourceId queue_resource_ = kInvalidResourceId;

  std::unique_ptr<BufferPool> cache_;
  std::unique_ptr<GcHeap> heap_;
  std::unique_ptr<CpuPool> cpu_;
  std::vector<std::unique_ptr<InstrumentedRwLock>> doc_locks_;
  std::unique_ptr<InstrumentedRwLock> index_lock_;
  std::unique_ptr<InstrumentedSemaphore> search_threads_;
  SimSemaphore heavy_limiter_;
  std::unique_ptr<CancelToken> commit_stop_;
};

}  // namespace atropos

#endif  // SRC_APPS_MINISEARCH_H_
