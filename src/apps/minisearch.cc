#include "src/apps/minisearch.h"

#include <algorithm>

#include "src/sim/sleep.h"

namespace atropos {

namespace {
constexpr uint64_t kCommitterKey = kBackgroundKeyBase + 10;
}  // namespace

MiniSearch::MiniSearch(Executor& executor, OverloadController* controller,
                       MiniSearchOptions options)
    : App(executor, controller), options_(options), rng_(options.seed),
      heavy_limiter_(executor_, 1024) {
  if (options_.use_cache) {
    cache_resource_ = controller_->RegisterResource("query_cache", ResourceClass::kMemory);
    cache_ = std::make_unique<BufferPool>(executor_, options_.cache, controller_,
                                          cache_resource_);
  }
  if (options_.use_heap) {
    heap_resource_ = controller_->RegisterResource("heap", ResourceClass::kMemory);
    heap_ = std::make_unique<GcHeap>(executor_, options_.heap, controller_, heap_resource_);
  }
  if (options_.use_cpu) {
    cpu_resource_ = controller_->RegisterResource("cpu", ResourceClass::kCpu);
    cpu_ = std::make_unique<CpuPool>(executor_, options_.cpu_cores);
  }
  if (options_.use_doc_locks) {
    doc_lock_resource_ = controller_->RegisterResource("document_locks", ResourceClass::kLock);
    doc_locks_.reserve(static_cast<size_t>(options_.doc_lock_stripes));
    for (int i = 0; i < options_.doc_lock_stripes; i++) {
      doc_locks_.push_back(std::make_unique<InstrumentedRwLock>(executor_, controller_,
                                                                doc_lock_resource_));
    }
  }
  if (options_.use_index_lock) {
    index_lock_resource_ = controller_->RegisterResource("index_lock", ResourceClass::kLock);
    index_lock_ =
        std::make_unique<InstrumentedRwLock>(executor_, controller_, index_lock_resource_);
    controller_->OnTaskRegistered(kCommitterKey, /*background=*/true, /*cancellable=*/false);
    commit_stop_ = std::make_unique<CancelToken>(executor_);
    CommitLoop();
  }
  if (options_.use_queue) {
    queue_resource_ = controller_->RegisterResource("search_queue", ResourceClass::kQueue);
    search_threads_ = std::make_unique<InstrumentedSemaphore>(
        executor_, options_.search_threads, controller_, queue_resource_);
  }
  InitClientGates(/*num_classes=*/2, /*parties_capacity=*/64);
}

void MiniSearch::SetTypeReservation(int request_type, int workers) {
  auto threads = static_cast<int64_t>(options_.search_threads);
  int64_t cap = threads - workers;
  heavy_limiter_.SetCapacity(static_cast<uint64_t>(std::max<int64_t>(cap, 1)));
}

MiniSearch::~MiniSearch() { Shutdown(); }

void MiniSearch::Shutdown() {
  if (commit_stop_ != nullptr) {
    commit_stop_->Cancel();
  }
}

InstrumentedRwLock& MiniSearch::DocLock(uint64_t doc) {
  return *doc_locks_[doc % doc_locks_.size()];
}

std::string_view MiniSearch::RequestTypeName(int type) const {
  switch (type) {
    case kSearchQuery:
      return "query";
    case kSearchLargeQuery:
      return "large_query";
    case kSearchAggregation:
      return "aggregation";
    case kSearchLongQuery:
      return "long_query";
    case kSearchDocUpdate:
      return "doc_update";
    case kSearchDocRead:
      return "doc_read";
    case kSearchBooleanQuery:
      return "boolean_query";
    case kSearchCommit:
      return "commit";
    case kSearchRangeQuery:
      return "range_query";
    default:
      return "request";
  }
}

void MiniSearch::Start(const AppRequest& req, CompletionFn done) { Serve(req, std::move(done)); }

Coro MiniSearch::Serve(AppRequest req, CompletionFn done) {
  co_await BindExecutor{executor_};
  CancelToken* token = BeginTask(req.key, !req.non_cancellable);
  Status status = co_await GateEnter(req, token);
  if (status.ok()) {
    status = co_await Dispatch(req, token);
    GateExit(req);
  }
  FinishTask(req, done, status);
}

// Background Lucene-style commit: brief exclusive index lock at a fixed
// cadence. Behind a long boolean query's read lock, the queued commit forms
// the convoy of case c14.
Coro MiniSearch::CommitLoop() {
  co_await BindExecutor{executor_};
  // Interruptible sleeps: Shutdown() must quiesce the committer synchronously
  // because the app (and commit_stop_ with it) is destroyed right after. Once
  // a sleep reports kCancelled, no member may be touched except to release a
  // lock we still hold — at that point Cancel() has not yet returned, so the
  // app is still alive.
  while (!commit_stop_->cancelled()) {
    // Named local on purpose: g++ 12 miscompiles `(co_await ...).ok()` in a
    // condition inside this loop shape (resume pointer never stored).
    Status slept = co_await InterruptibleSleep(executor_, options_.commit_interval, commit_stop_.get());
    if (!slept.ok()) {
      break;
    }
    Status s = co_await index_lock_->AcquireExclusive(kCommitterKey, commit_stop_.get());
    if (!s.ok()) {
      break;
    }
    Status held = co_await InterruptibleSleep(executor_, options_.commit_hold, commit_stop_.get());
    index_lock_->ReleaseExclusive(kCommitterKey);
    if (!held.ok()) {
      break;
    }
  }
}

Task<Status> MiniSearch::Dispatch(const AppRequest& req, CancelToken* token) {
  switch (req.type) {
    case kSearchLargeQuery:
      return LargeQuery(req, token);
    case kSearchAggregation:
      return Aggregation(req, token);
    case kSearchLongQuery:
      return LongQuery(req, token);
    case kSearchDocUpdate:
      return DocUpdate(req, token);
    case kSearchDocRead:
      return DocRead(req, token);
    case kSearchBooleanQuery:
      return BooleanQuery(req, token);
    case kSearchCommit:
      return Commit(req, token);
    case kSearchRangeQuery:
      return RangeQuery(req, token);
    case kSearchQuery:
    default:
      return Query(req, token);
  }
}

// The small search every case uses as victim traffic: passes through each
// enabled layer with modest cost.
Task<Status> MiniSearch::Query(const AppRequest& req, CancelToken* token) {
  uint64_t thread_units = 0;
  if (search_threads_ != nullptr) {
    Status s = co_await search_threads_->Acquire(req.key, token);
    if (!s.ok()) {
      co_return s;
    }
    thread_units = 1;
  }
  Status result = Status::Ok();
  bool index_locked = false;
  if (index_lock_ != nullptr) {
    result = co_await index_lock_->AcquireShared(req.key, token);
    index_locked = result.ok();
    if (result.ok()) {
      co_await Delay{executor_, Scaled(req.key, options_.index_read_cost)};
    }
  }
  if (result.ok() && cache_ != nullptr) {
    for (uint64_t i = 0; i < options_.query_cache_lookups && result.ok(); i++) {
      uint64_t entry = rng_.NextZipf(options_.hot_entries, 0.9);
      PageAccess access = co_await cache_->Access(req.key, entry, /*write=*/false, token);
      result = access.status;
    }
  }
  uint64_t alloc = 0;
  if (result.ok() && heap_ != nullptr) {
    alloc = options_.query_alloc_kb;
    result = co_await heap_->Allocate(req.key, alloc, token);
    if (!result.ok()) {
      alloc = 0;
    }
  }
  if (result.ok() && cpu_ != nullptr) {
    UsageReporter reporter(controller_, cpu_resource_, req.key);
    result = co_await cpu_->Consume(Scaled(req.key, options_.query_cpu), token, &reporter);
  }
  if (result.ok()) {
    co_await Delay{executor_, Scaled(req.key, options_.base_query_cost)};
  }
  if (alloc > 0) {
    heap_->Free(req.key, alloc);
  }
  if (index_locked) {
    index_lock_->ReleaseShared(req.key);
  }
  if (thread_units > 0) {
    search_threads_->Release(req.key, thread_units);
  }
  co_return result;
}

// c10: floods the query cache with cold entries, evicting the hot set.
Task<Status> MiniSearch::LargeQuery(const AppRequest& req, CancelToken* token) {
  uint64_t entries = req.arg > 0 ? req.arg : options_.large_query_entries;
  for (uint64_t i = 0; i < entries; i++) {
    if (token != nullptr && token->cancelled()) {
      co_return Status::Cancelled("large query cancelled at entry checkpoint");
    }
    // Cold range beyond the hot set.
    uint64_t entry = options_.hot_entries + (rng_.NextUint64() % options_.cache_entries);
    PageAccess access = co_await cache_->Access(req.key, entry, /*write=*/false, token);
    if (!access.status.ok()) {
      co_return access.status;
    }
    if (i % 64 == 0) {
      controller_->OnProgress(req.key, i, entries);
    }
  }
  co_return Status::Ok();
}

// c11: keeps a very large live set across many steps; GCs become frequent
// and long.
Task<Status> MiniSearch::Aggregation(const AppRequest& req, CancelToken* token) {
  uint64_t total_kb = req.arg > 0 ? req.arg : options_.aggregation_alloc_kb;
  uint64_t steps = options_.aggregation_steps;
  uint64_t per_step = total_kb / steps;
  uint64_t held = 0;
  Status result = Status::Ok();
  for (uint64_t i = 0; i < steps; i++) {
    if (token != nullptr && token->cancelled()) {
      result = Status::Cancelled("aggregation cancelled at step checkpoint");
      break;
    }
    result = co_await heap_->Allocate(req.key, per_step, token);
    if (!result.ok()) {
      break;
    }
    held += per_step;
    co_await Delay{executor_, Scaled(req.key, options_.aggregation_step_cost)};
    controller_->OnProgress(req.key, i + 1, steps);
  }
  if (held > 0) {
    heap_->Free(req.key, held);
  }
  co_return result;
}

// c12: long CPU burn.
Task<Status> MiniSearch::LongQuery(const AppRequest& req, CancelToken* token) {
  UsageReporter reporter(controller_, cpu_resource_, req.key);
  TimeMicros total = req.arg > 0 ? static_cast<TimeMicros>(req.arg) : options_.long_query_cpu;
  constexpr int kSteps = 100;
  for (int i = 0; i < kSteps; i++) {
    if (token != nullptr && token->cancelled()) {
      co_return Status::Cancelled("long query cancelled at step checkpoint");
    }
    Status s = co_await cpu_->Consume(Scaled(req.key, total / kSteps), token, &reporter);
    if (!s.ok()) {
      co_return s;
    }
    controller_->OnProgress(req.key, static_cast<uint64_t>(i + 1),
                            static_cast<uint64_t>(kSteps));
  }
  co_return Status::Ok();
}

// c13 culprit: exclusive doc lock held for a long update.
Task<Status> MiniSearch::DocUpdate(const AppRequest& req, CancelToken* token) {
  InstrumentedRwLock& lock = DocLock(req.arg);
  Status s = co_await lock.AcquireExclusive(req.key, token);
  if (!s.ok()) {
    co_return s;
  }
  Status result = Status::Ok();
  constexpr int kSteps = 100;
  for (int i = 0; i < kSteps; i++) {
    if (token != nullptr && token->cancelled()) {
      result = Status::Cancelled("doc update cancelled at step checkpoint");
      break;
    }
    co_await Delay{executor_, Scaled(req.key, options_.doc_update_hold / kSteps)};
    controller_->OnProgress(req.key, static_cast<uint64_t>(i + 1),
                            static_cast<uint64_t>(kSteps));
  }
  lock.ReleaseExclusive(req.key);
  co_return result;
}

// c13 victim.
Task<Status> MiniSearch::DocRead(const AppRequest& req, CancelToken* token) {
  InstrumentedRwLock& lock = DocLock(req.arg);
  Status s = co_await lock.AcquireShared(req.key, token);
  if (!s.ok()) {
    co_return s;
  }
  co_await Delay{executor_, Scaled(req.key, options_.doc_read_cost)};
  lock.ReleaseShared(req.key);
  co_return Status::Ok();
}

// c14 culprit: long boolean query under the index read lock; the periodic
// commit's exclusive request convoys everything behind it.
Task<Status> MiniSearch::BooleanQuery(const AppRequest& req, CancelToken* token) {
  Status s = co_await index_lock_->AcquireShared(req.key, token);
  if (!s.ok()) {
    co_return s;
  }
  Status result = Status::Ok();
  TimeMicros total =
      req.arg > 0 ? static_cast<TimeMicros>(req.arg) : options_.boolean_query_hold;
  constexpr int kSteps = 100;
  for (int i = 0; i < kSteps; i++) {
    if (token != nullptr && token->cancelled()) {
      result = Status::Cancelled("boolean query cancelled at clause checkpoint");
      break;
    }
    co_await Delay{executor_, Scaled(req.key, total / kSteps)};
    controller_->OnProgress(req.key, static_cast<uint64_t>(i + 1),
                            static_cast<uint64_t>(kSteps));
  }
  index_lock_->ReleaseShared(req.key);
  co_return result;
}

// Client-triggered commit (c14 victim alongside queries).
Task<Status> MiniSearch::Commit(const AppRequest& req, CancelToken* token) {
  Status s = co_await index_lock_->AcquireExclusive(req.key, token);
  if (!s.ok()) {
    co_return s;
  }
  co_await Delay{executor_, Scaled(req.key, options_.commit_hold)};
  index_lock_->ReleaseExclusive(req.key);
  co_return Status::Ok();
}

// c15 culprit: occupies a search thread for a long time.
Task<Status> MiniSearch::RangeQuery(const AppRequest& req, CancelToken* token) {
  Status gate = co_await heavy_limiter_.Acquire(1, token);
  if (!gate.ok()) {
    co_return gate;
  }
  Status s = co_await search_threads_->Acquire(req.key, token);
  if (!s.ok()) {
    heavy_limiter_.Release();
    co_return s;
  }
  Status result = Status::Ok();
  TimeMicros total = req.arg > 0 ? static_cast<TimeMicros>(req.arg) : options_.range_query_cost;
  constexpr int kSteps = 100;
  for (int i = 0; i < kSteps; i++) {
    if (token != nullptr && token->cancelled()) {
      result = Status::Cancelled("range query cancelled at step checkpoint");
      break;
    }
    co_await Delay{executor_, Scaled(req.key, total / kSteps)};
    controller_->OnProgress(req.key, static_cast<uint64_t>(i + 1),
                            static_cast<uint64_t>(kSteps));
  }
  search_threads_->Release(req.key);
  heavy_limiter_.Release();
  co_return result;
}

}  // namespace atropos
