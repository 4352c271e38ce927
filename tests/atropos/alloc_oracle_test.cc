// Steady-state allocation oracle (DESIGN.md §17).
//
// The SoA refactor's core promise is that the per-event hot path — tracing
// hooks into the TaskLedger, request lifecycle into the WindowAggregator, and
// task registration/teardown over recycled slots — performs ZERO heap
// allocations once the registries are warm. This binary overrides global
// operator new/delete with counting wrappers and asserts exactly that: warm
// the structures past their high-water mark, arm the counter, drive tens of
// thousands of events, and require the allocation count to still be zero.
//
// The hot-path functions the armed loops reach. For each, a scratch copy
// that appends to a growing vector on entry fails the tests named here:
//   TaskLedger::RecordWaitBegin, RecordWaitEnd, RecordUsage, RecordProgress
//     and Lookup                        -> LedgerSteadyState
//   TaskLedger::RecordGet, RecordFree, ReleaseSlot, UsageFor and
//     DenseKeyIndex::Find               -> LedgerSteadyState, KeyChurn,
//                                          both Frontend tests
//   DenseKeyIndex::Erase                -> all of the above and
//                                          WindowAggregatorSteadyState
//   WindowAggregator::OnRequestEnd, DropKey, ReleaseRequestSlot,
//     CountOverdue, Roll and EpochLatencyHistogram::Record
//                                       -> WindowAggregatorSteadyState,
//                                          both Frontend tests
//   ConcurrentFrontend::ApplyMerged     -> both Frontend tests
//   App::BeginTask, FinishTask, AcquireSlot, ReleaseSlot, Live (const),
//     Scaled, GateEnter and GateExit; CancelToken::Rearm;
//     SimSemaphore::Acquirer::await_ready and Release; BufferPool::Access,
//     PushFront and Unlink; MiniDb::Serve, Dispatch, PointSelect and
//     RowUpdate                         -> WarmSimRequests
//     (a growing vector alone does not fail WarmSimRequests: its warm phase
//     makes 40,000 requests, which presize the vector past the armed phase's
//     needs. A copy that allocates on every call, such as push_back followed
//     by shrink_to_fit(), does; tests/mutants/alloc_semaphore_acquire.patch
//     is that mutant for SimSemaphore::Acquirer::await_ready.)
// Nothing else checks that these stay allocation-free.
//
// The oracle lives in its own test binary because replacing global
// operator new affects the whole program; keeping it isolated means the main
// suites run against the stock allocator.
//
// The drained intake path is armed too: warm producer pushes, the Tick()
// k-way merge into AtroposRuntime::Apply, and the control loop over windows
// the detector calls Normal (no recorder attached) — with no resource
// overloaded, and with a resource flagged overloaded every window (the
// per-resource estimate runs; per-task gains are not scored).
//
// The simulator's per-await path is armed as well: warm wake push/fire
// cycles on an Executor, and nested Task<Status> awaits whose frames come
// from the per-thread frame pool. So is a whole simulated request: MiniDb
// point selects and row updates over a buffer pool, through the app's
// pooled task slots and an AtroposRuntime fed by the request's hooks.
//
// Deliberately NOT inside the armed region: the selection path of Tick()
// (overload suspected, a resource confirmed, pacing admitted: the estimator
// builds one candidate row per live task for the policy by design),
// first-touch growth (new tasks/resources/producers beyond the high-water
// mark), and the books that grow with every request by design: the
// workload Frontend's and the fuzz AuditController's.

#include <array>
#include <atomic>
#include <cstdlib>
#include <new>
#include <vector>

#include <gtest/gtest.h>

#include "src/apps/minidb.h"
#include "src/atropos/concurrent_frontend.h"
#include "src/atropos/ledger.h"
#include "src/atropos/window.h"
#include "src/common/clock.h"
#include "src/common/status.h"
#include "src/sim/coro.h"
#include "src/sim/executor.h"
#include "src/sim/task.h"

namespace {

std::atomic<bool> g_armed{false};
std::atomic<uint64_t> g_allocations{0};

void* CountingAlloc(size_t size) {
  if (g_armed.load(std::memory_order_relaxed)) {
    g_allocations.fetch_add(1, std::memory_order_relaxed);
  }
  void* p = std::malloc(size == 0 ? 1 : size);
  if (p == nullptr) {
    throw std::bad_alloc();
  }
  return p;
}

}  // namespace

void* operator new(size_t size) { return CountingAlloc(size); }
void* operator new[](size_t size) { return CountingAlloc(size); }
void* operator new(size_t size, const std::nothrow_t&) noexcept {
  return std::malloc(size == 0 ? 1 : size);
}
void* operator new[](size_t size, const std::nothrow_t&) noexcept {
  return std::malloc(size == 0 ? 1 : size);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, size_t) noexcept { std::free(p); }
void operator delete[](void* p, size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { std::free(p); }

namespace atropos {
namespace {

class AllocArmed {
 public:
  AllocArmed() {
    g_allocations.store(0, std::memory_order_relaxed);
    g_armed.store(true, std::memory_order_relaxed);
  }
  ~AllocArmed() { g_armed.store(false, std::memory_order_relaxed); }
  uint64_t count() const { return g_allocations.load(std::memory_order_relaxed); }
};

TEST(AllocOracleTest, LedgerSteadyStateIsAllocationFree) {
  AtroposConfig config;
  AtroposStats stats;
  TimeMicros now = 0;
  TaskLedger ledger(now, config, &stats);

  const ResourceId lock = ledger.RegisterResource("lock", ResourceClass::kLock);
  const ResourceId pool = ledger.RegisterResource("pool", ResourceClass::kMemory);

  // Warm past the high-water mark: more concurrent tasks than the steady
  // phase will ever hold, every (task, resource) cell touched, both key
  // indexes forced through their growth doublings.
  constexpr uint64_t kWarmTasks = 64;
  for (uint64_t k = 0; k < kWarmTasks; k++) {
    ledger.RegisterTask(1000 + k, false, true, now);
    ledger.RecordGet(1000 + k, lock, 1, now);
    ledger.RecordGet(1000 + k, pool, 16, now);
    ledger.RecordFree(1000 + k, lock, 1, now);
  }
  for (uint64_t k = 0; k < kWarmTasks; k++) {
    ledger.FreeTask(1000 + k);
  }

  AllocArmed armed;
  // 10k+ steady-state events over recycled slots: registration, the full
  // tracing surface, window rolls, and teardown.
  for (int round = 0; round < 1000; round++) {
    const uint64_t a = 2000 + static_cast<uint64_t>(round % 32);
    const uint64_t b = 3000 + static_cast<uint64_t>(round % 32);
    ledger.RegisterTask(a, false, true, now);
    ledger.RegisterTask(b, false, true, now);
    ledger.RecordGet(a, lock, 1, now);
    ledger.RecordWaitBegin(b, lock, now);
    now += 100;
    ledger.RecordWaitEnd(b, lock, now);
    ledger.RecordGet(b, pool, 8, now);
    ledger.RecordUsage(a, pool, 5, 20);
    ledger.RecordProgress(a, static_cast<uint64_t>(round), 1000);
    ledger.RecordFree(a, lock, 1, now);
    ledger.RecordFree(b, pool, 8, now);
    if (round % 16 == 15) {
      ledger.RollWindow(now);
    }
    ledger.FreeTask(a);
    ledger.FreeTask(b);
  }
  EXPECT_EQ(armed.count(), 0u)
      << "ledger hot path allocated after warm-up";
}

TEST(AllocOracleTest, WindowAggregatorSteadyStateIsAllocationFree) {
  AtroposStats stats;
  TimeMicros now = 0;
  WindowAggregator window(now, &stats);

  // Warm the in-flight slot pool and the epoch histogram's (fixed) buckets.
  for (uint64_t k = 0; k < 64; k++) {
    window.OnRequestStart(100 + k, 0, now);
  }
  for (uint64_t k = 0; k < 64; k++) {
    now += 50;
    window.OnRequestEnd(100 + k, 500, 0, now);
  }
  window.Roll(now);

  AllocArmed armed;
  for (int round = 0; round < 2000; round++) {
    const uint64_t key = 500 + static_cast<uint64_t>(round % 48);
    window.OnRequestStart(key, 0, now);
    now += 25;
    window.OnRequestEnd(key, 1000 + static_cast<TimeMicros>(round % 997), 0, now);
    if (round % 64 == 63) {
      (void)window.P99();
      (void)window.CountOverdue(now, 10000);
      window.Roll(now);  // epoch bump, no memset, no alloc
    }
  }
  EXPECT_EQ(armed.count(), 0u)
      << "window aggregator hot path allocated after warm-up";
}

// Slot recycling keeps the ledger allocation-free even when the *set* of live
// keys churns completely — distinct keys forever, bounded concurrency.
TEST(AllocOracleTest, KeyChurnOverRecycledSlotsIsAllocationFree) {
  AtroposConfig config;
  AtroposStats stats;
  TaskLedger ledger(/*start=*/0, config, &stats);
  const ResourceId lock = ledger.RegisterResource("lock", ResourceClass::kLock);

  // Warm: the key index must have grown past the live-set size it will see.
  for (uint64_t k = 0; k < 128; k++) {
    ledger.RegisterTask(k, false, true, /*now=*/0);
  }
  for (uint64_t k = 0; k < 128; k++) {
    ledger.FreeTask(k);
  }

  AllocArmed armed;
  uint64_t next_key = 1000000;
  for (int round = 0; round < 5000; round++) {
    const uint64_t key = next_key++;  // never-repeating keys
    ledger.RegisterTask(key, false, true, /*now=*/0);
    ledger.RecordGet(key, lock, 1, /*now=*/0);
    ledger.RecordFree(key, lock, 1, /*now=*/0);
    ledger.FreeTask(key);
  }
  EXPECT_EQ(armed.count(), 0u)
      << "key churn over recycled slots allocated after warm-up";
}

// A ConcurrentFrontend fed by three producers. One window: every producer
// runs 32 short uncontended requests, their events interleaved in time with
// the other producers', then the frontend ticks.
class CalmIntake {
 public:
  static constexpr int kProducers = 3;
  static constexpr uint64_t kEventsPerWindow = kProducers * 32 * 6;

  CalmIntake() : frontend_(&clock_, MakeConfig()) {
    lock_ = frontend_.RegisterResource("lock", ResourceClass::kLock);
    for (int p = 0; p < kProducers; p++) {
      producers_.push_back(frontend_.RegisterProducer());
    }
  }

  static AtroposConfig MakeConfig() {
    AtroposConfig config;
    config.window = Millis(10);
    return config;
  }

  void RunWindow() {
    for (uint64_t j = 0; j < 32; j++) {
      for (int p = 0; p < kProducers; p++) {
        const uint64_t key = 1000 * static_cast<uint64_t>(p + 1) + j;
        ConcurrentFrontend::Producer* producer = producers_[p];
        producer->Push(TraceEvent::TaskRegistered(key, false, true));
        producer->Push(TraceEvent::RequestStart(key, 0, 0));
        producer->Push(TraceEvent::Get(key, lock_, 1));
        clock_.Advance(10);
        producer->Push(TraceEvent::Free(key, lock_, 1));
        producer->Push(TraceEvent::RequestEnd(key, 10, 0, 0));
        producer->Push(TraceEvent::TaskFreed(key));
      }
    }
    tick_at_ += frontend_.runtime().config().window;
    clock_.SetTime(tick_at_);
    frontend_.Tick();
  }

  // Past detector calibration and every buffer's high-water mark.
  void WarmUp() {
    for (int w = 0; w < 2 * frontend_.runtime().config().calibration_windows; w++) {
      RunWindow();
    }
  }

  ConcurrentFrontend& frontend() { return frontend_; }
  ConcurrentFrontend::Producer* producer(int p) { return producers_[p]; }

 private:
  ManualClock clock_;
  ConcurrentFrontend frontend_;
  ResourceId lock_ = kInvalidResourceId;
  std::vector<ConcurrentFrontend::Producer*> producers_;
  TimeMicros tick_at_ = 0;
};

// Warm ConcurrentFrontend pushes plus Tick() in calm windows: ring pops into
// the reused merge buffer, the merge of three interleaved runs, explicit-time
// apply into the ledger and window, detection and estimation.
TEST(AllocOracleTest, FrontendCalmTicksAreAllocationFree) {
  CalmIntake intake;
  ConcurrentFrontend& frontend = intake.frontend();
  intake.WarmUp();
  const uint64_t drained_before = frontend.intake_stats().drained_total;
  {
    AllocArmed armed;
    for (int w = 0; w < 100; w++) {
      intake.RunWindow();
    }
    EXPECT_EQ(armed.count(), 0u) << "calm frontend pushes + Tick allocated after warm-up";
  }
  EXPECT_EQ(frontend.intake_stats().drained_total - drained_before,
            100u * CalmIntake::kEventsPerWindow);
  EXPECT_EQ(frontend.intake_stats().dropped_total, 0u);
  EXPECT_EQ(frontend.runtime().stats().resource_overload_windows, 0u);
  EXPECT_EQ(frontend.runtime().live_task_count(), 0u);
}

// The same calm windows, plus a queue with open waits and no holds: the queue
// is flagged overloaded every window while the detector stays Normal, so no
// victim is chosen and no candidate row may be built.
TEST(AllocOracleTest, FrontendFlaggedQueueWithoutSuspicionIsAllocationFree) {
  CalmIntake intake;
  ConcurrentFrontend& frontend = intake.frontend();
  const ResourceId queue = frontend.RegisterResource("queue", ResourceClass::kQueue);
  intake.WarmUp();
  constexpr uint64_t kParked = 4;
  for (uint64_t k = 0; k < kParked; k++) {
    intake.producer(0)->Push(TraceEvent::TaskRegistered(9000 + k, false, true));
    intake.producer(0)->Push(TraceEvent::WaitBegin(9000 + k, queue));
  }
  intake.WarmUp();

  const AtroposRuntime& runtime = frontend.runtime();
  int flagged = 0;
  {
    AllocArmed armed;
    for (int w = 0; w < 100; w++) {
      intake.RunWindow();
      flagged += runtime.last_metrics()[queue - 1].overloaded ? 1 : 0;
    }
    EXPECT_EQ(armed.count(), 0u) << "flagged-but-calm Tick allocated after warm-up";
  }
  EXPECT_EQ(flagged, 100);
  EXPECT_EQ(runtime.stats().suspected_overload_windows, 0u);
  EXPECT_EQ(runtime.stats().resource_overload_windows, 0u);
  EXPECT_EQ(runtime.live_task_count(), kParked);
  EXPECT_EQ(frontend.intake_stats().dropped_total, 0u);
}

Coro Sleeper(Executor& ex, int wakes) {
  co_await BindExecutor{ex};
  for (int i = 0; i < wakes; i++) {
    co_await Delay{ex, static_cast<TimeMicros>(1 + i % 3)};
  }
}

// A warm executor's wake heap reuses its storage: a push and a fire of a
// coroutine wake allocate nothing.
TEST(AllocOracleTest, WarmExecutorWakesAreAllocationFree) {
  constexpr int kSleepers = 8;
  Executor ex;
  for (int i = 0; i < kSleepers; i++) {
    Sleeper(ex, 4);
  }
  ex.Run();
  for (int i = 0; i < kSleepers; i++) {
    Sleeper(ex, 1250);
  }
  uint64_t fired = 0;
  {
    AllocArmed armed;
    fired = ex.Run();
    EXPECT_EQ(armed.count(), 0u) << "warm wake push/fire cycles allocated";
  }
  EXPECT_EQ(fired, uint64_t{kSleepers} * 1250);
  EXPECT_EQ(ex.live_procs(), 0);
}

Task<Status> Leaf(Executor& ex, int i) {
  co_await Delay{ex, 1};
  co_return i % 5 == 0 ? Status::Cancelled() : Status::Ok();
}

Task<Status> Middle(Executor& ex, int i) {
  Status first = co_await Leaf(ex, i);
  if (!first.ok()) {
    co_return first;
  }
  Status second = co_await Leaf(ex, i + 1);
  co_return second;
}

Coro Request(Executor& ex, int rounds, int* ok) {
  co_await BindExecutor{ex};
  for (int i = 0; i < rounds; i++) {
    Status s = co_await Middle(ex, i);
    if (s.ok()) {
      ++*ok;
    }
  }
}

// Nested Task<Status> awaits inside spawned request coroutines: once the
// frame pool holds a block of each frame size, neither frames nor statuses
// allocate.
TEST(AllocOracleTest, WarmNestedTaskAwaitsAreAllocationFree) {
  constexpr int kRequests = 16;
  constexpr int kRounds = 200;
  Executor ex;
  int ok = 0;
  for (int r = 0; r < kRequests; r++) {
    Request(ex, 2, &ok);
  }
  ex.Run();
  ok = 0;
  {
    AllocArmed armed;
    for (int r = 0; r < kRequests; r++) {
      Request(ex, kRounds, &ok);
    }
    ex.Run();
    EXPECT_EQ(armed.count(), 0u) << "warm nested Task<Status> awaits allocated";
  }
  // Leaf(i) fails when i % 5 == 0, Leaf(i + 1) when i % 5 == 4: 3 of 5 pass.
  EXPECT_EQ(ok, kRequests * kRounds * 3 / 5);
  EXPECT_EQ(ex.live_procs(), 0);
}

// A simulated request as Frontend::Submit drives it, without the frontend's
// own books: the runtime registers the task and sees the request start,
// MiniDb serves it (class gate, pooled task slot and token, buffer pool
// pages), and the completion reports the end and frees the task. The
// completion captures one pointer, so std::function stores it in place.
class SimRequests {
 public:
  static constexpr TimeMicros kArrivalGap = 50;

  SimRequests() : runtime_(ex_.clock(), MakeConfig()), db_(ex_, &runtime_, MakeOptions()) {}

  static AtroposConfig MakeConfig() {
    AtroposConfig config;
    config.window = Millis(10);
    return config;
  }

  // Point selects (4 Zipf pages each) and row updates (1 page, dirtied) over
  // a 64-page pool: the 5 x 256-page hot set overflows it, so misses evict,
  // clean and dirty, while the hottest pages hit.
  static MiniDbOptions MakeOptions() {
    MiniDbOptions opt;
    opt.use_buffer_pool = true;
    opt.pool.capacity_pages = 64;
    opt.hot_pages_per_table = 256;
    return opt;
  }

  // Runs `windows` control windows with one request arriving every
  // kArrivalGap and a Tick at each window's end.
  void Run(int windows) {
    const TimeMicros window = runtime_.config().window;
    Arrivals(static_cast<int>(windows * window / kArrivalGap));
    Ticker(windows);
    ex_.Run();
  }

  AtroposRuntime& runtime() { return runtime_; }
  MiniDb& db() { return db_; }
  Executor& executor() { return ex_; }
  uint64_t submitted() const { return next_key_ - 1; }
  uint64_t completed() const { return completed_; }

 private:
  Coro Arrivals(int requests) {
    co_await BindExecutor{ex_};
    for (int i = 0; i < requests; i++) {
      Submit(i % 3 == 0 ? kDbRowUpdate : kDbPointSelect);
      co_await Delay{ex_, kArrivalGap};
    }
  }

  Coro Ticker(int windows) {
    co_await BindExecutor{ex_};
    for (int w = 0; w < windows; w++) {
      co_await Delay{ex_, runtime_.config().window};
      runtime_.Tick();
    }
  }

  void Submit(int type) {
    AppRequest req;
    req.key = next_key_++;
    req.type = type;
    req.arg = req.key;  // the table
    runtime_.OnTaskRegistered(req.key, /*background=*/false);
    runtime_.OnRequestStart(req.key, req.type, req.client_class);
    started_[req.key % started_.size()] = ex_.now();
    db_.Start(req, [this](const AppRequest& r, OutcomeKind kind) { Done(r, kind); });
  }

  void Done(const AppRequest& req, OutcomeKind kind) {
    if (kind == OutcomeKind::kCompleted) {
      completed_++;
    }
    const TimeMicros latency = ex_.now() - started_[req.key % started_.size()];
    runtime_.OnRequestEnd(req.key, latency, req.type, req.client_class);
    runtime_.OnTaskFreed(req.key);
  }

  Executor ex_;
  AtroposRuntime runtime_;
  MiniDb db_;
  // Arrival times by key; a request completes long before its key's cell is
  // reused.
  std::array<TimeMicros, 1024> started_{};
  uint64_t next_key_ = 1;
  uint64_t completed_ = 0;
};

// Warm simulated requests through App::BeginTask/FinishTask, the buffer
// pool's hits, misses and evictions, and an AtroposRuntime fed by the
// request's hooks: none allocates.
TEST(AllocOracleTest, WarmSimRequestsAreAllocationFree) {
  SimRequests sim;
  BufferPool& pool = *sim.db().buffer_pool();
  // Long enough for the request concurrency, and so the frame pool's and
  // the task and page tables' populations, to reach their high-water marks.
  sim.Run(200);
  const uint64_t hits_before = pool.hits();
  const uint64_t evictions_before = pool.evictions();
  const uint64_t submitted_before = sim.submitted();
  {
    AllocArmed armed;
    sim.Run(50);
    EXPECT_EQ(armed.count(), 0u) << "warm simulated requests allocated";
  }
  const uint64_t requests = sim.submitted() - submitted_before;
  EXPECT_EQ(requests, 50u * 200u);
  EXPECT_EQ(sim.completed(), sim.submitted());
  EXPECT_GT(pool.hits() - hits_before, requests / 2);
  EXPECT_GT(pool.evictions() - evictions_before, requests);
  EXPECT_EQ(sim.runtime().stats().cancels_issued, 0u);
  EXPECT_EQ(sim.runtime().live_task_count(), 0u);
  EXPECT_EQ(sim.executor().live_procs(), 0);
}

}  // namespace
}  // namespace atropos
