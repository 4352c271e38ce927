#include "src/atropos/capi.h"

#include <gtest/gtest.h>

#include "src/atropos/concurrent_frontend.h"

// This suite is the C-API misuse-regression corpus: most tests deliberately
// leak handles, double-free, or unbalance getResource/freeResource to pin the
// runtime's defensive behavior, so the pairing contract is suppressed for the
// whole file rather than annotated line by line.
// atropos-lint: allow-file(capi-pairing)

namespace atropos {
namespace {

std::vector<uint64_t>& CancelLog() {
  static std::vector<uint64_t> log;
  return log;
}

// Test-only initiator: appends to a static log (fine in a single-threaded
// test, banned in a real initiator).
// atropos-lint: allow(cancel-action-safety)
void RecordCancel(uint64_t key) { CancelLog().push_back(key); }

// The facade feeds a frontend over a manual clock; each check first drains
// what the test traced into the runtime with Drain().
class CApiTest : public ::testing::Test {
 protected:
  CApiTest() : clock_(0), frontend_(&clock_, Config()), runtime_(frontend_.runtime()) {
    InstallGlobalFrontend(&frontend_);
    CancelLog().clear();
  }
  ~CApiTest() override { InstallGlobalFrontend(nullptr); }

  void Drain() { frontend_.Tick(); }

  static AtroposConfig Config() {
    AtroposConfig cfg;
    cfg.baseline_p99 = 1000;
    cfg.timestamp_mode = TimestampMode::kPerEvent;
    return cfg;
  }

  ManualClock clock_;
  ConcurrentFrontend frontend_;
  AtroposRuntime& runtime_;
};

TEST_F(CApiTest, CreateAndFreeRegisterTasks) {
  Cancellable* c = createCancel(7);
  ASSERT_NE(c, nullptr);
  Drain();
  EXPECT_NE(runtime_.FindTask(7), nullptr);
  freeCancel(c);
  Drain();
  EXPECT_EQ(runtime_.FindTask(7), nullptr);
}

TEST_F(CApiTest, TracingAttributedToCurrentCancellable) {
  Cancellable* c = createCancel(7);
  {
    CancellableScope scope(c);
    getResource(10, CApiResourceType::MEMORY);
    slowByResource(500, CApiResourceType::MEMORY);
    freeResource(4, CApiResourceType::MEMORY);
    reportProgress(3, 10);
  }
  Drain();
  const TaskRecord* task = runtime_.FindTask(7);
  ASSERT_NE(task, nullptr);
  std::vector<ResourceId> used = runtime_.UsedResources(7);
  ASSERT_EQ(used.size(), 1u);
  const TaskResourceUsage* u = runtime_.FindUsage(7, used[0]);
  ASSERT_NE(u, nullptr);
  EXPECT_EQ(u->acquired, 10u);
  EXPECT_EQ(u->released, 4u);
  EXPECT_EQ(u->wait_time, 500u);
  EXPECT_TRUE(task->has_progress);
  EXPECT_EQ(task->progress_done, 3u);
  freeCancel(c);
}

TEST_F(CApiTest, TracingWithoutCurrentTaskIsIgnored) {
  getResource(10, CApiResourceType::LOCK);
  Drain();
  EXPECT_EQ(frontend_.intake_stats().drained_total, 0u);
  EXPECT_EQ(runtime_.stats().trace_events, 0u);
}

TEST_F(CApiTest, ScopesNest) {
  Cancellable* a = createCancel(1);
  Cancellable* b = createCancel(2);
  {
    CancellableScope outer(a);
    getResource(1, CApiResourceType::LOCK);
    {
      CancellableScope inner(b);
      getResource(1, CApiResourceType::LOCK);
    }
    getResource(1, CApiResourceType::LOCK);
  }
  Drain();
  EXPECT_EQ(runtime_.FindUsage(1, runtime_.UsedResources(1)[0])->acquired, 2u);
  EXPECT_EQ(runtime_.FindUsage(2, runtime_.UsedResources(2)[0])->acquired, 1u);
  freeCancel(a);
  freeCancel(b);
}

// Regression: freeCancel while the freed task is still the current
// cancellable. Tracing after the free must reach the runtime and be counted
// as ignored_events — the old facade nulled the current task and the calls
// vanished without a trace.
TEST_F(CApiTest, TracingAfterFreeCancelOfCurrentCountsAsIgnored) {
  Cancellable* c = createCancel(7);
  {
    CancellableScope scope(c);
    getResource(1, CApiResourceType::LOCK);
    Drain();
    EXPECT_EQ(runtime_.stats().ignored_events, 0u);

    freeCancel(c);  // frees the task while it is the current cancellable

    getResource(1, CApiResourceType::LOCK);
    slowByResource(100, CApiResourceType::LOCK);
    freeResource(1, CApiResourceType::LOCK);
    Drain();
    EXPECT_EQ(runtime_.stats().ignored_events, 3u);
    EXPECT_EQ(runtime_.FindTask(7), nullptr);
  }
  // The handle is reaped at scope exit; tracing now has no current task.
  getResource(1, CApiResourceType::LOCK);
  Drain();
  EXPECT_EQ(runtime_.stats().ignored_events, 3u);
}

// Regression: freeCancel of an *outer* scope's handle while a nested scope is
// active. The inner scope's exit restores the outer handle — which must still
// be valid memory — and tracing against it must count as ignored, never be
// misattributed to another task.
TEST_F(CApiTest, FreeCancelOfOuterHandleUnderNestedScopes) {
  Cancellable* a = createCancel(1);
  Cancellable* b = createCancel(2);
  {
    CancellableScope outer(a);
    {
      CancellableScope inner(b);
      freeCancel(a);  // outer handle is saved by `inner` as its restore target
      getResource(5, CApiResourceType::LOCK);  // still attributed to task 2
    }
    // Restored current is the freed outer handle: valid memory, dead task.
    getResource(3, CApiResourceType::LOCK);
    Drain();
    EXPECT_EQ(runtime_.stats().ignored_events, 1u);
  }
  EXPECT_EQ(runtime_.FindTask(1), nullptr);
  ASSERT_NE(runtime_.FindTask(2), nullptr);
  EXPECT_EQ(runtime_.FindUsage(2, runtime_.UsedResources(2)[0])->acquired, 5u);
  freeCancel(b);
}

TEST_F(CApiTest, DoubleFreeCancelIsSafe) {
  Cancellable* c = createCancel(9);
  {
    CancellableScope scope(c);
    freeCancel(c);
    freeCancel(c);  // second free of a retired handle must not double-delete
    getResource(1, CApiResourceType::LOCK);
    Drain();
    EXPECT_EQ(runtime_.stats().ignored_events, 1u);
  }
  EXPECT_EQ(runtime_.FindTask(9), nullptr);
}

TEST_F(CApiTest, SetCancelActionRoutesToFunctionPointer) {
  setCancelAction(&RecordCancel);
  Cancellable* culprit = createCancel(100);
  Cancellable* victim = createCancel(200);
  {
    CancellableScope scope(culprit);
    getResource(1, CApiResourceType::LOCK);
  }
  // Victim stalls on the same default lock resource.
  frontend_.OnRequestStart(200, 0, 0);
  frontend_.OnWaitBegin(200, CApiDefaultResource(CApiResourceType::LOCK));
  clock_.Advance(Millis(100));
  Drain();
  ASSERT_EQ(CancelLog().size(), 1u);
  EXPECT_EQ(CancelLog()[0], 100u);
  freeCancel(culprit);
  freeCancel(victim);
}

}  // namespace
}  // namespace atropos
