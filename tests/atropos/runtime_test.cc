#include "src/atropos/runtime.h"

#include <gtest/gtest.h>

#include <map>
#include <vector>

namespace atropos {
namespace {

AtroposConfig TestConfig() {
  AtroposConfig cfg;
  cfg.window = Millis(100);
  cfg.baseline_p99 = 1000;  // 1ms baseline, SLO = 1.2ms
  cfg.slo_latency_increase = 0.20;
  cfg.contention_threshold = 0.10;
  cfg.min_cancel_interval = Millis(200);
  cfg.timestamp_mode = TimestampMode::kPerEvent;
  return cfg;
}

class RuntimeTest : public ::testing::Test {
 protected:
  RuntimeTest() : clock_(0), runtime_(&clock_, TestConfig()) {
    // atropos-lint: allow(cancel-action-safety)
    runtime_.SetCancelAction([this](uint64_t key) { cancelled_.push_back(key); });
    lock_ = runtime_.RegisterResource("table_lock", ResourceClass::kLock);
  }

  // Drives one window: healthy victims complete fast (below SLO) unless a
  // stall is simulated.
  void HealthyWindow() {
    for (int i = 0; i < 50; i++) {
      runtime_.OnRequestEnd(9999, /*latency=*/900, 0, 0);
    }
    clock_.Advance(Millis(100));
    runtime_.Tick();
  }

  ManualClock clock_;
  AtroposRuntime runtime_;
  ResourceId lock_;
  std::vector<uint64_t> cancelled_;
};

TEST_F(RuntimeTest, ResourceRegistration) {
  const ResourceRecord* rec = runtime_.FindResource(lock_);
  ASSERT_NE(rec, nullptr);
  EXPECT_EQ(rec->name, "table_lock");
  EXPECT_EQ(rec->cls, ResourceClass::kLock);
  EXPECT_EQ(runtime_.FindResource(999), nullptr);
}

TEST_F(RuntimeTest, TaskLifecycle) {
  runtime_.OnTaskRegistered(42, false);
  EXPECT_NE(runtime_.FindTask(42), nullptr);
  EXPECT_EQ(runtime_.live_task_count(), 1u);
  runtime_.OnTaskFreed(42);
  EXPECT_EQ(runtime_.FindTask(42), nullptr);
  EXPECT_EQ(runtime_.live_task_count(), 0u);
}

TEST_F(RuntimeTest, TracingAgainstUnregisteredKeyIsIgnored) {
  runtime_.OnGet(777, lock_, 1);
  EXPECT_EQ(runtime_.stats().ignored_events, 1u);
}

TEST_F(RuntimeTest, HoldAndWaitAccounting) {
  runtime_.OnTaskRegistered(1, false);
  runtime_.OnTaskRegistered(2, false);
  runtime_.OnGet(1, lock_, 1);
  clock_.Advance(Millis(10));
  runtime_.OnWaitBegin(2, lock_);
  clock_.Advance(Millis(30));
  runtime_.OnWaitEnd(2, lock_);
  runtime_.OnFree(1, lock_, 1);

  const TaskResourceUsage* holder = runtime_.FindUsage(1, lock_);
  const TaskResourceUsage* waiter = runtime_.FindUsage(2, lock_);
  ASSERT_NE(holder, nullptr);
  ASSERT_NE(waiter, nullptr);
  EXPECT_EQ(holder->hold_time, Millis(40));
  EXPECT_EQ(holder->held_now(), 0u);
  EXPECT_EQ(waiter->wait_time, Millis(30));
  EXPECT_EQ(waiter->slow_events, 1u);
}

TEST_F(RuntimeTest, NoCancellationWithoutOverload) {
  runtime_.OnTaskRegistered(1, false);
  for (int w = 0; w < 10; w++) {
    HealthyWindow();
  }
  EXPECT_TRUE(cancelled_.empty());
  EXPECT_EQ(runtime_.stats().cancels_issued, 0u);
}

// The central behaviour: a lock-holding culprit stalls victims; Atropos
// cancels the holder, not the waiters.
TEST_F(RuntimeTest, CancelsLockHolderUnderOverload) {
  runtime_.OnTaskRegistered(100, false);  // culprit
  runtime_.OnTaskRegistered(200, false);  // victim
  runtime_.OnTaskRegistered(201, false);  // victim

  runtime_.OnGet(100, lock_, 1);  // culprit takes the lock...
  runtime_.OnWaitBegin(200, lock_);
  runtime_.OnWaitBegin(201, lock_);

  // Latency blows past the SLO while throughput is flat.
  for (int w = 0; w < 3 && cancelled_.empty(); w++) {
    for (int i = 0; i < 20; i++) {
      runtime_.OnRequestEnd(9999, /*latency=*/50000, 0, 0);
    }
    clock_.Advance(Millis(100));
    runtime_.Tick();
  }
  ASSERT_EQ(cancelled_.size(), 1u);
  EXPECT_EQ(cancelled_[0], 100u);  // the holder, not a waiter
  EXPECT_GE(runtime_.stats().resource_overload_windows, 1u);
}

TEST_F(RuntimeTest, StalledSystemStillCancels) {
  runtime_.OnTaskRegistered(100, false);
  runtime_.OnTaskRegistered(200, false);
  runtime_.OnRequestStart(200, 0, 0);  // the victim is an in-flight request
  runtime_.OnGet(100, lock_, 1);
  runtime_.OnWaitBegin(200, lock_);
  // Zero completions: a full stall.
  for (int w = 0; w < 3 && cancelled_.empty(); w++) {
    clock_.Advance(Millis(100));
    runtime_.Tick();
  }
  ASSERT_EQ(cancelled_.size(), 1u);
  EXPECT_EQ(cancelled_[0], 100u);
}

TEST_F(RuntimeTest, MinCancelIntervalSuppressesBackToBackCancels) {
  // Two culprits; only one cancellation may be issued per interval.
  runtime_.OnTaskRegistered(100, false);
  runtime_.OnTaskRegistered(101, false);
  runtime_.OnTaskRegistered(200, false);
  runtime_.OnRequestStart(200, 0, 0);
  runtime_.OnGet(100, lock_, 1);
  runtime_.OnGet(101, lock_, 1);
  runtime_.OnWaitBegin(200, lock_);
  clock_.Advance(Millis(100));
  runtime_.Tick();  // first cancel
  clock_.Advance(Millis(100));
  runtime_.Tick();  // suppressed: within min_cancel_interval (200ms)
  EXPECT_EQ(cancelled_.size(), 1u);
  EXPECT_GE(runtime_.stats().cancels_suppressed_interval, 1u);
  clock_.Advance(Millis(150));
  runtime_.Tick();  // now past the interval
  EXPECT_EQ(cancelled_.size(), 2u);
}

TEST_F(RuntimeTest, CancelledTaskNotCancelledTwice) {
  runtime_.OnTaskRegistered(100, false);
  runtime_.OnTaskRegistered(200, false);
  runtime_.OnRequestStart(200, 0, 0);
  runtime_.OnGet(100, lock_, 1);
  runtime_.OnWaitBegin(200, lock_);
  clock_.Advance(Millis(100));
  runtime_.Tick();
  ASSERT_EQ(cancelled_.size(), 1u);
  // Culprit ignores the cancel (keeps holding); next eligible window must not
  // target it again (kMaxCancelsPerTask = 1), and no other task has gain.
  clock_.Advance(Millis(300));
  runtime_.Tick();
  EXPECT_EQ(cancelled_.size(), 1u);
  EXPECT_GE(runtime_.stats().cancels_suppressed_no_victim, 1u);
}

TEST_F(RuntimeTest, ReRegisteredCancelledKeyIsNonCancellable) {
  runtime_.OnTaskRegistered(100, false);
  runtime_.OnTaskRegistered(200, false);
  runtime_.OnRequestStart(200, 0, 0);
  runtime_.OnGet(100, lock_, 1);
  runtime_.OnWaitBegin(200, lock_);
  clock_.Advance(Millis(100));
  runtime_.Tick();
  ASSERT_EQ(cancelled_.size(), 1u);
  // The app frees the cancelled task and re-executes it under the same key.
  runtime_.OnTaskFreed(100);
  runtime_.OnTaskRegistered(100, false);
  EXPECT_FALSE(runtime_.FindTask(100)->cancellable);
}

// Regression: cancelled_keys_ used to grow forever when cancelled clients
// never retried (entries were only erased by a re-registration). The memo now
// ages out after reexec_calm_windows calm windows, with every insertion,
// §4 consumption, and eviction counted.
TEST_F(RuntimeTest, CancelledKeyMemoAgesOutAfterSustainedCalm) {
  runtime_.OnTaskRegistered(100, false);
  runtime_.OnTaskRegistered(200, false);
  runtime_.OnRequestStart(200, 0, 0);
  runtime_.OnGet(100, lock_, 1);
  runtime_.OnWaitBegin(200, lock_);
  clock_.Advance(Millis(100));
  runtime_.Tick();
  ASSERT_EQ(cancelled_.size(), 1u);
  EXPECT_EQ(runtime_.cancelled_key_count(), 1u);
  EXPECT_EQ(runtime_.stats().cancelled_keys_inserted, 1u);

  // The culprit complies and departs; the victim resumes. The client never
  // retries key 100.
  runtime_.OnWaitEnd(200, lock_);
  runtime_.OnFree(100, lock_, 1);
  runtime_.OnTaskFreed(100);
  runtime_.OnRequestEnd(200, /*latency=*/1000, 0, 0);

  for (int w = 0; w < runtime_.config().reexec_calm_windows - 1; w++) {
    HealthyWindow();
  }
  EXPECT_EQ(runtime_.cancelled_key_count(), 1u);  // horizon not yet reached
  HealthyWindow();
  EXPECT_EQ(runtime_.cancelled_key_count(), 0u);
  EXPECT_EQ(runtime_.stats().cancelled_keys_evicted, 1u);
  EXPECT_EQ(runtime_.stats().cancelled_keys_consumed, 0u);

  // A retry after the horizon starts a fresh fairness epoch: cancellable.
  runtime_.OnTaskRegistered(100, false);
  EXPECT_TRUE(runtime_.FindTask(100)->cancellable);
}

// The §4 consumption path still takes precedence over aging and is counted.
TEST_F(RuntimeTest, CancelledKeyMemoConsumedByReRegistration) {
  runtime_.OnTaskRegistered(100, false);
  runtime_.OnTaskRegistered(200, false);
  runtime_.OnRequestStart(200, 0, 0);
  runtime_.OnGet(100, lock_, 1);
  runtime_.OnWaitBegin(200, lock_);
  clock_.Advance(Millis(100));
  runtime_.Tick();
  ASSERT_EQ(cancelled_.size(), 1u);
  runtime_.OnTaskFreed(100);
  runtime_.OnTaskRegistered(100, false);  // prompt retry
  EXPECT_FALSE(runtime_.FindTask(100)->cancellable);
  EXPECT_EQ(runtime_.cancelled_key_count(), 0u);
  EXPECT_EQ(runtime_.stats().cancelled_keys_consumed, 1u);
  EXPECT_EQ(runtime_.stats().cancelled_keys_evicted, 0u);
}

// Regression: a second OnRequestStart under a live key used to silently
// clobber the prior ActiveRequest. It is now treated as an implicit end and
// counted, so key reuse is visible instead of skewing overdue_actives.
TEST_F(RuntimeTest, SecondRequestStartUnderLiveKeyCountsImplicitEnd) {
  runtime_.OnRequestStart(5, 0, 0);
  clock_.Advance(Millis(50));
  runtime_.OnRequestStart(5, 0, 0);  // implicit end of the first
  EXPECT_EQ(runtime_.stats().request_restarts, 1u);
  runtime_.OnRequestEnd(5, /*latency=*/1000, 0, 0);
  runtime_.OnRequestStart(5, 0, 0);  // fresh start after a real end
  EXPECT_EQ(runtime_.stats().request_restarts, 1u);
}

TEST_F(RuntimeTest, CancellationDisabledMeansDetectionOnly) {
  AtroposConfig cfg = TestConfig();
  cfg.cancellation_enabled = false;
  AtroposRuntime rt(&clock_, cfg);
  std::vector<uint64_t> cancels;
  // atropos-lint: allow(cancel-action-safety)
  rt.SetCancelAction([&](uint64_t key) { cancels.push_back(key); });
  ResourceId lk = rt.RegisterResource("l", ResourceClass::kLock);
  rt.OnTaskRegistered(100, false);
  rt.OnTaskRegistered(200, false);
  rt.OnRequestStart(200, 0, 0);
  rt.OnGet(100, lk, 1);
  rt.OnWaitBegin(200, lk);
  clock_.Advance(Millis(100));
  rt.Tick();
  EXPECT_TRUE(cancels.empty());
  EXPECT_GE(rt.stats().resource_overload_windows, 1u);
}

TEST_F(RuntimeTest, TimestampModeEscalatesUnderSuspectedOverload) {
  AtroposConfig cfg = TestConfig();
  cfg.timestamp_mode = TimestampMode::kSampled;
  AtroposRuntime rt(&clock_, cfg);
  ResourceId lk = rt.RegisterResource("l", ResourceClass::kLock);
  rt.OnTaskRegistered(100, false);
  rt.OnTaskRegistered(200, false);
  EXPECT_EQ(rt.effective_timestamp_mode(), TimestampMode::kSampled);
  rt.OnRequestStart(200, 0, 0);
  rt.OnGet(100, lk, 1);
  rt.OnWaitBegin(200, lk);
  clock_.Advance(Millis(100));
  rt.Tick();
  EXPECT_EQ(rt.effective_timestamp_mode(), TimestampMode::kPerEvent);
}

TEST_F(RuntimeTest, ReexecutionRecommendedAfterCalmWindows) {
  runtime_.OnTaskRegistered(1, false);
  for (int w = 0; w < runtime_.config().reexec_calm_windows - 1; w++) {
    HealthyWindow();
  }
  EXPECT_FALSE(runtime_.ReexecutionRecommended());
  HealthyWindow();
  EXPECT_TRUE(runtime_.ReexecutionRecommended());
}

TEST_F(RuntimeTest, ProgressBiasesVictimSelection) {
  // Two hogs on a memory pool: one nearly done, one just started. The one
  // just started must be cancelled (§3.4 future-gain argument).
  ResourceId pool = runtime_.RegisterResource("pool", ResourceClass::kMemory);
  runtime_.OnTaskRegistered(300, false);  // nearly done
  runtime_.OnTaskRegistered(301, false);  // just started
  runtime_.OnTaskRegistered(400, false);  // victim

  // Window 1: the hogs fill the pool (no contention yet).
  runtime_.OnGet(300, pool, 900);
  runtime_.OnProgress(300, 90, 100);
  runtime_.OnGet(301, pool, 600);
  runtime_.OnProgress(301, 10, 100);
  for (int i = 0; i < 20; i++) {
    runtime_.OnRequestEnd(9999, /*latency=*/900, 0, 0);  // healthy traffic
  }
  clock_.Advance(Millis(100));
  runtime_.Tick();
  EXPECT_TRUE(cancelled_.empty());

  // Window 2: every victim page get forces an eviction (thrashing), and
  // victim latency blows past the SLO with flat throughput.
  for (int i = 0; i < 20; i++) {
    runtime_.OnGet(400, pool, 1);
    runtime_.OnWaitBegin(400, pool);
    clock_.Advance(Millis(2));
    runtime_.OnWaitEnd(400, pool);
    runtime_.OnRequestEnd(9999, /*latency=*/5000, 0, 0);
  }
  clock_.Advance(Millis(60));
  runtime_.Tick();
  ASSERT_EQ(cancelled_.size(), 1u);
  EXPECT_EQ(cancelled_[0], 301u);
}

// Regression (found by the fuzzer's no-initiator config point): with neither
// a cancel action nor a control surface registered, a resource-overload
// window used to run victim selection and mark the victim cancelled —
// fairness bookkeeping advanced with no application ever observing the
// cancellation (§3.1: cancellation only routes through the app's safe
// initiator). The runtime must suppress the whole decision instead.
TEST(RuntimeNoInitiatorTest, NoCancelBookkeepingWithoutInitiator) {
  ManualClock clock(0);
  AtroposRuntime rt(&clock, TestConfig());  // no SetCancelAction/SetControlSurface
  ResourceId lk = rt.RegisterResource("l", ResourceClass::kLock);
  rt.OnTaskRegistered(100, false);
  rt.OnTaskRegistered(200, false);
  rt.OnRequestStart(200, 0, 0);
  rt.OnGet(100, lk, 1);
  rt.OnWaitBegin(200, lk);
  for (int w = 0; w < 3; w++) {
    clock.Advance(Millis(100));
    rt.Tick();
  }
  EXPECT_EQ(rt.stats().cancels_issued, 0u);
  EXPECT_GE(rt.stats().cancels_suppressed_no_initiator, 1u);
  // No fairness side effects: the would-be victim was never marked cancelled,
  // so a re-registration of its key stays cancellable.
  EXPECT_EQ(rt.FindTask(100)->cancel_count, 0);
  rt.OnTaskFreed(100);
  rt.OnTaskRegistered(100, false);
  EXPECT_TRUE(rt.FindTask(100)->cancellable);
}

// Conservation ledger behind the fuzzer's accounting oracles: every acquired
// unit ends up released, live-held, or leaked (folded in at task teardown);
// frees beyond holdings count as overfreed. The identity holds through all
// three paths.
TEST_F(RuntimeTest, AuditAccountingConservation) {
  runtime_.OnTaskRegistered(1, false);
  runtime_.OnTaskRegistered(2, false);
  runtime_.OnGet(1, lock_, 3);
  runtime_.OnFree(1, lock_, 1);   // 2 still held
  runtime_.OnGet(2, lock_, 2);
  runtime_.OnFree(2, lock_, 5);   // 3 overfreed
  runtime_.OnTaskFreed(2);

  auto rows = runtime_.AuditAccounting();
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0].acquired, 5u);
  EXPECT_EQ(rows[0].released, 6u);
  EXPECT_EQ(rows[0].overfreed, 3u);
  EXPECT_EQ(rows[0].live_held, 2u);
  EXPECT_EQ(rows[0].leaked, 0u);
  EXPECT_TRUE(rows[0].Balanced());

  // Task 1 departs still holding 2 units: they fold into the leak column and
  // the identity keeps holding.
  runtime_.OnTaskFreed(1);
  rows = runtime_.AuditAccounting();
  EXPECT_EQ(rows[0].leaked, 2u);
  EXPECT_EQ(rows[0].live_held, 0u);
  EXPECT_TRUE(rows[0].Balanced());
}

// A stale registration replaced under the same key retires its holdings into
// the ledger rather than dropping them.
TEST_F(RuntimeTest, StaleReplacementRetiresHoldings) {
  runtime_.OnTaskRegistered(1, false);
  runtime_.OnGet(1, lock_, 4);
  runtime_.OnTaskRegistered(1, false);  // replaces while 4 units held
  auto rows = runtime_.AuditAccounting();
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0].leaked, 4u);
  EXPECT_TRUE(rows[0].Balanced());
}

std::vector<FlightEvent> EventsOfKind(const FlightRecorder& recorder, ObsEventKind kind) {
  std::vector<FlightEvent> out;
  recorder.ForEach([&](const FlightEvent& ev) {
    if (ev.kind == kind) {
      out.push_back(ev);
    }
  });
  return out;
}

// Candidates are scored only when a victim is being chosen: a queue flagged
// window after window while the detector says Normal records no policy
// decision, and on the suspected-overload window the recorded candidates are
// exactly what a fresh estimate-and-score of that Tick's books yields.
TEST(RuntimeSelectionTest, CandidatesAreScoredOnlyWhenAVictimIsChosen) {
  ManualClock clock(0);
  const AtroposConfig config = TestConfig();
  AtroposRuntime runtime(&clock, config);
  FlightRecorder recorder;
  runtime.SetRecorder(&recorder);
  int cancels = 0;
  uint64_t cancelled_key = 0;
  runtime.SetCancelAction([&](uint64_t key) {
    cancels++;
    cancelled_key = key;
  });
  const ResourceId lock = runtime.RegisterResource("lock", ResourceClass::kLock);
  const ResourceId queue = runtime.RegisterResource("queue", ResourceClass::kQueue);

  // Four tasks parked in the queue: open waits, no holds.
  for (uint64_t key = 300; key < 304; key++) {
    runtime.OnTaskRegistered(key, false);
    runtime.OnWaitBegin(key, queue);
  }
  for (int w = 0; w < 5; w++) {
    for (int i = 0; i < 50; i++) {
      runtime.OnRequestEnd(9999, /*latency=*/900, 0, 0);
    }
    clock.Advance(Millis(100));
    runtime.Tick();
    ASSERT_EQ(runtime.last_metrics().size(), 2u);
    EXPECT_TRUE(runtime.last_metrics()[1].overloaded) << "window " << w;
  }
  EXPECT_EQ(runtime.stats().suspected_overload_windows, 0u);
  EXPECT_TRUE(EventsOfKind(recorder, ObsEventKind::kPolicyDecision).empty());

  // A lock holder stalls a waiter and latency blows past the SLO at flat
  // throughput: the detector suspects overload and a victim is chosen.
  runtime.OnTaskRegistered(100, false);
  runtime.OnTaskRegistered(200, false);
  runtime.OnGet(100, lock, 1);
  runtime.OnWaitBegin(200, lock);
  for (int i = 0; i < 20; i++) {
    runtime.OnRequestEnd(9999, /*latency=*/50000, 0, 0);
  }
  clock.Advance(Millis(100));

  // The same books, estimated and scored just before the Tick.
  const TimeMicros now = clock.NowMicros();
  Estimator fresh(config);
  fresh.SetCalibrating(false);
  fresh.Estimate(runtime.ledger(), runtime.window().ExecTimeFloored(now),
                 runtime.ledger().window_start(), now);
  const PolicyInput want = fresh.ScoreCandidates(runtime.ledger());
  std::map<TaskId, uint64_t> key_of;
  for (uint64_t key : {100, 200, 300, 301, 302, 303}) {
    key_of[runtime.FindTask(key)->id] = key;
  }

  runtime.Tick();
  EXPECT_EQ(runtime.stats().resource_overload_windows, 1u);
  EXPECT_EQ(cancels, 1);
  EXPECT_EQ(cancelled_key, 100u);

  const std::vector<FlightEvent> decisions =
      EventsOfKind(recorder, ObsEventKind::kPolicyDecision);
  ASSERT_EQ(decisions.size(), 1u);
  EXPECT_EQ(decisions[0].label, "victim_selected");
  EXPECT_EQ(decisions[0].key, 100u);
  const std::vector<ObsCandidateSample>& got = decisions[0].candidates;
  ASSERT_EQ(want.resources.size(), 2u);
  ASSERT_EQ(got.size(), 6u);
  ASSERT_EQ(want.candidates.size(), got.size());
  for (size_t i = 0; i < got.size(); i++) {
    SCOPED_TRACE(i);
    EXPECT_EQ(got[i].key, key_of.at(want.candidates[i].task));
    EXPECT_EQ(got[i].cancellable, want.candidates[i].cancellable);
    EXPECT_EQ(got[i].gains, want.candidates[i].gains);
  }
}

}  // namespace
}  // namespace atropos
