#include "src/atropos/estimator.h"

#include <iterator>
#include <memory>

#include <gtest/gtest.h>

#include "src/common/clock.h"

namespace atropos {
namespace {

// Tests stage ledger state directly through the Mutable* accessors (no stats
// side effects), then run the estimator over the ledger's books. Task keys
// map to ledger-assigned ids via FindTask; candidate order is the ledger's
// live list, i.e. registration order.
class EstimatorTest : public ::testing::Test {
 protected:
  EstimatorTest() {
    config_.contention_threshold = 0.10;
    ledger_ = std::make_unique<TaskLedger>(/*start=*/0, config_, &stats_);
  }

  void AddTask(uint64_t key, bool cancellable = true) {
    ledger_->RegisterTask(key, /*background=*/false, cancellable, /*now=*/0);
  }

  ResourceId AddResource(ResourceClass cls) {
    return ledger_->RegisterResource("r", cls);
  }

  TaskRecord& Task(uint64_t key) { return *ledger_->MutableTask(key); }
  TaskId IdOf(uint64_t key) { return ledger_->FindTask(key)->id; }
  TaskResourceUsage& Usage(uint64_t key, ResourceId rid) {
    return *ledger_->MutableUsage(key, rid);
  }
  ResourceRecord& Resource(ResourceId rid) { return *ledger_->MutableResource(rid); }

  // The per-resource step followed by the per-task gain step, as the
  // runtime runs them on a selection window.
  Estimator::Output Estimate(TimeMicros exec_time, TimeMicros window_start,
                             TimeMicros now) {
    Estimator est(config_);
    est.SetCalibrating(false);
    const Estimator::Output& out = est.Estimate(*ledger_, exec_time, window_start, now);
    est.ScoreCandidates(*ledger_);
    return out;
  }

  AtroposConfig config_;
  AtroposStats stats_;
  std::unique_ptr<TaskLedger> ledger_;
};

TEST_F(EstimatorTest, IdleSystemHasNoContention) {
  AddResource(ResourceClass::kLock);
  AddTask(10);
  auto out = Estimate(/*exec_time=*/Millis(100), /*window_start=*/0,
                      /*now=*/Millis(100));
  ASSERT_EQ(out.all_resources.size(), 1u);
  EXPECT_FALSE(out.resource_overload);
  EXPECT_EQ(out.all_resources[0].contention_norm, 0.0);
}

TEST_F(EstimatorTest, LockWaitTimeDrivesContention) {
  ResourceId lock = AddResource(ResourceClass::kLock);
  AddTask(10);
  AddTask(11);
  // Holder has held the lock since t=0; waiter blocked since t=10ms.
  Usage(10, lock).acquired = 1;
  Usage(10, lock).active_units = 1;
  Usage(10, lock).hold_started_at = 0;
  Usage(11, lock).waiting = true;
  Usage(11, lock).wait_started_at = Millis(10);

  auto out = Estimate(Millis(100), 0, Millis(100));
  const ResourceMetrics& m = out.all_resources[0];
  // D_r = 90ms of waiting; T_base = 100ms -> C_r = 90/(100+90) = 0.474.
  EXPECT_NEAR(m.contention_norm, 90.0 / 190.0, 0.01);
  EXPECT_TRUE(m.overloaded);
  EXPECT_TRUE(out.resource_overload);
}

TEST_F(EstimatorTest, HolderGainsExceedWaiterGains) {
  ResourceId lock = AddResource(ResourceClass::kLock);
  AddTask(10);
  AddTask(11);
  Usage(10, lock).acquired = 1;
  Usage(10, lock).active_units = 1;
  Usage(10, lock).hold_started_at = 0;
  Usage(11, lock).waiting = true;
  Usage(11, lock).wait_started_at = Millis(10);

  auto out = Estimate(Millis(100), 0, Millis(100));
  ASSERT_EQ(out.policy_input.candidates.size(), 2u);
  const auto& holder_cand = out.policy_input.candidates[0];
  const auto& waiter_cand = out.policy_input.candidates[1];
  ASSERT_EQ(holder_cand.task, IdOf(10));
  EXPECT_GT(holder_cand.gains[0], waiter_cand.gains[0]);
  EXPECT_EQ(waiter_cand.gains[0], 0.0);  // the victim holds nothing
}

TEST_F(EstimatorTest, MemoryEvictionRatioDrivesContention) {
  ResourceId pool = AddResource(ResourceClass::kMemory);
  AddTask(10);
  // Window saw 100 page gets and 60 evictions, with 50ms of eviction stalls
  // (closed waits land in the resource's window counters).
  Resource(pool).window.gets = 100;
  Resource(pool).window.slow_events = 60;
  Resource(pool).window.wait_time = Millis(50);
  Usage(10, pool).acquired = 500;
  Usage(10, pool).released = 100;
  Usage(10, pool).slow_events = 60;

  auto out = Estimate(Millis(100), 0, Millis(100));
  const ResourceMetrics& m = out.all_resources[0];
  EXPECT_NEAR(m.contention_raw, 0.6, 1e-9);
  // D_r = 50ms * 0.6 = 30ms -> C_r = 30/(100+30) = 0.231.
  EXPECT_NEAR(m.contention_norm, 30.0 / 130.0, 0.01);
  EXPECT_TRUE(m.overloaded);
}

TEST_F(EstimatorTest, FutureGainPrefersEarlyProgressTask) {
  ResourceId pool = AddResource(ResourceClass::kMemory);
  Resource(pool).window.gets = 100;
  Resource(pool).window.slow_events = 100;
  Resource(pool).window.wait_time = Millis(20);
  // §3.4: query A 90% done holding 400 pages; query B 10% done holding 300.
  AddTask(10);
  Usage(10, pool).acquired = 400;
  Task(10).has_progress = true;
  Task(10).progress_done = 90;
  Task(10).progress_total = 100;
  AddTask(11);
  Usage(11, pool).acquired = 300;
  Task(11).has_progress = true;
  Task(11).progress_done = 10;
  Task(11).progress_total = 100;

  auto out = Estimate(Millis(100), 0, Millis(100));
  ASSERT_TRUE(out.resource_overload);
  const auto& ca = out.policy_input.candidates[0];
  const auto& cb = out.policy_input.candidates[1];
  // gain(A) = 400 * (0.1/0.9) ≈ 44; gain(B) = 300 * (0.9/0.1) = 2700.
  EXPECT_LT(ca.gains[0], cb.gains[0]);
  // But by current usage, A holds more.
  EXPECT_GT(ca.current_usage[0], cb.current_usage[0]);
}

TEST_F(EstimatorTest, GainsNormalizedToUnitRange) {
  ResourceId pool = AddResource(ResourceClass::kMemory);
  Resource(pool).window.gets = 10;
  Resource(pool).window.slow_events = 10;
  Resource(pool).window.wait_time = Millis(50);
  AddTask(10);
  Usage(10, pool).acquired = 100000;
  AddTask(11);
  Usage(11, pool).acquired = 10;

  auto out = Estimate(Millis(100), 0, Millis(100));
  for (const auto& c : out.policy_input.candidates) {
    for (double g : c.gains) {
      EXPECT_GE(g, 0.0);
      EXPECT_LE(g, 1.0);
    }
  }
  EXPECT_DOUBLE_EQ(out.policy_input.candidates[0].gains[0], 1.0);
}

TEST_F(EstimatorTest, OpenWaitsAreClippedToTheWindow) {
  ResourceId lock = AddResource(ResourceClass::kLock);
  AddTask(11);
  Usage(11, lock).waiting = true;
  Usage(11, lock).wait_started_at = 0;

  // First window [0, 100ms): 100ms of open waiting -> C = 100/(100+100).
  auto out1 = Estimate(Millis(100), 0, Millis(100));
  EXPECT_NEAR(out1.all_resources[0].contention_norm, 0.5, 0.01);
  // Second window [100ms, 200ms): only the new 100ms counts.
  auto out2 = Estimate(Millis(100), Millis(100), Millis(200));
  EXPECT_NEAR(out2.all_resources[0].contention_norm, 0.5, 0.01);
  EXPECT_EQ(out2.all_resources[0].delay, Millis(100));
}

TEST_F(EstimatorTest, ClosedWaitsFromFreedTasksStillCount) {
  // A victim waited 60ms and completed (its task record is gone); the
  // runtime folded the closed wait into the resource window counters.
  ResourceId lock = AddResource(ResourceClass::kLock);
  Resource(lock).window.wait_time = Millis(60);
  Resource(lock).window.slow_events = 30;
  AddTask(10);
  Usage(10, lock).acquired = 1;
  Usage(10, lock).active_units = 1;
  Usage(10, lock).hold_started_at = 0;

  auto out = Estimate(Millis(100), 0, Millis(100));
  EXPECT_NEAR(out.all_resources[0].contention_norm, 60.0 / 160.0, 0.01);
  EXPECT_TRUE(out.resource_overload);
  // The live holder is the gain candidate.
  ASSERT_FALSE(out.policy_input.candidates.empty());
  EXPECT_GT(out.policy_input.candidates[0].gains[0], 0.0);
}

TEST_F(EstimatorTest, NonCancellableTasksFlaggedInPolicyInput) {
  ResourceId pool = AddResource(ResourceClass::kMemory);
  Resource(pool).window.gets = 10;
  Resource(pool).window.slow_events = 10;
  Resource(pool).window.wait_time = Millis(50);
  AddTask(10, /*cancellable=*/false);
  Usage(10, pool).acquired = 100;

  auto out = Estimate(Millis(100), 0, Millis(100));
  ASSERT_EQ(out.policy_input.candidates.size(), 1u);
  EXPECT_FALSE(out.policy_input.candidates[0].cancellable);
}

TEST_F(EstimatorTest, QueueClassUsesWaitHoldRatio) {
  ResourceId queue = AddResource(ResourceClass::kQueue);
  AddTask(10);
  // Tasks waited 90ms in the queue this window, executed 10ms after leaving.
  Resource(queue).window.wait_time = Millis(90);
  Resource(queue).window.hold_time = Millis(10);

  auto out = Estimate(Millis(100), 0, Millis(100));
  EXPECT_NEAR(out.all_resources[0].contention_raw, 9.0, 0.01);
  EXPECT_NEAR(out.all_resources[0].contention_norm, 90.0 / 190.0, 0.01);
}

// The gain step is not part of the per-window step: a window that scores
// nothing must not expose the rows an earlier window scored.
TEST_F(EstimatorTest, EstimateAloneLeavesCandidatesEmpty) {
  ResourceId lock = AddResource(ResourceClass::kLock);
  AddTask(10);
  AddTask(11);
  Usage(10, lock).acquired = 1;
  Usage(10, lock).active_units = 1;
  Usage(10, lock).hold_started_at = 0;
  Usage(11, lock).waiting = true;
  Usage(11, lock).wait_started_at = Millis(10);

  Estimator est(config_);
  est.SetCalibrating(false);
  const Estimator::Output& first = est.Estimate(*ledger_, Millis(100), 0, Millis(100));
  ASSERT_TRUE(first.resource_overload);
  EXPECT_TRUE(first.policy_input.candidates.empty());
  EXPECT_EQ(est.ScoreCandidates(*ledger_).candidates.size(), 2u);

  // The next window still flags the lock, but nothing selects.
  const Estimator::Output& second =
      est.Estimate(*ledger_, Millis(100), Millis(100), Millis(200));
  EXPECT_TRUE(second.resource_overload);
  ASSERT_EQ(second.policy_input.resources.size(), 1u);
  EXPECT_TRUE(second.policy_input.candidates.empty());
}

// Estimate followed by ScoreCandidates reproduces, value for value, what the
// single-step estimator produced: pinned from it on a window that mixes two
// overloaded resources of different classes, a quiet one, progress reports,
// an untouched pair, a non-cancellable task, a task out of cancels and two
// tasks under the significance floor.
TEST_F(EstimatorTest, EstimateThenScoreMatchesTheCombinedOutput) {
  ResourceId lock = AddResource(ResourceClass::kLock);
  ResourceId pool = AddResource(ResourceClass::kMemory);
  AddResource(ResourceClass::kQueue);  // quiet: never an objective
  Resource(pool).window.gets = 100;
  Resource(pool).window.slow_events = 50;
  Resource(pool).window.wait_time = Millis(40);

  AddTask(10);  // lock holder since t=0, far along
  Usage(10, lock).acquired = 1;
  Usage(10, lock).active_units = 1;
  Usage(10, lock).hold_started_at = 0;
  Usage(10, pool).acquired = 300;
  Task(10).has_progress = true;
  Task(10).progress_done = 90;
  Task(10).progress_total = 100;
  AddTask(11);  // lock waiter, early
  Usage(11, lock).waiting = true;
  Usage(11, lock).wait_started_at = Millis(10);
  Usage(11, pool).acquired = 40;
  Task(11).has_progress = true;
  Task(11).progress_done = 10;
  Task(11).progress_total = 100;
  AddTask(12, /*cancellable=*/false);
  Usage(12, pool).acquired = 120;
  Usage(12, pool).released = 20;
  AddTask(13);  // touches nothing
  AddTask(14);  // below the memory floor
  Usage(14, pool).acquired = 2;
  AddTask(15);  // already cancelled once, held the lock for 60ms
  Usage(15, lock).hold_time = Millis(60);
  Task(15).cancel_count = kMaxCancelsPerTask;

  Estimator est(config_);
  est.SetCalibrating(false);
  const Estimator::Output& out = est.Estimate(*ledger_, Millis(100), 0, Millis(100));
  const PolicyInput& input = est.ScoreCandidates(*ledger_);
  ASSERT_EQ(&input, &out.policy_input);
  ASSERT_EQ(input.resources.size(), 2u);
  EXPECT_EQ(input.resources[0].id, lock);
  EXPECT_EQ(input.resources[1].id, pool);

  struct Row {
    uint64_t key;
    bool cancellable;
    double gains[2];
    double current[2];
  };
  const Row expected[] = {
      {10, true, {0.18518518518518512, 0.09259259259259256}, {1, 1}},
      {11, true, {0, 1}, {0, 0.13333333333333333}},
      {12, false, {0, 0.27777777777777779}, {0, 0.33333333333333331}},
      {13, false, {0, 0}, {0, 0}},
      {14, false, {0, 0.0055555555555555558}, {0, 0.0066666666666666671}},
      {15, false, {1, 0}, {0.59999999999999998, 0}},
  };
  ASSERT_EQ(input.candidates.size(), std::size(expected));
  for (size_t i = 0; i < std::size(expected); i++) {
    const PolicyInput::Candidate& c = input.candidates[i];
    SCOPED_TRACE(expected[i].key);
    EXPECT_EQ(c.task, IdOf(expected[i].key));
    EXPECT_EQ(c.cancellable, expected[i].cancellable);
    ASSERT_EQ(c.gains.size(), 2u);
    ASSERT_EQ(c.current_usage.size(), 2u);
    for (size_t r = 0; r < 2; r++) {
      EXPECT_EQ(c.gains[r], expected[i].gains[r]);
      EXPECT_EQ(c.current_usage[r], expected[i].current[r]);
    }
  }
}

}  // namespace
}  // namespace atropos
