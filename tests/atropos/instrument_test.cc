#include "src/atropos/instrument.h"

#include <gtest/gtest.h>

#include "src/sim/coro.h"
#include "src/testing/recording_controller.h"

namespace atropos {
namespace {

class InstrumentTest : public ::testing::Test {
 protected:
  Executor ex_;
  RecordingController ctl_;
};

Coro UseRwLock(Executor& ex, InstrumentedRwLock& lock, uint64_t key, bool exclusive,
               TimeMicros hold, std::vector<std::pair<TimeMicros, Status>>& log) {
  co_await BindExecutor{ex};
  // Two co_awaits in one ternary miscompile on GCC 12; keep them separate.
  Status s;
  if (exclusive) {
    s = co_await lock.AcquireExclusive(key, nullptr);
  } else {
    s = co_await lock.AcquireShared(key, nullptr);
  }
  log.emplace_back(ex.now(), s);
  if (s.ok()) {
    co_await Delay{ex, hold};
    if (exclusive) {
      lock.ReleaseExclusive(key);
    } else {
      lock.ReleaseShared(key);
    }
  }
}

TEST_F(InstrumentTest, RwLockUncontendedAcquireEmitsGetWithoutWait) {
  InstrumentedRwLock lock(ex_, &ctl_, 7);
  std::vector<std::pair<TimeMicros, Status>> log;
  UseRwLock(ex_, lock, 1, /*exclusive=*/false, 100, log);
  ex_.Run();
  EXPECT_EQ(ctl_.CountFor(TraceEventKind::kGet, 1), 1);
  EXPECT_EQ(ctl_.CountFor(TraceEventKind::kFree, 1), 1);
  // Fast path: no wait bracket emitted (Fig 8 instruments the slow path only).
  EXPECT_EQ(ctl_.CountFor(TraceEventKind::kWaitBegin, 1), 0);
}

TEST_F(InstrumentTest, RwLockContendedAcquireBracketsWait) {
  InstrumentedRwLock lock(ex_, &ctl_, 7);
  std::vector<std::pair<TimeMicros, Status>> log;
  UseRwLock(ex_, lock, 1, /*exclusive=*/true, 500, log);
  UseRwLock(ex_, lock, 2, /*exclusive=*/false, 10, log);
  ex_.Run();
  EXPECT_EQ(ctl_.CountFor(TraceEventKind::kWaitBegin, 2), 1);
  EXPECT_EQ(ctl_.CountFor(TraceEventKind::kWaitEnd, 2), 1);
  EXPECT_EQ(ctl_.CountFor(TraceEventKind::kGet, 2), 1);
  ASSERT_EQ(log.size(), 2u);
  EXPECT_EQ(log[1].first, 500u);
}

Coro UseMutex(Executor& ex, InstrumentedMutex& mu, uint64_t key, TimeMicros hold) {
  co_await BindExecutor{ex};
  Status s = co_await mu.Acquire(key, nullptr);
  if (s.ok()) {
    co_await Delay{ex, hold};
    mu.Release(key);
  }
}

TEST_F(InstrumentTest, MutexEmitsGetFreePairs) {
  InstrumentedMutex mu(ex_, &ctl_, 3);
  UseMutex(ex_, mu, 1, 50);
  UseMutex(ex_, mu, 2, 50);
  ex_.Run();
  EXPECT_EQ(ctl_.Count(TraceEventKind::kGet), 2);
  EXPECT_EQ(ctl_.Count(TraceEventKind::kFree), 2);
  EXPECT_EQ(ctl_.CountFor(TraceEventKind::kWaitBegin, 2), 1);  // second acquirer blocked
}

Coro UseSem(Executor& ex, InstrumentedSemaphore& sem, uint64_t key, uint64_t units,
            TimeMicros hold) {
  co_await BindExecutor{ex};
  Status s = co_await sem.Acquire(key, nullptr, units);
  if (s.ok()) {
    co_await Delay{ex, hold};
    sem.Release(key, units);
  }
}

TEST_F(InstrumentTest, SemaphoreReportsUnits) {
  InstrumentedSemaphore sem(ex_, 4, &ctl_, 9);
  UseSem(ex_, sem, 1, 3, 100);
  ex_.Run();
  EXPECT_EQ(ctl_.SumAmount(TraceEventKind::kGet, 1), 1u);   // one get event per grant
  EXPECT_EQ(ctl_.SumAmount(TraceEventKind::kFree, 1), 3u);  // release reports units
}

// CPU/IO adapters report a completed wait+use as one kUsage event carrying
// both durations.
TEST_F(InstrumentTest, UsageReporterEmitsOneUsageEvent) {
  UsageReporter reporter(&ctl_, /*resource=*/5, /*key=*/1);
  reporter.OnUsage(/*waited=*/30, /*used=*/70);
  ASSERT_EQ(ctl_.events.size(), 1u);
  const TraceEvent& ev = ctl_.events[0];
  EXPECT_EQ(ev.kind, TraceEventKind::kUsage);
  EXPECT_EQ(ev.key, 1u);
  EXPECT_EQ(ev.resource, 5u);
  EXPECT_EQ(ev.a, 30u);
  EXPECT_EQ(ev.b, 70u);
}

TEST_F(InstrumentTest, NullTracerIsSafe) {
  InstrumentedRwLock lock(ex_, nullptr, 1);
  std::vector<std::pair<TimeMicros, Status>> log;
  UseRwLock(ex_, lock, 1, true, 10, log);
  ex_.Run();
  ASSERT_EQ(log.size(), 1u);
  EXPECT_TRUE(log[0].second.ok());
}

// --------------------------------------------------------------------------
// AdjustableLimiter

Coro UseLimiter(Executor& ex, AdjustableLimiter& lim, uint64_t key, TimeMicros hold,
                CancelToken* token, std::vector<std::pair<TimeMicros, Status>>& log) {
  co_await BindExecutor{ex};
  Status s = co_await lim.Acquire(key, token);
  log.emplace_back(ex.now(), s);
  if (s.ok()) {
    co_await Delay{ex, hold};
    lim.Release(key);
  }
}

TEST_F(InstrumentTest, LimiterEnforcesLimit) {
  AdjustableLimiter lim(ex_, 2);
  std::vector<std::pair<TimeMicros, Status>> log;
  for (uint64_t k = 1; k <= 4; k++) {
    UseLimiter(ex_, lim, k, 100, nullptr, log);
  }
  ex_.Run();
  ASSERT_EQ(log.size(), 4u);
  EXPECT_EQ(log[1].first, 0u);
  EXPECT_EQ(log[2].first, 100u);
  EXPECT_EQ(log[3].first, 100u);
}

TEST_F(InstrumentTest, RaisingLimitAdmitsWaiters) {
  AdjustableLimiter lim(ex_, 1);
  std::vector<std::pair<TimeMicros, Status>> log;
  UseLimiter(ex_, lim, 1, 1000, nullptr, log);
  UseLimiter(ex_, lim, 2, 10, nullptr, log);
  ex_.CallAt(200, [&] { lim.SetLimit(2); });
  ex_.Run();
  ASSERT_EQ(log.size(), 2u);
  EXPECT_EQ(log[1].first, 200u);  // admitted the moment the limit grew
}

TEST_F(InstrumentTest, LoweringLimitAppliesAsHoldersRelease) {
  AdjustableLimiter lim(ex_, 2);
  std::vector<std::pair<TimeMicros, Status>> log;
  UseLimiter(ex_, lim, 1, 100, nullptr, log);
  UseLimiter(ex_, lim, 2, 300, nullptr, log);
  ex_.CallAt(50, [&] { lim.SetLimit(1); });
  UseLimiter(ex_, lim, 3, 10, nullptr, log);  // queued at t=0
  ex_.Run();
  ASSERT_EQ(log.size(), 3u);
  // Key 3 admitted only when in_use drops below the new limit of 1: both
  // holders must finish (at 100 and 300).
  EXPECT_EQ(log[2].first, 300u);
}

TEST_F(InstrumentTest, LimiterCancellation) {
  AdjustableLimiter lim(ex_, 1);
  CancelToken token(ex_);
  std::vector<std::pair<TimeMicros, Status>> log;
  UseLimiter(ex_, lim, 1, 1000, nullptr, log);
  UseLimiter(ex_, lim, 2, 10, &token, log);
  ex_.CallAt(77, [&] { token.Cancel(); });
  ex_.Run();
  ASSERT_EQ(log.size(), 2u);
  EXPECT_TRUE(log[1].second.IsCancelled());
  EXPECT_EQ(log[1].first, 77u);
}

}  // namespace
}  // namespace atropos
