// Unit tests for the reimplemented baseline controllers.

#include <gtest/gtest.h>

#include "src/baselines/darc.h"
#include "src/baselines/parties.h"
#include "src/baselines/pbox.h"
#include "src/baselines/protego.h"
#include "src/common/clock.h"

namespace atropos {
namespace {

// Records control-surface actions.
struct RecordingSurface : ControlSurface {
  std::vector<std::pair<uint64_t, CancelReason>> cancels;
  std::vector<std::pair<uint64_t, double>> throttles;
  std::vector<std::pair<int, int>> reservations;
  std::vector<std::pair<int, double>> shares;

  void CancelTask(uint64_t key, CancelReason reason) override {
    cancels.emplace_back(key, reason);
  }
  void ThrottleTask(uint64_t key, double factor) override { throttles.emplace_back(key, factor); }
  void SetTypeReservation(int type, int workers) override {
    reservations.emplace_back(type, workers);
  }
  void SetClientShare(int cls, double share) override { shares.emplace_back(cls, share); }
};

// --------------------------------------------------------------------------
// Protego

class ProtegoTest : public ::testing::Test {
 protected:
  BaselineConfig Config() {
    BaselineConfig cfg;
    cfg.baseline_p99 = 1000;  // SLO = 1200 us, drop threshold = 600 us
    return cfg;
  }
  ManualClock clock_;
  RecordingSurface surface_;
};

TEST_F(ProtegoTest, DropsSloClassRequestWithLongLockWait) {
  Protego protego(&clock_, &surface_, Config());
  ResourceId lock = protego.RegisterResource("l", ResourceClass::kLock);
  protego.OnRequestStart(1, 0, 0);
  protego.OnWaitBegin(1, lock);
  clock_.Advance(Millis(5));
  protego.Tick();
  ASSERT_EQ(surface_.cancels.size(), 1u);
  EXPECT_EQ(surface_.cancels[0].first, 1u);
  EXPECT_EQ(surface_.cancels[0].second, CancelReason::kVictimDrop);
}

TEST_F(ProtegoTest, IgnoresNonSloClassWaiters) {
  Protego protego(&clock_, &surface_, Config());
  ResourceId lock = protego.RegisterResource("l", ResourceClass::kLock);
  protego.OnRequestStart(1, 0, /*client_class=*/1);  // batch traffic
  protego.OnWaitBegin(1, lock);
  clock_.Advance(Millis(5));
  protego.Tick();
  EXPECT_TRUE(surface_.cancels.empty());
}

TEST_F(ProtegoTest, IgnoresNonLockResources) {
  Protego protego(&clock_, &surface_, Config());
  ResourceId pool = protego.RegisterResource("p", ResourceClass::kMemory);
  protego.OnRequestStart(1, 0, 0);
  protego.OnWaitBegin(1, pool);
  clock_.Advance(Millis(5));
  protego.Tick();
  EXPECT_TRUE(surface_.cancels.empty());  // Protego sees locks only (§2.2)
}

TEST_F(ProtegoTest, ShortWaitsAreNotDropped) {
  Protego protego(&clock_, &surface_, Config());
  ResourceId lock = protego.RegisterResource("l", ResourceClass::kLock);
  protego.OnRequestStart(1, 0, 0);
  protego.OnWaitBegin(1, lock);
  clock_.Advance(100);  // < 600 us threshold
  protego.Tick();
  EXPECT_TRUE(surface_.cancels.empty());
}

TEST_F(ProtegoTest, AdmissionShedsWhileSloViolated) {
  Protego protego(&clock_, &surface_, Config());
  // Report violating completions, then ramp the shed probability.
  for (int w = 0; w < 5; w++) {
    for (int i = 0; i < 50; i++) {
      protego.OnRequestEnd(100 + static_cast<uint64_t>(i), /*latency=*/5000, 0, 0);
    }
    clock_.Advance(Millis(100));
    protego.Tick();
  }
  int admitted = 0;
  for (int i = 0; i < 1000; i++) {
    admitted += protego.AdmitRequest(static_cast<uint64_t>(i), 0, 0) ? 1 : 0;
  }
  EXPECT_LT(admitted, 700);  // a large fraction shed
  EXPECT_GT(protego.drops_issued(), 0u);

  // Healthy windows decay the shedding back to zero.
  for (int w = 0; w < 20; w++) {
    for (int i = 0; i < 50; i++) {
      protego.OnRequestEnd(100 + static_cast<uint64_t>(i), /*latency=*/900, 0, 0);
    }
    clock_.Advance(Millis(100));
    protego.Tick();
  }
  admitted = 0;
  for (int i = 0; i < 100; i++) {
    admitted += protego.AdmitRequest(static_cast<uint64_t>(i), 0, 0) ? 1 : 0;
  }
  EXPECT_EQ(admitted, 100);
}

TEST_F(ProtegoTest, OnUsageCreditsReportedWaitDuration) {
  Protego protego(&clock_, &surface_, Config());
  ResourceId lock = protego.RegisterResource("l", ResourceClass::kLock);
  protego.OnRequestStart(1, 0, 0);
  // After-the-fact report: the request already waited 5 ms on the lock. The
  // clock never advances, so a zero-width OnWaitBegin/OnWaitEnd lowering
  // would record 0 us and never drop.
  protego.OnUsage(1, lock, /*waited=*/Millis(5), /*used=*/0);
  protego.Tick();
  ASSERT_EQ(surface_.cancels.size(), 1u);
  EXPECT_EQ(surface_.cancels[0].first, 1u);
  EXPECT_EQ(surface_.cancels[0].second, CancelReason::kVictimDrop);
}

// --------------------------------------------------------------------------
// pBox

TEST(PBoxTest, PenalizesTopHolderUnderContention) {
  ManualClock clock;
  RecordingSurface surface;
  PBox pbox(&clock, &surface);
  ResourceId lock = pbox.RegisterResource("l", ResourceClass::kLock);
  pbox.OnTaskRegistered(1, false, true);  // hog
  pbox.OnTaskRegistered(2, false, true);  // waiter
  pbox.OnGet(1, lock, 1);
  pbox.OnWaitBegin(2, lock);
  clock.Advance(Millis(50));
  pbox.OnWaitEnd(2, lock);
  clock.Advance(Millis(50));
  pbox.Tick();
  ASSERT_EQ(surface.throttles.size(), 1u);
  EXPECT_EQ(surface.throttles[0].first, 1u);
  EXPECT_GT(surface.throttles[0].second, 1.0);
  EXPECT_EQ(pbox.penalties_issued(), 1u);
}

TEST(PBoxTest, OnUsageCreditsReportedDurations) {
  ManualClock clock;
  RecordingSurface surface;
  PBox pbox(&clock, &surface);
  ResourceId io = pbox.RegisterResource("io", ResourceClass::kIo);
  pbox.OnTaskRegistered(1, false, true);  // hog
  pbox.OnTaskRegistered(2, false, true);  // waiter
  // After-the-fact reports from an IO adapter: the hog used the resource for
  // 80 ms, the waiter lost 50 ms to it. The wall clock only moves between the
  // reports and the tick, so the old OnGet/OnWaitBegin-bracket lowering would
  // observe both durations as 0 and never penalize.
  pbox.OnUsage(1, io, /*waited=*/0, /*used=*/Millis(80));
  pbox.OnUsage(2, io, /*waited=*/Millis(50), /*used=*/0);
  clock.Advance(Millis(100));
  pbox.Tick();
  ASSERT_EQ(surface.throttles.size(), 1u);
  EXPECT_EQ(surface.throttles[0].first, 1u);
  EXPECT_EQ(pbox.penalties_issued(), 1u);
}

TEST(PBoxTest, LiftsPenaltiesAfterCalm) {
  ManualClock clock;
  RecordingSurface surface;
  PBox pbox(&clock, &surface);
  ResourceId lock = pbox.RegisterResource("l", ResourceClass::kLock);
  pbox.OnTaskRegistered(1, false, true);
  pbox.OnTaskRegistered(2, false, true);
  pbox.OnGet(1, lock, 1);
  pbox.OnWaitBegin(2, lock);
  clock.Advance(Millis(90));
  pbox.OnWaitEnd(2, lock);
  clock.Advance(Millis(10));
  pbox.Tick();
  ASSERT_EQ(surface.throttles.size(), 1u);
  // Three calm windows later the penalty is lifted (factor back to 1.0).
  for (int w = 0; w < 2; w++) {
    clock.Advance(Millis(100));
    pbox.Tick();
  }
  ASSERT_EQ(surface.throttles.size(), 1u);
  clock.Advance(Millis(100));
  pbox.Tick();
  ASSERT_EQ(surface.throttles.size(), 2u);
  EXPECT_DOUBLE_EQ(surface.throttles[1].second, 1.0);
}

TEST(PBoxTest, NeverCancels) {
  ManualClock clock;
  RecordingSurface surface;
  PBox pbox(&clock, &surface);
  ResourceId lock = pbox.RegisterResource("l", ResourceClass::kLock);
  pbox.OnTaskRegistered(1, false, true);
  pbox.OnGet(1, lock, 1);
  for (int w = 0; w < 20; w++) {
    pbox.OnWaitBegin(2, lock);
    clock.Advance(Millis(90));
    pbox.OnWaitEnd(2, lock);
    clock.Advance(Millis(10));
    pbox.Tick();
  }
  EXPECT_TRUE(surface.cancels.empty());
}

// --------------------------------------------------------------------------
// DARC

TEST(DarcTest, ReservesWorkersWhenHeavyTypeExists) {
  ManualClock clock;
  RecordingSurface surface;
  DarcConfig cfg;
  cfg.total_workers = 16;
  Darc darc(&clock, &surface, cfg);
  for (int i = 0; i < 50; i++) {
    darc.OnRequestEnd(1, 1000, /*type=*/0, 0);     // short type
    darc.OnRequestEnd(2, 500'000, /*type=*/5, 0);  // heavy type
  }
  darc.Tick();
  ASSERT_EQ(surface.reservations.size(), 1u);
  EXPECT_EQ(surface.reservations[0].first, 0);   // reserve for the short type
  EXPECT_EQ(surface.reservations[0].second, 12);  // 75% of 16
}

TEST(DarcTest, NoReservationForHomogeneousWorkload) {
  ManualClock clock;
  RecordingSurface surface;
  Darc darc(&clock, &surface, DarcConfig{});
  for (int i = 0; i < 50; i++) {
    darc.OnRequestEnd(1, 1000, 0, 0);
    darc.OnRequestEnd(2, 1500, 1, 0);  // similar service time
  }
  darc.Tick();
  EXPECT_TRUE(surface.reservations.empty());
}

TEST(DarcTest, WaitsForEnoughSamples) {
  ManualClock clock;
  RecordingSurface surface;
  Darc darc(&clock, &surface, DarcConfig{});
  darc.OnRequestEnd(1, 1000, 0, 0);
  darc.OnRequestEnd(2, 900'000, 5, 0);
  darc.Tick();
  EXPECT_TRUE(surface.reservations.empty());
}

// --------------------------------------------------------------------------
// PARTIES

TEST(PartiesTest, ShiftsShareTowardViolatingClass) {
  ManualClock clock;
  RecordingSurface surface;
  BaselineConfig cfg;
  cfg.baseline_p99 = 1000;
  Parties parties(&clock, &surface, cfg);
  // Class 0 violates its SLO; class 1 has slack. The first window only
  // settles; the second adjusts.
  for (int w = 0; w < 2; w++) {
    for (int i = 0; i < 50; i++) {
      parties.OnRequestEnd(1, 5000, 0, /*class=*/0);
      parties.OnRequestEnd(2, 500, 0, /*class=*/1);
    }
    clock.Advance(Millis(100));
    parties.Tick();
    ASSERT_EQ(surface.shares.size(), w == 0 ? 0u : 2u);
  }
  EXPECT_GT(parties.ShareOf(0), parties.ShareOf(1));
  EXPECT_EQ(parties.adjustments(), 1u);
}

TEST(PartiesTest, RespectsMinimumShare) {
  ManualClock clock;
  RecordingSurface surface;
  BaselineConfig cfg;
  cfg.baseline_p99 = 1000;
  Parties parties(&clock, &surface, cfg);
  for (int round = 0; round < 20; round++) {
    for (int i = 0; i < 50; i++) {
      parties.OnRequestEnd(1, 5000, 0, 0);
      parties.OnRequestEnd(2, 500, 0, 1);
    }
    clock.Advance(Millis(100));
    parties.Tick();
  }
  EXPECT_GE(parties.ShareOf(1), 0.099);
}

TEST(PartiesTest, NoAdjustmentWhenHealthy) {
  ManualClock clock;
  RecordingSurface surface;
  BaselineConfig cfg;
  cfg.baseline_p99 = 1000;
  Parties parties(&clock, &surface, cfg);
  for (int w = 0; w < 2; w++) {
    for (int i = 0; i < 50; i++) {
      parties.OnRequestEnd(1, 900, 0, 0);
      parties.OnRequestEnd(2, 900, 0, 1);
    }
    clock.Advance(Millis(100));
    parties.Tick();
  }
  EXPECT_TRUE(surface.shares.empty());
}

}  // namespace
}  // namespace atropos
