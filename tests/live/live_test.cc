// Unit tests for the live-threads execution mode: key packing, the cancel
// board (keyed delivery + stale-cancel races), the decision digest +
// cross-check, and the LiveServer lifecycle (complete / shed / targeted
// cancel / in-place waiter abort / shutdown-abort accounting).

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>

#include "src/atropos/capi.h"
#include "src/atropos/concurrent_frontend.h"
#include "src/live/cancel_board.h"
#include "src/live/decision_digest.h"
#include "src/live/live_app.h"
#include "src/live/live_clock.h"
#include "src/live/live_server.h"

namespace atropos {
namespace {

// ---------------------------------------------------------------------------
// Key packing.

TEST(LiveKeyTest, TypeRoundTripsThroughKey) {
  for (int type = 0; type < 4; type++) {
    for (uint64_t seq : {0ull, 1ull, 12345ull, (1ull << 48) - 1}) {
      EXPECT_EQ(TypeOfLiveKey(MakeLiveKey(type, seq)), type);
    }
  }
  // Keys of distinct (type, seq) pairs never collide within the seq space.
  EXPECT_NE(MakeLiveKey(0, 7), MakeLiveKey(1, 7));
  EXPECT_NE(MakeLiveKey(0, 7), MakeLiveKey(0, 8));
}

// ---------------------------------------------------------------------------
// Cancel board.

TEST(CancelBoardTest, DeliversToInFlightMissesOtherwise) {
  CancelBoard board(2);
  board.BeginTask(0, 42);
  EXPECT_FALSE(board.signal(0, 42).Raised());
  EXPECT_TRUE(board.RequestCancel(42, /*now=*/123));
  EXPECT_TRUE(board.signal(0, 42).Raised());
  EXPECT_EQ(board.cancel_time(0), 123u);
  EXPECT_FALSE(board.RequestCancel(99));  // not on any worker
  EXPECT_EQ(board.delivered(), 1u);
  EXPECT_EQ(board.missed(), 1u);
}

TEST(CancelBoardTest, StaleCancelCannotHitSuccessor) {
  CancelBoard board(1);
  board.BeginTask(0, 1);
  board.RequestCancel(1);  // cancel word now holds key 1
  board.EndTask(0);
  board.BeginTask(0, 2);  // next task must observe a clean signal
  EXPECT_FALSE(board.signal(0, 2).Raised());
  // Even without BeginTask's clear, the word holds key 1, which can never
  // match task 2's key — the keyed design is what closes the race below.
}

// The race the old boolean flag had: RequestCancel could observe task i on
// the slot, get descheduled across EndTask/BeginTask, and raise its flag
// against task i+1. With the keyed word, the delayed store still writes key
// i, which cannot match the successor's key. Run under TSan.
TEST(CancelBoardStressTest, StaleCancelNeverHitsSuccessor) {
  CancelBoard board(1);
  constexpr uint64_t kIters = 20'000;
  std::atomic<uint64_t> published{0};
  std::atomic<bool> misdelivered{false};

  std::thread worker([&] {
    for (uint64_t i = 1; i <= kIters; i++) {
      board.BeginTask(0, i);
      published.store(i, std::memory_order_release);
      // The canceller only ever targets key i-1: if this task sees its own
      // signal raised, a stale delivery crossed the task boundary.
      const CancelSignal sig = board.signal(0, i);
      for (int spin = 0; spin < 8; spin++) {
        if (sig.Raised()) {
          misdelivered.store(true);
          return;
        }
      }
      board.EndTask(0);
    }
  });
  std::thread canceller([&] {
    uint64_t last = 0;
    while (last < kIters && !misdelivered.load()) {
      const uint64_t cur = published.load(std::memory_order_acquire);
      if (cur > 1 && cur != last) {
        board.RequestCancel(cur - 1);  // always the *previous* task
        last = cur;
      }
      if (cur == kIters) {
        break;
      }
    }
  });
  worker.join();
  canceller.join();
  EXPECT_FALSE(misdelivered.load());
}

// ---------------------------------------------------------------------------
// Decision digest.

FlightEvent Ev(ObsEventKind kind, TimeMicros t, const std::string& label = "") {
  FlightEvent ev;
  ev.kind = kind;
  ev.time = t;
  ev.label = label;
  return ev;
}

TEST(DecisionDigestTest, NormalizeCountsKindsAndLabels) {
  std::vector<FlightEvent> events;
  events.push_back(Ev(ObsEventKind::kWindowClosed, Millis(100)));
  events.push_back(Ev(ObsEventKind::kWindowClosed, Millis(200)));
  events.push_back(Ev(ObsEventKind::kOverloadEntered, Millis(200)));
  FlightEvent snap = Ev(ObsEventKind::kContentionSnapshot, Millis(200));
  ObsResourceSample rs;
  rs.cls = "queue";
  rs.overloaded = true;
  snap.resources.push_back(rs);
  rs.cls = "lock";
  rs.overloaded = false;  // not flagged -> must not show up
  snap.resources.push_back(rs);
  events.push_back(snap);
  events.push_back(Ev(ObsEventKind::kPolicyDecision, Millis(250)));
  events.push_back(Ev(ObsEventKind::kCancelIssued, Millis(250), "script"));
  events.push_back(Ev(ObsEventKind::kCancelIssued, Millis(300), "script"));
  events.push_back(Ev(ObsEventKind::kCancelIssued, Millis(400), "static"));

  DecisionDigest d = NormalizeDecisions(events, Seconds(1.0));
  EXPECT_EQ(d.windows, 2u);
  EXPECT_EQ(d.overload_entered, 1u);
  EXPECT_EQ(d.snapshots, 1u);
  EXPECT_EQ(d.policy_decisions, 1u);
  EXPECT_EQ(d.cancels, 3u);
  EXPECT_EQ(d.cancels_by_label.at("script"), 2u);
  EXPECT_EQ(d.DominantCancelLabel(), "script");
  EXPECT_EQ(d.overloaded_classes.count("queue"), 1u);
  EXPECT_EQ(d.overloaded_classes.count("lock"), 0u);
  EXPECT_EQ(d.DominantOverloadedClass(), "queue");
  EXPECT_DOUBLE_EQ(d.first_cancel_frac, 0.25);
  EXPECT_DOUBLE_EQ(d.CancelRate(), 3.0);
}

TEST(DecisionDigestTest, NoCancelsLeavesFractionNegative) {
  DecisionDigest d = NormalizeDecisions({}, Seconds(1.0));
  EXPECT_EQ(d.cancels, 0u);
  EXPECT_LT(d.first_cancel_frac, 0.0);
  EXPECT_EQ(d.DominantCancelLabel(), "");
}

DecisionDigest CancellingDigest() {
  DecisionDigest d;
  d.duration_s = 10.0;
  d.windows = 100;
  d.overload_entered = 2;
  d.cancels = 8;
  d.cancels_by_label["script"] = 8;
  d.overloaded_classes["queue"] = 5;
  d.first_cancel_frac = 0.4;
  return d;
}

TEST(CrossCheckTest, MatchingDigestsPass) {
  CrossCheckReport r = CrossCheckDigests(CancellingDigest(), CancellingDigest());
  EXPECT_TRUE(r.pass);
  EXPECT_EQ(r.checks.size(), 5u);
  for (const CrossCheckReport::Check& c : r.checks) {
    EXPECT_TRUE(c.pass) << c.name << ": " << c.detail;
  }
}

TEST(CrossCheckTest, OverloadMismatchFails) {
  DecisionDigest sim = CancellingDigest();
  sim.overload_entered = 0;
  sim.cancels = 0;
  sim.cancels_by_label.clear();
  sim.first_cancel_frac = -1.0;
  CrossCheckReport r = CrossCheckDigests(CancellingDigest(), sim);
  EXPECT_FALSE(r.pass);
}

TEST(CrossCheckTest, CulpritLabelMismatchFails) {
  DecisionDigest sim = CancellingDigest();
  sim.cancels_by_label.clear();
  sim.cancels_by_label["range_read"] = 8;
  CrossCheckReport r = CrossCheckDigests(CancellingDigest(), sim);
  EXPECT_FALSE(r.pass);
}

TEST(CrossCheckTest, CancelRateBandIsRatioOrAbsoluteSlack) {
  // The rate check accepts a rate ratio within 4x OR an absolute count gap
  // within 3, whichever is more permissive. Rates differ from counts through
  // duration_s: live issues 8 cancels in 1 s (8/s).
  DecisionDigest live = CancellingDigest();
  live.duration_s = 1.0;
  DecisionDigest sim = CancellingDigest();
  sim.duration_s = 8.0;

  // 6 in 8 s: ratio 10.7 fails, gap 2 passes on the slack.
  sim.cancels = 6;
  sim.cancels_by_label["script"] = 6;
  EXPECT_TRUE(CrossCheckDigests(live, sim).pass);

  // 2 in 8 s: ratio 32 and gap 6 fail both arms.
  sim.cancels = 2;
  sim.cancels_by_label["script"] = 2;
  EXPECT_FALSE(CrossCheckDigests(live, sim).pass);

  // 20 in 8 s: gap 12 fails, ratio 3.2 passes on the band.
  sim.cancels = 20;
  sim.cancels_by_label["script"] = 20;
  EXPECT_TRUE(CrossCheckDigests(live, sim).pass);
}

TEST(CrossCheckTest, SimResourceClassMustAppearInLiveSet) {
  DecisionDigest sim = CancellingDigest();
  sim.overloaded_classes.clear();
  sim.overloaded_classes["lock"] = 3;
  CrossCheckReport r = CrossCheckDigests(CancellingDigest(), sim);
  EXPECT_FALSE(r.pass);  // live flagged {queue}, sim blames lock

  DecisionDigest live = CancellingDigest();
  live.overloaded_classes["lock"] = 1;  // live flagged {queue, lock}
  CrossCheckReport r2 = CrossCheckDigests(live, sim);
  EXPECT_TRUE(r2.pass);
}

// ---------------------------------------------------------------------------
// LiveServer lifecycle. Each fixture instance installs its own frontend so
// the capi default resources resolve before the server is built.

AtroposConfig ServerConfig() {
  AtroposConfig cfg;
  cfg.window = Millis(50);
  cfg.baseline_p99 = Millis(30);
  return cfg;
}

class LiveServerTest : public ::testing::Test {
 protected:
  LiveServerTest() : frontend_(&clock_, ServerConfig()) {
    InstallGlobalFrontend(&frontend_);
  }
  ~LiveServerTest() override { InstallGlobalFrontend(nullptr); }

  RunClock clock_;
  ConcurrentFrontend frontend_;
};

TEST_F(LiveServerTest, CompletesRequestAndRecordsStats) {
  LiveMiniWebOptions app_opt;
  app_opt.static_cost = 1000;  // 1 ms
  LiveMiniWeb app(app_opt);
  LiveServerOptions opt;
  opt.workers = 2;
  LiveServer server(&frontend_, &clock_, &app, opt);
  server.Start();

  ClientWaiter waiter;
  LiveRequest req;
  req.key = MakeLiveKey(0, 1);
  req.type = 0;
  req.waiter = &waiter;
  ASSERT_TRUE(server.Submit(req));
  EXPECT_EQ(waiter.Wait(), LiveOutcome::kOk);

  server.Stop();
  const auto& stats = server.stats_by_type();
  ASSERT_EQ(stats.count(0), 1u);
  EXPECT_EQ(stats.at(0).completed, 1u);
  EXPECT_EQ(stats.at(0).cancelled, 0u);
  EXPECT_EQ(stats.at(0).latency.count(), 1u);
}

TEST_F(LiveServerTest, ShedsWhenQueueFullOrStopped) {
  LiveMiniWebOptions app_opt;
  app_opt.script_cost = Seconds(5.0);  // park the lone worker
  app_opt.script_slice = 1000;
  LiveMiniWeb app(app_opt);
  LiveServerOptions opt;
  opt.workers = 1;
  opt.queue_capacity = 1;
  LiveServer server(&frontend_, &clock_, &app, opt);
  server.Start();

  LiveRequest script;
  script.key = MakeLiveKey(1, 1);
  script.type = 1;
  ASSERT_TRUE(server.Submit(script));
  // Give the worker time to pop it so the queue is empty again.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));

  LiveRequest queued;
  queued.key = MakeLiveKey(0, 2);
  queued.type = 0;
  ASSERT_TRUE(server.Submit(queued));  // fills the 1-slot queue

  LiveRequest rejected;
  rejected.key = MakeLiveKey(0, 3);
  rejected.type = 0;
  EXPECT_FALSE(server.Submit(rejected));  // queue full -> shed at the door
  EXPECT_GE(server.shed(), 1u);

  server.Stop();  // drains `queued` as shed, aborts `script`
  EXPECT_GE(server.shed(), 2u);

  LiveRequest after;
  after.key = MakeLiveKey(0, 4);
  after.type = 0;
  EXPECT_FALSE(server.Submit(after));  // stopped server rejects
}

TEST_F(LiveServerTest, TargetedCancelReachesHandler) {
  LiveMiniWebOptions app_opt;
  app_opt.script_cost = Seconds(10.0);
  app_opt.script_slice = 1000;  // 1 ms checkpoints
  LiveMiniWeb app(app_opt);
  LiveServerOptions opt;
  opt.workers = 1;
  LiveServer server(&frontend_, &clock_, &app, opt);
  server.Start();

  ClientWaiter waiter;
  LiveRequest req;
  req.key = MakeLiveKey(1, 1);
  req.type = 1;
  req.waiter = &waiter;
  ASSERT_TRUE(server.Submit(req));

  // Wait for the worker to publish the task, then cancel it by key — the
  // same call the Atropos initiator makes from the drainer thread.
  bool delivered = false;
  for (int i = 0; i < 2000 && !delivered; i++) {
    delivered = server.board().RequestCancel(req.key);
    if (!delivered) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }
  ASSERT_TRUE(delivered);
  EXPECT_EQ(waiter.Wait(), LiveOutcome::kCancelled);

  server.Stop();
  const auto& stats = server.stats_by_type();
  ASSERT_EQ(stats.count(1), 1u);
  EXPECT_EQ(stats.at(1).cancelled, 1u);
  EXPECT_EQ(stats.at(1).completed, 0u);
}

TEST_F(LiveServerTest, LifecycleIsSingleUseAndFailsLoudly) {
  LiveMiniWebOptions app_opt;
  app_opt.static_cost = 1000;
  LiveMiniWeb app(app_opt);
  LiveServerOptions opt;
  opt.workers = 1;
  LiveServer server(&frontend_, &clock_, &app, opt);

  ASSERT_TRUE(server.Start());
  EXPECT_FALSE(server.Start());  // already running: loud failure, not a no-op

  ClientWaiter waiter;
  LiveRequest req;
  req.key = MakeLiveKey(0, 1);
  req.type = 0;
  req.waiter = &waiter;
  ASSERT_TRUE(server.Submit(req));
  EXPECT_EQ(waiter.Wait(), LiveOutcome::kOk);

  server.Stop();
  ASSERT_EQ(server.stats_by_type().count(0), 1u);
  EXPECT_EQ(server.stats_by_type().at(0).completed, 1u);

  // Second Stop must not re-merge (doubling the stats) or lose them.
  server.Stop();
  EXPECT_EQ(server.stats_by_type().at(0).completed, 1u);

  // The old lifecycle silently no-opped here, leaving the caller submitting
  // into a server with no workers; now it refuses.
  EXPECT_FALSE(server.Start());
  LiveRequest after;
  after.key = MakeLiveKey(0, 2);
  after.type = 0;
  EXPECT_FALSE(server.Submit(after));
}

// A Stop racing Start must not join/clear the worker vector while Start is
// still emplacing threads (the REVIEW.md data race): Start publishes
// kRunning only after the vector is complete, and Stop waits out the
// kStarting window. Run under TSan by scripts/check.sh.
TEST_F(LiveServerTest, ConcurrentStartAndStopDoNotRace) {
  for (int round = 0; round < 20; round++) {
    LiveMiniWebOptions app_opt;
    app_opt.static_cost = 1000;
    LiveMiniWeb app(app_opt);
    LiveServerOptions opt;
    opt.workers = 4;
    LiveServer server(&frontend_, &clock_, &app, opt);

    std::atomic<bool> started{false};
    std::thread starter([&] { started.store(server.Start()); });
    std::thread stopper([&] { server.Stop(); });
    starter.join();
    stopper.join();
    EXPECT_TRUE(started.load());  // the CAS from kNew always wins for Start
    server.Stop();  // idempotent whether the racing Stop won or lost
    EXPECT_FALSE(server.Start());  // lifecycle fully consumed either way
  }
}

TEST_F(LiveServerTest, StopBeforeStartIsNoOpAndStartStillWorks) {
  LiveMiniWebOptions app_opt;
  app_opt.static_cost = 1000;
  LiveMiniWeb app(app_opt);
  LiveServerOptions opt;
  opt.workers = 1;
  LiveServer server(&frontend_, &clock_, &app, opt);

  server.Stop();  // never started: nothing to stop, must not poison Start
  ASSERT_TRUE(server.Start());

  ClientWaiter waiter;
  LiveRequest req;
  req.key = MakeLiveKey(0, 1);
  req.type = 0;
  req.waiter = &waiter;
  ASSERT_TRUE(server.Submit(req));
  EXPECT_EQ(waiter.Wait(), LiveOutcome::kOk);
  server.Stop();
}

TEST_F(LiveServerTest, MeasurementWindowClassifiesByAdmission) {
  LiveMiniWebOptions app_opt;
  app_opt.static_cost = 1000;        // 1 ms
  app_opt.script_cost = 150'000;     // 150 ms: straddles measure_start below
  app_opt.script_slice = 5000;
  LiveMiniWeb app(app_opt);
  LiveServerOptions opt;
  opt.workers = 1;
  opt.measure_start = Millis(100);
  LiveServer server(&frontend_, &clock_, &app, opt);
  ASSERT_TRUE(server.Start());

  // Admitted during warmup, completes inside the measured window. The old
  // completion-time gate counted it (tail-biasing the sample toward exactly
  // the slow stragglers); the admission gate excludes it.
  ClientWaiter warmup_waiter;
  LiveRequest warmup;
  warmup.key = MakeLiveKey(1, 1);
  warmup.type = 1;
  warmup.waiter = &warmup_waiter;
  ASSERT_TRUE(server.Submit(warmup));
  EXPECT_EQ(warmup_waiter.Wait(), LiveOutcome::kOk);
  ASSERT_GE(clock_.NowMicros(), opt.measure_start);  // window has opened

  // Admitted after measure_start: counted.
  ClientWaiter fast_waiter;
  LiveRequest fast;
  fast.key = MakeLiveKey(0, 2);
  fast.type = 0;
  fast.waiter = &fast_waiter;
  ASSERT_TRUE(server.Submit(fast));
  EXPECT_EQ(fast_waiter.Wait(), LiveOutcome::kOk);

  server.Stop();
  const auto& stats = server.stats_by_type();
  EXPECT_EQ(stats.count(1), 0u);  // warmup-admitted script excluded
  ASSERT_EQ(stats.count(0), 1u);
  EXPECT_EQ(stats.at(0).completed, 1u);
}

TEST_F(LiveServerTest, CancelAbortsParkedLockWaiterInPlace) {
  LiveMiniKvOptions kv_opt;
  kv_opt.scan_cost_per_key = 20;
  kv_opt.scan_batch = 200;  // 4 ms of lock hold per cancellation checkpoint
  LiveMiniKv app(kv_opt);
  LiveServerOptions opt;
  opt.workers = 2;
  LiveServer server(&frontend_, &clock_, &app, opt);
  ASSERT_TRUE(server.Start());

  // Worker 0: a range read that holds the keyspace lock for ~10 s.
  LiveRequest scan;
  scan.key = MakeLiveKey(1, 1);
  scan.type = 1;
  scan.arg = 500'000;
  ASSERT_TRUE(server.Submit(scan));
  std::this_thread::sleep_for(std::chrono::milliseconds(50));

  // Worker 1: a point op that parks on the keyspace lock behind the scan.
  ClientWaiter point_waiter;
  LiveRequest point;
  point.key = MakeLiveKey(0, 2);
  point.type = 0;
  point.waiter = &point_waiter;
  ASSERT_TRUE(server.Submit(point));
  std::this_thread::sleep_for(std::chrono::milliseconds(50));

  // Cancel the parked waiter. In-place abort: it returns kCancelled *now*,
  // while the scan still holds the lock — without the abortable layer it
  // could not observe the order until the holder released.
  const TimeMicros cancel_issued = clock_.NowMicros();
  ASSERT_TRUE(server.DeliverCancel(point.key));
  EXPECT_EQ(point_waiter.Wait(), LiveOutcome::kCancelled);
  const TimeMicros released = clock_.NowMicros();
  // Well under the scan's remaining multi-second hold.
  EXPECT_LT(released - cancel_issued, Seconds(2.0));
  EXPECT_GE(app.aborted_lock_waits(), 1u);

  server.Stop();  // sweeps the scan as shed
  const auto& stats = server.stats_by_type();
  ASSERT_EQ(stats.count(0), 1u);
  EXPECT_EQ(stats.at(0).cancelled, 1u);
  EXPECT_EQ(stats.at(0).completed, 0u);
  EXPECT_GE(server.cancel_to_release().count(), 1u);
}

TEST_F(LiveServerTest, QueuedTaskCancelledInPlaceWithoutExecuting) {
  LiveMiniWebOptions app_opt;
  app_opt.script_cost = Seconds(30.0);
  app_opt.script_slice = 1000;
  LiveMiniWeb app(app_opt);
  LiveServerOptions opt;
  opt.workers = 1;
  LiveServer server(&frontend_, &clock_, &app, opt);
  ASSERT_TRUE(server.Start());

  // Occupy the lone worker, then queue a second script behind it.
  LiveRequest running;
  running.key = MakeLiveKey(1, 1);
  running.type = 1;
  ASSERT_TRUE(server.Submit(running));
  std::this_thread::sleep_for(std::chrono::milliseconds(50));

  ClientWaiter queued_waiter;
  LiveRequest queued;
  queued.key = MakeLiveKey(1, 2);
  queued.type = 1;
  queued.waiter = &queued_waiter;
  ASSERT_TRUE(server.Submit(queued));

  // Not on any board slot -> the queue-slot abort must take it.
  ASSERT_TRUE(server.DeliverCancel(queued.key));
  // Cancel the runner so the worker reaches the aborted slot promptly.
  ASSERT_TRUE(server.DeliverCancel(running.key));
  EXPECT_EQ(queued_waiter.Wait(), LiveOutcome::kCancelled);

  server.Stop();
  EXPECT_EQ(server.queued_cancelled(), 1u);
  const auto& stats = server.stats_by_type();
  ASSERT_EQ(stats.count(1), 1u);
  EXPECT_EQ(stats.at(1).cancelled, 2u);  // the runner and the queued task
  EXPECT_EQ(stats.at(1).completed, 0u);
}

TEST_F(LiveServerTest, ShutdownAbortCountsAsShedNotCancelled) {
  LiveMiniWebOptions app_opt;
  app_opt.script_cost = Seconds(30.0);
  app_opt.script_slice = 1000;
  LiveMiniWeb app(app_opt);
  LiveServerOptions opt;
  opt.workers = 1;
  LiveServer server(&frontend_, &clock_, &app, opt);
  server.Start();

  ClientWaiter waiter;
  LiveRequest req;
  req.key = MakeLiveKey(1, 1);
  req.type = 1;
  req.waiter = &waiter;
  ASSERT_TRUE(server.Submit(req));
  std::this_thread::sleep_for(std::chrono::milliseconds(50));  // let it start

  server.Stop();  // aborts the in-flight script via RequestCancelAll
  EXPECT_EQ(waiter.Wait(), LiveOutcome::kShed);
  // The abort is shutdown bookkeeping, not an Atropos decision: it must not
  // inflate the cancellation stats the bench reports.
  const auto& stats = server.stats_by_type();
  if (stats.count(1) != 0) {
    EXPECT_EQ(stats.at(1).cancelled, 0u);
  }
  EXPECT_GE(server.shed(), 1u);
}

}  // namespace
}  // namespace atropos
