// Frontend (traffic generation, metrics, retry/drop semantics) and
// end-to-end case integration tests.

#include <gtest/gtest.h>

#include "src/apps/minikv.h"
#include "src/workload/cases.h"
#include "src/workload/frontend.h"
#include "src/testing/recording_controller.h"

namespace atropos {
namespace {

// --------------------------------------------------------------------------
// Frontend mechanics (driven against MiniKv, the simplest app).

class FrontendTest : public ::testing::Test {
 protected:
  FrontendTest() : kv_(ex_, &ctl_, Options()) {}

  static MiniKvOptions Options() {
    MiniKvOptions opt;
    opt.store.point_op_cost = 100;
    return opt;
  }

  Executor ex_;
  RecordingController ctl_;
  MiniKv kv_;
};

TEST_F(FrontendTest, OpenLoopTrafficDeliversApproximateRate) {
  FrontendOptions fopt;
  fopt.duration = Seconds(5);
  fopt.warmup = Seconds(1);
  fopt.seed = 3;
  Frontend frontend(ex_, kv_, ctl_, fopt);
  TrafficSpec spec;
  spec.type = kKvPointOp;
  spec.qps = 500;
  frontend.AddTraffic(spec);
  RunMetrics m = frontend.Run();
  EXPECT_NEAR(m.ThroughputQps(), 500, 50);
  EXPECT_NEAR(static_cast<double>(m.arrivals), 2000, 200);
  EXPECT_EQ(m.DropRate(), 0.0);
  EXPECT_EQ(ex_.live_procs(), 0);  // the simulation fully drained
}

TEST_F(FrontendTest, WarmupExcludedFromMetrics) {
  FrontendOptions fopt;
  fopt.duration = Seconds(2);
  fopt.warmup = Seconds(1);
  Frontend frontend(ex_, kv_, ctl_, fopt);
  TrafficSpec spec;
  spec.type = kKvPointOp;
  spec.qps = 100;
  spec.end = Seconds(1);  // all traffic in the warmup period
  frontend.AddTraffic(spec);
  RunMetrics m = frontend.Run();
  EXPECT_EQ(m.arrivals, 0u);
  EXPECT_EQ(m.completed, 0u);
}

TEST_F(FrontendTest, OneShotFiresAtItsTime) {
  FrontendOptions fopt;
  fopt.duration = Seconds(3);
  fopt.warmup = 0;
  Frontend frontend(ex_, kv_, ctl_, fopt);
  OneShotSpec shot;
  shot.type = kKvRangeRead;
  shot.at = Seconds(1);
  shot.arg = 100;
  shot.client_class = 0;
  frontend.AddOneShot(shot);
  RunMetrics m = frontend.Run();
  EXPECT_EQ(m.completed, 1u);
  ASSERT_EQ(ctl_.Count("request_start"), 1);
}

TEST_F(FrontendTest, CulpritClassExcludedFromLatencyMetrics) {
  FrontendOptions fopt;
  fopt.duration = Seconds(3);
  fopt.warmup = Seconds(1);
  Frontend frontend(ex_, kv_, ctl_, fopt);
  TrafficSpec victims;
  victims.type = kKvPointOp;
  victims.qps = 200;
  frontend.AddTraffic(victims);
  OneShotSpec slow;
  slow.type = kKvRangeRead;
  slow.at = Seconds(2);
  slow.arg = 50'000;  // long request in class 1
  slow.client_class = 1;
  frontend.AddOneShot(slow);
  RunMetrics m = frontend.Run();
  // The 200ms+ range read is not a class-0 latency sample; p99 reflects the
  // point ops (plus their waits behind the range read).
  EXPECT_LT(m.P50(), 1000u);
}

TEST_F(FrontendTest, ClosedLoopClientsSelfPace) {
  FrontendOptions fopt;
  fopt.duration = Seconds(4);
  fopt.warmup = Seconds(1);
  Frontend frontend(ex_, kv_, ctl_, fopt);
  TrafficSpec spec;
  spec.type = kKvPointOp;  // 100 us service
  spec.closed_loop_clients = 4;
  spec.think_time = 900;  // ~1 ms per iteration per client => ~4 k qps
  frontend.AddTraffic(spec);
  RunMetrics m = frontend.Run();
  EXPECT_NEAR(m.ThroughputQps(), 4000, 600);
  EXPECT_EQ(m.DropRate(), 0.0);
  EXPECT_EQ(ex_.live_procs(), 0);
}

TEST_F(FrontendTest, ClosedLoopBacksOffUnderSlowdown) {
  // Closed-loop clients self-throttle: a slow server reduces offered load
  // instead of building an unbounded queue.
  Executor ex;
  RecordingController ctl;
  MiniKvOptions opt;
  opt.store.point_op_cost = 10'000;  // 10 ms service, one keyspace lock
  MiniKv kv(ex, &ctl, opt);
  FrontendOptions fopt;
  fopt.duration = Seconds(4);
  fopt.warmup = Seconds(1);
  Frontend frontend(ex, kv, ctl, fopt);
  TrafficSpec spec;
  spec.type = kKvPointOp;
  spec.closed_loop_clients = 8;
  frontend.AddTraffic(spec);
  RunMetrics m = frontend.Run();
  // The serialized lock caps throughput at ~100 qps regardless of clients.
  EXPECT_NEAR(m.ThroughputQps(), 100, 10);
}

// App that logs every arrival and completes it on the spot, so a test sees
// exactly when and under which key the frontend submitted each request.
class ArrivalLogApp : public App {
 public:
  struct Arrival {
    uint64_t key;
    uint64_t arg;
    TimeMicros time;
    bool operator==(const Arrival&) const = default;
  };

  ArrivalLogApp(Executor& executor, OverloadController* controller)
      : App(executor, controller) {}

  std::string_view name() const override { return "arrival_log"; }
  void Start(const AppRequest& req, CompletionFn done) override {
    arrivals.push_back({req.key, req.arg, executor_.now()});
    done(req, OutcomeKind::kCompleted);
  }
  void Shutdown() override {}

  std::vector<Arrival> arrivals;
};

OneShotSpec Shot(uint64_t id, TimeMicros at) {
  OneShotSpec shot;
  shot.type = static_cast<int>(id);
  shot.at = at;
  shot.arg = id;
  return shot;
}

TEST(FrontendOneShotTest, FireInAtThenInsertionOrderWithPinnedKeys) {
  Executor ex;
  RecordingController ctl;
  ArrivalLogApp app(ex, &ctl);
  FrontendOptions fopt;
  fopt.duration = Seconds(1);
  fopt.warmup = 0;
  Frontend frontend(ex, app, ctl, fopt);
  // Added out of `at` order, with three shots tied at 1 ms and two at 2 ms.
  const TimeMicros at[] = {3000, 1000, 2000, 1000, 0, 2000, 1000};
  for (uint64_t id = 0; id < 7; id++) {
    frontend.AddOneShot(Shot(id, at[id]));
  }
  frontend.Run();
  // Keys go out in firing order; ties keep insertion order.
  const std::vector<ArrivalLogApp::Arrival> expected = {
      {1, 4, 0},    {2, 1, 1000}, {3, 3, 1000}, {4, 6, 1000},
      {5, 2, 2000}, {6, 5, 2000}, {7, 0, 3000},
  };
  EXPECT_EQ(app.arrivals, expected);
  for (const ArrivalLogApp::Arrival& a : expected) {
    EXPECT_EQ(frontend.TypeOfKey(a.key), static_cast<int>(a.arg));
  }
  EXPECT_EQ(frontend.TypeOfKey(0), -1);
  EXPECT_EQ(frontend.TypeOfKey(8), -1);
  EXPECT_EQ(frontend.TypeOfKey(kBackgroundKeyBase), -1);
  EXPECT_EQ(ex.live_procs(), 0);
  EXPECT_FALSE(ex.has_pending());
}

TEST(FrontendOneShotTest, AtIsRelativeToRunStart) {
  Executor ex;
  ex.CallAt(Seconds(1), [] {});
  ex.Run();
  ASSERT_EQ(ex.now(), Seconds(1));
  RecordingController ctl;
  ArrivalLogApp app(ex, &ctl);
  FrontendOptions fopt;
  fopt.duration = Seconds(3);
  fopt.warmup = 0;
  Frontend frontend(ex, app, ctl, fopt);
  frontend.AddOneShot(Shot(1, Millis(500)));
  frontend.AddOneShot(Shot(2, 0));
  frontend.Run();
  const std::vector<ArrivalLogApp::Arrival> expected = {
      {1, 2, Seconds(1)},
      {2, 1, Seconds(1) + Millis(500)},
  };
  EXPECT_EQ(app.arrivals, expected);
  EXPECT_EQ(ex.live_procs(), 0);
}

TEST(FrontendOneShotTest, HeapHoldsOnlyInFlightShots) {
  Executor ex;
  RecordingController ctl;
  ArrivalLogApp app(ex, &ctl);
  FrontendOptions fopt;
  fopt.duration = Seconds(6);
  fopt.warmup = 0;
  Frontend frontend(ex, app, ctl, fopt);
  constexpr uint64_t kShots = 5000;
  for (uint64_t i = 0; i < kShots; i++) {
    // Scattered over 0..5 s, inserted out of order.
    frontend.AddOneShot(Shot(i, ((i * 7919) % kShots) * Millis(1)));
  }
  size_t pending_mid_run = 0;
  ex.CallAt(Millis(2500) + 1, [&] { pending_mid_run = ex.pending_count(); });
  frontend.Run();
  EXPECT_EQ(app.arrivals.size(), kShots);
  EXPECT_GT(pending_mid_run, 0u);
  EXPECT_LE(pending_mid_run, 64u);
  EXPECT_EQ(ex.live_procs(), 0);
}

// Controller that cancels a specific key at a specific tick, for retry tests.
class CancelOnceController : public RecordingController {
 public:
  CancelOnceController(uint64_t key, int at_tick, ControlSurface** surface, bool allow_reexec)
      : key_(key), at_tick_(at_tick), surface_(surface), allow_reexec_(allow_reexec) {}

  void Tick() override {
    if (++ticks_ == at_tick_ && *surface_ != nullptr) {
      (*surface_)->CancelTask(key_, CancelReason::kCulprit);
    }
  }
  bool ReexecutionRecommended() const override { return allow_reexec_; }

 private:
  uint64_t key_;
  int at_tick_;
  int ticks_ = 0;
  ControlSurface** surface_;
  bool allow_reexec_;
};

TEST(FrontendRetryTest, CancelledRequestIsReexecutedUnderSameKey) {
  Executor ex;
  ControlSurface* surface = nullptr;
  CancelOnceController ctl(/*key=*/1, /*at_tick=*/2, &surface, /*allow_reexec=*/true);
  MiniKvOptions opt;
  opt.store.scan_cost_per_key = 100;
  MiniKv kv(ex, &ctl, opt);
  surface = &kv;

  FrontendOptions fopt;
  fopt.duration = Seconds(4);
  fopt.warmup = 0;
  fopt.tick_window = Millis(50);
  Frontend frontend(ex, kv, ctl, fopt);
  OneShotSpec shot;
  shot.type = kKvRangeRead;
  shot.arg = 5000;  // 0.5 s
  shot.at = 0;
  shot.client_class = 0;
  frontend.AddOneShot(shot);
  RunMetrics m = frontend.Run();
  EXPECT_EQ(m.cancelled, 1u);
  EXPECT_EQ(m.retried, 1u);
  EXPECT_EQ(m.completed, 1u);  // the retry completed
  EXPECT_EQ(m.dropped, 0u);
}

TEST(FrontendRetryTest, RetryDroppedWhenCalmNeverComes) {
  Executor ex;
  ControlSurface* surface = nullptr;
  CancelOnceController ctl(1, 2, &surface, /*allow_reexec=*/false);
  MiniKvOptions opt;
  opt.store.scan_cost_per_key = 100;
  MiniKv kv(ex, &ctl, opt);
  surface = &kv;

  FrontendOptions fopt;
  fopt.duration = Seconds(4);
  fopt.warmup = 0;
  fopt.tick_window = Millis(50);
  fopt.max_retry_wait = Seconds(1);
  Frontend frontend(ex, kv, ctl, fopt);
  OneShotSpec shot;
  shot.type = kKvRangeRead;
  shot.arg = 5000;
  shot.at = 0;
  shot.client_class = 0;
  frontend.AddOneShot(shot);
  RunMetrics m = frontend.Run();
  EXPECT_EQ(m.cancelled, 1u);
  EXPECT_EQ(m.retried, 0u);
  EXPECT_EQ(m.dropped, 1u);  // exceeded max_retry_wait (§4)
}

// Controller that sheds every other request.
class SheddingController : public RecordingController {
 public:
  bool AdmitRequest(uint64_t key, int request_type, int client_class) override {
    return (n_++ % 2) == 0;
  }

 private:
  int n_ = 0;
};

TEST(FrontendAdmissionTest, ShedRequestsCountAsDrops) {
  Executor ex;
  SheddingController ctl;
  MiniKvOptions opt;
  MiniKv kv(ex, &ctl, opt);
  FrontendOptions fopt;
  fopt.duration = Seconds(2);
  fopt.warmup = 0;
  Frontend frontend(ex, kv, ctl, fopt);
  TrafficSpec spec;
  spec.type = kKvPointOp;
  spec.qps = 100;
  frontend.AddTraffic(spec);
  RunMetrics m = frontend.Run();
  EXPECT_NEAR(m.DropRate(), 0.5, 0.1);
  EXPECT_NEAR(static_cast<double>(m.completed), static_cast<double>(m.dropped), 30.0);
  // Shed requests never register, so their keys stay unknown.
  EXPECT_EQ(frontend.TypeOfKey(1), kKvPointOp);
  EXPECT_EQ(frontend.TypeOfKey(2), -1);
}

// --------------------------------------------------------------------------
// End-to-end case integration (parameterized over all 16 cases).

class CaseIntegrationTest : public ::testing::TestWithParam<int> {};

TEST_P(CaseIntegrationTest, OverloadReproducesAndAtroposRecovers) {
  int case_id = GetParam();

  CaseRunOptions base_opt;
  base_opt.inject_culprits = false;
  CaseResult base = RunCase(case_id, base_opt);
  ASSERT_GT(base.metrics.completed, 100u);

  CaseRunOptions over_opt;
  CaseResult over = RunCase(case_id, over_opt);

  CaseRunOptions atr_opt;
  atr_opt.controller = ControllerKind::kAtropos;
  CaseResult atr = RunCase(case_id, atr_opt);

  double base_tput = base.metrics.ThroughputQps();
  double base_p99 = static_cast<double>(base.metrics.P99());
  double over_tput = over.metrics.ThroughputQps() / base_tput;
  double over_p99 = static_cast<double>(over.metrics.P99()) / base_p99;
  double atr_tput = atr.metrics.ThroughputQps() / base_tput;
  double atr_p99 = static_cast<double>(atr.metrics.P99()) / base_p99;

  // The culprits materially degrade the system...
  EXPECT_TRUE(over_tput < 0.9 || over_p99 > 2.0)
      << "overload did not reproduce: tput=" << over_tput << " p99x=" << over_p99;
  // ...Atropos restores throughput,...
  EXPECT_GT(atr_tput, 0.93);
  // ...improves (or at minimum does not worsen) p99 vs the uncontrolled
  // run,...
  EXPECT_LT(atr_p99, over_p99 * 1.05 + 1.0);
  // ...and drops almost nothing (paper: <0.01-1%).
  EXPECT_LT(atr.metrics.DropRate(), 0.01);
}

INSTANTIATE_TEST_SUITE_P(AllCases, CaseIntegrationTest, ::testing::Range(1, 17));

TEST(CaseCatalogTest, CatalogIsComplete) {
  const auto& catalog = CaseCatalog();
  ASSERT_EQ(catalog.size(), 16u);
  for (int i = 0; i < 16; i++) {
    EXPECT_EQ(catalog[static_cast<size_t>(i)].id, i + 1);
    EXPECT_NE(std::string(catalog[static_cast<size_t>(i)].trigger), "");
  }
}

TEST(ControllerFactoryTest, AllKindsConstruct) {
  ManualClock clock;
  for (auto kind : {ControllerKind::kNone, ControllerKind::kAtropos,
                    ControllerKind::kAtroposHeuristic, ControllerKind::kAtroposCurrentUsage,
                    ControllerKind::kProtego, ControllerKind::kPBox, ControllerKind::kDarc,
                    ControllerKind::kParties}) {
    auto controller = MakeController(kind, &clock, nullptr, ControllerParams{});
    ASSERT_NE(controller, nullptr);
    // The Atropos policy variants share the runtime's name.
    if (kind != ControllerKind::kAtroposHeuristic &&
        kind != ControllerKind::kAtroposCurrentUsage) {
      EXPECT_EQ(controller->name(), ControllerKindName(kind));
    }
  }
}

}  // namespace
}  // namespace atropos
