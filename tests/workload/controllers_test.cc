// Tests of the controller factory: every ControllerKind builds the right
// controller, ControllerParams reach the built instance, and the tracing-only
// configuration (cancellation_enabled=false) never issues a cancel.

#include "src/workload/controllers.h"

#include <gtest/gtest.h>

#include <utility>
#include <vector>

namespace atropos {
namespace {

struct RecordingSurface : ControlSurface {
  std::vector<std::pair<uint64_t, CancelReason>> cancels;
  void CancelTask(uint64_t key, CancelReason reason) override {
    cancels.emplace_back(key, reason);
  }
};

constexpr ControllerKind kAllKinds[] = {
    ControllerKind::kNone,    ControllerKind::kAtropos, ControllerKind::kAtroposHeuristic,
    ControllerKind::kAtroposCurrentUsage, ControllerKind::kProtego, ControllerKind::kPBox,
    ControllerKind::kDarc,    ControllerKind::kParties,
};

TEST(MakeControllerTest, EveryKindBuildsItsNamedController) {
  ManualClock clock;
  RecordingSurface surface;
  const std::pair<ControllerKind, std::string_view> expected[] = {
      {ControllerKind::kNone, "none"},
      {ControllerKind::kAtropos, "atropos"},
      {ControllerKind::kAtroposHeuristic, "atropos"},
      {ControllerKind::kAtroposCurrentUsage, "atropos"},
      {ControllerKind::kProtego, "protego"},
      {ControllerKind::kPBox, "pbox"},
      {ControllerKind::kDarc, "darc"},
      {ControllerKind::kParties, "parties"},
  };
  for (const auto& [kind, name] : expected) {
    auto controller = MakeController(kind, &clock, &surface, ControllerParams{});
    ASSERT_NE(controller, nullptr) << ControllerKindName(kind);
    EXPECT_EQ(controller->name(), name) << ControllerKindName(kind);
  }
}

TEST(MakeControllerTest, AblationKindsInjectTheirSelectionStage) {
  ManualClock clock;
  RecordingSurface surface;
  const std::pair<ControllerKind, PolicyKind> expected[] = {
      {ControllerKind::kAtropos, PolicyKind::kMultiObjective},
      {ControllerKind::kAtroposHeuristic, PolicyKind::kHeuristic},
      {ControllerKind::kAtroposCurrentUsage, PolicyKind::kCurrentUsage},
  };
  for (const auto& [kind, policy] : expected) {
    auto controller = MakeController(kind, &clock, &surface, ControllerParams{});
    auto* runtime = dynamic_cast<AtroposRuntime*>(controller.get());
    ASSERT_NE(runtime, nullptr) << ControllerKindName(kind);
    EXPECT_EQ(runtime->config().policy, policy) << ControllerKindName(kind);
  }
}

TEST(MakeControllerTest, ParamsReachTheAtroposConfig) {
  ManualClock clock;
  RecordingSurface surface;
  ControllerParams params;
  params.window = Millis(75);
  params.slo_latency_increase = 0.35;
  params.baseline_p99 = 2500;
  params.cancellation_enabled = false;
  params.timestamp_mode = TimestampMode::kPerEvent;
  params.min_cancel_interval = Millis(333);

  auto controller = MakeController(ControllerKind::kAtropos, &clock, &surface, params);
  auto* runtime = dynamic_cast<AtroposRuntime*>(controller.get());
  ASSERT_NE(runtime, nullptr);
  const AtroposConfig& cfg = runtime->config();
  EXPECT_EQ(cfg.window, Millis(75));
  EXPECT_DOUBLE_EQ(cfg.slo_latency_increase, 0.35);
  EXPECT_EQ(cfg.baseline_p99, 2500u);
  EXPECT_FALSE(cfg.cancellation_enabled);
  EXPECT_EQ(cfg.timestamp_mode, TimestampMode::kPerEvent);
  EXPECT_EQ(cfg.min_cancel_interval, Millis(333));
  EXPECT_TRUE(runtime->has_cancel_initiator());  // the surface is wired
}

// Fig 14's "tracing on, actions off" configuration: the runtime still
// detects and estimates, but never cancels.
TEST(MakeControllerTest, TracingOnlyConfigurationIssuesNoCancels) {
  ManualClock clock;
  RecordingSurface surface;
  ControllerParams params;
  params.baseline_p99 = 1000;  // SLO = 1.2 ms, no calibration needed
  params.cancellation_enabled = false;
  params.timestamp_mode = TimestampMode::kPerEvent;

  auto controller = MakeController(ControllerKind::kAtropos, &clock, &surface, params);
  auto* runtime = dynamic_cast<AtroposRuntime*>(controller.get());
  ASSERT_NE(runtime, nullptr);
  ResourceId lock = runtime->RegisterResource("lock", ResourceClass::kLock);
  runtime->OnTaskRegistered(100, false);  // culprit
  runtime->OnTaskRegistered(200, false);  // victim
  runtime->OnGet(100, lock, 1);
  runtime->OnWaitBegin(200, lock);
  for (int w = 0; w < 5; w++) {
    for (int i = 0; i < 20; i++) {
      runtime->OnRequestEnd(9999, /*latency=*/50000, 0, 0);
    }
    clock.Advance(params.window);
    runtime->Tick();
  }
  // Tracing ran (the overload was seen and confirmed)...
  EXPECT_GT(runtime->stats().trace_events, 0u);
  EXPECT_GE(runtime->stats().resource_overload_windows, 1u);
  // ...but no action was ever taken.
  EXPECT_EQ(runtime->stats().cancels_issued, 0u);
  EXPECT_TRUE(surface.cancels.empty());
}

TEST(MakeControllerTest, EveryKindSurvivesAGenericDrive) {
  // Smoke: each controller accepts the shared instrumentation stream.
  for (ControllerKind kind : kAllKinds) {
    ManualClock clock;
    RecordingSurface surface;
    auto controller = MakeController(kind, &clock, &surface, ControllerParams{});
    ResourceId res = controller->RegisterResource("r", ResourceClass::kLock);
    controller->OnTaskRegistered(1, false, true);
    controller->OnRequestStart(1, 0, 0);
    controller->OnGet(1, res, 1);
    controller->OnUsage(1, res, /*waited=*/100, /*used=*/200);
    controller->OnFree(1, res, 1);
    controller->OnRequestEnd(1, /*latency=*/500, 0, 0);
    controller->OnTaskFreed(1);
    clock.Advance(Millis(50));
    controller->Tick();
    EXPECT_FALSE(controller->name().empty()) << ControllerKindName(kind);
  }
}

}  // namespace
}  // namespace atropos
