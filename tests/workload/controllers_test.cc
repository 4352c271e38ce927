// Tests of the controller factory: every ControllerKind builds the right
// controller, and ControllerParams reach the built instance.

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
  params.slo_latency_increase = 0.35;
  params.total_workers = 4;
  params.min_cancel_interval = Millis(333);

  auto controller = MakeController(ControllerKind::kAtropos, &clock, &surface, params);
  auto* runtime = dynamic_cast<AtroposRuntime*>(controller.get());
  ASSERT_NE(runtime, nullptr);
  const AtroposConfig& cfg = runtime->config();
  EXPECT_DOUBLE_EQ(cfg.slo_latency_increase, 0.35);
  EXPECT_EQ(cfg.min_cancel_interval, Millis(333));
  EXPECT_TRUE(runtime->has_cancel_initiator());  // the surface is wired

  // total_workers sizes DARC's reservation: 75% of 4 workers.
  auto darc_controller = MakeController(ControllerKind::kDarc, &clock, &surface, params);
  auto* darc = dynamic_cast<Darc*>(darc_controller.get());
  ASSERT_NE(darc, nullptr);
  for (int i = 0; i < 50; i++) {
    darc->OnRequestEnd(1, 1000, /*type=*/0, 0);
    darc->OnRequestEnd(2, 500'000, /*type=*/5, 0);
  }
  darc->Tick();
  EXPECT_EQ(darc->reserved_workers(), 3);
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
