#include "src/workload/controllers.h"

namespace atropos {

std::string_view ControllerKindName(ControllerKind kind) {
  switch (kind) {
    case ControllerKind::kNone:
      return "none";
    case ControllerKind::kAtropos:
      return "atropos";
    case ControllerKind::kAtroposHeuristic:
      return "atropos-heuristic";
    case ControllerKind::kAtroposCurrentUsage:
      return "atropos-current-usage";
    case ControllerKind::kProtego:
      return "protego";
    case ControllerKind::kPBox:
      return "pbox";
    case ControllerKind::kDarc:
      return "darc";
    case ControllerKind::kParties:
      return "parties";
  }
  return "unknown";
}

namespace {

std::unique_ptr<AtroposRuntime> MakeAtropos(Clock* clock, ControlSurface* surface,
                                            const ControllerParams& params, PolicyKind policy) {
  AtroposConfig config;
  config.window = kControllerWindow;
  config.slo_latency_increase = params.slo_latency_increase;
  config.policy = policy;
  config.min_cancel_interval = params.min_cancel_interval;
  config.calibration_windows = 20;  // 1 s of 50 ms windows
  // "Sustained resource availability" (§4) means a full 3 s of calm — longer
  // than the frontend's retry deadline, so heavyweight culprits re-execute
  // only into genuinely idle periods (or are dropped).
  config.reexec_calm_windows = 60;
  // The Fig-13 ablation variants differ only in config.policy; detection and
  // estimation are the paper's in all three.
  auto runtime = std::make_unique<AtroposRuntime>(clock, config);
  runtime->SetControlSurface(surface);
  return runtime;
}

BaselineConfig BaselineFor(const ControllerParams& params) {
  BaselineConfig config;
  config.slo_latency_increase = params.slo_latency_increase;
  config.calibration_windows = 20;  // 1 s of 50 ms windows
  return config;
}

}  // namespace

std::unique_ptr<OverloadController> MakeController(ControllerKind kind, Clock* clock,
                                                   ControlSurface* surface,
                                                   const ControllerParams& params) {
  switch (kind) {
    case ControllerKind::kNone:
      return std::make_unique<NullController>();
    case ControllerKind::kAtropos:
      return MakeAtropos(clock, surface, params, PolicyKind::kMultiObjective);
    case ControllerKind::kAtroposHeuristic:
      return MakeAtropos(clock, surface, params, PolicyKind::kHeuristic);
    case ControllerKind::kAtroposCurrentUsage:
      return MakeAtropos(clock, surface, params, PolicyKind::kCurrentUsage);
    case ControllerKind::kProtego:
      return std::make_unique<Protego>(clock, surface, BaselineFor(params));
    case ControllerKind::kPBox:
      return std::make_unique<PBox>(clock, surface);
    case ControllerKind::kDarc:
      return std::make_unique<Darc>(clock, surface, DarcConfig{params.total_workers});
    case ControllerKind::kParties:
      return std::make_unique<Parties>(clock, surface, BaselineFor(params));
  }
  return std::make_unique<NullController>();
}

}  // namespace atropos
