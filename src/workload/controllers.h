// Factory for the overload controllers compared in the evaluation.

#ifndef SRC_WORKLOAD_CONTROLLERS_H_
#define SRC_WORKLOAD_CONTROLLERS_H_

#include <memory>
#include <string_view>

#include "src/atropos/runtime.h"
#include "src/baselines/darc.h"
#include "src/baselines/parties.h"
#include "src/baselines/pbox.h"
#include "src/baselines/protego.h"

namespace atropos {

enum class ControllerKind {
  kNone = 0,                  // uncontrolled ("Overload" curves)
  kAtropos = 1,
  kAtroposHeuristic = 2,      // Fig 13 baseline 1
  kAtroposCurrentUsage = 3,   // Fig 13 baseline 2
  kProtego = 4,
  kPBox = 5,
  kDarc = 6,
  kParties = 7,
};

std::string_view ControllerKindName(ControllerKind kind);

// Decision window of every controller MakeController builds; the frontend
// driving one ticks it at the same period.
inline constexpr TimeMicros kControllerWindow = Millis(50);

// What the case runs vary. Every controller calibrates its baseline p99
// online from its early windows.
struct ControllerParams {
  double slo_latency_increase = 0.20;
  int total_workers = 16;  // DARC reservation pool size
  TimeMicros min_cancel_interval = Millis(50);
};

std::unique_ptr<OverloadController> MakeController(ControllerKind kind, Clock* clock,
                                                   ControlSurface* surface,
                                                   const ControllerParams& params);

}  // namespace atropos

#endif  // SRC_WORKLOAD_CONTROLLERS_H_
