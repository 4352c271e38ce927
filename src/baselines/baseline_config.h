// Shared configuration for the reimplemented baseline controllers.

#ifndef SRC_BASELINES_BASELINE_CONFIG_H_
#define SRC_BASELINES_BASELINE_CONFIG_H_

#include "src/common/clock.h"

namespace atropos {

struct BaselineConfig {
  // Non-overloaded p99 target; 0 means calibrate online from early windows.
  TimeMicros baseline_p99 = 0;
  double slo_latency_increase = 0.20;
  int calibration_windows = 10;
};

}  // namespace atropos

#endif  // SRC_BASELINES_BASELINE_CONFIG_H_
