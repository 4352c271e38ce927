// PARTIES baseline (Chen et al., ASPLOS'19) — QoS-aware resource partitioning.
//
// PARTIES monitors each client class's tail latency and incrementally shifts
// resource shares from classes with slack toward classes violating their QoS
// target (upsize/downsize steps with a settle period). Partitioning cannot
// revoke resources a running request already holds, so it under-performs on
// the lock/memory overload cases (§5.2).

#ifndef SRC_BASELINES_PARTIES_H_
#define SRC_BASELINES_PARTIES_H_

#include <unordered_map>

#include "src/atropos/controller.h"
#include "src/baselines/baseline_config.h"
#include "src/common/histogram.h"

namespace atropos {

struct PartiesConfig : BaselineConfig {
  int num_classes = 2;
  double share_step = 0.10;   // share shifted per adjustment
  double min_share = 0.10;
  int settle_windows = 2;     // windows between adjustments
};

class Parties final : public OverloadController {
 public:
  Parties(Clock* clock, ControlSurface* surface, PartiesConfig config);

  std::string_view name() const override { return "parties"; }

  void OnEvent(const TraceEvent& ev) override;
  void Tick() override;

  double ShareOf(int client_class) const;
  uint64_t adjustments() const { return adjustments_; }

 private:
  TimeMicros slo_latency() const {
    return static_cast<TimeMicros>(static_cast<double>(baseline_p99_) *
                                   (1.0 + config_.slo_latency_increase));
  }

  ControlSurface* surface_;
  PartiesConfig config_;

  std::unordered_map<int, LatencyHistogram> window_latency_;
  std::unordered_map<int, double> shares_;
  TimeMicros baseline_p99_ = 0;
  int calibration_seen_ = 0;
  uint64_t window_completions_ = 0;
  int since_adjustment_ = 0;
  uint64_t adjustments_ = 0;
};

}  // namespace atropos

#endif  // SRC_BASELINES_PARTIES_H_
