// pBox baseline (Hu et al., SOSP'23) — request-level performance isolation.
//
// pBox traces per-task resource usage, detects tasks consuming far more than
// their peers on a contended resource, and penalizes them by throttling their
// resource consumption. It never terminates a running request, so — as §2.2
// demonstrates — it cannot release resources a problematic request already
// holds and only partially mitigates severe overload.

#ifndef SRC_BASELINES_PBOX_H_
#define SRC_BASELINES_PBOX_H_

#include <set>
#include <unordered_map>

#include "src/atropos/controller.h"
#include "src/baselines/baseline_config.h"

namespace atropos {

struct PBoxConfig : BaselineConfig {
  // A resource is contended when waiters lost more than this fraction of the
  // window to it.
  double contention_threshold = 0.10;
  // Penalty slowdown applied to the top consumer.
  double penalty_factor = 4.0;
  // Windows of calm before penalties are lifted.
  int calm_windows = 3;
};

class PBox final : public OverloadController {
 public:
  PBox(Clock* clock, ControlSurface* surface, PBoxConfig config);

  std::string_view name() const override { return "pbox"; }

  void OnEvent(const TraceEvent& ev) override;
  void Tick() override;

  uint64_t penalties_issued() const { return penalties_; }

 private:
  struct Usage {
    uint64_t held = 0;
    TimeMicros hold_started = 0;
    TimeMicros hold_time = 0;
    TimeMicros HoldAt(TimeMicros now) const {
      return hold_time + (held > 0 && now > hold_started ? now - hold_started : 0);
    }
  };

  Clock* clock_;
  ControlSurface* surface_;
  PBoxConfig config_;

  // (key, resource) -> usage; window wait per resource.
  std::unordered_map<uint64_t, std::unordered_map<ResourceId, Usage>> usage_;
  std::unordered_map<uint64_t, TimeMicros> wait_start_;       // key -> start
  std::unordered_map<ResourceId, TimeMicros> window_wait_;    // resource -> total wait
  std::set<uint64_t> penalized_;
  int calm_ = 0;
  TimeMicros window_start_ = 0;
  uint64_t penalties_ = 0;
};

}  // namespace atropos

#endif  // SRC_BASELINES_PBOX_H_
