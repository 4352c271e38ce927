// Protego baseline (Cho et al., NSDI'23) — lock-contention-aware overload
// control.
//
// Protego lets requests execute and monitors each one's lock wait time; when
// a request's accumulated lock delay approaches the SLO it is dropped. The
// crucial contrast with Atropos (§2.2): Protego drops the *victims* whose
// waits are long, not the culprit holding the lock — so it bounds tail
// latency at the cost of a high drop rate and reduced throughput, and it only
// observes synchronization resources.

#ifndef SRC_BASELINES_PROTEGO_H_
#define SRC_BASELINES_PROTEGO_H_

#include <unordered_map>

#include "src/atropos/controller.h"
#include "src/baselines/baseline_config.h"
#include "src/common/histogram.h"
#include "src/common/rng.h"

namespace atropos {

struct ProtegoConfig : BaselineConfig {
  // Drop a request once its lock wait exceeds this fraction of the SLO
  // latency target.
  double drop_wait_fraction = 0.5;
  // Performance-driven admission control: while the SLO is violated the shed
  // probability ramps up by this step per window, and decays when healthy.
  double shed_step = 0.15;
  double shed_decay = 0.7;
  double shed_max = 0.9;
  uint64_t seed = 1234;
};

class Protego final : public OverloadController {
 public:
  Protego(Clock* clock, ControlSurface* surface, ProtegoConfig config);

  std::string_view name() const override { return "protego"; }

  bool AdmitRequest(uint64_t key, int request_type, int client_class) override;
  void OnEvent(const TraceEvent& ev) override;
  void Tick() override;

  uint64_t drops_issued() const { return drops_; }
  TimeMicros slo_latency() const;

 private:
  bool IsLockLike(ResourceId resource) const;

  Clock* clock_;
  ControlSurface* surface_;
  ProtegoConfig config_;

  // key -> start of its current lock wait.
  std::unordered_map<uint64_t, TimeMicros> waiting_;
  // Keys outside the SLO-bearing client class (batch / maintenance traffic):
  // Protego manages latency-sensitive requests only — it has no mandate to
  // kill maintenance operations (which is exactly why it drops victims
  // rather than culprits, §2.2).
  std::unordered_map<uint64_t, int> client_class_;
  // Accumulated lock delay per in-flight request.
  std::unordered_map<uint64_t, TimeMicros> lock_delay_;

  // Online baseline calibration.
  LatencyHistogram window_latency_;
  uint64_t window_completions_ = 0;
  int calibration_seen_ = 0;
  TimeMicros baseline_p99_ = 0;

  uint64_t drops_ = 0;

  // Admission shedding state.
  double shed_probability_ = 0.0;
  Rng rng_;
};

}  // namespace atropos

#endif  // SRC_BASELINES_PROTEGO_H_
