// Resource-overload estimation (paper §3.4–3.5).
//
// The work is split in two steps. Estimate() runs every window: it computes
// each resource's contention level (raw, class-specific formula), its
// normalized form C_r = D_r / (T_base + D_r), and which resources are
// overloaded — the inputs of the §4 calm-window accounting and of
// last_metrics(). ScoreCandidates() runs only on the selection path (overload
// suspected, a resource confirmed, pacing admitted): for the overloaded
// resources it prices each live task's resource gain (future-usage
// prediction via the GetNext progress model) and the current-usage variant
// used by the Fig 13 ablation. A window that flags a resource but selects no
// victim never builds a candidate row.

#ifndef SRC_ATROPOS_ESTIMATOR_H_
#define SRC_ATROPOS_ESTIMATOR_H_

#include <vector>

#include "src/atropos/accounting.h"
#include "src/atropos/config.h"
#include "src/atropos/ledger.h"
#include "src/atropos/policy.h"

namespace atropos {

class Estimator {
 public:
  explicit Estimator(const AtroposConfig& config) : config_(config) {}

  // While calibrating (the detector is still learning the latency baseline),
  // per-resource contention levels are recorded as the healthy baseline and
  // no resource is flagged overloaded.
  void SetCalibrating(bool calibrating) { calibrating_ = calibrating; }
  // Mean calibrated contention of resource `id`; 0 for a resource that saw
  // no calibration window.
  double BaselineContention(ResourceId id) const {
    if (id == 0 || id > baseline_contention_.size()) {
      return 0.0;
    }
    const Baseline& baseline = baseline_contention_[id - 1];
    if (baseline.windows == 0) {
      return 0.0;
    }
    return baseline.sum / static_cast<double>(baseline.windows);
  }

  struct Output {
    std::vector<ResourceMetrics> all_resources;  // one entry per registered resource
    PolicyInput policy_input;  // objectives = overloaded resources; candidates: ScoreCandidates()
    bool resource_overload = false;              // any resource over threshold
  };

  // Computes the window's metrics from the ledger's books: live tasks are
  // walked in ascending-TaskId order (the ledger's stable live list) and
  // resources in ascending-id order, so the output is deterministic.
  // `exec_time` is T_base: the window's *productive* execution time
  // (completed request time attributed to the window, floored at the window
  // length). The §3.5 normalization is then C_r = D_r / (T_base + D_r),
  // bounded and per-resource. `window_start` clips the open wait/hold
  // intervals of live tasks to this window; closed intervals are expected in
  // the resources' window counters.
  //
  // The result lives in the estimator and is overwritten by the next call;
  // its buffers are reused, so once they have reached their size a window
  // allocates nothing. `policy_input.candidates` is left empty: a window
  // that selects nothing never exposes an earlier window's rows.
  const Output& Estimate(const TaskLedger& ledger, TimeMicros exec_time,
                         TimeMicros window_start, TimeMicros now);

  // Fills `policy_input.candidates` of the last Estimate(): one row per live
  // task, gains and current usage per objective (the overloaded resources),
  // each column normalized to [0, 1]. Scored at the last Estimate()'s `now`
  // over `ledger`, which must be the same, unmodified ledger. Allocates per
  // candidate, so the runtime calls it only right before
  // SelectVictim.
  const PolicyInput& ScoreCandidates(const TaskLedger& ledger);

 private:
  // Open wait/hold time of one resource in the window being estimated.
  struct Delta {
    TimeMicros wait = 0;
    TimeMicros hold = 0;
  };

  AtroposConfig config_;
  bool calibrating_ = true;
  struct Baseline {
    double sum = 0.0;
    uint64_t windows = 0;
  };
  std::vector<Baseline> baseline_contention_;  // indexed by resource slot (id - 1)
  std::vector<Delta> deltas_;  // indexed by resource slot (id - 1)
  TimeMicros now_ = 0;         // the last Estimate()'s `now`
  Output out_;
};

}  // namespace atropos

#endif  // SRC_ATROPOS_ESTIMATOR_H_
