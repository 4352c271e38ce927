// Parameters of the Atropos runtime.
//
// Only the values some caller varies are fields of AtroposConfig. The fixed
// design rules of the control loop (the throughput-flat tolerance, the
// sampling quantum, the gain floors, ...) are named constants in the one
// module that reads them.

#ifndef SRC_ATROPOS_CONFIG_H_
#define SRC_ATROPOS_CONFIG_H_

#include "src/common/clock.h"

namespace atropos {

// Which cancellation policy drives victim selection (§3.5, Fig 13 ablation).
enum class PolicyKind {
  kMultiObjective = 0,  // Pareto non-dominated set + contention-weighted scalarization
  kHeuristic = 1,       // max gain on the single most contended resource
  kCurrentUsage = 2,    // multi-objective, but gain = current usage (no future prediction)
};

// Timestamping mode for the tracing APIs (§3.2 overhead discussion).
enum class TimestampMode {
  kSampled = 0,   // ledger quantizes event stamps to the sampling interval
  kPerEvent = 1,  // every event keeps its own stamp (during suspected overload)
};

// Fairness (§4): a task may be cancelled at most this many times; on
// re-execution it is marked non-cancellable. The estimator enforces it and
// the fuzz oracles check it.
inline constexpr int kMaxCancelsPerTask = 1;

struct AtroposConfig {
  // Estimation/detection window; metrics are aggregated per window.
  TimeMicros window = Millis(100);

  // SLO expressed as tolerated p99 latency increase over the non-overloaded
  // baseline (§5.3 uses 10/20/40/60%).
  double slo_latency_increase = 0.20;

  // Baseline p99 latency. If zero, the detector calibrates it from the first
  // `calibration_windows` windows.
  TimeMicros baseline_p99 = 0;
  int calibration_windows = 10;

  // A resource is considered overloaded when its normalized contention level
  // C_r = D_r / T_exec exceeds this threshold (§3.5 normalization), and a
  // fixed multiple of its calibrated baseline (estimator.cc).
  double contention_threshold = 0.10;

  // Minimum virtual time between consecutive cancellations; prevents
  // excessive task termination (§5.3 discusses the resulting trade-off).
  TimeMicros min_cancel_interval = Millis(200);

  // Windows of sustained sub-threshold contention before re-execution of
  // cancelled tasks is recommended (§4 "sustained resource availability").
  // Deliberately longer than a typical frontend retry deadline: a cancelled
  // heavyweight request should only re-execute into genuinely sustained calm,
  // otherwise it recreates the exact overload it caused, non-cancellably.
  int reexec_calm_windows = 30;

  PolicyKind policy = PolicyKind::kMultiObjective;

  TimestampMode timestamp_mode = TimestampMode::kSampled;

  // Master switches used by the overhead experiments (Fig 14): tracing can be
  // left on while cancellation actions are disabled.
  bool cancellation_enabled = true;
};

}  // namespace atropos

#endif  // SRC_ATROPOS_CONFIG_H_
