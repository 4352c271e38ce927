// Tunable parameters of the Atropos runtime.

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

  // Throughput is "flat" if the current window rate is within this fraction
  // of the recent peak (Breakwater-style signal, §3.3).
  double throughput_flat_tolerance = 0.15;

  // This many in-flight requests older than the SLO latency count as a stall
  // regardless of the (survivor-biased) completion p99.
  int stall_active_threshold = 10;

  // A resource is considered overloaded when its normalized contention level
  // C_r = D_r / T_exec exceeds this threshold (§3.5 normalization) ...
  double contention_threshold = 0.10;
  // ... and also exceeds this multiple of the resource's *calibrated baseline*
  // contention. Workloads have inherent queueing (a mutex at 50% utilization
  // produces waits in steady state); only contention well above the healthy
  // baseline marks a resource as the bottleneck.
  double contention_baseline_factor = 2.5;

  // Minimum virtual time between consecutive cancellations; prevents
  // excessive task termination (§5.3 discusses the resulting trade-off).
  TimeMicros min_cancel_interval = Millis(200);

  // Fairness (§4): a task may be cancelled at most this many times; on
  // re-execution it is marked non-cancellable.
  int max_cancels_per_task = 1;

  // Windows of sustained sub-threshold contention before re-execution of
  // cancelled tasks is recommended (§4 "sustained resource availability").
  // Deliberately longer than a typical frontend retry deadline: a cancelled
  // heavyweight request should only re-execute into genuinely sustained calm,
  // otherwise it recreates the exact overload it caused, non-cancellably.
  int reexec_calm_windows = 30;

  PolicyKind policy = PolicyKind::kMultiObjective;

  TimestampMode timestamp_mode = TimestampMode::kSampled;
  // In sampled mode, the quantum the ledger rounds event stamps down to.
  TimeMicros timestamp_sample_interval = Millis(1);

  // Candidates whose predicted future resource gain is insignificant are
  // never cancelled: a task that will release the resource within a fraction
  // of one decision window resolves itself faster than a cancellation would.
  // Time-class resources (lock/queue/cpu/io) compare against
  // min_gain_window_fraction * window; memory resources against
  // min_gain_memory_units.
  double min_gain_window_fraction = 0.5;
  double min_gain_memory_units = 4.0;

  // Client class the latency SLO applies to (-1 = all classes). Detection
  // watches the latency-sensitive workload; long-running batch requests
  // completing slowly are not SLO violations.
  int slo_client_class = 0;

  // Progress assumed for tasks that never report any (§3.4: GetNext model
  // where available, developer API otherwise). 0.5 makes the future-gain
  // factor (1-p)/p equal to 1, i.e. gain = current usage.
  double default_progress = 0.5;

  // Master switches used by the overhead experiments (Fig 14): tracing can be
  // left on while cancellation actions are disabled.
  bool cancellation_enabled = true;
};

}  // namespace atropos

#endif  // SRC_ATROPOS_CONFIG_H_
