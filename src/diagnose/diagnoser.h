// Offline bottleneck diagnoser over flight-recorder traces.
//
// Replays a recorded decision history (src/obs FlightEvents) and answers,
// after the fact, the question the estimator answers online: which resource
// was the bottleneck, and which tasks were the culprits? The diagnoser works
// from the *raw* evidence in the trace — window p99 series and per-resource
// wait/hold delay samples — and calibrates its own healthy baseline, so its
// verdict is an independent reconstruction rather than a readback of the
// estimator's `overloaded` flags. That independence is what makes it usable
// as a test oracle: the corpus replay cross-checks the diagnoser's blamed
// resource class against the estimator's online verdict and flags
// disagreements.
//
// Everything here is pure and deterministic: no clocks, no randomness, no
// I/O (trace parsing lives in trace_io.h). Ties are broken by name/id so the
// same trace always yields the same diagnosis.

#ifndef SRC_DIAGNOSE_DIAGNOSER_H_
#define SRC_DIAGNOSE_DIAGNOSER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/common/clock.h"
#include "src/obs/events.h"

namespace atropos {

// Aggregated wait/hold evidence for one resource across the trace.
struct ResourceDossier {
  uint32_t id = 0;
  std::string name;
  std::string cls;               // "lock" / "memory" / "queue" / "cpu" / "io"
  uint64_t snapshots = 0;        // snapshots in which this resource appeared
  uint64_t total_delay_us = 0;   // integrated raw delay across snapshots
  uint64_t peak_delay_us = 0;    // largest single-snapshot delay
  double peak_contention_raw = 0.0;
  double mean_contention_raw = 0.0;  // averaged over the snapshots it appeared in
  double delay_share = 0.0;      // total_delay_us / sum over all resources
  TimeMicros first_at = 0;       // first snapshot time it appeared in
  TimeMicros last_at = 0;        // last snapshot time it appeared in
};

// One task's accumulated culpability evidence.
struct CulpritVerdict {
  uint64_t key = 0;
  uint64_t decisions = 0;  // policy decisions it appeared in as a candidate
  uint64_t pareto = 0;     // ... of which it survived the Pareto filter
  uint64_t cancels = 0;    // cancel_issued events naming it
  double score = 0.0;      // summed scalarized policy scores
};

struct Diagnosis {
  // Window-level health.
  uint64_t windows = 0;
  uint64_t degraded_windows = 0;
  TimeMicros baseline_p99 = 0;  // calibrated healthy p99
  TimeMicros peak_p99 = 0;

  // Evidence volume.
  uint64_t snapshots = 0;  // contention snapshots in the trace
  uint64_t cancels = 0;    // cancel_issued events

  // The verdict. `overload_observed` is false when the trace contains no
  // degraded windows and no contention evidence; the blame fields are then
  // empty.
  bool overload_observed = false;
  std::string blamed_class;     // dominant bottleneck resource class
  std::string blamed_resource;  // the single worst resource by delay
  double blame_share = 0.0;     // blamed class's share of integrated delay

  std::vector<ResourceDossier> resources;  // sorted by total delay, desc
  std::vector<CulpritVerdict> culprits;    // ranked, capped at 8

  // Multi-line human-readable report for CLI output.
  std::string Render() const;
};

// Reconstructs the bottleneck attribution from raw trace evidence.
Diagnosis DiagnoseTrace(const std::vector<FlightEvent>& events);

// The *estimator's* verdict as recorded in the trace: the resource class
// most often flagged `overloaded` in contention snapshots (ties broken by
// class name). Empty when the trace never flagged any resource. This is the
// other side of the diagnoser-vs-estimator agreement oracle.
std::string EstimatorBlamedClass(const std::vector<FlightEvent>& events);

}  // namespace atropos

#endif  // SRC_DIAGNOSE_DIAGNOSER_H_
