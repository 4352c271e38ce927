// The 16 reproduced real-world overload cases (paper Table 2) and the runner
// that executes one case under a chosen controller.
//
// Every case pairs steady victim traffic with culprit work injected from
// t = 3 s (controllers calibrate their latency baseline during the first
// second). The shapes follow the original bug reports: lock convoys, queue
// monopolization, cache/heap thrashing, CPU and I/O saturation.

#ifndef SRC_WORKLOAD_CASES_H_
#define SRC_WORKLOAD_CASES_H_

#include <array>
#include <string>

#include "src/workload/controllers.h"
#include "src/workload/frontend.h"

namespace atropos {

struct CaseInfo {
  int id;                     // 1..16
  const char* app;            // minidb / miniweb / minisearch / minikv
  const char* paper_app;      // the real application the case reproduces
  const char* resource_type;  // Table 2 "Resource Type"
  const char* resource;       // Table 2 "Resource Detail"
  const char* trigger;        // Table 2 "Overload Triggering Condition"
};

inline constexpr int kNumCases = 16;

// Table 2, one entry per case.
const std::array<CaseInfo, kNumCases>& CaseCatalog();

struct CaseRunOptions {
  ControllerKind controller = ControllerKind::kNone;
  bool inject_culprits = true;  // false = non-overloaded normalization run
  double load_scale = 1.0;      // scales victim traffic
  double culprit_scale = 1.0;   // scales culprit arrival rates (Fig 12 sweeps)
  double slo_latency_increase = 0.20;
  TimeMicros duration = Seconds(20);
  TimeMicros warmup = Seconds(2);
  uint64_t seed = 1;
  // Minimum interval between consecutive cancellations (0 = library default).
  // §5.3 discusses the aggressiveness-vs-safety trade-off this controls.
  TimeMicros min_cancel_interval = 0;
  bool verbose = false;               // print cancellation events as they happen
  // Observability bundle (non-owning). When set, the run emits flight-recorder
  // events (run/window/decision/cancellation), per-app request metrics, and a
  // per-tick metric series into it; a post-mortem table is printed if the run
  // ends in SLO violation (unless post_mortem is false).
  Observability* obs = nullptr;
  bool post_mortem = true;
};

struct CaseResult {
  RunMetrics metrics;
  uint64_t controller_actions = 0;  // cancels / drops / penalties / shifts
  std::string controller_name;
  AtroposStats atropos_stats;       // populated for the Atropos controllers
};

// Builds the case's app + traffic, runs it to completion, returns metrics.
CaseResult RunCase(int case_id, const CaseRunOptions& options);

}  // namespace atropos

#endif  // SRC_WORKLOAD_CASES_H_
