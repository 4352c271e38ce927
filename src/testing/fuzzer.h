// Deterministic simulation fuzzer for the Atropos control loop.
//
// RunPlan materializes one FuzzPlan into a full simulation — executor +
// AtroposRuntime (flight recorder attached) + application + audit controller
// + frontend replaying the plan's request schedule — runs it to quiescence,
// and audits the result with every invariant oracle. Identical plans produce
// identical event digests; a non-empty violation list is a bug or a planted
// fault.

#ifndef SRC_TESTING_FUZZER_H_
#define SRC_TESTING_FUZZER_H_

#include <cstddef>
#include <vector>

#include "src/testing/fuzz_plan.h"
#include "src/testing/oracles.h"
#include "src/workload/frontend.h"

namespace atropos {

struct FuzzRunResult {
  FuzzPlan plan;
  RunMetrics metrics;
  AtroposStats stats;
  std::vector<OracleViolation> violations;
  uint64_t digest = 0;  // FNV-1a over the full flight-recorder stream
  // The run's complete flight-recorder stream (the digest's preimage). The
  // scenario miner hands this to the offline bottleneck diagnoser.
  std::vector<FlightEvent> events;

  bool ok() const { return violations.empty(); }
};

// The flight-recorder bound RunPlan uses by default. The oracles audit the
// *complete* decision history, so it is far above any run instead of the
// post-mortem default (overflow would itself be flagged by the
// detector-monotonicity oracle). It is a bounded ring whose slots are built
// on first record: the bound costs only what the run records.
inline constexpr size_t kFuzzRecorderCapacity = 1 << 17;

// Runs one materialized plan through the full stack and audits it. Tests
// pass a small `recorder_capacity` to make the recorder wrap.
FuzzRunResult RunPlan(const FuzzPlan& plan,
                      size_t recorder_capacity = kFuzzRecorderCapacity);

// PlanFromSeed + RunPlan.
FuzzRunResult RunSeed(uint64_t seed, const FuzzPlanOptions& options = {});

}  // namespace atropos

#endif  // SRC_TESTING_FUZZER_H_
