// Invariant oracles audited after every fuzz run (DESIGN.md §10).
//
// Each oracle re-derives one property of the Atropos control loop from
// independent evidence — the audit controller's shadow of the instrumentation
// stream, the runtime's conservation ledger, and the recorded decision
// history — instead of trusting the runtime's own view. A clean run yields an
// empty violation list; any entry is a bug (or a planted fault) for the
// shrinker to minimize.

#ifndef SRC_TESTING_ORACLES_H_
#define SRC_TESTING_ORACLES_H_

#include <string>
#include <vector>

#include "src/atropos/runtime.h"
#include "src/obs/flight_recorder.h"
#include "src/sim/executor.h"
#include "src/testing/audit_controller.h"

namespace atropos {

struct OracleViolation {
  std::string oracle;  // which invariant ("accounting_strict", "cancel_safety", ...)
  std::string detail;  // human-readable evidence
};

struct OracleContext {
  const AtroposRuntime* runtime = nullptr;
  const AuditController* audit = nullptr;
  const FlightRecorder* recorder = nullptr;
  const Executor* executor = nullptr;
  PolicyKind policy = PolicyKind::kMultiObjective;
  // Whether the harness registered a cancel initiator with the runtime; when
  // false, the §3.1 property is that zero cancellations were issued.
  bool initiator_registered = true;
};

// Runs the full oracle suite; empty result = all invariants hold.
std::vector<OracleViolation> RunAllOracles(const OracleContext& ctx);

// One line per violation, for logs and repro output.
std::string FormatViolations(const std::vector<OracleViolation>& violations);

}  // namespace atropos

#endif  // SRC_TESTING_ORACLES_H_
