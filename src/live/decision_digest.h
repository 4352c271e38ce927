// Sim-vs-live digest cross-check.
//
// A live run and its simulator counterpart never produce identical decision
// streams: wall-clock jitter moves window boundaries, scheduling noise moves
// contention scores, and the live run's arrival sequence is a different
// Poisson draw. What *must* agree — or the live mode is not executing the
// paper's control loop — is the shape of the decisions:
//
//   1. both detect overload (or both don't),
//   2. both cancel (or neither does), at rates within a tolerance band,
//   3. both pick the same dominant culprit request type,
//   4. the resource class the simulator blames is among the classes the live
//      estimator flagged,
//   5. the first cancellation lands at a similar fraction of the run.
//
// NormalizeDecisions folds a FlightRecorder snapshot into a DecisionDigest —
// counts, label histograms, and run-relative fractions instead of absolute
// timestamps — and CrossCheckDigests compares two digests under fixed
// tolerance bands. Tolerance rules are documented in DESIGN.md §14.

#ifndef SRC_LIVE_DECISION_DIGEST_H_
#define SRC_LIVE_DECISION_DIGEST_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "src/common/clock.h"
#include "src/obs/events.h"

namespace atropos {

struct DecisionDigest {
  double duration_s = 0.0;

  uint64_t windows = 0;            // kWindowClosed
  uint64_t overload_entered = 0;   // kOverloadEntered
  uint64_t snapshots = 0;          // kContentionSnapshot
  uint64_t policy_decisions = 0;   // kPolicyDecision
  uint64_t cancels = 0;            // kCancelIssued

  // kCancelIssued label histogram (labels are request-type names via the
  // cancel observer's AnnotateLast).
  std::map<std::string, uint64_t> cancels_by_label;

  // Resource classes that showed overloaded=true in any contention snapshot.
  std::map<std::string, uint64_t> overloaded_classes;

  // Time of the first cancellation as a fraction of the run ([0,1]; <0 when
  // no cancel was issued).
  double first_cancel_frac = -1.0;

  double CancelRate() const { return duration_s > 0 ? cancels / duration_s : 0.0; }
  // Most frequently cancelled request type ("" when no cancels).
  std::string DominantCancelLabel() const;
  // Most frequently overloaded resource class ("" when none flagged).
  std::string DominantOverloadedClass() const;
};

DecisionDigest NormalizeDecisions(const std::vector<FlightEvent>& events, TimeMicros duration);

struct CrossCheckReport {
  struct Check {
    std::string name;
    bool pass = false;
    std::string detail;
  };
  std::vector<Check> checks;
  bool pass = false;

  std::string Render() const;
};

CrossCheckReport CrossCheckDigests(const DecisionDigest& live, const DecisionDigest& sim);

}  // namespace atropos

#endif  // SRC_LIVE_DECISION_DIGEST_H_
