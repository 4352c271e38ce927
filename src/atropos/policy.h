// Cancellation victim selection (paper §3.5, Algorithm 1).
//
// The multi-objective policy first filters candidate tasks to the
// non-dominated (Pareto) set over their per-resource gain vectors, then
// scalarizes with the normalized contention levels as weights. Two ablation
// policies reproduce the Fig 13 baselines.

#ifndef SRC_ATROPOS_POLICY_H_
#define SRC_ATROPOS_POLICY_H_

#include <vector>

#include "src/atropos/accounting.h"
#include "src/atropos/config.h"
#include "src/atropos/types.h"

namespace atropos {

// Everything victim selection needs, assembled by the estimator.
struct PolicyInput {
  // Only resources currently flagged as overloaded participate as objectives.
  std::vector<ResourceMetrics> resources;

  struct Candidate {
    TaskId task = kInvalidTaskId;
    uint64_t key = 0;  // the task's application key
    bool cancellable = true;
    // Gains aligned with `resources` (same indexing); normalized to [0, 1]
    // per resource so units are comparable across resource classes.
    std::vector<double> gains;
    std::vector<double> current_usage;
  };
  std::vector<Candidate> candidates;
};

struct PolicyDecision {
  TaskId victim = kInvalidTaskId;
  uint64_t key = 0;  // the victim's application key
  double score = 0.0;
  bool found() const { return victim != kInvalidTaskId; }
};

// Optional decision trace: how every candidate fared, for the flight
// recorder. Filled only when a non-null pointer is passed to the selectors,
// so the normal control path pays nothing for it.
struct PolicyExplain {
  struct Entry {
    TaskId task = kInvalidTaskId;
    uint64_t key = 0;
    bool cancellable = false;
    bool pareto = false;  // survived the non-dominated filter
    double score = 0.0;   // scalarized score (0 when not scored)
    std::vector<double> gains;
  };
  std::vector<Entry> entries;
};

// Returns true iff `a` dominates `b`: a is >= b on every objective and
// strictly greater on at least one.
bool Dominates(const std::vector<double>& a, const std::vector<double>& b);

// Algorithm 1: non-dominated filter + contention-weighted scalarization.
PolicyDecision SelectMultiObjective(const PolicyInput& input, PolicyExplain* explain = nullptr);

// Fig 13 baseline 1: greedy — highest gain on the single most contended
// resource.
PolicyDecision SelectHeuristic(const PolicyInput& input, PolicyExplain* explain = nullptr);

// Fig 13 baseline 2: multi-objective shape, but scores use current usage
// instead of predicted future gain.
PolicyDecision SelectCurrentUsage(const PolicyInput& input, PolicyExplain* explain = nullptr);

// The runtime's selection step: the policy named by `kind`, except that a
// victim whose score is <= 0 is refused under every policy — its
// cancellation frees nothing.
PolicyDecision SelectVictim(PolicyKind kind, const PolicyInput& input,
                            PolicyExplain* explain = nullptr);

}  // namespace atropos

#endif  // SRC_ATROPOS_POLICY_H_
