// Scenario miner: searches fuzz-plan space for overload runs where targeted
// cancellation demonstrably rescues the SLO.
//
// For each candidate seed the miner runs the same plan twice — once with
// cancellation disabled (the *baseline*: detection and tracing stay on,
// actions off) and once as planned (the *treatment*) — and keeps the seed
// when the baseline sustains resource overload and misses the latency SLO
// while the treatment cancels at least one culprit and recovers the p99 by a
// fixed factor. Survivors are auto-shrunk with ddmin against the same
// two-run predicate under an explicit budget, diagnosed offline (which
// resource class was the bottleneck, per the raw baseline trace), and
// serialized as corpus entries carrying their expected replay digests and
// the diagnoser-vs-estimator agreement verdict.
//
// Everything is deterministic: seeds are scanned in order, the predicate is
// two deterministic simulations, and the shrinker budget is counted in
// predicate evaluations, not wall-clock.

#ifndef SRC_MINING_MINER_H_
#define SRC_MINING_MINER_H_

#include <functional>
#include <string>
#include <vector>

#include "src/mining/corpus.h"
#include "src/testing/fuzzer.h"

namespace atropos {

// The same plan run both ways.
struct ScenarioPair {
  FuzzRunResult baseline;   // cancellation_enabled = false
  FuzzRunResult treatment;  // as planned
};

// Runs the plan twice (baseline first). The baseline flips only the
// cancellation master switch, so both runs share detector windows, tracing,
// and the schedule itself.
ScenarioPair RunScenarioPair(const FuzzPlan& plan);

struct RecoveryVerdict {
  bool qualifies = false;
  uint64_t baseline_overload_windows = 0;
  uint64_t treatment_cancels = 0;
  double p99_ratio = 0.0;  // baseline p99 / treatment p99
  std::string reject_reason;  // empty iff qualifies
};

// Pure predicate over a pair: "baseline misses, treatment recovers". Both
// runs must also be oracle-clean (a mined scenario must exercise the
// controller, not a harness bug).
RecoveryVerdict EvaluateRecovery(const ScenarioPair& pair);

struct MineOptions {
  uint64_t seed_start = 1;
  // Seeds scanned, in order, starting at seed_start.
  int max_seeds = 1000;
  // Stop early once this many scenarios qualified (0 = scan all max_seeds).
  int target = 0;
  // Plan derivation knobs for the whole scan; extended_modes widens the mode
  // draw to the miner-only shapes.
  FuzzPlanOptions plan_options;
  // ddmin budget in predicate evaluations per survivor (each evaluation is
  // two simulations); 0 disables shrinking.
  int shrink_budget = 60;
  // Progress sink (may be null); receives one line per event of interest.
  std::function<void(const std::string&)> progress;
};

struct MineReport {
  std::vector<CorpusEntry> entries;
  int seeds_scanned = 0;
  int candidates = 0;      // seeds whose full plan qualified
  int shrink_runs = 0;     // total predicate evaluations spent shrinking
  int disagreements = 0;   // entries where diagnoser and estimator differ
};

// Scans seeds, shrinks survivors, diagnoses them, and returns finished
// corpus entries (named "<mode>/s<seed>"). Disagreeing entries are annotated
// with an auto-generated note, satisfying the corpus parse contract.
MineReport MineScenarios(const MineOptions& options);

// Builds the finished corpus entry for one qualifying (possibly shrunk)
// plan: re-runs the pair, diagnoses the baseline trace, and fills recipe +
// expected-outcome fields. Exposed for tests.
CorpusEntry EntryForPlan(const FuzzPlan& plan, const FuzzPlanOptions& plan_options);

}  // namespace atropos

#endif  // SRC_MINING_MINER_H_
