// Pluggable decision pipeline (paper §3.3–3.5; Fig 13 ablations).
//
// The control loop is explicitly staged: DetectionStage flags suspected
// overload from end-to-end signals (§3.3), the runtime's Estimator confirms
// which resource is the bottleneck every window and — only when a victim is
// being chosen — prices every candidate's gain (§3.4), and SelectionPolicy
// picks the victim (§3.5). Detection and selection are interfaces; the
// shipped implementations wrap the existing detector/policies, and the
// Fig-13 ablation variants are alternative SelectionPolicy implementations
// injected by the controller factory — not enum special cases inside the
// runtime. Estimation has a single implementation, so it is a plain member of
// AtroposRuntime rather than a stage.
//
// A DecisionPipeline bundles the two stages; AtroposRuntime owns one per
// instance, and RuntimeGroup builds one per shard from a shared factory
// (shared implementations, private per-shard stage state).

#ifndef SRC_ATROPOS_PIPELINE_H_
#define SRC_ATROPOS_PIPELINE_H_

#include <memory>
#include <string_view>

#include "src/atropos/config.h"
#include "src/atropos/detector.h"
#include "src/atropos/policy.h"

namespace atropos {

// ---- Stage interfaces ------------------------------------------------------

// §3.3: turns one closed window's end-to-end sample into an overload signal.
class DetectionStage {
 public:
  virtual ~DetectionStage() = default;
  virtual std::string_view name() const = 0;
  virtual OverloadDetector::Signal OnWindow(const OverloadDetector::WindowSample& sample) = 0;
  // Whether the latency baseline has been learned; gates the stall-convoy
  // signal and keeps the estimator in calibration mode.
  virtual bool calibrated() const = 0;
  // Latency target: baseline p99 * (1 + slo_latency_increase).
  virtual TimeMicros slo_latency() const = 0;
};

// §3.5: picks the victim among the estimator's candidates. Called only on a
// suspected-overload window with a confirmed resource, after pacing admits a
// cancel; the candidates are scored right before the call.
class SelectionPolicy {
 public:
  virtual ~SelectionPolicy() = default;
  virtual std::string_view name() const = 0;
  virtual PolicyDecision Select(const PolicyInput& input, PolicyExplain* explain) = 0;
};

// ---- Shipped implementations -----------------------------------------------

// Breakwater-style end-to-end detection (§3.3) over an OverloadDetector.
class BreakwaterDetectionStage final : public DetectionStage {
 public:
  explicit BreakwaterDetectionStage(const AtroposConfig& config) : detector_(config) {}
  std::string_view name() const override { return "breakwater"; }
  OverloadDetector::Signal OnWindow(const OverloadDetector::WindowSample& sample) override {
    return detector_.OnWindow(sample);
  }
  bool calibrated() const override { return detector_.calibrated(); }
  TimeMicros slo_latency() const override { return detector_.slo_latency(); }
  OverloadDetector& detector() { return detector_; }
  const OverloadDetector& detector() const { return detector_; }

 private:
  OverloadDetector detector_;
};

// Algorithm 1: Pareto non-dominated filter + contention-weighted
// scalarization.
class MultiObjectivePolicy final : public SelectionPolicy {
 public:
  std::string_view name() const override { return "multi_objective"; }
  PolicyDecision Select(const PolicyInput& input, PolicyExplain* explain) override {
    return SelectMultiObjective(input, explain);
  }
};

// Fig 13 baseline 1: greedy — highest gain on the single most contended
// resource.
class HeuristicPolicy final : public SelectionPolicy {
 public:
  std::string_view name() const override { return "heuristic"; }
  PolicyDecision Select(const PolicyInput& input, PolicyExplain* explain) override {
    return SelectHeuristic(input, explain);
  }
};

// Fig 13 baseline 2: multi-objective shape, but scores use current usage
// instead of predicted future gain.
class CurrentUsagePolicy final : public SelectionPolicy {
 public:
  std::string_view name() const override { return "current_usage"; }
  PolicyDecision Select(const PolicyInput& input, PolicyExplain* explain) override {
    return SelectCurrentUsage(input, explain);
  }
};

// ---- Pipeline --------------------------------------------------------------

struct DecisionPipeline {
  std::unique_ptr<DetectionStage> detection;
  std::unique_ptr<SelectionPolicy> selection;

  bool complete() const { return detection != nullptr && selection != nullptr; }

  // The paper's pipeline: Breakwater detection and the selection policy named
  // by config.policy.
  static DecisionPipeline Default(const AtroposConfig& config);

  // The Fig 13 policy stages by ablation kind.
  static std::unique_ptr<SelectionPolicy> MakeSelectionPolicy(PolicyKind kind);
};

}  // namespace atropos

#endif  // SRC_ATROPOS_PIPELINE_H_
