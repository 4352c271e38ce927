#include "src/atropos/pipeline.h"

namespace atropos {

DecisionPipeline DecisionPipeline::Default(const AtroposConfig& config) {
  DecisionPipeline pipeline;
  pipeline.detection = std::make_unique<BreakwaterDetectionStage>(config);
  pipeline.selection = MakeSelectionPolicy(config.policy);
  return pipeline;
}

std::unique_ptr<SelectionPolicy> DecisionPipeline::MakeSelectionPolicy(PolicyKind kind) {
  switch (kind) {
    case PolicyKind::kMultiObjective:
      return std::make_unique<MultiObjectivePolicy>();
    case PolicyKind::kHeuristic:
      return std::make_unique<HeuristicPolicy>();
    case PolicyKind::kCurrentUsage:
      return std::make_unique<CurrentUsagePolicy>();
  }
  return std::make_unique<MultiObjectivePolicy>();
}

}  // namespace atropos
