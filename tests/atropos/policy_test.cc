#include "src/atropos/policy.h"

#include <gtest/gtest.h>

namespace atropos {
namespace {

ResourceMetrics MakeResource(ResourceId id, double contention_norm) {
  ResourceMetrics m;
  m.id = id;
  m.contention_norm = contention_norm;
  m.overloaded = true;
  return m;
}

PolicyInput::Candidate MakeCandidate(TaskId id, std::vector<double> gains,
                                     std::vector<double> current = {}, bool cancellable = true) {
  PolicyInput::Candidate c;
  c.task = id;
  c.cancellable = cancellable;
  if (current.empty()) {
    current = gains;
  }
  c.gains = std::move(gains);
  c.current_usage = std::move(current);
  return c;
}

TEST(DominatesTest, StrictDomination) {
  EXPECT_TRUE(Dominates({5, 2}, {4, 1}));
  EXPECT_TRUE(Dominates({5, 2}, {5, 1}));
  EXPECT_FALSE(Dominates({5, 2}, {5, 2}));  // equal: not strictly greater anywhere
  EXPECT_FALSE(Dominates({5, 0}, {4, 1}));  // trade-off: incomparable
  EXPECT_FALSE(Dominates({4, 1}, {5, 2}));
}

TEST(MultiObjectiveTest, PaperScalarizationExample) {
  // §3.5 worked example: C_mem=0.6, C_lock=0.4; task A gains (3,1), B (2,2).
  // Score(A) = 0.6*3 + 0.4*1 = 2.2 > Score(B) = 2.0 -> cancel A.
  PolicyInput input;
  input.resources = {MakeResource(1, 0.6), MakeResource(2, 0.4)};
  input.candidates.push_back(MakeCandidate(100, {3, 1}));
  input.candidates.push_back(MakeCandidate(200, {2, 2}));
  PolicyDecision d = SelectMultiObjective(input);
  EXPECT_EQ(d.victim, 100u);
  EXPECT_DOUBLE_EQ(d.score, 2.2);
}

TEST(MultiObjectiveTest, DominatedTasksExcluded) {
  // §3.5: (5,2) dominates (4,1); even with weights favouring the dominated
  // task it must not be selected because it never enters the Pareto set.
  PolicyInput input;
  input.resources = {MakeResource(1, 0.5), MakeResource(2, 0.5)};
  input.candidates.push_back(MakeCandidate(1, {5, 2}));
  input.candidates.push_back(MakeCandidate(2, {4, 1}));
  PolicyDecision d = SelectMultiObjective(input);
  EXPECT_EQ(d.victim, 1u);
}

TEST(MultiObjectiveTest, NonCancellableTasksSkipped) {
  PolicyInput input;
  input.resources = {MakeResource(1, 1.0)};
  input.candidates.push_back(MakeCandidate(1, {10}, {}, /*cancellable=*/false));
  input.candidates.push_back(MakeCandidate(2, {3}));
  PolicyDecision d = SelectMultiObjective(input);
  EXPECT_EQ(d.victim, 2u);
}

TEST(MultiObjectiveTest, NoResourcesNoDecision) {
  PolicyInput input;
  input.candidates.push_back(MakeCandidate(1, {}));
  EXPECT_FALSE(SelectMultiObjective(input).found());
}

TEST(MultiObjectiveTest, AllZeroGainsNoDecision) {
  PolicyInput input;
  input.resources = {MakeResource(1, 0.9)};
  input.candidates.push_back(MakeCandidate(1, {0}));
  input.candidates.push_back(MakeCandidate(2, {0}));
  EXPECT_FALSE(SelectVictim(PolicyKind::kMultiObjective, input).found());
}

TEST(MultiObjectiveTest, IncomparableTasksBothConsidered) {
  // X: (3,0), Y: (2,2) — neither dominates. Weights decide.
  PolicyInput input;
  input.resources = {MakeResource(1, 0.9), MakeResource(2, 0.1)};
  input.candidates.push_back(MakeCandidate(1, {3, 0}));
  input.candidates.push_back(MakeCandidate(2, {2, 2}));
  EXPECT_EQ(SelectMultiObjective(input).victim, 1u);  // 2.7 vs 2.0

  input.resources = {MakeResource(1, 0.2), MakeResource(2, 0.8)};
  EXPECT_EQ(SelectMultiObjective(input).victim, 2u);  // 0.6 vs 2.0
}

TEST(HeuristicTest, PicksMaxGainOnMostContendedResource) {
  // Resource 2 is most contended; task 1 has the highest gain there even
  // though task 2 is globally better.
  PolicyInput input;
  input.resources = {MakeResource(1, 0.3), MakeResource(2, 0.7)};
  input.candidates.push_back(MakeCandidate(1, {0.1, 0.9}));
  input.candidates.push_back(MakeCandidate(2, {1.0, 0.8}));
  PolicyDecision d = SelectHeuristic(input);
  EXPECT_EQ(d.victim, 1u);
}

TEST(HeuristicTest, ZeroGainOnTopResourceMeansNoVictim) {
  PolicyInput input;
  input.resources = {MakeResource(1, 0.9)};
  input.candidates.push_back(MakeCandidate(1, {0.0}));
  EXPECT_FALSE(SelectVictim(PolicyKind::kHeuristic, input).found());
}

TEST(CurrentUsageTest, UsesCurrentNotFutureGain) {
  // Task 1: near completion, large current usage, tiny future gain.
  // Task 2: just started, small current usage, huge future gain.
  // The current-usage baseline picks task 1; multi-objective picks task 2.
  PolicyInput input;
  input.resources = {MakeResource(1, 1.0)};
  input.candidates.push_back(MakeCandidate(1, /*gains=*/{0.1}, /*current=*/{1.0}));
  input.candidates.push_back(MakeCandidate(2, /*gains=*/{1.0}, /*current=*/{0.2}));
  EXPECT_EQ(SelectCurrentUsage(input).victim, 1u);
  EXPECT_EQ(SelectMultiObjective(input).victim, 2u);
}

TEST(SelectVictimTest, DispatchesAllPolicies) {
  PolicyInput input;
  input.resources = {MakeResource(1, 1.0)};
  input.candidates.push_back(MakeCandidate(7, {1.0}));
  for (PolicyKind kind :
       {PolicyKind::kMultiObjective, PolicyKind::kHeuristic, PolicyKind::kCurrentUsage}) {
    EXPECT_EQ(SelectVictim(kind, input).victim, 7u);
  }
}

// A victim whose cancellation frees nothing is never chosen, under every
// policy: when the only cancellable candidate has all-zero gains (and
// current usage), each policy scores it 0 and SelectVictim refuses it.
TEST(SelectVictimTest, ZeroScoreVictimIsNeverCancelled) {
  PolicyInput input;
  input.resources = {MakeResource(1, 0.9)};
  input.candidates.push_back(MakeCandidate(100, {1.0}, {}, /*cancellable=*/false));
  input.candidates.push_back(MakeCandidate(200, {0.0}));
  // Each selector alone picks the zero-score candidate ...
  EXPECT_EQ(SelectMultiObjective(input).victim, 200u);
  EXPECT_EQ(SelectHeuristic(input).victim, 200u);
  EXPECT_EQ(SelectCurrentUsage(input).victim, 200u);
  // ... and SelectVictim refuses it.
  for (PolicyKind kind :
       {PolicyKind::kMultiObjective, PolicyKind::kHeuristic, PolicyKind::kCurrentUsage}) {
    SCOPED_TRACE(static_cast<int>(kind));
    EXPECT_FALSE(SelectVictim(kind, input).found());
  }
}

// Property-style sweep: the multi-objective winner is never dominated by
// any other cancellable candidate.
class PolicyPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(PolicyPropertyTest, WinnerIsParetoOptimal) {
  // Deterministic pseudo-random inputs derived from the parameter.
  uint64_t seed = static_cast<uint64_t>(GetParam());
  auto next = [&seed]() {
    seed = seed * 6364136223846793005ull + 1442695040888963407ull;
    return static_cast<double>((seed >> 33) % 1000) / 1000.0;
  };
  PolicyInput input;
  int resources = 1 + GetParam() % 4;
  for (int r = 0; r < resources; r++) {
    input.resources.push_back(MakeResource(static_cast<ResourceId>(r + 1), next()));
  }
  for (int t = 0; t < 12; t++) {
    std::vector<double> gains;
    for (int r = 0; r < resources; r++) {
      gains.push_back(next());
    }
    input.candidates.push_back(MakeCandidate(static_cast<TaskId>(t + 1), std::move(gains)));
  }
  PolicyDecision d = SelectMultiObjective(input);
  ASSERT_TRUE(d.found());
  const PolicyInput::Candidate* winner = nullptr;
  for (const auto& c : input.candidates) {
    if (c.task == d.victim) {
      winner = &c;
    }
  }
  ASSERT_NE(winner, nullptr);
  for (const auto& c : input.candidates) {
    if (&c != winner) {
      EXPECT_FALSE(Dominates(c.gains, winner->gains))
          << "winner " << d.victim << " dominated by " << c.task;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(RandomInputs, PolicyPropertyTest, ::testing::Range(1, 40));

}  // namespace
}  // namespace atropos
