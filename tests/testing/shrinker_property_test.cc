// Properties of the generalized shrinker (ShrinkPlanIf): predicate
// preservation — the shrunk plan still satisfies the interestingness test it
// was minimized against — determinism for a fixed seed, budget enforcement,
// and recipe fidelity (the kept indices regenerate the shrunk plan from the
// bare seed).

#include "src/testing/shrinker.h"

#include <gtest/gtest.h>

#include "src/mining/miner.h"

namespace atropos {
namespace {

// The miner's predicate: baseline (cancellation off) sustains overload while
// the treatment cancels and recovers the p99. Seed 1 under extended modes is
// the cheapest known-qualifying plan (db_tickets).
bool Recovers(const FuzzPlan& plan) {
  ScenarioPair pair = RunScenarioPair(plan);
  return EvaluateRecovery(pair).qualifies;
}

FuzzPlanOptions MinerOptions() {
  FuzzPlanOptions options;
  options.extended_modes = true;
  return options;
}

TEST(ShrinkerPropertyTest, ShrunkPlanStillSatisfiesMinerPredicate) {
  FuzzPlan plan = PlanFromSeed(1, MinerOptions());
  ASSERT_TRUE(Recovers(plan)) << "seed 1 stopped qualifying; pick a new seed";

  ShrinkOptions budget;
  budget.max_runs = 30;
  ShrinkResult shrunk = ShrinkPlanIf(plan, Recovers, MinerOptions(), budget);

  EXPECT_LT(shrunk.plan.requests.size(), plan.requests.size());
  EXPECT_TRUE(Recovers(shrunk.plan));
  // Both runs of the surviving plan must stay oracle-clean (part of the
  // predicate): a mined scenario exercises the controller, not harness bugs.
  EXPECT_TRUE(shrunk.violations.empty()) << FormatViolations(shrunk.violations);
}

TEST(ShrinkerPropertyTest, ShrinkingIsDeterministicForAFixedSeed) {
  FuzzPlan plan = PlanFromSeed(1, MinerOptions());
  ShrinkOptions budget;
  budget.max_runs = 30;

  ShrinkResult first = ShrinkPlanIf(plan, Recovers, MinerOptions(), budget);
  ShrinkResult second = ShrinkPlanIf(plan, Recovers, MinerOptions(), budget);

  EXPECT_EQ(first.kept, second.kept);
  EXPECT_EQ(first.runs, second.runs);
  EXPECT_EQ(first.repro, second.repro);
  // And the shrunk plans replay to identical flight-recorder digests.
  EXPECT_EQ(RunPlan(first.plan).digest, RunPlan(second.plan).digest);
}

TEST(ShrinkerPropertyTest, KeptIndicesRegenerateTheShrunkPlan) {
  FuzzPlan plan = PlanFromSeed(1, MinerOptions());
  ShrinkOptions budget;
  budget.max_runs = 20;
  ShrinkResult shrunk = ShrinkPlanIf(plan, Recovers, MinerOptions(), budget);

  FuzzPlan regenerated = RestrictPlan(PlanFromSeed(1, MinerOptions()), shrunk.kept);
  if (shrunk.plan.faults.cancel_delay == 0 && shrunk.plan.faults.extra_ticks.empty()) {
    regenerated.faults.cancel_delay = 0;
    regenerated.faults.extra_ticks.clear();
  }
  EXPECT_EQ(RunPlan(regenerated).digest, RunPlan(shrunk.plan).digest);
}

TEST(ShrinkerPropertyTest, BudgetBoundsPredicateEvaluations) {
  FuzzPlan plan = PlanFromSeed(1, MinerOptions());
  int evaluations = 0;
  ShrinkOptions budget;
  budget.max_runs = 10;
  ShrinkResult shrunk = ShrinkPlanIf(
      plan,
      [&evaluations](const FuzzPlan& candidate) {
        evaluations++;
        return Recovers(candidate);
      },
      MinerOptions(), budget);
  // The final confirmation run is counted in `runs` but not in the
  // budget-gated predicate calls.
  EXPECT_LE(evaluations, 10);
  EXPECT_LE(shrunk.runs, 11);
  EXPECT_TRUE(Recovers(shrunk.plan)) << "budget exhaustion must still return an "
                                        "interesting plan";
}

TEST(ShrinkerPropertyTest, OracleShrinkStillWorksThroughTheGeneralizedPath) {
  // The legacy entry point (default predicate = oracle violation) is a thin
  // wrapper over ShrinkPlanIf; the planted accounting bug must still shrink
  // to a tiny reproducer.
  FuzzPlanOptions options;
  options.drop_free_request_type = 0;
  FuzzRunResult full = RunSeed(5, options);
  ASSERT_FALSE(full.ok());

  ShrinkResult shrunk = ShrinkPlan(full.plan, options);
  EXPECT_FALSE(shrunk.violations.empty());
  EXPECT_LE(shrunk.plan.requests.size(), 5u);
}

}  // namespace
}  // namespace atropos
