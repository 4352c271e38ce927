// Scenario-miner behavior: the baseline/treatment pair, the recovery
// predicate, entry construction (recipe → plan → digests), and the corpus
// replay oracle end to end on a freshly mined scenario.

#include "src/mining/miner.h"

#include <gtest/gtest.h>

#include "src/diagnose/diagnoser.h"
#include "src/mining/replay.h"

namespace atropos {
namespace {

FuzzPlanOptions MinerOptions() {
  FuzzPlanOptions options;
  options.extended_modes = true;
  return options;
}

TEST(MinerTest, BaselineDisablesOnlyTheCancellationSwitch) {
  FuzzPlan plan = PlanFromSeed(1, MinerOptions());
  ScenarioPair pair = RunScenarioPair(plan);

  // The baseline still detects and traces — snapshots exist for the offline
  // diagnoser — but never acts.
  EXPECT_EQ(pair.baseline.stats.cancels_issued, 0u);
  EXPECT_GT(pair.baseline.stats.resource_overload_windows, 0u);
  EXPECT_FALSE(pair.baseline.events.empty());
  EXPECT_GT(pair.treatment.stats.cancels_issued, 0u);
  // Same plan, different outcome: the decision streams must diverge.
  EXPECT_NE(pair.baseline.digest, pair.treatment.digest);
}

TEST(MinerTest, RecoveryPredicateAcceptsKnownScenarioAndExplainsRejects) {
  ScenarioPair pair = RunScenarioPair(PlanFromSeed(1, MinerOptions()));
  RecoveryVerdict verdict = EvaluateRecovery(pair);
  EXPECT_TRUE(verdict.qualifies) << verdict.reject_reason;
  EXPECT_GE(verdict.p99_ratio, 1.5);
  EXPECT_TRUE(verdict.reject_reason.empty());

  // A pair that does not qualify is rejected with a reason: with the baseline
  // run on both sides, the treatment never cancels.
  RecoveryVerdict reject = EvaluateRecovery(ScenarioPair{pair.baseline, pair.baseline});
  EXPECT_FALSE(reject.qualifies);
  EXPECT_EQ(reject.reject_reason, "treatment cancels 0 < 1");
}

TEST(MinerTest, EntryRecipeRegeneratesIdenticalDigests) {
  CorpusEntry entry = EntryForPlan(PlanFromSeed(1, MinerOptions()), MinerOptions());
  EXPECT_EQ(entry.name, entry.mode + "/s1");
  EXPECT_GT(entry.cancels, 0u);
  ASSERT_FALSE(entry.blamed_class.empty());
  EXPECT_TRUE(entry.agreement) << entry.note;

  auto plan = PlanForEntry(entry);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  ScenarioPair replay = RunScenarioPair(plan.value());
  EXPECT_EQ(replay.treatment.digest, entry.digest);
  EXPECT_EQ(replay.baseline.digest, entry.baseline_digest);
}

TEST(MinerTest, MineScenariosShrinksAndReplaysCleanly) {
  MineOptions options;
  options.seed_start = 1;
  options.max_seeds = 4;
  options.target = 1;
  options.shrink_budget = 20;
  options.plan_options = MinerOptions();
  MineReport report = MineScenarios(options);
  ASSERT_EQ(report.entries.size(), 1u);
  EXPECT_GE(report.candidates, 1);
  EXPECT_GT(report.shrink_runs, 0);

  const CorpusEntry& entry = report.entries[0];
  // Shrinking kept a strict subset of the seed's schedule.
  FuzzPlan full = PlanFromSeed(entry.seed, options.plan_options);
  EXPECT_LT(entry.requests, full.requests.size());
  EXPECT_FALSE(entry.keep.empty());

  ReplayReport replay = ReplayCorpus(report.entries, ReplayOptions{});
  EXPECT_TRUE(replay.ok()) << (replay.failures.empty() ? ""
                                                       : replay.failures[0].name + ": " +
                                                             replay.failures[0].what);
  EXPECT_EQ(replay.replayed, 1);
}

TEST(MinerTest, ReplayCatchesDigestDriftAndAttributionDrift) {
  CorpusEntry entry = EntryForPlan(PlanFromSeed(1, MinerOptions()), MinerOptions());

  CorpusEntry drifted = entry;
  drifted.digest ^= 1;
  ReplayReport digest_drift = ReplayCorpus({drifted}, ReplayOptions{});
  ASSERT_FALSE(digest_drift.ok());
  EXPECT_NE(digest_drift.failures[0].what.find("treatment digest"), std::string::npos);

  CorpusEntry misattributed = entry;
  misattributed.blamed_class = entry.blamed_class == "io" ? "lock" : "io";
  misattributed.agreement = false;
  misattributed.note = "planted drift for the replay test";
  ReplayReport attribution_drift = ReplayCorpus({misattributed}, ReplayOptions{});
  ASSERT_FALSE(attribution_drift.ok());
  bool found = false;
  for (const ReplayFailure& failure : attribution_drift.failures) {
    found |= failure.what.find("diagnoser blamed") != std::string::npos;
  }
  EXPECT_TRUE(found);
}

TEST(MinerTest, AgreementFloorIsEnforcedAcrossTheCorpus) {
  CorpusEntry entry = EntryForPlan(PlanFromSeed(1, MinerOptions()), MinerOptions());
  ASSERT_TRUE(entry.agreement);

  // Forge a corpus that is half disagreements (annotated, internally
  // consistent is not required for the rate check — the per-entry field
  // mismatches also fail, but the floor failure must be reported too).
  CorpusEntry disagreeing = entry;
  disagreeing.name = entry.name + "-forged";
  disagreeing.agreement = false;
  disagreeing.note = "forged disagreement";
  ReplayOptions strict;
  strict.require_agreement = 0.95;
  ReplayReport report = ReplayCorpus({entry, disagreeing}, strict);
  ASSERT_FALSE(report.ok());
  bool floor_reported = false;
  for (const ReplayFailure& failure : report.failures) {
    floor_reported |= failure.what.find("agreement rate") != std::string::npos;
  }
  EXPECT_TRUE(floor_reported);
}

}  // namespace
}  // namespace atropos
