// End-to-end tests for the deterministic workload fuzzer: a fixed seed
// corpus must pass every invariant oracle, replay to identical digests, and
// the shrinker must reduce a planted accounting bug to a tiny repro.

#include "src/testing/fuzzer.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/testing/shrinker.h"

namespace atropos {
namespace {

TEST(FuzzerTest, FixedCorpusPassesAllOracles) {
  for (uint64_t seed = 1; seed <= 6; seed++) {
    FuzzRunResult result = RunSeed(seed);
    EXPECT_TRUE(result.ok()) << "seed " << seed << ":\n"
                             << FormatViolations(result.violations);
    EXPECT_GT(result.stats.windows, 0u) << "seed " << seed;
  }
}

TEST(FuzzerTest, IdenticalSeedsReplayToIdenticalDigests) {
  FuzzPlan plan = PlanFromSeed(3);
  FuzzRunResult first = RunPlan(plan);
  FuzzRunResult second = RunPlan(plan);
  EXPECT_NE(first.digest, 0u);
  EXPECT_EQ(first.digest, second.digest);
  // Different seeds produce different schedules and thus different streams.
  EXPECT_NE(first.digest, RunSeed(4).digest);
}

// Regression companion to RuntimeNoInitiatorTest: the fuzzer's
// register_cancel_action=false config point drives a full overloaded run
// with no initiator; the runtime must suppress every decision (§3.1) and the
// run must still satisfy all oracles.
TEST(FuzzerTest, NoInitiatorPlanIssuesNoCancels) {
  // Seed 2 issues cancels when the initiator is registered...
  ASSERT_GT(RunSeed(2).stats.cancels_issued, 0u);
  // ...and must issue none when it is not.
  FuzzPlan plan = PlanFromSeed(2);
  plan.faults.register_cancel_action = false;
  FuzzRunResult result = RunPlan(plan);
  EXPECT_TRUE(result.ok()) << FormatViolations(result.violations);
  EXPECT_EQ(result.stats.cancels_issued, 0u);
  EXPECT_GT(result.stats.cancels_suppressed_no_initiator, 0u);
}

// RunPlan's recorder bound is only safe because the oracles refuse a wrapped
// recorder. Run a plan with a recorder far smaller than the run and expect
// that refusal.
TEST(FuzzerTest, WrappedRecorderIsReportedByDetectorMonotonicity) {
  FuzzPlanOptions options;
  options.force_mode = static_cast<int>(FuzzAppMode::kKvLock);
  FuzzPlan plan = PlanFromSeed(2, options);
  // No initiator is registered: the runtime suppresses every decision
  // (§3.1) but still records each window, far more than 8 events.
  plan.faults.register_cancel_action = false;
  FuzzRunResult result = RunPlan(plan, /*recorder_capacity=*/8);
  ASSERT_EQ(result.events.size(), 8u);  // the recorder is full

  const std::vector<OracleViolation>& violations = result.violations;
  bool wrapped = false;
  for (const OracleViolation& v : violations) {
    wrapped |= v.oracle == "detector_monotonicity" &&
               v.detail.find("flight recorder wrapped") != std::string::npos;
  }
  EXPECT_TRUE(wrapped) << FormatViolations(violations);
}

TEST(FuzzerTest, PlantedAccountingBugIsCaughtAndShrinksSmall) {
  FuzzPlanOptions options;
  options.drop_free_request_type = 0;  // leak the primary request type's frees
  FuzzRunResult full = RunSeed(5, options);
  ASSERT_FALSE(full.ok());
  bool accounting = false;
  for (const auto& v : full.violations) {
    accounting |= v.oracle.find("accounting") != std::string::npos;
  }
  EXPECT_TRUE(accounting) << FormatViolations(full.violations);

  ShrinkResult shrunk = ShrinkPlan(full.plan, options);
  EXPECT_LE(shrunk.plan.requests.size(), 5u);
  EXPECT_FALSE(shrunk.violations.empty());
  EXPECT_NE(shrunk.repro.find("--keep="), std::string::npos) << shrunk.repro;

  // The kept indices alone reproduce the violation from the bare seed.
  FuzzPlan replay = RestrictPlan(PlanFromSeed(5, options), shrunk.kept);
  EXPECT_FALSE(RunPlan(replay).ok());
}

TEST(FuzzerTest, RestrictPlanComposesKeptIndices) {
  FuzzPlan plan = PlanFromSeed(1);
  ASSERT_GE(plan.requests.size(), 6u);
  ASSERT_TRUE(plan.kept.empty());  // identity mask on a fresh plan

  FuzzPlan once = RestrictPlan(plan, {1, 3, 5});
  ASSERT_EQ(once.requests.size(), 3u);
  EXPECT_EQ(once.kept, (std::vector<size_t>{1, 3, 5}));
  EXPECT_EQ(once.requests[0].at, plan.requests[1].at);

  // Restricting a restricted plan maps through to original schedule indices.
  FuzzPlan twice = RestrictPlan(once, {0, 2});
  EXPECT_EQ(twice.kept, (std::vector<size_t>{1, 5}));
  EXPECT_EQ(twice.requests[1].at, plan.requests[5].at);
}

// FNV-1a over every field of the schedule and the kept mask.
uint64_t ScheduleFingerprint(const FuzzPlan& plan) {
  uint64_t h = 0xcbf29ce484222325ull;
  auto mix = [&h](uint64_t v) {
    for (int i = 0; i < 8; i++) {
      h ^= (v >> (8 * i)) & 0xff;
      h *= 0x100000001b3ull;
    }
  };
  mix(plan.requests.size());
  for (const FuzzRequest& req : plan.requests) {
    mix(req.at);
    mix(static_cast<uint64_t>(req.type));
    mix(req.arg);
    mix(static_cast<uint64_t>(req.client_class));
    mix(req.background ? 1 : 0);
    mix(req.non_cancellable ? 1 : 0);
  }
  mix(plan.kept.size());
  for (size_t idx : plan.kept) {
    mix(idx);
  }
  return h;
}

// PlanFromSeed merges its sorted runs instead of sorting the whole schedule.
// The expected values were printed by the whole-schedule std::stable_sort it
// replaced, so any change to the merged order (ties, the storm's unsorted
// bursts, the shot pick) shows here. One fingerprint per mode and load
// scale, folding seeds 1-40.
TEST(FuzzPlanTest, SchedulesMatchParentFingerprints) {
  constexpr double kScales[] = {0.5, 1.0, 1.3};
  constexpr uint64_t kExpected[kNumFuzzAppModesExtended][3] = {
      {0x3212df0bc3ff7458ull, 0xb379a87907ddbb93ull, 0x6deb280ca5950bbaull},  // kv_lock
      {0x52fcc4e4a2fe25a4ull, 0x1b068063b93311deull, 0xcbfd3a4ad1167c45ull},  // db_table_locks
      {0x1efe015b97d89a68ull, 0x1435fd2a08b6ed66ull, 0x8e17f16d283e8935ull},  // db_tickets
      {0xd1ebc711c645032full, 0xd398f33b67912732ull, 0x544b7061a86fb90dull},  // db_buffer_pool
      {0x145b3413b7d336dfull, 0x597ff0f5fe060036ull, 0x0075c85de45f4c13ull},  // db_io
      {0x7a76c92b8ab8e8dcull, 0xf23f93d412d4d076ull, 0x467d43a72aff4c28ull},  // storm
      {0x1a518a3717b01cdaull, 0x2e3868b0179b6311ull, 0xfd452dc20ba91e00ull},  // tenant_noisy
  };
  for (int mode = 0; mode < kNumFuzzAppModesExtended; mode++) {
    for (size_t s = 0; s < 3; s++) {
      FuzzPlanOptions options;
      options.extended_modes = true;
      options.force_mode = mode;
      options.load_scale = kScales[s];
      uint64_t h = 0xcbf29ce484222325ull;
      for (uint64_t seed = 1; seed <= 40; seed++) {
        h = h * 0x100000001b3ull ^ ScheduleFingerprint(PlanFromSeed(seed, options));
      }
      EXPECT_EQ(h, kExpected[mode][s])
          << FuzzAppModeName(static_cast<FuzzAppMode>(mode)) << " load_scale=" << kScales[s]
          << ": 0x" << std::hex << h;
    }
  }
}

}  // namespace
}  // namespace atropos
