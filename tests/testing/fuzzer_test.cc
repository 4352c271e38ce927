// End-to-end tests for the deterministic workload fuzzer: a fixed seed
// corpus must pass every invariant oracle, replay to identical digests, and
// the shrinker must reduce a planted accounting bug to a tiny repro.

#include "src/testing/fuzzer.h"

#include <gtest/gtest.h>

#include "src/apps/minikv.h"
#include "src/obs/obs.h"
#include "src/testing/audit_controller.h"
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
// recorder. Drive a plan through the stack RunPlan builds, but with a
// recorder far smaller than the run, and expect that refusal.
TEST(FuzzerTest, WrappedRecorderIsReportedByDetectorMonotonicity) {
  FuzzPlanOptions options;
  options.force_mode = static_cast<int>(FuzzAppMode::kKvLock);
  FuzzPlan plan = PlanFromSeed(2, options);

  Executor executor;
  AtroposRuntime runtime(executor.clock(), plan.config);
  AuditController audit(runtime);
  Observability obs(/*recorder_capacity=*/8);
  runtime.SetRecorder(&obs.recorder);
  runtime.SetCancelObserver(
      [&audit](uint64_t key, double score) { audit.OnCancelIssued(key, score); });
  MiniKvOptions kv;
  kv.store.point_op_cost = 1000;
  kv.store.scan_cost_per_key = 20;
  MiniKv app(executor, &audit, kv);

  FrontendOptions fopt;
  fopt.duration = plan.duration;
  fopt.warmup = plan.warmup;
  fopt.tick_window = plan.tick_window;
  fopt.retry_cancelled = plan.retry_cancelled;
  fopt.max_retry_wait = plan.max_retry_wait;
  fopt.seed = plan.seed;
  Frontend frontend(executor, app, audit, fopt);
  frontend.SetObservability(&obs);
  for (const FuzzRequest& req : plan.requests) {
    OneShotSpec shot;
    shot.type = req.type;
    shot.at = req.at;
    shot.arg = req.arg;
    shot.client_class = req.client_class;
    shot.background = req.background;
    shot.non_cancellable = req.non_cancellable;
    frontend.AddOneShot(shot);
  }
  frontend.Run();
  ASSERT_GT(obs.recorder.overwritten(), 0u);

  OracleContext ctx;
  ctx.runtime = &runtime;
  ctx.audit = &audit;
  ctx.recorder = &obs.recorder;
  ctx.executor = &executor;
  ctx.policy = plan.config.policy;
  ctx.max_cancels_per_task = plan.config.max_cancels_per_task;
  // No initiator is registered: the runtime suppresses every decision
  // (§3.1) but still records each window, far more than 8 events.
  ctx.initiator_registered = false;
  std::vector<OracleViolation> violations = RunAllOracles(ctx);
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

}  // namespace
}  // namespace atropos
