#include "src/mining/miner.h"

#include <algorithm>
#include <cstdarg>
#include <cstdio>

#include "src/diagnose/diagnoser.h"
#include "src/testing/shrinker.h"

namespace atropos {

namespace {

// Baseline must sustain at least this many resource-overload windows.
constexpr uint64_t kMinOverloadWindows = 3;
// Treatment must actually act.
constexpr uint64_t kMinCancels = 1;
// Baseline p99 must exceed treatment p99 by this factor.
constexpr double kMinP99Ratio = 1.5;

void Progress(const MineOptions& options, const std::string& line) {
  if (options.progress) {
    options.progress(line);
  }
}

std::string Format(const char* fmt, ...) {
  char buf[256];
  va_list ap;
  va_start(ap, fmt);
  vsnprintf(buf, sizeof(buf), fmt, ap);
  va_end(ap);
  return buf;
}

}  // namespace

ScenarioPair RunScenarioPair(const FuzzPlan& plan) {
  ScenarioPair pair;
  FuzzPlan baseline_plan = plan;
  // Master switch only: the detector, estimator, and flight recorder keep
  // running, so the baseline trace still carries contention snapshots for
  // the offline diagnoser — the runtime just never pulls the trigger.
  baseline_plan.config.cancellation_enabled = false;
  pair.baseline = RunPlan(baseline_plan);
  pair.treatment = RunPlan(plan);
  return pair;
}

RecoveryVerdict EvaluateRecovery(const ScenarioPair& pair) {
  RecoveryVerdict v;
  v.baseline_overload_windows = pair.baseline.stats.resource_overload_windows;
  v.treatment_cancels = pair.treatment.stats.cancels_issued;
  TimeMicros base_p99 = pair.baseline.metrics.P99();
  TimeMicros treat_p99 = pair.treatment.metrics.P99();
  v.p99_ratio = treat_p99 > 0 ? static_cast<double>(base_p99) / static_cast<double>(treat_p99)
                              : 0.0;

  if (!pair.baseline.ok() || !pair.treatment.ok()) {
    v.reject_reason = "oracle violation";
    return v;
  }
  if (v.baseline_overload_windows < kMinOverloadWindows) {
    v.reject_reason = Format("baseline overload windows %llu < %llu",
                             (unsigned long long)v.baseline_overload_windows,
                             (unsigned long long)kMinOverloadWindows);
    return v;
  }
  if (v.treatment_cancels < kMinCancels) {
    v.reject_reason = Format("treatment cancels %llu < %llu",
                             (unsigned long long)v.treatment_cancels,
                             (unsigned long long)kMinCancels);
    return v;
  }
  if (v.p99_ratio < kMinP99Ratio) {
    v.reject_reason = Format("p99 ratio %.2f < %.2f", v.p99_ratio, kMinP99Ratio);
    return v;
  }
  v.qualifies = true;
  return v;
}

CorpusEntry EntryForPlan(const FuzzPlan& plan, const FuzzPlanOptions& plan_options) {
  ScenarioPair pair = RunScenarioPair(plan);
  RecoveryVerdict verdict = EvaluateRecovery(pair);

  CorpusEntry entry;
  entry.mode = std::string(FuzzAppModeName(plan.mode));
  entry.seed = plan.seed;
  entry.name = entry.mode + "/s" + std::to_string(plan.seed);
  entry.load_scale = plan_options.load_scale;
  entry.drop_free = plan_options.drop_free_request_type;
  entry.extended_modes = plan_options.extended_modes;
  entry.force_mode = plan_options.force_mode;
  entry.keep = plan.kept;
  entry.quiet_faults = plan.faults.cancel_delay == 0 && plan.faults.extra_ticks.empty();
  entry.requests = plan.requests.size();
  entry.digest = pair.treatment.digest;
  entry.baseline_digest = pair.baseline.digest;
  entry.cancels = pair.treatment.stats.cancels_issued;
  entry.p99_ratio = verdict.p99_ratio;

  // Both verdicts come from the *baseline* trace: sustained overload means
  // rich evidence, and sharing the trace makes the comparison a pure
  // attribution cross-check (raw wait/hold integration vs the estimator's
  // recorded overload flags) rather than a comparison of two different runs.
  Diagnosis diagnosis = DiagnoseTrace(pair.baseline.events);
  entry.blamed_class = diagnosis.blamed_class;
  entry.estimator_class = EstimatorBlamedClass(pair.baseline.events);
  entry.agreement = entry.blamed_class == entry.estimator_class;
  if (!entry.agreement) {
    entry.note = Format("diagnoser blames %s (%.0f%% of integrated delay) but estimator flagged %s",
                        entry.blamed_class.empty() ? "-" : entry.blamed_class.c_str(),
                        diagnosis.blame_share * 100.0,
                        entry.estimator_class.empty() ? "-" : entry.estimator_class.c_str());
  }
  return entry;
}

MineReport MineScenarios(const MineOptions& options) {
  MineReport report;
  for (int i = 0; i < options.max_seeds; i++) {
    if (options.target > 0 && static_cast<int>(report.entries.size()) >= options.target) {
      break;
    }
    uint64_t seed = options.seed_start + static_cast<uint64_t>(i);
    report.seeds_scanned++;
    FuzzPlan plan = PlanFromSeed(seed, options.plan_options);
    ScenarioPair pair = RunScenarioPair(plan);
    RecoveryVerdict verdict = EvaluateRecovery(pair);
    if (!verdict.qualifies) {
      continue;
    }
    report.candidates++;
    Progress(options,
             Format("seed %llu (%s): qualifies — %llu overload windows, %llu cancels, "
                    "p99 ratio %.2f",
                    (unsigned long long)seed,
                    std::string(FuzzAppModeName(plan.mode)).c_str(),
                    (unsigned long long)verdict.baseline_overload_windows,
                    (unsigned long long)verdict.treatment_cancels, verdict.p99_ratio));

    FuzzPlan final_plan = plan;
    if (options.shrink_budget > 0) {
      ShrinkOptions shrink_options;
      shrink_options.max_runs = options.shrink_budget;
      ShrinkResult shrunk = ShrinkPlanIf(
          plan,
          [](const FuzzPlan& candidate) {
            return EvaluateRecovery(RunScenarioPair(candidate)).qualifies;
          },
          options.plan_options, shrink_options);
      report.shrink_runs += shrunk.runs;
      // ddmin preserves the predicate, but a budget of 0 probes or a
      // pathological final composition is cheap to guard against: keep the
      // shrunk plan only if it still qualifies on a fresh pair.
      ScenarioPair check = RunScenarioPair(shrunk.plan);
      if (EvaluateRecovery(check).qualifies) {
        final_plan = shrunk.plan;
        Progress(options, Format("seed %llu: shrunk %zu -> %zu requests in %d probe(s)",
                                 (unsigned long long)seed, plan.requests.size(),
                                 final_plan.requests.size(), shrunk.runs));
      }
    }

    CorpusEntry entry = EntryForPlan(final_plan, options.plan_options);
    if (!entry.agreement) {
      report.disagreements++;
      Progress(options, Format("seed %llu: attribution disagreement (%s)",
                               (unsigned long long)seed, entry.note.c_str()));
    }
    report.entries.push_back(std::move(entry));
  }
  return report;
}

}  // namespace atropos
